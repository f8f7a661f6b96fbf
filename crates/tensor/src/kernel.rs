//! Matrix-multiplication entry points for the autograd `Array`.
//!
//! The arithmetic lives in `em-kernels` (register-blocked AVX2+FMA GEMM
//! with a portable fallback, persistent worker pool); this module maps
//! `Array` shapes onto those flat kernels. Three layout variants exist so
//! backward passes never materialize a transpose: `NN` for forward
//! products, `NT` for `Q·Kᵀ`-style scores and `dA = dC·Bᵀ`, and `TN` for
//! `dB = Aᵀ·dC`. Batched products over a shared 2-D right operand are
//! flattened into one large GEMM instead of a per-item loop.

use crate::array::Array;
use em_kernels::pool;

/// Below this many multiply-adds the threading overhead is not worth paying.
const PARALLEL_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// `C = A(m×k) · B(k×n)`, row-parallel on the shared pool when large enough.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let _span = em_obs::span!("gemm");
    em_obs::counter_inc("gemm/calls");
    em_obs::counter_add("gemm/flops", 2 * (m * k * n) as u64);
    let mut c = vec![0.0f32; m * n];
    em_kernels::gemm_nn(a, b, None, &mut c, m, k, n);
    c
}

/// How a flat operand block is oriented inside a matmul variant.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// `A(m×k) · B(k×n)`
    Nn,
    /// `A(m×k) · Bᵀ` with `B` stored `n×k`
    Nt,
    /// `Aᵀ · B(k×n)` with `A` stored `k×m`
    Tn,
}

fn gemm_variant(v: Variant, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    match v {
        Variant::Nn => em_kernels::gemm_nn(a, b, None, c, m, k, n),
        Variant::Nt => em_kernels::gemm_nt(a, b, None, c, m, k, n),
        Variant::Tn => em_kernels::gemm_tn(a, b, None, c, m, k, n),
    }
}

/// Batched matrix product. See [`Array::matmul`] for the accepted shapes.
pub fn matmul(a: &Array, b: &Array) -> Array {
    matmul_impl(a, b, Variant::Nn)
}

/// Batched `A · Bᵀ` over the trailing axes: `[.., m, k] x [.., n, k] ->
/// [.., m, n]`. The fast path behind attention scores and the matmul
/// backward `dA = dC·Bᵀ`; no transpose is materialized.
pub fn matmul_nt(a: &Array, b: &Array) -> Array {
    matmul_impl(a, b, Variant::Nt)
}

/// Batched `Aᵀ · B` over the trailing axes: `[.., k, m] x [.., k, n] ->
/// [.., m, n]`. The fast path behind the matmul backward `dB = Aᵀ·dC`.
pub fn matmul_tn(a: &Array, b: &Array) -> Array {
    matmul_impl(a, b, Variant::Tn)
}

/// `Aᵀ·B` with every leading axis folded into the contraction:
/// `[.., r, m] x [.., r, n] -> [m, n]`, summing over all leading batches.
/// This is the weight gradient `dW = Aᵀ·dC` for a 2-D weight shared
/// across a batch, produced already reduced by a single GEMM instead of
/// per-batch products plus a reduction pass.
pub fn matmul_tn_reduce(a: &Array, b: &Array) -> Array {
    let _span = em_obs::span!("matmul");
    let (sa, sb) = (a.shape(), b.shape());
    assert!(sa.len() >= 2 && sb.len() >= 2, "matmul needs rank >= 2");
    let m = sa[sa.len() - 1];
    let n = sb[sb.len() - 1];
    let rows = a.len() / m;
    assert_eq!(
        rows,
        b.len() / n,
        "matmul_tn_reduce row mismatch: {sa:?} x {sb:?}"
    );
    em_obs::counter_inc("gemm/calls");
    em_obs::counter_add("gemm/flops", 2 * (rows * m * n) as u64);
    let mut out = vec![0.0f32; m * n];
    em_kernels::gemm_tn(a.data(), b.data(), None, &mut out, m, rows, n);
    Array::from_vec(out, vec![m, n])
}

fn matmul_impl(a: &Array, b: &Array, variant: Variant) -> Array {
    let _span = em_obs::span!("matmul");
    let (sa, sb) = (a.shape(), b.shape());
    assert!(
        sa.len() >= 2 && sb.len() >= 2,
        "matmul needs rank >= 2, got {sa:?} x {sb:?}"
    );
    // Logical (m, k, n) after accounting for the stored orientation.
    let (m, ka) = match variant {
        Variant::Tn => (sa[sa.len() - 1], sa[sa.len() - 2]),
        _ => (sa[sa.len() - 2], sa[sa.len() - 1]),
    };
    let (kb, n) = match variant {
        Variant::Nt => (sb[sb.len() - 1], sb[sb.len() - 2]),
        _ => (sb[sb.len() - 2], sb[sb.len() - 1]),
    };
    assert_eq!(ka, kb, "matmul inner dims differ: {sa:?} x {sb:?}");
    let batch_a: usize = sa[..sa.len() - 2].iter().product();
    let batch_b: usize = sb[..sb.len() - 2].iter().product();

    let (batch, out_batch_shape): (usize, Vec<usize>) = if sa.len() == 2 && sb.len() == 2 {
        (1, vec![])
    } else if sb.len() == 2 {
        (batch_a, sa[..sa.len() - 2].to_vec())
    } else if sa.len() == 2 {
        (batch_b, sb[..sb.len() - 2].to_vec())
    } else {
        assert_eq!(
            sa[..sa.len() - 2],
            sb[..sb.len() - 2],
            "matmul batch dims differ: {sa:?} x {sb:?}"
        );
        (batch_a, sa[..sa.len() - 2].to_vec())
    };

    let ad = a.data();
    let bd = b.data();
    em_obs::counter_add("gemm/calls", batch as u64);
    em_obs::counter_add("gemm/flops", 2 * (batch * m * ka * n) as u64);
    let mut out = vec![0.0f32; batch * m * n];
    let a_stride = if sa.len() == 2 { 0 } else { m * ka };
    let b_stride = if sb.len() == 2 { 0 } else { ka * n };

    if batch == 1 {
        gemm_variant(variant, ad, bd, &mut out, m, ka, n);
    } else if variant != Variant::Tn && sb.len() == 2 {
        // Shared 2-D right operand: the batch of `m×k` blocks is one
        // contiguous `(batch·m)×k` matrix — run a single large GEMM and
        // let the kernel row-partition it, instead of `batch` small calls.
        match variant {
            Variant::Nn => em_kernels::gemm_nn(ad, bd, None, &mut out, batch * m, ka, n),
            Variant::Nt => em_kernels::gemm_nt(ad, bd, None, &mut out, batch * m, ka, n),
            Variant::Tn => unreachable!(),
        }
    } else if batch * m * ka * n >= PARALLEL_FLOP_THRESHOLD && pool::current_parallelism() > 1 {
        // Parallelize across batch items (disjoint output chunks) on the
        // persistent pool; each item runs its GEMM serially.
        let threads = pool::current_parallelism().min(batch);
        let per = batch.div_ceil(threads);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
        for (chunk_idx, chunk) in out.chunks_mut(per * m * n).enumerate() {
            let start = chunk_idx * per;
            tasks.push(Box::new(move || {
                pool::with_serial_context(|| {
                    for (j, c) in chunk.chunks_mut(m * n).enumerate() {
                        let i = start + j;
                        let a_off = i * a_stride;
                        let b_off = i * b_stride;
                        gemm_variant(
                            variant,
                            &ad[a_off..a_off + m * ka],
                            &bd[b_off..b_off + ka * n],
                            c,
                            m,
                            ka,
                            n,
                        );
                    }
                });
            }));
        }
        pool::global().scope(tasks);
    } else {
        for (i, c) in out.chunks_mut(m * n).enumerate() {
            let a_off = i * a_stride;
            let b_off = i * b_stride;
            gemm_variant(
                variant,
                &ad[a_off..a_off + m * ka],
                &bd[b_off..b_off + ka * n],
                c,
                m,
                ka,
                n,
            );
        }
    }
    let mut shape = out_batch_shape;
    shape.push(m);
    shape.push(n);
    Array::from_vec(out, shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_matches_naive() {
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect(); // 2x3
        let b: Vec<f32> = (0..12).map(|v| v as f32).collect(); // 3x4
        let c = gemm(&a, &b, 2, 3, 4);
        // Row 0: [0,1,2] . cols of b
        assert_eq!(c, vec![20.0, 23.0, 26.0, 29.0, 56.0, 68.0, 80.0, 92.0]);
    }

    #[test]
    fn gemm_large_parallel_matches_reference() {
        let m = 70;
        let k = 70;
        let n = 70;
        let a: Vec<f32> = (0..m * k).map(|v| (v % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v % 7) as f32 - 3.0).collect();
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                naive[i * n + j] = s;
            }
        }
        let got = gemm(&a, &b, m, k, n);
        for (g, w) in got.iter().zip(&naive) {
            assert!((g - w).abs() <= 1e-2 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn matmul_2d() {
        let a = Array::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Array::from_vec(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_batched() {
        let a = Array::from_vec((0..8).map(|v| v as f32).collect(), vec![2, 2, 2]);
        let b = Array::from_vec((0..8).map(|v| v as f32).collect(), vec![2, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // Batch 0: [[0,1],[2,3]] x [[0,1],[2,3]] = [[2,3],[6,11]]
        assert_eq!(&c.data()[..4], &[2.0, 3.0, 6.0, 11.0]);
        // Batch 1: [[4,5],[6,7]] x [[4,5],[6,7]] = [[46,55],[66,79]]
        assert_eq!(&c.data()[4..], &[46.0, 55.0, 66.0, 79.0]);
    }

    #[test]
    fn matmul_batch_times_shared_matrix() {
        let a = Array::from_vec((0..8).map(|v| v as f32).collect(), vec![2, 2, 2]);
        let w = Array::from_vec(vec![1.0, 0.0, 0.0, 1.0], vec![2, 2]); // identity
        let c = a.matmul(&w);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Array::from_vec((0..24).map(|v| v as f32 * 0.1).collect(), vec![2, 3, 4]);
        let b = Array::from_vec(
            (0..40).map(|v| v as f32 * 0.05 - 1.0).collect(),
            vec![2, 5, 4],
        );
        let want = a.matmul(&b.transpose_last());
        let got = matmul_nt(&a, &b);
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn matmul_nt_shared_2d_rhs() {
        let a = Array::from_vec((0..24).map(|v| v as f32 * 0.1).collect(), vec![2, 3, 4]);
        let w = Array::from_vec((0..20).map(|v| v as f32 * 0.05 - 0.4).collect(), vec![5, 4]);
        let want = a.matmul(&w.transpose_last());
        let got = matmul_nt(&a, &w);
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Array::from_vec((0..12).map(|v| v as f32 * 0.3 - 1.0).collect(), vec![4, 3]);
        let b = Array::from_vec((0..20).map(|v| v as f32 * 0.2).collect(), vec![4, 5]);
        let want = a.transpose_last().matmul(&b);
        let got = matmul_tn(&a, &b);
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn matmul_tn_batched() {
        let a = Array::from_vec(
            (0..24).map(|v| v as f32 * 0.1 - 1.0).collect(),
            vec![2, 4, 3],
        );
        let b = Array::from_vec((0..40).map(|v| v as f32 * 0.07).collect(), vec![2, 4, 5]);
        let want = a.transpose_last().matmul(&b);
        let got = matmul_tn(&a, &b);
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }
}
