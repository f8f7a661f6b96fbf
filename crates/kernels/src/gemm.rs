//! Register-blocked GEMM in the three transpose variants the workspace
//! needs, with runtime AVX2+FMA dispatch and pool-based row parallelism.
//!
//! * [`gemm_nn`] — `C = A·B (+ bias)`: every forward projection.
//! * [`gemm_nt`] — `C = A·Bᵀ`: attention scores (`Q·Kᵀ`) and the matmul
//!   backward `dA = dC·Bᵀ`, without materializing the transpose.
//! * [`gemm_tn`] — `C = Aᵀ·B`: the matmul backward `dB = Aᵀ·dC`, again
//!   transpose-free.
//!
//! All operands are dense row-major `f32` slices. Inputs small enough
//! that threading costs more than it saves run serially; larger ones are
//! partitioned into row blocks on the persistent [`crate::pool`].

// The internal tile/block helpers take flat BLAS-style argument lists
// (slices plus strides plus dimensions) on purpose — bundling them into
// structs would obscure the direct correspondence with the GEMM math.
#![allow(clippy::too_many_arguments)]

use crate::pool;

/// Below this many multiply-adds the threading overhead is not worth
/// paying.
const PARALLEL_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Elementwise epilogue fused onto a GEMM's output: applied to each row
/// block immediately after it is computed, on the thread that produced
/// it, while the block is still hot in that thread's cache — so the
/// activation never costs a second full pass over the output matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Act {
    /// Plain GEMM output (`C = A·B + bias`).
    #[default]
    None,
    /// GELU over the output — the `fc1 → activation` fusion of the
    /// transformer feed-forward block.
    Gelu,
}

impl Act {
    /// Apply the epilogue to one finished output block.
    #[inline]
    pub(crate) fn apply(self, block: &mut [f32]) {
        if self == Act::Gelu {
            crate::math::gelu(block);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(dead_code)]
pub(crate) fn simd_available() -> bool {
    false
}

/// Name of the active SIMD dispatch target (for reports and logs).
pub fn simd_kind() -> &'static str {
    if simd_available() {
        "avx2+fma"
    } else {
        "portable"
    }
}

pub(crate) fn should_parallelize(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= PARALLEL_FLOP_THRESHOLD && m >= 2 && pool::current_parallelism() > 1
}

/// `C = A(m×k) · B(k×n) [+ bias(n)]`, row-major, bias broadcast per row.
pub fn gemm_nn(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_nn_act(a, b, bias, c, m, k, n, Act::None);
}

/// [`gemm_nn`] with a fused elementwise epilogue (see [`Act`]).
pub fn gemm_nn_act(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    act: Act,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    if should_parallelize(m, k, n) {
        pool::parallel_rows(c, m, n, |i0, block| {
            serial_nn_tn(a, k, 1, b, bias, block, i0, block.len() / n, k, n);
            act.apply(block);
        });
    } else {
        serial_nn_tn(a, k, 1, b, bias, c, 0, m, k, n);
        act.apply(c);
    }
}

/// `C = A(m×k) · Bᵀ [+ bias(n)]` where `bt` stores `B` as `n×k`
/// row-major — the k-contiguous layout attention keys and weight
/// matrices already have, so no transpose is ever materialized.
pub fn gemm_nt(
    a: &[f32],
    bt: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    // The dot-product NT tile pays a horizontal sum per output element,
    // which caps it around a third of the NN tile's throughput. Once A has
    // enough rows to amortize the copy, transposing B into a scratch
    // buffer and running the broadcast-FMA NN tile is strictly faster
    // (`Q·Kᵀ` with its small head dim benefits the most).
    if m >= 8 && k * n <= MAX_TRANSPOSE_SCRATCH {
        return TRANSPOSE_SCRATCH.with(|buf| {
            let mut b = buf.borrow_mut();
            b.clear();
            b.resize(k * n, 0.0);
            for (j, row) in bt.chunks_exact(k).enumerate() {
                for (p, &v) in row.iter().enumerate() {
                    b[p * n + j] = v;
                }
            }
            let b: &[f32] = &b;
            if should_parallelize(m, k, n) {
                pool::parallel_rows(c, m, n, |i0, block| {
                    serial_nn_tn(a, k, 1, b, bias, block, i0, block.len() / n, k, n);
                });
            } else {
                serial_nn_tn(a, k, 1, b, bias, c, 0, m, k, n);
            }
        });
    }
    if should_parallelize(m, k, n) {
        pool::parallel_rows(c, m, n, |i0, block| {
            serial_nt(a, bt, bias, block, i0, block.len() / n, k, n);
        });
    } else {
        serial_nt(a, bt, bias, c, 0, m, k, n);
    }
}

/// Cap on the per-thread scratch used to transpose `B` in [`gemm_nt`]
/// (4 MiB of `f32`s); larger operands keep the direct dot-product tile.
const MAX_TRANSPOSE_SCRATCH: usize = 1 << 20;

thread_local! {
    /// Reused `B`-transpose scratch for [`gemm_nt`] (see above).
    static TRANSPOSE_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `C = Aᵀ · B(k×n) [+ bias(n)]` where `at` stores `A` as `k×m`
/// row-major — the layout an activation matrix already has when its
/// *columns* index the output rows (`dB = Aᵀ·dC`).
pub fn gemm_tn(
    at: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    if should_parallelize(m, k, n) {
        pool::parallel_rows(c, m, n, |i0, block| {
            serial_nn_tn(at, 1, m, b, bias, block, i0, block.len() / n, k, n);
        });
    } else {
        serial_nn_tn(at, 1, m, b, bias, c, 0, m, k, n);
    }
}

/// Serial NN/TN dispatch: element `A[i, p]` lives at `a[i*si + p*sp]`,
/// so `(si, sp) = (k, 1)` is NN and `(1, m)` is TN.
fn serial_nn_tn(
    a: &[f32],
    si: usize,
    sp: usize,
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 and FMA were detected at runtime.
        unsafe { avx2::block_nn_tn(a, si, sp, b, bias, c, i0, rows, k, n) };
        return;
    }
    portable::block_nn_tn(a, si, sp, b, bias, c, i0, rows, k, n);
}

/// Serial NT dispatch over one row block.
fn serial_nt(
    a: &[f32],
    bt: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: AVX2 and FMA were detected at runtime.
        unsafe { avx2::block_nt(a, bt, bias, c, i0, rows, k, n) };
        return;
    }
    portable::block_nt(a, bt, bias, c, i0, rows, k, n);
}

/// Portable fallbacks: 4-row register blocking over unit-stride inner
/// loops; the fixed-size accumulator rows autovectorize on any target.
mod portable {
    pub(super) fn block_nn_tn(
        a: &[f32],
        si: usize,
        sp: usize,
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let mut r = 0;
        while r < rows {
            let take = (rows - r).min(4);
            let c_base = r * n;
            match bias {
                Some(bias) => {
                    for rr in 0..take {
                        c[c_base + rr * n..c_base + (rr + 1) * n].copy_from_slice(bias);
                    }
                }
                None => c[c_base..c_base + take * n].fill(0.0),
            }
            for p in 0..k {
                let b_row = &b[p * n..(p + 1) * n];
                for rr in 0..take {
                    let a_v = a[(i0 + r + rr) * si + p * sp];
                    let c_row = &mut c[c_base + rr * n..c_base + (rr + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += a_v * bv;
                    }
                }
            }
            r += take;
        }
    }

    pub(super) fn block_nt(
        a: &[f32],
        bt: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        for r in 0..rows {
            let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
            let c_row = &mut c[r * n..(r + 1) * n];
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = &bt[j * k..(j + 1) * k];
                let dot: f32 = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
                *cv = dot + bias.map_or(0.0, |bb| bb[j]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of an 8-lane vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// One row block of NN or TN (see `serial_nn_tn` for the `si`/`sp`
    /// addressing scheme): 4×16 register tiles held across the `k` loop,
    /// one B load feeding four FMAs.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime, and the
    /// slice extents established by the public entry points must hold.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn block_nn_tn(
        a: &[f32],
        si: usize,
        sp: usize,
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let mut r = 0;
        while r < rows {
            let take = (rows - r).min(4);
            match take {
                4 => tile_rows::<4>(a, si, sp, b, bias, c, i0, r, k, n),
                3 => tile_rows::<3>(a, si, sp, b, bias, c, i0, r, k, n),
                2 => tile_rows::<2>(a, si, sp, b, bias, c, i0, r, k, n),
                _ => tile_rows::<1>(a, si, sp, b, bias, c, i0, r, k, n),
            }
            r += take;
        }
    }

    /// One stripe of `R` output rows: C rows `r0..r0+R` (block-local),
    /// A rows `i0+r0..i0+r0+R` (absolute).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_rows<const R: usize>(
        a: &[f32],
        si: usize,
        sp: usize,
        b: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        r0: usize,
        k: usize,
        n: usize,
    ) {
        let n16 = n - n % 16;
        let mut j = 0;
        while j < n16 {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            if let Some(bias) = bias {
                let b0 = _mm256_loadu_ps(bias.as_ptr().add(j));
                let b1 = _mm256_loadu_ps(bias.as_ptr().add(j + 8));
                acc.fill([b0, b1]);
            }
            for p in 0..k {
                let bp = b.as_ptr().add(p * n + j);
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.get_unchecked((i0 + r0 + r) * si + p * sp));
                    row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                    row[1] = _mm256_fmadd_ps(av, b1, row[1]);
                }
            }
            for (r, row) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add((r0 + r) * n + j);
                _mm256_storeu_ps(cp, row[0]);
                _mm256_storeu_ps(cp.add(8), row[1]);
            }
            j += 16;
        }
        // 8-wide then scalar column tails.
        let n8 = n - (n - n16) % 8;
        while j < n8 {
            let mut acc = [_mm256_setzero_ps(); R];
            if let Some(bias) = bias {
                acc = [_mm256_loadu_ps(bias.as_ptr().add(j)); R];
            }
            for p in 0..k {
                let b0 = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                for (r, av) in acc.iter_mut().enumerate() {
                    let a_v = _mm256_set1_ps(*a.get_unchecked((i0 + r0 + r) * si + p * sp));
                    *av = _mm256_fmadd_ps(a_v, b0, *av);
                }
            }
            for (r, av) in acc.iter().enumerate() {
                _mm256_storeu_ps(c.as_mut_ptr().add((r0 + r) * n + j), *av);
            }
            j += 8;
        }
        while j < n {
            for r in 0..R {
                let mut s = bias.map_or(0.0, |bb| bb[j]);
                for p in 0..k {
                    s += a[(i0 + r0 + r) * si + p * sp] * b[p * n + j];
                }
                c[(r0 + r) * n + j] = s;
            }
            j += 1;
        }
    }

    /// One row block of NT: dot products along the shared `k` axis, with
    /// a 2×4 register tile (2 A rows × 4 B rows, 8 accumulators) so each
    /// B load feeds two FMAs.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime, and the
    /// slice extents established by the public entry points must hold.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn block_nt(
        a: &[f32],
        bt: &[f32],
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let k8 = k - k % 8;
        let mut r = 0;
        while r < rows {
            let rr = (rows - r).min(2);
            let mut j = 0;
            while j < n {
                let jw = (n - j).min(4);
                let mut acc0 = [_mm256_setzero_ps(); 4];
                let mut acc1 = [_mm256_setzero_ps(); 4];
                let a0p = a.as_ptr().add((i0 + r) * k);
                let a1p = a.as_ptr().add((i0 + r + rr - 1) * k);
                let mut p = 0;
                while p < k8 {
                    let a0 = _mm256_loadu_ps(a0p.add(p));
                    let a1 = _mm256_loadu_ps(a1p.add(p));
                    for (q, (q0, q1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate().take(jw) {
                        let bv = _mm256_loadu_ps(bt.as_ptr().add((j + q) * k + p));
                        *q0 = _mm256_fmadd_ps(a0, bv, *q0);
                        *q1 = _mm256_fmadd_ps(a1, bv, *q1);
                    }
                    p += 8;
                }
                let acc = [acc0, acc1];
                for ri in 0..rr {
                    for q in 0..jw {
                        let mut s = hsum(acc[ri][q]);
                        let arow = (i0 + r + ri) * k;
                        for pp in k8..k {
                            s += a[arow + pp] * bt[(j + q) * k + pp];
                        }
                        if let Some(bb) = bias {
                            s += bb[j + q];
                        }
                        c[(r + ri) * n + (j + q)] = s;
                    }
                }
                j += jw;
            }
            r += rr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn naive_nn(
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = bias.map_or(0.0, |bb| bb[j]);
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn nn_matches_naive_on_odd_shapes() {
        for &(m, k, n) in &[
            (1, 3, 1),
            (5, 7, 19),
            (4, 16, 48),
            (7, 64, 33),
            (3, 5, 8),
            (70, 70, 70),
        ] {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let bias = pseudo(n, 3);
            for bias in [None, Some(&bias[..])] {
                let want = naive_nn(&a, &b, bias, m, k, n);
                let mut got = vec![0.0f32; m * n];
                gemm_nn(&a, &b, bias, &mut got, m, k, n);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() <= 1e-4, "{g} vs {w} at {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn nt_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 9, 5), (6, 16, 4), (5, 23, 17), (48, 16, 48)] {
            let a = pseudo(m * k, 4);
            let bt = pseudo(n * k, 5);
            // Bᵀ where B[p][j] = bt[j*k+p]; naive on the materialized B.
            let mut b = vec![0.0f32; k * n];
            for p in 0..k {
                for j in 0..n {
                    b[p * n + j] = bt[j * k + p];
                }
            }
            let want = naive_nn(&a, &b, None, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_nt(&a, &bt, None, &mut got, m, k, n);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-4, "{g} vs {w} at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn tn_matches_naive() {
        for &(m, k, n) in &[(1, 2, 1), (4, 9, 7), (16, 33, 8), (33, 64, 19)] {
            let at = pseudo(k * m, 6);
            let b = pseudo(k * n, 7);
            let mut a = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    a[i * k + p] = at[p * m + i];
                }
            }
            let want = naive_nn(&a, &b, None, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_tn(&at, &b, None, &mut got, m, k, n);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-4, "{g} vs {w} at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gelu_epilogue_matches_gemm_then_gelu() {
        for &(m, k, n) in &[(3, 5, 8), (7, 16, 33), (70, 70, 70)] {
            let a = pseudo(m * k, 11);
            let b = pseudo(k * n, 12);
            let bias = pseudo(n, 13);
            let mut want = vec![0.0f32; m * n];
            gemm_nn(&a, &b, Some(&bias), &mut want, m, k, n);
            crate::math::gelu(&mut want);
            let mut got = vec![0.0f32; m * n];
            gemm_nn_act(&a, &b, Some(&bias), &mut got, m, k, n, Act::Gelu);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-6, "{g} vs {w} at {m}x{k}x{n}");
            }
        }
    }
}

#[cfg(test)]
mod timing {
    use super::*;

    #[test]
    #[ignore = "manual timing probe"]
    fn attention_shape_timing() {
        let (m, k, n) = (64usize, 16usize, 64usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.1).collect();
        let bt: Vec<f32> = (0..n * k).map(|i| (i % 7) as f32 * 0.1).collect();
        let mut c = vec![0.0f32; m * n];
        let iters = 20000;
        for (name, variant) in [("nn", 0), ("nt", 1), ("tn", 2)] {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                match variant {
                    0 => gemm_nn(&a, &b, None, &mut c, m, k, n),
                    1 => gemm_nt(&a, &bt, None, &mut c, m, k, n),
                    _ => gemm_tn(&a, &b, None, &mut c, m, k, n),
                }
            }
            let el = t.elapsed().as_secs_f64();
            let gflops = (2.0 * m as f64 * k as f64 * n as f64 * iters as f64) / el / 1e9;
            eprintln!("{name}: {:.3}s, {gflops:.1} GF/s", el);
        }
    }
}
