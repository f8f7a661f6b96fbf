//! Register-blocked f32 GEMM: the three transpose variants autograd and
//! attention need, plus the frozen forward's GEMM over packed weights,
//! with runtime SIMD dispatch and pool-based row parallelism.
//!
//! * [`gemm_nn`] — `C = A·B (+ bias)`: the autograd forward projection.
//! * [`gemm_nt`] — `C = A·Bᵀ`: attention scores (`Q·Kᵀ`) and the matmul
//!   backward `dA = dC·Bᵀ`, without materializing the transpose.
//! * [`gemm_tn`] — `C = Aᵀ·B`: the matmul backward `dB = Aᵀ·dC`, again
//!   transpose-free.
//! * [`gemm_packed_f32`] — `C = act(A·W (+ bias))` against a frozen
//!   [`PackedF32`]: `W` packed once into `[⌈n/16⌉][k][16]` panels, read
//!   by a 12×32 AVX-512 tile, a 6×16 AVX2 tile or the portable loop,
//!   each bit-identical to [`gemm_nn`] on the dense matrix.
//!
//! All other operands are dense row-major `f32` slices. Inputs small
//! enough that threading costs more than it saves run serially; larger
//! ones are partitioned into row blocks on the persistent
//! [`crate::pool`].

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

/// Whether the AVX-512F tile of [`gemm_packed_f32`] is usable.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| simd_available() && std::arch::is_x86_feature_detected!("avx512f"))
}

/// Name of the widest f32 tile the runtime dispatch selects
/// (`"avx512f"`, `"avx2+fma"` or `"portable"`), for reports and logs.
pub fn simd_kind() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        return "avx512f";
    }
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
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    if should_parallelize(m, k, n) {
        pool::parallel_rows(c, m, n, |i0, block| {
            serial_nn_tn(a, k, 1, b, bias, block, i0, block.len() / n, k, n);
        });
    } else {
        serial_nn_tn(a, k, 1, b, bias, c, 0, m, k, n);
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

/// Output columns per weight panel: one zmm or two ymm registers.
const NR: usize = 16;

/// A frozen f32 weight matrix in the one layout [`gemm_packed_f32`]
/// reads.
///
/// Built from the dense `[k, n]` row-major matrix (`k` inputs, `n`
/// outputs). Weights live in `[⌈n/16⌉][k][16]` panels, zero-padded past
/// `n`: each reduction step of a panel is one contiguous 64-byte row,
/// and adjacent panels are adjacent in memory, so a tile streams its
/// weights instead of striding across a whole `[k, n]` row per step. The
/// layout is private to this module: [`PackedF32::pack`] and
/// [`PackedF32::unpack`] convert to and from the dense matrix
/// checkpoints store.
#[derive(Debug, Clone)]
pub struct PackedF32 {
    k: usize,
    n: usize,
    /// `[⌈n/16⌉][k][16]`, zero past `n`.
    panels: Vec<f32>,
}

impl PackedF32 {
    /// Pack the dense `[k, n]` row-major matrix `w`.
    ///
    /// # Panics
    /// If `w.len() != k * n`.
    pub fn pack(w: &[f32], k: usize, n: usize) -> PackedF32 {
        assert_eq!(w.len(), k * n, "weights must be [k, n]");
        let mut packed = PackedF32 {
            k,
            n,
            panels: vec![0.0; n.div_ceil(NR) * k * NR],
        };
        for j0 in (0..n).step_by(NR) {
            let cols = NR.min(n - j0);
            let at = packed.panel_at(j0);
            for p in 0..k {
                packed.panels[at + p * NR..][..cols].copy_from_slice(&w[p * n + j0..][..cols]);
            }
        }
        packed
    }

    /// The dense `[k, n]` matrix this was packed from.
    pub fn unpack(&self) -> Vec<f32> {
        let (k, n) = (self.k, self.n);
        let mut w = vec![0.0f32; k * n];
        for j0 in (0..n).step_by(NR) {
            let cols = NR.min(n - j0);
            let at = self.panel_at(j0);
            for p in 0..k {
                w[p * n + j0..][..cols].copy_from_slice(&self.panels[at + p * NR..][..cols]);
            }
        }
        w
    }

    /// Index in `panels` of the panel holding column `j0`.
    fn panel_at(&self, j0: usize) -> usize {
        (j0 / NR) * self.k * NR
    }

    /// The `count` adjacent panels starting with the one holding `j0`.
    #[cfg(target_arch = "x86_64")]
    fn panels(&self, j0: usize, count: usize) -> &[f32] {
        let at = self.panel_at(j0);
        &self.panels[at..at + count * self.k * NR]
    }

    /// Input width `k`.
    pub fn in_features(&self) -> usize {
        self.k
    }

    /// Output width `n`.
    pub fn out_features(&self) -> usize {
        self.n
    }

    /// Resident bytes, padding included.
    pub fn byte_len(&self) -> usize {
        4 * self.panels.len()
    }
}

/// `C = act(A(m×k) · W [+ bias(n)])` for the `[m, k]` rows `a` against
/// packed weights `w`: the frozen forward's f32 projection.
///
/// Every output element is computed as [`gemm_nn`] computes it on the
/// dense matrix: start from the bias (or 0), then one fused multiply-add
/// per reduction step in ascending order — except the last `n mod 8`
/// columns, which keep the scalar unfused `s += a·w` — so on any CPU the
/// result is bit-identical to [`gemm_nn`] followed by `act`. `act` is
/// applied per row block while the block is hot (see [`Act`]).
pub fn gemm_packed_f32(
    a: &[f32],
    w: &PackedF32,
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    act: Act,
) {
    let (k, n) = (w.k, w.n);
    assert_eq!(a.len(), m * k, "a must be [m, k]");
    assert_eq!(c.len(), m * n, "c must be [m, n]");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "one bias per output column");
    }
    if should_parallelize(m, k, n) {
        pool::parallel_rows(c, m, n, |i0, block| {
            serial_packed(a, w, bias, block, i0, block.len() / n);
            act.apply(block);
        });
    } else {
        serial_packed(a, w, bias, c, 0, m);
        act.apply(c);
    }
}

/// One row block `c` (rows `i0..i0 + rows` of the product) of the packed
/// GEMM, dispatched at runtime: the AVX-512 12×32 tile, the AVX2 6×16
/// tile, or the portable loop — all over the same panels.
fn serial_packed(
    a: &[f32],
    w: &PackedF32,
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_available() {
            // SAFETY: AVX-512F was detected at runtime.
            unsafe { avx512::block_packed(a, w, bias, c, i0, rows) };
            return;
        }
        if simd_available() {
            // SAFETY: AVX2 and FMA were detected at runtime.
            unsafe { avx2::block_packed(a, w, bias, c, i0, rows) };
            return;
        }
    }
    portable_packed(a, w, bias, c, i0, rows);
}

/// One row block of the packed GEMM on targets without AVX2+FMA, with
/// the unfused `s += a·w` of [`gemm_nn`]'s portable loop: 4-row stripes,
/// and per reduction step a sweep over each output row, panel by panel,
/// so its columns are independent sums and the loop autovectorizes
/// without reassociating any of them.
fn portable_packed(
    a: &[f32],
    w: &PackedF32,
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
) {
    let (k, n) = (w.k, w.n);
    for r0 in (0..rows).step_by(4) {
        let stripe = r0..rows.min(r0 + 4);
        for r in stripe.clone() {
            let out = &mut c[r * n..(r + 1) * n];
            match bias {
                Some(bias) => out.copy_from_slice(bias),
                None => out.fill(0.0),
            }
        }
        for p in 0..k {
            for r in stripe.clone() {
                let x = a[(i0 + r) * k + p];
                let mut outs = c[r * n..(r + 1) * n].chunks_exact_mut(NR);
                let mut panels = w.panels.chunks_exact(k * NR);
                for (out, panel) in outs.by_ref().zip(panels.by_ref()) {
                    for (cv, &wv) in out.iter_mut().zip(&panel[p * NR..][..NR]) {
                        *cv += x * wv;
                    }
                }
                if let Some(panel) = panels.next() {
                    for (cv, &wv) in outs.into_remainder().iter_mut().zip(&panel[p * NR..]) {
                        *cv += x * wv;
                    }
                }
            }
        }
    }
}

/// Columns `n - n % 8..n` of one row block: the scalar tail the SIMD
/// tiles leave, computed as [`gemm_nn`]'s tiles compute theirs.
#[cfg(target_arch = "x86_64")]
fn unfused_tail(
    a: &[f32],
    w: &PackedF32,
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
) {
    let (k, n) = (w.k, w.n);
    for j in n - n % 8..n {
        let w_j = &w.panels[w.panel_at(j) + j % NR..];
        for r in 0..rows {
            let mut s = bias.map_or(0.0, |b| b[j]);
            for p in 0..k {
                s += a[(i0 + r) * k + p] * w_j[p * NR];
            }
            c[r * n + j] = s;
        }
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
    use super::{PackedF32, NR};
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

    /// Activation rows per packed tile: 12 accumulators, 2 weight
    /// vectors and 1 broadcast fill 15 of the 16 ymm registers.
    const MR: usize = 6;

    /// One row block of the packed GEMM (see `super::serial_packed`):
    /// 6×16 tiles over the fused columns `0..n - n % 8` of each panel,
    /// rows inner so a panel is read from memory once and then from
    /// cache, then the unfused scalar tail.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn block_packed(
        a: &[f32],
        w: &PackedF32,
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
    ) {
        let (k, n) = (w.k, w.n);
        let n8 = n - n % 8;
        assert!(a.len() >= (i0 + rows) * k && c.len() >= rows * n);
        for j0 in (0..n8).step_by(NR) {
            // 16, or 8 in a last panel cut short by the scalar tail.
            let live = NR.min(n8 - j0);
            let mut b = [0.0f32; NR];
            if let Some(bias) = bias {
                b[..live].copy_from_slice(&bias[j0..j0 + live]);
            }
            // SAFETY: `b` is 16 floats.
            let init = unsafe {
                [
                    _mm256_loadu_ps(b.as_ptr()),
                    _mm256_loadu_ps(b.as_ptr().add(8)),
                ]
            };
            let panel = w.panels(j0, 1);
            let mut r = 0;
            while r < rows {
                let take = (rows - r).min(MR);
                let a = &a[(i0 + r) * k..(i0 + r + take) * k];
                let out = &mut c[r * n + j0..];
                // SAFETY: `a` holds `take` rows of `k`, `panel` `k` steps
                // of 16, and `out` reaches row `take - 1`, column
                // `live - 1`, since `j0 + live <= n` (asserted above).
                unsafe {
                    match take {
                        6 => packed_tile::<6>(a, k, panel, init, live, out, n),
                        5 => packed_tile::<5>(a, k, panel, init, live, out, n),
                        4 => packed_tile::<4>(a, k, panel, init, live, out, n),
                        3 => packed_tile::<3>(a, k, panel, init, live, out, n),
                        2 => packed_tile::<2>(a, k, panel, init, live, out, n),
                        _ => packed_tile::<1>(a, k, panel, init, live, out, n),
                    }
                }
                r += take;
            }
        }
        super::unfused_tail(a, w, bias, c, i0, rows);
    }

    /// `R` rows × one 16-column panel: per reduction step, two weight
    /// loads feed `2R` FMAs onto accumulators that start from `init` (the
    /// bias) — `tile_rows`' arithmetic, lane by lane. Stores the first
    /// `live` (8 or 16) columns.
    ///
    /// # Safety
    /// `a` holds `R` rows of `k`, `panel` `16k` floats, and `out` (row
    /// stride `n`) reaches row `R - 1`, column `live - 1`.
    #[inline(always)]
    unsafe fn packed_tile<const R: usize>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        init: [__m256; 2],
        live: usize,
        out: &mut [f32],
        n: usize,
    ) {
        let mut acc = [init; R];
        let (ap, wp) = (a.as_ptr(), panel.as_ptr());
        for p in 0..k {
            let w0 = _mm256_loadu_ps(wp.add(p * NR));
            let w1 = _mm256_loadu_ps(wp.add(p * NR + 8));
            for (r, row) in acc.iter_mut().enumerate() {
                let x = _mm256_set1_ps(*ap.add(r * k + p));
                row[0] = _mm256_fmadd_ps(x, w0, row[0]);
                row[1] = _mm256_fmadd_ps(x, w1, row[1]);
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let dst = out.as_mut_ptr().add(r * n);
            _mm256_storeu_ps(dst, row[0]);
            if live == NR {
                _mm256_storeu_ps(dst.add(8), row[1]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{PackedF32, NR};
    use std::arch::x86_64::*;

    /// Activation rows per tile: with two panels, 24 accumulators, 2
    /// weight vectors and 1 broadcast fill 27 of the 32 zmm registers.
    const MR: usize = 12;

    /// One row block of the packed GEMM (see `super::serial_packed`):
    /// 12×32 tiles over each pair of adjacent panels' fused columns
    /// `0..n - n % 8` (12×16 over an odd last panel), rows inner so the
    /// panels are read from memory once and then from cache, then the
    /// unfused scalar tail. Stores are masked to the fused columns.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn block_packed(
        a: &[f32],
        w: &PackedF32,
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
    ) {
        let (k, n) = (w.k, w.n);
        let n8 = n - n % 8;
        assert!(a.len() >= (i0 + rows) * k && c.len() >= rows * n);
        let mask = |cols: usize| ((1u32 << cols.min(NR)) - 1) as __mmask16;
        for j0 in (0..n8).step_by(2 * NR) {
            let live = (2 * NR).min(n8 - j0);
            let mut b = [0.0f32; 2 * NR];
            if let Some(bias) = bias {
                b[..live].copy_from_slice(&bias[j0..j0 + live]);
            }
            // SAFETY: `b` is 32 floats.
            let init = unsafe {
                [
                    _mm512_loadu_ps(b.as_ptr()),
                    _mm512_loadu_ps(b.as_ptr().add(NR)),
                ]
            };
            let masks = [mask(live), mask(live.saturating_sub(NR))];
            // SAFETY: the panels exist (a second one whenever `live > 16`,
            // since `j0 + live <= n`), and the masks store only columns
            // below `j0 + live`.
            unsafe {
                if live > NR {
                    row_tiles::<2>(a, w.panels(j0, 2), init, masks, c, j0, i0, rows, k, n);
                } else {
                    let (init, masks) = ([init[0]], [masks[0]]);
                    row_tiles::<1>(a, w.panels(j0, 1), init, masks, c, j0, i0, rows, k, n);
                }
            }
        }
        super::unfused_tail(a, w, bias, c, i0, rows);
    }

    /// Every `MR`-row tile of the block over `P` adjacent panels.
    ///
    /// # Safety
    /// `panels` holds `P` panels of `16k` floats; `a` holds rows
    /// `i0..i0 + rows` of `k`; `c` is `rows × n`, and each `masks[q]`
    /// selects only columns below `n` from column `j0 + 16q` on.
    #[inline(always)]
    unsafe fn row_tiles<const P: usize>(
        a: &[f32],
        panels: &[f32],
        init: [__m512; P],
        masks: [__mmask16; P],
        c: &mut [f32],
        j0: usize,
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let mut r = 0;
        while r < rows {
            let take = (rows - r).min(MR);
            let a = &a[(i0 + r) * k..(i0 + r + take) * k];
            let out = &mut c[r * n + j0..];
            // SAFETY: `a` holds `take` rows of `k`, and `out` reaches row
            // `take - 1` at every column the masks select (caller).
            unsafe {
                match take {
                    12 => tile::<12, P>(a, k, panels, init, masks, out, n),
                    11 => tile::<11, P>(a, k, panels, init, masks, out, n),
                    10 => tile::<10, P>(a, k, panels, init, masks, out, n),
                    9 => tile::<9, P>(a, k, panels, init, masks, out, n),
                    8 => tile::<8, P>(a, k, panels, init, masks, out, n),
                    7 => tile::<7, P>(a, k, panels, init, masks, out, n),
                    6 => tile::<6, P>(a, k, panels, init, masks, out, n),
                    5 => tile::<5, P>(a, k, panels, init, masks, out, n),
                    4 => tile::<4, P>(a, k, panels, init, masks, out, n),
                    3 => tile::<3, P>(a, k, panels, init, masks, out, n),
                    2 => tile::<2, P>(a, k, panels, init, masks, out, n),
                    _ => tile::<1, P>(a, k, panels, init, masks, out, n),
                }
            }
            r += take;
        }
    }

    /// `R` rows × `P` adjacent 16-column panels: per reduction step, `P`
    /// weight loads and `R` broadcasts feed `R·P` FMAs onto accumulators
    /// that start from `init` (the bias) — the AVX2 tiles' arithmetic,
    /// 16 lanes at a time.
    ///
    /// # Safety
    /// `a` holds `R` rows of `k`, `panels` `P` panels of `16k` floats,
    /// and `out` (row stride `n`) reaches row `R - 1` at every column
    /// `masks` selects.
    #[inline(always)]
    unsafe fn tile<const R: usize, const P: usize>(
        a: &[f32],
        k: usize,
        panels: &[f32],
        init: [__m512; P],
        masks: [__mmask16; P],
        out: &mut [f32],
        n: usize,
    ) {
        let mut acc = [init; R];
        let (ap, wp) = (a.as_ptr(), panels.as_ptr());
        for p in 0..k {
            let mut wv = [_mm512_setzero_ps(); P];
            for (q, v) in wv.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(wp.add(q * k * NR + p * NR));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let x = _mm512_set1_ps(*ap.add(r * k + p));
                for (cell, &wq) in row.iter_mut().zip(&wv) {
                    *cell = _mm512_fmadd_ps(x, wq, *cell);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (q, (&v, &m)) in row.iter().zip(&masks).enumerate() {
                _mm512_mask_storeu_ps(out.as_mut_ptr().add(r * n + q * NR), m, v);
            }
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gelu_epilogue_matches_gemm_then_gelu() {
        // 70³ and 96×72×80 cross the parallelism threshold.
        for &(m, k, n) in &[(3, 5, 8), (7, 16, 33), (70, 70, 70), (96, 72, 80)] {
            let a = pseudo(m * k, 11);
            let b = pseudo(k * n, 12);
            let bias = pseudo(n, 13);
            let mut want = vec![0.0f32; m * n];
            gemm_nn(&a, &b, Some(&bias), &mut want, m, k, n);
            crate::math::gelu(&mut want);
            let mut got = vec![0.0f32; m * n];
            let w = PackedF32::pack(&b, k, n);
            gemm_packed_f32(&a, &w, Some(&bias), &mut got, m, Act::Gelu);
            assert_eq!(bits(&got), bits(&want), "at {m}x{k}x{n}");
        }
    }

    #[test]
    fn pack_then_unpack_is_the_identity() {
        for (k, n) in [(0, 3), (1, 1), (3, 17), (33, 16), (257, 33)] {
            let w = pseudo(k * n, 61);
            let packed = PackedF32::pack(&w, k, n);
            assert_eq!((packed.in_features(), packed.out_features()), (k, n));
            assert_eq!(packed.byte_len(), 4 * k * n.div_ceil(NR) * NR);
            assert_eq!(packed.unpack(), w);
        }
    }

    /// A row-block kernel of the packed GEMM, called directly.
    pub(super) type PackedFn =
        unsafe fn(&[f32], &PackedF32, Option<&[f32]>, &mut [f32], usize, usize);

    /// Every packed path this CPU can run, by name.
    pub(super) fn packed_paths() -> Vec<(&'static str, PackedFn)> {
        let mut paths: Vec<(&'static str, PackedFn)> = vec![("portable", portable_packed)];
        #[cfg(target_arch = "x86_64")]
        {
            if simd_available() {
                paths.push(("avx2 6x16", avx2::block_packed));
            }
            if avx512_available() {
                paths.push(("avx512 12x32", avx512::block_packed));
            }
        }
        paths
    }

    /// `path` over rows `0..split` and `split..m` as two row blocks, each
    /// followed by `act`, as [`gemm_packed_f32`] runs them.
    fn run_path(
        path: PackedFn,
        a: &[f32],
        w: &PackedF32,
        bias: Option<&[f32]>,
        m: usize,
        act: Act,
        split: usize,
    ) -> Vec<f32> {
        let n = w.out_features();
        let mut got = vec![f32::NAN; m * n];
        let (top, bottom) = got.split_at_mut(split * n);
        // SAFETY: `packed_paths` lists only the paths whose CPU features
        // were detected; the blocks cover rows `0..split` and `split..m`.
        unsafe {
            path(a, w, bias, top, 0, split);
            path(a, w, bias, bottom, split, m - split);
        }
        act.apply(top);
        act.apply(bottom);
        got
    }

    /// The SIMD paths equal the unpacked [`gemm_nn`] bit for bit, and the
    /// portable path equals the unfused triple loop bit for bit, at tile
    /// ± 1 in every dimension: rows around the 6- and 12-row tiles,
    /// columns around the 8-column scalar tail and the 16/32-column
    /// panels, and reductions from 1 to past a cache line multiple.
    #[test]
    fn every_packed_path_matches_its_reference_bit_for_bit_at_tile_edges() {
        for m in 1..=13 {
            for n in [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48] {
                for k in [1, 3, 64, 257] {
                    let seed = (m * 100_000 + n * 1000 + k) as u32;
                    let a = pseudo(m * k, seed);
                    let dense = pseudo(k * n, seed ^ 0x5a5a);
                    let bias = pseudo(n, seed ^ 0xb1a5);
                    let w = PackedF32::pack(&dense, k, n);
                    for bias in [None, Some(&bias[..])] {
                        for act in [Act::None, Act::Gelu] {
                            let mut fused = vec![0.0f32; m * n];
                            gemm_nn(&a, &dense, bias, &mut fused, m, k, n);
                            act.apply(&mut fused);
                            let mut unfused = naive_nn(&a, &dense, bias, m, k, n);
                            act.apply(&mut unfused);
                            for (name, path) in packed_paths() {
                                let want = if name == "portable" { &unfused } else { &fused };
                                for split in [m, m / 2] {
                                    let got = run_path(path, &a, &w, bias, m, act, split);
                                    assert_eq!(
                                        bits(&got),
                                        bits(want),
                                        "{name} at {m}x{k}x{n}, bias {}, {act:?}, split {split}",
                                        bias.is_some()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_paths_propagate_nan_and_inf_like_the_triple_loop() {
        // n = 35: columns 32..35 are the scalar tail, the rest fused.
        let (m, k, n) = (13, 67, 35);
        let mut a = pseudo(m * k, 41);
        a[k + 5] = f32::NAN;
        a[3 * k] = f32::INFINITY;
        a[7 * k + k - 1] = f32::NEG_INFINITY;
        let mut dense = pseudo(k * n, 42);
        dense[2 * n + 4] = f32::INFINITY;
        dense[9 * n + 20] = f32::NAN;
        dense[(k - 1) * n + 33] = f32::NEG_INFINITY;
        let mut bias = pseudo(n, 43);
        bias[17] = f32::INFINITY;
        bias[34] = f32::NAN;
        let w = PackedF32::pack(&dense, k, n);
        let want = naive_nn(&a, &dense, Some(&bias), m, k, n);
        assert!(want.iter().any(|v| v.is_nan()));
        assert!(want.contains(&f32::INFINITY) && want.contains(&f32::NEG_INFINITY));
        let class = |v: &f32| (v.is_nan(), v.is_infinite().then_some(v.is_sign_positive()));
        let mut fused = vec![0.0f32; m * n];
        gemm_nn(&a, &dense, Some(&bias), &mut fused, m, k, n);
        for (name, path) in packed_paths() {
            let reference = if name == "portable" { &want } else { &fused };
            for split in [m, m / 2] {
                let got = run_path(path, &a, &w, Some(&bias), m, Act::None, split);
                assert_eq!(
                    got.iter().map(class).collect::<Vec<_>>(),
                    want.iter().map(class).collect::<Vec<_>>(),
                    "{name}, split {split}"
                );
                for (i, (g, r)) in got.iter().zip(reference).enumerate() {
                    assert!(
                        g.to_bits() == r.to_bits() || (g.is_nan() && r.is_nan()),
                        "{name}, split {split}, element {i}: {g} vs {r}"
                    );
                }
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

    /// The frozen forward's four weight GEMMs at d 256 / inner 1024 and
    /// d 64 / inner 256, for 40, 384 (8 × 48 tokens) and 1584 rows: the
    /// unpacked [`gemm_nn`] tile against each packed path this CPU runs.
    #[test]
    #[ignore = "manual timing probe"]
    fn weight_shape_timing() {
        for (m, k, n) in [(256, 768), (256, 256), (256, 1024), (1024, 256)]
            .into_iter()
            .chain([(64, 192), (64, 64), (64, 256), (256, 64)])
            .flat_map(|(k, n)| [(40, k, n), (384, k, n), (1584, k, n)])
        {
            let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.1).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.1).collect();
            let w = PackedF32::pack(&b, k, n);
            let mut c = vec![0.0f32; m * n];
            let iters = (2_000_000_000 / (2 * m * k * n)).max(1);
            let gflops = |el: f64| (2.0 * (m * k * n * iters) as f64) / el / 1e9;
            let t = std::time::Instant::now();
            for _ in 0..iters {
                gemm_nn(&a, std::hint::black_box(&b), None, &mut c, m, k, n);
            }
            eprint!(
                "{m}x{k}x{n}: gemm_nn {:.1}",
                gflops(t.elapsed().as_secs_f64())
            );
            for (name, path) in super::tests::packed_paths() {
                let t = std::time::Instant::now();
                for _ in 0..iters {
                    // SAFETY: `packed_paths` lists only the paths whose CPU
                    // features were detected; `c` holds all `m` rows.
                    unsafe { path(&a, std::hint::black_box(&w), None, &mut c, 0, m) };
                }
                eprint!(", {name} {:.1}", gflops(t.elapsed().as_secs_f64()));
            }
            eprintln!(" GF/s");
        }
    }
}
