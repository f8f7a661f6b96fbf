//! Elementwise and row-wise math kernels shared by training and serving.
//!
//! The transcendental core is a polynomial `exp` (Cephes `expf`
//! coefficients, ~2 ulp on the float32 range) and a `tanh` built on it —
//! no libm call per element. Where the true `e^x` falls below f32's
//! smallest normal the `exp` returns `+0.0`, never a subnormal: a
//! subnormal operand costs a microcode assist in every multiply that
//! reads it, and the additive `-1e9` mask on padded keys sends every
//! masked score there. A masked key's softmax probability is therefore
//! exactly zero, and the context GEMM after it multiplies by zero at full
//! speed. On top of those sit fused row kernels for
//! softmax, GELU and layer norm in *forward and backward* form, so the
//! autograd tape runs the same arithmetic the frozen serving path does
//! instead of composing each op from half-a-dozen temporary arrays.
//!
//! The scalar `exp` does not autovectorize (the crate builds for
//! baseline x86-64), so the two forward hot loops — [`gelu`] and the exp
//! pass of the softmax rows — carry an 8-lane AVX2 twin behind the same
//! runtime dispatch as the GEMMs. The twin evaluates the scalar
//! expression op for op (same flush and clamp, same round-to-integer
//! trick, no FMA contraction, exact division), so both paths agree bit
//! for bit on every input, NaN and ±inf included.

const LOG2E: f32 = std::f32::consts::LOG2_E;
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// 1.5 * 2^23: adding and subtracting rounds to the nearest integer for
/// |x| < 2^22 without a libm call, and the idiom autovectorizes.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// sqrt(2/pi) in the tanh-approximation GELU.
const GELU_C: f32 = 0.797_884_6;

/// `exp` argument range. `EXP_LO` is the smallest f32 whose true `e^x`
/// is a normal f32 (just above `ln 2^-126`); every argument below it
/// flushes to `+0.0`. The upper clamp keeps the 2^n scale factor a
/// finite exponent (n <= 127).
const EXP_LO: f32 = -87.336_54;
const EXP_HI: f32 = 88.02;
/// Cephes `expf` polynomial, highest order first.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.000_000_3e-1,
];
const GELU_CUBIC: f32 = 0.044715;

/// Polynomial `e^x` (Cephes `expf` coefficients, ~2 ulp on the float32
/// range). No libm call.
///
/// Every argument below `EXP_LO` (−87.34, where the true `e^x` drops
/// below f32's smallest normal), −∞ included, returns `+0.0` instead of
/// a subnormal: each multiply that later reads a subnormal operand takes
/// a microcode assist, and a masked attention key would otherwise carry
/// one into the softmax normalize and the context GEMM. The argument is
/// zeroed before the polynomial too, so no step computes a subnormal.
/// NaN propagates.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    let flush = x < EXP_LO;
    let x = if flush { 0.0 } else { x }.clamp(EXP_LO, EXP_HI);
    let nf = (x * LOG2E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let mut p = EXP_POLY[0];
    for c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = (p * r) * r + r + 1.0;
    let scale = f32::from_bits(((nf as i32 + 127) as u32) << 23);
    if flush {
        0.0
    } else {
        y * scale
    }
}

/// `tanh` via the stable `(1 - e^{-2|y|}) / (1 + e^{-2|y|})` form.
#[inline]
pub fn tanh_approx(y: f32) -> f32 {
    let e = exp_approx(-2.0 * y.abs());
    ((1.0 - e) / (1.0 + e)).copysign(y)
}

/// Row maximum with eight parallel accumulator lanes, so the reduction
/// is not one serial dependency chain and autovectorizes.
#[inline]
fn max_lanes(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = l.max(v);
        }
    }
    let mut m = lanes.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for &v in chunks.remainder() {
        m = m.max(v);
    }
    m
}

/// Row sum with eight parallel accumulator lanes (see [`max_lanes`]).
#[inline]
fn sum_lanes(row: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l += v;
        }
    }
    lanes.iter().sum::<f32>() + chunks.remainder().iter().sum::<f32>()
}

/// One numerically-stable softmax row (max, exp, normalize — the same
/// three vectorizable passes [`softmax_rows`] documents), shared by the
/// plain and fused attention variants so they are arithmetically
/// identical.
#[inline]
fn softmax_row(row: &mut [f32]) {
    let m = max_lanes(row);
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::simd_available() {
        // SAFETY: AVX2 was detected at runtime.
        done = unsafe { avx2::exp_shifted(row, m) };
    }
    for v in &mut row[done..] {
        *v = exp_approx(*v - m);
    }
    let inv = 1.0 / sum_lanes(row);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// In-place numerically-stable softmax over each `d`-wide row.
///
/// Three separate passes (max, exp, normalize) rather than one fused
/// loop: the exp pass is then purely elementwise and the reductions run
/// on parallel lanes, so all three vectorize — the fused form keeps a
/// serial float accumulation that pins the whole loop to scalar code.
pub fn softmax_rows(x: &mut [f32], d: usize) {
    debug_assert_eq!(x.len() % d, 0);
    for row in x.chunks_mut(d) {
        softmax_row(row);
    }
}

/// Fused attention-score epilogue: scale by `1/√dh`, add the optional
/// relative-position bias and the optional additive key mask, then
/// softmax — one traversal of the score tensor where the unfused ops
/// make up to three (scores are the largest activation in the forward,
/// so the saved passes are the fusion win). With `only: None` the tensor
/// is `[b, h, t, t]`, every query position of every sample; with
/// `only: Some(pos)` it is `[b, h, 1, t]`, the single query row at
/// sequence position `pos[bi]` of sample `bi` (the row a CLS-only layer
/// needs). `rel` is the XLNet bias laid out `[h, t, t]`; `mask` is one
/// additive entry per `(sample, key position)` (`[b, t]`). The
/// per-element arithmetic and evaluation order match the unfused ops
/// exactly, so fused and unfused scores agree bitwise.
#[allow(clippy::too_many_arguments)]
pub fn attn_softmax_rows(
    scores: &mut [f32],
    scale: f32,
    rel: Option<&[f32]>,
    mask: Option<&[f32]>,
    b: usize,
    h: usize,
    t: usize,
    only: Option<&[usize]>,
) {
    let q = if only.is_some() { 1 } else { t };
    debug_assert_eq!(scores.len(), b * h * q * t);
    if let Some(rel) = rel {
        debug_assert_eq!(rel.len(), h * t * t);
    }
    if let Some(mask) = mask {
        debug_assert_eq!(mask.len(), b * t);
    }
    for bi in 0..b {
        let mrow = mask.map(|m| &m[bi * t..(bi + 1) * t]);
        let first = only.map_or(0, |pos| pos[bi]);
        for hi in 0..h {
            let base = (bi * h + hi) * q * t;
            for i in 0..q {
                let srow = &mut scores[base + i * t..base + (i + 1) * t];
                let brow = rel.map(|r| &r[(hi * t + first + i) * t..(hi * t + first + i + 1) * t]);
                match (brow, mrow) {
                    (Some(brow), Some(mrow)) => {
                        for j in 0..t {
                            srow[j] = srow[j] * scale + brow[j] + mrow[j];
                        }
                    }
                    (Some(brow), None) => {
                        for j in 0..t {
                            srow[j] = srow[j] * scale + brow[j];
                        }
                    }
                    (None, Some(mrow)) => {
                        for j in 0..t {
                            srow[j] = srow[j] * scale + mrow[j];
                        }
                    }
                    (None, None) => {
                        for v in srow.iter_mut() {
                            *v *= scale;
                        }
                    }
                }
                softmax_row(srow);
            }
        }
    }
}

/// Softmax over each `d`-wide row of `x + bias`, fused so the biased
/// scores are never materialized. `bias` holds one `d`-wide row per group
/// of `rows_per_bias` consecutive rows of `x` — the layout of an additive
/// attention mask `[batch, 1, 1, seq]` applied to `[batch, heads, seq,
/// seq]` scores, where `rows_per_bias = heads * seq`. The gradient w.r.t.
/// `x` is the plain [`softmax_backward_rows`] (the bias is constant).
pub fn softmax_rows_biased(x: &mut [f32], bias: &[f32], d: usize, rows_per_bias: usize) {
    debug_assert_eq!(x.len() % d, 0);
    debug_assert_eq!(bias.len() % d, 0);
    debug_assert!(rows_per_bias > 0);
    debug_assert_eq!(x.len() / d, (bias.len() / d) * rows_per_bias);
    for (r, row) in x.chunks_mut(d).enumerate() {
        let b_off = (r / rows_per_bias) * d;
        let b_row = &bias[b_off..b_off + d];
        for (v, &bv) in row.iter_mut().zip(b_row) {
            *v += bv;
        }
        softmax_row(row);
    }
}

/// Softmax backward over each `d`-wide row: given the forward output `y`
/// and upstream gradient `g`, writes `dx = y ⊙ (g − Σ g⊙y)`.
pub fn softmax_backward_rows(y: &[f32], g: &[f32], dx: &mut [f32], d: usize) {
    debug_assert_eq!(y.len(), g.len());
    debug_assert_eq!(y.len(), dx.len());
    debug_assert_eq!(y.len() % d, 0);
    for ((y_row, g_row), dx_row) in y.chunks(d).zip(g.chunks(d)).zip(dx.chunks_mut(d)) {
        let dot = dot_lanes(y_row, g_row);
        for ((dv, &yv), &gv) in dx_row.iter_mut().zip(y_row).zip(g_row) {
            *dv = yv * (gv - dot);
        }
    }
}

/// Dot product with eight parallel accumulator lanes (see [`max_lanes`]).
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    lanes.iter().sum::<f32>()
        + ac.remainder()
            .iter()
            .zip(bc.remainder())
            .map(|(&x, &y)| x * y)
            .sum::<f32>()
}

/// In-place numerically-stable log-softmax over each `d`-wide row.
pub fn log_softmax_rows(x: &mut [f32], d: usize) {
    debug_assert_eq!(x.len() % d, 0);
    for row in x.chunks_mut(d) {
        let m = max_lanes(row);
        let mut lanes = [0.0f32; 8];
        let mut chunks = row.chunks_exact(8);
        for c in chunks.by_ref() {
            for (l, &v) in lanes.iter_mut().zip(c) {
                *l += exp_approx(v - m);
            }
        }
        let denom = lanes.iter().sum::<f32>()
            + chunks
                .remainder()
                .iter()
                .map(|&v| exp_approx(v - m))
                .sum::<f32>();
        let lse = m + denom.ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
}

/// In-place GELU, tanh approximation — the formula of
/// `em_tensor::gelu_array` with the polynomial `tanh`.
pub fn gelu(x: &mut [f32]) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::simd_available() {
        // SAFETY: AVX2 was detected at runtime.
        done = unsafe { avx2::gelu(x) };
    }
    gelu_scalar(&mut x[done..]);
}

fn gelu_scalar(x: &mut [f32]) {
    for v in x.iter_mut() {
        let u = *v;
        *v = 0.5 * u * (1.0 + tanh_approx(GELU_C * (u + GELU_CUBIC * u * u * u)));
    }
}

/// The 8-lane AVX2 twins of [`exp_approx`], [`tanh_approx`] and the GELU
/// formula: every scalar operation in the same order on the same
/// operands, as separate multiplies and adds, so each lane is
/// bit-identical to the scalar result.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{EXP_HI, EXP_LO, EXP_POLY, GELU_C, GELU_CUBIC, LN2_HI, LN2_LO, LOG2E, ROUND_MAGIC};
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(v: f32) -> __m256 {
        _mm256_set1_ps(v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp8(x: __m256) -> __m256 {
        // Lanes below `EXP_LO` flush to +0 as in the scalar: their input
        // is zeroed before the polynomial and their result after. The
        // ordered compare is false for NaN, so a NaN lane is kept.
        let flush = _mm256_cmp_ps::<_CMP_LT_OQ>(x, splat(EXP_LO));
        let x = _mm256_andnot_ps(flush, x);
        // `vmaxps`/`vminps` return their second operand when either is
        // NaN, so with `x` second a NaN propagates exactly as through
        // `f32::clamp`.
        let x = _mm256_min_ps(splat(EXP_HI), _mm256_max_ps(splat(EXP_LO), x));
        let magic = splat(ROUND_MAGIC);
        let nf = _mm256_sub_ps(_mm256_add_ps(_mm256_mul_ps(x, splat(LOG2E)), magic), magic);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(nf, splat(LN2_HI))),
            _mm256_mul_ps(nf, splat(LN2_LO)),
        );
        let mut p = splat(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), splat(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r), r),
            splat(1.0),
        );
        // `nf` is integral in [-126, 127] for every non-NaN lane; a NaN
        // lane's scale is irrelevant because `y` is already NaN.
        let n = _mm256_add_epi32(_mm256_cvttps_epi32(nf), _mm256_set1_epi32(127));
        let e = _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(n)));
        _mm256_andnot_ps(flush, e)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh8(y: __m256) -> __m256 {
        let sign = splat(-0.0);
        let e = exp8(_mm256_mul_ps(splat(-2.0), _mm256_andnot_ps(sign, y)));
        let one = splat(1.0);
        let t = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
        _mm256_or_ps(_mm256_andnot_ps(sign, t), _mm256_and_ps(sign, y))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn gelu8(u: __m256) -> __m256 {
        let cubic = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(splat(GELU_CUBIC), u), u), u);
        let t = tanh8(_mm256_mul_ps(splat(GELU_C), _mm256_add_ps(u, cubic)));
        _mm256_mul_ps(_mm256_mul_ps(splat(0.5), u), _mm256_add_ps(splat(1.0), t))
    }

    /// GELU over the largest multiple of 8 leading elements; returns how
    /// many it covered (the caller finishes the tail in scalar).
    ///
    /// # Safety
    /// Caller must have verified `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu(x: &mut [f32]) -> usize {
        let done = x.len() - x.len() % 8;
        for c in x[..done].chunks_exact_mut(8) {
            // SAFETY: `c` is exactly 8 floats; unaligned loads/stores.
            unsafe { _mm256_storeu_ps(c.as_mut_ptr(), gelu8(_mm256_loadu_ps(c.as_ptr()))) };
        }
        done
    }

    /// `row[i] = exp_approx(row[i] - m)` over the largest multiple of 8
    /// leading elements; returns how many it covered.
    ///
    /// # Safety
    /// Caller must have verified `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_shifted(row: &mut [f32], m: f32) -> usize {
        let vm = splat(m);
        let done = row.len() - row.len() % 8;
        for c in row[..done].chunks_exact_mut(8) {
            // SAFETY: `c` is exactly 8 floats; unaligned loads/stores.
            unsafe {
                let v = _mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), vm);
                _mm256_storeu_ps(c.as_mut_ptr(), exp8(v));
            }
        }
        done
    }
}

/// GELU backward: given the forward *input* `x` and upstream gradient
/// `g`, writes `dx = g ⊙ gelu'(x)` with the same tanh approximation.
pub fn gelu_backward(x: &[f32], g: &[f32], dx: &mut [f32]) {
    debug_assert_eq!(x.len(), g.len());
    debug_assert_eq!(x.len(), dx.len());
    for ((dv, &u), &gv) in dx.iter_mut().zip(x).zip(g) {
        let inner = GELU_C * (u + 0.044715 * u * u * u);
        let t = tanh_approx(inner);
        let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * u * u);
        let d = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * dinner;
        *dv = gv * d;
    }
}

/// One in-place layer-norm row (biased variance, eps inside the sqrt),
/// shared by the plain and residual-fused variants so both run the same
/// arithmetic.
#[inline]
fn layer_norm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let d = gamma.len();
    let mean = row.iter().sum::<f32>() / d as f32;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
    let istd = 1.0 / (var + eps).sqrt();
    for (v, (&g, &bt)) in row.iter_mut().zip(gamma.iter().zip(beta)) {
        *v = (*v - mean) * istd * g + bt;
    }
}

/// In-place layer norm over each row — the formula of
/// `em_tensor::layer_norm_array` (biased variance, eps inside the sqrt).
pub fn layer_norm_rows(x: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let d = gamma.len();
    debug_assert_eq!(beta.len(), d);
    debug_assert_eq!(x.len() % d, 0);
    for row in x.chunks_mut(d) {
        layer_norm_row(row, gamma, beta, eps);
    }
}

/// Fused residual add + layer norm: `x[r] = norm(x[r] + add[r])` row by
/// row, so the summed hidden state is normalized while it is still in
/// cache instead of being written out and re-read by a separate norm
/// pass. Same arithmetic as `x += add` followed by [`layer_norm_rows`].
pub fn residual_layer_norm_rows(x: &mut [f32], add: &[f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let d = gamma.len();
    debug_assert_eq!(beta.len(), d);
    debug_assert_eq!(x.len() % d, 0);
    debug_assert!(add.len() >= x.len());
    for (row, a_row) in x.chunks_mut(d).zip(add.chunks(d)) {
        for (v, &a) in row.iter_mut().zip(a_row) {
            *v += a;
        }
        layer_norm_row(row, gamma, beta, eps);
    }
}

/// Layer norm forward that also produces what backward needs: writes the
/// normalized-scaled-shifted output to `out`, the pre-scale normalized
/// values to `xhat`, and one `1/√(var+eps)` per row to `inv_std`.
pub fn layer_norm_forward(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
) {
    let d = gamma.len();
    debug_assert_eq!(beta.len(), d);
    debug_assert_eq!(x.len() % d, 0);
    debug_assert_eq!(out.len(), x.len());
    debug_assert_eq!(xhat.len(), x.len());
    debug_assert_eq!(inv_std.len(), x.len() / d);
    for (r, x_row) in x.chunks(d).enumerate() {
        let mean = x_row.iter().sum::<f32>() / d as f32;
        let var = x_row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        let out_row = &mut out[r * d..(r + 1) * d];
        let xhat_row = &mut xhat[r * d..(r + 1) * d];
        for (j, &v) in x_row.iter().enumerate() {
            let xh = (v - mean) * istd;
            xhat_row[j] = xh;
            out_row[j] = xh * gamma[j] + beta[j];
        }
    }
}

/// Layer norm backward from the cached `xhat`/`inv_std` of
/// [`layer_norm_forward`]: writes `dx` and *accumulates* into
/// `dgamma`/`dbeta` (callers zero-initialize or chain accumulation).
pub fn layer_norm_backward(
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let d = gamma.len();
    debug_assert_eq!(xhat.len(), g.len());
    debug_assert_eq!(xhat.len(), dx.len());
    debug_assert_eq!(xhat.len() % d, 0);
    debug_assert_eq!(inv_std.len(), xhat.len() / d);
    debug_assert_eq!(dgamma.len(), d);
    debug_assert_eq!(dbeta.len(), d);
    let inv_d = 1.0 / d as f32;
    for (r, (xhat_row, g_row)) in xhat.chunks(d).zip(g.chunks(d)).enumerate() {
        let mut sum_gy = 0.0f32;
        let mut sum_gy_xh = 0.0f32;
        for (j, (&xh, &gv)) in xhat_row.iter().zip(g_row).enumerate() {
            let gy = gv * gamma[j];
            sum_gy += gy;
            sum_gy_xh += gy * xh;
            dgamma[j] += gv * xh;
            dbeta[j] += gv;
        }
        let istd = inv_std[r];
        let dx_row = &mut dx[r * d..(r + 1) * d];
        for (j, (&xh, &gv)) in xhat_row.iter().zip(g_row).enumerate() {
            let gy = gv * gamma[j];
            dx_row[j] = istd * (gy - inv_d * sum_gy - xh * inv_d * sum_gy_xh);
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

    #[test]
    fn exp_and_tanh_track_libm() {
        let mut x = -20.0f32;
        while x < 20.0 {
            let e = exp_approx(x);
            assert!(
                (e - x.exp()).abs() <= 4e-7 * x.exp().max(1.0),
                "exp({x}): {e} vs {}",
                x.exp()
            );
            let t = tanh_approx(x);
            assert!(
                (t - x.tanh()).abs() <= 1e-6,
                "tanh({x}): {t} vs {}",
                x.tanh()
            );
            x += 0.0137;
        }
        // `EXP_LO` is the boundary of f32's normal range: its own `e^x`
        // is normal, the next f32 down's is not.
        let below = f32::from_bits(EXP_LO.to_bits() + 1);
        assert!((EXP_LO as f64).exp() >= f32::MIN_POSITIVE as f64);
        assert!((below as f64).exp() < f32::MIN_POSITIVE as f64);
        // Below it the result is exactly +0, never a subnormal.
        for x in [below, -88.0, -103.9, -1e9, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp_approx(x).to_bits(), 0, "exp({x:e})");
        }
        assert!(exp_approx(f32::NAN).is_nan());
        let mut x = -100.0f32;
        while x < 100.0 {
            assert!(!exp_approx(x).is_subnormal(), "exp({x}) is subnormal");
            x += 0.001_3;
        }
        assert!(!exp_approx(EXP_LO).is_subnormal());
        assert!(exp_approx(200.0).is_finite());
    }

    /// Inputs for every branch of the exp/tanh/GELU arithmetic: ±0,
    /// subnormals, both clamp edges and beyond, ±88, ±inf, NaN, the
    /// float extremes, a dense ramp and random values.
    fn special_sweep() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            88.0,
            -88.0,
            EXP_HI,
            88.03,
            EXP_LO,
            -87.34,
            -103.9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        let mut x = -95.0f32;
        while x < 95.0 {
            xs.push(x);
            x += 0.0173;
        }
        xs.extend(pseudo(2003, 5).iter().map(|v| v * 24.0));
        xs
    }

    /// Bitwise equality with every NaN equal to every other NaN.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{i}]: {g:e} ({:#x}) vs scalar {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_gelu_and_exp_match_scalar_bitwise() {
        if !crate::gemm::simd_available() {
            return;
        }
        let xs = special_sweep();
        let mut want = xs.clone();
        gelu_scalar(&mut want);
        let mut got = xs.clone();
        // SAFETY: AVX2 was detected above.
        let done = unsafe { avx2::gelu(&mut got) };
        assert_eq!(done, xs.len() - xs.len() % 8);
        gelu_scalar(&mut got[done..]);
        assert_same_bits(&got, &want, "gelu");
        for m in [0.0, 2.5, -7.0, 88.0] {
            let want: Vec<f32> = xs.iter().map(|&v| exp_approx(v - m)).collect();
            let mut got = xs.clone();
            // SAFETY: AVX2 was detected above.
            let done = unsafe { avx2::exp_shifted(&mut got, m) };
            for v in &mut got[done..] {
                *v = exp_approx(*v - m);
            }
            assert_same_bits(&got, &want, "exp");
        }
    }

    #[test]
    fn softmax_rows_match_the_scalar_passes_bitwise() {
        // The dispatched `softmax_rows` (SIMD exp where available)
        // against the three passes written out with the scalar `exp`,
        // at row widths around the 8-lane boundary.
        let xs = special_sweep();
        for d in [1, 7, 8, 9, 40, 64] {
            let xs = &xs[..xs.len() - xs.len() % d];
            let mut want = xs.to_vec();
            for row in want.chunks_mut(d) {
                let m = max_lanes(row);
                for v in row.iter_mut() {
                    *v = exp_approx(*v - m);
                }
                let inv = 1.0 / sum_lanes(row);
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
            let mut got = xs.to_vec();
            softmax_rows(&mut got, d);
            assert_same_bits(&got, &want, &format!("softmax d={d}"));
        }
    }

    #[test]
    fn softmax_rows_is_normalized_and_stable() {
        let mut x = pseudo(4 * 7, 7);
        for v in x.iter_mut() {
            *v *= 30.0;
        }
        softmax_rows(&mut x, 7);
        for row in x.chunks(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() <= 1e-5);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn biased_softmax_matches_add_then_softmax() {
        let d = 5;
        let heads_times_seq = 6; // rows_per_bias
        let batch = 2;
        let mut x = pseudo(batch * heads_times_seq * d, 41);
        for v in x.iter_mut() {
            *v *= 4.0;
        }
        let bias: Vec<f32> = (0..batch * d)
            .map(|i| if i % 3 == 0 { -1e9 } else { 0.0 })
            .collect();
        let mut manual = x.clone();
        for (r, row) in manual.chunks_mut(d).enumerate() {
            let b_off = (r / heads_times_seq) * d;
            for (v, &bv) in row.iter_mut().zip(&bias[b_off..b_off + d]) {
                *v += bv;
            }
        }
        softmax_rows(&mut manual, d);
        let mut fused = x.clone();
        softmax_rows_biased(&mut fused, &bias, d, heads_times_seq);
        for (f, m) in fused.iter().zip(&manual) {
            assert!((f - m).abs() <= 1e-6, "{f} vs {m}");
        }
        assert_masked_exact_zero(&fused, d, |r, j| bias[(r / heads_times_seq) * d + j] < 0.0);
    }

    /// Every masked probability of the `d`-wide softmax rows in `p` is
    /// exactly `+0.0`, and no probability is subnormal.
    fn assert_masked_exact_zero(p: &[f32], d: usize, masked: impl Fn(usize, usize) -> bool) {
        for (r, row) in p.chunks(d).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!(!v.is_subnormal(), "row {r} key {j}: subnormal {v:e}");
                if masked(r, j) {
                    assert_eq!(v.to_bits(), 0, "row {r} key {j}: masked p = {v:e}");
                }
            }
        }
    }

    #[test]
    fn attn_softmax_matches_unfused_passes() {
        let (b, h, t) = (2, 3, 5);
        let scale = 1.0 / (4.0f32).sqrt();
        let base = pseudo(b * h * t * t, 51)
            .iter()
            .map(|v| v * 6.0)
            .collect::<Vec<_>>();
        let rel = pseudo(h * t * t, 52);
        let mask: Vec<f32> = (0..b * t)
            .map(|i| if i % 4 == 3 { -1e9 } else { 0.0 })
            .collect();
        for (rel, mask) in [
            (None, None),
            (Some(&rel[..]), None),
            (None, Some(&mask[..])),
            (Some(&rel[..]), Some(&mask[..])),
        ] {
            // Unfused reference: scale, add biases, then softmax.
            let mut want = base.clone();
            for bi in 0..b {
                for hi in 0..h {
                    let o = (bi * h + hi) * t * t;
                    for i in 0..t {
                        for j in 0..t {
                            let mut v = want[o + i * t + j] * scale;
                            if let Some(rel) = rel {
                                v += rel[(hi * t + i) * t + j];
                            }
                            if let Some(mask) = mask {
                                v += mask[bi * t + j];
                            }
                            want[o + i * t + j] = v;
                        }
                    }
                }
            }
            softmax_rows(&mut want, t);
            let mut got = base.clone();
            attn_softmax_rows(&mut got, scale, rel, mask, b, h, t, None);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-6, "{g} vs {w}");
            }
            let masked = |r: usize, j: usize| mask.is_some_and(|m| m[(r / (h * t)) * t + j] < 0.0);
            assert_masked_exact_zero(&got, t, masked);
            assert_masked_exact_zero(&want, t, masked);
            // One query row per sample: bitwise the same row of the
            // full tensor, whichever position is asked for.
            let pos = [t - 1, 1];
            let row = |src: &[f32], bi: usize, hi: usize| {
                let o = ((bi * h + hi) * t + pos[bi]) * t;
                src[o..o + t].to_vec()
            };
            let mut one: Vec<f32> = (0..b * h).flat_map(|g| row(&base, g / h, g % h)).collect();
            attn_softmax_rows(&mut one, scale, rel, mask, b, h, t, Some(&pos));
            let full: Vec<f32> = (0..b * h).flat_map(|g| row(&got, g / h, g % h)).collect();
            assert_eq!(one, full);
        }
    }

    #[test]
    fn residual_layer_norm_matches_add_then_norm() {
        let d = 16;
        let x = pseudo(3 * d, 61);
        let add = pseudo(3 * d, 62);
        let gamma = pseudo(d, 63);
        let beta = pseudo(d, 64);
        let mut want = x.clone();
        for (v, &a) in want.iter_mut().zip(&add) {
            *v += a;
        }
        layer_norm_rows(&mut want, &gamma, &beta, 1e-5);
        let mut got = x.clone();
        residual_layer_norm_rows(&mut got, &add, &gamma, &beta, 1e-5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-6, "{g} vs {w}");
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut a = pseudo(3 * 9, 12);
        for v in a.iter_mut() {
            *v *= 5.0;
        }
        let mut sm = a.clone();
        softmax_rows(&mut sm, 9);
        log_softmax_rows(&mut a, 9);
        for (l, s) in a.iter().zip(&sm) {
            assert!((l.exp() - s).abs() <= 1e-5, "{} vs {}", l.exp(), s);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_differences() {
        let d = 6;
        let x = pseudo(2 * d, 21);
        let g = pseudo(2 * d, 22);
        let mut y = x.clone();
        softmax_rows(&mut y, d);
        let mut dx = vec![0.0f32; x.len()];
        softmax_backward_rows(&y, &g, &mut dx, d);
        let eps = 3e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp[idx] += eps;
            softmax_rows(&mut xp, d);
            let mut xm = x.clone();
            xm[idx] -= eps;
            softmax_rows(&mut xm, d);
            let fd: f32 = xp
                .iter()
                .zip(&xm)
                .zip(&g)
                .map(|((&p, &m), &gv)| gv * (p - m) / (2.0 * eps))
                .sum();
            assert!(
                (dx[idx] - fd).abs() <= 2e-3,
                "idx {idx}: {} vs {fd}",
                dx[idx]
            );
        }
    }

    #[test]
    fn gelu_backward_matches_finite_differences() {
        let x = pseudo(32, 23).iter().map(|v| v * 6.0).collect::<Vec<_>>();
        let g = pseudo(32, 24);
        let mut dx = vec![0.0f32; x.len()];
        gelu_backward(&x, &g, &mut dx);
        let eps = 1e-2f32;
        for idx in 0..x.len() {
            let mut p = vec![x[idx] + eps];
            gelu(&mut p);
            let mut m = vec![x[idx] - eps];
            gelu(&mut m);
            let fd = g[idx] * (p[0] - m[0]) / (2.0 * eps);
            assert!(
                (dx[idx] - fd).abs() <= 2e-3,
                "idx {idx}: {} vs {fd}",
                dx[idx]
            );
        }
    }

    #[test]
    fn layer_norm_forward_matches_in_place_variant() {
        let d = 16;
        let x = pseudo(3 * d, 25);
        let gamma = pseudo(d, 26);
        let beta = pseudo(d, 27);
        let mut inplace = x.clone();
        layer_norm_rows(&mut inplace, &gamma, &beta, 1e-5);
        let mut out = vec![0.0f32; x.len()];
        let mut xhat = vec![0.0f32; x.len()];
        let mut inv_std = vec![0.0f32; 3];
        layer_norm_forward(&x, &gamma, &beta, 1e-5, &mut out, &mut xhat, &mut inv_std);
        for (a, b) in out.iter().zip(&inplace) {
            assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn layer_norm_backward_matches_finite_differences() {
        let d = 8;
        let rows = 2;
        let x = pseudo(rows * d, 28);
        let gamma = pseudo(d, 29).iter().map(|v| v + 1.0).collect::<Vec<_>>();
        let beta = pseudo(d, 30);
        let g = pseudo(rows * d, 31);
        let eps = 1e-5f32;
        let forward = |xs: &[f32]| {
            let mut out = vec![0.0f32; xs.len()];
            let mut xhat = vec![0.0f32; xs.len()];
            let mut inv_std = vec![0.0f32; rows];
            layer_norm_forward(xs, &gamma, &beta, eps, &mut out, &mut xhat, &mut inv_std);
            (out, xhat, inv_std)
        };
        let (_, xhat, inv_std) = forward(&x);
        let mut dx = vec![0.0f32; x.len()];
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        layer_norm_backward(
            &xhat,
            &inv_std,
            &gamma,
            &g,
            &mut dx,
            &mut dgamma,
            &mut dbeta,
        );
        let h = 3e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp[idx] += h;
            let mut xm = x.clone();
            xm[idx] -= h;
            let (op, _, _) = forward(&xp);
            let (om, _, _) = forward(&xm);
            let fd: f32 = op
                .iter()
                .zip(&om)
                .zip(&g)
                .map(|((&p, &m), &gv)| gv * (p - m) / (2.0 * h))
                .sum();
            assert!(
                (dx[idx] - fd).abs() <= 3e-3,
                "dx[{idx}]: {} vs {fd}",
                dx[idx]
            );
        }
    }
}
