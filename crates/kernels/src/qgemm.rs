//! The quantized GEMM: packed int8 weight matrices, the serving
//! arithmetic (f32, in [`crate::gemm`], is the accuracy oracle).
//!
//! Serving is memory-bandwidth-bound: the frozen forward streams every
//! weight matrix through the cache hierarchy once per batch, so the
//! bytes a weight occupies — not the multiplies it feeds — set the
//! throughput ceiling. Int8 codes take a quarter of the f32 bytes, and
//! activations stay f32 between GEMMs:
//!
//! * [`gemm_packed_i8`] — `C[i,j] = a_scale[i]·w_scale[j]·Σₚ Aq[i,p]·Wq[j,p]
//!   (+ bias[j])`: the f32 activation rows are quantized per row on the
//!   fly (±127, thread-local scratch), the integer dot products
//!   accumulate exactly in i32, and the dequantization is a float
//!   epilogue. Weights are a [`PackedI8`]: per-output-column int8 codes
//!   in `[⌈n/16⌉][⌈k/4⌉][16][4]` panels, so one 32-byte load feeds 8
//!   output columns × 4 reduction steps. Activation codes are stored
//!   offset to u8 (`q ^ 0x80 = q + 128`): the tile broadcasts 4
//!   activation bytes and issues `vpdpbusd` (AVX-VNNI) against two
//!   8-column weight vectors — no sign trick, no horizontal sum — and
//!   subtracts `128 · Σw` per column before the epilogue. The same layout
//!   drives the `vpmaddubsw` + `vpmaddwd` fallback and the portable loop.
//!   Weight codes are confined to ±63 by [`quantize_weights_i8`] because
//!   of that fallback: `255·63·2 = 32 130 < 2¹⁵` keeps its i16 pair sums
//!   saturation-free, so every path computes the same exact integers.
//! * [`gemm_nt_i8_dyn`] — the same GEMM from `[n, k]` codes: packs them
//!   into thread-local scratch first (kernel probes; serving packs once).
//!
//! Dispatch mirrors [`crate::gemm`]: AVX2 paths are selected at runtime,
//! row-parallelism rides the persistent [`crate::pool`], and portable
//! fallbacks keep every target correct.
//!
//! Accumulator range: the i32 accumulation is exact while
//! `k · 255 · 63 < 2³¹`, i.e. for inner dimensions up to ~133 000 —
//! far beyond any hidden size this workspace runs.

#![allow(clippy::too_many_arguments)]

use crate::gemm::{should_parallelize, Act};
use crate::pool;
use std::cell::RefCell;

// ---------------------------------------------------------------------------
// int8 quantization
// ---------------------------------------------------------------------------

/// How a quantization code is stored: weight codes as plain `i8`,
/// activation codes offset to `u8` (`q ^ 0x80 = q + 128`), the unsigned
/// operand `vpdpbusd` and `vpmaddubsw` multiply.
trait Code: Copy {
    /// Byte XORed onto the two's-complement code.
    const OFFSET: u8;
    fn encode(q: i8) -> Self;
}

impl Code for i8 {
    const OFFSET: u8 = 0;
    fn encode(q: i8) -> i8 {
        q
    }
}

impl Code for u8 {
    const OFFSET: u8 = 0x80;
    fn encode(q: i8) -> u8 {
        q as u8 ^ Self::OFFSET
    }
}

/// Symmetric per-row int8 quantization with codes confined to
/// `[-63, 63]` — the *weight* quantizer: each of the `scales.len()` rows
/// of `a` (row-major, `k` wide) is scaled by its own absmax so that
/// `a[i][p] ≈ q[i][p] · scales[i]`. An all-zero (or non-finite-max) row
/// gets scale 0 and all-zero codes. The ±63 range costs one bit of
/// precision but is what keeps the `vpmaddubsw` fallback of
/// [`gemm_packed_i8`] exact (u8 activation × ±63 pair sums stay below
/// 2¹⁵). Weights are quantized once at freeze time, activations on every
/// batch (±127), so the precision bit is spent on the operand that
/// amortizes it.
pub fn quantize_weights_i8(a: &[f32], k: usize, q: &mut [i8], scales: &mut [f32]) {
    quantize_rows(a, k, k, q, scales, 63.0);
}

/// Quantize each `k`-wide row of `a` to `[-qmax, qmax]` codes (round
/// half away from zero) into `stride`-wide rows of `q`, padding each row
/// past `k` with the code for 0.
fn quantize_rows<T: Code>(
    a: &[f32],
    k: usize,
    stride: usize,
    q: &mut [T],
    scales: &mut [f32],
    qmax: f32,
) {
    let rows = scales.len();
    assert_eq!(a.len(), rows * k, "input shape mismatch");
    assert_eq!(q.len(), rows * stride, "output shape mismatch");
    for (i, scale) in scales.iter_mut().enumerate() {
        let row = &a[i * k..(i + 1) * k];
        let (q_row, pad) = q[i * stride..(i + 1) * stride].split_at_mut(k);
        pad.fill(T::encode(0));
        let max = row_absmax(row);
        if max == 0.0 || !max.is_finite() {
            *scale = 0.0;
            q_row.fill(T::encode(0));
            continue;
        }
        let inv = qmax / max;
        *scale = max / qmax;
        #[cfg(target_arch = "x86_64")]
        if crate::gemm::simd_available() {
            // SAFETY: AVX2 was detected at runtime; `q_row` is `k` long.
            unsafe { avx2q::quantize_row(row, inv, q_row) };
            continue;
        }
        quantize_row_scalar(row, inv, q_row);
    }
}

/// Largest `|v|` in the row, NaN elements ignored (matching
/// `f32::max`); ±inf propagates so the caller zeroes the row.
fn row_absmax(row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::simd_available() {
        // SAFETY: AVX2 was detected at runtime.
        return unsafe { avx2q::absmax(row) };
    }
    row.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Round-half-away-from-zero quantization of one row; the SIMD path
/// reproduces this exactly for finite inputs (NaN elements in a row
/// whose absmax is finite may encode differently, which no caller
/// produces).
fn quantize_row_scalar<T: Code>(row: &[f32], inv: f32, q_row: &mut [T]) {
    for (qe, &v) in q_row.iter_mut().zip(row) {
        *qe = T::encode((v * inv).round().clamp(-127.0, 127.0) as i8);
    }
}

/// Dequantize per-row int8 codes back to f32 (`rows = scales.len()`).
pub fn dequantize_rows_i8(q: &[i8], k: usize, scales: &[f32]) -> Vec<f32> {
    assert_eq!(q.len(), scales.len() * k, "shape mismatch");
    q.chunks_exact(k)
        .zip(scales)
        .flat_map(|(row, &s)| row.iter().map(move |&v| v as f32 * s))
        .collect()
}

// ---------------------------------------------------------------------------
// int8 GEMM over packed weight panels
// ---------------------------------------------------------------------------

/// Output columns per weight panel: two 8-lane i32 accumulators.
const NR: usize = 16;
/// Reduction steps per code group: the four bytes one i32 lane of
/// `vpdpbusd` sums.
const KG: usize = 4;
/// Activation rows per register tile: 12 accumulators, 2 weight vectors
/// and 1 broadcast fill 15 of the 16 ymm registers.
const MR: usize = 6;

/// An int8 weight matrix in the one layout [`gemm_packed_i8`] reads.
///
/// Built from `[n, k]` codes (one row per output column, ±63, as
/// [`quantize_weights_i8`] produces) with one scale per column. Codes
/// live in `[⌈n/16⌉][⌈k/4⌉][16][4]` panels, zero-padded past `n` and
/// `k`; each panel column also carries its code sum `Σₚ Wq[j,p]`, which
/// the kernel needs to undo the u8 offset of the activations. The layout
/// is private to this module: [`PackedI8::pack`] and [`PackedI8::unpack`]
/// convert to and from the `[n, k]` codes checkpoints store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    /// `[⌈n/16⌉][⌈k/4⌉][16]` groups of 4 codes.
    panels: Vec<[i8; KG]>,
    /// Per-column code sums, zero past `n` (`⌈n/16⌉·16` long).
    sums: Vec<i32>,
    /// Per-column scales, zero past `n` (`⌈n/16⌉·16` long).
    scales: Vec<f32>,
}

impl PackedI8 {
    /// Pack `[n, k]` row-major `codes` with one scale per row.
    ///
    /// # Panics
    /// If the slice lengths do not match `n` and `k`, or a code lies
    /// outside `[-63, 63]` (the fallback tile could saturate on it).
    pub fn pack(codes: &[i8], scales: &[f32], k: usize, n: usize) -> PackedI8 {
        let mut packed = PackedI8::default();
        packed.pack_from(codes, scales, k, n);
        packed
    }

    /// [`PackedI8::pack`] into `self`, reusing its buffers.
    fn pack_from(&mut self, codes: &[i8], scales: &[f32], k: usize, n: usize) {
        assert_eq!(codes.len(), n * k, "codes must be [n, k]");
        assert_eq!(scales.len(), n, "one scale per output column");
        let padded = n.div_ceil(NR) * NR;
        self.k = k;
        self.n = n;
        self.panels.clear();
        self.panels.resize(padded * self.groups(), [0; KG]);
        self.sums.clear();
        self.sums.resize(padded, 0);
        self.scales.clear();
        self.scales.extend_from_slice(scales);
        self.scales.resize(padded, 0.0);
        for j in 0..n {
            let row = &codes[j * k..(j + 1) * k];
            let (lo, hi) = row
                .iter()
                .fold((0, 0), |(lo, hi), &c| (c.min(lo), c.max(hi)));
            assert!(
                lo >= -63 && hi <= 63,
                "int8 weight codes must fit ±63 (quantize_weights_i8)"
            );
            let at = self.column_at(j);
            let mut groups = row.chunks_exact(KG);
            for (g, group) in groups.by_ref().enumerate() {
                self.panels[at + g * NR] = group.try_into().expect("a whole group");
            }
            let tail = groups.remainder();
            if !tail.is_empty() {
                self.panels[at + (k / KG) * NR][..tail.len()].copy_from_slice(tail);
            }
            self.sums[j] = row.iter().map(|&c| i32::from(c)).sum();
        }
    }

    /// The `[n, k]` codes and `[n]` scales this matrix was packed from.
    pub fn unpack(&self) -> (Vec<i8>, Vec<f32>) {
        let (k, n) = (self.k, self.n);
        let mut codes = vec![0i8; n * k];
        for j in 0..n {
            let at = self.column_at(j);
            for (g, group) in codes[j * k..(j + 1) * k].chunks_mut(KG).enumerate() {
                group.copy_from_slice(&self.panels[at + g * NR][..group.len()]);
            }
        }
        (codes, self.scales[..n].to_vec())
    }

    /// Code groups per column: `⌈k/4⌉`.
    fn groups(&self) -> usize {
        self.k.div_ceil(KG)
    }

    /// Index in `panels` of column `j`'s first group; its group `g` is
    /// `16·g` further on.
    fn column_at(&self, j: usize) -> usize {
        (j / NR) * self.groups() * NR + j % NR
    }

    /// The groups of the 16-column panel starting at column `j0`.
    fn panel(&self, j0: usize) -> &[[i8; KG]] {
        let len = self.groups() * NR;
        &self.panels[(j0 / NR) * len..(j0 / NR + 1) * len]
    }

    /// Input width `k`.
    pub fn in_features(&self) -> usize {
        self.k
    }

    /// Output width `n`.
    pub fn out_features(&self) -> usize {
        self.n
    }

    /// Resident bytes: padded codes, column sums and scales.
    pub fn byte_len(&self) -> usize {
        KG * self.panels.len() + 4 * (self.sums.len() + self.scales.len())
    }
}

thread_local! {
    /// Per-thread u8 activation codes and row scales for
    /// [`gemm_packed_i8`]: grown once, reused by every later call, so
    /// the forward never allocates.
    static ACT_SCRATCH: RefCell<(Vec<u8>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-thread packing scratch for [`gemm_nt_i8_dyn`].
    static PACK_SCRATCH: RefCell<PackedI8> = RefCell::new(PackedI8::default());
}

/// `C = act(a_scale[i]·w_scale[j]·Σₚ Aq[i,p]·Wq[j,p] (+ bias[j]))` for
/// the `[m, k]` f32 rows `a` against packed weights `w`: the int8 twin
/// of [`crate::gemm_packed_f32`].
///
/// Each activation row is quantized on the fly to ±127 with its own
/// absmax scale. The integer dot product is exact, and the epilogue is
/// `(dot as f32 · a_scale) · w_scale + bias` on every dispatch path, so
/// all paths agree bit for bit; `act` is applied per row block while the
/// block is hot (see [`Act`]).
pub fn gemm_packed_i8(
    a: &[f32],
    w: &PackedI8,
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
    let kp = k.div_ceil(KG) * KG;
    ACT_SCRATCH.with(|s| {
        let (aq, scales) = &mut *s.borrow_mut();
        if aq.len() < m * kp {
            aq.resize(m * kp, 0);
        }
        if scales.len() < m {
            scales.resize(m, 0.0);
        }
        let (aq, scales) = (&mut aq[..m * kp], &mut scales[..m]);
        quantize_rows(a, k, kp, aq, scales, 127.0);
        let (aq, scales) = (&*aq, &*scales);
        if should_parallelize(m, k, n) {
            pool::parallel_rows(c, m, n, |i0, block| {
                serial_i8(aq, scales, w, bias, block, i0, block.len() / n);
                act.apply(block);
            });
        } else {
            serial_i8(aq, scales, w, bias, c, 0, m);
            act.apply(c);
        }
    });
}

/// [`gemm_packed_i8`] from `[n, k]` row-major codes with one scale per
/// row (as [`quantize_weights_i8`] produces): packs them into
/// thread-local scratch, then runs the one kernel. Serving packs once at
/// quantize or load time instead; this entry point serves kernel probes.
pub fn gemm_nt_i8_dyn(
    a: &[f32],
    wtq: &[i8],
    w_scales: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    PACK_SCRATCH.with(|p| {
        let mut packed = p.borrow_mut();
        packed.pack_from(wtq, w_scales, k, n);
        gemm_packed_i8(a, &packed, bias, c, m, Act::None);
    });
}

/// Whether the AVX-VNNI tile is usable (with AVX2+FMA).
#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        crate::gemm::simd_available() && std::arch::is_x86_feature_detected!("avxvnni")
    })
}

/// One row block `c` (rows `i0..i0 + rows` of the product) of the int8
/// GEMM, dispatched at runtime: the AVX-VNNI tile, the AVX2 `vpmaddubsw`
/// tile, or the portable loop — all over the same packed panels, all
/// exact. `aq` holds the u8 activation codes, `⌈k/4⌉·4` per row.
fn serial_i8(
    aq: &[u8],
    a_scales: &[f32],
    w: &PackedI8,
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if vnni_available() {
            // SAFETY: AVX2 and AVX-VNNI were detected at runtime.
            unsafe { avx2q::block_vnni(aq, a_scales, w, bias, c, i0, rows) };
            return;
        }
        if crate::gemm::simd_available() {
            // SAFETY: AVX2 was detected at runtime.
            unsafe { avx2q::block_maddubs(aq, a_scales, w, bias, c, i0, rows) };
            return;
        }
    }
    portable_i8(aq, a_scales, w, bias, c, i0, rows);
}

/// The float epilogue every path evaluates, in this order: the exact
/// integer `dot` scaled by the activation row's scale, then the weight
/// column's, then the bias added.
#[inline]
fn dequant(dot: i32, a_s: f32, w_s: f32, bias: Option<f32>) -> f32 {
    let v = dot as f32 * a_s * w_s;
    bias.map_or(v, |b| v + b)
}

fn portable_i8(
    aq: &[u8],
    a_scales: &[f32],
    w: &PackedI8,
    bias: Option<&[f32]>,
    c: &mut [f32],
    i0: usize,
    rows: usize,
) {
    let n = w.n;
    let kp = w.groups() * KG;
    for j0 in (0..n).step_by(NR) {
        let panel = w.panel(j0);
        for r in 0..rows {
            let a_row = &aq[(i0 + r) * kp..(i0 + r + 1) * kp];
            let mut acc = [0i32; NR];
            for (a4, groups) in a_row.chunks_exact(KG).zip(panel.chunks_exact(NR)) {
                for (cell, w4) in acc.iter_mut().zip(groups) {
                    for (&x, &wv) in a4.iter().zip(w4) {
                        *cell += i32::from(x) * i32::from(wv);
                    }
                }
            }
            for (j, &cell) in (j0..n).zip(&acc) {
                let dot = cell - 128 * w.sums[j];
                c[r * n + j] = dequant(dot, a_scales[i0 + r], w.scales[j], bias.map(|b| b[j]));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2q {
    use super::{Code, PackedI8, KG, MR, NR};
    use std::arch::x86_64::*;

    /// Largest `|v|` across the slice (AVX2). The accumulator is the
    /// *second* `vmaxps` operand, so NaN lanes are ignored exactly like
    /// the scalar `f32::max` fold; ±inf propagates.
    ///
    /// # Safety
    /// Caller must have verified `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn absmax(row: &[f32]) -> f32 {
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let k8 = row.len() - row.len() % 8;
        let mut acc = _mm256_setzero_ps();
        let mut p = 0;
        while p < k8 {
            let v = _mm256_and_ps(_mm256_loadu_ps(row.as_ptr().add(p)), abs_mask);
            acc = _mm256_max_ps(v, acc);
            p += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut max = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        for &v in &row[k8..] {
            max = max.max(v.abs());
        }
        max
    }

    /// Quantize one row with a precomputed `inv = qmax / absmax` scale
    /// (AVX2): round half away from zero, clamp, pack 32 codes per
    /// store, offset as `T` stores them. Bit-identical to the scalar path
    /// for finite inputs.
    ///
    /// # Safety
    /// Caller must have verified `avx2` at runtime; `q_row.len() ==
    /// row.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_row<T: Code>(row: &[f32], inv: f32, q_row: &mut [T]) {
        let k = row.len();
        let k32 = k - k % 32;
        let vinv = _mm256_set1_ps(inv);
        let half = _mm256_set1_ps(0.5);
        let sign_mask = _mm256_set1_ps(-0.0);
        let lo = _mm256_set1_epi32(-127);
        let hi = _mm256_set1_epi32(127);
        let offset = _mm256_set1_epi8(T::OFFSET as i8);
        // packs_epi32/16 interleave 128-bit lanes; this permutation
        // restores source order on the packed bytes.
        let unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut p = 0;
        while p < k32 {
            let mut chunk = [_mm256_setzero_si256(); 4];
            for (t, out) in chunk.iter_mut().enumerate() {
                let v = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(p + 8 * t)), vinv);
                // trunc(v + copysign(0.5, v)) = round half away from zero.
                let rounded = _mm256_add_ps(v, _mm256_or_ps(_mm256_and_ps(sign_mask, v), half));
                let i = _mm256_cvttps_epi32(rounded);
                *out = _mm256_min_epi32(_mm256_max_epi32(i, lo), hi);
            }
            let p01 = _mm256_packs_epi32(chunk[0], chunk[1]);
            let p23 = _mm256_packs_epi32(chunk[2], chunk[3]);
            let packed = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), unshuffle);
            let codes = _mm256_xor_si256(packed, offset);
            _mm256_storeu_si256(q_row.as_mut_ptr().add(p) as *mut __m256i, codes);
            p += 32;
        }
        super::quantize_row_scalar(&row[k32..], inv, &mut q_row[k32..]);
    }

    /// One multiply-accumulate step of the int8 tile: every i32 lane of
    /// `acc` gains the sum of the four u8 × i8 byte products in that lane.
    trait Mac {
        /// # Safety
        /// The caller's target features must cover the instruction.
        unsafe fn mac(acc: __m256i, a: __m256i, w: __m256i) -> __m256i;
    }

    /// `vpdpbusd`: the four products and their sum in one instruction.
    struct Vnni;

    impl Mac for Vnni {
        #[inline(always)]
        unsafe fn mac(acc: __m256i, a: __m256i, w: __m256i) -> __m256i {
            _mm256_dpbusd_avx_epi32(acc, a, w)
        }
    }

    /// `vpmaddubsw` (pair sums ≤ 255·63·2 < 2¹⁵, so never saturating)
    /// then `vpmaddwd` against ones to widen the pairs to i32.
    struct Maddubs;

    impl Mac for Maddubs {
        #[inline(always)]
        unsafe fn mac(acc: __m256i, a: __m256i, w: __m256i) -> __m256i {
            let pairs = _mm256_maddubs_epi16(a, w);
            _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
        }
    }

    /// int8 row block with the AVX-VNNI tile (see [`super::serial_i8`]).
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `avxvnni` at runtime; `aq`
    /// holds at least `i0 + rows` rows of `⌈k/4⌉·4` codes, `a_scales`
    /// `i0 + rows` scales, `c` is `rows × n` and `bias` (if any) `n` long.
    #[target_feature(enable = "avx2", enable = "avxvnni")]
    pub(super) unsafe fn block_vnni(
        aq: &[u8],
        a_scales: &[f32],
        w: &PackedI8,
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
    ) {
        block::<Vnni>(aq, a_scales, w, bias, c, i0, rows);
    }

    /// int8 row block with the AVX2 `vpmaddubsw` tile.
    ///
    /// # Safety
    /// Caller must have verified `avx2` at runtime; slice extents as for
    /// [`block_vnni`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_maddubs(
        aq: &[u8],
        a_scales: &[f32],
        w: &PackedI8,
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
    ) {
        block::<Maddubs>(aq, a_scales, w, bias, c, i0, rows);
    }

    /// What the epilogue of every tile of one 16-column panel shares.
    struct Panel {
        /// `128 · Σw` per column: the u8 offset's contribution.
        offset: [__m256i; 2],
        scales: [__m256; 2],
        bias: Option<[__m256; 2]>,
        /// Live columns (16 except in the last panel).
        cols: usize,
    }

    /// Walk the panels; within each, `MR`-row tiles over the block's
    /// rows, so a panel is read from memory once and then from cache.
    #[inline(always)]
    unsafe fn block<M: Mac>(
        aq: &[u8],
        a_scales: &[f32],
        w: &PackedI8,
        bias: Option<&[f32]>,
        c: &mut [f32],
        i0: usize,
        rows: usize,
    ) {
        let n = w.n;
        let kp = w.groups() * KG;
        assert!(aq.len() >= (i0 + rows) * kp && a_scales.len() >= i0 + rows);
        assert!(c.len() >= rows * n && bias.is_none_or(|b| b.len() >= n));
        for j0 in (0..n).step_by(NR) {
            let cols = NR.min(n - j0);
            let mut b = [0.0f32; NR];
            if let Some(bias) = bias {
                b[..cols].copy_from_slice(&bias[j0..j0 + cols]);
            }
            // SAFETY: `sums` and `scales` are padded to whole panels, so
            // columns `j0..j0 + 16` are in bounds; `b` is 16 floats.
            let panel = unsafe {
                let sums = w.sums.as_ptr().add(j0) as *const __m256i;
                let scales = w.scales.as_ptr().add(j0);
                Panel {
                    offset: [
                        _mm256_slli_epi32::<7>(_mm256_loadu_si256(sums)),
                        _mm256_slli_epi32::<7>(_mm256_loadu_si256(sums.add(1))),
                    ],
                    scales: [_mm256_loadu_ps(scales), _mm256_loadu_ps(scales.add(8))],
                    bias: bias.map(|_| {
                        [
                            _mm256_loadu_ps(b.as_ptr()),
                            _mm256_loadu_ps(b.as_ptr().add(8)),
                        ]
                    }),
                    cols,
                }
            };
            let codes = w.panel(j0);
            let mut r = 0;
            while r < rows {
                let take = (rows - r).min(MR);
                let a = &aq[(i0 + r) * kp..(i0 + r + take) * kp];
                let s = &a_scales[i0 + r..i0 + r + take];
                let out = &mut c[r * n + j0..];
                // SAFETY: `a` holds `take` rows of `kp` codes, `codes`
                // one panel of `kp / 4` groups, and `out` reaches row
                // `take - 1`, column `cols - 1` (asserted above).
                unsafe {
                    match take {
                        6 => tile::<M, 6>(a, kp, codes, &panel, s, out, n),
                        5 => tile::<M, 5>(a, kp, codes, &panel, s, out, n),
                        4 => tile::<M, 4>(a, kp, codes, &panel, s, out, n),
                        3 => tile::<M, 3>(a, kp, codes, &panel, s, out, n),
                        2 => tile::<M, 2>(a, kp, codes, &panel, s, out, n),
                        _ => tile::<M, 1>(a, kp, codes, &panel, s, out, n),
                    }
                }
                r += take;
            }
        }
    }

    /// `R` activation rows × one 16-column panel: per 4-step group, one
    /// broadcast of each row's 4 activation bytes against the two
    /// 8-column halves of the group's 64 weight bytes. Then the
    /// epilogue: subtract `128 · Σw`, convert, `· a_scale`, `· w_scale`,
    /// `+ bias` — the scalar expression, lane by lane.
    ///
    /// # Safety
    /// `a` holds `R` rows of `kp` bytes, `codes` `kp · 16` bytes, and
    /// `out` (row stride `n`) reaches row `R - 1`, column `panel.cols - 1`.
    #[inline(always)]
    unsafe fn tile<M: Mac, const R: usize>(
        a: &[u8],
        kp: usize,
        codes: &[[i8; KG]],
        panel: &Panel,
        a_scales: &[f32],
        out: &mut [f32],
        n: usize,
    ) {
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        let mut ap = a.as_ptr();
        let mut wp = codes.as_ptr().cast::<i8>();
        for _ in 0..kp / KG {
            let w0 = _mm256_loadu_si256(wp as *const __m256i);
            let w1 = _mm256_loadu_si256(wp.add(32) as *const __m256i);
            for (r, cell) in acc.iter_mut().enumerate() {
                let x = _mm256_set1_epi32((ap.add(r * kp) as *const i32).read_unaligned());
                cell[0] = M::mac(cell[0], x, w0);
                cell[1] = M::mac(cell[1], x, w1);
            }
            ap = ap.add(KG);
            wp = wp.add(NR * KG);
        }
        for (r, cell) in acc.iter().enumerate() {
            let a_s = _mm256_set1_ps(a_scales[r]);
            let mut row = [_mm256_setzero_ps(); 2];
            for (h, v) in row.iter_mut().enumerate() {
                let dot = _mm256_cvtepi32_ps(_mm256_sub_epi32(cell[h], panel.offset[h]));
                *v = _mm256_mul_ps(_mm256_mul_ps(dot, a_s), panel.scales[h]);
                if let Some(b) = panel.bias {
                    *v = _mm256_add_ps(*v, b[h]);
                }
            }
            let dst = out.as_mut_ptr().add(r * n);
            if panel.cols == NR {
                _mm256_storeu_ps(dst, row[0]);
                _mm256_storeu_ps(dst.add(8), row[1]);
            } else {
                let mut tmp = [0.0f32; NR];
                _mm256_storeu_ps(tmp.as_mut_ptr(), row[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(8), row[1]);
                std::ptr::copy_nonoverlapping(tmp.as_ptr(), dst, panel.cols);
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

    /// The activation quantizer's codes, back in two's complement.
    fn quantize_activations(a: &[f32], m: usize, k: usize) -> (Vec<i8>, Vec<f32>) {
        let mut q = vec![0u8; m * k];
        let mut scales = vec![0.0f32; m];
        quantize_rows(a, k, k, &mut q, &mut scales, 127.0);
        (q.iter().map(|&c| (c ^ 0x80) as i8).collect(), scales)
    }

    #[test]
    fn quantize_rows_bounds_error_and_handles_zero_rows() {
        let k = 37;
        let mut a = pseudo(5 * k, 3);
        a[2 * k..3 * k].fill(0.0); // an all-zero row
        let (q, scales) = quantize_activations(&a, 5, k);
        assert_eq!(scales[2], 0.0);
        assert!(q[2 * k..3 * k].iter().all(|&v| v == 0));
        for i in 0..5 {
            for p in 0..k {
                let back = q[i * k + p] as f32 * scales[i];
                assert!(
                    (back - a[i * k + p]).abs() <= scales[i] * 0.5 + 1e-9,
                    "row {i} col {p}: {} vs {back}",
                    a[i * k + p]
                );
            }
        }
    }

    #[test]
    fn quantize_weights_i8_stays_in_the_saturation_proof_range() {
        let k = 53;
        let a = pseudo(7 * k, 7);
        let mut q = vec![0i8; 7 * k];
        let mut scales = vec![0.0f32; 7];
        quantize_weights_i8(&a, k, &mut q, &mut scales);
        assert!(q.iter().all(|&v| (-63..=63).contains(&v)), "{q:?}");
        for i in 0..7 {
            for p in 0..k {
                let back = q[i * k + p] as f32 * scales[i];
                // Half a step of the coarser ±63 grid.
                assert!(
                    (back - a[i * k + p]).abs() <= scales[i] * 0.5 + 1e-9,
                    "row {i} col {p}: {} vs {back}",
                    a[i * k + p]
                );
            }
        }
    }

    /// The oracle: an i32 triple loop over two's-complement codes, then
    /// the kernels' float epilogue.
    fn naive_i8(
        aq: &[i8],
        a_scales: &[f32],
        wtq: &[i8],
        w_scales: &[f32],
        bias: Option<&[f32]>,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += aq[i * k + p] as i32 * wtq[j * k + p] as i32;
                }
                c[i * n + j] = dequant(acc, a_scales[i], w_scales[j], bias.map(|b| b[j]));
            }
        }
        c
    }

    /// A row-block kernel of the int8 GEMM, called directly.
    type BlockFn = unsafe fn(&[u8], &[f32], &PackedI8, Option<&[f32]>, &mut [f32], usize, usize);

    /// Every packed path this CPU can run, by name.
    fn packed_paths() -> Vec<(&'static str, BlockFn)> {
        let mut paths: Vec<(&'static str, BlockFn)> = vec![("portable", portable_i8)];
        #[cfg(target_arch = "x86_64")]
        {
            if crate::gemm::simd_available() {
                paths.push(("vpmaddubsw", avx2q::block_maddubs));
            }
            if vnni_available() {
                paths.push(("vpdpbusd", avx2q::block_vnni));
            }
        }
        paths
    }

    /// Run every packed path on the same codes — the whole product as
    /// one block, then again split into two row blocks — and require
    /// each to equal the triple loop bit for bit.
    fn check_paths(
        aq: &[i8],
        a_scales: &[f32],
        wq: &[i8],
        w_scales: &[f32],
        bias: Option<&[f32]>,
        (m, k, n): (usize, usize, usize),
    ) {
        let want = naive_i8(aq, a_scales, wq, w_scales, bias, m, k, n);
        let w = PackedI8::pack(wq, w_scales, k, n);
        let kp = k.div_ceil(KG) * KG;
        let mut au = vec![0x80u8; m * kp];
        for i in 0..m {
            for p in 0..k {
                au[i * kp + p] = u8::encode(aq[i * k + p]);
            }
        }
        for (name, block) in packed_paths() {
            let mut got = vec![f32::NAN; m * n];
            let split = m / 2;
            let (top, bottom) = got.split_at_mut(split * n);
            // SAFETY: `packed_paths` lists only the paths whose CPU
            // features were detected; `au` has `m` rows of `kp` codes and
            // the two blocks cover rows `0..split` and `split..m`.
            unsafe {
                block(&au, a_scales, &w, bias, top, 0, split);
                block(&au, a_scales, &w, bias, bottom, split, m - split);
            }
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{name} at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn every_packed_path_matches_the_triple_loop_at_tile_edge_shapes() {
        for m in [1, 2, 5, 6, 7, 13] {
            for k in [1, 3, 4, 5, 31, 32, 33, 260] {
                for n in [1, 2, 15, 16, 17, 33] {
                    let seed = (m * 10_000 + k * 100 + n) as u32;
                    let (aq, a_scales) = quantize_activations(&pseudo(m * k, seed), m, k);
                    let mut wq = vec![0i8; n * k];
                    let mut w_scales = vec![0.0f32; n];
                    quantize_weights_i8(&pseudo(n * k, seed ^ 0x5a5a), k, &mut wq, &mut w_scales);
                    let bias = pseudo(n, seed ^ 0xb1a5);
                    for bias in [None, Some(&bias[..])] {
                        check_paths(&aq, &a_scales, &wq, &w_scales, bias, (m, k, n));
                    }
                }
            }
        }
    }

    #[test]
    fn every_packed_path_is_exact_at_saturation_extremes_and_zero_rows() {
        // Worst case for the maddubs i16 intermediate: every activation
        // at ±127 (u8 255 or 1 after the offset) and every weight at ±63,
        // with signs chosen so adjacent k-pairs accumulate with the same
        // sign. 255·63·2 = 32 130 stays inside i16. Rows 1 and 4 are all
        // zero codes with scale 0, as the quantizer emits for them.
        let (m, k, n) = (7, 67, 33);
        for flip in [false, true] {
            let mut aq: Vec<i8> = (0..m * k)
                .map(|i| {
                    if ((i / 2) % 2 == 0) != flip {
                        127
                    } else {
                        -127
                    }
                })
                .collect();
            let mut a_scales = vec![1.0f32; m];
            for r in [1, 4] {
                aq[r * k..(r + 1) * k].fill(0);
                a_scales[r] = 0.0;
            }
            let wq: Vec<i8> = (0..n * k)
                .map(|i| if (i / 2) % 2 == 0 { 63 } else { -63 })
                .collect();
            let w_scales = vec![1.0f32; n];
            check_paths(&aq, &a_scales, &wq, &w_scales, None, (m, k, n));
        }
    }

    #[test]
    fn gemm_nt_i8_matches_naive_exactly() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 17, 5),
            (4, 16, 16),
            (5, 33, 7),
            (9, 64, 12),
            (2, 100, 3),
            (96, 72, 80), // crosses the parallelism threshold
        ] {
            let af = pseudo(m * k, 21);
            let (aq, a_scales) = quantize_activations(&af, m, k);
            let mut wq = vec![0i8; n * k];
            let mut w_scales = vec![0.0f32; n];
            quantize_weights_i8(&pseudo(n * k, 22), k, &mut wq, &mut w_scales);
            let bias = pseudo(n, 23);
            for bias in [None, Some(&bias[..])] {
                let want = naive_i8(&aq, &a_scales, &wq, &w_scales, bias, m, k, n);
                let mut got = vec![0.0f32; m * n];
                gemm_nt_i8_dyn(&af, &wq, &w_scales, bias, &mut got, m, k, n);
                // The integer dot product is exact; the epilogue is the
                // same float expression in both.
                assert_eq!(got, want, "at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_nt_i8_is_exact_at_saturation_extremes() {
        // Activations that quantize to exactly ±127 (each row's absmax is
        // 1) against ±63 weights, through the public entry point.
        let (m, k, n) = (5, 67, 9);
        let af: Vec<f32> = (0..m * k)
            .map(|i| if (i / 2) % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let (aq, a_scales) = quantize_activations(&af, m, k);
        assert!(aq.iter().all(|&q| q == 127 || q == -127));
        let wq: Vec<i8> = (0..n * k)
            .map(|i| if (i / 2) % 2 == 0 { 63 } else { -63 })
            .collect();
        let w_scales = vec![1.0f32; n];
        let want = naive_i8(&aq, &a_scales, &wq, &w_scales, None, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_nt_i8_dyn(&af, &wq, &w_scales, None, &mut got, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn pack_then_unpack_is_the_identity() {
        for (k, n) in [(1, 1), (3, 17), (33, 16), (260, 33)] {
            let mut wq = vec![0i8; n * k];
            let mut scales = vec![0.0f32; n];
            quantize_weights_i8(&pseudo(n * k, 61), k, &mut wq, &mut scales);
            let packed = PackedI8::pack(&wq, &scales, k, n);
            assert_eq!((packed.in_features(), packed.out_features()), (k, n));
            assert_eq!(packed.unpack(), (wq, scales));
        }
    }

    #[test]
    #[should_panic(expected = "±63")]
    fn pack_rejects_codes_outside_the_saturation_proof_range() {
        PackedI8::pack(&[64], &[1.0], 1, 1);
    }

    #[test]
    fn gemm_nt_i8_dyn_tracks_f32_gemm() {
        let (m, k, n) = (6, 48, 24);
        let a = pseudo(m * k, 31);
        let wf = pseudo(n * k, 32); // stored [n, k] (transposed)
        let mut wq = vec![0i8; n * k];
        let mut w_scales = vec![0.0f32; n];
        quantize_weights_i8(&wf, k, &mut wq, &mut w_scales);
        // f32 reference on the *same* weights, NN layout.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = wf[j * k + p];
            }
        }
        let mut want = vec![0.0f32; m * n];
        crate::gemm_nn(&a, &b, None, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_nt_i8_dyn(&a, &wq, &w_scales, None, &mut got, m, k, n);
        // Two rounds of 8-bit quantization: error is bounded by the
        // product of the per-row scales times k, loosely 1e-2 at this
        // magnitude.
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 2e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn gemm_packed_i8_gelu_epilogue_matches_gemm_then_gelu() {
        let (m, k, n) = (7, 40, 33);
        let a = pseudo(m * k, 71);
        let mut wq = vec![0i8; n * k];
        let mut scales = vec![0.0f32; n];
        quantize_weights_i8(&pseudo(n * k, 72), k, &mut wq, &mut scales);
        let w = PackedI8::pack(&wq, &scales, k, n);
        let bias = pseudo(n, 73);
        let mut want = vec![0.0f32; m * n];
        gemm_packed_i8(&a, &w, Some(&bias), &mut want, m, Act::None);
        crate::math::gelu(&mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_packed_i8(&a, &w, Some(&bias), &mut got, m, Act::Gelu);
        assert_eq!(got, want);
    }
}
