//! Replay: execute a planned schedule against bound weights.
//!
//! The executor walks the canonical layer schedule `key.layers` times,
//! resolving virtual buffers to disjoint views of the caller's arena
//! and binding weight slots through [`GraphModel`] — the only code in
//! the workspace that walks the encoder layers of a frozen model. Fused
//! ops run the same kernels in the same element order as the op chains
//! they replace, so fused replay is bitwise-equal to unfused replay.
//!
//! Plans are sized for `key.batch_cap` but replay any actual batch
//! `b ≤ batch_cap`: every batched buffer is row-major with the batch
//! index outermost, so the live data is a prefix of each arena span.

use em_kernels::{attn_softmax_rows, gelu, gemm_nn, softmax_rows, Act};

use crate::ir::{LinSlot, NormSlot, Op, Src, VBuf};
use crate::plan::Plan;

/// Binds a plan's weight slots to a concrete model at replay time.
///
/// Implementations own the weights in whatever precision they like —
/// the executor never sees them, so an f32, f16 or int8 model (or a
/// hot-swapped generation) replays the same plan; the implementation
/// picks the matching (fused-epilogue) kernel per slot.
pub trait GraphModel {
    /// `out = act(x · W[layer][slot] + b[layer][slot])` over `rows` rows.
    fn linear(
        &self,
        layer: usize,
        slot: LinSlot,
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        act: Act,
    );
    /// Layer-norm `x` in place with `layer`'s `slot` parameters.
    fn norm(&self, layer: usize, slot: NormSlot, x: &mut [f32]);
    /// Fused `x = norm(x + add)` row by row with `layer`'s `slot` parameters.
    fn residual_norm(&self, layer: usize, slot: NormSlot, x: &mut [f32], add: &[f32]);
}

/// Split `arena` into `N` disjoint mutable views at the requested
/// `(offset, len)` intervals. Safe by construction: intervals are
/// visited in offset order and carved off with `split_at_mut`, so any
/// overlap panics instead of aliasing.
fn views<const N: usize>(arena: &mut [f32], req: [(usize, usize); N]) -> [&mut [f32]; N] {
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_unstable_by_key(|&i| req[i].0);
    let mut out: [Option<&mut [f32]>; N] = std::array::from_fn(|_| None);
    let mut rest = arena;
    let mut base = 0usize;
    for &i in &order {
        let (off, len) = req[i];
        assert!(off >= base, "arena views overlap");
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(off - base);
        let (view, tail) = tail.split_at_mut(len);
        out[i] = Some(view);
        rest = tail;
        base = off + len;
    }
    out.map(|v| v.expect("every requested view was carved"))
}

/// Replay `plan` over the flat `[batch*seq, hidden]` states `x`.
///
/// `mask` is the optional `[batch*seq]` additive padding mask (`0` /
/// `-1e9`), `rel` the optional `[heads*seq*seq]` relative bias — both
/// runtime inputs, not plan state. `arena` must hold `plan.arena_len`
/// elements; its contents are scratch and need not be zeroed.
pub(crate) fn execute(
    plan: &Plan,
    model: &dyn GraphModel,
    batch: usize,
    x: &mut [f32],
    mask: Option<&[f32]>,
    rel: Option<&[f32]>,
    arena: &mut [f32],
) {
    let key = &plan.key;
    assert!(batch <= key.batch_cap, "batch exceeds the plan's envelope");
    assert!(arena.len() >= plan.arena_len, "arena too small for plan");
    let (t, d, h, inner) = (key.seq, key.hidden, key.heads, key.inner);
    let dh = key.head_dim();
    let rows = batch * t;
    debug_assert_eq!(x.len(), rows * d);
    let off = |b: VBuf| plan.spans[b.0].off;
    let inv = 1.0 / (dh as f32).sqrt();

    for layer in 0..key.layers {
        for op in &plan.ops {
            match *op {
                Op::Linear {
                    slot,
                    src,
                    dst,
                    act,
                } => {
                    let (k_in, n_out) = match slot {
                        LinSlot::Qkv => (d, 3 * d),
                        LinSlot::O => (d, d),
                        LinSlot::Fc1 => (d, inner),
                        LinSlot::Fc2 => (inner, d),
                    };
                    match src {
                        Src::Hidden => {
                            let [out] = views(arena, [(off(dst), rows * n_out)]);
                            model.linear(layer, slot, &x[..rows * d], out, rows, act);
                        }
                        Src::Buf(s) => {
                            let [xin, out] =
                                views(arena, [(off(s), rows * k_in), (off(dst), rows * n_out)]);
                            model.linear(layer, slot, xin, out, rows, act);
                        }
                    }
                }
                Op::SplitHeads { src, q, kt, v } => {
                    let [qkv, q, kt, v] = views(
                        arena,
                        [
                            (off(src), rows * 3 * d),
                            (off(q), rows * d),
                            (off(kt), rows * d),
                            (off(v), rows * d),
                        ],
                    );
                    for bi in 0..batch {
                        for ti in 0..t {
                            let row = &qkv[(bi * t + ti) * 3 * d..(bi * t + ti + 1) * 3 * d];
                            for hi in 0..h {
                                let g = bi * h + hi;
                                for ci in 0..dh {
                                    q[(g * t + ti) * dh + ci] = row[hi * dh + ci];
                                    kt[(g * dh + ci) * t + ti] = row[d + hi * dh + ci];
                                    v[(g * t + ti) * dh + ci] = row[2 * d + hi * dh + ci];
                                }
                            }
                        }
                    }
                }
                Op::AttnScores { q, kt, dst } => {
                    let [q, kt, scores] = views(
                        arena,
                        [
                            (off(q), rows * d),
                            (off(kt), rows * d),
                            (off(dst), batch * h * t * t),
                        ],
                    );
                    for g in 0..batch * h {
                        gemm_nn(
                            &q[g * t * dh..(g + 1) * t * dh],
                            &kt[g * t * dh..(g + 1) * t * dh],
                            None,
                            &mut scores[g * t * t..(g + 1) * t * t],
                            t,
                            dh,
                            t,
                        );
                    }
                }
                Op::Scale { dst } => {
                    let [scores] = views(arena, [(off(dst), batch * h * t * t)]);
                    for v in scores {
                        *v *= inv;
                    }
                }
                Op::AddRel { dst } => {
                    let rel = rel.expect("plan with relative bias needs rel input");
                    let [scores] = views(arena, [(off(dst), batch * h * t * t)]);
                    for bi in 0..batch {
                        for hi in 0..h {
                            let base = (bi * h + hi) * t * t;
                            for i in 0..t {
                                let srow = &mut scores[base + i * t..base + (i + 1) * t];
                                let brow = &rel[(hi * t + i) * t..(hi * t + i + 1) * t];
                                for j in 0..t {
                                    srow[j] += brow[j];
                                }
                            }
                        }
                    }
                }
                Op::AddMask { dst } => {
                    // Mask-free batches plan the op but skip it here, so
                    // masked and full batches share one plan.
                    if let Some(mask) = mask {
                        let [scores] = views(arena, [(off(dst), batch * h * t * t)]);
                        for bi in 0..batch {
                            let mrow = &mask[bi * t..(bi + 1) * t];
                            for hi in 0..h {
                                let base = (bi * h + hi) * t * t;
                                for i in 0..t {
                                    let srow = &mut scores[base + i * t..base + (i + 1) * t];
                                    for j in 0..t {
                                        srow[j] += mrow[j];
                                    }
                                }
                            }
                        }
                    }
                }
                Op::Softmax { dst } => {
                    let [scores] = views(arena, [(off(dst), batch * h * t * t)]);
                    softmax_rows(scores, t);
                }
                Op::FusedSoftmax { dst } => {
                    let [scores] = views(arena, [(off(dst), batch * h * t * t)]);
                    let rel = if key.has_rel { rel } else { None };
                    attn_softmax_rows(scores, inv, rel, mask, batch, h, t);
                }
                Op::AttnContext {
                    scores,
                    v,
                    tmp,
                    dst,
                } => {
                    let [scores, v, tmp, merged] = views(
                        arena,
                        [
                            (off(scores), batch * h * t * t),
                            (off(v), rows * d),
                            (off(tmp), t * dh),
                            (off(dst), rows * d),
                        ],
                    );
                    for bi in 0..batch {
                        for hi in 0..h {
                            let g = bi * h + hi;
                            gemm_nn(
                                &scores[g * t * t..(g + 1) * t * t],
                                &v[g * t * dh..(g + 1) * t * dh],
                                None,
                                tmp,
                                t,
                                t,
                                dh,
                            );
                            for ti in 0..t {
                                merged[(bi * t + ti) * d + hi * dh
                                    ..(bi * t + ti) * d + (hi + 1) * dh]
                                    .copy_from_slice(&tmp[ti * dh..(ti + 1) * dh]);
                            }
                        }
                    }
                }
                Op::Residual { src } => {
                    let [add] = views(arena, [(off(src), rows * d)]);
                    for (xv, &av) in x.iter_mut().zip(add.iter()) {
                        *xv += av;
                    }
                }
                Op::Norm { slot } => {
                    model.norm(layer, slot, &mut x[..rows * d]);
                }
                Op::ResidualNorm { src, slot } => {
                    let [add] = views(arena, [(off(src), rows * d)]);
                    model.residual_norm(layer, slot, &mut x[..rows * d], add);
                }
                Op::Gelu { dst } => {
                    let [ffn1] = views(arena, [(off(dst), rows * inner)]);
                    gelu(ffn1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::PlanKey;

    /// Deterministic pseudo-random values in [-1, 1) (LCG, no deps).
    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    struct TestLayer {
        qkv: (Vec<f32>, Vec<f32>),
        o: (Vec<f32>, Vec<f32>),
        fc1: (Vec<f32>, Vec<f32>),
        fc2: (Vec<f32>, Vec<f32>),
        norm_attn: (Vec<f32>, Vec<f32>),
        norm_ffn: (Vec<f32>, Vec<f32>),
    }

    struct TestModel {
        layers: Vec<TestLayer>,
        d: usize,
        inner: usize,
    }

    impl TestModel {
        fn new(layers: usize, d: usize, inner: usize) -> Self {
            let lin = |k: usize, n: usize, seed: u64| {
                (
                    pseudo(k * n, seed).iter().map(|v| v * 0.2).collect(),
                    pseudo(n, seed ^ 0xb1a5).iter().map(|v| v * 0.1).collect(),
                )
            };
            let norm = |d: usize, seed: u64| {
                (
                    pseudo(d, seed).iter().map(|v| 1.0 + 0.1 * v).collect(),
                    pseudo(d, seed ^ 0xbe7a).iter().map(|v| 0.1 * v).collect(),
                )
            };
            let layers = (0..layers as u64)
                .map(|l| TestLayer {
                    qkv: lin(d, 3 * d, 11 + l),
                    o: lin(d, d, 23 + l),
                    fc1: lin(d, inner, 37 + l),
                    fc2: lin(inner, d, 53 + l),
                    norm_attn: norm(d, 71 + l),
                    norm_ffn: norm(d, 89 + l),
                })
                .collect();
            TestModel { layers, d, inner }
        }
    }

    impl GraphModel for TestModel {
        fn linear(
            &self,
            layer: usize,
            slot: LinSlot,
            x: &[f32],
            out: &mut [f32],
            rows: usize,
            act: Act,
        ) {
            let l = &self.layers[layer];
            let ((w, b), k, n) = match slot {
                LinSlot::Qkv => (&l.qkv, self.d, 3 * self.d),
                LinSlot::O => (&l.o, self.d, self.d),
                LinSlot::Fc1 => (&l.fc1, self.d, self.inner),
                LinSlot::Fc2 => (&l.fc2, self.inner, self.d),
            };
            em_kernels::gemm_nn_act(x, w, Some(b), out, rows, k, n, act);
        }

        fn norm(&self, layer: usize, slot: NormSlot, x: &mut [f32]) {
            let (g, b) = match slot {
                NormSlot::Attn => &self.layers[layer].norm_attn,
                NormSlot::Ffn => &self.layers[layer].norm_ffn,
            };
            em_kernels::layer_norm_rows(x, g, b, 1e-12);
        }

        fn residual_norm(&self, layer: usize, slot: NormSlot, x: &mut [f32], add: &[f32]) {
            let (g, b) = match slot {
                NormSlot::Attn => &self.layers[layer].norm_attn,
                NormSlot::Ffn => &self.layers[layer].norm_ffn,
            };
            em_kernels::residual_layer_norm_rows(x, add, g, b, 1e-12);
        }
    }

    fn run(plan: &Plan, model: &TestModel, batch: usize, x: &mut [f32], masked: bool) {
        let t = plan.key.seq;
        let mask: Option<Vec<f32>> = masked.then(|| {
            (0..batch * t)
                .map(|i| if i % t >= t - 2 { -1e9 } else { 0.0 })
                .collect()
        });
        let rel: Option<Vec<f32>> = plan.key.has_rel.then(|| {
            pseudo(plan.key.heads * t * t, 7)
                .iter()
                .map(|v| v * 0.3)
                .collect()
        });
        let mut arena = vec![0.0f32; plan.arena_len];
        execute(
            plan,
            model,
            batch,
            x,
            mask.as_deref(),
            rel.as_deref(),
            &mut arena,
        );
    }

    fn max_delta(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn fused_replay_matches_unfused_interpreter() {
        for (has_rel, masked) in [(false, false), (false, true), (true, false), (true, true)] {
            let key = PlanKey {
                layers: 3,
                hidden: 24,
                heads: 3,
                inner: 48,
                has_rel,
                batch_cap: 2,
                seq: 6,
            };
            let model = TestModel::new(key.layers, key.hidden, key.inner);
            let x0 = pseudo(key.batch_cap * key.seq * key.hidden, 99);
            let fused = Plan::build(key);
            let unfused = Plan::build_with(key, false);
            let mut xa = x0.clone();
            let mut xb = x0.clone();
            run(&fused, &model, key.batch_cap, &mut xa, masked);
            run(&unfused, &model, key.batch_cap, &mut xb, masked);
            // Same kernels, same element order: bitwise equal.
            assert_eq!(xa, xb, "rel={has_rel} masked={masked}");
        }
    }

    #[test]
    fn smaller_batches_replay_in_a_larger_envelope() {
        let big = PlanKey {
            layers: 2,
            hidden: 16,
            heads: 2,
            inner: 32,
            has_rel: false,
            batch_cap: 8,
            seq: 4,
        };
        let exact = PlanKey {
            batch_cap: 3,
            ..big
        };
        let model = TestModel::new(big.layers, big.hidden, big.inner);
        let x0 = pseudo(3 * big.seq * big.hidden, 5);
        let plan_big = Plan::build(big);
        let plan_exact = Plan::build(exact);
        let mut xa = x0.clone();
        let mut xb = x0.clone();
        run(&plan_big, &model, 3, &mut xa, true);
        run(&plan_exact, &model, 3, &mut xb, true);
        assert_eq!(max_delta(&xa, &xb), 0.0);
    }

    #[test]
    #[should_panic(expected = "batch exceeds the plan's envelope")]
    fn oversized_batch_is_rejected() {
        let key = PlanKey {
            layers: 1,
            hidden: 8,
            heads: 1,
            inner: 16,
            has_rel: false,
            batch_cap: 1,
            seq: 4,
        };
        let model = TestModel::new(1, 8, 16);
        let plan = Plan::build(key);
        let mut x = vec![0.0; 2 * 4 * 8];
        let mut arena = vec![0.0; plan.arena_len];
        execute(&plan, &model, 2, &mut x, None, None, &mut arena);
    }
}
