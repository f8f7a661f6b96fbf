//! Replay: execute a planned schedule against bound weights.
//!
//! The executor walks the plan's body schedule for layers
//! `0..layers − 1` and its score-only tail for the last, resolving
//! virtual buffers to disjoint views of the caller's arena and binding
//! weight slots through [`GraphModel`] — the only code in the workspace
//! that walks the encoder layers of a frozen model. Both schedules run
//! through one loop and one `match`: an op covers every token until the
//! tail's `GatherCls` narrows the rest of the layer to each example's
//! CLS row, whose position is a replay input like the mask. Fused ops
//! run the same kernels in the same element order as the op chains they
//! replace, so fused replay is bitwise-equal to unfused replay.
//!
//! Plans are sized for `key.batch_cap` whole sequences but replay any
//! actual batch `b ≤ batch_cap`, and the tail any one row per example:
//! every batched buffer is row-major with the batch index outermost, so
//! the live data is a prefix of each arena span.
//!
//! At `EM_OBS=2` replay times every op into a `graph/op/<kind>`
//! histogram (linears per weight slot), which is where the forward's
//! time goes, op by op and in place.

use std::time::Instant;

use em_kernels::{attn_softmax_rows, gelu, gemm_nn, softmax_rows, Act};

use crate::ir::{LinSlot, NormSlot, Op, Src, VBuf};
use crate::plan::Plan;

/// Binds a plan's weight slots to a concrete model at replay time.
///
/// Implementations own the weights in whatever precision they like —
/// the executor never sees them, so an f32 or int8 model (or a
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

/// Replay `plan` over the flat `[batch*seq, hidden]` states `x`: the
/// body schedule for every layer but the last, the score-only tail for
/// the last. On return the first `batch * hidden` elements of `x` hold
/// the final `[batch, hidden]` CLS states; the rest is scratch.
///
/// `cls` is the sequence position of each example's CLS token (its
/// length is the batch), `mask` the optional `[batch*seq]` additive
/// padding mask (`0` / `-1e9`), `rel` the optional `[heads*seq*seq]`
/// relative bias — all runtime inputs, not plan state. `arena` must
/// hold `plan.arena_len` elements; its contents are scratch and need
/// not be zeroed.
pub(crate) fn execute(
    plan: &Plan,
    model: &dyn GraphModel,
    x: &mut [f32],
    mask: Option<&[f32]>,
    rel: Option<&[f32]>,
    cls: &[usize],
    arena: &mut [f32],
) {
    let key = &plan.key;
    let batch = cls.len();
    assert!(batch <= key.batch_cap, "batch exceeds the plan's envelope");
    assert!(arena.len() >= plan.arena_len, "arena too small for plan");
    let (t, d, h, inner) = (key.seq, key.hidden, key.heads, key.inner);
    let dh = key.head_dim();
    let tokens = batch * t;
    assert_eq!(x.len(), tokens * d, "hidden states must be [batch*seq, d]");
    assert!(
        cls.iter().all(|&c| c < t),
        "CLS position outside the sequence"
    );
    let off = |b: VBuf| plan.spans[b.0].off;
    let inv = 1.0 / (dh as f32).sqrt();
    // Per-op wall time into `graph/op/<kind>` histograms at `EM_OBS=2`
    // only; below that no clock is read. Recording into an existing
    // histogram allocates nothing, so replay stays allocation-free.
    let timed = em_obs::level() >= em_obs::LEVEL_EVENTS;

    for layer in 0..key.layers {
        let ops = if layer + 1 == key.layers {
            &plan.tail
        } else {
            &plan.ops
        };
        // The query rows the ops cover: every position of every example,
        // until a `GatherCls` narrows the rest of the schedule to the one
        // row at `only[bi]`. Keys and values always span the sequence.
        let mut only: Option<&[usize]> = None;
        for op in ops {
            let start = timed.then(Instant::now);
            let per = if only.is_some() { 1 } else { t };
            let first = move |bi: usize| only.map_or(0, |pos| pos[bi]);
            let rows = batch * per;
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
                            (off(src), tokens * 3 * d),
                            (off(q), tokens * d),
                            (off(kt), tokens * d),
                            (off(v), tokens * d),
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
                Op::GatherCls => {
                    // Row `bi*t + cls[bi]` is never below row `bi`, so an
                    // ascending in-place copy reads every source intact.
                    for (bi, &c) in cls.iter().enumerate() {
                        let src = (bi * t + c) * d;
                        x.copy_within(src..src + d, bi * d);
                    }
                    only = Some(cls);
                }
                Op::AttnScores { q, kt, dst } => {
                    let [q, kt, scores] = views(
                        arena,
                        [
                            (off(q), tokens * d),
                            (off(kt), tokens * d),
                            (off(dst), rows * h * t),
                        ],
                    );
                    for bi in 0..batch {
                        for hi in 0..h {
                            let g = bi * h + hi;
                            let q0 = (g * t + first(bi)) * dh;
                            gemm_nn(
                                &q[q0..q0 + per * dh],
                                &kt[g * t * dh..(g + 1) * t * dh],
                                None,
                                &mut scores[g * per * t..(g + 1) * per * t],
                                per,
                                dh,
                                t,
                            );
                        }
                    }
                }
                Op::Scale { dst } => {
                    let [scores] = views(arena, [(off(dst), rows * h * t)]);
                    for v in scores {
                        *v *= inv;
                    }
                }
                Op::AddRel { dst } => {
                    let rel = rel.expect("plan with relative bias needs rel input");
                    let [scores] = views(arena, [(off(dst), rows * h * t)]);
                    for bi in 0..batch {
                        for hi in 0..h {
                            let base = (bi * h + hi) * per * t;
                            for i in 0..per {
                                let srow = &mut scores[base + i * t..base + (i + 1) * t];
                                let pos = hi * t + first(bi) + i;
                                let brow = &rel[pos * t..(pos + 1) * t];
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
                        let [scores] = views(arena, [(off(dst), rows * h * t)]);
                        for bi in 0..batch {
                            let mrow = &mask[bi * t..(bi + 1) * t];
                            let group = &mut scores[bi * h * per * t..(bi + 1) * h * per * t];
                            for srow in group.chunks_exact_mut(t) {
                                for j in 0..t {
                                    srow[j] += mrow[j];
                                }
                            }
                        }
                    }
                }
                Op::Softmax { dst } => {
                    let [scores] = views(arena, [(off(dst), rows * h * t)]);
                    softmax_rows(scores, t);
                }
                Op::FusedSoftmax { dst } => {
                    let [scores] = views(arena, [(off(dst), rows * h * t)]);
                    let rel = if key.has_rel { rel } else { None };
                    attn_softmax_rows(scores, inv, rel, mask, batch, h, t, only);
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
                            (off(scores), rows * h * t),
                            (off(v), tokens * d),
                            (off(tmp), per * dh),
                            (off(dst), rows * d),
                        ],
                    );
                    for bi in 0..batch {
                        for hi in 0..h {
                            let g = bi * h + hi;
                            gemm_nn(
                                &scores[g * per * t..(g + 1) * per * t],
                                &v[g * t * dh..(g + 1) * t * dh],
                                None,
                                tmp,
                                per,
                                t,
                                dh,
                            );
                            for i in 0..per {
                                let row = (bi * per + i) * d + hi * dh;
                                merged[row..row + dh].copy_from_slice(&tmp[i * dh..(i + 1) * dh]);
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
            if let Some(start) = start {
                em_obs::histogram_record(op.histogram(), start.elapsed().as_secs_f64());
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
            em_kernels::gemm_nn(x, w, Some(b), out, rows, k, n);
            if act == Act::Gelu {
                em_kernels::gelu(out);
            }
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

    /// Replay `plan` over a copy of the `[cls.len() * seq, d]` states
    /// `x0` and return the whole buffer: the `[batch, d]` final CLS
    /// states, then scratch.
    fn run(plan: &Plan, model: &TestModel, x0: &[f32], cls: &[usize], masked: bool) -> Vec<f32> {
        let t = plan.key.seq;
        // Two padded key positions that no test uses as a CLS position.
        let mask: Option<Vec<f32>> = masked.then(|| {
            (0..cls.len() * t)
                .map(|i| {
                    if (t - 3..t - 1).contains(&(i % t)) {
                        -1e9
                    } else {
                        0.0
                    }
                })
                .collect()
        });
        let rel: Option<Vec<f32>> = plan.key.has_rel.then(|| {
            pseudo(plan.key.heads * t * t, 7)
                .iter()
                .map(|v| v * 0.3)
                .collect()
        });
        let mut x = x0.to_vec();
        let mut arena = vec![0.0f32; plan.arena_len];
        execute(
            plan,
            model,
            &mut x,
            mask.as_deref(),
            rel.as_deref(),
            cls,
            &mut arena,
        );
        x
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
            let xa = run(&fused, &model, &x0, &[0, 5], masked);
            let xb = run(&unfused, &model, &x0, &[0, 5], masked);
            // Same kernels, same element order: bitwise equal.
            assert_eq!(xa, xb, "rel={has_rel} masked={masked}");
        }
    }

    /// The tail's oracle is the body: replay the whole-sequence schedule
    /// for the last layer too and read the CLS rows out of the full
    /// hidden states.
    #[test]
    fn score_only_tail_matches_the_cls_rows_of_a_whole_last_layer() {
        let (seq, d) = (6, 24);
        for layers in [1, 3] {
            let model = TestModel::new(layers, d, 48);
            for (has_rel, masked) in [(false, false), (false, true), (true, false), (true, true)] {
                let key = PlanKey {
                    layers,
                    hidden: d,
                    heads: 3,
                    inner: 48,
                    has_rel,
                    batch_cap: 4,
                    seq,
                };
                let plan = Plan::build(key);
                let mut whole = Plan::build(key);
                whole.tail = whole.ops.clone();
                // CLS first, CLS last, a different position per example;
                // every batch is smaller than the plan's envelope.
                for cls in [
                    vec![0, 0, 0],
                    vec![seq - 1; 3],
                    vec![0, 2, seq - 1],
                    vec![2],
                ] {
                    let x0 = pseudo(cls.len() * seq * d, 41);
                    let got = run(&plan, &model, &x0, &cls, masked);
                    let full = run(&whole, &model, &x0, &cls, masked);
                    for (bi, &c) in cls.iter().enumerate() {
                        let delta = max_delta(
                            &got[bi * d..(bi + 1) * d],
                            &full[(bi * seq + c) * d..(bi * seq + c + 1) * d],
                        );
                        assert!(
                            delta <= 1e-6,
                            "layers={layers} rel={has_rel} masked={masked} cls={cls:?}: {delta}"
                        );
                    }
                }
            }
        }
    }

    /// A [`GraphModel`] that records how many rows each row-wise call
    /// covered instead of computing anything.
    #[derive(Default)]
    struct RowLog(std::cell::RefCell<Vec<(usize, &'static str, usize)>>);

    impl GraphModel for RowLog {
        fn linear(
            &self,
            layer: usize,
            slot: LinSlot,
            _: &[f32],
            _: &mut [f32],
            rows: usize,
            _: Act,
        ) {
            let name = match slot {
                LinSlot::Qkv => "qkv",
                LinSlot::O => "o",
                LinSlot::Fc1 => "fc1",
                LinSlot::Fc2 => "fc2",
            };
            self.0.borrow_mut().push((layer, name, rows));
        }

        fn norm(&self, _: usize, _: NormSlot, _: &mut [f32]) {
            unreachable!("fused plans issue residual_norm only");
        }

        fn residual_norm(&self, layer: usize, _: NormSlot, x: &mut [f32], add: &[f32]) {
            assert_eq!(x.len(), add.len());
            self.0.borrow_mut().push((layer, "norm", x.len()));
        }
    }

    #[test]
    fn only_the_last_layer_narrows_to_one_row_per_example() {
        let key = PlanKey {
            layers: 2,
            hidden: 8,
            heads: 2,
            inner: 16,
            has_rel: false,
            batch_cap: 4,
            seq: 5,
        };
        let (batch, d) = (3, key.hidden);
        let tokens = batch * key.seq;
        let plan = Plan::build(key);
        let log = RowLog::default();
        let mut x = vec![0.0; tokens * d];
        let mut arena = vec![0.0; plan.arena_len];
        execute(&plan, &log, &mut x, None, None, &[0, 4, 2], &mut arena);
        let layer = |l: usize, rows: usize| {
            [
                (l, "qkv", tokens),
                (l, "o", rows),
                (l, "norm", rows * d),
                (l, "fc1", rows),
                (l, "fc2", rows),
                (l, "norm", rows * d),
            ]
        };
        assert_eq!(
            *log.0.borrow(),
            [layer(0, tokens), layer(1, batch)].concat()
        );
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
        let xa = run(&plan_big, &model, &x0, &[0, 0, 0], true);
        let xb = run(&plan_exact, &model, &x0, &[0, 0, 0], true);
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
        execute(&plan, &model, &mut x, None, None, &[0, 0], &mut arena);
    }
}
