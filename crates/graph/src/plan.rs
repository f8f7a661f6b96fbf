//! Planning: fuse elementwise chains, dedupe identical layers into one
//! schedule, derive the last layer's score-only tail from it, and lay
//! the schedule's buffers out in a shared arena.
//!
//! A plan holds two schedules over one buffer table. The *body* is the
//! canonical layer, replayed for layers `0..layers − 1`. The *tail* is
//! the same op list with one [`Op::GatherCls`] inserted after the head
//! split, replayed once for the last layer: the matcher reads only the
//! final CLS state, so the last layer still projects Q|K|V for every
//! token (keys and values need them) but computes attention, the output
//! projection, both norms and the feed-forward for the CLS row alone.
//! The tail addresses the body's buffers and fills a prefix of each, so
//! it adds nothing to the arena.

use std::collections::HashMap;

use em_kernels::Act;

use crate::arena::{allocate, Span};
use crate::ir::{Op, PlanKey, VBuf};
use crate::trace::trace;

/// An executable plan: the canonical layer schedule (replayed for all
/// but the last layer), the score-only tail (replayed for the last),
/// the arena layout of their shared buffers, and the planning
/// statistics the bench and the gauges report.
pub struct Plan {
    /// The geometry this plan was built for.
    pub key: PlanKey,
    /// The body: one whole-sequence layer.
    pub(crate) ops: Vec<Op>,
    /// The tail: `ops` narrowed to the CLS row after the head split.
    pub(crate) tail: Vec<Op>,
    pub(crate) spans: Vec<Span>,
    /// Arena size in f32 elements — the only allocation the executor
    /// ever makes for intermediates, shared by all layers.
    pub arena_len: usize,
    /// What the same intermediates cost with one private buffer each
    /// (the sum of per-op buffers without liveness sharing), in f32
    /// elements.
    pub scratch_len: usize,
    /// Ops the tracer records for one layer, before fusion (the tail's
    /// gather is the planner's, not a traced op).
    pub traced_ops: usize,
    /// Op dispatches eliminated per forward by fusion, summed over every
    /// layer: the tail fuses the same chains as the body.
    pub fused_ops: usize,
    /// Layers collapsed into the single canonical schedule — all of
    /// them; the last replays it in its score-only form.
    pub deduped_layers: usize,
}

impl Plan {
    /// Trace and plan the frozen forward for `key`.
    pub fn build(key: PlanKey) -> Plan {
        Plan::build_with(key, true)
    }

    /// Internal variant that can skip the fusion pass; the unfused plan
    /// replays the trace one pass per op and anchors the
    /// fused-vs-unfused equivalence tests.
    pub(crate) fn build_with(key: PlanKey, fuse_pass: bool) -> Plan {
        assert!(key.layers > 0, "an encoder has at least one layer");
        let traced = trace(&key);
        let traced_ops = traced.layer_ops[0].len();

        // Fuse each layer's chain, then renumber each layer's buffers
        // in first-use order so structurally identical layers become
        // textually identical.
        let mut canon: Option<(Vec<Op>, Vec<usize>)> = None;
        for ops in &traced.layer_ops {
            let fused = if fuse_pass { fuse(ops) } else { ops.clone() };
            let layer = canonicalize(&fused, &traced.sizes);
            match &canon {
                None => canon = Some(layer),
                Some(prev) => assert!(
                    *prev == layer,
                    "frozen layers must trace to identical schedules"
                ),
            }
        }
        let (ops, sizes) = canon.expect("at least one layer was traced");
        let fused_ops = (traced_ops - ops.len()) * key.layers;

        let layout = allocate(&ops, &sizes);
        let plan = Plan {
            key,
            tail: score_only(&ops),
            ops,
            spans: layout.spans,
            arena_len: layout.arena_len,
            scratch_len: layout.scratch_len,
            traced_ops,
            fused_ops,
            deduped_layers: key.layers,
        };
        plan.validate_disjoint(&sizes);
        plan
    }

    /// Planning invariant: the distinct buffers of any single op must
    /// occupy disjoint arena intervals, otherwise liveness sharing
    /// would alias a kernel's inputs with its output.
    fn validate_disjoint(&self, sizes: &[usize]) {
        for op in &self.ops {
            let bufs = op.bufs();
            for (i, &a) in bufs.iter().enumerate() {
                for &b in &bufs[i + 1..] {
                    if a == b || sizes[a.0] == 0 || sizes[b.0] == 0 {
                        continue;
                    }
                    let (sa, sb) = (self.spans[a.0], self.spans[b.0]);
                    assert!(
                        sa.off + sa.len <= sb.off || sb.off + sb.len <= sa.off,
                        "op {op:?} aliases buffers {a:?} and {b:?}"
                    );
                }
            }
        }
    }
}

/// Peephole fusion over one layer's op list. Every rewrite collapses a
/// chain of full-tensor passes into one pass with *identical* per-element
/// arithmetic (same expressions, same order), so fused and unfused
/// replay produce bitwise-equal results:
///
/// * `Scale → AddRel? → AddMask? → Softmax` on the score tensor becomes
///   [`Op::FusedSoftmax`] (`em_kernels::attn_softmax_rows`).
/// * `Linear → Gelu` on the linear's output becomes a GEMM with a GELU
///   epilogue applied per register block.
/// * `Residual → Norm` becomes [`Op::ResidualNorm`]
///   (`em_kernels::residual_layer_norm_rows`).
fn fuse(ops: &[Op]) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if let Op::Scale { dst } = ops[i] {
            let mut j = i + 1;
            while matches!(
                ops.get(j),
                Some(Op::AddRel { dst: d } | Op::AddMask { dst: d }) if *d == dst
            ) {
                j += 1;
            }
            if matches!(ops.get(j), Some(Op::Softmax { dst: d }) if *d == dst) {
                out.push(Op::FusedSoftmax { dst });
                i = j + 1;
                continue;
            }
        }
        if let Op::Linear {
            slot,
            src,
            dst,
            act: Act::None,
        } = ops[i]
        {
            if matches!(ops.get(i + 1), Some(Op::Gelu { dst: d }) if *d == dst) {
                out.push(Op::Linear {
                    slot,
                    src,
                    dst,
                    act: Act::Gelu,
                });
                i += 2;
                continue;
            }
        }
        if let Op::Residual { src } = ops[i] {
            if let Some(Op::Norm { slot }) = ops.get(i + 1) {
                out.push(Op::ResidualNorm { src, slot: *slot });
                i += 2;
                continue;
            }
        }
        out.push(ops[i]);
        i += 1;
    }
    out
}

/// Derive the last layer's schedule from the canonical one. Through the
/// head split it is unchanged — every key and value feeds the CLS row's
/// attention; from there on only the CLS row reaches the pooler, so a
/// [`Op::GatherCls`] narrows every later op to one row per example.
fn score_only(ops: &[Op]) -> Vec<Op> {
    let split = ops
        .iter()
        .position(|op| matches!(op, Op::SplitHeads { .. }))
        .expect("a traced layer splits heads");
    let mut tail = ops.to_vec();
    tail.insert(split + 1, Op::GatherCls);
    tail
}

/// Renumber a layer's virtual buffers densely in first-use order and
/// project their sizes, making layers comparable (and the per-layer
/// buffer table self-contained).
fn canonicalize(ops: &[Op], sizes: &[usize]) -> (Vec<Op>, Vec<usize>) {
    let mut remap: HashMap<VBuf, VBuf> = HashMap::new();
    let mut out_sizes = Vec::new();
    let ops = ops
        .iter()
        .map(|op| {
            op.map_bufs(&mut |b| {
                *remap.entry(b).or_insert_with(|| {
                    out_sizes.push(sizes[b.0]);
                    VBuf(out_sizes.len() - 1)
                })
            })
        })
        .collect();
    (ops, out_sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{LinSlot, NormSlot};

    fn key(layers: usize, has_rel: bool) -> PlanKey {
        PlanKey {
            layers,
            hidden: 32,
            heads: 4,
            inner: 64,
            has_rel,
            batch_cap: 3,
            seq: 8,
        }
    }

    #[test]
    fn fusion_collapses_elementwise_chains() {
        let plan = Plan::build(key(2, true));
        // 16 traced ops (incl. AddRel) collapse to 10: the four-op
        // softmax chain becomes one, Linear+Gelu one, 2× Residual+Norm.
        assert_eq!(plan.traced_ops, 16);
        assert_eq!(plan.ops.len(), 10);
        assert_eq!(plan.fused_ops, (16 - 10) * 2);
        assert!(plan
            .ops
            .iter()
            .any(|op| matches!(op, Op::FusedSoftmax { .. })));
        assert!(plan.ops.iter().any(|op| matches!(
            op,
            Op::Linear {
                slot: LinSlot::Fc1,
                act: Act::Gelu,
                ..
            }
        )));
        assert_eq!(
            plan.ops
                .iter()
                .filter(|op| matches!(op, Op::ResidualNorm { .. }))
                .count(),
            2
        );
        // Nothing unfused survives.
        assert!(!plan.ops.iter().any(|op| matches!(
            op,
            Op::Scale { .. }
                | Op::AddRel { .. }
                | Op::AddMask { .. }
                | Op::Softmax { .. }
                | Op::Gelu { .. }
                | Op::Residual { .. }
                | Op::Norm { .. }
        )));
        // Slot order of the surviving linears matches the trace.
        let slots: Vec<LinSlot> = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Linear { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(
            slots,
            [LinSlot::Qkv, LinSlot::O, LinSlot::Fc1, LinSlot::Fc2]
        );
        let norms: Vec<NormSlot> = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::ResidualNorm { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(norms, [NormSlot::Attn, NormSlot::Ffn]);
    }

    #[test]
    fn layers_dedupe_to_one_schedule() {
        let two = Plan::build(key(2, false));
        let six = Plan::build(key(6, false));
        assert_eq!(two.ops.len(), six.ops.len());
        assert_eq!(two.ops, six.ops);
        assert_eq!(six.deduped_layers, 6);
        // Arena is per-layer state: more layers cost nothing.
        assert_eq!(two.arena_len, six.arena_len);
    }

    #[test]
    fn tail_is_the_body_with_one_gather_after_the_head_split() {
        for fuse_pass in [true, false] {
            let plan = Plan::build_with(key(3, true), fuse_pass);
            let split = plan
                .ops
                .iter()
                .position(|op| matches!(op, Op::SplitHeads { .. }))
                .unwrap();
            // Everything up to the split covers every token; the gather
            // comes before the first op that only feeds the CLS row.
            assert_eq!(plan.tail[split + 1], Op::GatherCls);
            assert!(matches!(plan.tail[split + 2], Op::AttnScores { .. }));
            let mut rest = plan.tail.clone();
            rest.remove(split + 1);
            assert_eq!(rest, plan.ops);
            assert!(!plan.ops.contains(&Op::GatherCls));
        }
    }

    #[test]
    fn tail_adds_nothing_to_the_arena_or_the_fusion_count() {
        // The tail addresses the body's buffers, so the arena is the
        // body's alone: 4608 floats is the layout of one whole-sequence
        // layer at this key.
        let plan = Plan::build(key(4, true));
        assert_eq!(plan.arena_len, 4608);
        assert_eq!(plan.fused_ops, (16 - 10) * 4);
        assert_eq!(plan.deduped_layers, 4);
    }

    #[test]
    fn arena_is_smaller_than_summed_scratch() {
        let plan = Plan::build(key(4, true));
        assert!(plan.arena_len < plan.scratch_len);
        // ... but still holds the largest single buffer.
        let largest = 3 * plan.key.batch_cap * plan.key.seq * plan.key.hidden;
        assert!(plan.arena_len >= largest);
    }

    #[test]
    fn unfused_plan_keeps_interpreter_ops() {
        let plan = Plan::build_with(key(1, true), false);
        assert_eq!(plan.ops.len(), plan.traced_ops);
        assert_eq!(plan.fused_ops, 0);
        assert!(plan.ops.iter().any(|op| matches!(op, Op::Softmax { .. })));
    }

    #[test]
    fn mask_op_is_always_planned() {
        // Unfused: the AddMask op is present even though a batch may
        // skip it at replay; fused: it lives inside FusedSoftmax.
        let plan = Plan::build_with(key(1, false), false);
        assert!(plan.ops.iter().any(|op| matches!(op, Op::AddMask { .. })));
    }
}
