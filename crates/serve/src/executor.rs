//! The frozen forward: a reusable scoring workspace and the
//! [`em_graph::GraphModel`] binding for frozen weights.
//!
//! Every score this crate produces comes out of an [`Executor`] — a
//! serving worker owns one, and [`FrozenMatcher::score_encodings`] keeps
//! one per calling thread. It scores through `em-graph`: the encoder
//! stack is traced and planned once per (architecture, length-bucket)
//! geometry, then every later batch replays the cached plan — the body
//! schedule for all but the last layer and the score-only tail for the
//! last, which narrows to each example's CLS row (a replay input, like
//! the mask) once its keys and values exist, because the pooler reads
//! nothing else. Fused kernels, one shared arena, zero allocation at
//! steady state. The head-side buffers (hidden states, mask, pooled,
//! logits) live here and are reused the same way.

use std::sync::Arc;

use em_graph::{GraphExecutor, GraphModel, LinSlot, NormSlot, Plan, PlanKey};
use em_kernels::{layer_norm_rows, residual_layer_norm_rows, softmax_rows, Act};
use em_tokenizers::Encoding;
use em_transformers::Batch;

use crate::frozen::{FrozenMatcher, FrozenModel};

impl GraphModel for FrozenModel {
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
        let lin = match slot {
            LinSlot::Qkv => &l.qkv,
            LinSlot::O => &l.o,
            LinSlot::Fc1 => &l.fc1,
            LinSlot::Fc2 => &l.fc2,
        };
        // Dispatches on the stored representation, so the planned
        // Linear+GELU fusion reaches the int8 epilogue too.
        lin.forward_flat(x, out, rows, act);
    }

    fn norm(&self, layer: usize, slot: NormSlot, x: &mut [f32]) {
        let l = &self.layers[layer];
        let n = match slot {
            NormSlot::Attn => &l.norm1,
            NormSlot::Ffn => &l.norm2,
        };
        layer_norm_rows(x, &n.gamma, &n.beta, n.eps);
    }

    fn residual_norm(&self, layer: usize, slot: NormSlot, x: &mut [f32], add: &[f32]) {
        let l = &self.layers[layer];
        let n = match slot {
            NormSlot::Attn => &l.norm1,
            NormSlot::Ffn => &l.norm2,
        };
        residual_layer_norm_rows(x, add, &n.gamma, &n.beta, n.eps);
    }
}

/// The plan-cache key for scoring `model` at sequence length `seq` with
/// an arena sized for `batch_cap` examples. Keyed on the *bucket
/// capacity* rather than the actual batch fill: plans replay any batch
/// up to their envelope, so steady-state traffic hits one plan per
/// length bucket no matter how full each coalesced batch happens to be.
pub fn plan_key(model: &FrozenModel, batch_cap: usize, seq: usize) -> PlanKey {
    PlanKey {
        layers: model.layers.len(),
        hidden: model.config.hidden,
        heads: model.config.heads,
        inner: model.layers.first().map_or(0, |l| l.fc1.out_features()),
        has_rel: model.relative.is_some(),
        batch_cap,
        seq,
    }
}

/// Argument token of [`Executor::new`]. The executor once had a second,
/// interpreting backend; this one-variant enum is retained only because
/// the repo benchmark (`benchmark/src/layers.rs`, which a PR may not
/// edit alongside library code) spells `Executor::new(ExecBackend::Graph)`.
/// It is to be removed by the next `benchmark`-archetype PR.
#[derive(Debug, Clone, Copy)]
pub enum ExecBackend {
    /// Trace + plan once per batch geometry, then replay the planned
    /// schedule.
    Graph,
}

/// A thread-owned scoring engine: plan cache and all forward-pass
/// workspace, reused batch to batch.
///
/// Not `Sync` on purpose — one per thread keeps every buffer and the
/// plan cache lock-free. The model is *not* held here: each call takes
/// the (possibly hot-swapped) frozen matcher, and plans carry no
/// weights, so a swap that preserves geometry keeps every cached plan.
pub struct Executor {
    graph: GraphExecutor,
    /// Bucket-capacity hint for plan keying; see [`Executor::set_batch_capacity`].
    batch_cap: usize,
    x: Vec<f32>,
    mask: Vec<f32>,
    pooled: Vec<f32>,
    logits: Vec<f32>,
}

impl Executor {
    /// A fresh executor with an empty plan cache and workspace.
    pub fn new(_: ExecBackend) -> Self {
        Executor {
            graph: GraphExecutor::new(),
            batch_cap: 0,
            x: Vec::new(),
            mask: Vec::new(),
            pooled: Vec::new(),
            logits: Vec::new(),
        }
    }

    /// Hint the upcoming batches' capacity envelope (the serving bucket
    /// capacity). Plans are keyed on `max(actual batch, hint)`, so a
    /// worker that sets its bucket capacity builds one plan per length
    /// bucket and then hits it for every fill level.
    pub fn set_batch_capacity(&mut self, cap: usize) {
        self.batch_cap = cap;
    }

    /// Drain the plan-cache (hits, misses) counters accumulated since
    /// the last call. Kept as plain fields during the forward and
    /// drained here so emitting them (stats atomics, em-obs counters)
    /// never allocates inside the measured scoring path.
    pub fn take_plan_counts(&mut self) -> (u64, u64) {
        self.graph.take_counts()
    }

    /// Encode `batch` into its flat `[b, hidden]` final CLS states —
    /// the only hidden states the matcher reads — held in the executor's
    /// workspace. At steady state (geometry seen before, workspace
    /// grown) this performs no allocation.
    pub fn forward_hidden(&mut self, model: &FrozenModel, batch: &Batch) -> &[f32] {
        let b = batch.len();
        let t = batch.seq_len();
        let d = model.config.hidden;
        model
            .embeddings
            .forward_into(&batch.ids, &batch.segments, &mut self.x);
        let mask = fill_mask(batch, &mut self.mask).then_some(&self.mask[..b * t]);
        let rel: Option<Arc<Vec<f32>>> = model.relative.as_ref().map(|r| r.bias_flat(t));
        let rel = rel.as_ref().map(|r| r.as_slice());
        let key = plan_key(model, b.max(self.batch_cap), t);
        self.graph.run(
            key,
            model,
            &mut self.x[..b * t * d],
            mask,
            rel,
            &batch.cls_index,
        );
        &self.x[..b * d]
    }

    /// Match logits `[b, 2]` for one batch, held in the executor's
    /// workspace.
    pub fn logits(&mut self, matcher: &FrozenMatcher, batch: &Batch) -> &[f32] {
        let b = batch.len();
        let d = matcher.model.config.hidden;
        self.forward_hidden(&matcher.model, batch);
        // CLS states → pooler (+tanh, as autograd's pooled_states) → head.
        self.pooled.resize(b * d, 0.0);
        matcher.model.pooler.forward_flat(
            &self.x[..b * d],
            &mut self.pooled[..b * d],
            b,
            Act::None,
        );
        for v in &mut self.pooled[..b * d] {
            *v = v.tanh();
        }
        self.logits.resize(b * 2, 0.0);
        matcher.head.forward_flat(
            &self.pooled[..b * d],
            &mut self.logits[..b * 2],
            b,
            Act::None,
        );
        &self.logits[..b * 2]
    }

    /// Positive-class probability per encoding, as one batch padded
    /// dynamically to the batch maximum; allocates only the returned
    /// score vector. Encodings may be ragged; none may exceed the
    /// matcher's `max_len`.
    pub fn score_encodings(&mut self, matcher: &FrozenMatcher, encodings: &[Encoding]) -> Vec<f32> {
        if encodings.is_empty() {
            return Vec::new();
        }
        for e in encodings {
            assert!(
                e.ids.len() <= matcher.max_len,
                "encoding length {} exceeds the frozen matcher's max_len {}",
                e.ids.len(),
                matcher.max_len
            );
        }
        let batch = Batch::from_encodings(encodings);
        let b = batch.len();
        self.logits(matcher, &batch);
        softmax_rows(&mut self.logits[..b * 2], 2);
        (0..b).map(|i| self.logits[i * 2 + 1]).collect()
    }

    /// Build (or rebuild — planning is deterministic) the plan for one
    /// geometry, as a reporting hook for benches and tests: arena size
    /// vs summed scratch, fused-op counts, traced-op counts.
    pub fn plan_for(model: &FrozenModel, batch_cap: usize, seq: usize) -> Plan {
        Plan::build(plan_key(model, batch_cap, seq))
    }
}

/// Fill `out` with the additive key mask for `batch` (`0.0` real,
/// `-1e9` padding) and report whether any padding exists. Mask-free
/// batches return `false` and the replay skips the mask pass.
fn fill_mask(batch: &Batch, out: &mut Vec<f32>) -> bool {
    let b = batch.len();
    let t = batch.seq_len();
    out.resize(b * t, 0.0);
    let mut masked = false;
    for (bi, row) in batch.padding.iter().enumerate() {
        for (ti, &m) in row.iter().enumerate() {
            let v = if m == 1 { 0.0 } else { -1e9 };
            masked |= m != 1;
            out[bi * t + ti] = v;
        }
    }
    masked
}
