//! The traced op IR: virtual buffers, weight slots, and the encoder
//! ops the tracer records.
//!
//! Ops reference weights *by slot* (`layer-relative`), never by value —
//! a plan is pure geometry. That is what lets one layer schedule replay
//! for every layer (dedupe), one plan serve every model generation
//! behind a hot-swap cell, and the same plan drive f32 and int8
//! weights (the quantized kernel choice happens where the slot is bound,
//! in [`crate::GraphModel::linear`]).

use em_kernels::Act;

/// Geometry that fully determines a plan: the model shape plus the
/// padded batch envelope. Weights are *not* part of a plan — they are
/// bound at replay time through [`crate::GraphModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Encoder layers replayed with the (deduped) layer schedule.
    pub layers: usize,
    /// Hidden width `d`.
    pub hidden: usize,
    /// Attention heads `h` (must divide `hidden`).
    pub heads: usize,
    /// Feed-forward inner width.
    pub inner: usize,
    /// Whether the architecture adds a relative-position bias to the
    /// attention scores (XLNet). The padding mask is *not* keyed: every
    /// plan carries the mask op and skips it at replay when the batch
    /// has no padding, so masked and mask-free batches share one plan.
    pub has_rel: bool,
    /// Maximum batch rows the arena is sized for. Replay accepts any
    /// actual batch ≤ this: every traced buffer is row-major with the
    /// batch index outermost, so a smaller batch occupies a prefix of
    /// each interval. Serving keys this to the bucket capacity, which
    /// is what makes the plan cache hit on every steady-state batch
    /// regardless of fill.
    pub batch_cap: usize,
    /// Padded sequence length `t` (the length bucket).
    pub seq: usize,
}

impl PlanKey {
    /// Head width `dh = hidden / heads`.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// A virtual buffer id handed out while tracing; planning resolves it
/// to an arena interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct VBuf(pub(crate) usize);

/// Which of a layer's linear weights an op binds. Slot-relative
/// addressing (rather than absolute layer indices) is what makes every
/// layer trace to the identical op sequence, so dedupe can collapse
/// them into one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinSlot {
    /// The fused `[d, 3d]` Q|K|V projection.
    Qkv,
    /// The attention output projection.
    O,
    /// Feed-forward up-projection (carries the fused GELU epilogue).
    Fc1,
    /// Feed-forward down-projection.
    Fc2,
}

/// Which of a layer's two layer-norms an op binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormSlot {
    /// The post-attention residual norm.
    Attn,
    /// The post-feed-forward residual norm.
    Ffn,
}

/// Where a linear reads from: the external hidden-state buffer that
/// flows through the whole encoder, or a traced scratch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Src {
    /// The `[rows, d]` hidden states (owned by the caller, not the arena).
    Hidden,
    /// A traced intermediate.
    Buf(VBuf),
}

/// One traced (or fused) op of the encoder layer. The unfused set
/// is one pass over memory per op; the planner rewrites
/// chains of them into the `Fused*` / epilogue forms.
///
/// Ops do not carry a row count: replay runs each over every token of
/// the batch until a [`Op::GatherCls`] narrows the rest of the schedule
/// to one row per example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `dst = act(src · W[slot] + b[slot])` over `rows` rows.
    Linear {
        slot: LinSlot,
        src: Src,
        dst: VBuf,
        act: Act,
    },
    /// Scatter the fused QKV rows into per-(sample, head) Q, pre-transposed
    /// K, and V layouts.
    SplitHeads {
        src: VBuf,
        q: VBuf,
        kt: VBuf,
        v: VBuf,
    },
    /// Per-(sample, head) `Q · Kᵀ` batched GEMM into the score tensor.
    AttnScores { q: VBuf, kt: VBuf, dst: VBuf },
    /// Scores `*= 1/√dh`.
    Scale { dst: VBuf },
    /// Scores `+=` relative-position bias (XLNet).
    AddRel { dst: VBuf },
    /// Scores `+=` additive padding mask (skipped when the batch is full).
    AddMask { dst: VBuf },
    /// Row softmax over the key axis.
    Softmax { dst: VBuf },
    /// The planner's fusion of Scale → AddRel? → AddMask? → Softmax:
    /// one pass over the score tensor (`em_kernels::attn_softmax_rows`).
    FusedSoftmax { dst: VBuf },
    /// Per-(sample, head) `scores · V` into `tmp`, merged into the
    /// `[rows, d]` context `dst`.
    AttnContext {
        scores: VBuf,
        v: VBuf,
        tmp: VBuf,
        dst: VBuf,
    },
    /// Hidden `+= src` (residual connection).
    Residual { src: VBuf },
    /// Layer norm of the hidden states in place.
    Norm { slot: NormSlot },
    /// The planner's fusion of Residual → Norm: add and normalize each
    /// row in one pass (`em_kernels::residual_layer_norm_rows`).
    ResidualNorm { src: VBuf, slot: NormSlot },
    /// Elementwise GELU (fused into the producing GEMM by the planner).
    Gelu { dst: VBuf },
    /// Compact the hidden states to their `[batch, d]` CLS rows. Every
    /// later op of the schedule covers one row per example: attention
    /// takes the CLS row of `q` as its only query (keys and values stay
    /// whole), and the linears, residuals and norms run over `batch`
    /// rows, each in a prefix of the buffer the whole-sequence op uses.
    /// The planner inserts it into the last layer's schedule only — the
    /// matcher reads nothing but the final CLS state.
    GatherCls,
}

impl Op {
    /// The `graph/op/<kind>` histogram replay records this op's wall
    /// time into at `EM_OBS=2`. Linears are one kind per weight slot, so
    /// the four GEMMs of a layer (FC1 with its fused GELU) read apart.
    pub(crate) fn histogram(&self) -> &'static str {
        match *self {
            Op::Linear { slot, .. } => match slot {
                LinSlot::Qkv => "graph/op/linear_qkv",
                LinSlot::O => "graph/op/linear_o",
                LinSlot::Fc1 => "graph/op/linear_fc1",
                LinSlot::Fc2 => "graph/op/linear_fc2",
            },
            Op::SplitHeads { .. } => "graph/op/split_heads",
            Op::AttnScores { .. } => "graph/op/attn_scores",
            Op::Scale { .. } => "graph/op/scale",
            Op::AddRel { .. } => "graph/op/add_rel",
            Op::AddMask { .. } => "graph/op/add_mask",
            Op::Softmax { .. } => "graph/op/softmax",
            Op::FusedSoftmax { .. } => "graph/op/fused_softmax",
            Op::AttnContext { .. } => "graph/op/attn_context",
            Op::Residual { .. } => "graph/op/residual",
            Op::Norm { .. } => "graph/op/norm",
            Op::ResidualNorm { .. } => "graph/op/residual_norm",
            Op::Gelu { .. } => "graph/op/gelu",
            Op::GatherCls => "graph/op/gather_cls",
        }
    }

    /// Every virtual buffer the op touches (reads or writes), for
    /// liveness analysis. The hidden-state buffer is external and
    /// always live, so it is not tracked.
    pub(crate) fn bufs(&self) -> Vec<VBuf> {
        match *self {
            Op::Linear { src, dst, .. } => match src {
                Src::Hidden => vec![dst],
                Src::Buf(s) => vec![s, dst],
            },
            Op::SplitHeads { src, q, kt, v } => vec![src, q, kt, v],
            Op::AttnScores { q, kt, dst } => vec![q, kt, dst],
            Op::Scale { dst }
            | Op::AddRel { dst }
            | Op::AddMask { dst }
            | Op::Softmax { dst }
            | Op::FusedSoftmax { dst }
            | Op::Gelu { dst } => vec![dst],
            Op::AttnContext {
                scores,
                v,
                tmp,
                dst,
            } => vec![scores, v, tmp, dst],
            Op::Residual { src } | Op::ResidualNorm { src, .. } => vec![src],
            Op::Norm { .. } | Op::GatherCls => vec![],
        }
    }

    /// Rewrite every buffer reference through `f` (used by dedupe's
    /// canonical renumbering).
    pub(crate) fn map_bufs(&self, f: &mut impl FnMut(VBuf) -> VBuf) -> Op {
        let mut op = *self;
        match &mut op {
            Op::Linear { src, dst, .. } => {
                if let Src::Buf(s) = src {
                    *s = f(*s);
                }
                *dst = f(*dst);
            }
            Op::SplitHeads { src, q, kt, v } => {
                *src = f(*src);
                *q = f(*q);
                *kt = f(*kt);
                *v = f(*v);
            }
            Op::AttnScores { q, kt, dst } => {
                *q = f(*q);
                *kt = f(*kt);
                *dst = f(*dst);
            }
            Op::Scale { dst }
            | Op::AddRel { dst }
            | Op::AddMask { dst }
            | Op::Softmax { dst }
            | Op::FusedSoftmax { dst }
            | Op::Gelu { dst } => *dst = f(*dst),
            Op::AttnContext {
                scores,
                v,
                tmp,
                dst,
            } => {
                *scores = f(*scores);
                *v = f(*v);
                *tmp = f(*tmp);
                *dst = f(*dst);
            }
            Op::Residual { src } | Op::ResidualNorm { src, .. } => *src = f(*src),
            Op::Norm { .. } | Op::GatherCls => {}
        }
        op
    }
}
