//! Tracing: unroll the frozen encoder forward into per-layer op lists.
//!
//! The tracer defines the frozen encoder layer — the eval-mode mirror of
//! autograd's `EncoderLayer::forward`: it records the op order (QKV
//! projection, head split, scores, scale/bias/mask/softmax, context,
//! output projection, residual + norm, feed-forward, residual + norm)
//! against
//! virtual buffers sized for the plan's batch envelope. Each layer gets
//! fresh virtual buffers and slot-relative weight references, so layers
//! trace structurally identical and the planner can dedupe them.

use em_kernels::Act;

use crate::ir::{LinSlot, NormSlot, Op, PlanKey, Src, VBuf};

/// The raw traced program: one op list per layer plus the size (in
/// f32 elements) of every virtual buffer.
pub(crate) struct Trace {
    pub(crate) layer_ops: Vec<Vec<Op>>,
    pub(crate) sizes: Vec<usize>,
}

struct Tracer {
    sizes: Vec<usize>,
}

impl Tracer {
    fn buf(&mut self, len: usize) -> VBuf {
        let id = VBuf(self.sizes.len());
        self.sizes.push(len);
        id
    }
}

/// Trace the encoder forward for `key`'s geometry. The mask op is
/// always emitted — whether it runs is decided per batch at replay —
/// while the relative-bias op is structural (XLNet vs the rest).
pub(crate) fn trace(key: &PlanKey) -> Trace {
    let (b, t, d) = (key.batch_cap, key.seq, key.hidden);
    let (h, inner) = (key.heads, key.inner);
    let dh = key.head_dim();
    assert!(h > 0 && d % h == 0, "heads must divide hidden");
    let rows = b * t;

    let mut tr = Tracer { sizes: Vec::new() };
    let mut layer_ops = Vec::with_capacity(key.layers);
    for _ in 0..key.layers {
        let mut ops = Vec::with_capacity(18);
        let qkv = tr.buf(rows * 3 * d);
        ops.push(Op::Linear {
            slot: LinSlot::Qkv,
            src: Src::Hidden,
            dst: qkv,
            act: Act::None,
        });
        let q = tr.buf(rows * d);
        let kt = tr.buf(rows * d);
        let v = tr.buf(rows * d);
        ops.push(Op::SplitHeads { src: qkv, q, kt, v });
        let scores = tr.buf(b * h * t * t);
        ops.push(Op::AttnScores { q, kt, dst: scores });
        ops.push(Op::Scale { dst: scores });
        if key.has_rel {
            ops.push(Op::AddRel { dst: scores });
        }
        ops.push(Op::AddMask { dst: scores });
        ops.push(Op::Softmax { dst: scores });
        let tmp = tr.buf(t * dh);
        let merged = tr.buf(rows * d);
        ops.push(Op::AttnContext {
            scores,
            v,
            tmp,
            dst: merged,
        });
        let attn = tr.buf(rows * d);
        ops.push(Op::Linear {
            slot: LinSlot::O,
            src: Src::Buf(merged),
            dst: attn,
            act: Act::None,
        });
        ops.push(Op::Residual { src: attn });
        ops.push(Op::Norm {
            slot: NormSlot::Attn,
        });
        let ffn1 = tr.buf(rows * inner);
        ops.push(Op::Linear {
            slot: LinSlot::Fc1,
            src: Src::Hidden,
            dst: ffn1,
            act: Act::None,
        });
        ops.push(Op::Gelu { dst: ffn1 });
        let ffn2 = tr.buf(rows * d);
        ops.push(Op::Linear {
            slot: LinSlot::Fc2,
            src: Src::Buf(ffn1),
            dst: ffn2,
            act: Act::None,
        });
        ops.push(Op::Residual { src: ffn2 });
        ops.push(Op::Norm {
            slot: NormSlot::Ffn,
        });
        layer_ops.push(ops);
    }
    Trace {
        layer_ops,
        sizes: tr.sizes,
    }
}
