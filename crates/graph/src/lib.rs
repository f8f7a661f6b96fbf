//! em-graph: the frozen inference forward, as a traced, planned and
//! replayed op graph.
//!
//! Deciding what to fuse and where every intermediate lives is work that
//! depends only on a batch's geometry, so this crate does it once per
//! geometry (the cold half) and keeps the per-batch path (the hot half)
//! to replaying a fixed schedule:
//!
//! 1. **Trace** — symbolically unroll the encoder forward once per
//!    (architecture, batch-geometry bucket) into a small op graph over
//!    virtual buffers (the private `trace` module).
//! 2. **Plan** — peephole-fuse elementwise chains into single-pass
//!    kernels (GEMM+bias+GELU epilogue, scale+bias+mask+softmax,
//!    residual+layer-norm), dedupe the structurally identical per-layer
//!    subgraphs into one *body* schedule replayed for layers
//!    `0..L − 1`, derive the last layer's *score-only tail* from it
//!    (the same ops, narrowed to each example's CLS row once the keys
//!    and values of every token exist — the matcher reads no other
//!    final state), and run liveness analysis so every intermediate is
//!    an interval of one shared arena ([`Plan::build`]).
//! 3. **Replay** — execute body × `(L − 1)` then the tail against
//!    weights bound through [`GraphModel`], binding f32 or int8
//!    kernels per slot, and leave the `[batch, hidden]` CLS states
//!    ([`GraphExecutor::run`]).
//!
//! Plans are pure geometry: no weights, no activations — the padding
//! mask, the relative bias and each example's CLS position are replay
//! inputs. A serving
//! worker holds a [`GraphExecutor`] whose plan cache is keyed by length
//! bucket and whose arena is reused across batches, so steady-state
//! serving does zero planning and zero allocation. Every fused kernel
//! preserves the per-element arithmetic and order of the ops it
//! replaces, so a fused plan replays bitwise-equal to the unfused one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod cache;
mod exec;
mod ir;
mod plan;
mod trace;

pub use cache::{GraphExecutor, PlanCache};
pub use exec::GraphModel;
pub use ir::{LinSlot, NormSlot, PlanKey};
pub use plan::Plan;

// Re-exported so GraphModel implementations name the epilogue type
// without depending on em-kernels directly.
pub use em_kernels::Act;
