//! # em-serve
//!
//! Inference serving for fine-tuned entity matchers.
//!
//! The training stack is built on a single-threaded, `Rc`-based autograd
//! tape — great for reproducing the paper's fine-tuning runs, unusable
//! for concurrent inference. This crate adds the serving half:
//!
//! 1. **Frozen export** ([`FrozenModel`] / [`FrozenMatcher`]): copy the
//!    weights of a trained model into plain `Send + Sync` buffers, in
//!    f32 (the trainer's weights and the accuracy oracle) or int8 (the
//!    serving arithmetic).
//! 2. **Micro-batching matcher** ([`ServeMatcher`]): a supervised worker
//!    pool over one `Arc`-shared frozen matcher that coalesces concurrent
//!    requests into length-bucketed batches, with a bounded queue for
//!    backpressure, an LRU score cache for repeated pairs, per-request
//!    timeouts, and a graceful queue-draining shutdown.
//! 3. **A tested failure path**: deterministic fault injection
//!    ([`FaultPlan`]), worker supervision with panic recovery and request
//!    requeue ([`supervisor`]), retry with exponential backoff + jitter
//!    ([`RetryPolicy`]), admission-control load shedding
//!    ([`ServeError::Overloaded`]), and a degraded mode that answers with
//!    a fallback `Predictor` when the transformer path is down
//!    ([`ServeMatcher::with_fallback`]).
//! 4. **The forward** ([`Executor`], backed by `em-graph`): the frozen
//!    forward is traced + planned once per length-bucket geometry (fused
//!    kernels, one arena allocation, per-thread plan cache, a last
//!    layer that computes only the CLS row the matcher reads) and the
//!    plan replayed for every later batch. It reproduces the
//!    autograd logits to within 1e-5 on all four architectures (BERT,
//!    XLNet, RoBERTa, DistilBERT) and is the only way this crate scores.
//!
//! Both layers speak the unified `em_core::Predictor` surface, so a
//! frozen or served matcher drops in anywhere an `EmMatcher` scores
//! pairs today:
//!
//! ```no_run
//! use em_core::prelude::*;
//! use em_serve::{FrozenMatcher, ServeConfig, ServeMatcher};
//!
//! # fn demo(matcher: EmMatcher, ds: Dataset, pairs: Vec<EntityPair>) {
//! let frozen = FrozenMatcher::from(&matcher);
//! let serve = ServeMatcher::start(frozen, ServeConfig::default());
//! let decisions = serve.predict_pairs(&ds, &pairs);
//! # let _ = decisions;
//! # }
//! ```

#![deny(missing_docs)]

pub mod block;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod executor;
pub mod fault;
pub mod frozen;
pub mod matcher;
pub mod supervisor;
mod trace;

pub use config::{RetryPolicy, ServeConfig, ServeConfigBuilder, ServeError, SwapError};
pub use em_checkpoint::CheckpointError;
pub use executor::{plan_key, ExecBackend, Executor};
pub use fault::{Fault, FaultPlan};
pub use frozen::{freeze_parts, FrozenLinear, FrozenMatcher, FrozenModel, QuantMode};
pub use matcher::{ScoreTicket, ServeMatcher, ServeStats};
