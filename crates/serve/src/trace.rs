//! Request-lifecycle tracing for the micro-batching matcher.
//!
//! Every queued [`Job`](crate::matcher::Job) carries a [`RequestTrace`]
//! with timestamps at the stage boundaries of its life: **enqueued**
//! (entered the bounded queue), **picked** (a worker pulled it into a
//! forming batch), and implicitly **forward start** / **reply** (the
//! worker passes those per batch). At reply time the trace is folded
//! into per-stage em-obs histograms:
//!
//! | histogram          | stage                                           |
//! |--------------------|-------------------------------------------------|
//! | `serve/queue_wait` | enqueued → picked into a batch                  |
//! | `serve/batch_wait` | picked → forward pass starts (≈ 0: no waiting)  |
//! | `serve/forward`    | the batch's forward pass (recorded per batch)   |
//! | `serve/e2e`        | enqueued → score handed to the reply channel    |
//!
//! Requests slower end-to-end than
//! [`ServeConfig::slow_request_threshold`](crate::ServeConfig::slow_request_threshold)
//! additionally dump their full stage breakdown to the em-obs event ring
//! (`serve/slow_request` events), so the outliers behind a bad p99 can
//! be read back individually from `obs_events.jsonl` or
//! [`em_obs::drain_events`].
//!
//! All capture is gated on [`em_obs::enabled`]: with `EM_OBS=0` the
//! trace never reads the clock beyond the `enqueued` stamp the worker's
//! oldest-first pick already needs.

use std::time::{Duration, Instant};

/// Stage timestamps carried by one request through the matcher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestTrace {
    /// When the request entered the queue. Always stamped — the
    /// worker's oldest-first pick among its stashed buckets needs it
    /// regardless of observability.
    pub(crate) enqueued: Instant,
    /// When a worker pulled the request into a forming batch. Only
    /// stamped while observability is enabled.
    pub(crate) picked: Option<Instant>,
}

impl RequestTrace {
    /// Stamp a request entering the queue.
    pub(crate) fn start() -> Self {
        Self {
            enqueued: Instant::now(),
            picked: None,
        }
    }

    /// Stamp the request joining a forming batch (first pick wins; a
    /// requeued job keeps its original pick so its queue wait stays
    /// honest). No-op when observability is off.
    pub(crate) fn mark_picked(&mut self) {
        if self.picked.is_none() && em_obs::enabled() {
            self.picked = Some(Instant::now());
        }
    }
}

/// Per-batch context for folding traces into histograms at reply time.
pub(crate) struct BatchTiming {
    /// When the worker started the batch's forward pass.
    pub(crate) forward_start: Instant,
    /// When the forward pass finished (replies start right after).
    pub(crate) forward_end: Instant,
    /// The worker's id, pre-rendered for the `worker` label.
    pub(crate) worker: String,
    /// The batch's length bucket (tokens).
    pub(crate) bucket: usize,
    /// Examples in the batch.
    pub(crate) batch_size: usize,
}

impl BatchTiming {
    /// Record the batch-level series: the `serve/forward` histogram,
    /// `serve/batch_size`, and the per-worker labeled counters.
    pub(crate) fn record_batch(&self) {
        em_obs::histogram_record(
            "serve/forward",
            (self.forward_end - self.forward_start).as_secs_f64(),
        );
        em_obs::histogram_record("serve/batch_size", self.batch_size as f64);
        let labels = [("worker", self.worker.as_str())];
        em_obs::counter_add_labeled("serve/worker_batches", &labels, 1);
        em_obs::counter_add_labeled("serve/worker_examples", &labels, self.batch_size as u64);
    }

    /// Fold one request's trace into the per-stage histograms, and emit
    /// a `serve/slow_request` event when its end-to-end latency crosses
    /// `threshold`.
    pub(crate) fn record_request(&self, trace: &RequestTrace, threshold: Option<Duration>) {
        let reply = Instant::now();
        // `picked` can be unset if observability flipped on mid-flight;
        // fall back to the forward start so the stages still telescope.
        let picked = trace.picked.unwrap_or(self.forward_start);
        let queue_wait = picked.saturating_duration_since(trace.enqueued);
        let batch_wait = self.forward_start.saturating_duration_since(picked);
        let e2e = reply.saturating_duration_since(trace.enqueued);
        em_obs::histogram_record("serve/queue_wait", queue_wait.as_secs_f64());
        em_obs::histogram_record("serve/batch_wait", batch_wait.as_secs_f64());
        em_obs::histogram_record("serve/e2e", e2e.as_secs_f64());
        if let Some(t) = threshold {
            if e2e >= t {
                em_obs::counter_inc("serve/slow_requests");
                em_obs::event!(
                    "serve/slow_request",
                    e2e_ms = e2e.as_secs_f64() * 1e3,
                    queue_wait_ms = queue_wait.as_secs_f64() * 1e3,
                    batch_wait_ms = batch_wait.as_secs_f64() * 1e3,
                    forward_ms = (self.forward_end - self.forward_start).as_secs_f64() * 1e3,
                    worker = self.worker.as_str(),
                    bucket = self.bucket,
                    batch_size = self.batch_size,
                );
            }
        }
    }
}
