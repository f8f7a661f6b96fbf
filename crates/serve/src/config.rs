//! Serving configuration, retry/backoff policy and typed serving errors.

use crate::fault::FaultPlan;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Tuning knobs for the concurrent micro-batching matcher.
///
/// `Default` gives a sensible local setup (2 workers, batches of up to
/// 32 formed from whatever is already queued); use
/// [`ServeConfig::builder`] for a validated custom configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of scoring worker threads.
    pub workers: usize,
    /// Maximum number of requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Bounded request-queue capacity; enqueueing blocks (backpressure)
    /// once this many requests are waiting.
    pub queue_depth: usize,
    /// Capacity of the repeated-encoding score cache; `0` disables it.
    pub cache_capacity: usize,
    /// Number of hash shards the score cache is split into, so
    /// concurrent connections contend on `1/shards` of a lock instead of
    /// one global mutex. `0` means auto: `4 × workers`, rounded up to a
    /// power of two, capped at 64.
    pub cache_shards: usize,
    /// How long a client waits for its score before giving up with
    /// [`ServeError::Timeout`].
    pub request_timeout: Duration,
    /// Hard ceiling on examples per coalesced batch for short-sequence
    /// length buckets. Dynamic padding lets a bucket of short requests
    /// hold more than `max_batch` examples under the same token budget
    /// (`max_batch × max_len` tokens); this caps that growth. `0` means
    /// auto (4 × `max_batch`).
    pub bucket_capacity_cap: usize,
    /// Admission control: when `true`, a full request queue rejects new
    /// work immediately with [`ServeError::Overloaded`] (load shedding)
    /// instead of blocking the submitter (backpressure, the default).
    /// Shedding keeps queue wait — and therefore tail latency — bounded
    /// by `queue_depth × service time` under overload.
    pub shed: bool,
    /// Client-side retry schedule applied by the resilient scoring paths
    /// ([`ServeMatcher::score_with_retry`](crate::ServeMatcher::score_with_retry)
    /// and [`ServeMatcher::try_predict_scores`](crate::ServeMatcher::try_predict_scores))
    /// to transient errors. The plain `score` call never retries.
    pub retry: RetryPolicy,
    /// How many times a request may be requeued after the worker scoring
    /// it panicked before it fails with [`ServeError::Transient`]. Bounds
    /// the damage of an input that deterministically crashes the model.
    pub max_requeues: u32,
    /// How many worker respawns the supervisor performs before giving up
    /// and failing the dead worker's requests — a backstop against a
    /// restart storm when every batch panics.
    pub max_worker_restarts: usize,
    /// Deterministic fault injection for chaos testing; `None` (the
    /// default) disables injection entirely — the per-batch check is a
    /// single branch on this `Option`.
    pub fault: Option<FaultPlan>,
    /// End-to-end latency above which a request's full stage breakdown
    /// (queue wait, batch wait, forward, worker, bucket, batch size) is
    /// captured as a `serve/slow_request` event in the em-obs event ring
    /// — the individual outliers behind a bad p99. `None` (the default)
    /// disables capture; capture is also inert unless `EM_OBS` enables
    /// observability.
    pub slow_request_threshold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 32,
            queue_depth: 256,
            cache_capacity: 1024,
            cache_shards: 0,
            request_timeout: Duration::from_secs(30),
            bucket_capacity_cap: 0,
            shed: false,
            retry: RetryPolicy::default(),
            max_requeues: 2,
            max_worker_restarts: 1024,
            fault: None,
            slow_request_threshold: None,
        }
    }
}

impl ServeConfig {
    /// Start a validated builder from the defaults.
    ///
    /// ```
    /// use em_serve::ServeConfig;
    /// let cfg = ServeConfig::builder()
    ///     .workers(4)
    ///     .max_batch(16)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.workers, 4);
    /// assert!(ServeConfig::builder().workers(0).build().is_err());
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// The resolved per-bucket example ceiling (`bucket_capacity_cap`,
    /// with `0` meaning 4 × `max_batch`).
    pub fn bucket_cap(&self) -> usize {
        if self.bucket_capacity_cap == 0 {
            self.max_batch * 4
        } else {
            self.bucket_capacity_cap
        }
    }

    /// How many examples of a `bucket_len`-token bucket one coalesced
    /// batch may hold: the `max_batch × max_len` token budget divided by
    /// the bucket length, clamped to `[max_batch, bucket_cap()]`. Full
    /// `max_len` requests get exactly `max_batch`; shorter buckets grow
    /// proportionally up to the cap.
    pub fn bucket_capacity(&self, max_len: usize, bucket_len: usize) -> usize {
        let budget = self.max_batch * max_len.max(1);
        (budget / bucket_len.max(1)).clamp(self.max_batch, self.bucket_cap())
    }

    /// The resolved score-cache shard count (`cache_shards`, with `0`
    /// meaning `4 × workers` rounded up to a power of two, capped at 64).
    pub fn cache_shard_count(&self) -> usize {
        if self.cache_shards == 0 {
            (self.workers * 4).next_power_of_two().min(64)
        } else {
            self.cache_shards
        }
    }

    /// Length-bucket granularity for a model accepting `max_len` tokens:
    /// `max_len / 8`, rounded up to the kernel padding multiple (and never
    /// below it). Jobs whose rounded spans fall in the same `width`-wide
    /// band batch together; the batch itself still pads only to its own
    /// longest row. Finer buckets would waste less padding per batch but
    /// fragment the queue into more, emptier batches — at 1/8 of the
    /// model length the padding overhead is bounded by ~12% while batches
    /// stay as full as the fixed-length path's.
    pub fn bucket_width(&self, max_len: usize) -> usize {
        let mult = em_transformers::Batch::PAD_MULTIPLE;
        (max_len / 8).next_multiple_of(mult).max(mult)
    }
}

/// Exponential backoff with deterministic jitter for retrying transient
/// serving failures.
///
/// Attempt `n` (0-based) sleeps `base × 2ⁿ`, capped at `cap`, then
/// shrunk by up to `jitter` of itself — the jitter fraction is drawn
/// deterministically from `(seed, attempt, nonce)`, so a retry schedule
/// is reproducible given its inputs while different requests (different
/// nonces) still decorrelate and avoid retrying in lockstep.
///
/// ```
/// use em_serve::RetryPolicy;
/// use std::time::Duration;
/// let p = RetryPolicy { max_retries: 4, jitter: 0.0, ..RetryPolicy::default() };
/// assert_eq!(p.backoff(0, 0), Duration::from_millis(1));
/// assert_eq!(p.backoff(3, 0), Duration::from_millis(8));
/// assert_eq!(p.backoff(30, 0), p.cap); // capped, no overflow
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt; `0` disables retrying.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: Duration,
    /// Fraction of each backoff randomized away (`0.0` = fixed schedule,
    /// `1.0` = anywhere down to zero). Jitter only ever *shortens* a
    /// sleep, so `cap` stays a hard bound.
    pub jitter: f64,
    /// Seed for the deterministic jitter draw.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 2 retries, 1 ms base doubling to a 100 ms cap, half-range jitter.
    fn default() -> Self {
        Self {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based). `nonce`
    /// decorrelates concurrent callers (pass anything request-unique — a
    /// request counter, an index); the same `(policy, attempt, nonce)`
    /// always yields the same duration.
    pub fn backoff(&self, attempt: u32, nonce: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        if self.jitter <= 0.0 {
            return exp;
        }
        // Deterministic uniform draw in [0, 1): same splitmix64 family as
        // the fault schedule, different mixing constant.
        let mut x = self
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(u64::from(attempt))
            .wrapping_add(nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(1.0 - self.jitter.min(1.0) * u)
    }
}

/// Builder for [`ServeConfig`]; `build` rejects configurations that
/// would deadlock or spin (zero workers, empty batches, zero queue).
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Number of scoring worker threads (must be ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Maximum requests per coalesced batch (must be ≥ 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Bounded queue capacity (must be ≥ 1).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.cfg.queue_depth = n;
        self
    }

    /// Score-cache capacity; `0` disables caching.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cfg.cache_capacity = n;
        self
    }

    /// Score-cache shard count; `0` means auto (`4 × workers`, next
    /// power of two, capped at 64).
    pub fn cache_shards(mut self, n: usize) -> Self {
        self.cfg.cache_shards = n;
        self
    }

    /// Per-request timeout in milliseconds (must be ≥ 1).
    pub fn request_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.request_timeout = Duration::from_millis(ms);
        self
    }

    /// Per-bucket example ceiling for short-sequence batches; `0` means
    /// auto (4 × `max_batch`), non-zero must be ≥ `max_batch`.
    pub fn bucket_capacity_cap(mut self, n: usize) -> Self {
        self.cfg.bucket_capacity_cap = n;
        self
    }

    /// Enable load shedding: a full queue rejects with
    /// [`ServeError::Overloaded`] instead of blocking the submitter.
    pub fn shed(mut self, on: bool) -> Self {
        self.cfg.shed = on;
        self
    }

    /// Client-side retry schedule for the resilient scoring paths
    /// (`jitter` must be within `[0, 1]`, `cap` must be ≥ `base`).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.retry = policy;
        self
    }

    /// Requeue budget for requests whose worker panicked mid-batch.
    pub fn max_requeues(mut self, n: u32) -> Self {
        self.cfg.max_requeues = n;
        self
    }

    /// Supervisor respawn budget (must be ≥ 1 when fault injection can
    /// panic, or the first injected panic permanently shrinks the pool).
    pub fn max_worker_restarts(mut self, n: usize) -> Self {
        self.cfg.max_worker_restarts = n;
        self
    }

    /// Deterministic fault injection plan (chaos testing only).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault = Some(plan);
        self
    }

    /// Capture a `serve/slow_request` event (full stage breakdown) for
    /// every request slower end-to-end than `ms` milliseconds. `0` means
    /// capture everything — handy for tests and short traces.
    pub fn slow_request_threshold_ms(mut self, ms: u64) -> Self {
        self.cfg.slow_request_threshold = Some(Duration::from_millis(ms));
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServeConfig, String> {
        let c = &self.cfg;
        if c.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        if c.max_batch == 0 {
            return Err("max_batch must be >= 1".into());
        }
        if c.queue_depth == 0 {
            return Err("queue_depth must be >= 1".into());
        }
        if c.request_timeout.is_zero() {
            return Err("request_timeout must be non-zero".into());
        }
        if c.bucket_capacity_cap != 0 && c.bucket_capacity_cap < c.max_batch {
            return Err(format!(
                "bucket_capacity_cap ({}) must be 0 (auto) or >= max_batch ({})",
                c.bucket_capacity_cap, c.max_batch
            ));
        }
        if !(0.0..=1.0).contains(&c.retry.jitter) {
            return Err(format!(
                "retry jitter ({}) must lie in [0, 1]",
                c.retry.jitter
            ));
        }
        if c.retry.cap < c.retry.base {
            return Err(format!(
                "retry cap ({:?}) must be >= retry base ({:?})",
                c.retry.cap, c.retry.base
            ));
        }
        if c.retry.max_retries > 0 && c.retry.base.is_zero() && c.retry.jitter == 0.0 {
            return Err("retrying with a zero base backoff and no jitter would spin".into());
        }
        if let Some(plan) = &c.fault {
            if plan.panic_every != 0 && c.max_worker_restarts == 0 {
                return Err(
                    "fault injection with panics needs max_worker_restarts >= 1 or the \
                     first injected panic permanently shrinks the pool"
                        .into(),
                );
            }
        }
        Ok(self.cfg)
    }
}

/// Typed serving failures surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The score did not arrive within the configured `request_timeout`.
    Timeout,
    /// The matcher has been shut down before the request could be served.
    ShutDown,
    /// The encoding is longer than the frozen model's input length
    /// (its position table), so it cannot be scored at all. Shorter
    /// encodings are fine — they join a matching length bucket.
    InvalidLength {
        /// Length of the offending encoding.
        got: usize,
        /// The frozen matcher's `max_len`.
        expected: usize,
    },
    /// Admission control rejected the request because the queue was full
    /// ([`ServeConfig::shed`]). Retry after backoff — the queue bound is
    /// exactly what keeps latency flat under overload.
    Overloaded,
    /// The request failed for a reason that retrying may fix: the batch
    /// hit a transient scoring error, or the worker scoring it panicked
    /// and the request exhausted its requeue budget
    /// ([`ServeConfig::max_requeues`]).
    Transient,
}

impl ServeError {
    /// The one place serving failures become HTTP: status code plus the
    /// stable wire-format [`ErrorBody`](em_core::api::ErrorBody) for
    /// every variant. The match is exhaustive on purpose — adding a
    /// `ServeError` variant fails compilation here instead of silently
    /// becoming a 500 somewhere in the gateway.
    ///
    /// | variant | status | code | retryable |
    /// |---|---|---|---|
    /// | `Timeout` | 504 | `timeout` | yes |
    /// | `Overloaded` | 429 | `overloaded` | yes |
    /// | `Transient` | 503 | `transient` | yes |
    /// | `ShutDown` | 503 | `unavailable` | yes (another replica may answer) |
    /// | `InvalidLength` | 400 | `invalid_length` | no |
    ///
    /// ```
    /// use em_serve::ServeError;
    /// let (status, body) = ServeError::Overloaded.to_http();
    /// assert_eq!((status, body.code.as_str()), (429, "overloaded"));
    /// assert!(body.retryable);
    /// ```
    pub fn to_http(&self) -> (u16, em_core::api::ErrorBody) {
        use em_core::api::ErrorBody;
        match self {
            ServeError::Timeout => (504, ErrorBody::new("timeout", self.to_string(), true)),
            ServeError::ShutDown => {
                // In-process, ShutDown is permanent; over the wire the
                // same request retried against a healthy replica (or the
                // restarted process) can succeed, so it stays retryable.
                (503, ErrorBody::new("unavailable", self.to_string(), true))
            }
            ServeError::InvalidLength { .. } => (
                400,
                ErrorBody::new("invalid_length", self.to_string(), false),
            ),
            ServeError::Overloaded => (429, ErrorBody::new("overloaded", self.to_string(), true)),
            ServeError::Transient => (503, ErrorBody::new("transient", self.to_string(), true)),
        }
    }

    /// True for failures a retry (with backoff) can plausibly fix:
    /// [`Timeout`](Self::Timeout), [`Overloaded`](Self::Overloaded) and
    /// [`Transient`](Self::Transient). `InvalidLength` and `ShutDown`
    /// are permanent — retrying cannot help.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServeError::Timeout | ServeError::Overloaded | ServeError::Transient
        )
    }

    /// True for failures the degraded-mode fallback predictor should
    /// absorb: every transient error, plus [`ShutDown`](Self::ShutDown)
    /// — a shut-down transformer path is exactly the "primary is down"
    /// scenario a fallback exists for.
    pub fn is_degradable(&self) -> bool {
        self.is_transient() || matches!(self, ServeError::ShutDown)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Timeout => write!(f, "request timed out waiting for a score"),
            ServeError::ShutDown => write!(f, "matcher is shut down"),
            ServeError::InvalidLength { got, expected } => write!(
                f,
                "encoding length {got} exceeds the model input length {expected}"
            ),
            ServeError::Overloaded => {
                write!(f, "request shed: the serving queue is at capacity")
            }
            ServeError::Transient => {
                write!(f, "request failed transiently; retry with backoff")
            }
        }
    }
}

impl Error for ServeError {}

/// Why a live model hot-swap was refused. Swaps are rejected *before*
/// any worker sees the incoming model, so a failed swap leaves serving
/// exactly as it was.
#[derive(Debug)]
pub enum SwapError {
    /// The incoming model differs from the serving one in a dimension
    /// the running pipeline depends on (bucketing, cached encodings,
    /// tokenizer ids), so it cannot replace it under live traffic.
    Incompatible {
        /// Which property differs.
        field: &'static str,
        /// Value on the currently serving model.
        current: String,
        /// Value on the rejected incoming model.
        incoming: String,
    },
    /// The checkpoint could not be loaded at all.
    Checkpoint(em_checkpoint::CheckpointError),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Incompatible {
                field,
                current,
                incoming,
            } => write!(
                f,
                "incoming model is incompatible with live traffic: {field} is {incoming} \
                 but the serving model has {current}"
            ),
            SwapError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl Error for SwapError {}

impl From<em_checkpoint::CheckpointError> for SwapError {
    fn from(e: em_checkpoint::CheckpointError) -> Self {
        SwapError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let d = ServeConfig::default();
        let built = ServeConfig::builder().build().unwrap();
        assert_eq!(d, built);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(ServeConfig::builder().workers(0).build().is_err());
        assert!(ServeConfig::builder().max_batch(0).build().is_err());
        assert!(ServeConfig::builder().queue_depth(0).build().is_err());
        assert!(ServeConfig::builder()
            .request_timeout_ms(0)
            .build()
            .is_err());
        // A bucket cap below max_batch would shrink even full-length batches.
        assert!(ServeConfig::builder()
            .max_batch(32)
            .bucket_capacity_cap(8)
            .build()
            .is_err());
    }

    #[test]
    fn bucket_capacity_scales_with_token_budget() {
        let cfg = ServeConfig::builder().max_batch(8).build().unwrap();
        // Full-length requests: exactly max_batch.
        assert_eq!(cfg.bucket_capacity(64, 64), 8);
        // Half-length requests: twice the examples under the same budget.
        assert_eq!(cfg.bucket_capacity(64, 32), 16);
        // Tiny requests: clamped to the (auto) cap of 4 × max_batch.
        assert_eq!(cfg.bucket_capacity(64, 8), 32);
        // An explicit cap wins over the auto one.
        let capped = ServeConfig::builder()
            .max_batch(8)
            .bucket_capacity_cap(12)
            .build()
            .unwrap();
        assert_eq!(capped.bucket_capacity(64, 8), 12);
    }

    #[test]
    fn bucket_width_scales_with_model_length() {
        let cfg = ServeConfig::builder().build().unwrap();
        // Short models keep the kernel padding multiple.
        assert_eq!(cfg.bucket_width(24), 8);
        assert_eq!(cfg.bucket_width(64), 8);
        // Longer models widen the bands (max_len / 8, rounded up to 8).
        assert_eq!(cfg.bucket_width(128), 16);
        assert_eq!(cfg.bucket_width(192), 24);
    }

    #[test]
    fn cache_shards_auto_scales_with_workers() {
        let auto = |w| {
            ServeConfig::builder()
                .workers(w)
                .build()
                .unwrap()
                .cache_shard_count()
        };
        assert_eq!(auto(1), 4);
        assert_eq!(auto(2), 8);
        assert_eq!(auto(3), 16, "rounded up to a power of two");
        assert_eq!(auto(64), 64, "capped at 64");
        let explicit = ServeConfig::builder().cache_shards(5).build().unwrap();
        assert_eq!(explicit.cache_shard_count(), 5);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = ServeError::InvalidLength {
            got: 40,
            expected: 64,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn http_mapping_covers_every_variant_once() {
        let cases = [
            (ServeError::Timeout, 504, "timeout", true),
            (ServeError::ShutDown, 503, "unavailable", true),
            (
                ServeError::InvalidLength {
                    got: 99,
                    expected: 64,
                },
                400,
                "invalid_length",
                false,
            ),
            (ServeError::Overloaded, 429, "overloaded", true),
            (ServeError::Transient, 503, "transient", true),
        ];
        for (err, status, code, retryable) in cases {
            let (got_status, body) = err.to_http();
            assert_eq!(got_status, status, "{err:?}");
            assert_eq!(body.code, code, "{err:?}");
            assert_eq!(body.retryable, retryable, "{err:?}");
            assert_eq!(body.error, err.to_string(), "{err:?}");
        }
    }

    #[test]
    fn transient_classification_drives_retry_and_degrade() {
        assert!(ServeError::Timeout.is_transient());
        assert!(ServeError::Overloaded.is_transient());
        assert!(ServeError::Transient.is_transient());
        assert!(!ServeError::ShutDown.is_transient());
        assert!(!ServeError::InvalidLength {
            got: 9,
            expected: 8
        }
        .is_transient());
        // Degradable = transient + ShutDown ("primary is down").
        assert!(ServeError::ShutDown.is_degradable());
        assert!(!ServeError::InvalidLength {
            got: 9,
            expected: 8
        }
        .is_degradable());
    }

    #[test]
    fn backoff_doubles_from_base_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(p.backoff(0, 0), Duration::from_millis(10));
        assert_eq!(p.backoff(1, 0), Duration::from_millis(20));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(40));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(80));
        assert_eq!(p.backoff(4, 0), Duration::from_millis(80), "capped");
        assert_eq!(p.backoff(63, 0), Duration::from_millis(80), "no overflow");
    }

    #[test]
    fn jitter_only_shortens_and_is_deterministic() {
        let p = RetryPolicy {
            jitter: 0.5,
            seed: 42,
            ..RetryPolicy::default()
        };
        for attempt in 0..6 {
            for nonce in 0..32 {
                let exact = RetryPolicy {
                    jitter: 0.0,
                    ..p.clone()
                }
                .backoff(attempt, nonce);
                let jittered = p.backoff(attempt, nonce);
                assert!(jittered <= exact, "jitter never exceeds the schedule");
                assert!(
                    jittered >= exact.mul_f64(0.5),
                    "jitter 0.5 removes at most half"
                );
                assert_eq!(jittered, p.backoff(attempt, nonce), "deterministic");
            }
        }
        // Different nonces decorrelate concurrent retriers.
        let spread: std::collections::HashSet<Duration> =
            (0..16).map(|n| p.backoff(2, n)).collect();
        assert!(spread.len() > 1, "nonces must vary the jitter draw");
    }

    #[test]
    fn builder_rejects_degenerate_robustness_configs() {
        assert!(ServeConfig::builder()
            .retry(RetryPolicy {
                jitter: 1.5,
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        assert!(ServeConfig::builder()
            .retry(RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(1),
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        // Zero backoff + zero jitter + retries would busy-spin.
        assert!(ServeConfig::builder()
            .retry(RetryPolicy {
                max_retries: 3,
                base: Duration::ZERO,
                jitter: 0.0,
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        // Injected panics with no respawn budget shrink the pool forever.
        assert!(ServeConfig::builder()
            .fault(crate::FaultPlan {
                panic_every: 2,
                ..crate::FaultPlan::default()
            })
            .max_worker_restarts(0)
            .build()
            .is_err());
    }
}
