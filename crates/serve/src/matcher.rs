//! The concurrent micro-batching matcher.
//!
//! Clients submit single encodings; worker threads coalesce the ones
//! already waiting into batches — never idling to wait for more, so a
//! lone request runs at once and whatever arrives during a forward pass
//! forms the next batch. Batches are **length-bucketed**: a request
//! only shares a batch with requests of the same rounded length, so
//! dynamic padding never inflates a short request to a long neighbor's
//! length, and short buckets may hold more than `max_batch` examples under
//! the same `max_batch × max_len` token budget (see
//! [`ServeConfig::bucket_capacity`]). The request queue is bounded — a
//! full queue blocks producers (or, with [`ServeConfig::shed`], rejects
//! them with [`ServeError::Overloaded`]) instead of growing without
//! limit — and every request carries its own response channel with a
//! client-side timeout.
//!
//! The failure path is first-class (see the [`supervisor`](crate::supervisor)
//! module): workers run supervised, so a panic respawns the worker and
//! requeues the jobs it held; transient errors are retried with
//! exponential backoff + jitter ([`RetryPolicy`](crate::RetryPolicy));
//! and a configured fallback [`Predictor`] answers requests the
//! transformer path could not ([`ServeMatcher::with_fallback`]).
//!
//! Shutdown is graceful by construction: dropping the submit side of the
//! queue lets workers drain everything already enqueued before the
//! channel reports disconnect, so no accepted request is ever dropped.

use crate::cache::{CacheKey, ShardedLru};
use crate::config::{ServeConfig, ServeError, SwapError};
use crate::frozen::{FrozenMatcher, QuantMode};
use crate::supervisor::{PoolCtx, Supervisor};
use crate::trace::RequestTrace;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use em_core::api::TextPair;
use em_core::Predictor;
use em_data::{Dataset, EntityPair};
use em_tokenizers::{encode_pair, Encoding, Tokenizer};
use em_transformers::Batch;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

/// One queued scoring request: the encoding plus the channel its result
/// travels back on.
pub(crate) struct Job {
    /// The encoding to score.
    pub(crate) encoding: Encoding,
    /// Where the score (or typed failure) is delivered. A success carries
    /// the version of the model that actually scored it — the client side
    /// caches under *that* version, not whatever was current at submit
    /// time, so a hot-swap racing a request can never poison the cache.
    pub(crate) resp: mpsc::Sender<Result<(f32, u64), ServeError>>,
    /// Lifecycle timestamps: `trace.enqueued` orders a worker's stashed
    /// buckets oldest first, and the rest feed the per-stage latency
    /// histograms.
    pub(crate) trace: RequestTrace,
    /// How many times this job has been recovered from a dead worker;
    /// past [`ServeConfig::max_requeues`] the supervisor fails it instead
    /// of requeueing, so a poison request cannot kill the pool forever.
    pub(crate) attempts: u32,
}

/// Receiver for an in-flight request's typed result (score + the version
/// of the model that produced it).
type Pending = mpsc::Receiver<Result<(f32, u64), ServeError>>;

/// A claim on one in-flight score: returned by
/// [`ServeMatcher::submit_encoding`], redeemed (blocking) by
/// [`ServeMatcher::redeem`].
///
/// The split lets a single caller keep many requests in flight — enough
/// to fill worker micro-batches — while redeeming results in whatever
/// order it needs them. The ticket owns its encoding so a transient
/// failure can be retried at redeem time without the caller re-encoding.
pub struct ScoreTicket {
    encoding: Encoding,
    state: TicketState,
}

enum TicketState {
    /// The score was already in the version-keyed cache at submit time.
    Cached(f32),
    /// In flight through the worker pool.
    Pending(Pending),
}

impl ScoreTicket {
    /// The encoding this ticket is scoring.
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }
}

/// One immutable generation of the serving model: the frozen matcher plus
/// the monotone version it was installed as. Workers pin one of these
/// (via `Arc`) for the whole lifetime of a batch — load the `Arc`, score,
/// reply — so a hot-swap can never tear a batch across two models: every
/// in-flight batch drains on the model it started with, and the reply
/// carries the version that actually scored it.
pub(crate) struct VersionedMatcher {
    /// Monotone install counter; the initial model is version 1.
    pub(crate) version: u64,
    /// The frozen weights of this generation.
    pub(crate) matcher: Arc<FrozenMatcher>,
}

/// The swap point: one `RwLock<Arc<…>>` every worker loads (read lock,
/// nanoseconds) once per batch and [`ServeMatcher::swap_model`] replaces
/// (write lock) atomically. Old generations die when the last in-flight
/// batch holding their `Arc` finishes — no epoch tracking needed.
pub(crate) struct ModelCell {
    current: RwLock<Arc<VersionedMatcher>>,
}

impl ModelCell {
    fn new(matcher: FrozenMatcher) -> Self {
        Self {
            current: RwLock::new(Arc::new(VersionedMatcher {
                version: 1,
                matcher: Arc::new(matcher),
            })),
        }
    }

    /// Snapshot the current generation. Callers hold the returned `Arc`
    /// for as long as they need a *consistent* model (a worker: one
    /// batch; the submit path: one length check + cache probe).
    pub(crate) fn load(&self) -> Arc<VersionedMatcher> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Install `matcher` as the next generation and return its version.
    fn swap(&self, matcher: FrozenMatcher) -> u64 {
        let mut cur = self.current.write().unwrap_or_else(|p| p.into_inner());
        let version = cur.version + 1;
        *cur = Arc::new(VersionedMatcher {
            version,
            matcher: Arc::new(matcher),
        });
        version
    }
}

impl Job {
    /// The length bucket this job batches with: its real span rounded up
    /// to the kernel padding multiple, then to the serving bucket `width`
    /// (see [`ServeConfig::bucket_width`]), capped at the model length.
    /// The bucket is only a grouping key — each batch still pads to its
    /// own longest row.
    pub(crate) fn bucket(&self, width: usize, max_len: usize) -> usize {
        Batch::bucket_len(&self.encoding)
            .next_multiple_of(width.max(1))
            .min(max_len.next_multiple_of(Batch::PAD_MULTIPLE))
    }
}

/// Cumulative serving counters (atomics; cheap to read at any time).
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) requests: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) examples: AtomicU64,
    pub(crate) batch_capacity: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) swaps: AtomicU64,
    pub(crate) plan_cache_hits: AtomicU64,
    pub(crate) plan_cache_misses: AtomicU64,
    /// Monotone batch sequence; drives the deterministic fault schedule.
    pub(crate) batch_seq: AtomicU64,
}

/// A point-in-time snapshot of the matcher's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted (cache hits included).
    pub requests: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Examples scored by forward passes (excludes cache hits).
    pub examples: u64,
    /// Sum over forward passes of the capacity of each batch's length
    /// bucket (short buckets hold more examples under the same token
    /// budget, so this is not `batches × max_batch`).
    pub batch_capacity: u64,
    /// Requests answered from the score cache.
    pub cache_hits: u64,
    /// Requests that had to be queued for scoring.
    pub cache_misses: u64,
    /// Transient failures that were retried with backoff.
    pub retries: u64,
    /// Requests rejected with [`ServeError::Overloaded`] by admission
    /// control (only with [`ServeConfig::shed`] enabled).
    pub shed: u64,
    /// Requests answered by the degraded-mode fallback predictor.
    pub degraded: u64,
    /// Workers respawned by the supervisor after a panic.
    pub worker_restarts: u64,
    /// Successful hot-swaps ([`ServeMatcher::swap_model`]) since start.
    pub swaps: u64,
    /// Batches whose execution plan was already cached by their worker.
    pub plan_cache_hits: u64,
    /// Batches that had to trace + plan first: one per (worker, length
    /// bucket) geometry at steady state, plus cold respawned workers.
    pub plan_cache_misses: u64,
}

impl ServeStats {
    /// Mean examples per forward pass relative to each batch's own bucket
    /// capacity — 1.0 means every batch was full *for its length bucket*.
    /// Measuring against a flat `max_batch` would over-report fill for
    /// short-sequence buckets, whose capacity exceeds `max_batch`.
    pub fn batch_fill(&self) -> f64 {
        if self.batch_capacity == 0 {
            0.0
        } else {
            self.examples as f64 / self.batch_capacity as f64
        }
    }

    /// Fraction of requests answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of scored batches that replayed an already-planned
    /// schedule. Converges to 1.0 at steady state — each worker plans a
    /// length bucket once, then every later batch of that bucket hits.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

/// A thread-safe entity matcher serving scores through a supervised
/// worker pool.
///
/// ```no_run
/// use em_serve::{FrozenMatcher, ServeConfig, ServeMatcher};
/// # fn demo(frozen: FrozenMatcher) {
/// let cfg = ServeConfig::builder().workers(4).build().unwrap();
/// let matcher = ServeMatcher::start(frozen, cfg);
/// // any number of threads may call matcher.score(..) concurrently
/// # }
/// ```
///
/// Dropping the matcher (or calling [`ServeMatcher::shutdown`]) stops
/// accepting new work, lets workers drain the queue, and joins them.
pub struct ServeMatcher {
    model: Arc<ModelCell>,
    tx: Option<Sender<Job>>,
    // Keeps the queue alive independently of worker lifetimes, so a
    // wedged or dead pool surfaces as a client Timeout rather than a
    // spurious disconnect.
    _rx: Receiver<Job>,
    supervisor: Option<Supervisor>,
    cache: Option<ShardedLru>,
    config: ServeConfig,
    stats: Arc<StatsInner>,
    /// Degraded-mode fallback: answers pair-level requests the
    /// transformer path could not (saturated, down, or out of requeue
    /// budget). See [`ServeMatcher::with_fallback`].
    fallback: Option<Box<dyn Predictor + Send + Sync>>,
}

impl ServeMatcher {
    /// Freeze nothing, share everything: spin up `config.workers` scoring
    /// threads over one `Arc`-shared frozen matcher, supervised so worker
    /// panics respawn the worker and requeue the jobs it held.
    pub fn start(frozen: FrozenMatcher, config: ServeConfig) -> Self {
        let model = Arc::new(ModelCell::new(frozen));
        let stats = Arc::new(StatsInner::default());
        let (tx, rx) = bounded::<Job>(config.queue_depth);
        if let Some(plan) = &config.fault {
            // Injected panics are expected events handled by supervision;
            // keep them off stderr (real panics keep default reporting).
            if plan.is_active() && plan.panic_every != 0 {
                crate::fault::install_quiet_hook();
            }
        }
        // With several request workers, each already owns a core's worth of
        // work: mark them serial so the kernel pool does not fan each
        // worker's GEMMs out again (workers × pool threads oversubscription).
        // A single worker keeps intra-op pool parallelism.
        let serialize_kernels = config.workers > 1;
        em_obs::gauge_set(
            "serve/intra_op_threads",
            if serialize_kernels {
                1.0
            } else {
                em_kernels::pool::current_parallelism() as f64
            },
        );
        let supervisor = Supervisor::start(Arc::new(PoolCtx {
            rx: rx.clone(),
            model: Arc::clone(&model),
            stats: Arc::clone(&stats),
            cfg: config.clone(),
            serialize_kernels,
        }));
        // Sharded by key hash: concurrent connections probe different
        // shards instead of serializing on one global cache lock.
        let cache = (config.cache_capacity > 0)
            .then(|| ShardedLru::new(config.cache_capacity, config.cache_shard_count()));
        Self {
            model,
            tx: Some(tx),
            _rx: rx,
            supervisor: Some(supervisor),
            cache,
            config,
            stats,
            fallback: None,
        }
    }

    /// Attach a degraded-mode fallback predictor (typically the
    /// `em-baselines` Magellan matcher). When the transformer path fails a
    /// request with a degradable error — transient failure that survived
    /// every retry, overload, or a shut-down pool — the pair is answered
    /// by this predictor instead, trading accuracy for availability.
    /// Counted in [`ServeStats::degraded`] and the `serve/degraded`
    /// counter. Applies to the pair-level surface
    /// ([`ServeMatcher::try_predict_scores`] and the [`Predictor`] impl);
    /// encoding-level calls have no pair to fall back with.
    pub fn with_fallback(mut self, fallback: Box<dyn Predictor + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// The configuration this matcher runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A snapshot of the frozen matcher currently behind the workers.
    /// The snapshot stays valid (and immutable) even if a hot-swap
    /// replaces the serving model while you hold it.
    pub fn frozen(&self) -> Arc<FrozenMatcher> {
        Arc::clone(&self.model.load().matcher)
    }

    /// The version of the model currently serving (1 for the model
    /// [`ServeMatcher::start`] was given; +1 per successful swap).
    pub fn model_version(&self) -> u64 {
        self.model.load().version
    }

    /// The weight representation of the model currently serving.
    pub fn quant(&self) -> QuantMode {
        self.model.load().matcher.quant()
    }

    /// Hot-swap the serving model under live traffic.
    ///
    /// The incoming matcher must be *wire-compatible* with the one it
    /// replaces — same architecture, hidden width, input length, and
    /// tokenizer vocabulary — because in-flight and queued requests were
    /// encoded against the current model's contract. Anything else is
    /// refused with [`SwapError::Incompatible`] and the current model
    /// keeps serving. A different [`QuantMode`] is fine (that is the
    /// point: requantize offline, swap in place).
    ///
    /// The swap itself is one atomic pointer replacement. Workers pin the
    /// model `Arc` per batch, so every batch in flight at swap time
    /// drains on the old model and every batch picked up afterwards runs
    /// the new one — no batch ever mixes versions, and no request fails
    /// because of a swap. Cached scores are invalidated structurally:
    /// cache keys carry the model version, so post-swap probes miss.
    ///
    /// Returns the new model version.
    pub fn swap_model(&self, incoming: FrozenMatcher) -> Result<u64, SwapError> {
        let current = self.model.load();
        let cur = &current.matcher;
        let check = |field: &'static str, c: String, i: String| {
            if c == i {
                Ok(())
            } else {
                Err(SwapError::Incompatible {
                    field,
                    current: c,
                    incoming: i,
                })
            }
        };
        check(
            "arch",
            cur.model.config.arch.name().to_string(),
            incoming.model.config.arch.name().to_string(),
        )?;
        check(
            "hidden",
            cur.model.config.hidden.to_string(),
            incoming.model.config.hidden.to_string(),
        )?;
        check(
            "max_len",
            cur.max_len.to_string(),
            incoming.max_len.to_string(),
        )?;
        check(
            "vocab_size",
            cur.tokenizer.vocab_size().to_string(),
            incoming.tokenizer.vocab_size().to_string(),
        )?;
        drop(current);
        let version = self.model.swap(incoming);
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        em_obs::counter_inc("serve/swaps");
        Ok(version)
    }

    /// Hot-swap to the checkpoint at `path`, loaded (embedding tables
    /// as views into the mapping, linear weights repacked once for their
    /// kernel) with the current model's tokenizer (the tokenizer does not
    /// cross the checkpoint; see [`crate::checkpoint`]). A checkpoint
    /// that fails to load or validate is refused with
    /// [`SwapError::Checkpoint`] and the current model keeps serving.
    /// Returns the new model version.
    pub fn swap_checkpoint(&self, path: &Path) -> Result<u64, SwapError> {
        let tokenizer = self.model.load().matcher.tokenizer.clone();
        let incoming = FrozenMatcher::load_checkpoint(path, tokenizer)?;
        self.swap_model(incoming)
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            examples: self.stats.examples.load(Ordering::Relaxed),
            batch_capacity: self.stats.batch_capacity.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            degraded: self.stats.degraded.load(Ordering::Relaxed),
            worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            plan_cache_hits: self.stats.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.stats.plan_cache_misses.load(Ordering::Relaxed),
        }
    }

    fn check_length(&self, encoding: &Encoding, max_len: usize) -> Result<(), ServeError> {
        // Any length up to the model's position table is servable now that
        // batches pad dynamically; only over-long encodings are rejected.
        // `max_len` is swap-invariant (validated by swap_model), so it
        // does not matter which generation the caller snapshotted it from.
        if encoding.ids.len() > max_len {
            return Err(ServeError::InvalidLength {
                got: encoding.ids.len(),
                expected: max_len,
            });
        }
        Ok(())
    }

    fn cache_get(&self, key: &CacheKey) -> Option<f32> {
        let cache = self.cache.as_ref()?;
        let hit = cache.get(key);
        if hit.is_some() {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            em_obs::counter_inc("serve/cache_hits");
        } else {
            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            em_obs::counter_inc("serve/cache_misses");
        }
        let s = self.stats();
        em_obs::gauge_set("serve/cache_hit_rate", s.cache_hit_rate());
        hit
    }

    fn cache_put(&self, key: CacheKey, score: f32) {
        if let Some(cache) = &self.cache {
            cache.put(key, score);
        }
    }

    /// Enqueue one encoding and return the receiver its result arrives
    /// on, or the cached score when this exact encoding was seen recently.
    ///
    /// Admission control lives here: with [`ServeConfig::shed`] set, a
    /// full queue rejects the request with [`ServeError::Overloaded`]
    /// instead of blocking the caller (backpressure).
    fn submit(&self, encoding: &Encoding) -> Result<Result<f32, Pending>, ServeError> {
        let vm = self.model.load();
        self.check_length(encoding, vm.matcher.max_len)?;
        // A shut-down matcher rejects everything, cache hits included —
        // clients get one consistent contract, not an answer that depends
        // on what happened to be scored before shutdown.
        let tx = self.tx.as_ref().ok_or(ServeError::ShutDown)?;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        em_obs::counter_inc("serve/requests");
        // Probe under the version serving *now*: a hot-swap bumps the
        // version, so every pre-swap entry stops being reachable and ages
        // out of the LRU — structural invalidation, no flush pass.
        let key = self
            .cache
            .is_some()
            .then(|| CacheKey::versioned(encoding, vm.version));
        if let Some(k) = &key {
            if let Some(score) = self.cache_get(k) {
                return Ok(Ok(score));
            }
        }
        let (resp, rx) = mpsc::channel();
        let job = Job {
            encoding: encoding.clone(),
            resp,
            trace: RequestTrace::start(),
            attempts: 0,
        };
        if self.config.shed {
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    em_obs::counter_inc("serve/shed");
                    return Err(ServeError::Overloaded);
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServeError::ShutDown),
            }
        } else {
            tx.send(job).map_err(|_| ServeError::ShutDown)?;
        }
        Ok(Err(rx))
    }

    /// Await one in-flight result until `die` and cache the score on
    /// success. Deadlines are absolute instants so a batch of awaits
    /// shares one wall-clock budget instead of stacking per-request
    /// timeouts.
    fn await_result(
        &self,
        rx: Pending,
        encoding: &Encoding,
        die: Instant,
    ) -> Result<f32, ServeError> {
        let remaining = die.saturating_duration_since(Instant::now());
        let (score, version) = match rx.recv_timeout(remaining) {
            Ok(result) => result?,
            Err(mpsc::RecvTimeoutError::Timeout) => return Err(ServeError::Timeout),
            // The reply channel dropping without an answer means the job
            // was lost in infrastructure (it never happens through the
            // supervised paths, which always reply); classify it as
            // transient so clients retry rather than treat the pool as
            // shut down.
            Err(mpsc::RecvTimeoutError::Disconnected) => return Err(ServeError::Transient),
        };
        if self.cache.is_some() {
            // Cache under the version that *scored* it (carried in the
            // reply), not the one current at submit time — a swap between
            // submit and score must not file an old-model score under the
            // new model's keys.
            self.cache_put(CacheKey::versioned(encoding, version), score);
        }
        Ok(score)
    }

    /// The absolute deadline for a request arriving now: the explicit
    /// per-request deadline when given, else the configured
    /// `request_timeout`.
    fn die_at(&self, deadline: Option<Duration>) -> Instant {
        Instant::now() + deadline.unwrap_or(self.config.request_timeout)
    }

    /// Score one encoding through the worker pool, blocking for at most
    /// the configured `request_timeout`. Single attempt; see
    /// [`ServeMatcher::score_with_retry`] for the resilient variant.
    ///
    /// This is the **pre-encoded fast path**: callers that already hold
    /// an [`Encoding`] (batch pipelines, benchmarks, tests) skip
    /// tokenization entirely. Network-facing callers should prefer the
    /// raw-text front door ([`ServeMatcher::score_text`]), which owns
    /// tokenization and can never be handed an over-long input.
    pub fn score(&self, encoding: &Encoding) -> Result<f32, ServeError> {
        let die = self.die_at(None);
        match self.submit(encoding)? {
            Ok(cached) => Ok(cached),
            Err(rx) => self.await_result(rx, encoding, die),
        }
    }

    /// Enqueue one encoding and return a [`ScoreTicket`] immediately,
    /// without waiting for the result. This is the streaming front door
    /// used by `em-block`'s pipeline: submit a window of pairs, then
    /// [`ServeMatcher::redeem`] them in order, so one pipeline thread
    /// keeps worker batches full. Admission control applies as in
    /// [`ServeMatcher::score`]: with shedding enabled a full queue
    /// rejects with [`ServeError::Overloaded`] rather than blocking.
    pub fn submit_encoding(&self, encoding: Encoding) -> Result<ScoreTicket, ServeError> {
        let state = match self.submit(&encoding)? {
            Ok(score) => TicketState::Cached(score),
            Err(rx) => TicketState::Pending(rx),
        };
        Ok(ScoreTicket { encoding, state })
    }

    /// Redeem a ticket, blocking until its score is ready (at most the
    /// configured `request_timeout` from now). Transient failures
    /// ([`ServeError::is_transient`]) are retried by rescoring the
    /// ticket's own encoding through [`ServeMatcher::score_with_retry`],
    /// so a worker death between submit and redeem costs one retry, not
    /// a lost result.
    pub fn redeem(&self, ticket: ScoreTicket) -> Result<f32, ServeError> {
        match ticket.state {
            TicketState::Cached(score) => Ok(score),
            TicketState::Pending(rx) => {
                let die = self.die_at(None);
                match self.await_result(rx, &ticket.encoding, die) {
                    Err(e) if e.is_transient() => self.score_with_retry(&ticket.encoding),
                    other => other,
                }
            }
        }
    }

    /// Score one encoding, retrying transient failures
    /// ([`ServeError::is_transient`]) up to `retry.max_retries` times with
    /// exponential backoff + jitter between attempts.
    pub fn score_with_retry(&self, encoding: &Encoding) -> Result<f32, ServeError> {
        let policy = &self.config.retry;
        // Decorrelate concurrent clients' jitter without per-call RNG
        // state: the request counter is unique-ish per call.
        let nonce = self.stats.requests.load(Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            match self.score(encoding) {
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    em_obs::counter_inc("serve/retries");
                    std::thread::sleep(policy.backoff(attempt, nonce));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Score many encodings, returning one `Result` per encoding instead
    /// of failing the whole batch on the first error. All requests are
    /// enqueued before any result is awaited, so one caller still fills
    /// worker batches. Single attempt per encoding — retries and fallback
    /// live in [`ServeMatcher::try_predict_scores`]. Pre-encoded fast
    /// path; see [`ServeMatcher::score_texts`] for the raw-text door.
    pub fn score_each(&self, encodings: &[Encoding]) -> Vec<Result<f32, ServeError>> {
        self.score_each_deadline(encodings, None)
    }

    /// [`ServeMatcher::score_each`] under an explicit wall-clock budget:
    /// every result must arrive within `deadline` of this call (measured
    /// once, shared by the whole batch), or its slot reports
    /// [`ServeError::Timeout`]. `None` falls back to the configured
    /// `request_timeout`. A budget already spent (a zero deadline) times
    /// out every slot before anything is queued, so whether it does can
    /// never depend on how fast a worker answers.
    pub fn score_each_deadline(
        &self,
        encodings: &[Encoding],
        deadline: Option<Duration>,
    ) -> Vec<Result<f32, ServeError>> {
        let die = self.die_at(deadline);
        if Instant::now() >= die {
            return vec![Err(ServeError::Timeout); encodings.len()];
        }
        let pending: Vec<Result<Result<f32, Pending>, ServeError>> =
            encodings.iter().map(|e| self.submit(e)).collect();
        pending
            .into_iter()
            .zip(encodings)
            .map(|(p, e)| match p {
                Ok(Ok(cached)) => Ok(cached),
                Ok(Err(rx)) => self.await_result(rx, e, die),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// Score many encodings: all are enqueued before any result is
    /// awaited, so one caller still fills worker batches. Fails on the
    /// first error (in submission order); use
    /// [`ServeMatcher::score_each`] for per-request errors. Pre-encoded
    /// fast path.
    pub fn score_encodings(&self, encodings: &[Encoding]) -> Result<Vec<f32>, ServeError> {
        self.score_each(encodings).into_iter().collect()
    }

    /// Tokenize one pair of serialized entity texts into this matcher's
    /// input format — the serving twin of the wire contract in
    /// [`em_core::api`]. Truncation to the model's input length happens
    /// here (longest-first, both entities kept represented), so raw text
    /// of any length is servable and the text door can never fail with
    /// [`ServeError::InvalidLength`].
    pub fn encode_text(&self, left: &str, right: &str) -> Encoding {
        let frozen = self.frozen();
        encode_pair(
            &frozen.tokenizer,
            left,
            right,
            frozen.max_len,
            frozen.cls_position(),
        )
    }

    /// Score one pair of raw entity texts, tokenizing on submit and
    /// retrying transient failures with backoff. This is the network
    /// front door: callers never construct an [`Encoding`].
    pub fn score_text(&self, left: &str, right: &str) -> Result<f32, ServeError> {
        self.score_with_retry(&self.encode_text(left, right))
    }

    /// Score raw text pairs with per-pair results: tokenize on submit,
    /// enqueue everything (so one caller fills worker batches), then
    /// retry whatever failed transiently — the whole failed subset is
    /// re-submitted per round, so retries still batch. The text twin of
    /// [`ServeMatcher::try_predict_scores`], minus the degraded-mode
    /// fallback (which needs pair *attributes*, not flat text).
    pub fn score_texts(&self, pairs: &[TextPair]) -> Vec<Result<f32, ServeError>> {
        let encodings: Vec<Encoding> = pairs
            .iter()
            .map(|p| self.encode_text(&p.left, &p.right))
            .collect();
        let mut results = self.score_each(&encodings);
        self.retry_failed(&encodings, &mut results);
        results
    }

    /// [`ServeMatcher::score_texts`] under an explicit wall-clock budget
    /// shared by the whole request: tokenize on submit, single scoring
    /// attempt per pair, every result in by `deadline` or its slot
    /// reports [`ServeError::Timeout`] (the gateway maps that to HTTP
    /// 504). No retries — within a deadline the retry loop belongs to
    /// the caller, who knows how much budget is left.
    pub fn score_texts_deadline(
        &self,
        pairs: &[TextPair],
        deadline: Option<Duration>,
    ) -> Vec<Result<f32, ServeError>> {
        let encodings: Vec<Encoding> = pairs
            .iter()
            .map(|p| self.encode_text(&p.left, &p.right))
            .collect();
        self.score_each_deadline(&encodings, deadline)
    }

    /// Shared retry engine: re-submit every transiently failed slot of
    /// `results` (whole subset per round, so retries still batch) with
    /// exponential backoff between rounds.
    fn retry_failed(&self, encodings: &[Encoding], results: &mut [Result<f32, ServeError>]) {
        let policy = self.config.retry.clone();
        let nonce = self.stats.requests.load(Ordering::Relaxed);
        for attempt in 0..policy.max_retries {
            let failed: Vec<usize> = results
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Err(e) if e.is_transient()))
                .map(|(i, _)| i)
                .collect();
            if failed.is_empty() {
                break;
            }
            self.stats
                .retries
                .fetch_add(failed.len() as u64, Ordering::Relaxed);
            em_obs::counter_add("serve/retries", failed.len() as u64);
            std::thread::sleep(policy.backoff(attempt, nonce));
            let retry_encodings: Vec<Encoding> =
                failed.iter().map(|&i| encodings[i].clone()).collect();
            for (&i, r) in failed.iter().zip(self.score_each(&retry_encodings)) {
                results[i] = r;
            }
        }
    }

    /// Encode and score entity pairs end to end, with typed errors
    /// (the fallible twin of the [`Predictor`] surface).
    ///
    /// Rides the same tokenize-on-submit front door as the wire: each
    /// pair's records are serialized to text and scored through
    /// [`ServeMatcher::score_texts`]' retry engine — transient failures
    /// are retried with exponential backoff (whole failed subset
    /// re-submitted per round, so retries still batch). Whatever still
    /// fails after the retry budget is answered by the degraded-mode
    /// fallback when one is attached ([`ServeMatcher::with_fallback`]).
    /// An `Err` here means some request failed non-transiently,
    /// exhausted retries with no fallback, or was not degradable.
    pub fn try_predict_scores(
        &self,
        ds: &Dataset,
        pairs: &[EntityPair],
    ) -> Result<Vec<f32>, ServeError> {
        let encodings: Vec<Encoding> = pairs
            .iter()
            .map(|p| self.encode_text(&ds.serialize_record(&p.a), &ds.serialize_record(&p.b)))
            .collect();
        let mut results = self.score_each(&encodings);
        self.retry_failed(&encodings, &mut results);
        if let Some(fallback) = &self.fallback {
            let failed: Vec<usize> = results
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Err(e) if e.is_degradable()))
                .map(|(i, _)| i)
                .collect();
            if !failed.is_empty() {
                let fb_pairs: Vec<EntityPair> = failed.iter().map(|&i| pairs[i].clone()).collect();
                let scores = fallback.predict_scores(ds, &fb_pairs);
                self.stats
                    .degraded
                    .fetch_add(failed.len() as u64, Ordering::Relaxed);
                em_obs::counter_add("serve/degraded", failed.len() as u64);
                for (&i, s) in failed.iter().zip(scores) {
                    results[i] = Ok(s);
                }
            }
        }
        results.into_iter().collect()
    }

    /// Stop accepting work, let workers drain everything already queued,
    /// and join them (via the supervisor). Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // Dropping the sender makes the channel report disconnect only
        // after the queue is empty, so this is a draining shutdown.
        drop(self.tx.take());
        if let Some(mut sup) = self.supervisor.take() {
            sup.join();
        }
    }
}

impl Drop for ServeMatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Predictor for ServeMatcher {
    /// Panics with [`ServeError`] details if serving fails even after
    /// retries and (when attached) the degraded-mode fallback; use
    /// [`ServeMatcher::try_predict_scores`] where typed errors matter.
    fn predict_scores(&self, ds: &Dataset, pairs: &[EntityPair]) -> Vec<f32> {
        self.try_predict_scores(ds, pairs)
            .expect("serving failed while scoring pairs")
    }
}
