//! Worker supervision: panic containment, respawn, and request recovery.
//!
//! Every scoring worker owns a *slot* — a mutex-guarded `Held` holding
//! each job the worker is responsible for, whether parked in its
//! per-bucket pending stash or in flight through the forward pass. The
//! worker parks jobs in the slot **before** any code that can panic
//! (fault injection and the model forward both run with the batch
//! parked), so when a worker dies the jobs it held are still reachable.
//!
//! A worker's stack unwinding drops its `Sentinel`, which reports the
//! death to the supervisor thread. The supervisor joins the dead thread,
//! drains its slot, bumps the in-flight jobs' attempt counts (jobs whose
//! requeue budget is spent get a typed [`ServeError::Transient`] reply
//! instead of being retried forever), and respawns a replacement worker
//! that inherits the surviving jobs as its initial pending queue — no
//! channel re-submission, so recovery cannot deadlock on a full queue and
//! works even after shutdown has closed the submission side. A respawn
//! budget ([`ServeConfig::max_worker_restarts`]) backstops restart storms;
//! beyond it the supervisor fails the dead worker's jobs and lets the
//! pool shrink.
//!
//! Shutdown needs no special signalling: dropping the matcher's submit
//! handle disconnects the queue, workers drain their slots and exit
//! normally, each `Finished` report decrements the live count, and the
//! supervisor returns once it reaches zero.

use crate::config::{ServeConfig, ServeError};
use crate::executor::{ExecBackend, Executor};
use crate::fault::{Fault, InjectedFault};
use crate::matcher::{Job, ModelCell, StatsInner};
use crate::trace::BatchTiming;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use em_tokenizers::Encoding;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything a worker (or its replacement) needs to run.
pub(crate) struct PoolCtx {
    /// The shared request queue.
    pub rx: Receiver<Job>,
    /// The hot-swappable model cell all workers score through. Workers
    /// pin one generation (`Arc`) per batch, so a swap never tears a
    /// batch across two models.
    pub model: Arc<ModelCell>,
    /// Shared serving counters.
    pub stats: Arc<StatsInner>,
    /// The matcher's configuration (bucket policy, faults, budgets).
    pub cfg: ServeConfig,
    /// Whether workers pin intra-op kernel parallelism to one thread.
    pub serialize_kernels: bool,
}

/// The jobs one worker currently owns: its in-flight batch plus the
/// per-bucket stash of length-incompatible arrivals it met while
/// forming batches. Everything in here survives the worker's death.
#[derive(Default)]
pub(crate) struct Held {
    inflight: Vec<Job>,
    pending: HashMap<usize, VecDeque<Job>>,
}

impl Held {
    fn drain(self) -> impl Iterator<Item = Job> {
        self.inflight
            .into_iter()
            .chain(self.pending.into_values().flatten())
    }
}

type Slot = Arc<Mutex<Held>>;

/// Lock a slot, recovering the data from a poisoned mutex — the whole
/// point of the slot is to be read after the owning worker panicked.
fn lock(slot: &Slot) -> MutexGuard<'_, Held> {
    slot.lock().unwrap_or_else(|p| p.into_inner())
}

/// How a worker thread ended.
enum Lifecycle {
    /// Normal exit: queue disconnected and its slot drained.
    Finished(usize),
    /// The worker panicked; its slot still holds its jobs.
    Died(usize),
}

/// Reports the owning worker's fate to the supervisor from `Drop`, so a
/// panic anywhere in the worker loop is observed without polling.
struct Sentinel {
    id: usize,
    tx: Sender<Lifecycle>,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        let fate = if std::thread::panicking() {
            Lifecycle::Died(self.id)
        } else {
            Lifecycle::Finished(self.id)
        };
        let _ = self.tx.send(fate);
    }
}

/// Handle to the supervision thread; joining it joins the whole pool.
pub(crate) struct Supervisor {
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Spawn `ctx.cfg.workers` scoring workers under a supervisor thread.
    pub(crate) fn start(ctx: Arc<PoolCtx>) -> Self {
        let handle = std::thread::Builder::new()
            .name("em-serve-supervisor".into())
            .spawn(move || supervise(ctx))
            .expect("failed to spawn serving supervisor");
        Self {
            handle: Some(handle),
        }
    }

    /// Wait for every worker (and the supervisor itself) to exit.
    /// Idempotent.
    pub(crate) fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn spawn_worker(
    id: usize,
    ctx: &Arc<PoolCtx>,
    slot: Slot,
    life: Sender<Lifecycle>,
) -> JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("em-serve-{id}"))
        .spawn(move || {
            let _sentinel = Sentinel { id, tx: life };
            worker_loop(id, &ctx, &slot);
        })
        .expect("failed to spawn serving worker")
}

fn supervise(ctx: Arc<PoolCtx>) {
    let (life_tx, life_rx) = unbounded::<Lifecycle>();
    let mut slots: Vec<Slot> = (0..ctx.cfg.workers).map(|_| Slot::default()).collect();
    let mut handles: Vec<Option<JoinHandle<()>>> = slots
        .iter()
        .enumerate()
        .map(|(id, slot)| Some(spawn_worker(id, &ctx, Arc::clone(slot), life_tx.clone())))
        .collect();
    let mut alive = ctx.cfg.workers;
    let mut restarts = 0usize;
    while alive > 0 {
        match life_rx.recv() {
            Ok(Lifecycle::Finished(id)) => {
                if let Some(h) = handles[id].take() {
                    let _ = h.join();
                }
                alive -= 1;
            }
            Ok(Lifecycle::Died(id)) => {
                // Reap the dead thread (its panic payload is not an error
                // to us — supervision is the error handler).
                if let Some(h) = handles[id].take() {
                    let _ = h.join();
                }
                ctx.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                em_obs::counter_inc("serve/worker_restarts");
                // Recover the dead worker's jobs. In-flight jobs were
                // being scored when the panic hit, so they spend one unit
                // of requeue budget; stashed pending jobs were innocent
                // bystanders and keep theirs.
                let held = std::mem::take(&mut *lock(&slots[id]));
                // max_len is swap-invariant (validated by swap_model), so
                // any generation's value re-buckets correctly.
                let max_len = ctx.model.load().matcher.max_len;
                let width = ctx.cfg.bucket_width(max_len);
                let mut inherited = Held::default();
                let mut requeued = 0u64;
                for mut job in held.inflight {
                    job.attempts += 1;
                    if job.attempts > ctx.cfg.max_requeues {
                        let _ = job.resp.send(Err(ServeError::Transient));
                    } else {
                        requeued += 1;
                        let bucket = job.bucket(width, max_len);
                        inherited.pending.entry(bucket).or_default().push_back(job);
                    }
                }
                for (bucket, q) in held.pending {
                    requeued += q.len() as u64;
                    inherited.pending.entry(bucket).or_default().extend(q);
                }
                em_obs::counter_add("serve/requeued", requeued);
                if restarts < ctx.cfg.max_worker_restarts {
                    // Respawn with the surviving jobs as the replacement's
                    // initial pending queue: recovery never touches the
                    // bounded submission channel, so it cannot deadlock
                    // and still works after shutdown closed the queue.
                    restarts += 1;
                    let slot = Arc::new(Mutex::new(inherited));
                    slots[id] = Arc::clone(&slot);
                    handles[id] = Some(spawn_worker(id, &ctx, slot, life_tx.clone()));
                } else {
                    // Restart budget spent: fail this worker's jobs with
                    // the typed transient error and let the pool shrink.
                    for job in inherited.drain() {
                        let _ = job.resp.send(Err(ServeError::Transient));
                    }
                    alive -= 1;
                }
            }
            // Unreachable (the supervisor holds a sender), but do not
            // let a bug here hang shutdown.
            Err(_) => break,
        }
    }
}

/// The scoring loop: form a batch from the length-compatible requests
/// that are already waiting, score it, reply. Batch formation is
/// work-conserving — the worker never idles while it holds a request:
/// a lone request runs alone at once, and what arrives during a forward
/// is the next batch. (The per-pair forward cost is flat in batch size
/// on these kernels, so waiting for company buys no throughput.) Every
/// job the worker owns lives in its slot while any panic-capable code
/// runs.
fn worker_loop(id: usize, ctx: &PoolCtx, slot: &Slot) {
    if ctx.serialize_kernels {
        em_kernels::pool::serialize_current_thread();
    }
    let cfg = &ctx.cfg;
    let stats = &ctx.stats;
    // Bucketing geometry is swap-invariant (swap_model refuses a model
    // with a different max_len), so it is computed once even though the
    // model behind the cell may change between batches.
    let max_len = ctx.model.load().matcher.max_len;
    let width = cfg.bucket_width(max_len);
    let worker_label = id.to_string();
    // Worker-private scoring engine: plan cache, arena and workspace all
    // live for the worker's lifetime, so a steady stream of same-bucket
    // batches replans nothing and allocates nothing. A respawned worker
    // starts cold and simply replans on its first batch per bucket.
    let mut exec = Executor::new(ExecBackend::Graph);
    let mut disconnected = false;
    loop {
        // Batch head: the oldest stashed job, else block on the queue
        // for a fresh request.
        let stashed = {
            let mut held = lock(slot);
            let oldest = held
                .pending
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .min_by_key(|(_, q)| q.front().map(|j| j.trace.enqueued))
                .map(|(&k, _)| k);
            oldest.map(|k| {
                held.pending
                    .get_mut(&k)
                    .and_then(VecDeque::pop_front)
                    .expect("non-empty bucket")
            })
        };
        let mut head = match stashed {
            Some(job) => job,
            None if disconnected => return, // queue drained + all senders gone
            None => match ctx.rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        head.trace.mark_picked();
        let bucket = head.bucket(width, max_len);
        let capacity = cfg.bucket_capacity(max_len, bucket);
        let mut jobs = vec![head];
        // Same-bucket stragglers from earlier rounds first…
        {
            let mut held = lock(slot);
            if let Some(q) = held.pending.get_mut(&bucket) {
                while jobs.len() < capacity {
                    match q.pop_front() {
                        Some(mut job) => {
                            job.trace.mark_picked();
                            jobs.push(job);
                        }
                        None => break,
                    }
                }
            }
        }
        // …then whatever the live queue already holds, without waiting,
        // stashing length-incompatible arrivals in the slot.
        while jobs.len() < capacity && !disconnected {
            match ctx.rx.try_recv() {
                Ok(mut job) if job.bucket(width, max_len) == bucket => {
                    job.trace.mark_picked();
                    jobs.push(job);
                }
                Ok(job) => {
                    let b = job.bucket(width, max_len);
                    lock(slot).pending.entry(b).or_default().push_back(job);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => disconnected = true,
            }
        }
        let _span = em_obs::span!("serve/batch");
        let encodings: Vec<Encoding> = jobs.iter().map(|j| j.encoding.clone()).collect();
        // Park the batch: from here until the replies go out, a panic
        // (injected or real, most plausibly inside the model forward)
        // leaves these jobs in the slot for the supervisor to recover.
        lock(slot).inflight = jobs;
        if let Some(plan) = &cfg.fault {
            let seq = stats.batch_seq.fetch_add(1, Ordering::Relaxed);
            match plan.fault_for(seq) {
                Some(Fault::Panic) => {
                    em_obs::counter_inc("serve/fault_panics");
                    std::panic::panic_any(InjectedFault);
                }
                Some(Fault::Delay(d)) => {
                    em_obs::counter_inc("serve/fault_delays");
                    std::thread::sleep(d);
                }
                Some(Fault::Error) => {
                    em_obs::counter_inc("serve/fault_errors");
                    let jobs = std::mem::take(&mut lock(slot).inflight);
                    for job in jobs {
                        let _ = job.resp.send(Err(ServeError::Transient));
                    }
                    continue;
                }
                None => {}
            }
        }
        let forward_start = em_obs::enabled().then(Instant::now);
        // Pin the model generation for this whole batch: the Arc loaded
        // here is held through the forward pass and stamped into every
        // reply, so a concurrent swap affects only *later* batches —
        // in-flight work drains on the model it started with.
        let vm = ctx.model.load();
        // Key the plan on the bucket's capacity, not this batch's fill:
        // the first batch of a bucket plans an envelope every later fill
        // level replays, making the steady-state hit rate exactly 1.0.
        exec.set_batch_capacity(capacity);
        let scores = exec.score_encodings(&vm.matcher, &encodings);
        let (plan_hits, plan_misses) = exec.take_plan_counts();
        if plan_hits + plan_misses > 0 {
            stats
                .plan_cache_hits
                .fetch_add(plan_hits, Ordering::Relaxed);
            stats
                .plan_cache_misses
                .fetch_add(plan_misses, Ordering::Relaxed);
            em_obs::counter_add("serve/plan_cache_hits", plan_hits);
            em_obs::counter_add("serve/plan_cache_misses", plan_misses);
        }
        let jobs = std::mem::take(&mut lock(slot).inflight);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats
            .examples
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        stats
            .batch_capacity
            .fetch_add(capacity as u64, Ordering::Relaxed);
        em_obs::counter_inc("serve/batches");
        em_obs::counter_add("serve/batch_examples", jobs.len() as u64);
        em_obs::counter_add_labeled(
            "serve/model_version",
            &[("version", &vm.version.to_string())],
            jobs.len() as u64,
        );
        em_obs::gauge_set("serve/batch_fill", jobs.len() as f64 / capacity as f64);
        em_obs::gauge_set("serve/bucket_len", bucket as f64);
        // Fold each request's trace into the per-stage latency
        // histograms before its reply goes out. `forward_start` doubles
        // as the enabled gate: when observability is off this is all
        // skipped without a single clock read.
        let timing = forward_start.map(|fs| {
            em_obs::gauge_set("serve/queue_depth", ctx.rx.len() as f64);
            BatchTiming {
                forward_start: fs,
                forward_end: Instant::now(),
                worker: worker_label.clone(),
                bucket,
                batch_size: jobs.len(),
            }
        });
        if let Some(t) = &timing {
            t.record_batch();
        }
        for (job, score) in jobs.into_iter().zip(scores) {
            if let Some(t) = &timing {
                t.record_request(&job.trace, cfg.slow_request_threshold);
            }
            // A client that timed out dropped its receiver; that's its
            // loss, not a worker error.
            let _ = job.resp.send(Ok((score, vm.version)));
        }
    }
}
