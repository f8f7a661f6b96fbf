//! Steady-state contracts of the frozen forward, measured rather than
//! inferred: a warm [`Executor`] allocates nothing per forward in any
//! weight representation, and a served stream over several length
//! buckets plans once per bucket and replays from then on.

use em_core::train_tokenizer;
use em_serve::{
    freeze_parts, ExecBackend, Executor, FrozenMatcher, QuantMode, ServeConfig, ServeMatcher,
};
use em_tokenizers::Encoding;
use em_transformers::{
    Architecture, Batch, ClassificationHead, TransformerConfig, TransformerModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

const VOCAB: usize = 50;

thread_local! {
    /// Allocations made by *this* thread. Per-thread so the harness and
    /// the other test in this binary cannot disturb an exact-zero assert;
    /// const-initialized and `Drop`-free, so touching it inside the
    /// allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A counting shim over the system allocator.
struct CountingAlloc;

fn count() {
    // `try_with`: the allocator still runs while a thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System`; the counter never affects
// allocation behaviour.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count();
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count();
        std::alloc::System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count();
        std::alloc::System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn tiny_frozen_matcher(max_len: usize) -> FrozenMatcher {
    let arch = Architecture::Bert;
    let mut cfg = TransformerConfig::tiny(arch, VOCAB);
    cfg.max_position = cfg.max_position.max(max_len);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let tok = train_tokenizer(arch, &em_data::generate_corpus(30, 7), 200);
    freeze_parts(&model, &head, tok, max_len)
}

/// An encoding of exactly `len` real tokens (no padding), CLS first.
fn encoding(rng: &mut StdRng, len: usize) -> Encoding {
    let split = rng.gen_range(1..len);
    Encoding {
        ids: (0..len).map(|_| rng.gen_range(1..VOCAB as u32)).collect(),
        segments: (0..len).map(|i| u8::from(i >= split)).collect(),
        mask: vec![1u8; len],
        cls_index: 0,
        pad_id: 0,
    }
}

/// After two warm-up forwards (plan built, workspace and kernel scratch
/// grown), 50 forwards at a fixed geometry allocate exactly nothing, for
/// f32 and int8 weights alike — the last layer's CLS gather and its
/// one-row attention included, which live in the hidden-state buffer and
/// the arena like everything else.
#[test]
fn warm_forward_allocates_nothing() {
    // Kernels stay on this thread (as on a serve worker), so this
    // thread's counter sees every allocation the forward makes.
    em_kernels::pool::serialize_current_thread();
    let (batch, seq) = (8, 16);
    let matcher = tiny_frozen_matcher(seq);
    let mut rng = StdRng::seed_from_u64(0x6af0);
    let encodings: Vec<Encoding> = (0..batch).map(|_| encoding(&mut rng, seq)).collect();
    let batch = Batch::from_encodings(&encodings);
    for mode in [QuantMode::F32, QuantMode::Int8] {
        let q = matcher.quantize(mode);
        let mut exec = Executor::new(ExecBackend::Graph);
        let cold = ALLOCS.with(Cell::get);
        let cls_states = exec.forward_hidden(&q.model, &batch).len();
        assert_eq!(cls_states, batch.len() * q.model.config.hidden);
        exec.forward_hidden(&q.model, &batch);
        let before = ALLOCS.with(Cell::get);
        assert!(before > cold, "the counter must see the cold forward plan");
        for _ in 0..50 {
            exec.forward_hidden(&q.model, &batch);
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            allocs, 0,
            "{mode}: {allocs} allocations over 50 warm forwards"
        );
    }

    // At EM_OBS=2 replay also times every op into its `graph/op/<kind>`
    // histogram; once each histogram exists that costs no allocation
    // either. (Levels are process-wide, so this runs here, after the
    // level-0 loop, rather than in a concurrent test.)
    let q = matcher.quantize(QuantMode::Int8);
    let mut exec = Executor::new(ExecBackend::Graph);
    em_obs::set_level(em_obs::LEVEL_EVENTS);
    exec.forward_hidden(&q.model, &batch);
    let ops_before = em_obs::histogram_snapshot("graph/op/linear_qkv").map_or(0, |h| h.count);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..50 {
        exec.forward_hidden(&q.model, &batch);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let ops = em_obs::histogram_snapshot("graph/op/linear_qkv").map_or(0, |h| h.count);
    em_obs::set_level(em_obs::LEVEL_OFF);
    assert_eq!(
        allocs, 0,
        "EM_OBS=2: {allocs} allocations over 50 warm forwards"
    );
    // At least: a concurrent test's serve worker may record too.
    assert!(
        ops - ops_before >= 50 * q.model.config.layers as u64,
        "one QKV timing per layer per forward"
    );
}

/// One worker serving three length buckets: the first batch of each
/// bucket plans its capacity envelope, and every batch after that — any
/// fill level, buckets interleaved — is a plan-cache hit.
#[test]
fn served_buckets_plan_once_then_always_hit() {
    let max_len = 64;
    let matcher = tiny_frozen_matcher(max_len);
    let cfg = ServeConfig::builder()
        .workers(1) // one plan cache, so the accounting is exact
        .max_batch(8)
        .cache_capacity(0)
        .build()
        .unwrap();
    let serve = ServeMatcher::start(matcher, cfg);
    let mut rng = StdRng::seed_from_u64(0x5e12);
    let lens = [16, 32, 64];
    for len in lens {
        serve.score(&encoding(&mut rng, len)).unwrap();
    }
    let warm = serve.stats();
    assert_eq!(warm.plan_cache_misses, lens.len() as u64);
    let stream: Vec<Encoding> = (0..60).map(|i| encoding(&mut rng, lens[i % 3])).collect();
    serve.score_encodings(&stream).unwrap();
    let fin = serve.stats();
    assert!(fin.batches > warm.batches);
    assert_eq!(
        fin.plan_cache_misses, warm.plan_cache_misses,
        "a warm bucket must never replan"
    );
    assert_eq!(
        fin.plan_cache_hits - warm.plan_cache_hits,
        fin.batches - warm.batches,
        "steady-state hit rate must be exactly 1.0"
    );
}
