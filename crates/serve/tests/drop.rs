//! Dropping a matcher joins its worker pool. This test counts the
//! process's `em-serve*` threads, so it lives alone in its own test
//! binary: a matcher started by any concurrently running test would
//! otherwise be counted as a leak.

use em_core::train_tokenizer;
use em_serve::{freeze_parts, FrozenMatcher, ServeConfig, ServeMatcher};
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn text_frozen_matcher(arch: Architecture, seed: u64, max_len: usize) -> FrozenMatcher {
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    let cfg = TransformerConfig::tiny(arch, em_tokenizers::Tokenizer::vocab_size(&tok));
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    freeze_parts(&model, &head, tok, max_len)
}

/// Dropping the matcher without an explicit `shutdown()` must still
/// drain and join the worker pool (the gateway relies on this when a
/// test panics or a scope unwinds past a live matcher).
#[test]
fn drop_without_shutdown_joins_workers() {
    let frozen = text_frozen_matcher(Architecture::Bert, 37, 16);
    let cfg = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .build()
        .unwrap();
    let before = active_serve_threads();
    {
        let matcher = ServeMatcher::start(frozen, cfg);
        matcher
            .score_text("left entity", "right entity")
            .expect("scoring failed");
        // No shutdown() — Drop must do the full drain + join.
    }
    let after = active_serve_threads();
    assert!(
        after <= before,
        "worker threads leaked across drop: {before} -> {after}"
    );
}

/// Best-effort count of live em-serve threads via /proc (Linux-only
/// test environment); used to show Drop joins the pool.
fn active_serve_threads() -> usize {
    let mut n = 0;
    if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
        for e in entries.flatten() {
            let comm = e.path().join("comm");
            if let Ok(name) = std::fs::read_to_string(comm) {
                if name.starts_with("em-serve") {
                    n += 1;
                }
            }
        }
    }
    n
}
