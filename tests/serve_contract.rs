//! The serving worker's contract, reachable from tier-1: under a fault
//! schedule mixing worker panics, transient errors and latency spikes,
//! every request resolves to *exactly* the score a sequential
//! `score_encodings` call gives its encoding, or to a typed transient
//! error — never a hang, a lost reply or a perturbed score. The
//! exhaustive versions (proptest over seeds, supervision, shedding,
//! degraded mode) live in `crates/serve/tests/serve.rs`.

use em_core::pipeline::train_tokenizer;
use em_serve::{freeze_parts, Fault, FaultPlan, ServeConfig, ServeMatcher};
use em_tokenizers::Encoding;
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const VOCAB: usize = 50;
const MAX_LEN: usize = 16;

/// A random well-formed ragged encoding, CLS first, no padding.
fn random_encoding(rng: &mut StdRng) -> Encoding {
    let real = rng.gen_range(3..=MAX_LEN);
    let split = rng.gen_range(1..real);
    Encoding {
        ids: (0..real).map(|_| rng.gen_range(1..VOCAB as u32)).collect(),
        segments: (0..real).map(|i| u8::from(i >= split)).collect(),
        mask: vec![1u8; real],
        cls_index: 0,
        pad_id: 0,
    }
}

#[test]
fn any_fault_yields_the_sequential_score_or_a_typed_transient_error() {
    let start = Instant::now();
    let arch = Architecture::DistilBert;
    let cfg = TransformerConfig::tiny(arch, VOCAB);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, 43);
    let mut rng = StdRng::seed_from_u64(43);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let tok = train_tokenizer(arch, &em_data::generate_corpus(30, 43), 200);
    let reference = freeze_parts(&model, &head, tok, MAX_LEN);

    let plan = |seed| FaultPlan {
        seed,
        panic_every: 3,
        delay_every: 3,
        delay: Duration::from_millis(2),
        error_every: 3,
    };
    // The schedule is a pure function of (plan, batch number), and 24
    // requests at up to 8 per batch form at least three batches, so a
    // seed whose first three batches hold an error and a panic exercises
    // the error, requeue and retry paths whatever the thread timing.
    let hits = |seed, upto, want: fn(&Fault) -> bool| {
        (0..upto).any(|seq| plan(seed).fault_for(seq).as_ref().is_some_and(want))
    };
    let seeds = (0..u64::MAX)
        .filter(|&seed| {
            hits(seed, 3, |f| *f == Fault::Error)
                && hits(seed, 3, |f| *f == Fault::Panic)
                && hits(seed, 8, |f| matches!(f, Fault::Delay(_)))
        })
        .take(3);

    let (mut scored, mut failed) = (0, 0);
    for seed in seeds {
        let plan = plan(seed);
        let config = ServeConfig::builder()
            .workers(2)
            .max_batch(4)
            .cache_capacity(0)
            .request_timeout_ms(5_000)
            .fault(plan)
            .build()
            .unwrap();
        let matcher = ServeMatcher::start(reference.clone(), config);
        let encodings: Vec<Encoding> = (0..24).map(|_| random_encoding(&mut rng)).collect();
        let results = matcher.score_each(&encodings);
        assert_eq!(results.len(), encodings.len());
        for (i, (result, encoding)) in results.iter().zip(&encodings).enumerate() {
            match result {
                Ok(score) => {
                    let want = reference.score_encodings(std::slice::from_ref(encoding))[0];
                    assert_eq!(*score, want, "seed {seed}: request {i} scored wrong");
                    scored += 1;
                }
                Err(err) => {
                    assert!(
                        err.is_transient(),
                        "seed {seed}: request {i} failed non-transiently: {err:?}"
                    );
                    failed += 1;
                }
            }
        }
    }
    // Both outcomes must have been exercised, or the test pins nothing.
    assert!(scored > 0 && failed > 0, "scored {scored}, failed {failed}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the contract test must stay cheap: {:?}",
        start.elapsed()
    );
}
