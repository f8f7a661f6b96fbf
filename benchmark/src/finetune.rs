//! `finetune`: the paper's own cost (Table 6), `em_core::fine_tune` on
//! BERT small over a generated Abt-Buy split. The only workload through
//! the autograd path, so serve-side changes must not move it.

use crate::layers;
use crate::report::Outcome;
use crate::spec::{FINETUNE, SCORE_TOLERANCE};
use crate::stats::{fast_quartile, peak_rss_mib, rate};
use crate::trace::SpanLog;
use crate::{em_obs_recording, timed_setup, RunArgs};
use em_core::{fine_tune, train_tokenizer, EmMatcher, FineTuneConfig, FineTuneResult, Predictor};
use em_data::{Dataset, DatasetId, EntityPair};
use em_serve::FrozenMatcher;
use em_tokenizers::{AnyTokenizer, Tokenizer};
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Initial weights, shuffling and dropout belong to the program under
/// test: fixed, never following `--seed`.
const TRAIN_SEED: u64 = 42;

struct Setup {
    tokenizer: AnyTokenizer,
    config: TransformerConfig,
    ds: Dataset,
    train: Vec<EntityPair>,
    test: Vec<EntityPair>,
}

fn set_up(args: &RunArgs) -> Setup {
    // The tokenizer stands in for the pre-trained checkpoint's vocabulary:
    // part of the program, so its corpus does not follow `--seed`.
    let corpus = em_data::generate_corpus(200, TRAIN_SEED);
    let tokenizer = train_tokenizer(Architecture::Bert, &corpus, 400);
    let config = if args.sizes.ft_tiny {
        TransformerConfig::tiny(Architecture::Bert, tokenizer.vocab_size())
    } else {
        TransformerConfig::small(Architecture::Bert, tokenizer.vocab_size())
    };
    let ds = DatasetId::AbtBuy.generate(args.sizes.ft_scale, args.seed);
    let split = ds.split(&mut StdRng::seed_from_u64(args.seed));
    Setup {
        tokenizer,
        config,
        ds,
        train: split.train,
        test: split.test,
    }
}

fn train_config(epochs: usize) -> FineTuneConfig {
    FineTuneConfig {
        epochs,
        seed: TRAIN_SEED,
        max_len_cap: 128,
        ..Default::default()
    }
}

/// Mean cross-entropy of `matcher` over labelled pairs, computed from the
/// scores its public `Predictor` surface returns.
fn mean_loss(matcher: &EmMatcher, ds: &Dataset, pairs: &[EntityPair]) -> f64 {
    let scores = matcher.predict_scores(ds, pairs);
    let total: f64 = scores
        .iter()
        .zip(pairs)
        .map(|(&p, pair)| {
            let p = f64::from(p).clamp(1e-7, 1.0 - 1e-7);
            -(if pair.label { p } else { 1.0 - p }).ln()
        })
        .sum();
    total / pairs.len().max(1) as f64
}

/// One `fine_tune` call inside the timed window.
struct Unit {
    traced: bool,
    wall_s: f64,
    result: FineTuneResult,
}

impl Unit {
    fn epoch_seconds(&self) -> impl Iterator<Item = f64> + '_ {
        self.result.curve.iter().skip(1).map(|e| e.train_seconds)
    }
}

/// Run the `finetune` workload.
pub fn run(args: &RunArgs, log: &SpanLog) -> Outcome {
    let mut out = Outcome::new(FINETUNE, args.traced);
    let sizes = &args.sizes;

    let (s, setup_s) = timed_setup(sizes.setup_reps, || set_up(args));
    out.end_to_end("setup_s", setup_s);

    let tune = |train: &[EntityPair], test: &[EntityPair], epochs: usize| {
        let model = TransformerModel::new(s.config.clone(), TRAIN_SEED);
        let start = Instant::now();
        let (matcher, result) = fine_tune(
            model,
            s.tokenizer.clone(),
            &s.ds,
            train,
            test,
            &train_config(epochs),
        );
        (matcher, result, start.elapsed().as_secs_f64())
    };

    // Untimed warm-up: one short epoch grows every lazy buffer.
    let warm = s.train.len().min(48);
    tune(&s.train[..warm], &s.test[..s.test.len().min(16)], 1);

    // Timed window. A traced run first takes one plain epoch as the
    // reference `obs.overhead_share` is measured against.
    let budget = Duration::from_secs_f64(args.seconds);
    let window = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut matcher = None;
    let mut last = Duration::ZERO;
    loop {
        let reference = args.traced && units.is_empty();
        let traced = args.traced && !reference;
        let enough = units.len() >= if args.traced { 2 } else { 1 };
        if enough && window.elapsed() + last > budget {
            break;
        }
        em_obs_recording(traced);
        let epochs = if reference { 1 } else { sizes.ft_epochs };
        let span = log.open("core.fine_tune", 0, units.len() as u64 + 1);
        let started = Instant::now();
        let (m, result, wall_s) = tune(&s.train, &s.test, epochs);
        last = started.elapsed();
        log.close(span);
        out.attempted += (s.train.len() * epochs) as u64;
        units.push(Unit {
            traced,
            wall_s,
            result,
        });
        matcher = Some(m);
    }
    em_obs_recording(false);
    let matcher = matcher.expect("at least one unit");

    // --- Correctness gates. ----------------------------------------------
    let untrained = EmMatcher {
        model: TransformerModel::new(s.config.clone(), TRAIN_SEED),
        head: ClassificationHead::new(
            s.config.hidden,
            s.config.dropout,
            s.config.init_std,
            &mut StdRng::seed_from_u64(TRAIN_SEED),
        ),
        tokenizer: s.tokenizer.clone(),
        max_len: matcher.max_len,
        eval_batch: matcher.eval_batch,
    };
    let first_loss = mean_loss(&untrained, &s.ds, &s.train);
    let final_loss = mean_loss(&matcher, &s.ds, &s.train);
    out.gate(final_loss < first_loss, || {
        format!("training loss did not fall: {first_loss} before, {final_loss} after")
    });
    let frozen = FrozenMatcher::from(&matcher);
    let autograd = matcher.predict_scores(&s.ds, &s.test);
    let served = frozen.predict_scores(&s.ds, &s.test);
    let worst = autograd
        .iter()
        .zip(&served)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    out.gate(worst <= SCORE_TOLERANCE, || {
        format!("frozen and autograd scores differ by {worst} on the test split")
    });

    // --- End-to-end metrics. -----------------------------------------------
    let epochs_of = |traced: bool| -> Vec<f64> {
        units
            .iter()
            .filter(|u| u.traced == traced)
            .flat_map(Unit::epoch_seconds)
            .collect()
    };
    out.unit_costs = epochs_of(false)
        .iter()
        .map(|e| e / s.train.len().max(1) as f64)
        .collect();
    let plain_epoch = fast_quartile(&epochs_of(false));
    let examples_per_s = s.train.len() as f64 * rate(plain_epoch);
    out.end_to_end("examples_per_s", examples_per_s);
    // A training example is a record pair, so the pair rates repeat it;
    // the latency cells carry the epoch time, the ratios do not apply.
    out.end_to_end("pairs_per_s", examples_per_s);
    out.end_to_end("goodput_pairs_per_s", examples_per_s);
    out.end_to_end("p50_ms", plain_epoch * 1e3);
    out.end_to_end("p99_ms", plain_epoch * 1e3);
    out.end_to_end("recall", 1.0);
    out.end_to_end("reduction_ratio", 1.0);
    out.end_to_end("peak_rss_mib", peak_rss_mib());

    // --- Per-layer metrics from the spans em-core publishes. ----------------
    if args.traced {
        let summary = em_obs::summary();
        let span = |name: &str| summary.spans.iter().find(|sp| sp.name == name);
        let busy = |name: &str| span(name).map_or(0.0, |sp| sp.total_s);
        let wall: f64 = units.iter().filter(|u| u.traced).map(|u| u.wall_s).sum();
        let (forward, backward, step, eval) = (
            busy("finetune/forward"),
            busy("finetune/backward"),
            busy("finetune/step"),
            busy("eval"),
        );
        out.layer("bench.traced_wall_s", wall);
        out.layer("bench.units", units.len() as f64);
        out.layer(
            "core.finetune.epoch_s",
            span("finetune/epoch").map_or(0.0, |sp| sp.mean_s),
        );
        out.layer("core.finetune.forward.busy_s", forward);
        out.layer("core.finetune.backward.busy_s", backward);
        out.layer("core.finetune.step.busy_s", step);
        out.layer("core.eval.busy_s", eval);
        let evals = span("eval").map_or(0, |sp| sp.count);
        if eval > 0.0 {
            out.layer(
                "core.eval.pairs_per_s",
                (s.test.len() as u64 * evals) as f64 / eval,
            );
        }
        let last_traced = units.iter().rev().find(|u| u.traced);
        out.layer(
            "core.finetune.padding_efficiency",
            last_traced.map_or(0.0, |u| u.result.padding_efficiency),
        );
        out.layer("core.finetune.final_loss", final_loss);
        layers::kernel_probe(&mut out, sizes.hidden, sizes.inner, false);
        let traced_epoch = fast_quartile(&epochs_of(true));
        if plain_epoch > 0.0 && traced_epoch > 0.0 {
            out.layer("obs.overhead_share", traced_epoch / plain_epoch - 1.0);
        }
        if wall > 0.0 {
            let other = (wall - forward - backward - step - eval).max(0.0);
            out.waterfall = vec![
                ("core.finetune.forward", forward / wall),
                ("core.finetune.backward", backward / wall),
                ("core.finetune.step", step / wall),
                ("core.eval", eval / wall),
                ("other (encode, batching)", other / wall),
            ];
        }
    }
    out.finish()
}
