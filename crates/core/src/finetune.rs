//! Fine-tuning a pre-trained transformer on entity matching (§5.2.2):
//! Adam with a linear learning-rate schedule, per-epoch test evaluation
//! including the zero-shot (epoch 0) score, and wall-clock timing per
//! epoch for Table 6.

use crate::pipeline::{choose_max_len, encode_pairs, train_tokenizer};
use em_data::{Dataset, EntityPair, PrF1};
use em_nn::{Ctx, Module};
use em_tensor::{clip_grad_norm, no_grad, Adam, LinearWarmupDecay, LrSchedule};
use em_tokenizers::{AnyTokenizer, Encoding, Tokenizer};
use em_transformers::{
    pretrain, Architecture, Batch, ClassificationHead, PretrainConfig, PretrainedModel,
    TransformerConfig, TransformerModel,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    /// Number of fine-tuning epochs (the paper plots 0–15).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate for the linear schedule.
    pub lr: f32,
    /// Run seed (shuffling, dropout, head init).
    pub seed: u64,
    /// Cap on the model input length.
    pub max_len_cap: usize,
    /// Mini-batch size used for evaluation and scoring.
    pub eval_batch: usize,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 16,
            lr: 1e-3,
            seed: 42,
            max_len_cap: 96,
            eval_batch: 32,
        }
    }
}

/// One point of a Figure 10–14 convergence curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index; 0 is the zero-shot evaluation before any fine-tuning.
    pub epoch: usize,
    /// Test-set F1 in percent.
    pub f1: f64,
    /// Test-set precision.
    pub precision: f64,
    /// Test-set recall.
    pub recall: f64,
    /// Training seconds spent in this epoch (0 for epoch 0).
    pub train_seconds: f64,
}

/// Outcome of one fine-tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineTuneResult {
    /// Per-epoch test metrics, epoch 0 first (zero-shot).
    pub curve: Vec<EpochRecord>,
    /// F1 (percent) after the final epoch.
    pub final_f1: f64,
    /// Best F1 (percent) across epochs ≥ 1.
    pub best_f1: f64,
    /// Mean training seconds per epoch (Table 6's quantity).
    pub seconds_per_epoch: f64,
    /// Real tokens / padded tokens across all training batches (1.0 means
    /// no compute was spent on padding).
    #[serde(default)]
    pub padding_efficiency: f64,
}

/// A fine-tuned entity matcher ready for inference.
pub struct EmMatcher {
    /// The encoder.
    pub model: TransformerModel,
    /// The match/no-match head.
    pub head: ClassificationHead,
    /// The tokenizer the encoder was pre-trained with.
    pub tokenizer: AnyTokenizer,
    /// Input length used at fine-tuning time.
    pub max_len: usize,
    /// Mini-batch size for scoring.
    pub eval_batch: usize,
}

impl EmMatcher {
    /// Predict labels for pairs of a dataset (batched, no autograd).
    pub fn predict(&self, ds: &Dataset, pairs: &[EntityPair]) -> Vec<bool> {
        let (encodings, _) = encode_pairs(
            ds,
            pairs,
            &self.tokenizer,
            self.model.config.arch,
            self.max_len,
        );
        self.predict_encodings(&encodings)
    }

    /// Predict labels for already-encoded inputs.
    pub fn predict_encodings(&self, encodings: &[Encoding]) -> Vec<bool> {
        self.score_encodings(encodings)
            .into_iter()
            .map(|s| s > 0.5)
            .collect()
    }

    /// Positive-class match probability for already-encoded inputs
    /// (batched, no autograd) — the score primitive behind both
    /// [`predict_encodings`](Self::predict_encodings) and the
    /// [`Predictor`](crate::predictor::Predictor) surface.
    pub fn score_encodings(&self, encodings: &[Encoding]) -> Vec<f32> {
        no_grad(|| {
            // Sort by length so each chunk holds similar lengths and the
            // dynamic batch padding (to the chunk max) wastes little; the
            // scores are written back through the index so callers see the
            // original order.
            let mut by_len: Vec<usize> = (0..encodings.len()).collect();
            by_len.sort_by_key(|&i| encodings[i].real_span());
            let chunk_size = self.eval_batch.max(1);
            let mut out = vec![0.0f32; encodings.len()];
            for chunk in by_len.chunks(chunk_size) {
                let batch = Batch::gather(encodings, chunk);
                let mut ctx = Ctx::eval();
                let hidden = self.model.forward(&batch, None, None, &mut ctx);
                let pooled = self.model.pooled_states(&hidden, &batch);
                let logits = self.head.forward(&pooled, &mut ctx).value();
                let probs = em_tensor::softmax_array(&logits);
                for (row, &orig) in chunk.iter().enumerate() {
                    out[orig] = probs.at(&[row, 1]);
                }
            }
            out
        })
    }
}

/// Evaluate a matcher's F1 on encoded test data.
fn evaluate(matcher: &EmMatcher, encodings: &[Encoding], labels: &[usize]) -> PrF1 {
    let _span = em_obs::span!("eval");
    let preds = matcher.predict_encodings(encodings);
    let truth: Vec<bool> = labels.iter().map(|&l| l == 1).collect();
    PrF1::from_predictions(&preds, &truth)
}

/// Fine-tune a pre-trained transformer on a dataset split and evaluate on
/// the test pairs after every epoch (the paper's Figures 10–14 protocol;
/// epoch 0 is the zero-shot score).
pub fn fine_tune(
    model: TransformerModel,
    tokenizer: AnyTokenizer,
    ds: &Dataset,
    train: &[EntityPair],
    test: &[EntityPair],
    cfg: &FineTuneConfig,
) -> (EmMatcher, FineTuneResult) {
    let arch = model.config.arch;
    let hidden = model.config.hidden;
    let init_std = model.config.init_std;
    let dropout = model.config.dropout;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Never exceed the encoder's position table.
    let cap = cfg.max_len_cap.min(model.config.max_position);
    let max_len = choose_max_len(ds, train, &tokenizer, cap);
    let (train_enc, train_labels) = encode_pairs(ds, train, &tokenizer, arch, max_len);
    let (test_enc, test_labels) = encode_pairs(ds, test, &tokenizer, arch, max_len);

    // Only the classification layer is newly initialized (§5.2.2: "not
    // pre-trained").
    let head = ClassificationHead::new(hidden, dropout, init_std, &mut rng);
    let matcher = EmMatcher {
        model,
        head,
        tokenizer,
        max_len,
        eval_batch: cfg.eval_batch,
    };

    let mut params = matcher.model.parameters();
    params.extend(matcher.head.parameters());
    let mut opt = Adam::new(params).with_weight_decay(0.01);
    let steps_per_epoch = train_enc.len().div_ceil(cfg.batch_size).max(1);
    let schedule = LinearWarmupDecay {
        peak: cfg.lr,
        warmup_steps: (steps_per_epoch * cfg.epochs / 10).max(1),
        total_steps: steps_per_epoch * cfg.epochs,
    };

    let mut curve = Vec::with_capacity(cfg.epochs + 1);
    // Zero-shot evaluation: the pre-trained model with a random head.
    let zero = evaluate(&matcher, &test_enc, &test_labels);
    curve.push(EpochRecord {
        epoch: 0,
        f1: zero.f1_percent(),
        precision: zero.precision(),
        recall: zero.recall(),
        train_seconds: 0.0,
    });

    // EM training sets are heavily imbalanced (~10% matches). The paper's
    // full-size checkpoints escape the all-negative basin within one epoch;
    // our scaled-down pre-training does not provide that head start, so we
    // oversample the positive class to ~1/3 of each epoch — the standard
    // imbalance treatment, also used by our DeepMatcher trainer.
    let mut order: Vec<usize> = (0..train_enc.len()).collect();
    let pos_idx: Vec<usize> = (0..train_labels.len())
        .filter(|&i| train_labels[i] == 1)
        .collect();
    if !pos_idx.is_empty() {
        let target = train_enc.len() / 3;
        let mut count = pos_idx.len();
        while count < target {
            order.push(pos_idx[count % pos_idx.len()]);
            count += 1;
        }
    }
    let mut real_tokens: u64 = 0;
    let mut padded_tokens: u64 = 0;
    for epoch in 1..=cfg.epochs {
        // em-obs Timer always measures: EpochRecord.train_seconds and Table 6
        // need wall time even with observability disabled.
        let timer = em_obs::Timer::start("finetune/epoch");
        order.shuffle(&mut rng);
        // Length-bucketed batching: group the shuffled order by rounded
        // length so each mini-batch pads only to its own (short) maximum.
        // Bucketing is stable over the shuffled order and the batch order
        // is reshuffled, so example composition stays seeded-random; only
        // which examples share a batch changes.
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &i in &order {
            buckets
                .entry(Batch::bucket_len(&train_enc[i]))
                .or_default()
                .push(i);
        }
        let mut batches: Vec<Vec<usize>> = buckets
            .values()
            .flat_map(|idx| idx.chunks(cfg.batch_size))
            .map(<[usize]>::to_vec)
            .collect();
        batches.shuffle(&mut rng);
        for (bi, chunk) in batches.iter().enumerate() {
            let labels: Vec<usize> = chunk.iter().map(|&i| train_labels[i]).collect();
            // Index-based gather: no per-step Encoding clones.
            let batch = Batch::gather(&train_enc, chunk);
            real_tokens += batch.real_tokens() as u64;
            padded_tokens += batch.padded_tokens() as u64;
            let mut ctx = Ctx::train(cfg.seed ^ ((epoch as u64) << 24) ^ bi as u64);
            let loss = {
                let _span = em_obs::span!("finetune/forward");
                let hidden_states = matcher.model.forward(&batch, None, None, &mut ctx);
                let pooled = matcher.model.pooled_states(&hidden_states, &batch);
                let logits = matcher.head.forward(&pooled, &mut ctx);
                logits.cross_entropy(&labels, None)
            };
            {
                let _span = em_obs::span!("finetune/backward");
                opt.zero_grad();
                loss.backward();
            }
            let _span = em_obs::span!("finetune/step");
            clip_grad_norm(opt.params(), 1.0);
            opt.step(schedule.lr_at(opt.steps_taken()));
        }
        let train_seconds = timer.stop();
        // Timer::stop already fed the finetune/epoch span aggregate; the
        // explicit histogram keeps per-epoch quantiles (p50/p99 epoch
        // time) even though epochs are few.
        em_obs::histogram_record("finetune/epoch_seconds", train_seconds);
        em_obs::gauge_set(
            "finetune/examples_per_sec",
            order.len() as f64 / train_seconds.max(1e-9),
        );
        em_obs::gauge_set(
            "finetune/padding_efficiency",
            real_tokens as f64 / (padded_tokens as f64).max(1.0),
        );
        let m = evaluate(&matcher, &test_enc, &test_labels);
        curve.push(EpochRecord {
            epoch,
            f1: m.f1_percent(),
            precision: m.precision(),
            recall: m.recall(),
            train_seconds,
        });
    }

    let final_f1 = curve.last().map_or(0.0, |r| r.f1);
    let best_f1 = curve.iter().skip(1).map(|r| r.f1).fold(0.0, f64::max);
    let seconds_per_epoch = if cfg.epochs > 0 {
        curve.iter().skip(1).map(|r| r.train_seconds).sum::<f64>() / cfg.epochs as f64
    } else {
        0.0
    };
    (
        matcher,
        FineTuneResult {
            curve,
            final_f1,
            best_f1,
            seconds_per_epoch,
            padding_efficiency: if padded_tokens == 0 {
                1.0
            } else {
                real_tokens as f64 / padded_tokens as f64
            },
        },
    )
}

/// Convenience: pre-train an architecture on a corpus (with its own
/// tokenizer) and return both. This is the "download the checkpoint" step
/// of the real pipeline (see DESIGN.md's substitution table).
pub fn pretrain_for(
    arch: Architecture,
    docs: &[Vec<String>],
    vocab_size: usize,
    model_cfg: impl Fn(usize) -> TransformerConfig,
    pcfg: &PretrainConfig,
) -> (PretrainedModel, AnyTokenizer) {
    let flat: Vec<String> = docs.iter().flatten().cloned().collect();
    let tokenizer = train_tokenizer(arch, &flat, vocab_size);
    let cfg = model_cfg(tokenizer.vocab_size());
    let pretrained = pretrain(cfg, docs, &tokenizer, pcfg);
    (pretrained, tokenizer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::DatasetId;

    #[test]
    fn fine_tuning_beats_zero_shot_on_tiny_task() {
        let corpus = em_data::generate_documents(150, 0);
        let (pre, tok) = pretrain_for(
            Architecture::Bert,
            &corpus,
            400,
            |v| TransformerConfig::tiny(Architecture::Bert, v),
            &PretrainConfig {
                epochs: 1,
                batch_size: 8,
                seq_len: 24,
                ..Default::default()
            },
        );
        let ds = DatasetId::DblpAcm.generate(0.008, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let split = ds.split(&mut rng);
        let cfg = FineTuneConfig {
            epochs: 3,
            batch_size: 8,
            lr: 3e-4,
            seed: 3,
            max_len_cap: 48,
            ..Default::default()
        };
        let (_, result) = fine_tune(pre.model, tok, &ds, &split.train, &split.test, &cfg);
        assert_eq!(result.curve.len(), 4);
        assert_eq!(result.curve[0].epoch, 0);
        assert!(
            result.best_f1 >= result.curve[0].f1,
            "training should not hurt"
        );
        assert!(result.seconds_per_epoch > 0.0);
        assert!(
            result.padding_efficiency > 0.0 && result.padding_efficiency <= 1.0,
            "padding efficiency out of range: {}",
            result.padding_efficiency
        );
    }

    #[test]
    fn predictions_align_with_pairs() {
        let corpus = em_data::generate_documents(100, 4);
        let (pre, tok) = pretrain_for(
            Architecture::DistilBert,
            &corpus,
            300,
            |v| TransformerConfig::tiny(Architecture::DistilBert, v),
            &PretrainConfig {
                epochs: 1,
                batch_size: 8,
                seq_len: 16,
                ..Default::default()
            },
        );
        let ds = DatasetId::ItunesAmazon.generate(0.2, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let split = ds.split(&mut rng);
        let cfg = FineTuneConfig {
            epochs: 1,
            batch_size: 8,
            lr: 3e-4,
            seed: 7,
            max_len_cap: 32,
            ..Default::default()
        };
        let (matcher, _) = fine_tune(pre.model, tok, &ds, &split.train, &split.test, &cfg);
        let preds = matcher.predict(&ds, &split.test);
        assert_eq!(preds.len(), split.test.len());
    }

    #[test]
    fn scoring_is_chunking_invariant() {
        // Length-sorted eval chunking must not change any score: compare a
        // tiny eval batch (many heterogeneous chunks) against one big batch.
        let corpus = em_data::generate_documents(100, 8);
        let (pre, tok) = pretrain_for(
            Architecture::Bert,
            &corpus,
            300,
            |v| TransformerConfig::tiny(Architecture::Bert, v),
            &PretrainConfig {
                epochs: 1,
                batch_size: 8,
                seq_len: 16,
                ..Default::default()
            },
        );
        let ds = DatasetId::ItunesAmazon.generate(0.2, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let split = ds.split(&mut rng);
        let cfg = FineTuneConfig {
            epochs: 0,
            batch_size: 8,
            lr: 3e-4,
            seed: 11,
            max_len_cap: 32,
            ..Default::default()
        };
        let (mut matcher, _) = fine_tune(pre.model, tok, &ds, &split.train, &split.test, &cfg);
        let (enc, _) = encode_pairs(
            &ds,
            &split.test,
            &matcher.tokenizer,
            matcher.model.config.arch,
            matcher.max_len,
        );
        matcher.eval_batch = 3;
        let small = matcher.score_encodings(&enc);
        matcher.eval_batch = enc.len().max(1);
        let big = matcher.score_encodings(&enc);
        for (i, (s, b)) in small.iter().zip(&big).enumerate() {
            assert!((s - b).abs() < 1e-5, "score {i} diverged: {s} vs {b}");
        }
    }
}
