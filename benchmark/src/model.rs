//! The serve-side bench model: the repo's serving geometry with seeded
//! random weights over a tokenizer trained on catalog text. Speed does
//! not depend on training, so nothing here is fine-tuned.

use crate::spec::Sizes;
use em_core::train_tokenizer;
use em_data::CatalogTables;
use em_serve::{freeze_parts, FrozenMatcher};
use em_tokenizers::{AnyTokenizer, Encoding, Tokenizer};
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weights are part of the program under test, not of its inputs: they
/// never follow `--seed`.
const WEIGHT_SEED: u64 = 0x00E3_BE7C;

/// Train the WordPiece tokenizer on catalog rows. Like the weights, the
/// vocabulary is part of the program under test: its text never follows
/// `--seed`, so two seeds tokenize with the same model.
pub fn catalog_tokenizer(sizes: &Sizes) -> AnyTokenizer {
    let rows = sizes.tokenizer_rows;
    let tables = CatalogTables::new(rows, rows, WEIGHT_SEED);
    let corpus: Vec<String> = (0..rows)
        .map(|i| {
            if i % 2 == 0 {
                tables.row_a(i).text
            } else {
                tables.row_b(i).text
            }
        })
        .collect();
    train_tokenizer(Architecture::Bert, &corpus, sizes.vocab)
}

/// The bench matcher in f32: BERT at the sizes' geometry, frozen.
pub fn bench_matcher(tokenizer: AnyTokenizer, sizes: &Sizes) -> FrozenMatcher {
    let mut cfg = TransformerConfig::small(Architecture::Bert, tokenizer.vocab_size());
    cfg.hidden = sizes.hidden;
    cfg.inner = sizes.inner;
    cfg.layers = sizes.layers;
    cfg.heads = sizes.heads;
    cfg.max_position = cfg.max_position.max(sizes.max_len);
    let model = TransformerModel::new(cfg, WEIGHT_SEED);
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    let head = ClassificationHead::new(sizes.hidden, 0.1, 0.02, &mut rng);
    freeze_parts(&model, &head, tokenizer, sizes.max_len)
}

/// Text pairs that between them produce every input length the model
/// accepts, so one pass over them builds every plan and fills every lazy
/// buffer a timed window could otherwise be first to need.
pub fn warmup_pairs(tables: &CatalogTables, max_len: usize) -> Vec<(String, String)> {
    let n = tables.len_a().min(tables.len_b());
    let mut words: Vec<String> = Vec::new();
    let mut i = 0;
    while words.len() < max_len && i < n {
        words.extend(tables.row_a(i).text.split_whitespace().map(String::from));
        i += 1;
    }
    (0..=words.len())
        .map(|k| (words[..k / 2].join(" "), words[k / 2..k].join(" ")))
        .collect()
}

/// A synthetic encoding of exactly `len` real tokens (no padding), for
/// timing the forward at a fixed shape.
pub fn synth_encoding(rng: &mut StdRng, len: usize, vocab: usize) -> Encoding {
    let split = rng.gen_range(1..len);
    Encoding {
        ids: (0..len).map(|_| rng.gen_range(1..vocab as u32)).collect(),
        segments: (0..len).map(|i| u8::from(i >= split)).collect(),
        mask: vec![1u8; len],
        cls_index: 0,
        pad_id: 0,
    }
}
