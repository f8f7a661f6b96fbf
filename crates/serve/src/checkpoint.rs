//! Checkpoint save/load for frozen matchers, on the `em-checkpoint`
//! zero-copy format.
//!
//! Saving writes every weight tensor — in whatever [`QuantMode`]
//! representation the matcher currently holds — plus the model config
//! and serving parameters as header metadata. Loading mmaps the file
//! and builds a [`FrozenMatcher`] whose embedding tables (and XLNet's
//! relative-bias table) are views *into the mapping*: no parsing, no
//! payload copy. Linear weights of both representations are repacked
//! once at load into the panel layout of their GEMM — the file stores
//! f32 weights as the dense `[in, out]` matrix and int8 weights as
//! `[out, in]` codes, and save unpacks, so the bytes on disk do not
//! depend on either kernel's layout. Biases and norm vectors, a
//! negligible fraction, are copied into owned `Vec`s because the hot
//! layer-norm kernel takes slices it can assume are dense f32.
//!
//! The tokenizer does **not** cross the checkpoint — serialized subword
//! vocabularies are a different concern with their own format. The
//! loader takes the current process's tokenizer and refuses the file if
//! its vocabulary size does not match the saved model.

use crate::frozen::{
    FrozenEmbeddings, FrozenLayer, FrozenLinear, FrozenMatcher, FrozenModel, FrozenNorm,
    FrozenRelativeBias, QuantMode, Weights,
};
use em_checkpoint::{Checkpoint, CheckpointError, CheckpointWriter, Dtype, TensorBuf};
use em_kernels::{PackedF32, PackedI8};
use em_tokenizers::{AnyTokenizer, Tokenizer};
use em_transformers::TransformerConfig;
use std::path::Path;

/// Header `format_version` this module writes and accepts.
pub const FORMAT_VERSION: &str = "1";

/// What [`load`] produced, with enough provenance for benchmarks and
/// health endpoints to report how the bytes arrived.
#[derive(Debug)]
pub struct Loaded {
    /// The reconstructed matcher.
    pub matcher: FrozenMatcher,
    /// `"mmap"` (zero-copy) or `"read"` (fallback buffer).
    pub load_mode: &'static str,
    /// Checkpoint file size in bytes.
    pub file_bytes: usize,
}

// ---- tensor naming ------------------------------------------------------

fn save_linear(w: &mut CheckpointWriter, prefix: &str, l: &FrozenLinear) {
    match &l.w {
        Weights::F32(p) => {
            let shape = vec![p.in_features(), p.out_features()];
            w.tensor(
                &format!("{prefix}.w"),
                TensorBuf::from_f32(p.unpack(), shape),
            );
        }
        Weights::Int8(p) => {
            let (k, n) = (p.in_features(), p.out_features());
            let (qt, scales) = p.unpack();
            w.tensor(&format!("{prefix}.w"), TensorBuf::from_i8(qt, vec![n, k]));
            w.tensor(
                &format!("{prefix}.scale"),
                TensorBuf::from_f32(scales, vec![n]),
            );
        }
    }
    let b = TensorBuf::from_f32(l.b.clone(), vec![l.b.len()]);
    w.tensor(&format!("{prefix}.b"), b);
}

fn load_linear(ckpt: &Checkpoint, prefix: &str) -> Result<FrozenLinear, CheckpointError> {
    let wname = format!("{prefix}.w");
    let t = ckpt.tensor(&wname)?;
    let bad = |reason: String| CheckpointError::BadTensor {
        name: wname.clone(),
        reason,
    };
    if t.shape().len() != 2 {
        return Err(bad(format!(
            "linear weights must be 2-D, got {:?}",
            t.shape()
        )));
    }
    let b = ckpt
        .tensor_typed(&format!("{prefix}.b"), Dtype::F32)?
        .as_f32()
        .to_vec();
    let w = match t.dtype() {
        Dtype::F32 => {
            if t.shape()[1] != b.len() {
                return Err(bad(format!(
                    "out width {} does not match bias length {}",
                    t.shape()[1],
                    b.len()
                )));
            }
            // Stored dense, [in, out], and packed here once for the
            // kernel.
            Weights::F32(PackedF32::pack(t.as_f32(), t.shape()[0], t.shape()[1]))
        }
        Dtype::I8 => {
            // Int8 codes are stored transposed, [out, in], and packed
            // here once for the kernel.
            let scales = ckpt.tensor_typed(&format!("{prefix}.scale"), Dtype::F32)?;
            let (n, k) = (t.shape()[0], t.shape()[1]);
            if scales.len() != n || b.len() != n {
                return Err(bad(format!(
                    "out width {n} does not match scales {} / bias {}",
                    scales.len(),
                    b.len()
                )));
            }
            if t.as_i8().iter().any(|c| !(-63..=63).contains(c)) {
                return Err(bad("int8 weight codes must lie in [-63, 63]".to_string()));
            }
            Weights::Int8(PackedI8::pack(t.as_i8(), scales.as_f32(), k, n))
        }
    };
    Ok(FrozenLinear { w, b })
}

fn save_norm(w: &mut CheckpointWriter, prefix: &str, n: &FrozenNorm) {
    let d = n.gamma.len();
    w.tensor(
        &format!("{prefix}.gamma"),
        TensorBuf::from_f32(n.gamma.clone(), vec![d]),
    );
    w.tensor(
        &format!("{prefix}.beta"),
        TensorBuf::from_f32(n.beta.clone(), vec![d]),
    );
    w.tensor(
        &format!("{prefix}.eps"),
        TensorBuf::from_f32(vec![n.eps], vec![1]),
    );
}

fn load_norm(ckpt: &Checkpoint, prefix: &str) -> Result<FrozenNorm, CheckpointError> {
    let gamma = ckpt
        .tensor_typed(&format!("{prefix}.gamma"), Dtype::F32)?
        .as_f32()
        .to_vec();
    let beta = ckpt
        .tensor_typed(&format!("{prefix}.beta"), Dtype::F32)?
        .as_f32()
        .to_vec();
    let eps_name = format!("{prefix}.eps");
    let eps = ckpt.tensor_typed(&eps_name, Dtype::F32)?;
    if eps.len() != 1 || gamma.len() != beta.len() {
        return Err(CheckpointError::BadTensor {
            name: eps_name,
            reason: "norm parameter shapes are inconsistent".to_string(),
        });
    }
    Ok(FrozenNorm {
        gamma,
        beta,
        eps: eps.as_f32()[0],
    })
}

// ---- save ---------------------------------------------------------------

/// Serialize `matcher` to the checkpoint at `path` (atomically replaced
/// only in the sense of a full rewrite — partial writes surface as
/// typed truncation errors on load, never as silently wrong weights).
pub fn save(matcher: &FrozenMatcher, path: &Path) -> Result<(), CheckpointError> {
    let model = &matcher.model;
    let mut w = CheckpointWriter::new();
    w.metadata("format_version", FORMAT_VERSION);
    let config = serde_json::to_string(&model.config)
        .map_err(|e| CheckpointError::Metadata(format!("config serialization failed: {e}")))?;
    w.metadata("config", &config);
    w.metadata("quant", model.quant().name());
    w.metadata("max_len", &matcher.max_len.to_string());
    w.metadata("eval_batch", &matcher.eval_batch.to_string());
    w.metadata("vocab_size", &matcher.tokenizer.vocab_size().to_string());

    w.tensor("emb.token", model.embeddings.token.clone());
    if let Some(p) = &model.embeddings.position {
        w.tensor("emb.position", p.clone());
    }
    if let Some(s) = &model.embeddings.segment {
        w.tensor("emb.segment", s.clone());
    }
    save_norm(&mut w, "emb.norm", &model.embeddings.norm);
    for (i, layer) in model.layers.iter().enumerate() {
        save_linear(&mut w, &format!("layer{i}.qkv"), &layer.qkv);
        save_linear(&mut w, &format!("layer{i}.o"), &layer.o);
        save_norm(&mut w, &format!("layer{i}.norm1"), &layer.norm1);
        save_linear(&mut w, &format!("layer{i}.fc1"), &layer.fc1);
        save_linear(&mut w, &format!("layer{i}.fc2"), &layer.fc2);
        save_norm(&mut w, &format!("layer{i}.norm2"), &layer.norm2);
    }
    if let Some(rel) = &model.relative {
        w.tensor("rel.table", rel.table.clone());
    }
    save_linear(&mut w, "pooler", &model.pooler);
    save_linear(&mut w, "head", &matcher.head);
    w.write_to(path)
}

// ---- load ---------------------------------------------------------------

fn meta<'a>(ckpt: &'a Checkpoint, key: &str) -> Result<&'a str, CheckpointError> {
    ckpt.metadata(key)
        .ok_or_else(|| CheckpointError::Metadata(format!("missing metadata key {key:?}")))
}

fn meta_usize(ckpt: &Checkpoint, key: &str) -> Result<usize, CheckpointError> {
    meta(ckpt, key)?
        .parse()
        .map_err(|_| CheckpointError::Metadata(format!("metadata {key:?} is not an integer")))
}

/// Load the checkpoint at `path` into a [`FrozenMatcher`] using the
/// caller's `tokenizer` (validated against the saved vocabulary size).
pub fn load(path: &Path, tokenizer: AnyTokenizer) -> Result<Loaded, CheckpointError> {
    let ckpt = Checkpoint::open(path)?;
    let version = meta(&ckpt, "format_version")?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Metadata(format!(
            "format_version {version:?} is not supported (expected {FORMAT_VERSION:?})"
        )));
    }
    let config: TransformerConfig = serde_json::from_str(meta(&ckpt, "config")?)
        .map_err(|e| CheckpointError::Metadata(format!("config does not parse: {e}")))?;
    let quant = QuantMode::parse(meta(&ckpt, "quant")?).ok_or_else(|| {
        CheckpointError::Metadata(format!("unknown quant mode {:?}", ckpt.metadata("quant")))
    })?;
    let max_len = meta_usize(&ckpt, "max_len")?;
    let eval_batch = meta_usize(&ckpt, "eval_batch")?;
    let vocab_size = meta_usize(&ckpt, "vocab_size")?;
    if tokenizer.vocab_size() != vocab_size {
        return Err(CheckpointError::Metadata(format!(
            "checkpoint was saved with a {vocab_size}-token vocabulary; the supplied \
             tokenizer has {}",
            tokenizer.vocab_size()
        )));
    }

    let token = ckpt.tensor_typed("emb.token", Dtype::F32)?;
    if token.shape() != [config.vocab_size, config.hidden] {
        return Err(CheckpointError::BadTensor {
            name: "emb.token".to_string(),
            reason: format!(
                "shape {:?} does not match config [{}, {}]",
                token.shape(),
                config.vocab_size,
                config.hidden
            ),
        });
    }
    let position = if ckpt.has("emb.position") {
        Some(ckpt.tensor_typed("emb.position", Dtype::F32)?)
    } else {
        None
    };
    let segment = if ckpt.has("emb.segment") {
        Some(ckpt.tensor_typed("emb.segment", Dtype::F32)?)
    } else {
        None
    };
    let embeddings = FrozenEmbeddings {
        token,
        position,
        segment,
        norm: load_norm(&ckpt, "emb.norm")?,
    };

    let mut layers = Vec::with_capacity(config.layers);
    for i in 0..config.layers {
        layers.push(FrozenLayer {
            qkv: load_linear(&ckpt, &format!("layer{i}.qkv"))?,
            o: load_linear(&ckpt, &format!("layer{i}.o"))?,
            heads: config.heads,
            norm1: load_norm(&ckpt, &format!("layer{i}.norm1"))?,
            fc1: load_linear(&ckpt, &format!("layer{i}.fc1"))?,
            fc2: load_linear(&ckpt, &format!("layer{i}.fc2"))?,
            norm2: load_norm(&ckpt, &format!("layer{i}.norm2"))?,
        });
    }

    let relative = if config.relative_positions {
        let table = ckpt.tensor_typed("rel.table", Dtype::F32)?;
        let width = 2 * config.relative_clamp + 1;
        if table.shape() != [config.heads, width] {
            return Err(CheckpointError::BadTensor {
                name: "rel.table".to_string(),
                reason: format!(
                    "shape {:?} does not match config [{}, {width}]",
                    table.shape(),
                    config.heads
                ),
            });
        }
        Some(FrozenRelativeBias::new(
            table,
            config.relative_clamp,
            config.heads,
        ))
    } else {
        None
    };

    let model = FrozenModel {
        config,
        quant,
        embeddings,
        layers,
        relative,
        pooler: load_linear(&ckpt, "pooler")?,
    };
    let matcher = FrozenMatcher {
        model,
        head: load_linear(&ckpt, "head")?,
        tokenizer,
        max_len,
        eval_batch,
    };
    Ok(Loaded {
        matcher,
        load_mode: ckpt.load_mode(),
        file_bytes: ckpt.file_len(),
    })
}

impl FrozenMatcher {
    /// Save this matcher to an `em-checkpoint` file; see [`save`].
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        save(self, path)
    }

    /// Load a matcher from an `em-checkpoint` file; see [`load`].
    pub fn load_checkpoint(
        path: &Path,
        tokenizer: AnyTokenizer,
    ) -> Result<FrozenMatcher, CheckpointError> {
        load(path, tokenizer).map(|l| l.matcher)
    }
}
