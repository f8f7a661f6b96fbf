//! Frozen model export: copy weights out of the `Rc`-based autograd graph
//! into plain `Send + Sync` buffers for the inference-only forward pass.
//!
//! The autograd [`TransformerModel`] cannot cross threads — its tensors are
//! `Rc` handles onto a single-threaded tape. A [`FrozenModel`] holds the
//! same weights as raw buffers (which are `Send + Sync`), so one model
//! behind an `Arc` serves any number of worker threads. This module owns
//! the weights and their representations (f32 / int8); the forward
//! pass over them is the `em-graph` replay driven by [`Executor`]. It
//! computes the same function as the autograd eval path — same op order,
//! same layer-norm/softmax/GELU formulas — through the shared
//! `em-kernels` crate: one register-blocked GEMM per projection with the
//! bias in the epilogue, the Q/K/V projections merged into a single
//! matrix product, K written pre-transposed, and polynomial `exp`/`tanh`
//! in softmax and GELU. Frozen logits therefore reproduce autograd
//! logits to within float-rounding — the equivalence tests assert 1e-5
//! across all four architectures — while running several times faster
//! per example than the autograd batch-1 path.

use std::cell::RefCell;
use std::sync::Arc;

use em_checkpoint::TensorBuf;
use em_core::EmMatcher;
use em_data::{Dataset, EntityPair};
use em_kernels::{
    dequantize_rows_i8, gemm_packed_f32, gemm_packed_i8, layer_norm_rows, quantize_weights_i8, Act,
    PackedF32, PackedI8,
};
use em_nn::Linear;
use em_tensor::Array;
use em_tokenizers::{encode_pair, AnyTokenizer, ClsPosition, Encoding};
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};

use crate::executor::{ExecBackend, Executor};

/// Numeric representation of a frozen model's linear weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision `f32` weights: what freezing produces, and the
    /// oracle every int8 result is checked against.
    F32,
    /// Symmetric per-output-row int8 weights with dynamic per-row
    /// activation quantization (integer dot, float epilogue).
    Int8,
}

impl QuantMode {
    /// Stable lowercase name (used in checkpoints, flags and metrics).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::Int8 => "int8",
        }
    }

    /// Parse a [`QuantMode::name`] back.
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "f32" => Some(QuantMode::F32),
            "int8" => Some(QuantMode::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The weight payload of one dense layer, in whichever representation
/// the model was quantized to, each packed once — at freeze, quantize or
/// checkpoint load — into the panel layout its GEMM reads. Checkpoints
/// store the unpacked matrices, so the file bytes do not depend on
/// either kernel's layout.
#[derive(Debug, Clone)]
pub(crate) enum Weights {
    /// f32 weights packed into em-kernels' panel layout. Checkpoints
    /// store the dense `[in, out]` matrix.
    F32(PackedF32),
    /// Int8 codes (±63) with one scale per output column, packed into
    /// em-kernels' panel layout. Because the scale is constant along the
    /// reduction axis the i32 accumulation is exact. Checkpoints store
    /// the unpacked `[out, in]` codes.
    Int8(PackedI8),
}

/// An inference-only dense layer: `y = x·W + b`, with `W` stored in any
/// [`QuantMode`] representation.
#[derive(Debug, Clone)]
pub struct FrozenLinear {
    pub(crate) w: Weights,
    pub(crate) b: Vec<f32>,
}

impl From<&Linear> for FrozenLinear {
    fn from(l: &Linear) -> Self {
        l.w.with_value(|w| FrozenLinear::from_f32(w.data(), w.shape(), l.b.value().into_vec()))
    }
}

impl FrozenLinear {
    /// Build a full-precision layer from a `[in, out]` weight buffer,
    /// packed once for the kernel.
    pub fn from_f32(w: &[f32], shape: &[usize], b: Vec<f32>) -> FrozenLinear {
        assert_eq!(shape.len(), 2, "linear weights must be 2-D");
        assert_eq!(b.len(), shape[1], "bias length must match out features");
        FrozenLinear {
            w: Weights::F32(PackedF32::pack(w, shape[0], shape[1])),
            b,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        match &self.w {
            Weights::F32(p) => p.in_features(),
            Weights::Int8(p) => p.in_features(),
        }
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        match &self.w {
            Weights::F32(p) => p.out_features(),
            Weights::Int8(p) => p.out_features(),
        }
    }

    /// Representation the weights are currently stored in.
    pub fn mode(&self) -> QuantMode {
        match &self.w {
            Weights::F32(_) => QuantMode::F32,
            Weights::Int8(_) => QuantMode::Int8,
        }
    }

    /// Weight + bias + scale bytes actually resident for this layer.
    pub fn weight_bytes(&self) -> usize {
        let w = match &self.w {
            Weights::F32(p) => p.byte_len(),
            Weights::Int8(p) => p.byte_len(),
        };
        w + self.b.len() * 4
    }

    /// The weights widened back to a dense `[in, out]` f32 buffer.
    fn dense(&self) -> Vec<f32> {
        let (k, n) = (self.in_features(), self.out_features());
        match &self.w {
            Weights::F32(p) => p.unpack(),
            Weights::Int8(p) => {
                // Codes are [n, k]; dequantize then transpose back to [k, n].
                let (qt, scales) = p.unpack();
                let wt = dequantize_rows_i8(&qt, k, &scales);
                let mut w = vec![0.0f32; k * n];
                for j in 0..n {
                    for p in 0..k {
                        w[p * n + j] = wt[j * k + p];
                    }
                }
                w
            }
        }
    }

    /// Re-encode the weights in `mode`, starting from the widened dense
    /// form (int8 → f32 dequantizes; f32 → int8 quantizes per column).
    pub fn quantize(&self, mode: QuantMode) -> FrozenLinear {
        if mode == self.mode() {
            return self.clone();
        }
        let (k, n) = (self.in_features(), self.out_features());
        let dense = self.dense();
        let w = match mode {
            QuantMode::F32 => Weights::F32(PackedF32::pack(&dense, k, n)),
            QuantMode::Int8 => {
                // Transpose to [n, k] so each output row is contiguous,
                // then quantize per output row.
                let mut wt = vec![0.0f32; n * k];
                for p in 0..k {
                    for j in 0..n {
                        wt[j * k + p] = dense[p * n + j];
                    }
                }
                let mut qt = vec![0i8; n * k];
                let mut scales = vec![0.0f32; n];
                // ±63 codes: the range the integer GEMM's i16 intermediate
                // is saturation-proof for (see em-kernels::quantize_weights_i8).
                quantize_weights_i8(&wt, k, &mut qt, &mut scales);
                Weights::Int8(PackedI8::pack(&qt, &scales, k, n))
            }
        };
        FrozenLinear {
            w,
            b: self.b.clone(),
        }
    }

    /// Apply to `rows` flat row-major input rows through the kernel
    /// matching the stored representation, with the elementwise epilogue
    /// `act` fused into the GEMM's row-block loop — both representations
    /// (f32, int8) apply it per block, so the planned `Linear+GELU`
    /// fusion stays quant-aware with no extra pass.
    pub(crate) fn forward_flat(&self, x: &[f32], out: &mut [f32], rows: usize, act: Act) {
        match &self.w {
            Weights::F32(p) => gemm_packed_f32(x, p, Some(&self.b), out, rows, act),
            Weights::Int8(p) => gemm_packed_i8(x, p, Some(&self.b), out, rows, act),
        }
    }
}

/// Inference-only layer norm parameters.
#[derive(Debug, Clone)]
pub(crate) struct FrozenNorm {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) eps: f32,
}

impl FrozenNorm {
    fn from_norm(n: &em_nn::LayerNorm) -> Self {
        Self {
            gamma: n.gamma.value().into_vec(),
            beta: n.beta.value().into_vec(),
            eps: n.eps,
        }
    }
}

/// Inference-only input embedding block (token + position + segment + norm).
/// Tables stay f32 in every quant mode — they are gathered row-by-row,
/// never multiplied, so shrinking them buys little and costs accuracy.
#[derive(Debug, Clone)]
pub(crate) struct FrozenEmbeddings {
    pub(crate) token: TensorBuf,
    pub(crate) position: Option<TensorBuf>,
    pub(crate) segment: Option<TensorBuf>,
    pub(crate) norm: FrozenNorm,
}

impl FrozenEmbeddings {
    /// Mirror of `InputEmbeddings::forward` in eval mode (no dropout, no
    /// blanking — blanking is a pre-training-only concern), written as
    /// the flat `[b*t, d]` hidden-state buffer the encoder stack works
    /// in. `x` is caller-owned and resized (no zeroing needed — the
    /// token gather overwrites every element), so a reused workspace
    /// makes the embedding stage allocation-free at steady state.
    pub(crate) fn forward_into(
        &self,
        ids: &[Vec<usize>],
        segments: &[Vec<usize>],
        x: &mut Vec<f32>,
    ) {
        let b = ids.len();
        let t = ids.first().map_or(0, Vec::len);
        let d = self.norm.gamma.len();
        let vocab = self.token.shape()[0];
        let token = self.token.as_f32();
        x.resize(b * t * d, 0.0);
        let x = &mut x[..];
        for (bi, row) in ids.iter().enumerate() {
            for (ti, &id) in row.iter().enumerate() {
                assert!(id < vocab, "token id {id} out of range {vocab}");
                x[(bi * t + ti) * d..(bi * t + ti + 1) * d]
                    .copy_from_slice(&token[id * d..(id + 1) * d]);
            }
        }
        if let Some(pos) = &self.position {
            assert!(
                t <= pos.shape()[0],
                "sequence length {t} exceeds the position table ({})",
                pos.shape()[0]
            );
            let pd = pos.as_f32();
            for bi in 0..b {
                for ti in 0..t {
                    let dst = &mut x[(bi * t + ti) * d..(bi * t + ti + 1) * d];
                    for (v, &p) in dst.iter_mut().zip(&pd[ti * d..(ti + 1) * d]) {
                        *v += p;
                    }
                }
            }
        }
        if let Some(seg) = &self.segment {
            let max = seg.shape()[0] - 1;
            let sd = seg.as_f32();
            for (bi, row) in segments.iter().enumerate() {
                for (ti, &s) in row.iter().enumerate() {
                    let sid = s.min(max);
                    let dst = &mut x[(bi * t + ti) * d..(bi * t + ti + 1) * d];
                    for (v, &p) in dst.iter_mut().zip(&sd[sid * d..(sid + 1) * d]) {
                        *v += p;
                    }
                }
            }
        }
        layer_norm_rows(x, &self.norm.gamma, &self.norm.beta, self.norm.eps);
    }
}

/// Inference-only multi-head attention + FFN encoder layer with the Q/K/V
/// projections fused into one `[d, 3d]` matrix.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLayer {
    /// Fused `[d, 3d]` Q|K|V projection.
    pub(crate) qkv: FrozenLinear,
    pub(crate) o: FrozenLinear,
    pub(crate) heads: usize,
    pub(crate) norm1: FrozenNorm,
    pub(crate) fc1: FrozenLinear,
    pub(crate) fc2: FrozenLinear,
    pub(crate) norm2: FrozenNorm,
}

impl FrozenLayer {
    fn fuse_qkv(q: &Linear, k: &Linear, v: &Linear) -> FrozenLinear {
        let (qw, kw, vw) = (q.w.value(), k.w.value(), v.w.value());
        let d = qw.shape()[0];
        let n = qw.shape()[1];
        let mut w = Vec::with_capacity(d * 3 * n);
        for r in 0..d {
            w.extend_from_slice(&qw.data()[r * n..(r + 1) * n]);
            w.extend_from_slice(&kw.data()[r * n..(r + 1) * n]);
            w.extend_from_slice(&vw.data()[r * n..(r + 1) * n]);
        }
        let mut b = q.b.value().into_vec();
        b.extend(k.b.value().into_vec());
        b.extend(v.b.value().into_vec());
        FrozenLinear::from_f32(&w, &[d, 3 * n], b)
    }
}

/// Inference-only relative-position bias table (XLNet).
#[derive(Debug)]
pub(crate) struct FrozenRelativeBias {
    /// `[heads, 2*clamp+1]` bias table.
    pub(crate) table: TensorBuf,
    pub(crate) clamp: usize,
    pub(crate) heads: usize,
    /// Expanded `[heads*t*t]` bias per sequence length, materialized on
    /// first use. The expansion is pure table lookup, identical every
    /// call, and serving sees a handful of bucket lengths, so this is a
    /// tiny map. Living on the bias itself (not keyed by model pointer in
    /// the executor) means a hot-swapped model can never observe a stale
    /// expansion.
    cache: std::sync::Mutex<std::collections::HashMap<usize, Arc<Vec<f32>>>>,
}

impl Clone for FrozenRelativeBias {
    fn clone(&self) -> Self {
        // A fresh, empty cache: clones (quantize, swap staging) re-expand
        // lazily rather than sharing a lock with the serving copy.
        FrozenRelativeBias::new(self.table.clone(), self.clamp, self.heads)
    }
}

impl FrozenRelativeBias {
    pub(crate) fn new(table: TensorBuf, clamp: usize, heads: usize) -> Self {
        FrozenRelativeBias {
            table,
            clamp,
            heads,
            cache: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Mirror of `RelativeBias::bias_for`, flattened to `[heads*t*t]`
    /// for sequence length `t`, shared and cached. An `Arc` clone on the
    /// hit path — no allocation, no copy.
    pub(crate) fn bias_flat(&self, t: usize) -> Arc<Vec<f32>> {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(cache.entry(t).or_insert_with(|| {
            let clamp = self.clamp as isize;
            let width = 2 * self.clamp + 1;
            let data = self.table.as_f32();
            let mut out = Vec::with_capacity(self.heads * t * t);
            for h in 0..self.heads {
                for i in 0..t {
                    for j in 0..t {
                        let d = (i as isize - j as isize).clamp(-clamp, clamp) + clamp;
                        out.push(data[h * width + d as usize]);
                    }
                }
            }
            Arc::new(out)
        }))
    }
}

/// A frozen transformer encoder: the weights of a [`TransformerModel`]
/// copied into `Send + Sync` buffers with an inference-only forward pass.
///
/// Build one with `FrozenModel::from(&model)`; share it across worker
/// threads via `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    /// The configuration the source model was built from.
    pub config: TransformerConfig,
    pub(crate) quant: QuantMode,
    pub(crate) embeddings: FrozenEmbeddings,
    pub(crate) layers: Vec<FrozenLayer>,
    pub(crate) relative: Option<FrozenRelativeBias>,
    pub(crate) pooler: FrozenLinear,
}

fn table_buf(a: Array) -> TensorBuf {
    let shape = a.shape().to_vec();
    TensorBuf::from_f32(a.into_vec(), shape)
}

impl From<&TransformerModel> for FrozenModel {
    fn from(m: &TransformerModel) -> Self {
        let emb = &m.embeddings;
        Self {
            config: m.config.clone(),
            quant: QuantMode::F32,
            embeddings: FrozenEmbeddings {
                token: table_buf(emb.token().table.value()),
                position: emb.position().map(|p| table_buf(p.table.value())),
                segment: emb.segment().map(|s| table_buf(s.table.value())),
                norm: FrozenNorm::from_norm(emb.norm()),
            },
            layers: m
                .layers
                .iter()
                .map(|l| FrozenLayer {
                    qkv: FrozenLayer::fuse_qkv(&l.attention.q, &l.attention.k, &l.attention.v),
                    o: FrozenLinear::from(&l.attention.o),
                    heads: l.attention.heads,
                    norm1: FrozenNorm::from_norm(&l.norm1),
                    fc1: FrozenLinear::from(&l.ffn.fc1),
                    fc2: FrozenLinear::from(&l.ffn.fc2),
                    norm2: FrozenNorm::from_norm(&l.norm2),
                })
                .collect(),
            relative: m
                .relative
                .as_ref()
                .map(|r| FrozenRelativeBias::new(table_buf(r.table.value()), r.clamp(), r.heads())),
            pooler: FrozenLinear::from(&m.pooler),
        }
    }
}

impl FrozenModel {
    /// Total number of frozen scalar weights (independent of the stored
    /// representation — int8 quantization scales are derived values and
    /// not counted).
    pub fn num_parameters(&self) -> usize {
        let lin = |l: &FrozenLinear| l.in_features() * l.out_features() + l.b.len();
        let norm = |n: &FrozenNorm| n.gamma.len() + n.beta.len();
        let emb = self.embeddings.token.len()
            + self.embeddings.position.as_ref().map_or(0, TensorBuf::len)
            + self.embeddings.segment.as_ref().map_or(0, TensorBuf::len)
            + norm(&self.embeddings.norm);
        let layers: usize = self
            .layers
            .iter()
            .map(|l| {
                lin(&l.qkv)
                    + lin(&l.o)
                    + lin(&l.fc1)
                    + lin(&l.fc2)
                    + norm(&l.norm1)
                    + norm(&l.norm2)
            })
            .sum();
        emb + layers + self.relative.as_ref().map_or(0, |r| r.table.len()) + lin(&self.pooler)
    }

    /// Representation the encoder's linear weights are stored in.
    pub fn quant(&self) -> QuantMode {
        self.quant
    }

    /// Re-encode every linear weight in `mode`. Embeddings, norms and
    /// the relative-bias table stay f32; attention score/context GEMMs
    /// are activation-activation and unaffected. Conversion widens back
    /// to f32 first, so chained conversions never compound error.
    pub fn quantize(&self, mode: QuantMode) -> FrozenModel {
        FrozenModel {
            config: self.config.clone(),
            quant: mode,
            embeddings: self.embeddings.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| FrozenLayer {
                    qkv: l.qkv.quantize(mode),
                    o: l.o.quantize(mode),
                    heads: l.heads,
                    norm1: l.norm1.clone(),
                    fc1: l.fc1.quantize(mode),
                    fc2: l.fc2.quantize(mode),
                    norm2: l.norm2.clone(),
                })
                .collect(),
            relative: self.relative.clone(),
            pooler: self.pooler.quantize(mode),
        }
    }

    /// Bytes of weight data the encoder touches per forward pass —
    /// the working-set number that quantization shrinks.
    pub fn weight_bytes(&self) -> usize {
        let norm = |n: &FrozenNorm| (n.gamma.len() + n.beta.len()) * 4;
        let emb = self.embeddings.token.byte_len()
            + self
                .embeddings
                .position
                .as_ref()
                .map_or(0, TensorBuf::byte_len)
            + self
                .embeddings
                .segment
                .as_ref()
                .map_or(0, TensorBuf::byte_len)
            + norm(&self.embeddings.norm);
        let layers: usize = self
            .layers
            .iter()
            .map(|l| {
                l.qkv.weight_bytes()
                    + l.o.weight_bytes()
                    + l.fc1.weight_bytes()
                    + l.fc2.weight_bytes()
                    + norm(&l.norm1)
                    + norm(&l.norm2)
            })
            .sum();
        emb + layers
            + self.relative.as_ref().map_or(0, |r| r.table.byte_len())
            + self.pooler.weight_bytes()
    }
}

/// A complete frozen entity matcher: encoder, classification head,
/// tokenizer and input length — everything inference needs, all
/// `Send + Sync`. The serving twin of [`EmMatcher`].
#[derive(Debug, Clone)]
pub struct FrozenMatcher {
    /// Frozen encoder.
    pub model: FrozenModel,
    /// Frozen two-class classifier layer.
    pub head: FrozenLinear,
    /// The tokenizer the encoder was pre-trained with.
    pub tokenizer: AnyTokenizer,
    /// Input length used at fine-tuning time — the model's position-table
    /// span. Encodings scored by this matcher may be any length up to it;
    /// batches pad dynamically to their own maximum.
    pub max_len: usize,
    /// Examples per forward pass on the bulk [`Predictor`](em_core::Predictor)
    /// path, copied from the source matcher's `eval_batch` so frozen
    /// prediction chunks exactly like the autograd eval path it replaces.
    pub eval_batch: usize,
}

impl From<&EmMatcher> for FrozenMatcher {
    fn from(m: &EmMatcher) -> Self {
        Self {
            model: FrozenModel::from(&m.model),
            head: FrozenLinear::from(m.head.classifier()),
            tokenizer: m.tokenizer.clone(),
            max_len: m.max_len,
            eval_batch: m.eval_batch,
        }
    }
}

impl FrozenMatcher {
    /// Representation the matcher's linear weights are stored in.
    pub fn quant(&self) -> QuantMode {
        self.model.quant()
    }

    /// Re-encode encoder and head weights in `mode`; tokenizer, lengths
    /// and batch sizing are unchanged, so a quantized matcher is a
    /// drop-in replacement wherever the f32 one was serving.
    pub fn quantize(&self, mode: QuantMode) -> FrozenMatcher {
        FrozenMatcher {
            model: self.model.quantize(mode),
            head: self.head.quantize(mode),
            tokenizer: self.tokenizer.clone(),
            max_len: self.max_len,
            eval_batch: self.eval_batch,
        }
    }

    /// Bytes of weight data touched per forward pass (encoder + head).
    pub fn weight_bytes(&self) -> usize {
        self.model.weight_bytes() + self.head.weight_bytes()
    }

    /// Where the CLS token sits for this matcher's architecture.
    pub fn cls_position(&self) -> ClsPosition {
        match self.model.config.arch {
            Architecture::Xlnet => ClsPosition::Last,
            _ => ClsPosition::First,
        }
    }

    /// Encode one entity pair to this matcher's input format.
    pub fn encode(&self, ds: &Dataset, pair: &EntityPair) -> Encoding {
        encode_pair(
            &self.tokenizer,
            &ds.serialize_record(&pair.a),
            &ds.serialize_record(&pair.b),
            self.max_len,
            self.cls_position(),
        )
    }

    /// Positive-class match probability per encoding, as one batch padded
    /// dynamically to the batch maximum. Encodings may be ragged; none may
    /// exceed this matcher's `max_len`. Runs on the calling thread's own
    /// [`Executor`], so repeated geometries replay a cached plan.
    pub fn score_encodings(&self, encodings: &[Encoding]) -> Vec<f32> {
        thread_local! {
            static EXECUTOR: RefCell<Executor> = RefCell::new(Executor::new(ExecBackend::Graph));
        }
        EXECUTOR.with(|exec| exec.borrow_mut().score_encodings(self, encodings))
    }
}

impl em_core::Predictor for FrozenMatcher {
    fn predict_scores(&self, ds: &Dataset, pairs: &[EntityPair]) -> Vec<f32> {
        let encodings: Vec<Encoding> = pairs.iter().map(|p| self.encode(ds, p)).collect();
        // Chunked by `eval_batch` like the autograd eval path so peak
        // memory stays flat, and length-sorted so each chunk pads only to
        // its own (short) maximum; scores return in the original order.
        let mut by_len: Vec<usize> = (0..encodings.len()).collect();
        by_len.sort_by_key(|&i| encodings[i].real_span());
        let mut out = vec![0.0f32; encodings.len()];
        for chunk in by_len.chunks(self.eval_batch.max(1)) {
            let group: Vec<Encoding> = chunk.iter().map(|&i| encodings[i].clone()).collect();
            for (&orig, score) in chunk.iter().zip(self.score_encodings(&group)) {
                out[orig] = score;
            }
        }
        out
    }
}

/// Compile-time proof that frozen models cross threads: referenced by the
/// serve matcher, which shares one `Arc<FrozenMatcher>` across workers.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenModel>();
    check::<FrozenMatcher>();
}

/// Build a frozen matcher straight from model parts (used by tests and
/// the bench harness; production callers freeze a fine-tuned
/// [`EmMatcher`]).
pub fn freeze_parts(
    model: &TransformerModel,
    head: &ClassificationHead,
    tokenizer: AnyTokenizer,
    max_len: usize,
) -> FrozenMatcher {
    FrozenMatcher {
        model: FrozenModel::from(model),
        head: FrozenLinear::from(head.classifier()),
        tokenizer,
        max_len,
        eval_batch: 32,
    }
}
