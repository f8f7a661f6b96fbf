//! em-kernels: the single SIMD compute backend for the workspace.
//!
//! Until this crate existed the tree carried two GEMMs — a scalar `ikj`
//! loop in `em-tensor` that training used, and an AVX2+FMA kernel in
//! `em-serve` that only inference could reach. em-kernels merges them:
//! one register-blocked, runtime-dispatched GEMM in the three transpose
//! variants autograd needs ([`gemm_nn`], [`gemm_nt`], [`gemm_tn`]) plus
//! the frozen forward's GEMMs over weights packed once into panels
//! ([`gemm_packed_f32`], [`gemm_packed_i8`]), one
//! set of polynomial softmax/GELU/layer-norm kernels with forward *and*
//! backward forms, and one persistent [`pool`] that replaces both the
//! spawn-per-call threading in training matmul and the oversubscription
//! between serve workers and intra-op threads.
//!
//! `em-tensor` builds its autograd ops on these kernels and `em-serve`
//! consumes them directly for the frozen forward pass.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod gemm;
pub mod math;
pub mod pool;
pub mod qgemm;

pub use gemm::{gemm_nn, gemm_nt, gemm_packed_f32, gemm_tn, simd_kind, Act, PackedF32};
pub use math::{
    attn_softmax_rows, exp_approx, gelu, gelu_backward, layer_norm_backward, layer_norm_forward,
    layer_norm_rows, log_softmax_rows, residual_layer_norm_rows, softmax_backward_rows,
    softmax_rows, softmax_rows_biased, tanh_approx,
};
pub use qgemm::{
    dequantize_rows_i8, gemm_nt_i8_dyn, gemm_packed_i8, quantize_weights_i8, PackedI8,
};
