//! # em-checkpoint
//!
//! A zero-copy on-disk tensor format in the safetensors style, built for
//! the frozen serving models: one small JSON header describing every
//! tensor (`dtype`, `shape`, byte offsets) followed by one raw
//! little-endian payload with each tensor 64-byte aligned.
//!
//! ```text
//! [ u64 LE: header length H ][ H bytes of JSON (space-padded) ][ payload ]
//! ```
//!
//! The design goal is that **loading never parses weights**: the file is
//! `mmap`ed (on Linux/x86-64; read into an aligned buffer elsewhere or
//! with `EM_CHECKPOINT_NO_MMAP=1`) and every tensor is a typed slice
//! *into the mapping* — a pointer cast, not a copy, not a decode loop.
//! Only the JSON header (a few KB) is parsed. Tensors come out as
//! [`TensorBuf`]s: shared, immutable, `Send + Sync` views that keep the
//! mapping alive through an `Arc`.
//!
//! The header is validated before any tensor is handed out — dtype and
//! shape consistency, offset bounds, alignment — and every failure mode
//! (truncated file, corrupt header, shape/offset lies) is a typed
//! [`CheckpointError`], never a panic and never an out-of-bounds read.
//!
//! Byte order: the payload is little-endian on disk. Loading on a
//! big-endian host is refused with [`CheckpointError::Unsupported`]
//! rather than silently mis-read (every tier-1 target is LE).
//!
//! ```no_run
//! use em_checkpoint::{Checkpoint, CheckpointWriter, TensorBuf};
//!
//! # fn demo() -> Result<(), em_checkpoint::CheckpointError> {
//! let mut w = CheckpointWriter::new();
//! w.metadata("quant", "int8");
//! w.tensor("emb.token", TensorBuf::from_f32(vec![0.0; 12], vec![3, 4]));
//! w.write_to("model.emck".as_ref())?;
//!
//! let ckpt = Checkpoint::open("model.emck".as_ref())?;
//! let t = ckpt.tensor("emb.token")?; // zero-copy view into the mapping
//! assert_eq!(t.shape(), &[3, 4]);
//! let _weights: &[f32] = t.as_f32();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod buf;
mod format;
mod mmap;

pub use buf::TensorBuf;
pub use format::{Checkpoint, CheckpointWriter, ALIGN};

use std::fmt;

/// Element type of a serialized tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 32-bit IEEE float.
    F32,
    /// Signed 8-bit integer (quantized codes).
    I8,
}

impl Dtype {
    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::I8 => 1,
        }
    }

    /// Wire name used in the JSON header.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "F32",
            Dtype::I8 => "I8",
        }
    }

    /// Parse a wire name back to a dtype.
    pub fn parse(s: &str) -> Option<Dtype> {
        match s {
            "F32" => Some(Dtype::F32),
            "I8" => Some(Dtype::I8),
            _ => None,
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a checkpoint could not be written, opened, or used.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file ends before the bytes its own header promises.
    Truncated {
        /// Bytes the header (or the 8-byte length prefix) requires.
        needed: u64,
        /// Bytes actually present in the file.
        available: u64,
    },
    /// The JSON header is malformed, or lies about a tensor in a way
    /// caught before any payload access.
    BadHeader(String),
    /// One tensor's descriptor is internally inconsistent (shape ×
    /// dtype ≠ offsets, misaligned start, out-of-bounds range…).
    BadTensor {
        /// Name of the offending tensor.
        name: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The named tensor does not exist in this checkpoint.
    MissingTensor(String),
    /// A tensor exists but not with the dtype the caller requires.
    DtypeMismatch {
        /// Name of the tensor.
        name: String,
        /// Dtype the caller required.
        expected: Dtype,
        /// Dtype actually stored.
        got: Dtype,
    },
    /// Model-level metadata in the header does not match what the
    /// loading context requires (wrong format version, config, vocab…).
    Metadata(String),
    /// The operation is not supported on this host (e.g. a big-endian
    /// target reading the little-endian payload).
    Unsupported(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Truncated { needed, available } => write!(
                f,
                "checkpoint truncated: needs {needed} bytes, file has {available}"
            ),
            CheckpointError::BadHeader(msg) => write!(f, "bad checkpoint header: {msg}"),
            CheckpointError::BadTensor { name, reason } => {
                write!(f, "bad tensor {name:?}: {reason}")
            }
            CheckpointError::MissingTensor(name) => {
                write!(f, "checkpoint has no tensor named {name:?}")
            }
            CheckpointError::DtypeMismatch {
                name,
                expected,
                got,
            } => write!(f, "tensor {name:?} is {got}, expected {expected}"),
            CheckpointError::Metadata(msg) => write!(f, "checkpoint metadata mismatch: {msg}"),
            CheckpointError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}
