//! The on-disk format: a `u64` little-endian header length, a JSON
//! header describing every tensor, then one raw payload with each
//! tensor's bytes starting on an [`ALIGN`]-byte boundary.

use crate::buf::Storage;
use crate::mmap::Mapping;
use crate::{CheckpointError, Dtype, TensorBuf};
use serde_json::Value;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Alignment of the payload start and of every tensor within it. A
/// cache line: enough for any SIMD load the kernels perform, and it
/// keeps hot weight rows from straddling lines at the tensor head.
pub const ALIGN: usize = 64;

/// Upper bound on the JSON header. A real header is a few KB; anything
/// claiming more than this is corrupt, and bounding it keeps a fuzzed
/// length prefix from driving a giant allocation.
const MAX_HEADER_BYTES: u64 = 16 << 20;

/// Key under which string metadata lives in the header object.
const METADATA_KEY: &str = "__metadata__";

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

// ---- writer -------------------------------------------------------------

/// Builds a checkpoint in memory, then serializes it in one pass.
///
/// Tensors are laid out in insertion order, each starting on an
/// [`ALIGN`]-byte boundary relative to the payload start; the header is
/// space-padded so the payload itself starts [`ALIGN`]-aligned in the
/// file. See the crate docs for the byte layout.
#[derive(Default)]
pub struct CheckpointWriter {
    metadata: Vec<(String, String)>,
    tensors: Vec<(String, TensorBuf)>,
}

impl CheckpointWriter {
    /// An empty checkpoint.
    pub fn new() -> CheckpointWriter {
        CheckpointWriter::default()
    }

    /// Attach a string key/value to the header's `__metadata__` block.
    /// Re-setting a key overwrites the previous value.
    pub fn metadata(&mut self, key: &str, value: &str) {
        if let Some(slot) = self.metadata.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.metadata.push((key.to_string(), value.to_string()));
        }
    }

    /// Add a named tensor. Panics on a duplicate name — tensor names
    /// come from code, not data, so a collision is a bug.
    pub fn tensor(&mut self, name: &str, buf: TensorBuf) {
        assert!(
            !self.tensors.iter().any(|(n, _)| n == name),
            "duplicate tensor name {name:?}"
        );
        self.tensors.push((name.to_string(), buf));
    }

    /// Serialize to `path`, replacing any existing file.
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        // Lay out the payload: per-tensor [start, end) relative offsets.
        let mut offsets = Vec::with_capacity(self.tensors.len());
        let mut cursor = 0usize;
        for (_, buf) in &self.tensors {
            let start = align_up(cursor, ALIGN);
            let end = start + buf.byte_len();
            offsets.push((start, end));
            cursor = end;
        }

        // Header object: __metadata__ first, then tensors in order.
        let mut fields = Vec::with_capacity(self.tensors.len() + 1);
        if !self.metadata.is_empty() {
            let meta = self
                .metadata
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect();
            fields.push((METADATA_KEY.to_string(), Value::Object(meta)));
        }
        for ((name, buf), &(start, end)) in self.tensors.iter().zip(&offsets) {
            let shape = buf.shape().iter().map(|&d| Value::Int(d as i64)).collect();
            fields.push((
                name.clone(),
                Value::Object(vec![
                    (
                        "dtype".to_string(),
                        Value::Str(buf.dtype().name().to_string()),
                    ),
                    ("shape".to_string(), Value::Array(shape)),
                    (
                        "data_offsets".to_string(),
                        Value::Array(vec![Value::Int(start as i64), Value::Int(end as i64)]),
                    ),
                ]),
            ));
        }
        let mut header = serde_json::to_string(&Value::Object(fields))
            .map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
        // Space-pad so the payload starts ALIGN-aligned in the file.
        let padded = align_up(8 + header.len(), ALIGN) - 8;
        header.extend(std::iter::repeat_n(' ', padded - header.len()));

        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        out.write_all(&(header.len() as u64).to_le_bytes())?;
        out.write_all(header.as_bytes())?;
        let mut cursor = 0usize;
        for ((_, buf), &(start, _)) in self.tensors.iter().zip(&offsets) {
            if start > cursor {
                out.write_all(&vec![0u8; start - cursor])?;
            }
            out.write_all(buf.bytes())?;
            cursor = start + buf.byte_len();
        }
        out.flush()?;
        Ok(())
    }
}

// ---- reader -------------------------------------------------------------

struct Entry {
    dtype: Dtype,
    shape: Vec<usize>,
    /// Absolute byte offset of the tensor within the file.
    offset: usize,
}

/// A loaded checkpoint: the mapped (or read) file plus its validated
/// header. Every tensor handed out is a zero-copy view that keeps the
/// mapping alive; dropping the `Checkpoint` itself does not invalidate
/// tensors already obtained.
pub struct Checkpoint {
    storage: Arc<Storage>,
    load_mode: &'static str,
    file_len: usize,
    entries: Vec<(String, Entry)>,
    metadata: Vec<(String, String)>,
}

impl Checkpoint {
    /// Open and fully validate the checkpoint at `path`. The weight
    /// payload is not touched — only the header is read and checked, so
    /// open time is independent of model size (modulo page faults paid
    /// lazily on first use).
    pub fn open(path: &Path) -> Result<Checkpoint, CheckpointError> {
        if cfg!(target_endian = "big") {
            return Err(CheckpointError::Unsupported(
                "checkpoint payload is little-endian; big-endian hosts are not supported",
            ));
        }
        let mapping = Mapping::open(path)?;
        let load_mode = mapping.mode().name();
        let bytes = mapping.bytes();
        let file_len = bytes.len();

        if file_len < 8 {
            return Err(CheckpointError::Truncated {
                needed: 8,
                available: file_len as u64,
            });
        }
        let header_len = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        if header_len > MAX_HEADER_BYTES {
            return Err(CheckpointError::BadHeader(format!(
                "header length {header_len} exceeds the {MAX_HEADER_BYTES}-byte cap"
            )));
        }
        let data_start = match header_len.checked_add(8) {
            Some(v) if v <= file_len as u64 => v as usize,
            Some(v) => {
                return Err(CheckpointError::Truncated {
                    needed: v,
                    available: file_len as u64,
                })
            }
            None => {
                return Err(CheckpointError::BadHeader(
                    "header length overflows".to_string(),
                ))
            }
        };
        if data_start % ALIGN != 0 {
            return Err(CheckpointError::BadHeader(format!(
                "payload start {data_start} is not {ALIGN}-byte aligned"
            )));
        }
        let data_len = file_len - data_start;

        let header = std::str::from_utf8(&bytes[8..data_start])
            .map_err(|e| CheckpointError::BadHeader(format!("header is not UTF-8: {e}")))?;
        let root: Value = serde_json::from_str(header)
            .map_err(|e| CheckpointError::BadHeader(format!("header is not valid JSON: {e}")))?;
        let Value::Object(fields) = root else {
            return Err(CheckpointError::BadHeader(
                "header root is not a JSON object".to_string(),
            ));
        };

        let mut entries: Vec<(String, Entry)> = Vec::with_capacity(fields.len());
        let mut metadata = Vec::new();
        for (name, value) in fields {
            if name == METADATA_KEY {
                let Value::Object(kv) = value else {
                    return Err(CheckpointError::BadHeader(
                        "__metadata__ is not an object".to_string(),
                    ));
                };
                for (k, v) in kv {
                    let Value::Str(s) = v else {
                        return Err(CheckpointError::BadHeader(format!(
                            "__metadata__ value for {k:?} is not a string"
                        )));
                    };
                    metadata.push((k, s));
                }
                continue;
            }
            if entries.iter().any(|(n, _)| *n == name) {
                return Err(CheckpointError::BadHeader(format!(
                    "duplicate tensor name {name:?}"
                )));
            }
            let entry = parse_entry(&name, &value, data_start, data_len)?;
            entries.push((name, entry));
        }

        Ok(Checkpoint {
            storage: Arc::new(Storage::File(mapping)),
            load_mode,
            file_len,
            entries,
            metadata,
        })
    }

    /// Whether a tensor with this name exists.
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// Tensor names, in header order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// A metadata value by key.
    pub fn metadata(&self, key: &str) -> Option<&str> {
        self.metadata
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// How the file's bytes were obtained: `"mmap"` or `"read"`.
    pub fn load_mode(&self) -> &'static str {
        self.load_mode
    }

    /// Total size of the checkpoint file in bytes.
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// A zero-copy view of the named tensor. The returned buffer shares
    /// the file mapping and stays valid after the `Checkpoint` drops.
    pub fn tensor(&self, name: &str) -> Result<TensorBuf, CheckpointError> {
        let (_, entry) = self
            .entries
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| CheckpointError::MissingTensor(name.to_string()))?;
        Ok(TensorBuf::from_mapping(
            Arc::clone(&self.storage),
            entry.offset,
            entry.dtype,
            entry.shape.clone(),
        ))
    }

    /// Like [`Checkpoint::tensor`] but also requires the stored dtype.
    pub fn tensor_typed(&self, name: &str, dtype: Dtype) -> Result<TensorBuf, CheckpointError> {
        let t = self.tensor(name)?;
        if t.dtype() != dtype {
            return Err(CheckpointError::DtypeMismatch {
                name: name.to_string(),
                expected: dtype,
                got: t.dtype(),
            });
        }
        Ok(t)
    }
}

/// Validate one tensor descriptor with checked arithmetic throughout:
/// a hostile header must produce a typed error, never an overflow or an
/// out-of-bounds view.
fn parse_entry(
    name: &str,
    value: &Value,
    data_start: usize,
    data_len: usize,
) -> Result<Entry, CheckpointError> {
    let bad = |reason: String| CheckpointError::BadTensor {
        name: name.to_string(),
        reason,
    };

    let dtype_str = value
        .get_field("dtype")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing or non-string dtype".to_string()))?;
    let dtype =
        Dtype::parse(dtype_str).ok_or_else(|| bad(format!("unknown dtype {dtype_str:?}")))?;

    let shape_val = value
        .get_field("shape")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing or non-array shape".to_string()))?;
    let mut shape = Vec::with_capacity(shape_val.len());
    for d in shape_val {
        let d = d
            .as_u64()
            .and_then(|d| usize::try_from(d).ok())
            .ok_or_else(|| bad("shape dimension is not an unsigned integer".to_string()))?;
        shape.push(d);
    }
    let elements = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| bad("element count overflows".to_string()))?;
    let byte_len = elements
        .checked_mul(dtype.size())
        .ok_or_else(|| bad("byte length overflows".to_string()))?;

    let offsets = value
        .get_field("data_offsets")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing or non-array data_offsets".to_string()))?;
    let [start, end] = offsets.as_slice() else {
        return Err(bad(format!(
            "data_offsets has {} elements, expected 2",
            offsets.len()
        )));
    };
    let to_usize = |v: &Value| v.as_u64().and_then(|v| usize::try_from(v).ok());
    let start = to_usize(start)
        .ok_or_else(|| bad("start offset is not an unsigned integer".to_string()))?;
    let end =
        to_usize(end).ok_or_else(|| bad("end offset is not an unsigned integer".to_string()))?;

    if end < start {
        return Err(bad(format!("offsets reversed: [{start}, {end}]")));
    }
    if end - start != byte_len {
        return Err(bad(format!(
            "shape {shape:?} × {dtype} needs {byte_len} bytes but offsets span {}",
            end - start
        )));
    }
    if start % ALIGN != 0 {
        return Err(bad(format!(
            "start offset {start} is not {ALIGN}-byte aligned"
        )));
    }
    if end > data_len {
        return Err(CheckpointError::Truncated {
            needed: (data_start + end) as u64,
            available: (data_start + data_len) as u64,
        });
    }
    Ok(Entry {
        dtype,
        shape,
        offset: data_start + start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("em-ckpt-fmt-{}-{name}.emck", std::process::id()))
    }

    fn sample() -> CheckpointWriter {
        let mut w = CheckpointWriter::new();
        w.metadata("quant", "int8");
        w.metadata("format_version", "1");
        w.tensor(
            "a.w",
            TensorBuf::from_f32((0..12).map(|i| i as f32).collect(), vec![3, 4]),
        );
        w.tensor(
            "a.q",
            TensorBuf::from_i8(vec![-128, -1, 0, 1, 127], vec![5]),
        );
        w
    }

    #[test]
    fn roundtrip() {
        let path = scratch("roundtrip");
        sample().write_to(&path).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.metadata("quant"), Some("int8"));
        assert_eq!(ckpt.metadata("format_version"), Some("1"));
        assert_eq!(ckpt.metadata("missing"), None);
        assert_eq!(ckpt.names().collect::<Vec<_>>(), ["a.w", "a.q"]);
        assert!(ckpt.has("a.w") && !ckpt.has("b.w"));

        let w = ckpt.tensor("a.w").unwrap();
        assert_eq!(w.shape(), &[3, 4]);
        assert_eq!(w.as_f32(), (0..12).map(|i| i as f32).collect::<Vec<_>>());
        let q = ckpt.tensor("a.q").unwrap();
        assert_eq!(q.as_i8(), &[-128, -1, 0, 1, 127]);

        // Views outlive the Checkpoint.
        drop(ckpt);
        assert_eq!(w.as_f32()[11], 11.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn both_load_modes_agree() {
        let path = scratch("modes");
        sample().write_to(&path).unwrap();
        let mapped = Checkpoint::open(&path).unwrap();
        std::env::set_var("EM_CHECKPOINT_NO_MMAP", "1");
        let read = Checkpoint::open(&path).unwrap();
        std::env::remove_var("EM_CHECKPOINT_NO_MMAP");
        assert_eq!(read.load_mode(), "read");
        assert_eq!(
            mapped.tensor("a.w").unwrap().as_f32(),
            read.tensor("a.w").unwrap().as_f32()
        );
        assert_eq!(
            mapped.tensor("a.q").unwrap().as_i8(),
            read.tensor("a.q").unwrap().as_i8()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_and_mismatched_tensors() {
        let path = scratch("missing");
        sample().write_to(&path).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert!(matches!(
            ckpt.tensor("nope"),
            Err(CheckpointError::MissingTensor(_))
        ));
        assert!(matches!(
            ckpt.tensor_typed("a.w", Dtype::I8),
            Err(CheckpointError::DtypeMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let path = scratch("trunc");
        sample().write_to(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Every prefix must yield an error, never a panic.
        for cut in [0, 4, 7, 8, 20, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Checkpoint::open(&path).err();
            let err = match err {
                Some(e) => e,
                // A prefix that still covers header + all tensor bytes
                // is a valid checkpoint; only trailing pad was cut.
                None => continue,
            };
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadHeader(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_headers_are_typed_errors() {
        let path = scratch("hostile");
        let write_with_header = |json: &str| {
            let padded = align_up(8 + json.len(), ALIGN) - 8;
            let mut bytes = (padded as u64).to_le_bytes().to_vec();
            bytes.extend(json.as_bytes());
            bytes.extend(std::iter::repeat_n(b' ', padded - json.len()));
            bytes.extend([0u8; 256]); // payload
            std::fs::write(&path, bytes).unwrap();
            Checkpoint::open(&path)
        };

        // Giant claimed header length.
        std::fs::write(&path, u64::MAX.to_le_bytes()).unwrap();
        assert!(matches!(
            Checkpoint::open(&path),
            Err(CheckpointError::BadHeader(_))
        ));

        assert!(matches!(
            write_with_header("not json at all"),
            Err(CheckpointError::BadHeader(_))
        ));
        assert!(matches!(
            write_with_header("[1,2,3]"),
            Err(CheckpointError::BadHeader(_))
        ));
        // Unknown dtypes, including the half-float one older builds wrote.
        for (dtype, bytes) in [("F64", 8), ("F16", 2)] {
            let json =
                format!(r#"{{"t":{{"dtype":"{dtype}","shape":[1],"data_offsets":[0,{bytes}]}}}}"#);
            match write_with_header(&json) {
                Err(CheckpointError::BadTensor { reason, .. }) => {
                    assert!(reason.contains("unknown dtype"), "{dtype}: {reason}")
                }
                other => panic!(
                    "{dtype}: expected an unknown-dtype BadTensor, got {:?}",
                    other.err()
                ),
            }
        }
        assert!(matches!(
            write_with_header(r#"{"t":{"dtype":"F32","shape":[3],"data_offsets":[0,8]}}"#),
            Err(CheckpointError::BadTensor { .. })
        ));
        assert!(matches!(
            write_with_header(r#"{"t":{"dtype":"F32","shape":[2],"data_offsets":[4,12]}}"#),
            Err(CheckpointError::BadTensor { .. })
        ));
        assert!(matches!(
            write_with_header(r#"{"t":{"dtype":"F32","shape":[2],"data_offsets":[8,0]}}"#),
            Err(CheckpointError::BadTensor { .. })
        ));
        // In-bounds-looking but past the actual payload.
        assert!(matches!(
            write_with_header(r#"{"t":{"dtype":"F32","shape":[4096],"data_offsets":[0,16384]}}"#),
            Err(CheckpointError::Truncated { .. })
        ));
        // Overflowing element count.
        assert!(matches!(
            write_with_header(
                r#"{"t":{"dtype":"F32","shape":[4294967296,4294967296,4294967296],"data_offsets":[0,0]}}"#
            ),
            Err(CheckpointError::BadTensor { .. })
        ));
        // Duplicate names.
        assert!(matches!(
            write_with_header(
                r#"{"t":{"dtype":"I8","shape":[1],"data_offsets":[0,1]},"t":{"dtype":"I8","shape":[1],"data_offsets":[64,65]}}"#
            ),
            Err(CheckpointError::BadHeader(_))
        ));
        // Metadata must be string→string.
        assert!(matches!(
            write_with_header(r#"{"__metadata__":{"k":5}}"#),
            Err(CheckpointError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let path = scratch("emptyckpt");
        CheckpointWriter::new().write_to(&path).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.names().count(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
