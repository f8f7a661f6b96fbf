//! Shared immutable tensor storage: typed views over either an owned
//! buffer or a byte range of an `mmap`ed checkpoint.

use crate::mmap::Mapping;
use crate::Dtype;
use std::fmt;
use std::sync::Arc;

/// The bytes behind one or more [`TensorBuf`]s. Owned variants keep
/// their `Vec` alive (the heap allocation is stable under moves, so the
/// derived pointer stays valid); the mapped variant unmaps on drop.
pub(crate) enum Storage {
    /// A whole checkpoint file, mapped or read into an aligned buffer.
    File(Mapping),
    /// An in-memory f32 tensor.
    F32(Vec<f32>),
    /// An in-memory int8 tensor.
    I8(Vec<i8>),
}

impl Storage {
    fn base(&self) -> (*const u8, usize) {
        match self {
            Storage::File(m) => (m.ptr(), m.len()),
            Storage::F32(v) => (v.as_ptr().cast(), v.len() * 4),
            Storage::I8(v) => (v.as_ptr().cast(), v.len()),
        }
    }
}

/// A shared, immutable, typed tensor: dtype + shape + a byte range of a
/// reference-counted storage. Cloning is an `Arc` bump; slicing a
/// checkpoint into tensors copies nothing. `Send + Sync` by
/// construction: the storage is immutable for its whole lifetime.
#[derive(Clone)]
pub struct TensorBuf {
    storage: Arc<Storage>,
    /// Byte offset of the first element within the storage.
    offset: usize,
    /// Element count (product of `shape`).
    len: usize,
    dtype: Dtype,
    shape: Vec<usize>,
}

// SAFETY: the storage behind a TensorBuf is never mutated after
// construction (owned Vecs are moved in and only read; mappings are
// PROT_READ), so shared references across threads are sound.
unsafe impl Send for TensorBuf {}
// SAFETY: as for `Send`: every access through `&TensorBuf` is a read of
// storage that no one mutates, so sharing the reference is sound.
unsafe impl Sync for TensorBuf {}

impl fmt::Debug for TensorBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TensorBuf")
            .field("dtype", &self.dtype)
            .field("shape", &self.shape)
            .finish()
    }
}

impl TensorBuf {
    /// Wrap an owned f32 buffer. `shape` must multiply to `data.len()`.
    pub fn from_f32(data: Vec<f32>, shape: Vec<usize>) -> TensorBuf {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "shape lies");
        let len = data.len();
        TensorBuf {
            storage: Arc::new(Storage::F32(data)),
            offset: 0,
            len,
            dtype: Dtype::F32,
            shape,
        }
    }

    /// Wrap an owned int8 buffer.
    pub fn from_i8(data: Vec<i8>, shape: Vec<usize>) -> TensorBuf {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "shape lies");
        let len = data.len();
        TensorBuf {
            storage: Arc::new(Storage::I8(data)),
            offset: 0,
            len,
            dtype: Dtype::I8,
            shape,
        }
    }

    /// A zero-copy view into a checkpoint mapping. Alignment of
    /// `offset` against `dtype` must have been validated by the caller
    /// (the format layer does, before constructing any view).
    pub(crate) fn from_mapping(
        storage: Arc<Storage>,
        offset: usize,
        dtype: Dtype,
        shape: Vec<usize>,
    ) -> TensorBuf {
        let len = shape.iter().product();
        TensorBuf {
            storage,
            offset,
            len,
            dtype,
            shape,
        }
    }

    /// Element type.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total payload bytes.
    pub fn byte_len(&self) -> usize {
        self.len * self.dtype.size()
    }

    /// Raw little-endian payload bytes (what the writer serializes).
    pub fn bytes(&self) -> &[u8] {
        let (base, storage_len) = self.storage.base();
        let bytes = self.byte_len();
        assert!(self.offset + bytes <= storage_len, "view out of bounds");
        if bytes == 0 {
            return &[];
        }
        // SAFETY: in-bounds (asserted) range of live, immutable storage.
        unsafe { std::slice::from_raw_parts(base.add(self.offset), bytes) }
    }

    fn typed<T>(&self, dtype: Dtype) -> &[T] {
        assert_eq!(
            self.dtype, dtype,
            "tensor is {}, viewed as {}",
            self.dtype, dtype
        );
        debug_assert_eq!(std::mem::size_of::<T>(), dtype.size());
        if self.len == 0 {
            return &[];
        }
        let (base, storage_len) = self.storage.base();
        assert!(self.offset + self.byte_len() <= storage_len);
        // SAFETY: bounds asserted above; alignment was validated when the
        // view was constructed (owned Vecs are naturally aligned, mapped
        // offsets are ALIGN-multiples of a page-aligned base); storage is
        // immutable and outlives the borrow via self.
        unsafe {
            let ptr = base.add(self.offset) as *const T;
            debug_assert!((ptr as usize).is_multiple_of(std::mem::align_of::<T>()));
            std::slice::from_raw_parts(ptr, self.len)
        }
    }

    /// The elements as `f32`. Panics if the dtype is not [`Dtype::F32`]
    /// (a programming error — dtypes are validated at load time).
    pub fn as_f32(&self) -> &[f32] {
        self.typed(Dtype::F32)
    }

    /// The elements as `i8`. Panics on dtype mismatch.
    pub fn as_i8(&self) -> &[i8] {
        self.typed(Dtype::I8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_views_roundtrip() {
        let t = TensorBuf::from_f32(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.as_f32(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.bytes().len(), 16);
        let c = t.clone();
        assert_eq!(c.as_f32(), t.as_f32());

        let q = TensorBuf::from_i8(vec![-1, 2, -3], vec![3]);
        assert_eq!(q.as_i8(), &[-1, 2, -3]);
        assert_eq!(q.byte_len(), 3);
    }

    #[test]
    #[should_panic(expected = "viewed as")]
    fn wrong_dtype_view_panics() {
        TensorBuf::from_i8(vec![1], vec![1]).as_f32();
    }

    #[test]
    fn crosses_threads() {
        let t = TensorBuf::from_f32(vec![5.0; 8], vec![8]);
        let t2 = t.clone();
        std::thread::spawn(move || assert_eq!(t2.as_f32()[0], 5.0))
            .join()
            .unwrap();
        assert_eq!(t.len(), 8);
    }
}
