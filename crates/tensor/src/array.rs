//! Dense, contiguous, row-major `f32` n-dimensional array.
//!
//! [`Array`] is the raw numeric value type underneath the autograd
//! [`Tensor`](crate::tensor::Tensor). It owns its buffer, is always
//! contiguous, and supports NumPy-style broadcasting for elementwise
//! arithmetic plus the handful of linear-algebra kernels a transformer
//! needs: (batched) matmul, permutation, reductions, gathers.

use std::fmt;

/// Shape of an array: one extent per dimension. A scalar has an empty shape.
pub type Shape = Vec<usize>;

/// A dense, row-major, contiguous `f32` array.
#[derive(Clone, PartialEq)]
pub struct Array {
    data: Vec<f32>,
    shape: Shape,
}

impl fmt::Debug for Array {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 16 {
            write!(f, "Array{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Array{:?} [{} elements, first: {:?}…]",
                self.shape,
                self.data.len(),
                &self.data[..8]
            )
        }
    }
}

/// Number of elements implied by a shape.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a shape.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1;
    for (i, &dim) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc *= dim;
    }
    strides
}

/// Effective per-output-dimension strides for reading `src` as if it were
/// broadcast to `out`: `0` where the source extent is 1 (or the dimension
/// is padded), the source stride otherwise.
fn eff_strides(src: &[usize], out: &[usize]) -> Vec<usize> {
    let pad = out.len() - src.len();
    let src_strides = strides_for(src);
    let mut eff = vec![0usize; out.len()];
    for i in 0..out.len() {
        if i >= pad && src[i - pad] != 1 {
            eff[i] = src_strides[i - pad];
        }
    }
    eff
}

/// Result shape of broadcasting `a` against `b`, or `None` if incompatible.
///
/// Follows NumPy rules: align trailing dimensions; each pair must be equal
/// or one of them `1`.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Option<Shape> {
    let ndim = a.len().max(b.len());
    let mut out = vec![0; ndim];
    for i in 0..ndim {
        let da = if i < ndim - a.len() {
            1
        } else {
            a[i - (ndim - a.len())]
        };
        let db = if i < ndim - b.len() {
            1
        } else {
            b[i - (ndim - b.len())]
        };
        out[i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => return None,
        };
    }
    Some(out)
}

/// Account freshly materialized tensor storage with em-obs.
#[inline]
fn track_alloc(elems: usize) {
    em_obs::counter_add(
        "tensor/alloc_bytes",
        (elems * std::mem::size_of::<f32>()) as u64,
    );
}

impl Array {
    /// Create an array from a flat buffer and a shape. Panics when the
    /// element count does not match the shape.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            numel(&shape),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        track_alloc(data.len());
        Self { data, shape }
    }

    /// A scalar (rank-0) array.
    pub fn scalar(v: f32) -> Self {
        track_alloc(1);
        Self {
            data: vec![v],
            shape: vec![],
        }
    }

    /// All-zero array of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        track_alloc(n);
        Self {
            data: vec![0.0; n],
            shape,
        }
    }

    /// All-one array of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        track_alloc(n);
        Self {
            data: vec![1.0; n],
            shape,
        }
    }

    /// Array filled with a constant.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        track_alloc(n);
        Self {
            data: vec![v; n],
            shape,
        }
    }

    /// Shape accessor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a rank-0 or one-element array.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on array with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Value at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        debug_assert_eq!(index.len(), self.ndim());
        let strides = strides_for(&self.shape);
        let off: usize = index.iter().zip(&strides).map(|(i, s)| i * s).sum();
        self.data[off]
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        Self {
            data: self.data.clone(),
            shape,
        }
    }

    /// In-place map over every element.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// New array with `f` applied elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise binary op with NumPy-style broadcasting.
    pub fn zip_broadcast(&self, other: &Array, f: impl Fn(f32, f32) -> f32) -> Array {
        if self.shape == other.shape {
            let data = self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect::<Vec<_>>();
            return Array {
                data,
                shape: self.shape.clone(),
            };
        }
        let out_shape = broadcast_shape(&self.shape, &other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", self.shape, other.shape));
        // Unequal shapes, so at least one has rank ≥ 1 and so does the result.
        self.zip_broadcast_runs(other, &out_shape, f)
    }

    /// Broadcast `f` over `self`/`other` one inner run at a time: no
    /// materialized broadcast copies, a tight loop over the innermost
    /// dimension, and a shared odometer for the outer dimensions.
    fn zip_broadcast_runs(
        &self,
        other: &Array,
        out_shape: &[usize],
        f: impl Fn(f32, f32) -> f32,
    ) -> Array {
        let ndim = out_shape.len();
        let last = ndim - 1;
        let run = out_shape[last];
        let a_eff = eff_strides(&self.shape, out_shape);
        let b_eff = eff_strides(&other.shape, out_shape);
        let mut out = vec![0.0f32; numel(out_shape)];
        let mut idx = vec![0usize; last];
        let (mut ao, mut bo) = (0usize, 0usize);
        for chunk in out.chunks_mut(run.max(1)) {
            match (a_eff[last], b_eff[last]) {
                (1, 1) => {
                    for (o, (&x, &y)) in chunk.iter_mut().zip(
                        self.data[ao..ao + run]
                            .iter()
                            .zip(&other.data[bo..bo + run]),
                    ) {
                        *o = f(x, y);
                    }
                }
                (1, 0) => {
                    let y = other.data[bo];
                    for (o, &x) in chunk.iter_mut().zip(&self.data[ao..ao + run]) {
                        *o = f(x, y);
                    }
                }
                (0, 1) => {
                    let x = self.data[ao];
                    for (o, &y) in chunk.iter_mut().zip(&other.data[bo..bo + run]) {
                        *o = f(x, y);
                    }
                }
                _ => {
                    // Both extents are 1 on the last dim (so run == 1).
                    chunk.fill(f(self.data[ao], other.data[bo]));
                }
            }
            for d in (0..last).rev() {
                idx[d] += 1;
                ao += a_eff[d];
                bo += b_eff[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                ao -= a_eff[d] * out_shape[d];
                bo -= b_eff[d] * out_shape[d];
                idx[d] = 0;
            }
        }
        Array {
            data: out,
            shape: out_shape.to_vec(),
        }
    }

    /// Materialize this array broadcast to `target` shape.
    pub fn broadcast_to(&self, target: &[usize]) -> Array {
        if self.shape == target {
            return self.clone();
        }
        assert!(
            broadcast_shape(&self.shape, target)
                .map(|s| s == target)
                .unwrap_or(false),
            "cannot broadcast {:?} to {:?}",
            self.shape,
            target
        );
        let ndim = target.len();
        let pad = ndim - self.shape.len();
        let src_strides = strides_for(&self.shape);
        // Effective stride per target dim: 0 where source extent is 1.
        let mut eff = vec![0usize; ndim];
        for i in 0..ndim {
            if i >= pad && self.shape[i - pad] != 1 {
                eff[i] = src_strides[i - pad];
            }
        }
        let mut out = vec![0.0f32; numel(target)];
        let mut idx = vec![0usize; ndim];
        let mut src_off = 0usize;
        for slot in out.iter_mut() {
            *slot = self.data[src_off];
            // Odometer increment.
            for d in (0..ndim).rev() {
                idx[d] += 1;
                src_off += eff[d];
                if idx[d] < target[d] {
                    break;
                }
                src_off -= eff[d] * target[d];
                idx[d] = 0;
            }
        }
        Array {
            data: out,
            shape: target.to_vec(),
        }
    }

    /// Sum this array down to `target` shape (the adjoint of `broadcast_to`).
    ///
    /// Used by autograd to reduce an output gradient back onto an input that
    /// was broadcast in the forward pass.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Array {
        if self.shape == target {
            return self.clone();
        }
        let ndim = self.shape.len();
        let mut out = Array::zeros(target.to_vec());
        let eff = eff_strides(target, &self.shape);
        // `target` differs from `self.shape` and broadcasts to it, so the
        // rank is ≥ 1. Whole inner runs at a time: either the target keeps
        // the last dimension (accumulate row into row) or it
        // drops/collapses it (reduce row to a scalar).
        let last = ndim - 1;
        let run = self.shape[last].max(1);
        let mut idx = vec![0usize; last];
        let mut tgt_off = 0usize;
        for chunk in self.data.chunks(run) {
            if eff[last] == 1 {
                for (o, &v) in out.data[tgt_off..tgt_off + run].iter_mut().zip(chunk) {
                    *o += v;
                }
            } else {
                out.data[tgt_off] += chunk.iter().sum::<f32>();
            }
            for d in (0..last).rev() {
                idx[d] += 1;
                tgt_off += eff[d];
                if idx[d] < self.shape[d] {
                    break;
                }
                tgt_off -= eff[d] * self.shape[d];
                idx[d] = 0;
            }
        }
        out
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Array) -> Array {
        self.zip_broadcast(other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Array) -> Array {
        self.zip_broadcast(other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Array) -> Array {
        self.zip_broadcast(other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Array) -> Array {
        self.zip_broadcast(other, |a, b| a / b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, c: f32) -> Array {
        self.map(|v| v * c)
    }

    /// In-place `self += other` (shapes must match exactly; hot path for
    /// gradient accumulation).
    pub fn add_assign(&mut self, other: &Array) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Sum along `axis`. `keepdim` keeps the reduced dimension with extent 1.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Array {
        assert!(
            axis < self.ndim(),
            "axis {} out of range for {:?}",
            axis,
            self.shape
        );
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += self.data[base + i];
                }
            }
        }
        let mut shape = self.shape.clone();
        if keepdim {
            shape[axis] = 1;
        } else {
            shape.remove(axis);
        }
        Array { data: out, shape }
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Array {
        let n = self.shape[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }

    /// Maximum along the last axis, returned with that axis reduced.
    pub fn max_last_axis(&self) -> Array {
        let inner = *self.shape.last().expect("max on scalar");
        let outer = self.data.len() / inner;
        let mut out = Vec::with_capacity(outer);
        for o in 0..outer {
            let row = &self.data[o * inner..(o + 1) * inner];
            out.push(row.iter().copied().fold(f32::NEG_INFINITY, f32::max));
        }
        let mut shape = self.shape.clone();
        shape.pop();
        Array { data: out, shape }
    }

    /// Index of the maximum along the last axis.
    pub fn argmax_last_axis(&self) -> Vec<usize> {
        let inner = *self.shape.last().expect("argmax on scalar");
        let outer = self.data.len() / inner;
        let mut out = Vec::with_capacity(outer);
        for o in 0..outer {
            let row = &self.data[o * inner..(o + 1) * inner];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }

    /// Permute dimensions: `perm` maps output dim -> input dim.
    pub fn permute(&self, perm: &[usize]) -> Array {
        assert_eq!(perm.len(), self.ndim(), "permute rank mismatch");
        let in_strides = strides_for(&self.shape);
        let out_shape: Shape = perm.iter().map(|&p| self.shape[p]).collect();
        let eff: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut out = vec![0.0f32; self.data.len()];
        let ndim = out_shape.len();
        if ndim > 0 && eff[ndim - 1] == 1 {
            // The innermost output dimension walks contiguous input memory
            // (true for every head split/merge in attention), so move whole
            // runs instead of stepping the odometer per element.
            let last = ndim - 1;
            let run = out_shape[last].max(1);
            let mut idx = vec![0usize; last];
            let mut src = 0usize;
            for chunk in out.chunks_exact_mut(run) {
                chunk.copy_from_slice(&self.data[src..src + run]);
                for d in (0..last).rev() {
                    idx[d] += 1;
                    src += eff[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    src -= eff[d] * out_shape[d];
                    idx[d] = 0;
                }
            }
            return Array {
                data: out,
                shape: out_shape,
            };
        }
        let mut idx = vec![0usize; ndim];
        let mut src = 0usize;
        for slot in out.iter_mut() {
            *slot = self.data[src];
            for d in (0..ndim).rev() {
                idx[d] += 1;
                src += eff[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                src -= eff[d] * out_shape[d];
                idx[d] = 0;
            }
        }
        Array {
            data: out,
            shape: out_shape,
        }
    }

    /// Swap the last two dimensions (matrix transpose on the trailing axes).
    pub fn transpose_last(&self) -> Array {
        let n = self.ndim();
        assert!(n >= 2, "transpose needs rank >= 2");
        let mut perm: Vec<usize> = (0..n).collect();
        perm.swap(n - 1, n - 2);
        self.permute(&perm)
    }

    /// Matrix product with optional leading batch dimensions.
    ///
    /// Accepts `[.., m, k] x [.., k, n]` where the leading batch dims must be
    /// identical, or either operand may be a plain 2-D matrix shared across
    /// the other's batches.
    pub fn matmul(&self, other: &Array) -> Array {
        crate::kernel::matmul(self, other)
    }

    /// `self · otherᵀ` over the trailing axes (`[.., m, k] x [.., n, k]`)
    /// without materializing the transpose.
    pub fn matmul_nt(&self, other: &Array) -> Array {
        crate::kernel::matmul_nt(self, other)
    }

    /// `selfᵀ · other` over the trailing axes (`[.., k, m] x [.., k, n]`)
    /// without materializing the transpose.
    pub fn matmul_tn(&self, other: &Array) -> Array {
        crate::kernel::matmul_tn(self, other)
    }

    /// Gather rows: `self` is `[v, d]`, `indices` select rows, output is
    /// `indices.len() x d` reshaped to `index_shape + [d]`.
    pub fn gather_rows(&self, indices: &[usize], index_shape: &[usize]) -> Array {
        assert_eq!(self.ndim(), 2, "gather_rows on non-matrix");
        assert_eq!(numel(index_shape), indices.len());
        let d = self.shape[1];
        let mut out = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!(
                i < self.shape[0],
                "row index {} out of range {}",
                i,
                self.shape[0]
            );
            out.extend_from_slice(&self.data[i * d..(i + 1) * d]);
        }
        let mut shape = index_shape.to_vec();
        shape.push(d);
        Array { data: out, shape }
    }

    /// Scatter-add rows: the adjoint of [`Array::gather_rows`]. `grad` has shape
    /// `[indices.len(), d]` flattened; rows are accumulated into `self`.
    pub fn scatter_add_rows(&mut self, indices: &[usize], grad: &Array) {
        assert_eq!(self.ndim(), 2);
        let d = self.shape[1];
        assert_eq!(grad.len(), indices.len() * d, "scatter grad size mismatch");
        for (slot, &i) in indices.iter().enumerate() {
            let src = &grad.data[slot * d..(slot + 1) * d];
            let dst = &mut self.data[i * d..(i + 1) * d];
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    /// Concatenate along `axis`. All other extents must match.
    pub fn concat(parts: &[&Array], axis: usize) -> Array {
        assert!(!parts.is_empty(), "concat of nothing");
        let ndim = parts[0].ndim();
        assert!(axis < ndim);
        let mut out_shape = parts[0].shape.clone();
        out_shape[axis] = parts.iter().map(|p| p.shape[axis]).sum();
        for p in parts {
            assert_eq!(p.ndim(), ndim);
            for (d, &extent) in out_shape.iter().enumerate() {
                if d != axis {
                    assert_eq!(p.shape[d], extent, "concat extent mismatch on dim {d}");
                }
            }
        }
        let outer: usize = out_shape[..axis].iter().product();
        let inner: usize = out_shape[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(numel(&out_shape));
        for o in 0..outer {
            for p in parts {
                let mid = p.shape[axis];
                let base = o * mid * inner;
                out.extend_from_slice(&p.data[base..base + mid * inner]);
            }
        }
        Array {
            data: out,
            shape: out_shape,
        }
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Array {
        assert!(axis < self.ndim());
        assert!(
            start <= end && end <= self.shape[axis],
            "slice range out of bounds"
        );
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * (end - start) * inner);
        for o in 0..outer {
            let base = (o * mid + start) * inner;
            out.extend_from_slice(&self.data[base..base + (end - start) * inner]);
        }
        let mut shape = self.shape.clone();
        shape[axis] = end - start;
        Array { data: out, shape }
    }

    /// Pad `grad` back to this slice's source shape with zeros: the adjoint
    /// of [`Array::slice_axis`]. `self` here is the *gradient of the slice*.
    pub fn unslice_axis(&self, src_shape: &[usize], axis: usize, start: usize) -> Array {
        let mut out = Array::zeros(src_shape.to_vec());
        let outer: usize = src_shape[..axis].iter().product();
        let mid = src_shape[axis];
        let inner: usize = src_shape[axis + 1..].iter().product();
        let take = self.shape[axis];
        for o in 0..outer {
            let dst_base = (o * mid + start) * inner;
            let src_base = o * take * inner;
            out.data[dst_base..dst_base + take * inner]
                .copy_from_slice(&self.data[src_base..src_base + take * inner]);
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_shapes() {
        assert_eq!(broadcast_shape(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shape(&[2, 1], &[1, 4]), Some(vec![2, 4]));
        assert_eq!(broadcast_shape(&[5], &[]), Some(vec![5]));
        assert_eq!(broadcast_shape(&[2, 3], &[4]), None);
    }

    #[test]
    fn broadcast_to_materializes() {
        let a = Array::from_vec(vec![1.0, 2.0], vec![2, 1]);
        let b = a.broadcast_to(&[2, 3]);
        assert_eq!(b.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_dims() {
        let g = Array::ones(vec![2, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn elementwise_broadcast_add() {
        let a = Array::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Array::from_vec(vec![10.0, 20.0, 30.0], vec![3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn sum_axis_both_keepdims() {
        let a = Array::from_vec((1..=6).map(|v| v as f32).collect(), vec![2, 3]);
        let s0 = a.sum_axis(0, false);
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = a.sum_axis(1, true);
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.data(), &[6.0, 15.0]);
    }

    #[test]
    fn permute_transposes() {
        let a = Array::from_vec((0..6).map(|v| v as f32).collect(), vec![2, 3]);
        let t = a.permute(&[1, 0]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        // Round trip.
        assert_eq!(t.permute(&[1, 0]).data(), a.data());
    }

    #[test]
    fn permute_3d() {
        let a = Array::from_vec((0..24).map(|v| v as f32).collect(), vec![2, 3, 4]);
        let p = a.permute(&[1, 0, 2]);
        assert_eq!(p.shape(), &[3, 2, 4]);
        assert_eq!(p.at(&[1, 1, 2]), a.at(&[1, 1, 2]));
        assert_eq!(p.at(&[2, 0, 3]), a.at(&[0, 2, 3]));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let table = Array::from_vec((0..8).map(|v| v as f32).collect(), vec![4, 2]);
        let g = table.gather_rows(&[3, 0, 3], &[3]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[6.0, 7.0, 0.0, 1.0, 6.0, 7.0]);
        let mut acc = Array::zeros(vec![4, 2]);
        acc.scatter_add_rows(&[3, 0, 3], &Array::ones(vec![3, 2]));
        assert_eq!(acc.data(), &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Array::from_vec((0..6).map(|v| v as f32).collect(), vec![2, 3]);
        let b = Array::from_vec((6..10).map(|v| v as f32).collect(), vec![2, 2]);
        let c = Array::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.slice_axis(1, 0, 3), a);
        assert_eq!(c.slice_axis(1, 3, 5), b);
    }

    #[test]
    fn unslice_is_adjoint_of_slice() {
        let src_shape = [2usize, 5];
        let g = Array::ones(vec![2, 2]);
        let padded = g.unslice_axis(&src_shape, 1, 3);
        assert_eq!(padded.shape(), &[2, 5]);
        assert_eq!(
            padded.data(),
            &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn argmax_and_max() {
        let a = Array::from_vec(vec![0.1, 0.9, 0.5, 0.4, 0.2, 0.3], vec![2, 3]);
        assert_eq!(a.argmax_last_axis(), vec![1, 0]);
        assert_eq!(a.max_last_axis().data(), &[0.9, 0.4]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_broadcast_panics() {
        let a = Array::zeros(vec![2, 3]);
        let b = Array::zeros(vec![4]);
        let _ = a.add(&b);
    }
}
