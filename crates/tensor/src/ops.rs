//! Differentiable operations on [`Tensor`].
//!
//! Each op computes its forward value eagerly and registers a backward
//! closure that maps the output gradient to parent gradients. Broadcasting
//! ops reduce gradients back to the parent shape with
//! [`Array::reduce_to_shape`]. Fused ops (softmax, layer-norm,
//! cross-entropy) implement their analytic adjoints directly, which is both
//! faster and numerically safer than composing primitives.

use crate::array::Array;
use crate::tensor::Tensor;
use rand::Rng;

/// Accumulate `g` into parent `p`, reducing broadcast dimensions back to
/// `shape` first. Skips the reduction entirely for non-grad parents (e.g.
/// a constant attention mask) and moves freshly reduced buffers into the
/// accumulator instead of cloning them.
fn accum_reduced(p: &Tensor, g: &Array, shape: &[usize]) {
    if !p.requires_grad() {
        return;
    }
    if g.shape() == shape {
        p.accumulate_grad(g);
    } else {
        p.accumulate_grad_owned(g.reduce_to_shape(shape));
    }
}

/// Reduce an owned gradient to `shape`, passing it through untouched when
/// the shapes already agree.
fn reduce_owned(a: Array, shape: &[usize]) -> Array {
    if a.shape() == shape {
        a
    } else {
        a.reduce_to_shape(shape)
    }
}

impl Tensor {
    /// Elementwise sum with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let out = self.with_value(|a| other.with_value(|b| a.add(b)));
        let (pa, pb) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        Tensor::from_op(out, vec![self.clone(), other.clone()], move |g| {
            accum_reduced(&pa, g, &sa);
            accum_reduced(&pb, g, &sb);
        })
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let out = self.with_value(|a| other.with_value(|b| a.sub(b)));
        let (pa, pb) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        Tensor::from_op(out, vec![self.clone(), other.clone()], move |g| {
            accum_reduced(&pa, g, &sa);
            if pb.requires_grad() {
                let db = if g.shape() == sb.as_slice() {
                    g.scale(-1.0)
                } else {
                    g.reduce_to_shape(&sb).scale(-1.0)
                };
                pb.accumulate_grad_owned(db);
            }
        })
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let out = self.with_value(|a| other.with_value(|b| a.mul(b)));
        let (pa, pb) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.value(), other.value());
        Tensor::from_op(out, vec![self.clone(), other.clone()], move |g| {
            if pa.requires_grad() {
                pa.accumulate_grad_owned(reduce_owned(g.mul(&vb), &sa));
            }
            if pb.requires_grad() {
                pb.accumulate_grad_owned(reduce_owned(g.mul(&va), &sb));
            }
        })
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let out = self.with_value(|a| other.with_value(|b| a.div(b)));
        let (pa, pb) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.value(), other.value());
        Tensor::from_op(out, vec![self.clone(), other.clone()], move |g| {
            if pa.requires_grad() {
                pa.accumulate_grad_owned(reduce_owned(g.div(&vb), &sa));
            }
            if pb.requires_grad() {
                let db = g.mul(&va).div(&vb).div(&vb).scale(-1.0);
                pb.accumulate_grad_owned(reduce_owned(db, &sb));
            }
        })
    }

    /// Multiply by a compile-time-known scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        let out = self.with_value(|a| a.scale(c));
        let p = self.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            p.accumulate_grad_owned(g.scale(c))
        })
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        let out = self.with_value(|a| a.map(|v| v + c));
        let p = self.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| p.accumulate_grad(g))
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        self.scale(-1.0)
    }

    /// Matrix product, optionally batched (see [`Array::matmul`]).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let out = self.with_value(|a| other.with_value(|b| a.matmul(b)));
        let (pa, pb) = (self.clone(), other.clone());
        let (va, vb) = (self.value(), other.value());
        let (sa, sb) = (self.shape(), other.shape());
        Tensor::from_op(out, vec![self.clone(), other.clone()], move |g| {
            // dA = g · Bᵀ through the NT kernel — no transpose copy.
            if pa.requires_grad() {
                pa.accumulate_grad_owned(reduce_owned(g.matmul_nt(&vb), &sa));
            }
            // dB = Aᵀ · g through the TN kernel. When B is a 2-D weight
            // shared across A's batch, one flattened GEMM produces the
            // already-reduced [k, n] gradient directly.
            if pb.requires_grad() {
                if sb.len() == 2 && sa.len() > 2 {
                    pb.accumulate_grad_owned(crate::kernel::matmul_tn_reduce(&va, g));
                } else {
                    pb.accumulate_grad_owned(reduce_owned(crate::kernel::matmul_tn(&va, g), &sb));
                }
            }
        })
    }

    /// Differentiable `self · otherᵀ` over the trailing axes (`[.., m, k]
    /// x [.., n, k]`) — attention scores `Q·Kᵀ` without materializing the
    /// transposed keys, in forward *or* backward.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let out = self.with_value(|a| other.with_value(|b| a.matmul_nt(b)));
        let (pa, pb) = (self.clone(), other.clone());
        let (va, vb) = (self.value(), other.value());
        let (sa, sb) = (self.shape(), other.shape());
        Tensor::from_op(out, vec![self.clone(), other.clone()], move |g| {
            // C = A·Bᵀ: dA = g·B and dB = gᵀ·A, both transpose-free.
            if pa.requires_grad() {
                pa.accumulate_grad_owned(reduce_owned(g.matmul(&vb), &sa));
            }
            if pb.requires_grad() {
                pb.accumulate_grad_owned(reduce_owned(crate::kernel::matmul_tn(g, &va), &sb));
            }
        })
    }

    /// Reshape to an equal-element-count shape.
    pub fn reshape(&self, shape: impl Into<Vec<usize>>) -> Tensor {
        let shape = shape.into();
        let out = self.with_value(|a| a.reshape(shape.clone()));
        let p = self.clone();
        let orig = self.shape();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            p.accumulate_grad_owned(g.reshape(orig.clone()));
        })
    }

    /// Permute dimensions (`perm` maps output dim to input dim).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let out = self.with_value(|a| a.permute(perm));
        let p = self.clone();
        // Inverse permutation for the backward pass.
        let mut inv = vec![0usize; perm.len()];
        for (o, &i) in perm.iter().enumerate() {
            inv[i] = o;
        }
        Tensor::from_op(out, vec![self.clone()], move |g| {
            p.accumulate_grad_owned(g.permute(&inv));
        })
    }

    /// Swap the last two dimensions.
    pub fn transpose_last(&self) -> Tensor {
        let n = self.shape().len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.swap(n - 1, n - 2);
        self.permute(&perm)
    }

    /// Sum along `axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let out = self.with_value(|a| a.sum_axis(axis, keepdim));
        let p = self.clone();
        let in_shape = self.shape();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let g = if keepdim {
                g.clone()
            } else {
                let mut s = g.shape().to_vec();
                s.insert(axis, 1);
                g.reshape(s)
            };
            p.accumulate_grad(&g.broadcast_to(&in_shape));
        })
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let n = self.shape()[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&self) -> Tensor {
        let out = Array::scalar(self.with_value(|a| a.sum_all()));
        let p = self.clone();
        let in_shape = self.shape();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            p.accumulate_grad(&Array::full(in_shape.clone(), g.item()));
        })
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self) -> Tensor {
        let n: usize = self.shape().iter().product();
        self.sum_all().scale(1.0 / n as f32)
    }

    /// Concatenate along `axis`.
    pub fn concat(parts: &[Tensor], axis: usize) -> Tensor {
        let values: Vec<Array> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Array> = values.iter().collect();
        let out = Array::concat(&refs, axis);
        let parents = parts.to_vec();
        let handles = parts.to_vec();
        let extents: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        Tensor::from_op(out, parents, move |g| {
            let mut start = 0;
            for (h, &ext) in handles.iter().zip(&extents) {
                h.accumulate_grad(&g.slice_axis(axis, start, start + ext));
                start += ext;
            }
        })
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Tensor {
        let out = self.with_value(|a| a.slice_axis(axis, start, end));
        let p = self.clone();
        let src_shape = self.shape();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            p.accumulate_grad(&g.unslice_axis(&src_shape, axis, start));
        })
    }

    /// Select a single index along `axis`, removing that dimension.
    pub fn select(&self, axis: usize, index: usize) -> Tensor {
        let sliced = self.slice_axis(axis, index, index + 1);
        let mut shape = sliced.shape();
        shape.remove(axis);
        sliced.reshape(shape)
    }

    /// Differentiable row lookup into an embedding matrix (`self` is `[v, d]`).
    pub fn gather_rows(&self, indices: &[usize], index_shape: &[usize]) -> Tensor {
        let out = self.with_value(|a| a.gather_rows(indices, index_shape));
        let p = self.clone();
        let idx = indices.to_vec();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let mut acc = Array::zeros(p.shape());
            acc.scatter_add_rows(&idx, g);
            p.accumulate_grad(&acc);
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let out = self.with_value(|a| a.map(|v| v.max(0.0)));
        let p = self.clone();
        let v = self.value();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let dg = g.zip_broadcast(&v, |gi, xi| if xi > 0.0 { gi } else { 0.0 });
            p.accumulate_grad(&dg);
        })
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT).
    pub fn gelu(&self) -> Tensor {
        let out = self.with_value(gelu_array);
        let p = self.clone();
        let v = self.value();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let mut dx = vec![0.0f32; g.len()];
            em_kernels::gelu_backward(v.data(), g.data(), &mut dx);
            p.accumulate_grad_owned(Array::from_vec(dx, g.shape().to_vec()));
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let out = self.with_value(|a| a.map(f32::tanh));
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let dg = g.zip_broadcast(&y, |gi, yi| gi * (1.0 - yi * yi));
            p.accumulate_grad(&dg);
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let out = self.with_value(|a| a.map(|v| 1.0 / (1.0 + (-v).exp())));
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let dg = g.zip_broadcast(&y, |gi, yi| gi * yi * (1.0 - yi));
            p.accumulate_grad(&dg);
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let out = self.with_value(|a| a.map(f32::exp));
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            p.accumulate_grad(&g.mul(&y));
        })
    }

    /// Elementwise natural logarithm (clamped at `1e-12` for safety).
    pub fn ln(&self) -> Tensor {
        let out = self.with_value(|a| a.map(|v| v.max(1e-12).ln()));
        let p = self.clone();
        let v = self.value();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let dg = g.zip_broadcast(&v, |gi, xi| gi / xi.max(1e-12));
            p.accumulate_grad(&dg);
        })
    }

    /// Elementwise square root (clamped at zero).
    pub fn sqrt(&self) -> Tensor {
        let out = self.with_value(|a| a.map(|v| v.max(0.0).sqrt()));
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let dg = g.zip_broadcast(&y, |gi, yi| gi / (2.0 * yi.max(1e-12)));
            p.accumulate_grad(&dg);
        })
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.mul(self)
    }

    /// Softmax over the last dimension (numerically stabilized).
    pub fn softmax(&self) -> Tensor {
        let out = self.with_value(softmax_array);
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            // Fused row kernel: dx = y ⊙ (g − Σ g⊙y) with no temporaries.
            let d = *y.shape().last().expect("softmax on scalar");
            let mut dx = vec![0.0f32; g.len()];
            em_kernels::softmax_backward_rows(y.data(), g.data(), &mut dx, d);
            p.accumulate_grad_owned(Array::from_vec(dx, g.shape().to_vec()));
        })
    }

    /// Softmax over the last dimension of `self + bias`, where `bias` is a
    /// constant additive mask shaped `[batch, 1, .., 1, d]` broadcast over
    /// the interior axes of `self` (the attention padding-mask layout).
    ///
    /// Fused: the biased scores are never materialized, and because the
    /// bias is constant the backward is exactly the softmax adjoint pushed
    /// straight into `self` — the broadcast `add` node, its output buffer
    /// and its gradient pass-through all disappear from the graph.
    pub fn softmax_biased(&self, bias: &Array) -> Tensor {
        let shape = self.shape();
        let sb = bias.shape();
        let d = *shape.last().expect("softmax on scalar");
        // The fused kernel assumes each bias row covers a contiguous run of
        // score rows: leading axis `batch` (or 1), interior axes 1, last
        // axis `d`. Anything else falls back to the composed form.
        let fits = sb.len() == shape.len()
            && sb[sb.len() - 1] == d
            && sb[1..sb.len() - 1].iter().all(|&v| v == 1)
            && (sb[0] == shape[0] || sb[0] == 1);
        if !fits {
            return self.add(&Tensor::constant(bias.clone())).softmax();
        }
        let rows = self.with_value(Array::len) / d;
        let rows_per_bias = rows / (bias.len() / d);
        let out = self.with_value(|x| {
            let mut v = x.data().to_vec();
            em_kernels::softmax_rows_biased(&mut v, bias.data(), d, rows_per_bias);
            Array::from_vec(v, shape.clone())
        });
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            let mut dx = vec![0.0f32; g.len()];
            em_kernels::softmax_backward_rows(y.data(), g.data(), &mut dx, d);
            p.accumulate_grad_owned(Array::from_vec(dx, g.shape().to_vec()));
        })
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax(&self) -> Tensor {
        let out = self.with_value(log_softmax_array);
        let p = self.clone();
        let y = out.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            // dx = g - exp(y) * sum(g, last, keepdim)
            let s = g.sum_axis(y.ndim() - 1, true);
            let dx = g.sub(&y.map(f32::exp).mul(&s));
            p.accumulate_grad(&dx);
        })
    }

    /// Mean cross-entropy between logits `[n, c]` and hard class labels.
    ///
    /// Rows whose target is `ignore_index` contribute nothing (used to skip
    /// non-masked positions in MLM).
    pub fn cross_entropy(&self, targets: &[usize], ignore_index: Option<usize>) -> Tensor {
        let logits = self.value();
        assert_eq!(logits.ndim(), 2, "cross_entropy expects [n, classes]");
        let n = logits.shape()[0];
        let c = logits.shape()[1];
        assert_eq!(targets.len(), n, "target count mismatch");
        let logp = log_softmax_array(&logits);
        let active: Vec<usize> = (0..n)
            .filter(|&i| ignore_index.is_none_or(|ig| targets[i] != ig))
            .collect();
        let denom = active.len().max(1) as f32;
        let mut loss = 0.0f32;
        for &i in &active {
            loss -= logp.data()[i * c + targets[i]];
        }
        let out = Array::scalar(loss / denom);
        let p = self.clone();
        let tgt = targets.to_vec();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            // d logits = (softmax - onehot) / n_active, zero on ignored rows.
            let gs = g.item();
            let mut dx = Array::zeros(vec![n, c]);
            for &i in &active {
                let row = &logp.data()[i * c..(i + 1) * c];
                let d = &mut dx.data_mut()[i * c..(i + 1) * c];
                for (j, slot) in d.iter_mut().enumerate() {
                    *slot = gs * (row[j].exp() - if j == tgt[i] { 1.0 } else { 0.0 }) / denom;
                }
            }
            p.accumulate_grad(&dx);
        })
    }

    /// Mean soft-target cross-entropy `-Σ t·log s` between logits `[n, c]`
    /// and a probability distribution `targets [n, c]` (knowledge
    /// distillation's distillation loss).
    pub fn soft_cross_entropy(&self, targets: &Array) -> Tensor {
        let logits = self.value();
        assert_eq!(
            logits.shape(),
            targets.shape(),
            "soft target shape mismatch"
        );
        let n = logits.shape()[0] as f32;
        let logp = log_softmax_array(&logits);
        let loss = -logp.mul(targets).sum_all() / n;
        let p = self.clone();
        let t = targets.clone();
        Tensor::from_op(Array::scalar(loss), vec![self.clone()], move |g| {
            // d logits = (softmax - t) / n (since t rows sum to 1).
            let gs = g.item();
            let sm = logp.map(f32::exp);
            let dx = sm.sub(&t).scale(gs / n);
            p.accumulate_grad(&dx);
        })
    }

    /// Inverted-dropout: zero each element with probability `p` and scale
    /// survivors by `1/(1-p)`. Identity when `p == 0`.
    pub fn dropout(&self, p: f32, rng: &mut impl Rng) -> Tensor {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        if p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        // Fused: sample the mask and apply it in one pass over the input,
        // comparing raw u32 draws against an integer threshold (no
        // per-element int→float conversion).
        let inv = 1.0 / keep;
        let threshold = (keep as f64 * 4_294_967_296.0) as u64;
        let v = self.value();
        let mut mask = vec![0.0f32; v.len()];
        let mut out = vec![0.0f32; v.len()];
        for ((m, o), &x) in mask.iter_mut().zip(out.iter_mut()).zip(v.data()) {
            if u64::from(rng.gen::<u32>()) < threshold {
                *m = inv;
                *o = x * inv;
            }
        }
        let out = Array::from_vec(out, self.shape());
        let mask = Array::from_vec(mask, self.shape());
        let parent = self.clone();
        Tensor::from_op(out, vec![self.clone()], move |g| {
            parent.accumulate_grad_owned(g.mul(&mask));
        })
    }

    /// Layer normalization over the last dimension with learnable `gamma`
    /// and `beta` (both `[d]`).
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let x = self.value();
        let d = *x.shape().last().expect("layer_norm on scalar");
        let rows = x.len() / d;
        let gv = gamma.value();
        let bv = beta.value();
        assert_eq!(gv.shape(), &[d], "gamma must be [d]");
        assert_eq!(bv.shape(), &[d], "beta must be [d]");

        let mut out = vec![0.0f32; x.len()];
        let mut xhat = vec![0.0f32; x.len()];
        let mut inv_std = vec![0.0f32; rows];
        em_kernels::layer_norm_forward(
            x.data(),
            gv.data(),
            bv.data(),
            eps,
            &mut out,
            &mut xhat,
            &mut inv_std,
        );
        let out = Array::from_vec(out, x.shape().to_vec());
        let (px, pg, pb) = (self.clone(), gamma.clone(), beta.clone());
        let shape = x.shape().to_vec();
        Tensor::from_op(
            out,
            vec![self.clone(), gamma.clone(), beta.clone()],
            move |g| {
                // Fused backward over rows, shared with the kernels crate.
                let mut dgamma = vec![0.0f32; d];
                let mut dbeta = vec![0.0f32; d];
                let mut dx = vec![0.0f32; g.len()];
                em_kernels::layer_norm_backward(
                    &xhat,
                    &inv_std,
                    gv.data(),
                    g.data(),
                    &mut dx,
                    &mut dgamma,
                    &mut dbeta,
                );
                px.accumulate_grad_owned(Array::from_vec(dx, shape.clone()));
                pg.accumulate_grad_owned(Array::from_vec(dgamma, vec![d]));
                pb.accumulate_grad_owned(Array::from_vec(dbeta, vec![d]));
            },
        )
    }
}

/// Value-level layer norm over the last axis — the weight-extraction twin
/// of [`Tensor::layer_norm`] used by frozen inference models. Same
/// arithmetic (biased variance, eps inside the sqrt) via the shared kernel.
pub fn layer_norm_array(x: &Array, gamma: &[f32], beta: &[f32], eps: f32) -> Array {
    let d = *x.shape().last().expect("layer_norm on scalar");
    assert_eq!(gamma.len(), d, "gamma must be [d]");
    assert_eq!(beta.len(), d, "beta must be [d]");
    let mut out = x.data().to_vec();
    em_kernels::layer_norm_rows(&mut out, gamma, beta, eps);
    Array::from_vec(out, x.shape().to_vec())
}

/// Value-level GELU (tanh approximation) — the weight-extraction twin of
/// [`Tensor::gelu`] used by frozen inference models.
pub fn gelu_array(x: &Array) -> Array {
    let mut out = x.data().to_vec();
    em_kernels::gelu(&mut out);
    Array::from_vec(out, x.shape().to_vec())
}

/// Numerically-stable softmax over the last axis of a raw array.
pub fn softmax_array(x: &Array) -> Array {
    let d = *x.shape().last().expect("softmax on scalar");
    let mut out = x.data().to_vec();
    em_kernels::softmax_rows(&mut out, d);
    Array::from_vec(out, x.shape().to_vec())
}

/// Numerically-stable log-softmax over the last axis of a raw array.
pub fn log_softmax_array(x: &Array) -> Array {
    let d = *x.shape().last().expect("log_softmax on scalar");
    let mut out = x.data().to_vec();
    em_kernels::log_softmax_rows(&mut out, d);
    Array::from_vec(out, x.shape().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_broadcast_grads_reduce() {
        let a = Tensor::parameter(Array::zeros(vec![2, 3]));
        let b = Tensor::parameter(Array::zeros(vec![3]));
        let y = a.add(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().shape(), &[2, 3]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::constant(Array::from_vec(
            vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0],
            vec![2, 3],
        ));
        let y = x.softmax().value();
        for r in 0..2 {
            let s: f32 = y.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_biased_matches_composed_add_softmax() {
        // Attention-mask layout: scores [b=2, h=2, t=3, t=3], mask
        // [2, 1, 1, 3] with one key position blocked per batch item.
        let mut rng = StdRng::seed_from_u64(11);
        let x_data: Vec<f32> = (0..2 * 2 * 3 * 3).map(|_| rng.gen::<f32>() * 4.0).collect();
        let bias = Array::from_vec(vec![0.0, -1e9, 0.0, -1e9, 0.0, 0.0], vec![2, 1, 1, 3]);
        let g_seed: Vec<f32> = (0..x_data.len()).map(|_| rng.gen::<f32>() - 0.5).collect();

        let fused_x = Tensor::parameter(Array::from_vec(x_data.clone(), vec![2, 2, 3, 3]));
        let fused = fused_x.softmax_biased(&bias);
        let composed_x = Tensor::parameter(Array::from_vec(x_data, vec![2, 2, 3, 3]));
        let composed = composed_x.add(&Tensor::constant(bias.clone())).softmax();

        for (f, c) in fused.value().data().iter().zip(composed.value().data()) {
            assert!((f - c).abs() <= 1e-6, "forward: {f} vs {c}");
        }
        let seed = Array::from_vec(g_seed, vec![2, 2, 3, 3]);
        fused.backward_with(seed.clone());
        composed.backward_with(seed);
        let gf = fused_x.grad().unwrap();
        let gc = composed_x.grad().unwrap();
        for (f, c) in gf.data().iter().zip(gc.data()) {
            assert!((f - c).abs() <= 1e-6, "grad: {f} vs {c}");
        }
    }

    #[test]
    fn softmax_biased_odd_shape_falls_back() {
        // Bias shape the fused kernel does not cover (interior axis > 1):
        // must still produce the composed result.
        let mut rng = StdRng::seed_from_u64(12);
        let x_data: Vec<f32> = (0..2 * 3 * 3).map(|_| rng.gen::<f32>() * 2.0).collect();
        let bias_data: Vec<f32> = (0..3 * 3).map(|_| rng.gen::<f32>()).collect();
        let bias = Array::from_vec(bias_data, vec![1, 3, 3]);
        let x = Tensor::constant(Array::from_vec(x_data.clone(), vec![2, 3, 3]));
        let got = x.softmax_biased(&bias).value();
        let want = x.add(&Tensor::constant(bias)).softmax().value();
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 1e-6, "{g} vs {w}");
        }
    }

    #[test]
    fn cross_entropy_matches_manual() {
        // Uniform logits: loss = ln(c)
        let x = Tensor::parameter(Array::zeros(vec![4, 5]));
        let loss = x.cross_entropy(&[0, 1, 2, 3], None);
        assert!((loss.item() - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_ignore_index_skips_rows() {
        let mut data = vec![0.0; 10];
        data[0] = 100.0; // row 0 strongly predicts class 0
        let x = Tensor::parameter(Array::from_vec(data, vec![2, 5]));
        // Row 1 ignored: loss is only row 0, which is ~0.
        let loss = x.cross_entropy(&[0, 9999], Some(9999));
        assert!(loss.item() < 1e-3);
        loss.backward();
        let g = x.grad().unwrap();
        // Ignored row must have zero gradient.
        assert!(g.data()[5..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::parameter(Array::ones(vec![4]));
        let y = x.dropout(0.0, &mut rng);
        assert_eq!(y.value().data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::parameter(Array::ones(vec![1000]));
        let y = x.dropout(0.5, &mut rng).value();
        for &v in y.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        // Expectation preserved within tolerance.
        let mean = y.mean_all();
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn layer_norm_normalizes() {
        let d = 8;
        let x = Tensor::constant(Array::from_vec(
            (0..16).map(|v| v as f32).collect(),
            vec![2, d],
        ));
        let gamma = Tensor::parameter(Array::ones(vec![d]));
        let beta = Tensor::parameter(Array::zeros(vec![d]));
        let y = x.layer_norm(&gamma, &beta, 1e-5).value();
        for r in 0..2 {
            let row = &y.data()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn matmul_grads_shapes() {
        let a = Tensor::parameter(Array::ones(vec![2, 3, 4]));
        let w = Tensor::parameter(Array::ones(vec![4, 5]));
        let y = a.matmul(&w).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().shape(), &[2, 3, 4]);
        assert_eq!(w.grad().unwrap().shape(), &[4, 5]);
        // Each W element sees 2*3 = 6 ones.
        assert!(w
            .grad()
            .unwrap()
            .data()
            .iter()
            .all(|&v| (v - 6.0).abs() < 1e-6));
    }

    #[test]
    fn gather_rows_grad_scatters() {
        let table = Tensor::parameter(Array::ones(vec![4, 2]));
        let y = table.gather_rows(&[1, 1, 3], &[3]).sum_all();
        y.backward();
        let g = table.grad().unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }
}
