//! Convolutional and pooling layers with hand-written backprop.
//!
//! Feature maps travel between layers as the workspace's 2-D
//! [`Tensor`]: each batch row is one image flattened channel-major,
//! `features[c * h * w + y * w + x]`. A [`ConvSpec`] carries the
//! spatial interpretation, so a convolution is self-describing — it
//! validates its input width and produces the next layer's width.
//!
//! The forward path uses im2col: every receptive field is unrolled
//! into a row of a patch matrix, turning the convolution into one
//! matrix product against the `(out_c, in_c·k·k)` kernel matrix. That
//! matrix is quantized, deployed to DRAM and attacked bit-by-bit
//! exactly like a fully-connected weight matrix — which is what lets
//! BFA walk conv kernels through the same [`BitIndex`] machinery.
//!
//! [`BitIndex`]: crate::quant::BitIndex

use serde::{Deserialize, Serialize};

use crate::error::DnnError;
use crate::tensor::Tensor;

/// Spatial specification of a 2-D convolution with square kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel side length.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each spatial border.
    pub pad: usize,
}

impl ConvSpec {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Flattened input width `in_c·in_h·in_w`.
    pub fn in_features(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Flattened output width `out_c·out_h·out_w`.
    pub fn out_features(&self) -> usize {
        self.out_c * self.out_h() * self.out_w()
    }

    /// Unrolled receptive-field length `in_c·k·k` — the kernel
    /// matrix's inner dimension.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.k * self.k
    }
}

/// A 2-D convolution layer storing its kernels as the im2col matrix
/// `(out_c, in_c·k·k)`.
///
/// # Example
///
/// ```
/// use dlk_dnn::conv::{Conv2d, ConvSpec};
/// use dlk_dnn::Tensor;
///
/// let spec = ConvSpec { in_c: 1, in_h: 4, in_w: 4, out_c: 2, k: 3, stride: 1, pad: 1 };
/// let conv = Conv2d::new(spec, 7);
/// let x = Tensor::zeros(5, spec.in_features());
/// let y = conv.forward(&x).unwrap();
/// assert_eq!(y.shape(), (5, spec.out_features()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    weight: Tensor,
    bias: Vec<f32>,
    spec: ConvSpec,
}

/// Gradients of one convolution layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvGrads {
    /// dL/dW in kernel-matrix form `(out_c, in_c·k·k)`.
    pub weight: Tensor,
    /// dL/db, length `out_c`.
    pub bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a layer with Kaiming-random kernels and zero bias.
    pub fn new(spec: ConvSpec, seed: u64) -> Self {
        Self {
            weight: Tensor::randn(spec.out_c, spec.patch_len(), seed),
            bias: vec![0.0; spec.out_c],
            spec,
        }
    }

    /// Creates a layer from an explicit kernel matrix.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `(out_c, in_c·k·k)` or `bias` is not
    /// `out_c` long.
    pub fn from_parts(weight: Tensor, bias: Vec<f32>, spec: ConvSpec) -> Self {
        assert_eq!(weight.shape(), (spec.out_c, spec.patch_len()), "kernel matrix shape");
        assert_eq!(bias.len(), spec.out_c, "bias length must equal out channels");
        Self { weight, bias, spec }
    }

    /// The spatial specification.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The kernel matrix `(out_c, in_c·k·k)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable kernel matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    fn check_input(&self, x: &Tensor) -> Result<(), DnnError> {
        if x.cols() != self.spec.in_features() {
            return Err(DnnError::ShapeMismatch {
                op: "conv2d",
                lhs: x.shape(),
                rhs: (self.spec.out_c, self.spec.in_features()),
            });
        }
        Ok(())
    }

    /// Unrolls every receptive field of `x` into a patch-matrix row:
    /// `(batch·out_h·out_w, in_c·k·k)`, zero-filled where the kernel
    /// overhangs the padding border.
    fn im2col(&self, x: &Tensor) -> Tensor {
        let s = &self.spec;
        let (oh, ow, plen) = (s.out_h(), s.out_w(), s.patch_len());
        let mut cols = Tensor::zeros(x.rows() * oh * ow, plen);
        let data = cols.as_mut_slice();
        for b in 0..x.rows() {
            let image = x.row(b);
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = ((b * oh + oy) * ow + ox) * plen;
                    for c in 0..s.in_c {
                        for ky in 0..s.k {
                            let iy = oy * s.stride + ky;
                            if iy < s.pad || iy >= s.in_h + s.pad {
                                continue;
                            }
                            let iy = iy - s.pad;
                            for kx in 0..s.k {
                                let ix = ox * s.stride + kx;
                                if ix < s.pad || ix >= s.in_w + s.pad {
                                    continue;
                                }
                                let ix = ix - s.pad;
                                data[base + (c * s.k + ky) * s.k + kx] =
                                    image[(c * s.in_h + iy) * s.in_w + ix];
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    /// Scatter-adds patch-matrix gradients back onto the input image —
    /// the exact adjoint of [`Conv2d::im2col`].
    fn col2im(&self, d_cols: &Tensor, batch: usize) -> Tensor {
        let s = &self.spec;
        let (oh, ow, plen) = (s.out_h(), s.out_w(), s.patch_len());
        let mut d_x = Tensor::zeros(batch, s.in_features());
        let out = d_x.as_mut_slice();
        for b in 0..batch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = d_cols.row((b * oh + oy) * ow + ox);
                    debug_assert_eq!(row.len(), plen);
                    for c in 0..s.in_c {
                        for ky in 0..s.k {
                            let iy = oy * s.stride + ky;
                            if iy < s.pad || iy >= s.in_h + s.pad {
                                continue;
                            }
                            let iy = iy - s.pad;
                            for kx in 0..s.k {
                                let ix = ox * s.stride + kx;
                                if ix < s.pad || ix >= s.in_w + s.pad {
                                    continue;
                                }
                                let ix = ix - s.pad;
                                out[b * s.in_features() + (c * s.in_h + iy) * s.in_w + ix] +=
                                    row[(c * s.k + ky) * s.k + kx];
                            }
                        }
                    }
                }
            }
        }
        d_x
    }

    /// Forward pass via im2col: `x (batch, in_c·in_h·in_w)` →
    /// `(batch, out_c·out_h·out_w)`, channel-major.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.forward_transposed(x, &self.weight.transposed())
    }

    /// [`Conv2d::forward`] with the kernel matrix already transposed to
    /// `(in_c·k·k, out_c)`, for callers that run one layer many times.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward_transposed(&self, x: &Tensor, weight_t: &Tensor) -> Result<Tensor, DnnError> {
        debug_assert_eq!(weight_t.shape(), (self.spec.patch_len(), self.spec.out_c));
        self.check_input(x)?;
        let s = &self.spec;
        let (oh, ow) = (s.out_h(), s.out_w());
        let cols = self.im2col(x);
        // (batch·oh·ow, out_c)
        let y = cols.matmul(weight_t)?;
        let mut out = Tensor::zeros(x.rows(), s.out_features());
        let data = out.as_mut_slice();
        for b in 0..x.rows() {
            for p in 0..oh * ow {
                let src = y.row(b * oh * ow + p);
                for (c, &v) in src.iter().enumerate() {
                    data[b * s.out_features() + c * oh * ow + p] = v + self.bias[c];
                }
            }
        }
        Ok(out)
    }

    /// Reference forward pass with naive nested loops — the oracle the
    /// im2col path is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward_naive(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.check_input(x)?;
        let s = &self.spec;
        let (oh, ow) = (s.out_h(), s.out_w());
        let mut out = Tensor::zeros(x.rows(), s.out_features());
        for b in 0..x.rows() {
            let image = x.row(b);
            for oc in 0..s.out_c {
                let kernel = self.weight.row(oc);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias[oc];
                        for c in 0..s.in_c {
                            for ky in 0..s.k {
                                for kx in 0..s.k {
                                    let iy = (oy * s.stride + ky) as i64 - s.pad as i64;
                                    let ix = (ox * s.stride + kx) as i64 - s.pad as i64;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= s.in_h as i64
                                        || ix >= s.in_w as i64
                                    {
                                        continue;
                                    }
                                    acc += kernel[(c * s.k + ky) * s.k + kx]
                                        * image[(c * s.in_h + iy as usize) * s.in_w + ix as usize];
                                }
                            }
                        }
                        out.set(b, (oc * oh + oy) * ow + ox, acc);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Backward pass. Given the forward input `x` and upstream gradient
    /// `d_out (batch, out_c·out_h·out_w)`, returns `(grads, d_x)`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward(&self, x: &Tensor, d_out: &Tensor) -> Result<(ConvGrads, Tensor), DnnError> {
        self.check_input(x)?;
        let s = &self.spec;
        let (oh, ow) = (s.out_h(), s.out_w());
        if d_out.shape() != (x.rows(), s.out_features()) {
            return Err(DnnError::ShapeMismatch {
                op: "conv2d backward",
                lhs: d_out.shape(),
                rhs: (x.rows(), s.out_features()),
            });
        }
        // Fold the channel-major output gradient back into patch-row
        // order (batch·oh·ow, out_c).
        let mut d_y = Tensor::zeros(x.rows() * oh * ow, s.out_c);
        let mut d_bias = vec![0.0f32; s.out_c];
        for b in 0..x.rows() {
            let grad = d_out.row(b);
            for c in 0..s.out_c {
                for p in 0..oh * ow {
                    let v = grad[c * oh * ow + p];
                    d_y.set(b * oh * ow + p, c, v);
                    d_bias[c] += v;
                }
            }
        }
        let cols = self.im2col(x);
        // dW = d_yᵀ × cols  (out_c, in_c·k·k)
        let d_weight = d_y.transpose_matmul(&cols)?;
        // d_cols = d_y × W  (batch·oh·ow, in_c·k·k)
        let d_cols = d_y.matmul(&self.weight)?;
        let d_x = self.col2im(&d_cols, x.rows());
        Ok((ConvGrads { weight: d_weight, bias: d_bias }, d_x))
    }
}

/// A 2-D pooling window (shared by max and average pooling, which
/// carry no parameters — the [`Layer`](crate::network::Layer) variant
/// picks the reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2d {
    /// Channels (pooling is per-channel).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Window side length.
    pub k: usize,
    /// Stride.
    pub stride: usize,
}

impl Pool2d {
    /// The ubiquitous 2×2/stride-2 halving window.
    pub fn halve(channels: usize, in_h: usize, in_w: usize) -> Self {
        Self { channels, in_h, in_w, k: 2, stride: 2 }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.k) / self.stride + 1
    }

    /// Flattened input width.
    pub fn in_features(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    /// Flattened output width.
    pub fn out_features(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    fn check_input(&self, x: &Tensor) -> Result<(), DnnError> {
        if x.cols() != self.in_features() {
            return Err(DnnError::ShapeMismatch {
                op: "pool2d",
                lhs: x.shape(),
                rhs: (self.channels, self.in_features()),
            });
        }
        Ok(())
    }

    /// Max-pool forward. Returns the output and, per output element,
    /// the flat in-row index of the winning input (for backward).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward_max(&self, x: &Tensor) -> Result<(Tensor, Vec<usize>), DnnError> {
        self.check_input(x)?;
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = Tensor::zeros(x.rows(), self.out_features());
        let mut switches = vec![0usize; x.rows() * self.out_features()];
        for b in 0..x.rows() {
            let image = x.row(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_index = 0;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let index = (c * self.in_h + iy) * self.in_w + ix;
                                if image[index] > best {
                                    best = image[index];
                                    best_index = index;
                                }
                            }
                        }
                        let o = (c * oh + oy) * ow + ox;
                        out.set(b, o, best);
                        switches[b * self.out_features() + o] = best_index;
                    }
                }
            }
        }
        Ok((out, switches))
    }

    /// Max-pool backward: route each output gradient to the input that
    /// won the forward max.
    ///
    /// # Panics
    ///
    /// Panics if `switches` does not match `d_out`'s element count.
    pub fn backward_max(&self, d_out: &Tensor, switches: &[usize]) -> Tensor {
        assert_eq!(switches.len(), d_out.len(), "switch/grad size mismatch");
        let mut d_x = Tensor::zeros(d_out.rows(), self.in_features());
        let out = d_x.as_mut_slice();
        for b in 0..d_out.rows() {
            let grad = d_out.row(b);
            for (o, &g) in grad.iter().enumerate() {
                out[b * self.in_features() + switches[b * self.out_features() + o]] += g;
            }
        }
        d_x
    }

    /// Average-pool forward.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width.
    pub fn forward_avg(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.check_input(x)?;
        let (oh, ow) = (self.out_h(), self.out_w());
        let norm = 1.0 / (self.k * self.k) as f32;
        let mut out = Tensor::zeros(x.rows(), self.out_features());
        for b in 0..x.rows() {
            let image = x.row(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                acc += image[(c * self.in_h + iy) * self.in_w + ix];
                            }
                        }
                        out.set(b, (c * oh + oy) * ow + ox, acc * norm);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Average-pool backward: spread each output gradient uniformly
    /// over its window.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong gradient width.
    pub fn backward_avg(&self, d_out: &Tensor) -> Result<Tensor, DnnError> {
        if d_out.cols() != self.out_features() {
            return Err(DnnError::ShapeMismatch {
                op: "pool2d backward",
                lhs: d_out.shape(),
                rhs: (self.channels, self.out_features()),
            });
        }
        let (oh, ow) = (self.out_h(), self.out_w());
        let norm = 1.0 / (self.k * self.k) as f32;
        let mut d_x = Tensor::zeros(d_out.rows(), self.in_features());
        let out = d_x.as_mut_slice();
        for b in 0..d_out.rows() {
            let grad = d_out.row(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad[(c * oh + oy) * ow + ox] * norm;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                out[b * self.in_features()
                                    + (c * self.in_h + iy) * self.in_w
                                    + ix] += g;
                            }
                        }
                    }
                }
            }
        }
        Ok(d_x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_3x3() -> ConvSpec {
        ConvSpec { in_c: 2, in_h: 5, in_w: 4, out_c: 3, k: 3, stride: 1, pad: 1 }
    }

    #[test]
    fn im2col_forward_matches_naive_reference() {
        for spec in [
            spec_3x3(),
            ConvSpec { in_c: 1, in_h: 6, in_w: 6, out_c: 2, k: 3, stride: 2, pad: 0 },
            ConvSpec { in_c: 3, in_h: 4, in_w: 4, out_c: 4, k: 2, stride: 2, pad: 1 },
            ConvSpec { in_c: 2, in_h: 1, in_w: 1, out_c: 2, k: 3, stride: 1, pad: 1 },
        ] {
            let mut conv = Conv2d::new(spec, 11);
            for (i, b) in conv.bias_mut().iter_mut().enumerate() {
                *b = 0.1 * i as f32 - 0.05;
            }
            let x = Tensor::randn(3, spec.in_features(), 12);
            let fast = conv.forward(&x).unwrap();
            let naive = conv.forward_naive(&x).unwrap();
            assert_eq!(fast.shape(), naive.shape());
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!((a - b).abs() < 1e-4, "im2col {a} vs naive {b} in {spec:?}");
            }
        }
    }

    #[test]
    fn conv_shapes_and_wrong_input_rejected() {
        let spec = spec_3x3();
        let conv = Conv2d::new(spec, 1);
        assert_eq!(spec.out_h(), 5);
        assert_eq!(spec.out_w(), 4);
        let y = conv.forward(&Tensor::zeros(2, spec.in_features())).unwrap();
        assert_eq!(y.shape(), (2, spec.out_features()));
        assert!(conv.forward(&Tensor::zeros(2, spec.in_features() + 1)).is_err());
    }

    #[test]
    fn conv_gradient_check_weights_bias_and_input() {
        let spec = ConvSpec { in_c: 2, in_h: 3, in_w: 3, out_c: 2, k: 2, stride: 1, pad: 0 };
        let mut conv = Conv2d::new(spec, 21);
        let x = Tensor::randn(2, spec.in_features(), 22);
        // Scalar loss: sum of squared outputs / 2, so dL/dy = y.
        let loss_of = |conv: &Conv2d, x: &Tensor| -> f32 {
            conv.forward(x).unwrap().as_slice().iter().map(|v| v * v * 0.5).sum()
        };
        let y = conv.forward(&x).unwrap();
        let (grads, d_x) = conv.backward(&x, &y).unwrap();

        let eps = 1e-2f32;
        for index in [0usize, 3, 7, spec.out_c * spec.patch_len() - 1] {
            let orig = conv.weight().as_slice()[index];
            conv.weight_mut().as_mut_slice()[index] = orig + eps;
            let up = loss_of(&conv, &x);
            conv.weight_mut().as_mut_slice()[index] = orig - eps;
            let down = loss_of(&conv, &x);
            conv.weight_mut().as_mut_slice()[index] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads.weight.as_slice()[index];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "weight {index}: numeric {numeric} vs analytic {analytic}"
            );
        }
        {
            let orig = conv.bias()[1];
            conv.bias_mut()[1] = orig + eps;
            let up = loss_of(&conv, &x);
            conv.bias_mut()[1] = orig - eps;
            let down = loss_of(&conv, &x);
            conv.bias_mut()[1] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!((numeric - grads.bias[1]).abs() < 2e-2 * grads.bias[1].abs().max(1.0));
        }
        {
            let mut probe = x.clone();
            let orig = probe.get(1, 4);
            probe.set(1, 4, orig + eps);
            let up = loss_of(&conv, &probe);
            probe.set(1, 4, orig - eps);
            let down = loss_of(&conv, &probe);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = d_x.get(1, 4);
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "input: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn max_pool_selects_maxima_and_routes_gradient() {
        let pool = Pool2d::halve(1, 4, 4);
        #[rustfmt::skip]
        let x = Tensor::from_rows(&[&[
            1.0, 5.0,  2.0, 0.0,
            3.0, 4.0,  1.0, 8.0,
            0.0, 0.0,  9.0, 1.0,
            2.0, 1.0,  1.0, 1.0,
        ]]);
        let (y, switches) = pool.forward_max(&x).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 8.0, 2.0, 9.0]);
        let d = pool.backward_max(&Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]), &switches);
        assert_eq!(d.get(0, 1), 1.0); // the 5.0
        assert_eq!(d.get(0, 7), 2.0); // the 8.0
        assert_eq!(d.get(0, 12), 3.0); // the 2.0
        assert_eq!(d.get(0, 10), 4.0); // the 9.0
        assert_eq!(d.as_slice().iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn avg_pool_averages_and_spreads_gradient() {
        let pool = Pool2d::halve(1, 2, 2);
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 6.0]]);
        let y = pool.forward_avg(&x).unwrap();
        assert_eq!(y.as_slice(), &[3.0]);
        let d = pool.backward_avg(&Tensor::from_rows(&[&[4.0]])).unwrap();
        assert_eq!(d.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_gradient_check() {
        let pool = Pool2d { channels: 2, in_h: 4, in_w: 4, k: 2, stride: 2 };
        let x = Tensor::randn(2, pool.in_features(), 5);
        let loss_of = |x: &Tensor| -> f32 { pool.forward_avg(x).unwrap().as_slice().iter().sum() };
        let ones = Tensor::from_vec(2, pool.out_features(), vec![1.0; 2 * pool.out_features()]);
        let d_x = pool.backward_avg(&ones).unwrap();
        let eps = 1e-2f32;
        let mut probe = x.clone();
        let orig = probe.get(0, 5);
        probe.set(0, 5, orig + eps);
        let up = loss_of(&probe);
        probe.set(0, 5, orig - eps);
        let down = loss_of(&probe);
        let numeric = (up - down) / (2.0 * eps);
        assert!((numeric - d_x.get(0, 5)).abs() < 1e-2);
    }

    #[test]
    fn pool_rejects_wrong_width() {
        let pool = Pool2d::halve(2, 4, 4);
        assert!(pool.forward_max(&Tensor::zeros(1, 3)).is_err());
        assert!(pool.forward_avg(&Tensor::zeros(1, 3)).is_err());
        assert!(pool.backward_avg(&Tensor::zeros(1, 3)).is_err());
    }
}
