//! The sequential float network: a flat [`Layer`] list covering MLPs
//! (dense layers with ReLU between), convolutions, pooling and
//! residual skips.
//!
//! A [`Network`] executes its layers in order over the workspace's 2-D
//! [`Tensor`] (each batch row one flattened feature map). Residual
//! blocks are encoded *flat* with two structure markers instead of
//! nesting: [`Layer::SkipStart`] remembers the running activation and
//! [`Layer::SkipAdd`] adds it back (the identity shortcut of a ResNet
//! basic block). Keeping the list flat is what lets the quantized
//! attack surface address every weight as `(weighted-layer, index,
//! bit)` uniformly across MLPs and CNNs.
//!
//! ```
//! use dlk_dnn::network::{Layer, Network};
//! use dlk_dnn::Tensor;
//!
//! // An MLP is the plan Dense (Relu Dense)*.
//! let net = Network::mlp(&[4, 8, 2], 7);
//! assert!(matches!(net.layers(), [Layer::Dense(_), Layer::Relu, Layer::Dense(_)]));
//! let x = Tensor::randn(3, 4, 9);
//! assert_eq!(net.forward(&x).unwrap().shape(), (3, 2));
//! assert_eq!(net.weighted_count(), 2);
//! ```

use serde::{Deserialize, Serialize};

use crate::conv::{Conv2d, Pool2d};
use crate::error::DnnError;
use crate::layers::{
    cross_entropy_grad, relu_backward, relu_forward, softmax_cross_entropy, Linear,
};
use crate::tensor::Tensor;

/// One step of a [`Network`]'s execution plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// A fully-connected layer.
    Dense(Linear),
    /// A 2-D convolution (im2col kernel matrix).
    Conv(Conv2d),
    /// Element-wise ReLU.
    Relu,
    /// 2-D max pooling.
    MaxPool(Pool2d),
    /// 2-D average pooling.
    AvgPool(Pool2d),
    /// Remembers the running activation as a residual shortcut.
    SkipStart,
    /// Adds the most recent remembered shortcut back (identity
    /// residual). Pairs with the innermost open [`Layer::SkipStart`].
    SkipAdd,
}

impl Layer {
    /// Whether this layer carries attackable weights.
    pub fn is_weighted(&self) -> bool {
        matches!(self, Layer::Dense(_) | Layer::Conv(_))
    }

    /// Number of weight parameters (excluding biases).
    pub fn num_weights(&self) -> usize {
        self.weight().map_or(0, Tensor::len)
    }

    /// The weight matrix, for weighted layers.
    pub fn weight(&self) -> Option<&Tensor> {
        match self {
            Layer::Dense(l) => Some(l.weight()),
            Layer::Conv(c) => Some(c.weight()),
            _ => None,
        }
    }

    /// Mutable weight matrix, for weighted layers.
    pub fn weight_mut(&mut self) -> Option<&mut Tensor> {
        match self {
            Layer::Dense(l) => Some(l.weight_mut()),
            Layer::Conv(c) => Some(c.weight_mut()),
            _ => None,
        }
    }
}

/// Gradients of one weighted layer, flat: `weight[i]` is dL/dw for the
/// same flat index `i` that [`BitIndex`](crate::quant::BitIndex) uses.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrads {
    /// dL/dW, flattened row-major like the layer's weight matrix.
    pub weight: Vec<f32>,
    /// dL/db.
    pub bias: Vec<f32>,
}

/// A sequential network over a flat [`Layer`] list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

/// The forward state a [`Trace`] keeps at one weighted layer: enough to
/// re-run the network from that layer with one of its weights changed.
#[derive(Debug)]
struct Checkpoint {
    /// Plan index of the layer.
    step: usize,
    /// Activation entering the layer.
    input: Tensor,
    /// Activation leaving it.
    output: Tensor,
    /// Residual shortcuts open at the layer, innermost last.
    skips: Vec<Tensor>,
}

/// A forward + backward pass kept for re-running the network with one
/// weight changed ([`Trace::forward_with_weight`]) — the loop of
/// progressive bit search, which trials many single-weight changes on
/// one batch. Built by [`Network::trace`].
#[derive(Debug)]
pub struct Trace<'a> {
    network: &'a Network,
    grads: Vec<LayerGrads>,
    checkpoints: Vec<Checkpoint>,
    /// Per plan step, the weight matrix transposed (weighted steps
    /// only): transposed once here instead of once per re-run.
    transposed: Vec<Option<Tensor>>,
}

/// What a forward pass records: one [`Cache`] per plan step for
/// backprop and, when tracing, one [`Checkpoint`] per weighted layer.
#[derive(Default)]
struct Tape {
    caches: Vec<Cache>,
    checkpoints: Option<Vec<Checkpoint>>,
}

/// Per-layer forward state kept for the backward pass.
enum Cache {
    /// The layer's input activation (weighted layers).
    Input(Tensor),
    /// ReLU sign mask.
    Mask(Vec<bool>),
    /// Max-pool winner indices.
    Switches(Vec<usize>),
    /// Nothing needed.
    None,
}

impl Network {
    /// Builds a network from a layer list.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// Builds the MLP topology `sizes`, e.g. `&[in, h1, out]`: Dense
    /// layers with ReLU between, layer `i` initialized from seed
    /// `seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn mlp(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        Self::from_dense(
            sizes
                .windows(2)
                .enumerate()
                .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64))),
        )
    }

    /// Builds the MLP plan over the given dense layers: ReLU between
    /// consecutive layers, none after the last.
    pub fn from_dense(dense: impl IntoIterator<Item = Linear>) -> Self {
        let mut layers = Vec::new();
        for linear in dense {
            if !layers.is_empty() {
                layers.push(Layer::Relu);
            }
            layers.push(Layer::Dense(linear));
        }
        Self { layers }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// The layer list.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer list.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// The weighted (Dense/Conv) layers in execution order — the list
    /// [`BitIndex::layer`](crate::quant::BitIndex) indexes.
    pub fn weighted_layers(&self) -> Vec<&Layer> {
        self.layers.iter().filter(|l| l.is_weighted()).collect()
    }

    /// Number of weighted layers.
    pub fn weighted_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Total weight parameters across layers (excluding biases).
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(Layer::num_weights).sum()
    }

    /// Input feature count (first weighted layer's input width).
    pub fn in_features(&self) -> usize {
        self.layers
            .iter()
            .find_map(|layer| match layer {
                Layer::Dense(l) => Some(l.in_features()),
                Layer::Conv(c) => Some(c.spec().in_features()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Output class count (last weighted layer's output width).
    pub fn num_classes(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|layer| match layer {
                Layer::Dense(l) => Some(l.out_features()),
                Layer::Conv(c) => Some(c.spec().out_features()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// The dense layers, in order, when the plan is exactly the MLP
    /// shape `Dense (Relu Dense)*` that [`Network::from_dense`] builds;
    /// `None` for any other plan (CNNs included).
    pub fn mlp_layers(&self) -> Option<Vec<&Linear>> {
        let mut dense = Vec::new();
        for (index, layer) in self.layers.iter().enumerate() {
            match layer {
                Layer::Dense(l) if index % 2 == 0 => dense.push(l),
                Layer::Relu if index % 2 == 1 => {}
                _ => return None,
            }
        }
        if dense.is_empty() || self.layers.len().is_multiple_of(2) {
            return None;
        }
        Some(dense)
    }

    /// Forward pass to logits.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on wrong input width and
    /// [`DnnError::UnbalancedSkip`] for mismatched skip markers.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.forward_from(0, x.clone(), Vec::new(), &[], None)
    }

    /// The one forward implementation: runs plan steps `start..` on
    /// activation `act` with the residual shortcuts `skips` open
    /// (innermost last). `transposed[step]`, where present, is that
    /// step's weight matrix transposed, saving the layer a transpose;
    /// `tape` records what backprop and [`Trace`] need.
    fn forward_from(
        &self,
        start: usize,
        mut act: Tensor,
        mut skips: Vec<Tensor>,
        transposed: &[Option<Tensor>],
        mut tape: Option<&mut Tape>,
    ) -> Result<Tensor, DnnError> {
        for (step, layer) in self.layers.iter().enumerate().skip(start) {
            let weight_t = transposed.get(step).and_then(Option::as_ref);
            let cache = match layer {
                Layer::Dense(l) => {
                    let input = act;
                    act = match weight_t {
                        Some(t) => l.forward_transposed(&input, t)?,
                        None => l.forward(&input)?,
                    };
                    Cache::Input(input)
                }
                Layer::Conv(c) => {
                    let input = act;
                    act = match weight_t {
                        Some(t) => c.forward_transposed(&input, t)?,
                        None => c.forward(&input)?,
                    };
                    Cache::Input(input)
                }
                Layer::Relu => {
                    let (y, mask) = relu_forward(&act);
                    act = y;
                    Cache::Mask(mask)
                }
                Layer::MaxPool(p) => {
                    let (y, switches) = p.forward_max(&act)?;
                    act = y;
                    Cache::Switches(switches)
                }
                Layer::AvgPool(p) => {
                    act = p.forward_avg(&act)?;
                    Cache::None
                }
                Layer::SkipStart => {
                    skips.push(act.clone());
                    Cache::None
                }
                Layer::SkipAdd => {
                    let skip = skips.pop().ok_or(DnnError::UnbalancedSkip)?;
                    act.add_assign(&skip)?;
                    Cache::None
                }
            };
            if let Some(tape) = tape.as_deref_mut() {
                if let (Some(checkpoints), Cache::Input(input)) = (&mut tape.checkpoints, &cache) {
                    let (input, output, skips) = (input.clone(), act.clone(), skips.clone());
                    checkpoints.push(Checkpoint { step, input, output, skips });
                }
                tape.caches.push(cache);
            }
        }
        if skips.is_empty() {
            Ok(act)
        } else {
            Err(DnnError::UnbalancedSkip)
        }
    }

    /// Forward + backward: the mean softmax cross-entropy loss and one
    /// [`LayerGrads`] per *weighted* layer, in execution order.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] on inconsistent shapes and
    /// [`DnnError::UnbalancedSkip`] for mismatched skip markers.
    pub fn loss_and_grads(
        &self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Vec<LayerGrads>), DnnError> {
        self.backprop(x, labels, &[], &mut Tape::default())
    }

    /// [`Network::loss_and_grads`], keeping what
    /// [`Trace::forward_with_weight`] needs to re-run the network from
    /// any weighted layer: every weight matrix transposed once, and each
    /// weighted layer's input, output and open residual shortcuts.
    ///
    /// # Errors
    ///
    /// Same as [`Network::loss_and_grads`].
    pub fn trace(&self, x: &Tensor, labels: &[usize]) -> Result<Trace<'_>, DnnError> {
        let transposed: Vec<Option<Tensor>> =
            self.layers.iter().map(|layer| layer.weight().map(Tensor::transposed)).collect();
        let mut tape = Tape { caches: Vec::new(), checkpoints: Some(Vec::new()) };
        let (_, grads) = self.backprop(x, labels, &transposed, &mut tape)?;
        let checkpoints = tape.checkpoints.unwrap_or_default();
        Ok(Trace { network: self, grads, checkpoints, transposed })
    }

    fn backprop(
        &self,
        x: &Tensor,
        labels: &[usize],
        transposed: &[Option<Tensor>],
        tape: &mut Tape,
    ) -> Result<(f32, Vec<LayerGrads>), DnnError> {
        tape.caches.reserve(self.layers.len());
        let logits = self.forward_from(0, x.clone(), Vec::new(), transposed, Some(tape))?;
        let (loss, probs) = softmax_cross_entropy(&logits, labels);
        let mut d = cross_entropy_grad(&probs, labels);

        let mut grads_rev: Vec<LayerGrads> = Vec::with_capacity(self.weighted_count());
        let mut skip_grads: Vec<Tensor> = Vec::new();
        for (layer, cache) in self.layers.iter().zip(&tape.caches).rev() {
            match (layer, cache) {
                (Layer::Dense(l), Cache::Input(input)) => {
                    let (g, d_x) = l.backward(input, &d)?;
                    grads_rev.push(LayerGrads { weight: g.weight.into_vec(), bias: g.bias });
                    d = d_x;
                }
                (Layer::Conv(c), Cache::Input(input)) => {
                    let (g, d_x) = c.backward(input, &d)?;
                    grads_rev.push(LayerGrads { weight: g.weight.into_vec(), bias: g.bias });
                    d = d_x;
                }
                (Layer::Relu, Cache::Mask(mask)) => d = relu_backward(&d, mask),
                (Layer::MaxPool(p), Cache::Switches(switches)) => {
                    d = p.backward_max(&d, switches);
                }
                (Layer::AvgPool(p), Cache::None) => d = p.backward_avg(&d)?,
                // Reverse of the forward stack: the add's gradient
                // flows into both the main path and the shortcut.
                (Layer::SkipAdd, Cache::None) => skip_grads.push(d.clone()),
                (Layer::SkipStart, Cache::None) => {
                    let skip = skip_grads.pop().ok_or(DnnError::UnbalancedSkip)?;
                    d.add_assign(&skip)?;
                }
                _ => unreachable!("cache kind always matches its layer"),
            }
        }
        grads_rev.reverse();
        Ok((loss, grads_rev))
    }

    /// One SGD step on a batch; returns the pre-update loss.
    ///
    /// # Errors
    ///
    /// Same as [`Network::loss_and_grads`].
    pub fn train_step(&mut self, x: &Tensor, labels: &[usize], lr: f32) -> Result<f32, DnnError> {
        let (loss, grads) = self.loss_and_grads(x, labels)?;
        self.apply_grads(&grads, lr);
        Ok(loss)
    }

    /// SGD update `p -= lr * grad` with one [`LayerGrads`] per weighted
    /// layer, in execution order (the shape
    /// [`Network::loss_and_grads`] returns).
    pub fn apply_grads(&mut self, grads: &[LayerGrads], lr: f32) {
        debug_assert_eq!(grads.len(), self.weighted_count(), "one grad per weighted layer");
        fn sgd(params: &mut [f32], grads: &[f32], lr: f32) {
            for (p, g) in params.iter_mut().zip(grads) {
                *p -= lr * g;
            }
        }
        for (layer, grad) in self.layers.iter_mut().filter(|l| l.is_weighted()).zip(grads) {
            match layer {
                Layer::Dense(l) => {
                    sgd(l.weight_mut().as_mut_slice(), &grad.weight, lr);
                    sgd(l.bias_mut(), &grad.bias, lr);
                }
                Layer::Conv(c) => {
                    sgd(c.weight_mut().as_mut_slice(), &grad.weight, lr);
                    sgd(c.bias_mut(), &grad.bias, lr);
                }
                _ => unreachable!("filtered to weighted layers"),
            }
        }
    }

    /// Predicted class per input row.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn predict(&self, x: &Tensor) -> Result<Vec<usize>, DnnError> {
        Ok(argmax_rows(&self.forward(x)?))
    }

    /// Classification accuracy on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> Result<f64, DnnError> {
        let predictions = self.predict(x)?;
        let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }
}

impl Trace<'_> {
    /// One [`LayerGrads`] per weighted layer, as
    /// [`Network::loss_and_grads`] returns them.
    pub fn grads(&self) -> &[LayerGrads] {
        &self.grads
    }

    /// Logits of the traced batch with weight `weight` (flat index into
    /// the weight matrix) of weighted layer `layer` set to `value` —
    /// bit-identical to [`Network::forward`] on a copy of the network
    /// with that weight changed. Only the changed layer and the layers
    /// after it run: a dense layer rewrites just the changed output
    /// column ([`Linear::rewrite_column`]), a convolution re-runs on
    /// its recorded input, and the later layers reuse the transposes.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadWeightIndex`] for an out-of-range
    /// `layer` or `weight`.
    pub fn forward_with_weight(
        &self,
        layer: usize,
        weight: usize,
        value: f32,
    ) -> Result<Tensor, DnnError> {
        let bad = || DnnError::BadWeightIndex { layer, index: weight };
        let at = self.checkpoints.get(layer).ok_or_else(bad)?;
        let output = match (&self.network.layers[at.step], &self.transposed[at.step]) {
            (Layer::Dense(l), _) if weight < l.weight().len() => {
                let (row, col) = (weight / l.in_features(), weight % l.in_features());
                let mut weight_row = l.weight().row(row).to_vec();
                weight_row[col] = value;
                let mut output = at.output.clone();
                l.rewrite_column(&at.input, row, &weight_row, &mut output)?;
                output
            }
            (Layer::Conv(c), Some(weight_t)) if weight < c.weight().len() => {
                let (row, col) = (weight / c.spec().patch_len(), weight % c.spec().patch_len());
                let mut changed = weight_t.clone();
                changed.set(col, row, value);
                c.forward_transposed(&at.input, &changed)?
            }
            _ => return Err(bad()),
        };
        self.network.forward_from(at.step + 1, output, at.skips.clone(), &self.transposed, None)
    }
}

/// Row-wise argmax; ties go to the lowest index.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    (0..logits.rows())
        .map(|row| {
            let mut best = 0;
            let mut best_value = f32::NEG_INFINITY;
            for (index, &value) in logits.row(row).iter().enumerate() {
                if value > best_value {
                    best_value = value;
                    best = index;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvSpec;

    /// A small CNN with one identity-skip residual block.
    fn tiny_residual_cnn(seed: u64) -> Network {
        let spec =
            |in_c, out_c| ConvSpec { in_c, in_h: 4, in_w: 4, out_c, k: 3, stride: 1, pad: 1 };
        Network::new(vec![
            Layer::Conv(Conv2d::new(spec(1, 3), seed)),
            Layer::Relu,
            Layer::SkipStart,
            Layer::Conv(Conv2d::new(spec(3, 3), seed + 1)),
            Layer::Relu,
            Layer::Conv(Conv2d::new(spec(3, 3), seed + 2)),
            Layer::SkipAdd,
            Layer::Relu,
            Layer::MaxPool(Pool2d::halve(3, 4, 4)),
            Layer::Dense(Linear::new(3 * 2 * 2, 2, seed + 3)),
        ])
    }

    #[test]
    fn mlp_plan_is_the_dense_relu_composition() {
        // The plan: Dense layers seeded `seed + i`, ReLU between.
        let net = Network::mlp(&[5, 9, 4, 3], 3);
        let dense = [Linear::new(5, 9, 3), Linear::new(9, 4, 4), Linear::new(4, 3, 5)];
        assert_eq!(net, Network::from_dense(dense.clone()));
        assert_eq!(net.layers().len(), 5);
        assert_eq!(net.total_weights(), 5 * 9 + 9 * 4 + 4 * 3);
        assert_eq!(net.in_features(), 5);
        assert_eq!(net.num_classes(), 3);

        // Forward and backward agree bit for bit with composing the
        // dense layers by hand.
        let x = Tensor::randn(6, 5, 4);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let mut inputs = Vec::new();
        let mut masks = Vec::new();
        let mut act = x.clone();
        for (index, layer) in dense.iter().enumerate() {
            inputs.push(act.clone());
            act = layer.forward(&act).unwrap();
            if index + 1 < dense.len() {
                let (y, mask) = relu_forward(&act);
                act = y;
                masks.push(mask);
            }
        }
        assert_eq!(net.forward(&x).unwrap(), act);
        let (loss, probs) = softmax_cross_entropy(&act, &labels);
        let mut d = cross_entropy_grad(&probs, &labels);
        let mut expected = Vec::new();
        for index in (0..dense.len()).rev() {
            let (g, d_x) = dense[index].backward(&inputs[index], &d).unwrap();
            expected.push(LayerGrads { weight: g.weight.into_vec(), bias: g.bias });
            d = if index > 0 { relu_backward(&d_x, &masks[index - 1]) } else { d_x };
        }
        expected.reverse();
        let (net_loss, net_grads) = net.loss_and_grads(&x, &labels).unwrap();
        assert_eq!(net_loss, loss);
        assert_eq!(net_grads, expected);

        // And the MLP shape is recognized again, layer for layer.
        let recovered: Vec<Linear> = net.mlp_layers().unwrap().into_iter().cloned().collect();
        assert_eq!(recovered, dense);
    }

    #[test]
    fn mlp_layers_rejects_non_mlp_plans() {
        assert!(tiny_residual_cnn(1).mlp_layers().is_none());
        assert!(Network::new(vec![Layer::Relu]).mlp_layers().is_none());
        assert!(Network::new(Vec::new()).mlp_layers().is_none());
        let trailing_relu = Network::mlp(&[3, 2], 0).push(Layer::Relu);
        assert!(trailing_relu.mlp_layers().is_none());
        assert_eq!(Network::mlp(&[3, 2], 0).mlp_layers().map(|l| l.len()), Some(1));
    }

    #[test]
    fn forward_shapes() {
        let model = Network::mlp(&[4, 8, 3], 1);
        let x = Tensor::zeros(5, 4);
        assert_eq!(model.forward(&x).unwrap().shape(), (5, 3));
        assert_eq!(model.num_classes(), 3);
        assert_eq!(model.in_features(), 4);
        assert_eq!(model.total_weights(), 4 * 8 + 8 * 3);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_sizes_panics() {
        let _ = Network::mlp(&[4], 0);
    }

    #[test]
    fn argmax_breaks_ties_low_index() {
        let logits = Tensor::from_rows(&[&[1.0, 1.0, 0.0]]);
        assert_eq!(argmax_rows(&logits), vec![0]);
    }

    #[test]
    fn sgd_update_moves_against_gradient() {
        let mut net = Network::from_dense([Linear::from_parts(Tensor::zeros(1, 1), vec![0.0])]);
        net.apply_grads(&[LayerGrads { weight: vec![2.0], bias: vec![1.0] }], 0.5);
        let Layer::Dense(layer) = &net.layers()[0] else { unreachable!("one dense layer") };
        assert_eq!(layer.weight().get(0, 0), -1.0);
        assert_eq!(layer.bias()[0], -0.5);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut model = Network::mlp(&[2, 16, 2], 5);
        // Two separable clusters.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            xs.extend([sign * 2.0 + 0.01 * i as f32, sign * 2.0]);
            labels.push(usize::from(i % 2 == 1));
        }
        let x = Tensor::from_vec(20, 2, xs);
        let first = model.train_step(&x, &labels, 0.1).unwrap();
        let mut last = first;
        for _ in 0..50 {
            last = model.train_step(&x, &labels, 0.1).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(model.accuracy(&x, &labels).unwrap() > 0.95);
    }

    #[test]
    fn multilayer_gradient_check() {
        let model = Network::mlp(&[3, 5, 4, 2], 33);
        let x = Tensor::randn(4, 3, 34);
        let labels = vec![0, 1, 0, 1];
        let (_, grads) = model.loss_and_grads(&x, &labels).unwrap();
        let loss_at = |probe: &Network| {
            let y = probe.forward(&x).unwrap();
            softmax_cross_entropy(&y, &labels).0
        };
        let eps = 1e-3f32;
        // Check weight (0, 0) of each dense layer (plan positions 0, 2, 4).
        for (layer_index, layer_grads) in grads.iter().enumerate() {
            let mut probe = model.clone();
            let orig = probe.layers()[2 * layer_index].weight().unwrap().get(0, 0);
            probe.layers_mut()[2 * layer_index].weight_mut().unwrap().set(0, 0, orig + eps);
            let up = loss_at(&probe);
            probe.layers_mut()[2 * layer_index].weight_mut().unwrap().set(0, 0, orig - eps);
            let down = loss_at(&probe);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = layer_grads.weight[0];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "layer {layer_index}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn residual_forward_adds_the_shortcut() {
        // Zero conv block: SkipAdd must reproduce the input exactly.
        let spec = ConvSpec { in_c: 1, in_h: 2, in_w: 2, out_c: 1, k: 3, stride: 1, pad: 1 };
        let zero = Conv2d::from_parts(Tensor::zeros(1, 9), vec![0.0], spec);
        let net = Network::new(vec![Layer::SkipStart, Layer::Conv(zero), Layer::SkipAdd]);
        let x = Tensor::randn(3, 4, 8);
        assert_eq!(net.forward(&x).unwrap(), x);
    }

    #[test]
    fn unbalanced_skips_are_rejected() {
        let x = Tensor::zeros(1, 4);
        let dangling = Network::new(vec![Layer::SkipStart]);
        assert!(matches!(dangling.forward(&x), Err(DnnError::UnbalancedSkip)));
        let orphan = Network::new(vec![Layer::SkipAdd]);
        assert!(matches!(orphan.forward(&x), Err(DnnError::UnbalancedSkip)));
        let orphan = Network::new(vec![Layer::SkipAdd]);
        assert!(matches!(orphan.loss_and_grads(&x, &[0]), Err(DnnError::UnbalancedSkip)));
    }

    #[test]
    fn cnn_gradient_check_through_residual_and_pool() {
        let net = tiny_residual_cnn(17);
        let x = Tensor::randn(3, 16, 18);
        let labels = vec![0, 1, 0];
        let (_, grads) = net.loss_and_grads(&x, &labels).unwrap();
        assert_eq!(grads.len(), net.weighted_count());
        let eps = 1e-2f32;
        // One weight in every weighted layer, including both residual
        // convs (whose gradient flows through the skip add).
        for (weighted_index, check_index) in [(0usize, 2usize), (1, 5), (2, 0), (3, 3)] {
            let mut probe = net.clone();
            let loss_at = |probe: &Network| {
                let logits = probe.forward(&x).unwrap();
                softmax_cross_entropy(&logits, &labels).0
            };
            let layer_pos = probe
                .layers()
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_weighted())
                .map(|(i, _)| i)
                .nth(weighted_index)
                .unwrap();
            let orig = probe.layers()[layer_pos].weight().unwrap().as_slice()[check_index];
            let slice = probe.layers_mut()[layer_pos].weight_mut().unwrap().as_mut_slice();
            slice[check_index] = orig + eps;
            let up = loss_at(&probe);
            probe.layers_mut()[layer_pos].weight_mut().unwrap().as_mut_slice()[check_index] =
                orig - eps;
            let down = loss_at(&probe);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads[weighted_index].weight[check_index];
            assert!(
                (numeric - analytic).abs() < 3e-2 * analytic.abs().max(1.0),
                "weighted layer {weighted_index}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn cnn_trains_on_separable_images() {
        let mut net = tiny_residual_cnn(5);
        // Two classes: bright top half vs bright bottom half.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..24 {
            let class = i % 2;
            let mut image = vec![0.1 * (i % 5) as f32; 16];
            for p in 0..8 {
                image[if class == 0 { p } else { 8 + p }] += 2.0;
            }
            xs.extend(image);
            labels.push(class);
        }
        let x = Tensor::from_vec(24, 16, xs);
        let first = net.train_step(&x, &labels, 0.05).unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = net.train_step(&x, &labels, 0.05).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(net.accuracy(&x, &labels).unwrap() > 0.9);
    }

    #[test]
    fn trace_reruns_match_a_full_forward_with_the_weight_changed() {
        // An MLP (zero ReLU outputs exercise the zero skip), and a CNN
        // whose convs sit inside a residual block, ahead of a max-pool.
        for net in [Network::mlp(&[5, 9, 4, 3], 3), tiny_residual_cnn(7)] {
            let x = Tensor::randn(6, net.in_features(), 8);
            let labels = [0, 1, 0, 1, 1, 0];
            let trace = net.trace(&x, &labels).unwrap();
            assert_eq!(trace.grads(), net.loss_and_grads(&x, &labels).unwrap().1);
            let steps: Vec<usize> =
                (0..net.layers().len()).filter(|&step| net.layers()[step].is_weighted()).collect();
            for (layer, &step) in steps.iter().enumerate() {
                let n = net.layers()[step].num_weights();
                for weight in [0, n / 2, n - 1] {
                    for value in [-1.5f32, 0.0, 3.25] {
                        let mut changed = net.clone();
                        changed.layers_mut()[step].weight_mut().unwrap().as_mut_slice()[weight] =
                            value;
                        assert_eq!(
                            trace.forward_with_weight(layer, weight, value).unwrap(),
                            changed.forward(&x).unwrap(),
                            "weighted layer {layer}, weight {weight} = {value}"
                        );
                    }
                }
                assert!(trace.forward_with_weight(layer, n, 1.0).is_err());
            }
            assert!(trace.forward_with_weight(steps.len(), 0, 1.0).is_err());
        }
    }

    #[test]
    fn weighted_layers_skip_structure_markers() {
        let net = tiny_residual_cnn(2);
        assert_eq!(net.layers().len(), 10);
        assert_eq!(net.weighted_count(), 4);
        assert_eq!(net.weighted_layers().len(), 4);
        assert!(net.total_weights() > 0);
    }
}
