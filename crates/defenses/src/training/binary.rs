//! Binary-weight defenses: binary quantization and RA-BNN.
//!
//! Binarization stores one bit per weight: `w = ±m` with `m` the
//! layer's mean magnitude. The only fault a memory attacker can inject
//! is a *sign toggle*, whose damage is bounded by `2m` — no MSB
//! amplification exists. RA-BNN (Rakin et al., 2021) additionally grows
//! the network so each individual sign carries even less information;
//! the paper credits it with surviving 1150 flips.

use dlk_dnn::data::SyntheticDataset;
use dlk_dnn::models::Victim;
use dlk_dnn::train::{TrainConfig, Trainer};
use dlk_dnn::{Linear, Network, QuantNetwork, Tensor};

use super::TableTwoEntry;

/// A binarized MLP: per-layer sign matrices with per-output-row
/// magnitudes (XNOR-Net-style scaling, which retains far more accuracy
/// than a single per-layer magnitude).
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryMlp {
    /// Per-layer sign storage (`true` = +m).
    signs: Vec<Vec<bool>>,
    /// Per-layer, per-output-row magnitudes.
    magnitudes: Vec<Vec<f32>>,
    /// Per-layer shapes (out, in) and biases.
    shapes: Vec<(usize, usize)>,
    biases: Vec<Vec<f32>>,
}

/// The dense layers of an MLP plan, in order.
///
/// # Panics
///
/// Panics unless `model` is an MLP plan (see [`Network::mlp_layers`]):
/// the Table II training-time baselines binarize and regrow dense
/// layers, so they are evaluated on the paper's MLP stand-ins, not on
/// the CNN victims.
fn mlp_layers(model: &Network) -> Vec<&Linear> {
    model.mlp_layers().expect("Table II defenses evaluate the MLP victims")
}

/// The victim's MLP layer sizes with every hidden width multiplied by
/// `factor`.
fn grown_sizes(victim: &Victim, factor: usize) -> Vec<usize> {
    let base = victim.model.to_float_model();
    let layers = mlp_layers(&base);
    let mut sizes = vec![base.in_features()];
    sizes.extend(layers[..layers.len() - 1].iter().map(|l| l.out_features() * factor));
    sizes.push(base.num_classes());
    sizes
}

impl BinaryMlp {
    /// Binarizes a float MLP: `w -> sign(w) · mean|w_row|` per output
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not an MLP plan.
    pub fn binarize(model: &Network) -> Self {
        let mut signs = Vec::new();
        let mut magnitudes = Vec::new();
        let mut shapes = Vec::new();
        let mut biases = Vec::new();
        for layer in mlp_layers(model) {
            let weights = layer.weight().as_slice();
            let (out, input) = (layer.out_features(), layer.in_features());
            let row_mags: Vec<f32> = (0..out)
                .map(|row| {
                    let slice = &weights[row * input..(row + 1) * input];
                    slice.iter().map(|w| w.abs()).sum::<f32>() / input.max(1) as f32
                })
                .collect();
            signs.push(weights.iter().map(|&w| w >= 0.0).collect());
            magnitudes.push(row_mags);
            shapes.push((out, input));
            biases.push(layer.bias().to_vec());
        }
        Self { signs, magnitudes, shapes, biases }
    }

    /// Binarizes with straight-through-estimator fine-tuning: the
    /// forward pass uses binarized weights while gradients update the
    /// float master, recovering most of the accuracy binarization
    /// costs (as binary-weight training does in the defense papers).
    ///
    /// # Panics
    ///
    /// Panics if `model` is not an MLP plan.
    pub fn binarize_with_finetune(
        model: &Network,
        dataset: &SyntheticDataset,
        epochs: usize,
    ) -> Self {
        let mut master = model.clone();
        let n = dataset.train_x.rows();
        let dim = dataset.dim;
        let batch = 32.min(n);
        let stride = (n / batch).max(1);
        let lr = 0.05f32;
        for _ in 0..epochs {
            for start in 0..stride {
                let indices: Vec<usize> = (0..batch).map(|k| (start + k * stride) % n).collect();
                let mut xs = Vec::with_capacity(batch * dim);
                let mut ys = Vec::with_capacity(batch);
                for &index in &indices {
                    xs.extend_from_slice(dataset.train_x.row(index));
                    ys.push(dataset.train_y[index]);
                }
                let x = Tensor::from_vec(batch, dim, xs);
                // Forward/backward through the binarized weights.
                let binary_model = Self::binarize(&master).to_float_model();
                let (_, grads) = binary_model.loss_and_grads(&x, &ys).expect("shapes consistent");
                master.apply_grads(&grads, lr);
            }
        }
        Self::binarize(&master)
    }

    /// Total weights (= attackable sign bits).
    pub fn total_weights(&self) -> usize {
        self.signs.iter().map(Vec::len).sum()
    }

    /// Toggles the sign of one weight.
    pub fn flip_sign(&mut self, layer: usize, weight: usize) {
        self.signs[layer][weight] = !self.signs[layer][weight];
    }

    /// Materializes the float model implied by current signs.
    pub fn to_float_model(&self) -> Network {
        Network::from_dense(self.shapes.iter().enumerate().map(|(index, &(out, input))| {
            let data: Vec<f32> = self.signs[index]
                .iter()
                .enumerate()
                .map(|(flat, &s)| {
                    let m = self.magnitudes[index][flat / input];
                    if s {
                        m
                    } else {
                        -m
                    }
                })
                .collect();
            Linear::from_parts(Tensor::from_vec(out, input, data), self.biases[index].clone())
        }))
    }

    /// Accuracy on a batch.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        self.to_float_model().accuracy(x, labels).expect("shapes consistent")
    }

    /// Greedy most-damaging sign flip (gradient-ranked, like BFA).
    pub fn worst_sign_flip(&self, x: &Tensor, labels: &[usize]) -> Option<(usize, usize)> {
        let float_model = self.to_float_model();
        let (_, grads) = float_model.loss_and_grads(x, labels).expect("shapes consistent");
        let mut best: Option<(f32, (usize, usize))> = None;
        for (layer_index, layer_grads) in grads.iter().enumerate() {
            let input = self.shapes[layer_index].1;
            for (weight_index, &g) in layer_grads.weight.iter().enumerate() {
                // Toggling the sign changes w by -2w = ∓2m; first-order
                // loss gain is g * delta.
                let m = self.magnitudes[layer_index][weight_index / input];
                let w = if self.signs[layer_index][weight_index] { m } else { -m };
                let gain = g * (-2.0 * w);
                if gain > 0.0 && best.is_none_or(|(b, _)| gain > b) {
                    best = Some((gain, (layer_index, weight_index)));
                }
            }
        }
        best.map(|(_, index)| index)
    }
}

/// The binary-weight defense of Table II.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryWeight;

impl BinaryWeight {
    /// Evaluates the Table II row: greedy sign-flip attack on the
    /// binarized model.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is not an MLP victim — the Table II
    /// training-time baselines binarize/regrow dense layers and are
    /// evaluated on the paper's MLP stand-ins, not the CNN victims.
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        let mut model =
            BinaryMlp::binarize_with_finetune(&victim.model.to_float_model(), &victim.dataset, 20);
        evaluate_binary("Binary Weight", &mut model, &x, &y, budget)
    }
}

/// RA-BNN: binarization plus capacity growth (hidden layers widened by
/// `growth`), retrained briefly to recover accuracy.
#[derive(Debug, Clone, Copy)]
pub struct RaBnn {
    /// Hidden-width multiplier.
    pub growth: usize,
}

impl Default for RaBnn {
    fn default() -> Self {
        Self { growth: 4 }
    }
}

impl RaBnn {
    /// Evaluates the Table II row.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is not an MLP victim (see
    /// [`BinaryWeight::evaluate`]).
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        // Grow hidden layers and retrain a float model, then binarize.
        let mut grown = Network::mlp(&grown_sizes(victim, self.growth), 99);
        let config = TrainConfig { epochs: 60, ..TrainConfig::default() };
        Trainer::new(config).fit(&mut grown, &victim.dataset);
        let mut model = BinaryMlp::binarize_with_finetune(&grown, &victim.dataset, 20);
        evaluate_binary("RA-BNN", &mut model, &x, &y, budget)
    }
}

fn evaluate_binary(
    name: &str,
    model: &mut BinaryMlp,
    x: &Tensor,
    labels: &[usize],
    budget: usize,
) -> TableTwoEntry {
    let clean = model.accuracy(x, labels);
    let target = clean * 0.5;
    let mut accuracy = clean;
    let mut flips = 0;
    while accuracy > target && flips < budget {
        let Some((layer, weight)) = model.worst_sign_flip(x, labels) else { break };
        model.flip_sign(layer, weight);
        flips += 1;
        accuracy = model.accuracy(x, labels);
    }
    TableTwoEntry {
        name: name.to_owned(),
        clean_acc_pct: clean * 100.0,
        post_attack_acc_pct: accuracy * 100.0,
        bit_flips: flips,
    }
}

/// The capacity-scaling defense (Model Capacity ×16 in Table II):
/// widen hidden layers, retrain, attack with standard BFA.
#[derive(Debug, Clone, Copy)]
pub struct CapacityScale {
    /// Hidden-width multiplier (16x parameters ≈ 4x width for an MLP).
    pub width_factor: usize,
}

impl Default for CapacityScale {
    fn default() -> Self {
        Self { width_factor: 4 }
    }
}

impl CapacityScale {
    /// Evaluates the Table II row.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is not an MLP victim (see
    /// [`BinaryWeight::evaluate`]).
    pub fn evaluate(&self, victim: &Victim, sample: usize, budget: usize) -> TableTwoEntry {
        let (x, y) = victim.dataset.test_sample(sample, 0);
        let mut grown = Network::mlp(&grown_sizes(victim, self.width_factor), 55);
        let config = TrainConfig { epochs: 60, ..TrainConfig::default() };
        Trainer::new(config).fit(&mut grown, &victim.dataset);
        let mut model = QuantNetwork::quantize(&grown);
        let clean = model.accuracy(&x, &y).expect("shapes consistent");
        let (post, flips) = super::run_bfa_until(&mut model, &x, &y, clean * 0.5, budget);
        TableTwoEntry {
            name: format!("Model Capacity x{}", self.width_factor * self.width_factor),
            clean_acc_pct: clean * 100.0,
            post_attack_acc_pct: post * 100.0,
            bit_flips: flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::models;

    #[test]
    fn binarize_roundtrip_shapes() {
        let victim = models::victim_tiny(8);
        let binary = BinaryMlp::binarize(&victim.model.to_float_model());
        assert_eq!(binary.total_weights(), victim.model.total_weights());
        let float_model = binary.to_float_model();
        assert_eq!(float_model.num_classes(), 4);
    }

    #[test]
    fn binary_model_keeps_useful_accuracy() {
        let victim = models::victim_tiny(8);
        let (x, y) = victim.dataset.test_sample(48, 0);
        let binary = BinaryMlp::binarize(&victim.model.to_float_model());
        let acc = binary.accuracy(&x, &y);
        assert!(
            acc > victim.dataset.chance_accuracy() * 1.5,
            "binary accuracy {acc} too close to chance"
        );
    }

    #[test]
    fn sign_flip_toggles() {
        let victim = models::victim_tiny(8);
        let mut binary = BinaryMlp::binarize(&victim.model.to_float_model());
        let before = binary.signs[0][0];
        binary.flip_sign(0, 0);
        assert_ne!(binary.signs[0][0], before);
    }

    #[test]
    fn binary_defense_survives_more_flips_than_baseline() {
        let victim = models::victim_tiny(9);
        let budget = 50;
        let baseline = super::super::baseline_entry(&victim, 32, budget);
        let binary = BinaryWeight.evaluate(&victim, 32, budget);
        assert!(
            binary.bit_flips >= baseline.bit_flips,
            "binary {} vs baseline {}",
            binary.bit_flips,
            baseline.bit_flips
        );
    }
}
