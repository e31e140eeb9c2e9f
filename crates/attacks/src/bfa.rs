//! Progressive bit search (the Bit-Flip Attack).
//!
//! Following Rakin et al. (ICCV 2019): in each iteration the attacker
//!
//! 1. computes the loss gradient w.r.t. every (dequantized) weight on
//!    an evaluation batch;
//! 2. in each layer, ranks bits by first-order loss increase
//!    `grad · Δw`, where `Δw` is the weight change that bit flip would
//!    cause right now (sign-bit flips of large-gradient weights
//!    dominate);
//! 3. trials each layer's top `candidates_per_layer` bits with a
//!    positive first-order gain by a real forward pass and keeps the
//!    single flip that maximizes loss across all layers — or none, when
//!    no considered bit has a positive gain.
//!
//! A trial re-runs the network only from the flipped layer on: one
//! dequantization and one traced forward + backward per iteration
//! ([`Network::trace`](dlk_dnn::Network::trace)) yield the gradients
//! and every layer's recorded activations, from which each candidate's
//! loss comes out bit-identical to a full forward pass of the flipped
//! model.
//!
//! The search is *white-box*: per the paper's threat model the attacker
//! has full knowledge of parameters, bit representation and gradients.

use serde::{Deserialize, Serialize};

use dlk_dnn::layers::softmax_cross_entropy;
use dlk_dnn::{BitIndex, QuantLayer, QuantNetwork, Tensor};

use crate::outcome::{AttackCurve, AttackPoint};

/// Bit-search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfaConfig {
    /// Candidate bits trialled per layer per iteration.
    pub candidates_per_layer: usize,
    /// Restrict the search to the most significant bits (`None` =
    /// all 8). The published attack converges fastest on bits 6–7.
    pub bits_considered: Option<[u8; 2]>,
}

impl Default for BfaConfig {
    fn default() -> Self {
        Self { candidates_per_layer: 5, bits_considered: Some([6, 7]) }
    }
}

/// The progressive bit search attacker.
///
/// # Example
///
/// ```
/// use dlk_attacks::BitSearch;
/// use dlk_dnn::models;
///
/// let victim = models::victim_tiny(3);
/// let (x, y) = victim.dataset.test_sample(32, 0);
/// let mut search = BitSearch::new(Default::default());
/// let mut model = victim.model.clone();
/// let flip = search.next_flip(&model, &x, &y).unwrap();
/// model.flip_bit(flip).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitSearch {
    config: BfaConfig,
}

impl BitSearch {
    /// Creates a searcher.
    pub fn new(config: BfaConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BfaConfig {
        &self.config
    }

    /// Finds the most damaging single bit flip for the current model
    /// state on batch `(x, labels)`. Returns `None` when there is
    /// nothing to trial: the model has no weighted layers, no
    /// considered bit has a positive first-order gain, or
    /// `candidates_per_layer` is 0.
    ///
    /// # Panics
    ///
    /// Panics if `(x, labels)` does not fit the model.
    pub fn next_flip(
        &mut self,
        model: &QuantNetwork,
        x: &Tensor,
        labels: &[usize],
    ) -> Option<BitIndex> {
        let bits: Vec<u8> = match self.config.bits_considered {
            Some([a, b]) => vec![a, b],
            None => (0..8).collect(),
        };
        let network = model.to_float_model();
        let trace = network.trace(x, labels).expect("attack batch shapes are consistent");
        let mut best: Option<(f32, BitIndex)> = None;
        let weighted = model.weighted_layers().into_iter().filter_map(QuantLayer::matrix);
        for (layer_index, (matrix, grads)) in weighted.zip(trace.grads()).enumerate() {
            let mut top = TopK::new(self.config.candidates_per_layer);
            let scale = matrix.scale();
            // Rank this layer's bits by first-order gain `grad · Δw`,
            // with Δw exactly as `QuantNetwork::flip_delta` reports it.
            let weights = matrix.qweights().iter().zip(&grads.weight);
            for (weight_index, (&q, &g)) in weights.enumerate() {
                for &bit in &bits {
                    let gain = g * ((flipped(q, bit) as f32 - q as f32) * scale);
                    if gain > 0.0 {
                        top.offer(gain, BitIndex { layer: layer_index, weight: weight_index, bit });
                    }
                }
            }
            // Trial the top candidates with a real forward pass.
            for &(_, index) in &top.items {
                let value = flipped(matrix.qweights()[index.weight], index.bit) as f32 * scale;
                let logits = trace
                    .forward_with_weight(index.layer, index.weight, value)
                    .expect("candidate index is valid");
                let (loss, _) = softmax_cross_entropy(&logits, labels);
                if best.is_none_or(|(b, _)| loss > b) {
                    best = Some((loss, index));
                }
            }
        }
        best.map(|(_, index)| index)
    }

    /// Runs `iterations` of the attack directly on the in-memory model
    /// (no DRAM in the loop), recording the accuracy trajectory on the
    /// held-out set `(eval_x, eval_y)` while searching on `(x, labels)`.
    pub fn run(
        &mut self,
        model: &mut QuantNetwork,
        x: &Tensor,
        labels: &[usize],
        iterations: usize,
    ) -> AttackCurve {
        let mut curve = AttackCurve::new("BFA");
        let clean = model.accuracy(x, labels).expect("shapes consistent");
        curve.push(AttackPoint { iteration: 0, flips: 0, accuracy: clean, flipped: None });
        for iteration in 1..=iterations {
            let Some(flip) = self.next_flip(model, x, labels) else { break };
            model.flip_bit(flip).expect("search returned a valid index");
            let accuracy = model.accuracy(x, labels).expect("shapes consistent");
            curve.push(AttackPoint { iteration, flips: iteration, accuracy, flipped: Some(flip) });
        }
        curve
    }
}

/// A quantized weight with `bit` flipped, as
/// [`QuantNetwork::flip_bit`] leaves its byte.
fn flipped(q: i8, bit: u8) -> i8 {
    (q as u8 ^ (1 << (bit & 7))) as i8
}

/// The `k` highest-gain candidates offered so far, gain descending, ties
/// in offer order — exactly the first `k` entries of a stable
/// descending sort of everything offered.
struct TopK {
    k: usize,
    items: Vec<(f32, BitIndex)>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self { k, items: Vec::new() }
    }

    fn offer(&mut self, gain: f32, index: BitIndex) {
        if self.items.len() == self.k && self.items.last().is_none_or(|&(low, _)| gain <= low) {
            return;
        }
        let at = self.items.partition_point(|&(g, _)| g >= gain);
        self.items.insert(at, (gain, index));
        self.items.truncate(self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::{models, Linear, Network, SyntheticDataset};

    /// The search as it ran before trials resumed from the flipped
    /// layer — every candidate scored through
    /// [`QuantNetwork::flip_delta`], each layer's candidates fully
    /// sorted, every trial a full forward pass of a flipped copy of the
    /// model — kept as the oracle [`BitSearch::next_flip`] must match
    /// bit for bit.
    fn full_rerun_next_flip(
        config: &BfaConfig,
        model: &QuantNetwork,
        x: &Tensor,
        labels: &[usize],
    ) -> Option<BitIndex> {
        let (_, grads) = model.loss_and_grads(x, labels).unwrap();
        let mut best: Option<(f32, BitIndex)> = None;
        let mut probe = model.clone();
        for (layer_index, layer_grads) in grads.iter().enumerate() {
            let mut candidates: Vec<(f32, BitIndex)> = Vec::new();
            let bits: Vec<u8> = match config.bits_considered {
                Some([a, b]) => vec![a, b],
                None => (0..8).collect(),
            };
            for (weight_index, &g) in layer_grads.weight.iter().enumerate() {
                for &bit in &bits {
                    let index = BitIndex { layer: layer_index, weight: weight_index, bit };
                    let gain = g * model.flip_delta(index).unwrap();
                    if gain > 0.0 {
                        candidates.push((gain, index));
                    }
                }
            }
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for &(_, index) in candidates.iter().take(config.candidates_per_layer) {
                probe.flip_bit(index).unwrap();
                let logits = probe.forward(x).unwrap();
                let (loss, _) = softmax_cross_entropy(&logits, labels);
                probe.flip_bit(index).unwrap();
                if best.is_none_or(|(b, _)| loss > b) {
                    best = Some((loss, index));
                }
            }
        }
        best.map(|(_, index)| index)
    }

    /// Runs `flips` consecutive searches with `config`, applying each
    /// chosen flip, and requires the same pick as the full re-run at
    /// every step (and a pick at all, unless the config trials nothing).
    fn assert_matches_full_rerun(
        name: &str,
        model: &QuantNetwork,
        (x, y): (&Tensor, &[usize]),
        config: BfaConfig,
        flips: usize,
    ) {
        let mut model = model.clone();
        let mut search = BitSearch::new(config);
        for step in 0..flips {
            let fast = search.next_flip(&model, x, y);
            assert_eq!(
                fast,
                full_rerun_next_flip(&config, &model, x, y),
                "{name} {config:?} #{step}"
            );
            if config.candidates_per_layer == 0 {
                assert_eq!(fast, None);
                return;
            }
            model.flip_bit(fast.unwrap_or_else(|| panic!("{name}: no flip at #{step}"))).unwrap();
        }
    }

    const FLIPS: usize = 10;

    fn configs() -> [BfaConfig; 4] {
        [
            BfaConfig::default(),
            BfaConfig { bits_considered: None, ..BfaConfig::default() },
            BfaConfig { candidates_per_layer: 1, ..BfaConfig::default() },
            BfaConfig { candidates_per_layer: 0, ..BfaConfig::default() },
        ]
    }

    #[test]
    fn incremental_search_matches_full_rerun_on_small_victims() {
        let tiny = models::victim_tiny(11);
        let tiny_cnn = models::victim_tiny_cnn(12);
        for (name, victim) in [("tiny MLP", &tiny), ("tiny CNN", &tiny_cnn)] {
            let (x, y) = victim.dataset.test_sample(24, 0);
            for config in configs() {
                assert_matches_full_rerun(name, &victim.model, (&x, &y), config, FLIPS);
            }
        }
    }

    #[test]
    fn incremental_search_matches_full_rerun_on_paper_sized_victims() {
        // VGG-11 CNN (max-pool) and the ×4-grown MLP of Table II's
        // capacity row, untrained: the search runs on any weights.
        let resnet20 = models::victim_resnet20_cifar10(13);
        let cifar10 = SyntheticDataset::cifar10_like(14);
        let vgg11_cnn = QuantNetwork::quantize(&models::vgg11_cnn(15));
        let cifar100 = SyntheticDataset::cifar100_images(15);
        let grown = QuantNetwork::quantize(&Network::mlp(&[32, 256, 256, 256, 192, 10], 55));
        let cases = [
            ("ResNet-20 MLP", &resnet20.model, resnet20.dataset.test_sample(32, 0)),
            ("VGG-11 CNN", &vgg11_cnn, cifar100.test_sample(16, 0)),
            ("grown MLP", &grown, cifar10.test_sample(12, 0)),
        ];
        for (name, model, (x, y)) in &cases {
            assert_matches_full_rerun(name, model, (x, y), BfaConfig::default(), FLIPS);
        }
        let (name, model, (x, y)) = &cases[0];
        for config in &configs()[1..] {
            assert_matches_full_rerun(name, model, (x, y), *config, FLIPS);
        }
    }

    /// An MLP whose eight hidden units share their incoming and
    /// outgoing weights, so gradients, flip gains and trial losses all
    /// come in tied groups of eight.
    fn duplicated_weights_mlp() -> QuantNetwork {
        let shared_in = Tensor::randn(1, 6, 21);
        let shared_out = Tensor::randn(3, 1, 22);
        let w1 = Tensor::from_vec(8, 6, shared_in.as_slice().repeat(8));
        let w2 =
            Tensor::from_vec(3, 8, shared_out.as_slice().iter().flat_map(|&w| [w; 8]).collect());
        let dense = [Linear::from_parts(w1, vec![0.0; 8]), Linear::from_parts(w2, vec![0.0; 3])];
        QuantNetwork::quantize(&Network::from_dense(dense))
    }

    #[test]
    fn incremental_search_matches_full_rerun_on_tied_gains() {
        let model = duplicated_weights_mlp();
        let x = Tensor::randn(12, 6, 24);
        let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
        // The fixture really ties: duplicated units' gradients agree.
        let (_, grads) = model.loss_and_grads(&x, &y).unwrap();
        for unit in 1..8 {
            assert_eq!(grads[0].weight[unit * 6..(unit + 1) * 6], grads[0].weight[..6]);
        }
        assert!(grads[0].weight[..6].iter().any(|&g| g != 0.0));
        for config in configs() {
            assert_matches_full_rerun("duplicated weights", &model, (&x, &y), config, FLIPS);
        }
    }

    #[test]
    fn next_flip_is_none_when_there_is_nothing_to_trial() {
        let mut search = BitSearch::new(BfaConfig::default());
        // No weighted layers.
        let x = Tensor::randn(2, 3, 1);
        for plan in [Vec::new(), vec![dlk_dnn::Layer::Relu]] {
            let empty = QuantNetwork::quantize(&Network::new(plan));
            assert_eq!(search.next_flip(&empty, &x, &[0, 2]), None);
        }
        // No bit with a positive gain: zero inputs and zero biases
        // leave every weight gradient at zero.
        let model = QuantNetwork::quantize(&Network::mlp(&[4, 6, 3], 5));
        let (zeros, y) = (Tensor::zeros(5, 4), [0, 1, 2, 0, 1]);
        let (_, grads) = model.loss_and_grads(&zeros, &y).unwrap();
        assert!(grads.iter().flat_map(|g| &g.weight).all(|&w| w == 0.0));
        assert_eq!(search.next_flip(&model, &zeros, &y), None);
        // No candidates trialled.
        let victim = models::victim_tiny(9);
        let (x, y) = victim.dataset.test_sample(16, 0);
        assert!(search.next_flip(&victim.model, &x, &y).is_some());
        let mut none =
            BitSearch::new(BfaConfig { candidates_per_layer: 0, ..BfaConfig::default() });
        assert_eq!(none.next_flip(&victim.model, &x, &y), None);
    }

    #[test]
    fn top_k_keeps_the_stable_sort_prefix() {
        // Coarse gains force many ties; the stable sort keeps offer
        // order among them.
        let offers: Vec<(f32, BitIndex)> = (0..200)
            .map(|i| {
                let gain = ((i * 37) % 11) as f32 * 0.5;
                (gain, BitIndex { layer: 0, weight: i, bit: 7 })
            })
            .collect();
        for k in [0, 1, 3, 10, 200, 500] {
            let mut top = TopK::new(k);
            for &(gain, index) in &offers {
                top.offer(gain, index);
            }
            let mut sorted = offers.clone();
            sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            sorted.truncate(k);
            assert_eq!(top.items, sorted, "k = {k}");
        }
    }

    #[test]
    fn bfa_crushes_accuracy_quickly() {
        let victim = models::victim_tiny(5);
        let (x, y) = victim.dataset.test_sample(32, 1);
        let mut model = victim.model.clone();
        let mut search = BitSearch::new(BfaConfig::default());
        let curve = search.run(&mut model, &x, &y, 20);
        assert!(curve.clean_accuracy() > 0.6);
        assert!(
            curve.final_accuracy() < curve.clean_accuracy() * 0.6,
            "BFA should at least nearly halve accuracy: {} -> {}",
            curve.clean_accuracy(),
            curve.final_accuracy()
        );
    }

    #[test]
    fn each_flip_is_distinct_bit_state() {
        let victim = models::victim_tiny(6);
        let (x, y) = victim.dataset.test_sample(24, 2);
        let mut model = victim.model.clone();
        let mut search = BitSearch::new(BfaConfig::default());
        let curve = search.run(&mut model, &x, &y, 5);
        let flips: Vec<_> = curve.points.iter().filter_map(|p| p.flipped).collect();
        assert_eq!(flips.len(), 5);
    }

    #[test]
    fn msb_restriction_targets_high_bits() {
        let victim = models::victim_tiny(7);
        let (x, y) = victim.dataset.test_sample(24, 3);
        let mut search = BitSearch::new(BfaConfig::default());
        let flip = search.next_flip(&victim.model, &x, &y).unwrap();
        assert!(flip.bit >= 6, "expected MSB-range flip, got bit {}", flip.bit);
    }

    #[test]
    fn search_is_deterministic() {
        let victim = models::victim_tiny(8);
        let (x, y) = victim.dataset.test_sample(24, 4);
        let mut a = BitSearch::new(BfaConfig::default());
        let mut b = BitSearch::new(BfaConfig::default());
        assert_eq!(a.next_flip(&victim.model, &x, &y), b.next_flip(&victim.model, &x, &y));
    }
}
