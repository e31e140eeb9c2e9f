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
//! 3. trials the top in-layer candidates with a real forward pass and
//!    keeps the single flip that maximizes loss across all layers.
//!
//! The search is *white-box*: per the paper's threat model the attacker
//! has full knowledge of parameters, bit representation and gradients.

use serde::{Deserialize, Serialize};

use dlk_dnn::layers::softmax_cross_entropy;
use dlk_dnn::{BitIndex, QuantNetwork, Tensor};

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
    /// state on batch `(x, labels)`. Returns `None` only for empty
    /// models.
    pub fn next_flip(
        &mut self,
        model: &QuantNetwork,
        x: &Tensor,
        labels: &[usize],
    ) -> Option<BitIndex> {
        let (_, grads) =
            model.loss_and_grads(x, labels).expect("attack batch shapes are consistent");
        let mut best: Option<(f32, BitIndex)> = None;
        let mut probe = model.clone();
        for (layer_index, layer_grads) in grads.iter().enumerate() {
            // Rank candidate bits in this layer by first-order gain.
            let grad = layer_grads.weight.as_slice();
            let mut candidates: Vec<(f32, BitIndex)> = Vec::new();
            let bits: Vec<u8> = match self.config.bits_considered {
                Some([a, b]) => vec![a, b],
                None => (0..8).collect(),
            };
            for (weight_index, &g) in grad.iter().enumerate() {
                for &bit in &bits {
                    let index = BitIndex { layer: layer_index, weight: weight_index, bit };
                    let delta = model.flip_delta(index).expect("index enumerated from model shape");
                    let gain = g * delta;
                    if gain > 0.0 {
                        candidates.push((gain, index));
                    }
                }
            }
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            // Trial the top candidates with a real forward pass.
            for &(_, index) in candidates.iter().take(self.config.candidates_per_layer) {
                probe.flip_bit(index).expect("candidate index is valid");
                let logits = probe.forward(x).expect("attack batch shapes are consistent");
                let (loss, _) = softmax_cross_entropy(&logits, labels);
                probe.flip_bit(index).expect("candidate index is valid");
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

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_dnn::models;

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
