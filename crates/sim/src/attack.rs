//! The object-safe [`Attack`] trait and its implementations.
//!
//! An `Attack` is a *driver* assignable to a scenario: given the
//! running environment (controller + deployed victims + budget) it
//! exercises the pipeline and reports what it achieved. Benign
//! workloads ([`InferenceStream`]) implement the same trait — they are
//! drivers with zero malice, which is what lets one scenario API
//! measure both damage and overhead.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dlk_attacks::bfa::{BfaConfig, BitSearch};
use dlk_attacks::hammer::{HammerConfig, HammerDriver};
use dlk_attacks::pta::{PtaAttack, PtaConfig};
use dlk_attacks::RandomAttack;
use dlk_dnn::{models, BitIndex, QuantNetwork, Tensor};
use dlk_engine::{ShardedEngine, Trace, TraceReplay, Workload};
use dlk_memctrl::{MemRequest, MemoryController};

use crate::error::SimError;
use crate::report::AttackOutcome;
use crate::scenario::Budget;
use crate::victim::DeployedVictim;

/// The attack's view of a running scenario.
pub struct RunEnv<'a> {
    /// The scenario's sharded execution engine (defenses already
    /// mounted on every channel shard).
    pub engine: &'a mut ShardedEngine,
    /// Every deployed victim, in deployment order.
    pub victims: &'a [DeployedVictim],
    /// Each victim's home channel, in deployment order.
    pub homes: &'a [usize],
    /// Index of the victim under attack.
    pub target: usize,
    /// The scenario's activation/iteration budget.
    pub budget: Budget,
    /// Held-out sample size for accuracy trajectories.
    pub eval_batch: usize,
}

impl RunEnv<'_> {
    /// The victim under attack.
    pub fn victim(&self) -> &DeployedVictim {
        &self.victims[self.target]
    }

    /// The target victim's home-channel controller — where classic
    /// single-controller attack drivers run, addressed in that shard's
    /// local address space. Engine-wide attacks (trace replay) use
    /// [`RunEnv::engine`] directly with global addresses.
    pub fn ctrl(&mut self) -> &mut MemoryController {
        self.engine.shard_mut(self.homes[self.target]).controller_mut()
    }
}

/// A driver assignable to a scenario.
pub trait Attack {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Exercises the pipeline against the target victim.
    ///
    /// # Errors
    ///
    /// Propagates controller/layout errors; attacks never fail just
    /// because a defense stopped them (that is a reported outcome).
    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError>;
}

impl Attack for Box<dyn Attack> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        (**self).execute(env)
    }
}

fn hammer_config(budget: Budget) -> HammerConfig {
    HammerConfig { max_activations: budget.max_activations, check_interval: budget.check_interval }
}

/// The raw RowHammer campaign: hammer the target victim's primary data
/// row until bit `bit` flips or the budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct HammerAttack {
    /// Bit within the victim row to flip.
    pub bit: usize,
}

impl HammerAttack {
    /// A hammer campaign against row-bit `bit`.
    pub fn bit(bit: usize) -> Self {
        Self { bit }
    }
}

impl Attack for HammerAttack {
    fn name(&self) -> &str {
        "hammer"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let victim = &env.victims[env.target];
        let row = victim
            .primary_row(env.ctrl())
            .ok_or_else(|| SimError::Build("hammer attack needs a row-backed victim".to_owned()))?;
        let driver = HammerDriver::new(hammer_config(env.budget));
        let outcome = driver.hammer_bit(env.ctrl(), row, self.bit)?;
        Ok(AttackOutcome {
            landed_flips: u64::from(outcome.flipped),
            requests: outcome.requests,
            denied: outcome.denied,
            ..AttackOutcome::default()
        })
    }
}

/// Direct untrusted probing of the victim's own data address — the
/// quickstart attacker hitting a locked row head-on.
#[derive(Debug, Clone, Copy)]
pub struct RowProbe {
    /// Number of untrusted read attempts.
    pub accesses: u64,
}

impl Attack for RowProbe {
    fn name(&self) -> &str {
        "row-probe"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let start = env.victims[env.target].data_start().ok_or_else(|| {
            SimError::Build("row probe needs a victim with a data address".to_owned())
        })?;
        let mut outcome = AttackOutcome::default();
        for _ in 0..self.accesses {
            let done = env.ctrl().service(MemRequest::read(start, 1).untrusted())?;
            outcome.requests += 1;
            if done.denied {
                outcome.denied += 1;
            }
        }
        Ok(outcome)
    }
}

/// The BFA realized physically: gradient-rank the weight bits in the
/// image's *edge row* (the only row whose aggressor an OS-isolated
/// attacker can activate), then hammer the best one.
#[derive(Debug, Clone, Copy)]
pub struct BfaHammerAttack {
    /// Batch size for the white-box gradient scan.
    pub batch: usize,
}

impl Default for BfaHammerAttack {
    fn default() -> Self {
        Self { batch: 48 }
    }
}

impl Attack for BfaHammerAttack {
    fn name(&self) -> &str {
        "bfa-hammer"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let handle = &env.victims[env.target];
        let victim = handle
            .victim()
            .ok_or_else(|| SimError::Build("BFA needs a model-backed victim".to_owned()))?;
        let layout = handle.layout().ok_or_else(|| {
            SimError::Build("BFA hammer needs a contiguously deployed model".to_owned())
        })?;
        let (x, y) = victim.dataset.test_sample(self.batch, 0);
        let target = models::best_edge_target(&victim.model, layout, &x, &y)
            .or_else(|| {
                // No edge-row flip increases the loss: fall back to the
                // image's first MSB so the campaign still runs.
                let (layer, weight) = victim.model.locate_byte(0)?;
                Some(BitIndex { layer, weight, bit: 7 })
            })
            .ok_or_else(|| SimError::Build("victim model is empty".to_owned()))?;
        let (row, bit) = layout.bit_location(&victim.model, target)?;
        let driver = HammerDriver::new(hammer_config(env.budget));
        let outcome = driver.hammer_bit(env.ctrl(), row, bit)?;
        Ok(AttackOutcome {
            landed_flips: u64::from(outcome.flipped),
            requests: outcome.requests,
            denied: outcome.denied,
            target_bits: vec![target],
            flipped_bits: if outcome.flipped { vec![target] } else { vec![] },
            ..AttackOutcome::default()
        })
    }
}

/// The progressive bit search of Fig. 8: each iteration the white-box
/// attacker picks the most damaging flip of the *current* model state;
/// the flip lands with probability `success_rate` (1.0 undefended;
/// 0.096 under DRAM-Locker at ±20% process variation, §IV-D). Landed
/// flips are realized in the DRAM-resident image, so the recorded
/// accuracy trajectory is exactly what the victim would reload.
#[derive(Debug, Clone, Copy)]
pub struct ProgressiveBfa {
    /// Probability each iteration's flip lands.
    pub success_rate: f64,
    /// RNG seed for the landing draw.
    pub seed: u64,
    /// Bit-search configuration.
    pub config: BfaConfig,
}

impl ProgressiveBfa {
    /// A progressive BFA with the default search configuration.
    pub fn new(success_rate: f64, seed: u64) -> Self {
        Self { success_rate, seed, config: BfaConfig::default() }
    }
}

impl Attack for ProgressiveBfa {
    fn name(&self) -> &str {
        "bfa-progressive"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let mut search = BitSearch::new(self.config);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let success_rate = self.success_rate;
        flip_campaign(
            env,
            "progressive BFA",
            move || success_rate >= 1.0 || rng.random_bool(success_rate),
            move |model, x, y| search.next_flip(model, x, y),
        )
    }
}

/// The Fig. 1(a) baseline: uniformly random weight-bit flips injected
/// into the DRAM-resident image, one per iteration.
#[derive(Debug, Clone, Copy)]
pub struct RandomFlipAttack {
    /// RNG seed for bit selection.
    pub seed: u64,
}

impl RandomFlipAttack {
    /// A random flipper with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Attack for RandomFlipAttack {
    fn name(&self) -> &str {
        "random-flip"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let mut random = RandomAttack::new(self.seed);
        flip_campaign(env, "random-flip", || true, move |model, _, _| Some(random.next_flip(model)))
    }
}

/// Shared skeleton of the progressive flip attacks: each iteration
/// draws whether the flip lands, selects it on the *current* model
/// state, realizes it in the DRAM-resident image, and records the
/// accuracy trajectory. Selection is skipped for non-landing
/// iterations (the white-box search only pays off when the flip can be
/// realized).
fn flip_campaign(
    env: &mut RunEnv<'_>,
    kind: &str,
    mut lands: impl FnMut() -> bool,
    mut select: impl FnMut(&QuantNetwork, &Tensor, &[usize]) -> Option<BitIndex>,
) -> Result<AttackOutcome, SimError> {
    let handle = &env.victims[env.target];
    let victim = handle
        .victim()
        .ok_or_else(|| SimError::Build(format!("{kind} needs a model-backed victim")))?;
    let layout = handle
        .layout()
        .ok_or_else(|| SimError::Build(format!("{kind} needs a contiguously deployed model")))?;
    let (x, y) = victim.dataset.test_sample(env.eval_batch, 0);
    let mut model = handle
        .model_from_dram(env.ctrl().dram())?
        .ok_or_else(|| SimError::Build("victim has no DRAM-resident model".to_owned()))?;
    let mut outcome = AttackOutcome::default();
    outcome.curve.push((0.0, model.accuracy(&x, &y)? * 100.0));
    for iteration in 1..=env.budget.iterations {
        if lands() {
            if let Some(flip) = select(&model, &x, &y) {
                let (row, bit) = layout.bit_location(&model, flip)?;
                env.ctrl().dram_mut().flip_bit(row, bit)?;
                model.flip_bit(flip)?;
                outcome.landed_flips += 1;
                outcome.target_bits.push(flip);
                outcome.flipped_bits.push(flip);
            }
        }
        outcome.curve.push((iteration as f64, model.accuracy(&x, &y)? * 100.0));
    }
    Ok(outcome)
}

/// The §V Page Table Attack: stage a poisoned copy of weight page 0 at
/// the frame one PFN-bit flip away, then hammer the PTE row.
#[derive(Debug, Clone, Copy)]
pub struct PageTablePoison {
    /// Which PFN bit to flip.
    pub pfn_bit: u32,
    /// XOR mask applied to the staged payload (0x80 flips every MSB).
    pub payload_xor: u8,
}

impl Default for PageTablePoison {
    fn default() -> Self {
        Self { pfn_bit: 1, payload_xor: 0x80 }
    }
}

impl Attack for PageTablePoison {
    fn name(&self) -> &str {
        "page-table"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let handle = &env.victims[env.target];
        let victim = handle
            .victim()
            .ok_or_else(|| SimError::Build("PTA needs a model-backed victim".to_owned()))?;
        let table = *handle.page_table().ok_or_else(|| {
            SimError::Build("PTA needs a paged victim (VictimSpec::paged)".to_owned())
        })?;
        let attack =
            PtaAttack::new(PtaConfig { pfn_bit: self.pfn_bit, hammer: hammer_config(env.budget) });
        let mut payload = victim.model.weight_bytes();
        payload.truncate(table.config().page_size as usize);
        for byte in &mut payload {
            *byte ^= self.payload_xor;
        }
        attack.stage_payload(env.ctrl(), &table, 0, &payload)?;
        let outcome = attack.execute(env.ctrl(), &table, 0)?;
        Ok(AttackOutcome {
            landed_flips: u64::from(outcome.redirected),
            requests: outcome.hammer.requests,
            denied: outcome.hammer.denied,
            redirected: outcome.redirected,
            ..AttackOutcome::default()
        })
    }
}

/// Benign victim traffic: stream the weight image through the
/// controller as the victim's inference loop would, to measure the
/// defense's overhead on legitimate reads (Table II prose).
#[derive(Debug, Clone, Copy)]
pub struct InferenceStream {
    /// Inference batches (full passes over the weight image).
    pub batches: u64,
    /// Bytes per read request.
    pub chunk: usize,
}

impl Default for InferenceStream {
    fn default() -> Self {
        Self { batches: 10, chunk: 32 }
    }
}

impl Attack for InferenceStream {
    fn name(&self) -> &str {
        "inference-stream"
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let handle = &env.victims[env.target];
        let victim = handle.victim().ok_or_else(|| {
            SimError::Build("inference stream needs a model-backed victim".to_owned())
        })?;
        let layout = handle.layout().ok_or_else(|| {
            SimError::Build("inference stream needs a contiguously deployed model".to_owned())
        })?;
        let (start, end) = layout.phys_range(&victim.model);
        let mapper = *env.ctrl().mapper();
        let row_bytes = mapper.geometry().row_bytes;
        // A zero chunk would never advance the stream.
        let chunk = self.chunk.max(1);
        let mut outcome = AttackOutcome::default();
        for _ in 0..self.batches {
            let mut addr = start;
            while addr < end {
                let (_, col) = mapper.to_dram(addr)?;
                let take = chunk.min((end - addr) as usize).min(row_bytes - col);
                let done = env.ctrl().service(MemRequest::read(addr, take))?;
                outcome.requests += 1;
                if done.denied {
                    outcome.denied += 1;
                }
                addr += take as u64;
            }
        }
        Ok(outcome)
    }
}

/// Trace-driven workload replay through the *whole* engine: requests
/// carry global addresses, the router fans them out across every
/// channel shard, and shards execute in parallel when the scenario's
/// [`EngineConfig`](dlk_engine::EngineConfig) says so. This is the
/// driver behind the replay and multi-tenant catalog scenarios.
#[derive(Debug, Clone)]
pub struct ReplayWorkload {
    trace: Trace,
    name: String,
}

impl ReplayWorkload {
    /// Replays a recorded trace (e.g. parsed from a trace file with
    /// [`Trace::from_text`]).
    pub fn trace(trace: Trace) -> Self {
        Self { trace, name: "trace-replay".to_owned() }
    }

    /// Replays a generated workload pattern.
    pub fn workload(workload: &Workload) -> Self {
        Self { trace: workload.trace(), name: "workload-replay".to_owned() }
    }

    /// Replays several tenants' workloads interleaved round-robin —
    /// the multi-tenant mix.
    pub fn tenants(tenants: &[Workload]) -> Self {
        Self { trace: Workload::multi_tenant(tenants), name: "multi-tenant-replay".to_owned() }
    }
}

impl Attack for ReplayWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&mut self, env: &mut RunEnv<'_>) -> Result<AttackOutcome, SimError> {
        let outcome = env.engine.replay(TraceReplay::new(&self.trace))?;
        Ok(AttackOutcome {
            requests: outcome.len() as u64,
            denied: outcome.denied(),
            ..AttackOutcome::default()
        })
    }
}
