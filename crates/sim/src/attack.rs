//! Running an [`AttackSpec`] against a deployed scenario.
//!
//! An attack is data: [`execute`] is one `match` over the
//! [`AttackSpec`] variants. Given the running environment (engine +
//! deployed victims + budget) each arm exercises the pipeline and
//! reports what it achieved. Benign workloads (inference streams,
//! replays) go through the same match — drivers with zero malice, which
//! is what lets one scenario API measure both damage and overhead.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dlk_attacks::bfa::BitSearch;
use dlk_attacks::hammer::{HammerConfig, HammerDriver};
use dlk_attacks::pta::{PtaAttack, PtaConfig};
use dlk_attacks::RandomAttack;
use dlk_dnn::{models, BitIndex, QuantNetwork, Tensor};
use dlk_engine::{ShardedEngine, Trace, TraceReplay, Workload};
use dlk_memctrl::{MemRequest, MemoryController};

use crate::error::SimError;
use crate::report::AttackOutcome;
use crate::scenario::Budget;
use crate::spec::AttackSpec;
use crate::victim::DeployedVictim;

/// The attack's view of a running scenario.
pub(crate) struct RunEnv<'a> {
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
    /// The target victim's home-channel controller — where classic
    /// single-controller attacks run, addressed in that shard's local
    /// address space. Engine-wide attacks (trace replay) use
    /// [`RunEnv::engine`] directly with global addresses.
    fn ctrl(&mut self) -> &mut MemoryController {
        self.engine.shard_mut(self.homes[self.target]).controller_mut()
    }
}

/// The attack's name in reports (the CSV `attack` column).
pub(crate) fn name(attack: &AttackSpec) -> &'static str {
    match attack {
        AttackSpec::Hammer { .. } => "hammer",
        AttackSpec::RowProbe { .. } => "row-probe",
        AttackSpec::BfaHammer { .. } => "bfa-hammer",
        AttackSpec::ProgressiveBfa { .. } => "bfa-progressive",
        AttackSpec::RandomFlip { .. } => "random-flip",
        AttackSpec::PageTable { .. } => "page-table",
        AttackSpec::InferenceStream { .. } => "inference-stream",
        AttackSpec::Replay { tenants } if tenants.len() == 1 => "workload-replay",
        AttackSpec::Replay { .. } => "multi-tenant-replay",
        AttackSpec::ReplayTrace { .. } | AttackSpec::WeightFetch { .. } => "trace-replay",
    }
}

/// Exercises the pipeline against the target victim.
///
/// # Errors
///
/// Returns [`SimError::Build`] when the target victim lacks what the
/// attack needs (a data row, a contiguous model, a page table) and
/// propagates controller/layout errors; attacks never fail just
/// because a defense stopped them (that is a reported outcome).
pub(crate) fn execute(
    attack: &AttackSpec,
    env: &mut RunEnv<'_>,
) -> Result<AttackOutcome, SimError> {
    match attack {
        // The raw RowHammer campaign: hammer the target victim's
        // primary data row until bit `bit` flips or the budget runs out.
        AttackSpec::Hammer { bit } => {
            let victim = &env.victims[env.target];
            let row = victim.primary_row(env.ctrl()).ok_or_else(|| {
                SimError::Build("hammer attack needs a row-backed victim".to_owned())
            })?;
            let driver = HammerDriver::new(hammer_config(env.budget));
            let outcome = driver.hammer_bit(env.ctrl(), row, *bit)?;
            Ok(AttackOutcome {
                landed_flips: u64::from(outcome.flipped),
                requests: outcome.requests,
                denied: outcome.denied,
                ..AttackOutcome::default()
            })
        }
        // Direct untrusted probing of the victim's own data address —
        // the quickstart attacker hitting a locked row head-on.
        AttackSpec::RowProbe { accesses } => {
            let start = env.victims[env.target].data_start().ok_or_else(|| {
                SimError::Build("row probe needs a victim with a data address".to_owned())
            })?;
            let mut outcome = AttackOutcome::default();
            for _ in 0..*accesses {
                let done = env.ctrl().service(MemRequest::read(start, 1).untrusted())?;
                outcome.requests += 1;
                if done.denied {
                    outcome.denied += 1;
                }
            }
            Ok(outcome)
        }
        // The BFA realized physically: gradient-rank the weight bits in
        // the image's *edge row* (the only row whose aggressor an
        // OS-isolated attacker can activate), then hammer the best one.
        AttackSpec::BfaHammer { batch } => {
            let handle = &env.victims[env.target];
            let victim = handle
                .victim()
                .ok_or_else(|| SimError::Build("BFA needs a model-backed victim".to_owned()))?;
            let layout = handle.layout().ok_or_else(|| {
                SimError::Build("BFA hammer needs a contiguously deployed model".to_owned())
            })?;
            let (x, y) = victim.dataset.test_sample(*batch, 0);
            let target = models::best_edge_target(&victim.model, layout, &x, &y)
                .or_else(|| {
                    // No edge-row flip increases the loss: fall back to
                    // the image's first MSB so the campaign still runs.
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
        // The progressive bit search of Fig. 8: each iteration the
        // white-box attacker picks the most damaging flip of the
        // *current* model state; the flip lands with probability
        // `success_rate` (1.0 undefended; 0.096 under DRAM-Locker at
        // ±20% process variation, §IV-D).
        AttackSpec::ProgressiveBfa { success_rate, seed, config } => {
            let mut search = BitSearch::new(*config);
            let mut rng = StdRng::seed_from_u64(*seed);
            let success_rate = *success_rate;
            flip_campaign(
                env,
                "progressive BFA",
                move || success_rate >= 1.0 || rng.random_bool(success_rate),
                move |model, x, y| search.next_flip(model, x, y),
            )
        }
        // The Fig. 1(a) baseline: uniformly random weight-bit flips, one
        // per iteration.
        AttackSpec::RandomFlip { seed } => {
            let mut random = RandomAttack::new(*seed);
            flip_campaign(
                env,
                "random-flip",
                || true,
                move |model, _, _| Some(random.next_flip(model)),
            )
        }
        // The §V Page Table Attack: stage a poisoned copy of weight page
        // 0 at the frame one PFN-bit flip away, then hammer the PTE row.
        AttackSpec::PageTable { pfn_bit, payload_xor } => {
            let handle = &env.victims[env.target];
            let victim = handle
                .victim()
                .ok_or_else(|| SimError::Build("PTA needs a model-backed victim".to_owned()))?;
            let table = *handle.page_table().ok_or_else(|| {
                SimError::Build("PTA needs a paged victim (VictimSpec::paged)".to_owned())
            })?;
            let attack =
                PtaAttack::new(PtaConfig { pfn_bit: *pfn_bit, hammer: hammer_config(env.budget) });
            let mut payload = victim.model.weight_bytes();
            payload.truncate(table.config().page_size as usize);
            for byte in &mut payload {
                *byte ^= payload_xor;
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
        // Benign victim traffic: stream the weight image through the
        // controller as the victim's inference loop would, to measure
        // the defense's overhead on legitimate reads (Table II prose).
        AttackSpec::InferenceStream { batches, chunk } => {
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
            let chunk = (*chunk).max(1);
            let mut outcome = AttackOutcome::default();
            for _ in 0..*batches {
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
        // Trace-driven replay through the *whole* engine: requests
        // carry global addresses, the router fans them out across every
        // channel shard, and shards execute in parallel when the
        // scenario's engine config says so.
        AttackSpec::Replay { tenants } => {
            let trace = match tenants.as_slice() {
                [workload] => workload.trace(),
                many => Workload::multi_tenant(many),
            };
            replay(env, &trace)
        }
        AttackSpec::ReplayTrace { trace } => replay(env, trace),
        // The target victim's own weight-fetch trace, recorded against
        // its layout (shard-local) and lifted to global addresses on
        // `channel`.
        AttackSpec::WeightFetch { samples, chunk, channel } => {
            let handle = &env.victims[env.target];
            let (victim, layout) = handle.victim().zip(handle.layout()).ok_or_else(|| {
                SimError::Build(
                    "weight-fetch replay needs a contiguously deployed model victim".to_owned(),
                )
            })?;
            let local = layout.fetch_trace(&victim.model, *samples, *chunk)?;
            let trace = env.engine.router().globalize_trace(&local, *channel)?;
            replay(env, &trace)
        }
    }
}

fn hammer_config(budget: Budget) -> HammerConfig {
    HammerConfig { max_activations: budget.max_activations, check_interval: budget.check_interval }
}

fn replay(env: &mut RunEnv<'_>, trace: &Trace) -> Result<AttackOutcome, SimError> {
    let tally = env.engine.replay(TraceReplay::new(trace))?;
    Ok(AttackOutcome { requests: tally.requests, denied: tally.denied, ..AttackOutcome::default() })
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
