//! Property: a defense hook on a built scenario's controller sees
//! exactly the same activation stream as the same defense hand-wired
//! onto a raw `MemoryController` (the legacy path), and a defense
//! mounted from its `DefenseSpec` acts exactly as often as the
//! hand-wired one. The scenario pipeline adds nothing and hides nothing
//! from the hook.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use dram_locker::attacks::hammer::{HammerConfig, HammerDriver, HammerOutcome};
use dram_locker::defenses::{CounterDefenseHook, CounterPerRow, RowTracker};
use dram_locker::dram::RowId;
use dram_locker::memctrl::{DefenseHook, MemCtrlConfig, MemRequest, MemoryController};
use dram_locker::sim::{AttackSpec, Budget, DefenseSpec, Scenario, ScenarioBuilder, VictimSpec};

/// A tracker that records every activation it is shown. Clones share
/// the log, so the copy installed on the built run writes into the
/// observer's buffer.
#[derive(Clone)]
struct SpyTracker {
    threshold: u64,
    count: u64,
    log: Arc<Mutex<Vec<u64>>>,
}

impl SpyTracker {
    fn new(threshold: u64) -> (Self, Arc<Mutex<Vec<u64>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (Self { threshold, count: 0, log: log.clone() }, log)
    }
}

impl RowTracker for SpyTracker {
    fn on_activate(&mut self, row: RowId) -> bool {
        self.log.lock().unwrap().push(row.0);
        self.count += 1;
        if self.count >= self.threshold {
            self.count = 0;
            true
        } else {
            false
        }
    }

    fn reset_window(&mut self) {
        self.count = 0;
    }

    fn storage_bits(&self) -> u64 {
        64
    }

    fn name(&self) -> &'static str {
        "spy"
    }
}

/// The scenario under test: a hammer campaign against one row victim.
fn campaign(victim_row: u64, fill: u8, bit: usize, budget: u64) -> ScenarioBuilder {
    Scenario::builder()
        .victim(VictimSpec::row(victim_row, fill))
        .attack(AttackSpec::Hammer { bit })
        .budget(Budget { max_activations: budget, check_interval: 8, iterations: 1 })
}

/// The legacy wiring — mount `hook` on a raw controller, seed the row,
/// run the same campaign by hand, read the row back. Returns the
/// controller, the campaign outcome, and whether the final read
/// returned the seeded data.
fn legacy_campaign(
    hook: Box<dyn DefenseHook>,
    victim_row: u64,
    fill: u8,
    bit: usize,
    budget: u64,
) -> (MemoryController, HammerOutcome, bool) {
    let config = MemCtrlConfig::tiny_for_tests();
    let row_bytes = config.dram.geometry.row_bytes;
    let mut ctrl = MemoryController::with_hook(config, hook);
    let (row, _) = ctrl.mapper().to_dram(victim_row * row_bytes as u64).expect("maps");
    ctrl.dram_mut().write_row(row, &vec![fill; row_bytes]).expect("seed");
    let driver = HammerDriver::new(HammerConfig { max_activations: budget, check_interval: 8 });
    let outcome = driver.hammer_bit(&mut ctrl, row, bit).expect("campaign runs");
    let done = ctrl
        .service(MemRequest::read(victim_row * row_bytes as u64, row_bytes))
        .expect("victim read");
    let intact = done.data.as_deref() == Some(vec![fill; row_bytes].as_slice());
    (ctrl, outcome, intact)
}

proptest! {
    /// For arbitrary victim rows, thresholds and budgets, the builder
    /// path and the legacy hand-wired path drive identical activation
    /// streams into the defense, and a spec-mounted counter defense
    /// reports the hand-wired hook's mitigation count.
    #[test]
    fn builder_mounted_hook_sees_the_legacy_activation_stream(
        victim_row in 2u64..60,
        threshold in 2u64..12,
        budget in 64u64..512,
    ) {
        let bit = 7usize;
        let fill = 0xA5u8;

        // Path 1: the Scenario builder, with the spy installed on every
        // shard of the built run. Its report phase ends with one
        // trusted integrity read of the victim row.
        let (tracker, scenario_log) = SpyTracker::new(threshold);
        let mut run = campaign(victim_row, fill, bit, budget).build().expect("scenario builds");
        for channel in 0..run.engine().channels() {
            let spy = Box::new(CounterDefenseHook::new(tracker.clone()));
            run.engine_mut().shard_mut(channel).controller_mut().set_hook(spy);
        }
        let report = run.run().expect("scenario runs");

        // Path 2: the legacy wiring.
        let (tracker, legacy_log) = SpyTracker::new(threshold);
        let (_, outcome, intact) =
            legacy_campaign(Box::new(CounterDefenseHook::new(tracker)), victim_row, fill, bit, budget);

        prop_assert_eq!(scenario_log.lock().unwrap().clone(), legacy_log.lock().unwrap().clone());
        // The surfaced outcome matches the raw driver's too.
        prop_assert_eq!(report.landed_flips > 0, outcome.flipped);
        prop_assert_eq!(report.requests, outcome.requests);
        prop_assert_eq!(report.denied, outcome.denied);
        prop_assert_eq!(report.victims[0].data_intact, Some(intact));

        // A counter defense mounted from its spec acts exactly as often
        // as the same tracker hand-wired on the legacy path.
        let report = campaign(victim_row, fill, bit, budget)
            .defense(DefenseSpec::counter_per_row(threshold))
            .build()
            .expect("scenario builds")
            .run()
            .expect("scenario runs");
        let (ctrl, _, _) = legacy_campaign(
            Box::new(CounterDefenseHook::new(CounterPerRow::new(threshold))),
            victim_row,
            fill,
            bit,
            budget,
        );
        let hand_wired = ctrl
            .hook()
            .as_any()
            .and_then(|any| any.downcast_ref::<CounterDefenseHook<CounterPerRow>>())
            .expect("the hand-wired counter hook")
            .mitigations();
        prop_assert!(hand_wired > 0, "a threshold below TRH refreshes during the campaign");
        prop_assert_eq!(report.mitigations.len(), 1);
        prop_assert_eq!(report.mitigations[0].actions, hand_wired);
    }
}
