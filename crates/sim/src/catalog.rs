//! The named scenario registry.
//!
//! Every attack × defense combination the paper evaluates is a named,
//! enumerable scenario — and since the spec redesign each entry *is
//! data*: a [`ScenarioSpec`] that can be printed, diffed, persisted
//! through the spec codec and fed to sweep grids. [`catalog`] lists the
//! entries, [`find`] looks one up (with a did-you-mean suggestion on
//! a miss), and [`CatalogEntry::scenario`] hands back a pre-loaded
//! builder so callers can tweak budgets or geometry before running.
//! Head-to-head sweeps are one loop over the catalog — or one
//! [`SweepGrid`](crate::sweep::SweepGrid) over any entry's spec.

use dlk_attacks::bfa::BfaConfig;
use dlk_dnn::models::ModelKind;
use dlk_engine::{EngineConfig, Workload};

use crate::error::SimError;
use crate::scenario::{Budget, ScenarioBuilder};
use crate::spec::{AttackSpec, DefenseSpec, ScenarioSpec};
use crate::victim::VictimSpec;

/// What a scenario is expected to show when swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The attack visibly harms the victim.
    Harmed,
    /// The defense contains the attack; the victim is unharmed.
    Contained,
    /// No containment claim (statistical or overhead scenarios).
    Any,
}

/// One named scenario: metadata plus the full declarative spec.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// Unique scenario name (`attack-vs-defense`).
    pub name: &'static str,
    /// The paper artifact this scenario reproduces.
    pub artifact: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Sweep expectation.
    pub expected: Expected,
    /// The scenario, as data (label = `name`).
    pub spec: ScenarioSpec,
}

impl CatalogEntry {
    /// A builder pre-loaded with this entry's spec (victims trained on
    /// demand at build time).
    pub fn scenario(&self) -> ScenarioBuilder {
        ScenarioBuilder::from_spec(self.spec.clone())
    }
}

const WEIGHT_BASE: u64 = 0x400;
const ROW_BYTES: u64 = 64; // tiny geometry

fn entry(
    name: &'static str,
    artifact: &'static str,
    description: &'static str,
    expected: Expected,
    spec: ScenarioSpec,
) -> CatalogEntry {
    CatalogEntry {
        name,
        artifact,
        description,
        expected,
        spec: ScenarioSpec { label: name.to_owned(), ..spec },
    }
}

fn hammer_base() -> ScenarioSpec {
    ScenarioSpec {
        victims: vec![(VictimSpec::row(20, 0xA5), 0)],
        attack: Some(AttackSpec::Hammer { bit: 77 }),
        budget: Budget { max_activations: 4_000, check_interval: 8, iterations: 1 },
        ..ScenarioSpec::default()
    }
}

fn hammer_vs(defense: DefenseSpec) -> ScenarioSpec {
    ScenarioSpec { defenses: vec![defense], ..hammer_base() }
}

fn bfa_base(success_rate: f64) -> ScenarioSpec {
    ScenarioSpec {
        victims: vec![(VictimSpec::model(ModelKind::Tiny, 42, WEIGHT_BASE), 0)],
        attack: Some(AttackSpec::ProgressiveBfa {
            success_rate,
            seed: 8,
            config: BfaConfig::default(),
        }),
        ..ScenarioSpec::default()
    }
}

/// The ResNet-20-shaped CNN victim under progressive BFA. The bit
/// search walks every conv kernel and the dense head through the same
/// flat indexing as the MLP scenarios; candidate trials are trimmed to
/// keep the 22-layer sweep test-sized.
fn cnn_bfa_base(success_rate: f64) -> ScenarioSpec {
    ScenarioSpec {
        victims: vec![(VictimSpec::model(ModelKind::Resnet20Cnn, 42, WEIGHT_BASE), 0)],
        attack: Some(AttackSpec::ProgressiveBfa {
            success_rate,
            seed: 8,
            config: BfaConfig { candidates_per_layer: 2, bits_considered: Some([6, 7]) },
        }),
        budget: Budget { max_activations: 20_000, check_interval: 8, iterations: 8 },
        eval_batch: 32,
        ..ScenarioSpec::default()
    }
}

fn bfa_hammer_base(model: ModelKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        victims: vec![(VictimSpec::model(model, seed, WEIGHT_BASE), 0)],
        attack: Some(AttackSpec::BfaHammer { batch: 48 }),
        budget: Budget { max_activations: 20_000, check_interval: 8, iterations: 1 },
        ..ScenarioSpec::default()
    }
}

/// The CNN victim's weight-fetch stream replayed over a 2-channel
/// sharded engine: the fetch trace is recorded shard-local against the
/// victim's layout at build time, then lifted to global addresses homed
/// on channel 0 — inference traffic driving the multi-channel pipeline.
fn cnn_inference_2ch() -> ScenarioSpec {
    ScenarioSpec {
        engine: EngineConfig::sharded(2),
        victims: vec![(VictimSpec::model(ModelKind::TinyCnn, 7, WEIGHT_BASE), 0)],
        attack: Some(AttackSpec::weight_fetch(4, 32, 0)),
        ..ScenarioSpec::default()
    }
}

fn pta_base() -> ScenarioSpec {
    ScenarioSpec {
        victims: vec![(VictimSpec::paged(ModelKind::Tiny, 21), 0)],
        attack: Some(AttackSpec::PageTable { pfn_bit: 1, payload_xor: 0x80 }),
        budget: Budget { max_activations: 20_000, check_interval: 8, iterations: 1 },
        ..ScenarioSpec::default()
    }
}

/// Multi-tenant replay over a 4-channel sharded engine: two row
/// victims homed on channels 0 and 1, three benign tenants plus an
/// attacker hammer loop aimed at channel 0's victim. Global rows
/// stripe over 4 channels, so local rows 19/21 of channel 0 (the
/// aggressor-candidate neighbours of victim row 20) are global rows
/// 76/84.
fn multitenant_4ch() -> ScenarioSpec {
    ScenarioSpec {
        engine: EngineConfig::sharded(4),
        victims: vec![(VictimSpec::row(20, 0xA5), 0), (VictimSpec::row(20, 0x5A), 1)],
        attack: Some(AttackSpec::tenants(vec![
            Workload::Sequential { base: 0, len: 8, count: 400 },
            Workload::Strided { base: 0, stride: 4 * ROW_BYTES, len: 4, count: 200 },
            Workload::PointerChase { base: 0, span: 512 * ROW_BYTES, len: 8, count: 400, seed: 11 },
            Workload::HammerLoop {
                addr_a: 76 * ROW_BYTES,
                addr_b: 84 * ROW_BYTES,
                iterations: 200,
            },
        ])),
        ..ScenarioSpec::default()
    }
}

fn with_defense(spec: ScenarioSpec, defense: DefenseSpec) -> ScenarioSpec {
    let mut spec = spec;
    spec.defenses.push(defense);
    spec
}

/// Every named scenario, in evaluation order, as data.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        entry(
            "hammer-vs-none",
            "Fig. 4 premise",
            "RowHammer flips a victim-row bit on an undefended device",
            Expected::Harmed,
            hammer_base(),
        ),
        entry(
            "hammer-vs-dram-locker",
            "Fig. 4(d)",
            "DRAM-Locker locks the aggressor-candidate rows; every access denied",
            Expected::Contained,
            hammer_vs(DefenseSpec::locker_adjacent()),
        ),
        entry(
            "hammer-vs-graphene",
            "Table I baseline",
            "Graphene's Misra-Gries tracker refreshes before TRH",
            Expected::Contained,
            hammer_vs(DefenseSpec::graphene(64, 8)),
        ),
        entry(
            "hammer-vs-hydra",
            "Table I baseline",
            "Hydra's hybrid tracker refreshes before TRH",
            Expected::Contained,
            hammer_vs(DefenseSpec::hydra(16, 4, 8)),
        ),
        entry(
            "hammer-vs-twice",
            "Table I baseline",
            "TWiCE's pruned counter table refreshes before TRH",
            Expected::Contained,
            hammer_vs(DefenseSpec::twice(8, 64, 1)),
        ),
        entry(
            "hammer-vs-counter-per-row",
            "Table I upper bound",
            "Exact per-row counters refresh before TRH",
            Expected::Contained,
            hammer_vs(DefenseSpec::counter_per_row(8)),
        ),
        entry(
            "hammer-vs-rrs",
            "Table I baseline",
            "Randomized Row-Swap relocates the aggressor; victim data survives",
            Expected::Contained,
            hammer_vs(DefenseSpec::rrs(8, 5)),
        ),
        entry(
            "hammer-vs-srs",
            "Table I baseline",
            "Secure Row-Swap relocates proactively; victim data survives",
            Expected::Contained,
            hammer_vs(DefenseSpec::srs(8, 5)),
        ),
        entry(
            "hammer-vs-shadow",
            "Fig. 7",
            "SHADOW shuffles the subarray; victim data survives",
            Expected::Contained,
            hammer_vs(DefenseSpec::shadow(8, 5)),
        ),
        entry(
            "bfa-hammer-vs-none",
            "§III / Fig. 3(a)",
            "Gradient-ranked edge-row MSB realized by a physical hammer campaign",
            Expected::Any,
            bfa_hammer_base(ModelKind::Tiny, 31),
        ),
        entry(
            "bfa-hammer-vs-dram-locker",
            "§IV / Fig. 4(d)",
            "The same physical BFA campaign, denied by the lock table",
            Expected::Contained,
            with_defense(bfa_hammer_base(ModelKind::Tiny, 31), DefenseSpec::locker_adjacent()),
        ),
        entry(
            "bfa-vs-none",
            "Fig. 8 (without)",
            "Progressive BFA: every chosen flip lands, accuracy collapses",
            Expected::Harmed,
            bfa_base(1.0),
        ),
        entry(
            "bfa-vs-dram-locker",
            "Fig. 8 (with) / §IV-D",
            "Under DRAM-Locker only 9.6% of flips land (±20% variation)",
            Expected::Any,
            bfa_base(0.096),
        ),
        entry(
            "cnn-bfa-vs-none",
            "Fig. 8, CNN victim",
            "Progressive BFA walks ResNet-20-shaped conv kernels; accuracy collapses",
            Expected::Harmed,
            cnn_bfa_base(1.0),
        ),
        entry(
            "cnn-bfa-vs-dram-locker",
            "Fig. 8 (with) / §IV-D, CNN victim",
            "The same conv-kernel BFA with only 9.6% of flips landing under the locker",
            Expected::Any,
            with_defense(cnn_bfa_base(0.096), DefenseSpec::locker_adjacent()),
        ),
        entry(
            "cnn-bfa-hammer-vs-dram-locker",
            "§IV / Fig. 4(d), CNN victim",
            "Physical BFA against the CNN image's edge-row conv kernels, denied",
            Expected::Contained,
            with_defense(bfa_hammer_base(ModelKind::TinyCnn, 7), DefenseSpec::locker_adjacent()),
        ),
        entry(
            "cnn-inference-2ch",
            "scaling (ROADMAP), CNN victim",
            "CNN weight-fetch trace replayed through a 2-channel sharded engine",
            Expected::Contained,
            cnn_inference_2ch(),
        ),
        entry(
            "cnn-inference-2ch-vs-dram-locker",
            "Table II prose, CNN victim",
            "The same 2-channel CNN weight fetch with per-shard lock tables mounted",
            Expected::Contained,
            with_defense(cnn_inference_2ch(), DefenseSpec::locker_adjacent()),
        ),
        entry(
            "random-vs-none",
            "Fig. 1(a)",
            "Uniformly random flips — orders of magnitude weaker than BFA",
            Expected::Any,
            ScenarioSpec {
                victims: vec![(VictimSpec::model(ModelKind::Tiny, 42, WEIGHT_BASE), 0)],
                attack: Some(AttackSpec::RandomFlip { seed: 7 }),
                ..ScenarioSpec::default()
            },
        ),
        entry(
            "pta-vs-none",
            "§V",
            "Page Table Attack redirects a weight page to a poisoned frame",
            Expected::Harmed,
            pta_base(),
        ),
        entry(
            "pta-vs-dram-locker",
            "§V",
            "DRAM-Locker guards the page-table rows; the PTE survives",
            Expected::Contained,
            with_defense(pta_base(), DefenseSpec::locker_adjacent()),
        ),
        entry(
            "inference-vs-dram-locker",
            "Table II prose",
            "Victim inference traffic under adjacent-row locking (overhead run)",
            Expected::Contained,
            ScenarioSpec {
                victims: vec![(VictimSpec::model(ModelKind::Tiny, 3, WEIGHT_BASE), 0)],
                attack: Some(AttackSpec::InferenceStream { batches: 10, chunk: 32 }),
                defenses: vec![DefenseSpec::locker_adjacent()],
                ..ScenarioSpec::default()
            },
        ),
        entry(
            "replay-stream-2ch",
            "scaling (ROADMAP)",
            "Sequential trace replay fanned over a 2-channel sharded engine",
            Expected::Contained,
            ScenarioSpec {
                engine: EngineConfig::sharded(2),
                victims: vec![(VictimSpec::row(20, 0xA5), 0)],
                attack: Some(AttackSpec::replay(Workload::Sequential {
                    base: 0,
                    len: 8,
                    count: 2_000,
                })),
                ..ScenarioSpec::default()
            },
        ),
        entry(
            "replay-chase-2ch",
            "scaling (ROADMAP)",
            "Dependent pointer-chase replay across 2 channels (worst-case locality)",
            Expected::Any,
            ScenarioSpec {
                engine: EngineConfig::sharded(2),
                victims: vec![(VictimSpec::row(20, 0xA5), 0)],
                attack: Some(AttackSpec::replay(Workload::PointerChase {
                    base: 0,
                    span: 512 * ROW_BYTES,
                    len: 8,
                    count: 1_000,
                    seed: 7,
                })),
                ..ScenarioSpec::default()
            },
        ),
        entry(
            "replay-hammer-vs-dram-locker",
            "Fig. 4(d) via replay",
            "A recorded hammer-loop trace replayed against the lock table",
            Expected::Contained,
            ScenarioSpec {
                victims: vec![(VictimSpec::row(20, 0xA5), 0)],
                attack: Some(AttackSpec::replay(Workload::HammerLoop {
                    addr_a: 19 * ROW_BYTES,
                    addr_b: 21 * ROW_BYTES,
                    iterations: 500,
                })),
                defenses: vec![DefenseSpec::locker_adjacent()],
                ..ScenarioSpec::default()
            },
        ),
        entry(
            "replay-multitenant-4ch",
            "multi-tenant (ROADMAP)",
            "Four tenants interleaved over 4 channels; the hammer tenant corrupts \
             channel 0's victim, channel 1's tenant is untouched",
            Expected::Harmed,
            multitenant_4ch(),
        ),
        entry(
            "replay-multitenant-4ch-vs-dram-locker",
            "multi-tenant (ROADMAP)",
            "The same 4-channel mix with per-shard lock-table slices mounted",
            Expected::Contained,
            with_defense(multitenant_4ch(), DefenseSpec::locker_adjacent()),
        ),
    ]
}

/// Looks a scenario up by name.
///
/// # Errors
///
/// Returns [`SimError::UnknownScenario`] for an unknown name, carrying
/// the nearest catalog name by edit distance as a did-you-mean
/// suggestion when one is plausibly a typo.
pub fn find(name: &str) -> Result<CatalogEntry, SimError> {
    let entries = catalog();
    match entries.iter().position(|entry| entry.name == name) {
        Some(index) => Ok(entries.into_iter().nth(index).expect("position is in range")),
        None => {
            let suggestion = entries
                .iter()
                .map(|entry| (edit_distance(name, entry.name), entry.name))
                .min()
                // A suggestion further away than half the query is
                // noise, not a typo.
                .filter(|&(distance, _)| distance <= name.len().max(4) / 2)
                .map(|(_, best)| best.to_owned());
            Err(SimError::UnknownScenario { name: name.to_owned(), suggestion })
        }
    }
}

/// Levenshtein distance (insert/delete/substitute, unit costs).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let substitute = previous[j] + usize::from(ca != cb);
            current.push(substitute.min(previous[j + 1] + 1).min(current[j] + 1));
        }
        previous = current;
    }
    previous[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_plentiful() {
        let names: std::collections::HashSet<_> = catalog().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), catalog().len());
        assert!(catalog().len() >= 6, "the catalog must enumerate at least 6 scenarios");
    }

    #[test]
    fn entries_are_labelled_data() {
        for entry in catalog() {
            assert_eq!(entry.spec.label, entry.name);
        }
    }

    #[test]
    fn every_entry_survives_a_codec_round_trip() {
        for entry in catalog() {
            let text = entry.spec.to_text();
            let parsed = ScenarioSpec::from_text(&text).unwrap();
            assert_eq!(parsed, entry.spec, "{}:\n{text}", entry.name);
        }
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("hammer-vs-dram-locker").is_ok());
        assert!(find("no-such-scenario").is_err());
    }

    #[test]
    fn find_suggests_the_nearest_name() {
        let err = find("hammer-vs-dram-loker").unwrap_err();
        match err {
            SimError::UnknownScenario { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("hammer-vs-dram-locker"));
            }
            other => panic!("wrong error: {other}"),
        }
        // A name nothing like any entry gets no suggestion.
        let err = find("zzzzzzzzzzzzzzzzzzzzzzzz").unwrap_err();
        assert!(err.to_string() == "unknown scenario 'zzzzzzzzzzzzzzzzzzzzzzzz'", "{err}");
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    /// `RunReport::attack` is the CSV `attack` column: pin the exact
    /// name every catalog entry reports, plus the two attacks no entry
    /// uses.
    #[test]
    fn report_names_are_pinned() {
        let expected: Vec<(&str, &str)> = vec![
            ("hammer-vs-none", "hammer"),
            ("hammer-vs-dram-locker", "hammer"),
            ("hammer-vs-graphene", "hammer"),
            ("hammer-vs-hydra", "hammer"),
            ("hammer-vs-twice", "hammer"),
            ("hammer-vs-counter-per-row", "hammer"),
            ("hammer-vs-rrs", "hammer"),
            ("hammer-vs-srs", "hammer"),
            ("hammer-vs-shadow", "hammer"),
            ("bfa-hammer-vs-none", "bfa-hammer"),
            ("bfa-hammer-vs-dram-locker", "bfa-hammer"),
            ("bfa-vs-none", "bfa-progressive"),
            ("bfa-vs-dram-locker", "bfa-progressive"),
            ("cnn-bfa-vs-none", "bfa-progressive"),
            ("cnn-bfa-vs-dram-locker", "bfa-progressive"),
            ("cnn-bfa-hammer-vs-dram-locker", "bfa-hammer"),
            ("cnn-inference-2ch", "trace-replay"),
            ("cnn-inference-2ch-vs-dram-locker", "trace-replay"),
            ("random-vs-none", "random-flip"),
            ("pta-vs-none", "page-table"),
            ("pta-vs-dram-locker", "page-table"),
            ("inference-vs-dram-locker", "inference-stream"),
            ("replay-stream-2ch", "workload-replay"),
            ("replay-chase-2ch", "workload-replay"),
            ("replay-hammer-vs-dram-locker", "workload-replay"),
            ("replay-multitenant-4ch", "multi-tenant-replay"),
            ("replay-multitenant-4ch-vs-dram-locker", "multi-tenant-replay"),
        ];
        let names: Vec<&str> = catalog().iter().map(|e| e.name).collect();
        assert_eq!(names, expected.iter().map(|&(name, _)| name).collect::<Vec<_>>());

        let victim = vec![(VictimSpec::row(20, 0xA5), 0)];
        let extra = [
            ScenarioSpec {
                victims: victim.clone(),
                attack: Some(AttackSpec::RowProbe { accesses: 4 }),
                ..ScenarioSpec::new("row-probe")
            },
            ScenarioSpec {
                victims: victim,
                attack: Some(AttackSpec::trace(
                    Workload::Sequential { base: 0, len: 8, count: 4 }.trace(),
                )),
                ..ScenarioSpec::new("replay-trace")
            },
        ];
        let specs = catalog().into_iter().map(|e| e.spec).chain(extra);
        let want = expected.iter().map(|&(_, attack)| attack).chain(["row-probe", "trace-replay"]);
        for (spec, want) in specs.zip(want) {
            let report = crate::Scenario::from_spec(&spec).unwrap().run().unwrap();
            assert_eq!(report.attack, want, "{}", spec.label);
        }
    }

    #[test]
    fn entries_build_labelled_runs() {
        let entry = find("hammer-vs-none").unwrap();
        let run = entry.scenario().build().unwrap();
        assert_eq!(run.label(), "hammer-vs-none");
    }
}
