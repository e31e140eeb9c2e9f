//! Seeded input generators. The benchmark derives every input from the
//! workload seed, so the same seed always yields byte-identical trace
//! and grid text; the program under test only sees the generated inputs.

use dram_locker::engine::{EngineConfig, Workload};
use dram_locker::memctrl::{Trace, TraceOp};
use dram_locker::sim::{AttackSpec, DefenseSpec, Expected, GeometrySpec, ScenarioSpec, VictimSpec};

/// splitmix64: a small, fully specified generator, so inputs do not
/// depend on any RNG crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Channels every replay scenario runs over.
pub const REPLAY_CHANNELS: usize = 2;
/// Local row of each channel's row victim (the catalog's victim row).
pub const VICTIM_ROW: u64 = 20;

/// The device shape a replay trace is generated for.
#[derive(Debug, Clone, Copy)]
pub struct ReplayShape {
    pub geometry: GeometrySpec,
    pub row_bytes: u64,
    pub channel_rows: u64,
}

impl ReplayShape {
    pub fn of(geometry: GeometrySpec) -> Self {
        let dram = geometry.config().dram.geometry;
        Self { geometry, row_bytes: dram.row_bytes as u64, channel_rows: dram.total_rows() }
    }

    fn global_rows(&self) -> u64 {
        self.channel_rows * REPLAY_CHANNELS as u64
    }

    fn capacity(&self) -> u64 {
        self.global_rows() * self.row_bytes
    }

    /// Global byte address of `local_row` on `channel`: global rows
    /// stripe over the channels.
    fn global_addr(&self, channel: usize, local_row: u64) -> u64 {
        (local_row * REPLAY_CHANNELS as u64 + channel as u64) * self.row_bytes
    }
}

/// One generated replay input: a multi-tenant trace (an attack or a
/// trusted one) and the fill bytes of the two row victims (local row [`VICTIM_ROW`] on channels 0 and 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayInput {
    pub trace: Trace,
    pub fills: [u8; REPLAY_CHANNELS],
}

impl ReplayInput {
    /// `replay-{attack|trusted}-{undefended|locked}`.
    pub fn label(&self, locked: bool) -> String {
        let traffic = if self.trace.untrusted { "attack" } else { "trusted" };
        format!("replay-{traffic}-{}", if locked { "locked" } else { "undefended" })
    }

    /// The replay scenario: both row victims, the trace, and optionally
    /// DRAM-Locker in its paper configuration.
    pub fn spec(&self, shape: &ReplayShape, engine: EngineConfig, locked: bool) -> ScenarioSpec {
        ScenarioSpec {
            geometry: shape.geometry,
            engine,
            victims: (0..REPLAY_CHANNELS)
                .map(|channel| (VictimSpec::row(VICTIM_ROW, self.fills[channel]), channel))
                .collect(),
            attack: Some(AttackSpec::trace(self.trace.clone())),
            defenses: if locked { vec![DefenseSpec::locker_adjacent()] } else { Vec::new() },
            ..ScenarioSpec::new(self.label(locked))
        }
    }
}

/// Sequential reads of `len` bytes from `start`, wrapping at the end of
/// the address space, as a chain of [`Workload::Sequential`] segments.
fn wrapped_stream(start: u64, stride: u64, len: usize, count: usize, capacity: u64) -> Trace {
    let mut out = Trace::new();
    let mut addr = start % capacity;
    let mut left = count;
    while left > 0 {
        let fit = ((capacity - addr - len as u64) / stride + 1) as usize;
        let n = fit.min(left);
        let segment = if stride == len as u64 {
            Workload::Sequential { base: addr, len, count: n }
        } else {
            Workload::Strided { base: addr, stride, len, count: n }
        };
        for op in segment.trace().ops() {
            out.push(op.clone());
        }
        left -= n;
        addr = (addr + n as u64 * stride) % capacity;
    }
    out
}

/// The tenants every replay trace mixes: a stream, a strided scan, a
/// pointer chase over the full capacity and ~25% writes. Writes land in
/// the upper half of the address space, away from the victims, so a
/// locked run's verdict depends only on the defense.
fn shared_tenants(rng: &mut Rng, shape: &ReplayShape, ops: usize) -> Vec<Trace> {
    let capacity = shape.capacity();
    let row = shape.row_bytes;
    let stream = wrapped_stream(rng.below(capacity / 8) * 8, 8, 8, ops * 25 / 100, capacity);
    let stride = row * rng.range(1, 7) + 8 * rng.below(row / 8);
    let strided = wrapped_stream(rng.below(capacity / 4) * 4, stride, 4, ops * 15 / 100, capacity);
    let chase = Workload::PointerChase {
        base: 0,
        span: capacity,
        len: 8,
        count: ops * 20 / 100,
        seed: rng.next_u64(),
    }
    .trace();
    let mut writes = Trace::new();
    let half = capacity / 2;
    for _ in 0..ops * 25 / 100 {
        let addr = half + rng.below(half / 8) * 8;
        let payload = rng.next_u64().to_le_bytes().to_vec();
        writes.push(TraceOp::Write { addr, payload });
    }
    vec![stream, strided, chase, writes]
}

fn victim_fills(rng: &mut Rng) -> [u8; REPLAY_CHANNELS] {
    [rng.below(256) as u8, rng.below(256) as u8]
}

/// A seeded attack trace of `ops` operations: the shared tenants plus a
/// hammer loop aimed at channel 0's victim. The interleave is untrusted
/// (it carries the attacker's hammer loop), so DRAM-Locker denies its
/// every access to a locked row.
pub fn replay_input(rng: &mut Rng, shape: &ReplayShape, ops: usize) -> ReplayInput {
    let row = shape.row_bytes;
    let mut tenants = shared_tenants(rng, shape, ops);
    tenants.push(
        Workload::HammerLoop {
            addr_a: shape.global_addr(0, VICTIM_ROW - 1) + 8 * rng.below(row / 8),
            addr_b: shape.global_addr(0, VICTIM_ROW + 1) + 8 * rng.below(row / 8),
            iterations: ops * 15 / 200,
        }
        .trace(),
    );
    let trace = Trace::interleave(&tenants);
    ReplayInput { trace, fills: victim_fills(rng) }
}

/// A seeded trusted trace of `ops` operations: the attack trace's mix
/// with the hammer loop replaced by a tenant reading its own data in the
/// rows next to each victim, the rows DRAM-Locker locks. Every request
/// is trusted, so the locker SWAPs those rows out and redirects to them:
/// its cost path.
pub fn trusted_input(rng: &mut Rng, shape: &ReplayShape, ops: usize) -> ReplayInput {
    let row = shape.row_bytes;
    let mut tenants = shared_tenants(rng, shape, ops);
    let mut neighbour = Trace::new();
    for _ in 0..ops * 15 / 100 {
        let channel = rng.below(REPLAY_CHANNELS as u64) as usize;
        let local_row = if rng.below(2) == 0 { VICTIM_ROW - 1 } else { VICTIM_ROW + 1 };
        let addr = shape.global_addr(channel, local_row) + 8 * rng.below(row / 8);
        neighbour.push(TraceOp::Read { addr, len: 8 });
    }
    tenants.push(neighbour);
    let trace = Trace::interleave(&tenants);
    ReplayInput { trace, fills: victim_fills(rng) }
}

/// A family of catalog scenarios the sweep grid draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Hammer,
    BfaHammer,
    PageTable,
    InferenceStream,
    Replay,
    CnnInference,
}

impl Family {
    pub const ALL: [Family; 6] = [
        Family::Hammer,
        Family::BfaHammer,
        Family::PageTable,
        Family::InferenceStream,
        Family::Replay,
        Family::CnnInference,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Hammer => "hammer",
            Family::BfaHammer => "bfa-hammer",
            Family::PageTable => "page-table",
            Family::InferenceStream => "inference-stream",
            Family::Replay => "replay",
            Family::CnnInference => "cnn-inference",
        }
    }

    /// The catalog entries of this family.
    pub fn entries(self) -> &'static [&'static str] {
        match self {
            Family::Hammer => &[
                "hammer-vs-none",
                "hammer-vs-dram-locker",
                "hammer-vs-graphene",
                "hammer-vs-hydra",
                "hammer-vs-twice",
                "hammer-vs-counter-per-row",
                "hammer-vs-rrs",
                "hammer-vs-srs",
                "hammer-vs-shadow",
            ],
            Family::BfaHammer => &["bfa-hammer-vs-none", "bfa-hammer-vs-dram-locker"],
            Family::PageTable => &["pta-vs-none", "pta-vs-dram-locker"],
            Family::InferenceStream => &["inference-vs-dram-locker"],
            Family::Replay => &[
                "replay-stream-2ch",
                "replay-chase-2ch",
                "replay-hammer-vs-dram-locker",
                "replay-multitenant-4ch",
            ],
            Family::CnnInference => &["cnn-inference-2ch", "cnn-inference-2ch-vs-dram-locker"],
        }
    }

    /// Jobs of this family per 100 grid specs. The mix is fixed so that
    /// every seed prices the same amount of work; the seed varies only
    /// parameters and order.
    fn share(self) -> usize {
        match self {
            Family::Hammer => 63,
            Family::BfaHammer => 6,
            Family::PageTable => 8,
            Family::InferenceStream => 8,
            Family::Replay => 10,
            Family::CnnInference => 5,
        }
    }
}

/// One sweep job: its spec, the family it came from and the verdict the
/// catalog expects.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    pub family: Family,
    pub expected: Expected,
    pub spec: ScenarioSpec,
}

fn channels_for(rng: &mut Rng) -> EngineConfig {
    match rng.below(3) {
        0 => EngineConfig::serial(),
        1 => EngineConfig::serial_reference(2),
        _ => EngineConfig::serial_reference(4),
    }
}

fn reseed_defense(rng: &mut Rng, defense: &DefenseSpec) -> DefenseSpec {
    match defense.clone() {
        DefenseSpec::RowSwap { policy, threshold, .. } => {
            DefenseSpec::RowSwap { policy, threshold, seed: rng.next_u64() % 1_000_000 }
        }
        DefenseSpec::Shadow { threshold, .. } => {
            DefenseSpec::Shadow { threshold, seed: rng.next_u64() % 1_000_000 }
        }
        other => other,
    }
}

/// Draws one seeded variant of a catalog entry. Without
/// `reseed_defenses` the randomized defenses (rrs, srs, shadow) keep the
/// catalog's seeds; the generator draws the same numbers either way, so
/// everything else in the variant is the same.
fn variant(
    rng: &mut Rng,
    family: Family,
    name: &str,
    index: usize,
    reseed_defenses: bool,
) -> GridSpec {
    let entry = dram_locker::sim::find(name).expect("family entries are catalog names");
    let mut spec = entry.spec.clone();
    spec.label = format!("g{index:05}-{name}");
    match family {
        Family::Hammer => {
            // Victims stay off subarray edges, where a row has no
            // aggressor neighbour to hammer.
            let geometry = GeometrySpec::Tiny.config().dram.geometry;
            let subarray_rows = u64::from(geometry.rows_per_subarray);
            let row = loop {
                let row = rng.below(geometry.total_rows());
                if (2..subarray_rows - 2).contains(&(row % subarray_rows)) {
                    break row;
                }
            };
            let row_bits = geometry.row_bytes as u64 * 8;
            spec.victims = vec![(VictimSpec::row(row, rng.below(256) as u8), 0)];
            spec.attack = Some(AttackSpec::Hammer { bit: rng.below(row_bits) as usize });
            let reseeded = spec.defenses.iter().map(|d| reseed_defense(rng, d)).collect();
            if reseed_defenses {
                spec.defenses = reseeded;
            }
            spec.engine = channels_for(rng);
        }
        Family::BfaHammer => {
            spec.attack = Some(AttackSpec::BfaHammer { batch: rng.range(16, 64) as usize });
            spec.engine = channels_for(rng);
        }
        Family::PageTable => {
            if let Some(AttackSpec::PageTable { pfn_bit, .. }) = spec.attack {
                spec.attack =
                    Some(AttackSpec::PageTable { pfn_bit, payload_xor: rng.range(1, 255) as u8 });
            }
        }
        Family::InferenceStream => {
            spec.attack = Some(AttackSpec::InferenceStream {
                batches: rng.range(1, 10),
                chunk: [8, 16, 32][rng.below(3) as usize],
            });
            spec.engine = channels_for(rng);
        }
        Family::Replay => {
            spec.attack = spec.attack.map(|attack| reseed_replay(rng, attack));
            spec.engine = EngineConfig::serial_reference(spec.engine.channels);
        }
        Family::CnnInference => {
            spec.engine = EngineConfig::serial_reference(spec.engine.channels);
        }
    }
    GridSpec { family, expected: entry.expected, spec }
}

fn reseed_replay(rng: &mut Rng, attack: AttackSpec) -> AttackSpec {
    let AttackSpec::Replay { tenants } = attack else { return attack };
    let tenants = tenants
        .into_iter()
        .map(|tenant| match tenant {
            Workload::Sequential { base, len, count } => Workload::Sequential {
                base,
                len,
                count: count / 2 + rng.below(count as u64) as usize,
            },
            Workload::PointerChase { base, span, len, count, .. } => {
                Workload::PointerChase { base, span, len, count, seed: rng.next_u64() % 1_000_000 }
            }
            other => other,
        })
        .collect();
    AttackSpec::Replay { tenants }
}

/// A seeded sweep grid of `specs` jobs drawn from the catalog families
/// in fixed proportions, in seeded order.
pub fn sweep_grid(rng: &mut Rng, specs: usize, reseed_defenses: bool) -> Vec<GridSpec> {
    let mut plan: Vec<(Family, &'static str)> = Vec::with_capacity(specs);
    for family in Family::ALL {
        let entries = family.entries();
        let jobs = specs * family.share() / 100;
        plan.extend((0..jobs).map(|i| (family, entries[i % entries.len()])));
    }
    while plan.len() < specs {
        plan.push((Family::Hammer, Family::Hammer.entries()[plan.len() % 9]));
    }
    rng.shuffle(&mut plan);
    plan.into_iter()
        .enumerate()
        .map(|(i, (family, name))| variant(rng, family, name, i, reseed_defenses))
        .collect()
}

/// The grid as one spec-list document (concatenated `to_text` chunks),
/// the form `dlk sweep` reads.
pub fn grid_text(grid: &[GridSpec]) -> String {
    grid.iter().map(|job| job.spec.to_text()).collect()
}

/// The catalog's Fig. 8 CNN entry with its BFA landing-draw seed taken
/// from the workload seed; the victim keeps the paper's seed.
pub fn cnn_bfa_spec(seed: u64) -> ScenarioSpec {
    let mut spec = dram_locker::sim::find("cnn-bfa-vs-dram-locker").expect("catalog entry").spec;
    if let Some(AttackSpec::ProgressiveBfa { success_rate, config, .. }) = spec.attack {
        spec.attack = Some(AttackSpec::ProgressiveBfa { success_rate, seed, config });
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_text(seed: u64) -> String {
        let shape = ReplayShape::of(GeometrySpec::Tiny);
        let mut rng = Rng::new(seed);
        let attack = replay_input(&mut rng, &shape, 2_000).trace.to_text();
        attack + &trusted_input(&mut rng, &shape, 2_000).trace.to_text()
    }

    fn grid(seed: u64) -> Vec<GridSpec> {
        sweep_grid(&mut Rng::new(seed), 200, true)
    }

    #[test]
    fn catalog_seeded_grid_differs_only_in_randomized_defense_seeds() {
        let reseeded = grid(7);
        let catalog = sweep_grid(&mut Rng::new(7), 200, false);
        let mut differ = 0;
        for (a, b) in reseeded.iter().zip(&catalog) {
            let entry = a.spec.label.split_once('-').expect("labelled g<index>-<entry>").1;
            let catalog_defenses =
                dram_locker::sim::find(entry).expect("catalog entry").spec.defenses;
            if a.family == Family::Hammer {
                assert_eq!(b.spec.defenses, catalog_defenses);
            }
            differ += usize::from(a.spec.defenses != b.spec.defenses);
            assert_eq!(
                ScenarioSpec { defenses: b.spec.defenses.clone(), ..a.spec.clone() },
                b.spec
            );
        }
        assert!(differ > 0, "some randomized defense was reseeded");
    }

    #[test]
    fn same_seed_gives_identical_text_and_another_seed_differs() {
        assert_eq!(trace_text(5), trace_text(5));
        assert_ne!(trace_text(5), trace_text(6));
        assert_eq!(grid_text(&grid(5)), grid_text(&grid(5)));
        assert_ne!(grid_text(&grid(5)), grid_text(&grid(6)));
    }

    #[test]
    fn grid_specs_round_trip_through_the_spec_codec() {
        let grid = grid(9);
        let specs: Vec<ScenarioSpec> = grid.iter().map(|job| job.spec.clone()).collect();
        assert_eq!(ScenarioSpec::list_from_text(&grid_text(&grid)).expect("grid parses"), specs);
        for spec in &specs {
            assert_eq!(&ScenarioSpec::from_text(&spec.to_text()).expect("spec parses"), spec);
        }
    }

    #[test]
    fn replay_specs_round_trip_through_the_spec_codec() {
        let shape = ReplayShape::of(GeometrySpec::Tiny);
        let mut rng = Rng::new(3);
        for input in [replay_input(&mut rng, &shape, 2_000), trusted_input(&mut rng, &shape, 2_000)]
        {
            for locked in [false, true] {
                let spec = input.spec(&shape, EngineConfig::sharded(REPLAY_CHANNELS), locked);
                assert_eq!(ScenarioSpec::from_text(&spec.to_text()).expect("spec parses"), spec);
            }
        }
    }

    #[test]
    fn family_mix_is_fixed_and_parameters_are_seeded() {
        let count = |grid: &[GridSpec], family: Family| {
            grid.iter().filter(|job| job.family == family).count()
        };
        let (a, b) = (grid(1), grid(2));
        assert_eq!(a.len(), 200);
        for family in Family::ALL {
            assert_eq!(count(&a, family), count(&b, family), "{}", family.name());
            assert!(count(&a, family) > 0, "{}", family.name());
        }
        let labels: std::collections::HashSet<_> = a.iter().map(|job| &job.spec.label).collect();
        assert_eq!(labels.len(), a.len(), "labels are unique");
    }

    #[test]
    fn replay_traces_mix_a_quarter_writes_inside_the_device() {
        for geometry in [GeometrySpec::Tiny, GeometrySpec::Ddr4] {
            let shape = ReplayShape::of(geometry);
            let mut rng = Rng::new(4);
            let attack = replay_input(&mut rng, &shape, 4_000);
            let trusted = trusted_input(&mut rng, &shape, 4_000);
            assert!(attack.trace.untrusted, "the interleave carries the hammer loop");
            assert!(!trusted.trace.untrusted, "no tenant of the trusted trace is untrusted");
            for input in [attack, trusted] {
                let ops = input.trace.ops();
                let writes = ops.iter().filter(|op| matches!(op, TraceOp::Write { .. })).count();
                assert_eq!(ops.len(), 4_000);
                assert_eq!(writes * 4, ops.len());
                for op in ops {
                    let end = match op {
                        TraceOp::Read { addr, len } => addr + *len as u64,
                        TraceOp::Write { addr, payload } => addr + payload.len() as u64,
                    };
                    assert!(end <= shape.capacity(), "{op:?} outside the device");
                }
            }
        }
    }
}
