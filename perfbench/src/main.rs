//! The dram-locker benchmark.
//!
//! ```text
//! dlk-perfbench --workload <workload> --seed <n> --seconds <s> --trace <0|1>
//! workload: artifacts | artifacts-resnet20 | sweep | sweep-catalog-seeds
//!           | replay | replay-ddr4
//! ```
//!
//! Untraced (`--trace 0`), it sets the workload up, runs passes over its
//! seeded inputs until `--seconds` have gone by (at least one pass),
//! checks every output, and prints the end-to-end metrics. Traced
//! (`--trace 1`), it runs one untraced and one traced pass of the
//! workload (their difference is the tracing overhead), then one traced
//! pass of each other standard workload and the memory-chain ladder, and
//! prints every per-layer metric. Stdout ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! describes the run.
//!
//! A timed run also starts this binary twice with `--setup-probe`, which
//! only sets the workload up and prints how long that took: victim
//! training is memoized per process, so each further cold set-up needs a
//! fresh process, and `setup_s` is the median of the three.

mod alloc;
mod artifacts;
mod checks;
mod gen;
mod ladder;
mod replay;
mod report;
mod spans;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dram_locker::sim::GeometrySpec;

use report::{median, metric, Json, Metric, Tally};
use spans::{Ctx, Tracer};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One workload's inputs, set up and ready for timed passes.
pub trait Section {
    /// One pass over the workload's inputs, checking each output.
    fn pass(&mut self, ctx: Ctx, tally: &mut Tally);
    /// Untimed checks after the last pass.
    fn check(&mut self, tally: &mut Tally);
    /// The workload's own end-to-end figures.
    fn figures(&self) -> Vec<Metric>;
    /// Paper-claim measurements printed beside the figures.
    fn claims(&self) -> Vec<Metric> {
        Vec::new()
    }
    /// Per-layer metrics from the last traced pass, plus any probes
    /// the layers need (run after it, outside its timing).
    fn layers(&mut self, tally: &mut Tally) -> Vec<Metric>;
    /// Operations per device geometry (and engine shape).
    fn geometries(&self) -> Vec<(String, u64)>;
    /// Controller requests denied and handled, over the last pass.
    fn denials(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Workloads the command accepts, and the three standard ones, whose
/// every operation succeeds at seed: a traced run covers all three.
const WORKLOADS: [&str; 6] =
    ["artifacts", "artifacts-resnet20", "sweep", "sweep-catalog-seeds", "replay", "replay-ddr4"];
const STANDARD: [&str; 3] = ["artifacts-resnet20", "sweep-catalog-seeds", "replay"];

/// Whether a pass of `workload` already runs everything `standard` does.
fn covers(workload: &str, standard: &str) -> bool {
    workload == standard
        || matches!(
            (workload, standard),
            ("artifacts", "artifacts-resnet20") | ("sweep", "sweep-catalog-seeds")
        )
}
/// Extra set-ups, each in a fresh process (victim training is memoized
/// per process), so `setup_s` is a median of three.
const SETUP_PROBES: usize = 2;

fn setup(workload: &str, seed: u64) -> Box<dyn Section> {
    match workload {
        "artifacts" => Box::new(artifacts::setup(seed, &artifacts::FIG8_PANELS)),
        "artifacts-resnet20" => Box::new(artifacts::setup(seed, &artifacts::FIG8_PANELS[..1])),
        "sweep" => Box::new(sweep::setup(seed, true)),
        "sweep-catalog-seeds" => Box::new(sweep::setup(seed, false)),
        "replay" => Box::new(replay::setup(seed, GeometrySpec::Tiny)),
        _ => Box::new(replay::setup(seed, GeometrySpec::Ddr4)),
    }
}

/// Threads the workload's own work runs on.
fn worker_threads(workload: &str) -> usize {
    match workload {
        "artifacts" | "artifacts-resnet20" => 1,
        "sweep" | "sweep-catalog-seeds" => sweep::WORKERS,
        _ => gen::REPLAY_CHANNELS,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: dlk-perfbench --workload <workload> --seed <n> --seconds <s> \
                     --trace <0|1>\nworkloads: artifacts, artifacts-resnet20, sweep, \
                     sweep-catalog-seeds, replay, replay-ddr4";

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    let mut raw = raw;
    while let Some(flag) = raw.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let start = Instant::now();
        let section = setup(&args.workload, args.seed);
        println!("setup_s={}", start.elapsed().as_secs_f64());
        drop(section);
        return ExitCode::SUCCESS;
    }
    let result = if args.trace { traced(&args) } else { timed(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("dlk-perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the set-up in a fresh copy of this binary and returns its time.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0", "--setup-probe"])
        .output()
        .map_err(|e| format!("starting a set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("setup_s="))
        .and_then(|value| value.parse().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("set-up probe failed: {}", String::from_utf8_lossy(&output.stderr)))
}

fn timed(args: &Args) -> Result<(), String> {
    let mut setups = (0..SETUP_PROBES).map(|_| setup_probe(args)).collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut section = setup(&args.workload, args.seed);
    setups.push(start.elapsed().as_secs_f64());
    let setup_s = median(&setups);

    let mut tally = Tally::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let pass_start = Instant::now();
        section.pass(Ctx::root(None), &mut tally);
        passes.push(pass_start.elapsed().as_secs_f64());
    }
    let measured = start.elapsed();
    section.check(&mut tally);

    let peak_rss_mb = peak_rss_mb();
    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("pass_s", median(&passes), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let mut figures = vec![
        metric("setup_s", setup_s, "s"),
        metric("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64, "frac"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    figures.extend(section.figures());
    let describe = describe(
        args,
        "timed",
        vec![
            ("measured_s", Json::Num(measured.as_secs_f64())),
            ("passes", Json::Num(passes.len() as f64)),
            ("pass_s_samples", Json::Arr(passes.iter().map(|&p| Json::Num(p)).collect())),
            ("setup_s_samples", Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect())),
            ("geometry", geometry_json(section.geometries())),
            ("figures", figures_json(&figures)),
            ("claims", Json::metrics(&section.claims())),
        ],
        &tally,
    );
    print_result(describe, &tally, &end_to_end);
    Ok(())
}

fn traced(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut section = setup(&args.workload, args.seed);
    let untraced_start = Instant::now();
    section.pass(Ctx::root(None), &mut tally);
    let untraced = untraced_start.elapsed();

    let tracer = Arc::new(Tracer::default());
    let traced_start = Instant::now();
    section.pass(Ctx::root(Some(&tracer)), &mut tally);
    let traced = traced_start.elapsed();
    section.check(&mut tally);

    let mut layers = section.layers(&mut tally);
    let (mut denied, mut handled) = section.denials();
    let mut geometry = section.geometries();
    for other in STANDARD.into_iter().filter(|w| !covers(&args.workload, w)) {
        let mut other_section = setup(other, args.seed);
        other_section.pass(Ctx::root(Some(&tracer)), &mut tally);
        layers.extend(other_section.layers(&mut tally));
        let (d, h) = other_section.denials();
        denied += d;
        handled += h;
        geometry.extend(other_section.geometries());
    }
    layers.push(metric("memctrl.denied_frac", denied as f64 / handled.max(1) as f64, "frac"));
    layers.push(metric("trace.overhead_s", traced.as_secs_f64() - untraced.as_secs_f64(), "s"));
    layers.sort_by(|a, b| a.name.cmp(&b.name));

    let spans_file = write_spans(args, &tracer);
    let span_totals = Json::obj(tracer.totals().into_iter().map(|(name, t)| {
        let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
        (
            name,
            Json::obj([
                ("count", Json::Num(t.count as f64)),
                ("total_ms", ms(t.total_ns)),
                ("self_ms", ms(t.self_ns)),
            ]),
        )
    }));
    let describe = describe(
        args,
        "traced",
        vec![
            ("untraced_pass_s", Json::Num(untraced.as_secs_f64())),
            ("traced_pass_s", Json::Num(traced.as_secs_f64())),
            ("spans_recorded", Json::Num(tracer.len() as f64)),
            ("spans_file", spans_file.map_or(Json::Null, Json::str)),
            ("geometry", geometry_json(geometry)),
            ("span_totals", span_totals),
        ],
        &tally,
    );
    print_result(describe, &tally, &layers);
    Ok(())
}

/// Every workload's figures, by name and unit: the description lists all
/// of them for every workload, with `null` where a workload has none
/// (another workload's figure, or no completed operation).
const FIGURES: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("failed_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("fig8_s", "s"),
    ("table2_s", "s"),
    ("cnn_bfa_s", "s"),
    ("locker_acc_drop_pp", "pp"),
    ("specs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("sim_mreq_per_s", "Mreq/s"),
    ("sim_cycles_per_req", "cycles"),
    ("locker_cycle_overhead_pct", "%"),
];

fn figures_json(figures: &[Metric]) -> Json {
    Json::obj(FIGURES.iter().map(|&(name, unit)| {
        let value =
            figures.iter().find(|m| m.name == name).map_or(Json::Null, |m| Json::Num(m.value));
        (name, Json::obj([("value", value), ("unit", Json::str(unit))]))
    }))
}

fn print_result(describe: Json, tally: &Tally, metrics: &[Metric]) {
    for error in &tally.errors {
        eprintln!("failed: {error}");
    }
    println!("{}", describe.render());
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::metrics(metrics)),
    ]);
    println!("{}", result.render());
}

fn geometry_json(ops: Vec<(String, u64)>) -> Json {
    Json::obj(ops.into_iter().map(|(name, count)| (name, Json::Num(count as f64))))
}

/// The self-description printed before the result line, so unlike runs
/// are never compared.
fn describe(args: &Args, mode: &str, extra: Vec<(&str, Json)>, tally: &Tally) -> Json {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("commit", Json::str(git_commit(&root))),
        ("source_fnv64", Json::str(format!("{:016x}", source_fingerprint(&root)))),
        ("mode", Json::str(mode)),
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Num(args.seed as f64)),
        ("run_seconds", Json::Num(args.seconds as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("worker_threads", Json::Num(worker_threads(&args.workload) as f64)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("errors", Json::Arr(tally.errors.iter().map(|e| Json::str(e.as_str())).collect())),
    ];
    fields.extend(extra);
    Json::obj([("dlk_perfbench", Json::obj(fields))])
}

/// Peak resident set size of this process, from `/proc/self/status`;
/// the allocator's peak live heap where that file is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(alloc::peak_heap_bytes() as f64 / 1e6, |kb| kb * 1024.0 / 1e6)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or_default()
}

/// The checked-out commit when the tree is a git work tree, else
/// `"unknown"` (the source fingerprint still identifies the code).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the path and contents of every Rust source and manifest
/// the benchmark builds from, in sorted order.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "out" && !name.to_string_lossy().starts_with('.') {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || name == "Cargo.toml"
                || name == "Cargo.lock"
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["src", "crates", "vendor", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(|f| root.join(f)));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().into_owned();
        for byte in rel.bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Writes every recorded span to `perfbench/out/` and returns the path.
fn write_spans(args: &Args, tracer: &Tracer) -> Option<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().render()));
    match written {
        Ok(()) => Some(path.strip_prefix(repo_root()).unwrap_or(&path).display().to_string()),
        Err(e) => {
            eprintln!("could not write spans to {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&["--workload", "sweep", "--seed", "3", "--seconds", "10", "--trace", "1"])
            .expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("sweep", 3, 10, true));
        assert!(
            args(&["--workload", "nope", "--seed", "3", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(args(&["--workload", "sweep", "--seconds", "1", "--trace", "0"]).is_err());
        assert!(args(&["--workload", "sweep", "--seed", "x", "--seconds", "1", "--trace", "0"])
            .is_err());
    }
}
