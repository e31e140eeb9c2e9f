//! Satellites of the temporal-observability layer, end to end: the
//! serve heartbeat's rolling series (and monotonic scan sequence)
//! surviving a daemon restart, the golden-pinned `dlk top` frame, and
//! the `dlk bench diff` regression gate against the real binary.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Duration;

use dlk_cli::cmd::top::render_frame;
use dlk_cli::spool::{serve, ServeConfig, METRICS_FILE};
use dlk_sim::obs::json::{self, Value};
use dlk_sim::obs::series::parse_series_object;

fn dlk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlk")).args(args).output().expect("dlk must spawn")
}

fn sandbox(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dlk-obs-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).unwrap();
    root
}

fn quiet() -> Arc<dlk_cli::spool::LogFn> {
    Arc::new(|_line: &str| {})
}

fn config(root: &std::path::Path) -> ServeConfig {
    ServeConfig {
        spool: root.join("spool"),
        out: root.join("out"),
        jobs: 2,
        poll: Duration::from_millis(10),
        once: true,
        job_timeout: Some(Duration::from_secs(60)),
        abort_after: None,
        max_scans: None,
    }
}

fn heartbeat(root: &std::path::Path) -> Value {
    json::parse_file(root.join("out").join(METRICS_FILE)).expect("heartbeat parses")
}

fn gauge(doc: &Value, name: &str) -> f64 {
    doc.section("gauges")
        .iter()
        .find(|g| g.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|g| g.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("gauge {name} missing from heartbeat"))
}

fn series_samples(doc: &Value, name: &str) -> Vec<dlk_sim::obs::Sample> {
    doc.section("series")
        .iter()
        .filter_map(parse_series_object)
        .find(|(n, _)| n == name)
        .map(|(_, samples)| samples)
        .unwrap_or_else(|| panic!("series {name} missing from heartbeat"))
}

#[test]
fn heartbeat_series_and_scan_seq_survive_a_restart() {
    let root = sandbox("restart");
    fs::create_dir_all(root.join("spool")).unwrap();
    let spec = dlk_sim::find("hammer-vs-dram-locker").unwrap().spec.to_text();
    fs::write(root.join("spool/job.dlk"), spec).unwrap();

    let first = serve(&config(&root), quiet()).unwrap();
    assert_eq!((first.executed, first.scans), (1, 1));
    let doc = heartbeat(&root);
    assert_eq!(gauge(&doc, "serve.scan_seq"), 1.0, "first lifetime scan");
    let executed_before = series_samples(&doc, "serve.executed");
    assert!(!executed_before.is_empty(), "every heartbeat carries at least its own tick");
    assert_eq!(executed_before.last().unwrap().value, 1.0);

    // Restart into the same out dir: the job skips, but the heartbeat's
    // history must replay — the series keeps its old samples and the
    // scan sequence continues instead of resetting to 1.
    let second = serve(&config(&root), quiet()).unwrap();
    assert_eq!((second.executed, second.skipped), (0, 1));
    let doc = heartbeat(&root);
    assert_eq!(gauge(&doc, "serve.scan_seq"), 2.0, "monotonic across restarts");
    let executed_after = series_samples(&doc, "serve.executed");
    assert!(
        executed_after.len() > executed_before.len(),
        "replayed history plus the fresh tick: {} -> {}",
        executed_before.len(),
        executed_after.len()
    );
    assert!(
        executed_after.starts_with(&executed_before),
        "the old samples are a prefix of the replayed series"
    );
    let stamps: Vec<u64> = executed_after.iter().map(|s| s.t_us).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "one monotone time axis: {stamps:?}");
    assert!(gauge(&doc, "serve.heartbeat_write_us") >= 0.0);
}

#[test]
fn top_frame_is_golden_pinned() {
    let doc = json::parse(include_str!("golden/heartbeat.json")).expect("fixture parses");
    // 5s past the fixture's pinned epoch: fresh heartbeat, work moving.
    let frame = render_frame(&doc, 5_000_000);
    assert_eq!(frame, include_str!("golden/top_frame.txt"));
}

#[test]
fn top_once_renders_the_fixture_through_the_binary() {
    let root = sandbox("topbin");
    fs::write(root.join(METRICS_FILE), include_str!("golden/heartbeat.json")).unwrap();
    let out = dlk(&["top", "--spool", root.to_str().unwrap(), "--once"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let frame = String::from_utf8_lossy(&out.stdout);
    // Real wall clock vs the pinned epoch: decades stale, so the frame
    // must call the daemon stalled — the discrimination `top` exists
    // for — while still rendering the series it last reported.
    assert!(frame.contains("STALLED"), "{frame}");
    assert!(frame.contains("serve.executed"), "{frame}");
    assert!(frame.contains("sweep.job_wall_us"), "{frame}");
    fs::remove_dir_all(&root).ok();

    let missing = dlk(&["top", "--spool", "/nonexistent", "--once"]);
    assert_eq!(missing.status.code(), Some(1), "missing heartbeat is a clean failure");
}

/// A `bench`-kind document with `metrics` (name/value/unit) rows and
/// `speedups` (name/value) rows, written to `path`.
fn write_doc(path: &std::path::Path, metrics: &[(&str, f64, &str)], speedups: &[(&str, f64)]) {
    let mut doc = json::Document::new("bench", "gate");
    for (name, value, unit) in metrics {
        let fields = [
            ("name", json::escape(name)),
            ("value", json::number(*value)),
            ("unit", json::escape(unit)),
        ];
        doc.push_object("metrics", &fields);
    }
    for (name, value) in speedups {
        doc.push_object(
            "speedups",
            &[("name", json::escape(name)), ("value", json::number(*value))],
        );
    }
    doc.write(path).unwrap();
}

#[test]
fn bench_diff_gate_passes_identical_and_fails_regressed() {
    let root = sandbox("benchdiff");
    write_doc(
        &root.join("old.json"),
        &[("decode_minstr_per_s", 100.0, "M/s"), ("job_wall_us", 50.0, "us")],
        &[("decode_vs_reference", 4.0)],
    );

    let old_path = root.join("old.json").display().to_string();
    let same = dlk(&["bench", "diff", &old_path, &old_path, "--check", "--max-regress", "15"]);
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stderr));
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(table.contains("+0.0%"), "{table}");
    assert!(table.contains("no metric regressed"), "{table}");

    // 20% throughput drop and 20% wall-time growth: both past the 15%
    // gate, in opposite numeric directions.
    write_doc(
        &root.join("new.json"),
        &[("decode_minstr_per_s", 80.0, "M/s"), ("job_wall_us", 60.0, "us")],
        &[("decode_vs_reference", 4.0)],
    );

    let new_path = root.join("new.json").display().to_string();
    let gate = dlk(&["bench", "diff", &old_path, &new_path, "--check", "--max-regress", "15"]);
    assert_eq!(gate.status.code(), Some(1));
    let table = String::from_utf8_lossy(&gate.stdout);
    assert!(table.contains("<< REGRESSION"), "{table}");
    let err = String::from_utf8_lossy(&gate.stderr);
    assert!(err.contains("2 metric(s) regressed"), "{err}");
    assert!(err.contains("decode_minstr_per_s") && err.contains("job_wall_us"), "{err}");

    // Without --check the same diff reports and exits zero.
    let report = dlk(&["bench", "diff", &old_path, &new_path]);
    assert!(report.status.success());
    assert!(String::from_utf8_lossy(&report.stdout).contains("-20.0%"));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn real_documents_diff_cleanly_against_themselves() {
    // The documents the program really writes must flow through the
    // gate: schema drift here is exactly what this test exists to
    // catch. Both must exist; a missing one fails the test.
    let root = sandbox("selfdiff");
    let heartbeat = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/heartbeat.json");
    let grid = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke_grid.dlk");
    let metrics = root.join("sweep-metrics.json");
    let out = root.join("sweep.csv");
    let sweep = dlk(&[
        "sweep",
        grid,
        "--jobs",
        "2",
        "--out",
        out.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(sweep.status.success(), "{}", String::from_utf8_lossy(&sweep.stderr));
    for (path, member) in [(&heartbeat, "serve.executed"), (&metrics, "sweep.jobs")] {
        let path = path.display().to_string();
        let out = dlk(&["bench", "diff", &path, &path, "--check", "--max-regress", "0.1"]);
        assert!(
            out.status.success(),
            "{path} vs itself must pass the gate: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let table = String::from_utf8_lossy(&out.stdout);
        assert!(table.contains(member) && table.contains("+0.0%"), "{path} compared: {table}");
    }
    fs::remove_dir_all(&root).ok();
}
