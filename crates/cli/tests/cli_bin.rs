//! Smoke tests against the real `dlk` binary (the exact artifact CI
//! ships), covering every subcommand plus the did-you-mean surface.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn dlk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlk")).args(args).output().expect("dlk must spawn")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn sandbox(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dlk-bin-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).unwrap();
    root
}

#[test]
fn catalog_lists_and_filters() {
    let all = dlk(&["catalog"]);
    assert!(all.status.success());
    assert!(stdout(&all).contains("hammer-vs-dram-locker"));

    let filtered = dlk(&["catalog", "--filter", "bfa"]);
    assert!(filtered.status.success());
    let listing = stdout(&filtered);
    assert!(listing.lines().all(|line| line.contains("bfa")), "filter must narrow: {listing}");
    assert!(listing.lines().count() < stdout(&all).lines().count());
}

#[test]
fn dumped_catalog_entries_are_runnable() {
    let dir = sandbox("dump");
    let spec = dir.join("one.dlk").display().to_string();
    let dump = dlk(&["catalog", "--dump", "hammer-vs-dram-locker", "--to", &spec]);
    assert!(dump.status.success(), "{}", stderr(&dump));

    let run = dlk(&["run", &spec, "--csv"]);
    assert!(run.status.success(), "{}", stderr(&run));
    let csv = stdout(&run);
    assert!(csv.starts_with("scenario,attack,"), "csv header first: {csv}");
    assert!(csv.contains("hammer-vs-dram-locker,hammer,"), "then the row: {csv}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_names_get_a_did_you_mean() {
    let run = dlk(&["run", "hammer-vs-dram-lokcer"]);
    assert_eq!(run.status.code(), Some(1));
    let err = stderr(&run);
    assert!(err.contains("did you mean 'hammer-vs-dram-locker'?"), "{err}");

    let filter = dlk(&["catalog", "--filter", "hammer-vs-dram-lokcer"]);
    assert_eq!(filter.status.code(), Some(1));
    assert!(stderr(&filter).contains("did you mean"), "{}", stderr(&filter));
}

#[test]
fn bad_usage_exits_two_with_synopsis() {
    let bad = dlk(&["sweep", "grid.dlk", "--bogus"]);
    assert_eq!(bad.status.code(), Some(2));
    let err = stderr(&bad);
    assert!(err.contains("--bogus") && err.contains("USAGE:"), "{err}");
}

#[test]
fn sweep_streams_and_writes_spec_ordered_csv() {
    let dir = sandbox("sweep");
    let names = ["hammer-vs-none", "hammer-vs-dram-locker", "hammer-vs-rrs", "hammer-vs-srs"];
    let grid: String = names
        .iter()
        .map(|name| {
            let dump = dlk(&["catalog", "--dump", name]);
            assert!(dump.status.success());
            stdout(&dump)
        })
        .collect();
    let grid_path = dir.join("grid.dlk").display().to_string();
    fs::write(&grid_path, grid).unwrap();
    let out_path = dir.join("sweep.csv").display().to_string();

    let metrics_path = dir.join("metrics.json").display().to_string();
    let sweep =
        dlk(&["sweep", &grid_path, "--jobs", "2", "--out", &out_path, "--metrics", &metrics_path]);
    assert!(sweep.status.success(), "{}", stderr(&sweep));
    assert_eq!(stdout(&sweep).lines().count(), 1 + 4, "header plus one streamed row each");

    let csv = fs::read_to_string(&out_path).unwrap();
    let scenarios: Vec<&str> =
        csv.lines().skip(1).map(|row| row.split(',').next().unwrap()).collect();
    assert_eq!(scenarios, names, "--out rows are in spec order");

    let metrics = fs::read_to_string(&metrics_path).unwrap();
    dlk_sim::obs::json::validate(&metrics).expect("--metrics output must validate");
    assert!(metrics.contains("\"sweep.jobs\""), "{metrics}");
    assert!(metrics.contains("\"memctrl.served\""), "runs observed through the queue: {metrics}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_trace_prints_the_span_tree_to_stderr() {
    let run = dlk(&["run", "hammer-vs-dram-locker", "--trace"]);
    assert!(run.status.success(), "{}", stderr(&run));
    assert!(stdout(&run).contains("hammer-vs-dram-locker"), "report on stdout");
    let err = stderr(&run);
    assert!(err.contains("scenario 'hammer-vs-dram-locker'"), "span root: {err}");
    for phase in ["baseline-accuracy", "attack", "measure", "defense-stats"] {
        assert!(err.contains(phase), "missing {phase} span: {err}");
    }
    assert!(err.contains("cycles"), "attack span carries cycle attribution: {err}");
    assert!(err.contains("locker.locktable.lookups"), "registry text follows the tree: {err}");
}

#[test]
fn serve_once_drains_a_spool_and_then_skips() {
    let dir = sandbox("serve");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let dump = dlk(&["catalog", "--dump", "hammer-vs-dram-locker"]);
    fs::write(spool.join("job.dlk"), stdout(&dump)).unwrap();
    let spool = spool.display().to_string();
    let out = dir.join("out").display().to_string();

    let first = dlk(&["serve", "--spool", &spool, "--out", &out, "--jobs", "2", "--once"]);
    assert!(first.status.success(), "{}", stderr(&first));
    assert!(stderr(&first).contains("1 executed (0 failed), 0 skipped"), "{}", stderr(&first));
    let csv = fs::read_to_string(dir.join("out/results.csv")).unwrap();
    assert_eq!(csv.lines().count(), 2);
    let metrics = fs::read_to_string(dir.join("out/metrics.json")).unwrap();
    dlk_sim::obs::json::validate(&metrics).expect("heartbeat must validate");
    assert!(metrics.contains("\"serve.executed\""), "{metrics}");

    let second = dlk(&["serve", "--spool", &spool, "--out", &out, "--once"]);
    assert!(second.status.success());
    assert!(stderr(&second).contains("0 executed (0 failed), 1 skipped"), "{}", stderr(&second));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_passes_the_committed_spec_corpus_and_catalog() {
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let corpus = dlk(&["check", specs]);
    assert!(corpus.status.success(), "{}", stderr(&corpus));
    assert!(stdout(&corpus).contains("0 errors"), "{}", stdout(&corpus));

    let entry = dlk(&["check", "hammer-vs-dram-locker"]);
    assert!(entry.status.success(), "{}", stderr(&entry));

    let typo = dlk(&["check", "hammer-vs-dram-lokcer"]);
    assert_eq!(typo.status.code(), Some(1));
    assert!(stderr(&typo).contains("did you mean 'hammer-vs-dram-locker'?"), "{}", stderr(&typo));
}

#[test]
fn check_flags_semantic_errors_and_run_fails_fast_on_them() {
    let dir = sandbox("check");
    let dump = dlk(&["catalog", "--dump", "hammer-vs-dram-locker"]);
    assert!(dump.status.success(), "{}", stderr(&dump));
    // A zeroed budget parses fine but can never run: DLK103 territory.
    let spec = dir.join("bad.dlk");
    fs::write(
        &spec,
        stdout(&dump)
            .lines()
            .map(|line| {
                if line.starts_with("budget ") {
                    "budget activations=0 check=8 iterations=1"
                } else {
                    line
                }
            })
            .collect::<Vec<_>>()
            .join("\n"),
    )
    .unwrap();
    let spec = spec.display().to_string();

    let check = dlk(&["check", &spec]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    let findings = stdout(&check);
    assert!(findings.contains("error[DLK103]"), "{findings}");
    assert!(findings.contains("activations=0"), "{findings}");
    assert!(stderr(&check).contains("1 semantic error"), "{}", stderr(&check));

    // The same rules gate `dlk run`, so a bad spec fails before executing.
    let run = dlk(&["run", &spec]);
    assert_eq!(run.status.code(), Some(1));
    assert!(stderr(&run).contains("spec failed semantic checks"), "{}", stderr(&run));
    assert!(stderr(&run).contains("DLK103"), "{}", stderr(&run));

    // Directory mode sweeps everything under the tree.
    let dir_check = dlk(&["check", &dir.display().to_string()]);
    assert_eq!(dir_check.status.code(), Some(1));
    assert!(stdout(&dir_check).contains("DLK103"), "{}", stdout(&dir_check));
    fs::remove_dir_all(&dir).ok();
}
