//! Front end 2: the scenario-spec semantic analyzer (`dlk check`).
//!
//! Parsing a `.dlk` file already rejects syntax errors; this pass
//! rejects specs that parse but cannot mean what their author wanted —
//! a victim homed on a channel the engine does not have, a duplicate
//! label silently shadowing a sweep row, a budget that can never fire,
//! a bit-flip attack aimed at a victim with no model. Findings use the
//! same [`Report`]/rule-code machinery as the source linter, with
//! spans resolved back to the record lines of the spec file (or a
//! `<catalog:NAME>` pseudo-file for catalog entries, which have no
//! file).

use dlk_sim::{AttackSpec, ScenarioSpec, SimError, VictimSpec};

use crate::diag::{Diagnostic, Report, RuleCode, Severity};

/// Budgets above these bounds are almost certainly a typo'd unit
/// (warnings, not errors — someone may really mean them).
const ABSURD_ACTIVATIONS: u64 = 1_000_000_000;
const ABSURD_ITERATIONS: usize = 100_000;

/// Which record of a spec a finding anchors to; the front ends map
/// this back to a file span (or to the whole entry for catalog specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    Label,
    Budget,
    EvalBatch,
    Target,
    Victim(usize),
    Attack,
    Defense(usize),
}

/// One semantic finding, before span resolution.
struct Finding {
    code: RuleCode,
    severity: Severity,
    record: Record,
    message: String,
}

impl Finding {
    fn error(code: RuleCode, record: Record, message: String) -> Self {
        Self { code, severity: Severity::Error, record, message }
    }

    fn warning(code: RuleCode, record: Record, message: String) -> Self {
        Self { code, severity: Severity::Warning, record, message }
    }
}

/// The semantic rules (DLK101–DLK105) over one parsed spec.
fn check_spec(spec: &ScenarioSpec) -> Vec<Finding> {
    let mut findings = Vec::new();
    let channels = spec.engine.channels;

    // DLK101: every home channel must exist on the engine.
    for (at, (_, home)) in spec.victims.iter().enumerate() {
        if *home >= channels {
            findings.push(Finding::error(
                RuleCode::Dlk101,
                Record::Victim(at),
                format!(
                    "victim home={home} out of range: engine '{}' has {channels} channel{}",
                    spec.engine,
                    if channels == 1 { "" } else { "s" }
                ),
            ));
        }
    }
    if let Some(AttackSpec::WeightFetch { channel, .. }) = &spec.attack {
        if *channel >= channels {
            findings.push(Finding::error(
                RuleCode::Dlk101,
                Record::Attack,
                format!(
                    "weight-fetch channel={channel} out of range: engine '{}' has {channels} channel{}",
                    spec.engine,
                    if channels == 1 { "" } else { "s" }
                ),
            ));
        }
    }

    // DLK103: budgets must be able to fire, and plausibly sized.
    let budget = &spec.budget;
    for (field, value) in [
        ("activations", budget.max_activations),
        ("check", budget.check_interval),
        ("iterations", budget.iterations as u64),
    ] {
        if value == 0 {
            findings.push(Finding::error(
                RuleCode::Dlk103,
                Record::Budget,
                format!("budget {field}=0: the attack loop would never run"),
            ));
        }
    }
    if spec.eval_batch == 0 {
        findings.push(Finding::error(
            RuleCode::Dlk103,
            Record::EvalBatch,
            "eval-batch 0: accuracy would be measured on no samples".to_string(),
        ));
    }
    if budget.max_activations > ABSURD_ACTIVATIONS {
        findings.push(Finding::warning(
            RuleCode::Dlk103,
            Record::Budget,
            format!(
                "budget activations={} exceeds {ABSURD_ACTIVATIONS}: likely a unit typo",
                budget.max_activations
            ),
        ));
    }
    if let Some(AttackSpec::Replay { tenants }) = &spec.attack {
        if tenants.is_empty() {
            findings.push(Finding::error(
                RuleCode::Dlk103,
                Record::Attack,
                "attack replay has no tenant records: the replay would issue no requests"
                    .to_string(),
            ));
        }
    }
    if budget.iterations > ABSURD_ITERATIONS {
        findings.push(Finding::warning(
            RuleCode::Dlk103,
            Record::Budget,
            format!(
                "budget iterations={} exceeds {ABSURD_ITERATIONS}: likely a unit typo",
                budget.iterations
            ),
        ));
    }

    // DLK104: the target index must name a deployed victim, and the
    // attack must be able to act on that victim's kind.
    let target_valid = spec.target < spec.victims.len();
    if spec.attack.is_some() && !spec.victims.is_empty() && !target_valid {
        findings.push(Finding::error(
            RuleCode::Dlk104,
            Record::Target,
            format!(
                "target {} out of range: spec deploys {} victim{}",
                spec.target,
                spec.victims.len(),
                if spec.victims.len() == 1 { "" } else { "s" }
            ),
        ));
    }
    let target_victim = spec.victims.get(spec.target).map(|(victim, _)| victim);
    let target_model = target_victim.and_then(VictimSpec::model_kind);
    if let Some(attack) = &spec.attack {
        if let (Some(victim), Some((kinds, needs))) = (target_victim, acts_on(attack)) {
            if !kinds.contains(&victim.token()) {
                findings.push(Finding::error(
                    RuleCode::Dlk104,
                    Record::Attack,
                    format!(
                        "attack {} needs {needs}, but target {} is a {}",
                        attack.token(),
                        spec.target,
                        match victim.token() {
                            "rows" => "raw row span",
                            "model" => "contiguous model",
                            _ => "paged model",
                        }
                    ),
                ));
            }
        }
        if let AttackSpec::ProgressiveBfa { config, .. } = attack {
            if config.candidates_per_layer == 0 {
                let pool = target_model
                    .map(|kind| {
                        format!(
                            " ({} has {} weighted layers)",
                            kind.token(),
                            kind.weighted_layers()
                        )
                    })
                    .unwrap_or_default();
                findings.push(Finding::error(
                    RuleCode::Dlk104,
                    Record::Attack,
                    format!("progressive-bfa candidates=0: no bits per weighted layer{pool}"),
                ));
            }
            if let Some([lo, hi]) = config.bits_considered {
                if lo > hi || hi > 7 {
                    findings.push(Finding::error(
                        RuleCode::Dlk104,
                        Record::Attack,
                        format!("progressive-bfa bits={lo},{hi}: weights are 8-bit (bits 0..=7)"),
                    ));
                }
            }
        }
    }

    // DLK105: a defense stack mounts each mitigation at most once.
    for (at, defense) in spec.defenses.iter().enumerate() {
        if spec.defenses[..at].iter().any(|earlier| earlier.name() == defense.name()) {
            findings.push(Finding::error(
                RuleCode::Dlk105,
                Record::Defense(at),
                format!("defense '{}' mounted twice in the stack", defense.name()),
            ));
        }
    }

    findings
}

/// The victim kinds (spec-file tokens) `attack` can act on, with how a
/// finding words that need; `None` when it runs against any victim.
fn acts_on(attack: &AttackSpec) -> Option<(&'static [&'static str], &'static str)> {
    match attack {
        AttackSpec::Hammer { .. } | AttackSpec::RowProbe { .. } => {
            Some((&["rows", "model"], "a row span or a contiguous model"))
        }
        AttackSpec::BfaHammer { .. }
        | AttackSpec::ProgressiveBfa { .. }
        | AttackSpec::RandomFlip { .. }
        | AttackSpec::InferenceStream { .. }
        | AttackSpec::WeightFetch { .. } => Some((&["model"], "a contiguous model")),
        AttackSpec::PageTable { .. } => Some((&["paged"], "a paged model")),
        AttackSpec::Replay { .. } | AttackSpec::ReplayTrace { .. } => None,
    }
}

/// Line index of one spec chunk inside a list file: resolves a
/// [`Record`] to the `line:col` of its record line.
struct ChunkSpans<'a> {
    lines: &'a [&'a str],
    /// 1-based inclusive line range of the chunk.
    from: usize,
    to: usize,
}

impl ChunkSpans<'_> {
    /// The `nth` record line (0-based) whose first token is `key`,
    /// with the column of its first character; falls back to the
    /// chunk's first line.
    fn record(&self, key: &str, nth: usize) -> (usize, usize) {
        let mut seen = 0usize;
        for line in self.from..=self.to.min(self.lines.len()) {
            let raw = self.lines[line - 1];
            if raw.split_whitespace().next() == Some(key) {
                if seen == nth {
                    let col = raw.len() - raw.trim_start().len() + 1;
                    return (line, col);
                }
                seen += 1;
            }
        }
        (self.from, 1)
    }

    fn span(&self, record: Record) -> (usize, usize) {
        match record {
            Record::Label => self.record("label", 0),
            Record::Budget => self.record("budget", 0),
            Record::EvalBatch => self.record("eval-batch", 0),
            Record::Target => self.record("target", 0),
            Record::Victim(at) => self.record("victim", at),
            Record::Attack => self.record("attack", 0),
            Record::Defense(at) => self.record("defense", at),
        }
    }
}

/// Analyzes the text of one `.dlk` spec (or spec list) file.
/// `file` is the path reported in spans.
///
/// # Errors
///
/// Returns [`SimError::SpecParse`] when the text does not parse at
/// all — syntax errors precede semantic analysis.
pub fn analyze_text(file: &str, text: &str) -> Result<Report, SimError> {
    let specs = ScenarioSpec::list_from_text_with_lines(text)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut report = Report::new();
    report.files_scanned = 1;

    let mut chunk_ends = Vec::with_capacity(specs.len());
    for at in 0..specs.len() {
        let end = specs.get(at + 1).map_or(lines.len(), |(next_start, _)| next_start - 1);
        chunk_ends.push(end);
    }

    // DLK102: labels must be unique within a list file (a duplicate
    // silently shadows a sweep row in results keyed by label).
    for (at, (_, spec)) in specs.iter().enumerate() {
        let earlier = specs[..at].iter().any(|(_, other)| other.label == spec.label);
        if earlier {
            let spans = ChunkSpans { lines: &lines, from: specs[at].0, to: chunk_ends[at] };
            let (line, col) = spans.span(Record::Label);
            report.push(Diagnostic::error(
                RuleCode::Dlk102,
                file,
                line,
                col,
                format!("duplicate label '{}' in spec list", spec.label),
            ));
        }
    }

    for (at, (start, spec)) in specs.iter().enumerate() {
        let spans = ChunkSpans { lines: &lines, from: *start, to: chunk_ends[at] };
        for finding in check_spec(spec) {
            let (line, col) = spans.span(finding.record);
            report.push(Diagnostic {
                code: finding.code,
                severity: finding.severity,
                file: file.to_string(),
                line,
                col,
                message: finding.message,
            });
        }
    }
    report.sort();
    Ok(report)
}

/// Analyzes an already-parsed spec with no backing file (catalog
/// entries): findings anchor to `file` at line 0.
pub fn analyze_spec(file: &str, spec: &ScenarioSpec) -> Report {
    let mut report = Report::new();
    report.files_scanned = 1;
    for finding in check_spec(spec) {
        report.push(Diagnostic {
            code: finding.code,
            severity: finding.severity,
            file: file.to_string(),
            line: 0,
            col: 0,
            message: finding.message,
        });
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_sim::{Budget, DefenseSpec, ModelKind, Scenario, Workload};

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn clean_spec_has_no_findings() {
        let report = analyze_text("a.dlk", &ScenarioSpec::new("clean").to_text()).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn dlk101_flags_home_channel_beyond_engine() {
        let spec = ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 3)],
            ..ScenarioSpec::new("bad-home")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK101"]);
        let diag = &report.diagnostics[0];
        assert!(diag.message.contains("home=3"), "{diag:?}");
        // Anchored at the victim record line.
        let line_text = spec.to_text().lines().nth(diag.line - 1).unwrap().to_string();
        assert!(line_text.starts_with("victim"), "{line_text}");
    }

    #[test]
    fn dlk102_flags_duplicate_labels() {
        let mut text = ScenarioSpec::new("same").to_text();
        text.push_str(&ScenarioSpec::new("other").to_text());
        text.push_str(&ScenarioSpec::new("same").to_text());
        let report = analyze_text("list.dlk", &text).unwrap();
        assert_eq!(codes(&report), ["DLK102"]);
        // Anchored in the *third* chunk.
        let expected =
            text.lines().count() - text.lines().rev().position(|l| l == "label same").unwrap();
        assert_eq!(report.diagnostics[0].line, expected);
    }

    #[test]
    fn dlk103_zero_budget_is_an_error_and_huge_budget_a_warning() {
        let mut spec = ScenarioSpec::new("budget");
        spec.budget.max_activations = 0;
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK103"]);
        assert_eq!(report.errors(), 1);

        let mut spec = ScenarioSpec::new("budget");
        spec.budget.max_activations = ABSURD_ACTIVATIONS + 1;
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK103"]);
        assert_eq!((report.errors(), report.warnings()), (0, 1));
    }

    #[test]
    fn dlk104_flags_target_out_of_range() {
        let spec = ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 0)],
            attack: Some(AttackSpec::Hammer { bit: 7 }),
            target: 2,
            ..ScenarioSpec::new("target")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK104"]);
        assert!(report.diagnostics[0].message.contains("out of range"));
    }

    #[test]
    fn dlk104_flags_bfa_against_a_rowspan_victim() {
        let spec = ScenarioSpec {
            victims: vec![(VictimSpec::row(20, 0xA5), 0)],
            attack: Some(AttackSpec::RandomFlip { seed: 1 }),
            ..ScenarioSpec::new("bfa-rows")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK104"]);
        assert!(report.diagnostics[0].message.contains("raw row span"));
    }

    #[test]
    fn dlk103_flags_a_replay_with_no_tenants() {
        let text = "label empty-replay\nvictim rows home=0 protect=0 first=20 count=1 fill=0xa5\nattack replay\n";
        let report = analyze_text("a.dlk", text).unwrap();
        assert_eq!(codes(&report), ["DLK103"]);
        let diag = &report.diagnostics[0];
        assert!(diag.message.contains("no tenant"), "{diag:?}");
        assert_eq!(diag.line, 3, "anchored at the attack record");
        // One tenant line makes it a real replay.
        let text = format!("{text}tenant sequential base=0 len=8 count=4\n");
        assert!(analyze_text("a.dlk", &text).unwrap().diagnostics.is_empty());
    }

    /// DLK104 fires for an attack × victim pair exactly when building
    /// and running that scenario fails with `SimError::Build`.
    #[test]
    fn dlk104_matches_what_the_run_rejects() {
        let victims = [
            VictimSpec::row(20, 0xA5),
            VictimSpec::model(ModelKind::Tiny, 42, 0x400),
            VictimSpec::paged(ModelKind::Tiny, 42),
        ];
        let attacks = [
            AttackSpec::Hammer { bit: 7 },
            AttackSpec::RowProbe { accesses: 4 },
            AttackSpec::BfaHammer { batch: 16 },
            dlk_sim::find("bfa-vs-none").unwrap().spec.attack.unwrap(),
            AttackSpec::RandomFlip { seed: 1 },
            AttackSpec::PageTable { pfn_bit: 1, payload_xor: 0x80 },
            AttackSpec::InferenceStream { batches: 1, chunk: 32 },
            AttackSpec::replay(Workload::Sequential { base: 0, len: 8, count: 4 }),
            AttackSpec::trace(Workload::Sequential { base: 0, len: 8, count: 4 }.trace()),
            AttackSpec::weight_fetch(1, 32, 0),
        ];
        let mut failures = 0;
        for attack in &attacks {
            for victim in victims {
                let spec = ScenarioSpec {
                    victims: vec![(victim, 0)],
                    attack: Some(attack.clone()),
                    budget: Budget { max_activations: 64, check_interval: 8, iterations: 1 },
                    ..ScenarioSpec::new("matrix")
                };
                let case = format!("{} on {}", attack.token(), victim.token());
                let fires = codes(&analyze_spec("m", &spec)).contains(&"DLK104");
                let rejected = match Scenario::from_spec(&spec).and_then(|mut run| run.run()) {
                    Ok(_) => false,
                    Err(SimError::Build(_)) => true,
                    Err(other) => panic!("{case}: unexpected error {other}"),
                };
                assert_eq!(fires, rejected, "{case}");
                failures += usize::from(rejected);
            }
        }
        // 10 attacks x 3 victims: hammer/row-probe reject paged (2),
        // the five model-space attacks reject rows and paged (10), and
        // page-table rejects rows and model (2).
        assert_eq!(failures, 14);
    }

    #[test]
    fn dlk105_flags_duplicate_mitigations() {
        let spec = ScenarioSpec {
            defenses: vec![DefenseSpec::graphene(64, 8), DefenseSpec::graphene(128, 16)],
            ..ScenarioSpec::new("dup-defense")
        };
        let report = analyze_text("a.dlk", &spec.to_text()).unwrap();
        assert_eq!(codes(&report), ["DLK105"]);
        // rrs and srs are different mitigations, not duplicates.
        let spec = ScenarioSpec {
            defenses: vec![DefenseSpec::rrs(800, 1), DefenseSpec::srs(800, 1)],
            ..ScenarioSpec::new("swap-pair")
        };
        assert!(analyze_text("a.dlk", &spec.to_text()).unwrap().diagnostics.is_empty());
    }

    #[test]
    fn catalog_entries_analyze_without_a_file() {
        for entry in dlk_sim::catalog() {
            let report = analyze_spec(&format!("<catalog:{}>", entry.name), &entry.spec);
            assert_eq!(report.errors(), 0, "{}: {:?}", entry.name, report.diagnostics);
        }
    }

    #[test]
    fn syntax_errors_precede_semantics() {
        let err = analyze_text("a.dlk", "label x\nbogus record\n").unwrap_err();
        assert!(matches!(err, SimError::SpecParse { line: 2, .. }), "{err}");
    }
}
