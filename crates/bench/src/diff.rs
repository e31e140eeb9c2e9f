//! Structural comparison of two schema-v2 snapshot documents.
//!
//! `dlk bench diff old.json new.json` lands here: both documents are
//! parsed with the shared [`dlk_obs::json`] reader, every array
//! section (`metrics`, `speedups`, `counters`, `histograms`, ...) is
//! aligned by member `name`, and each numeric field becomes a
//! [`Delta`] with a percent change. A direction heuristic classifies
//! each row as higher-is-better (throughput, speedups) or
//! lower-is-better (anything measured in time units or named like a
//! latency), so [`Diff::regressions`] can flag only changes in the bad
//! direction — the CI regression gate is `--check --max-regress PCT`
//! over exactly that list.

use dlk_obs::json::Value;

/// One aligned numeric field that exists in both documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Section the row came from (`metrics`, `speedups`, ...).
    pub section: String,
    /// Display name: the member name, suffixed with the field for
    /// multi-valued members (`memctrl.latency.p95`).
    pub name: String,
    /// Unit label from the old document (empty when absent).
    pub unit: String,
    /// Value in the old (baseline) document.
    pub old: f64,
    /// Value in the new (candidate) document.
    pub new: f64,
}

impl Delta {
    /// Signed percent change relative to the baseline. A zero baseline
    /// maps to `0` (no change) or `±inf` (something appeared from or
    /// collapsed to zero).
    pub fn pct(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else if self.new > 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            (self.new - self.old) / self.old.abs() * 100.0
        }
    }

    /// True when smaller values are better for this row: time units
    /// (`ns`/`us`/`ms`/`s`) or names that read as a latency. Everything
    /// else (throughput, speedup ratios, counts) is higher-is-better.
    pub fn lower_is_better(&self) -> bool {
        matches!(self.unit.as_str(), "ns" | "us" | "ms" | "s")
            || self.name.contains("wall")
            || self.name.contains("latency")
    }

    /// Percent moved in the *bad* direction, or `None` when the change
    /// is neutral or an improvement.
    pub fn regression_pct(&self) -> Option<f64> {
        let pct = self.pct();
        let bad = if self.lower_is_better() { pct > 0.0 } else { pct < 0.0 };
        bad.then(|| pct.abs())
    }
}

/// The full comparison of two documents.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// `name` field of the baseline document.
    pub old_name: String,
    /// `name` field of the candidate document.
    pub new_name: String,
    /// Rows present in both documents, in baseline section order.
    pub deltas: Vec<Delta>,
    /// `(section, name)` members only the baseline has.
    pub only_old: Vec<(String, String)>,
    /// `(section, name)` members only the candidate has.
    pub only_new: Vec<(String, String)>,
}

impl Diff {
    /// Deltas that moved more than `max_pct` percent in the bad
    /// direction.
    pub fn regressions(&self, max_pct: f64) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regression_pct().is_some_and(|pct| pct > max_pct)).collect()
    }

    /// Renders the aligned delta table. When `max_regress` is given,
    /// rows past the threshold gain a trailing `<< REGRESSION` marker.
    pub fn render(&self, max_regress: Option<f64>) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} -> {}\n", self.old_name, self.new_name));
        let name_width = self
            .deltas
            .iter()
            .map(|d| d.name.len() + d.section.len() + 1)
            .chain([12])
            .max()
            .unwrap_or(12);
        out.push_str(&format!(
            "{:<name_width$} {:>14} {:>14} {:>9}\n",
            "section/name", "old", "new", "delta"
        ));
        for delta in &self.deltas {
            let label = format!("{}/{}", delta.section, delta.name);
            let mut line = format!(
                "{:<name_width$} {:>14} {:>14} {:>9}",
                label,
                fmt_value(delta.old),
                fmt_value(delta.new),
                fmt_pct(delta.pct()),
            );
            if !delta.unit.is_empty() {
                line.push_str(&format!(" {}", delta.unit));
            }
            if let Some(max) = max_regress {
                if delta.regression_pct().is_some_and(|pct| pct > max) {
                    line.push_str("  << REGRESSION");
                }
            }
            line.push('\n');
            out.push_str(&line);
        }
        for (section, name) in &self.only_old {
            out.push_str(&format!("only in old: {section}/{name}\n"));
        }
        for (section, name) in &self.only_new {
            out.push_str(&format!("only in new: {section}/{name}\n"));
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        v.to_string()
    } else if v == v.trunc() && v.abs() < 1e12 {
        format!("{v}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn fmt_pct(pct: f64) -> String {
    if pct.is_infinite() {
        if pct > 0.0 {
            "+inf%".into()
        } else {
            "-inf%".into()
        }
    } else {
        format!("{pct:+.1}%")
    }
}

/// Every top-level array-of-named-objects section, in document order.
fn named_sections(doc: &Value) -> Vec<(&str, Vec<(&str, &Value)>)> {
    let Some(members) = doc.as_object() else { return Vec::new() };
    let mut sections = Vec::new();
    for (key, value) in members {
        let Some(items) = value.as_array() else { continue };
        let named: Vec<(&str, &Value)> =
            items.iter().filter_map(|item| Some((item.get("name")?.as_str()?, item))).collect();
        if !named.is_empty() || !items.is_empty() {
            sections.push((key.as_str(), named));
        }
    }
    sections
}

/// Compares two parsed schema-v2 documents (any kind — bench
/// snapshots, metrics heartbeats). Sections and members follow the
/// baseline's order; candidate-only sections and members are listed in
/// [`Diff::only_new`].
pub fn diff(old: &Value, new: &Value) -> Diff {
    let mut result = Diff {
        old_name: old.get("name").and_then(Value::as_str).unwrap_or("old").to_string(),
        new_name: new.get("name").and_then(Value::as_str).unwrap_or("new").to_string(),
        ..Diff::default()
    };

    let old_sections = named_sections(old);
    let new_sections = named_sections(new);

    for (section, old_members) in &old_sections {
        let new_members: &[(&str, &Value)] = new_sections
            .iter()
            .find(|(name, _)| name == section)
            .map_or(&[], |(_, members)| members.as_slice());
        for (name, old_obj) in old_members {
            let Some((_, new_obj)) = new_members.iter().find(|(n, _)| n == name) else {
                result.only_old.push((section.to_string(), name.to_string()));
                continue;
            };
            let unit = old_obj.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            let Some(fields) = old_obj.as_object() else { continue };
            for (field, old_field) in fields {
                let Some(old_num) = old_field.as_f64() else { continue };
                let Some(new_num) = new_obj.get(field).and_then(Value::as_f64) else { continue };
                let display =
                    if field == "value" { name.to_string() } else { format!("{name}.{field}") };
                result.deltas.push(Delta {
                    section: section.to_string(),
                    name: display,
                    unit: unit.clone(),
                    old: old_num,
                    new: new_num,
                });
            }
        }
    }

    for (section, new_members) in &new_sections {
        let old_members: &[(&str, &Value)] = old_sections
            .iter()
            .find(|(name, _)| name == section)
            .map_or(&[], |(_, members)| members.as_slice());
        for (name, _) in new_members {
            if !old_members.iter().any(|(n, _)| n == name) {
                result.only_new.push((section.to_string(), name.to_string()));
            }
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlk_obs::json::{self, parse, Document};

    /// A `bench` document with `metrics` (name/value/unit) and
    /// `speedups` (name/value) sections.
    fn snap(pairs: &[(&str, f64, &str)], speedups: &[(&str, f64)]) -> Value {
        let mut doc = Document::new("bench", "unit");
        for (name, value, unit) in pairs {
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
        parse(&doc.to_json()).expect("document JSON parses")
    }

    #[test]
    fn aligns_by_name_and_computes_percent() {
        let old = snap(&[("decode", 100.0, "M/s"), ("gemm", 50.0, "MFLOP/s")], &[("s", 2.0)]);
        let new = snap(&[("gemm", 75.0, "MFLOP/s"), ("decode", 110.0, "M/s")], &[("s", 2.0)]);
        let diff = diff(&old, &new);
        assert_eq!(diff.deltas.len(), 3);
        assert_eq!(diff.deltas[0].name, "decode");
        assert!((diff.deltas[0].pct() - 10.0).abs() < 1e-9);
        assert!((diff.deltas[1].pct() - 50.0).abs() < 1e-9);
        assert_eq!(diff.deltas[2].pct(), 0.0);
        assert!(diff.only_old.is_empty() && diff.only_new.is_empty());
    }

    #[test]
    fn direction_heuristic_flags_only_bad_moves() {
        // Throughput down 20% = regression; latency down 20% = win.
        let old = snap(&[("decode_per_s", 100.0, "M/s"), ("job_wall", 100.0, "us")], &[]);
        let new = snap(&[("decode_per_s", 80.0, "M/s"), ("job_wall", 80.0, "us")], &[]);
        let diff = diff(&old, &new);
        let regressed = diff.regressions(15.0);
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].name, "decode_per_s");
        assert!(regressed[0].regression_pct().unwrap() > 19.0);
        // Latency *up* 20% regresses too.
        let slower = snap(&[("job_wall", 120.0, "us")], &[]);
        let diff = super::diff(&old, &slower);
        assert_eq!(diff.regressions(15.0).len(), 1);
        assert_eq!(diff.regressions(25.0).len(), 0, "threshold is exclusive");
    }

    #[test]
    fn members_missing_from_either_side_are_reported_not_compared() {
        let old = snap(&[("kept", 1.0, "u"), ("dropped", 2.0, "u")], &[]);
        let new = snap(&[("kept", 1.0, "u"), ("added", 3.0, "u")], &[]);
        let diff = diff(&old, &new);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(diff.only_old, [("metrics".to_string(), "dropped".to_string())]);
        assert_eq!(diff.only_new, [("metrics".to_string(), "added".to_string())]);
    }

    #[test]
    fn zero_baseline_renders_infinite_percent_without_panicking() {
        let old = snap(&[("new_counter", 0.0, "u")], &[]);
        let new = snap(&[("new_counter", 7.0, "u")], &[]);
        let diff = diff(&old, &new);
        assert_eq!(diff.deltas[0].pct(), f64::INFINITY);
        assert!(diff.render(None).contains("+inf%"));
    }

    #[test]
    fn render_marks_regressions_past_threshold() {
        let old = snap(&[("decode_per_s", 100.0, "M/s")], &[]);
        let new = snap(&[("decode_per_s", 50.0, "M/s")], &[]);
        let diff = diff(&old, &new);
        let plain = diff.render(None);
        assert!(plain.contains("metrics/decode_per_s"));
        assert!(plain.contains("-50.0%"));
        assert!(!plain.contains("REGRESSION"));
        assert!(diff.render(Some(15.0)).contains("<< REGRESSION"));
        assert!(!diff.render(Some(60.0)).contains("<< REGRESSION"));
    }

    #[test]
    fn multi_field_members_compare_every_numeric_field() {
        // A metrics-document histogram member: all numeric fields diff.
        let registry = dlk_obs::Registry::new();
        registry.histogram("memctrl.latency").record(8);
        let old = parse(&registry.to_json("a")).unwrap();
        registry.histogram("memctrl.latency").record(100);
        let new = parse(&registry.to_json("b")).unwrap();
        let diff = diff(&old, &new);
        let names: Vec<&str> = diff.deltas.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"memctrl.latency.count"));
        assert!(names.contains(&"memctrl.latency.p95"));
        // Latency p95 going up is a regression under the heuristic.
        assert!(!diff.regressions(50.0).is_empty());
    }
}
