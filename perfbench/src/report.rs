//! Result accounting and the JSON the benchmark prints.

use dram_locker::obs::json::{escape, number};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Operations attempted and failed. A failed output check counts as a
/// failed operation, never as a crash.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the run description.
    pub errors: Vec<String>,
}

impl Tally {
    const KEPT_ERRORS: usize = 8;

    /// Records one attempted operation whose outcome is `result`.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.fail(error);
        }
    }

    /// Marks an already-counted operation failed (a check made after it
    /// ran, such as a comparison against the serial reference).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < Self::KEPT_ERRORS && !self.errors.contains(&error) {
            self.errors.push(error);
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A JSON value, written with the workspace's own JSON helpers (the
/// vendored `serde` is marker-only).
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn metrics(metrics: &[Metric]) -> Json {
        Json::obj(metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a value that is not a number
            // is absent. `number` prints the shortest string that reads
            // back to the same value: every digit as measured.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => out.push_str(&number(*v)),
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(key));
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_every_digit() {
        let doc = Json::obj([
            ("a\"b", Json::Num(0.1 + 0.2)),
            ("c", Json::Arr(vec![Json::Null, Json::Num(f64::NAN)])),
        ]);
        assert_eq!(doc.render(), r#"{"a\"b":0.30000000000000004,"c":[null,null]}"#);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&values), 10.0);
        assert_eq!(percentile(&values, 95.0), 19.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tally_counts_failed_checks_as_failed_ops() {
        let mut tally = Tally::default();
        tally.op(Ok(()));
        tally.op(Err("bad".into()));
        tally.fail("bad".into());
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert_eq!(tally.errors, vec!["bad".to_owned()]);
    }
}
