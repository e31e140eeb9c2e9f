//! The shared hand-written JSON layer (schema version 2).
//!
//! The workspace `serde` is a marker-only stub, so every JSON artifact
//! — `metrics.json` registry dumps, the `dlk serve` heartbeat, the
//! `dlk sweep --metrics` document — is emitted by hand and checked by
//! the recursive-descent [`validate`] parser before it touches disk.
//! Schema version 1 was a bench-only snapshot format; version 2 is the
//! one writer/validator every artifact shares, and `dlk bench diff`
//! compares any two of its documents.
//!
//! Shared header, common to every document:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "kind": "metrics",
//!   "name": "dlk-serve",
//!   "build": {
//!     "package_version": "0.1.0",
//!     "profile": "release",
//!     "arch": "x86_64",
//!     "os": "linux",
//!     "host_threads": 8,
//!     "unix_time_secs": 1700000000
//!   },
//!   ...
//! }
//! ```
//!
//! followed by one array per named section (`"metrics"`, `"speedups"`,
//! `"counters"`, `"gauges"`, `"histograms"`, ...), each element an
//! object rendered by the producer. `kind` names the producer's
//! family, e.g. `"metrics"` for registry dumps.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Version stamped into every document; bump when the layout changes.
///
/// Version history:
/// - 1: bench snapshots only (`"bench"` top-level key).
/// - 2: shared header (`"kind"` + `"name"`) for bench snapshots and
///   registry metrics dumps.
pub const SCHEMA_VERSION: u32 = 2;

/// Escapes a string for JSON embedding (quotes included).
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `0`
/// (JSON has no NaN/Infinity).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Build provenance stamped into the document header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// Workspace package version (`CARGO_PKG_VERSION`).
    pub package_version: String,
    /// `debug` or `release`.
    pub profile: String,
    /// Target architecture, e.g. `x86_64`.
    pub arch: String,
    /// Target OS, e.g. `linux`.
    pub os: String,
    /// `available_parallelism` of the producing host.
    pub host_threads: usize,
    /// Wall-clock seconds since the Unix epoch at render time.
    pub unix_time_secs: u64,
}

impl BuildInfo {
    /// Captures the current build/host provenance.
    pub fn current() -> Self {
        Self {
            package_version: env!("CARGO_PKG_VERSION").to_string(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            host_threads: std::thread::available_parallelism().map_or(1, usize::from),
            unix_time_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |elapsed| elapsed.as_secs()),
        }
    }

    /// A fully deterministic stand-in for golden tests.
    pub fn pinned() -> Self {
        Self {
            package_version: "0.0.0".to_string(),
            profile: "release".to_string(),
            arch: "x86_64".to_string(),
            os: "linux".to_string(),
            host_threads: 8,
            unix_time_secs: 0,
        }
    }
}

/// A schema-v2 document under construction: the shared header plus an
/// ordered list of named object-array sections.
#[derive(Debug, Clone)]
pub struct Document {
    kind: String,
    name: String,
    build: BuildInfo,
    sections: Vec<(String, Vec<String>)>,
}

impl Document {
    /// Starts a document of the given `kind` (e.g. `"metrics"`)
    /// and `name`, stamped with the current build info.
    pub fn new(kind: impl Into<String>, name: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            name: name.into(),
            build: BuildInfo::current(),
            sections: Vec::new(),
        }
    }

    /// Replaces the build header — used by golden tests that need a
    /// byte-for-byte deterministic render.
    pub fn set_build(&mut self, build: BuildInfo) -> &mut Self {
        self.build = build;
        self
    }

    /// Appends a pre-rendered JSON object to the named section,
    /// creating the section if this is its first element. Section
    /// order is first-push order; use [`Document::section`] to declare
    /// an empty section up front.
    pub fn push(&mut self, section: &str, object: String) -> &mut Self {
        self.section(section).push(object);
        self
    }

    /// Renders `fields` as a one-line JSON object and appends it to
    /// the named section. Values must already be valid JSON fragments
    /// (use [`escape`] / [`number`]).
    pub fn push_object(&mut self, section: &str, fields: &[(&str, String)]) -> &mut Self {
        let mut obj = String::from("{ ");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                obj.push_str(", ");
            }
            let _ = write!(obj, "{}: {}", escape(key), value);
        }
        obj.push_str(" }");
        self.push(section, obj)
    }

    /// Ensures the named section exists (possibly empty) and returns
    /// its element list.
    pub fn section(&mut self, section: &str) -> &mut Vec<String> {
        if let Some(at) = self.sections.iter().position(|(name, _)| name == section) {
            return &mut self.sections[at].1;
        }
        self.sections.push((section.to_string(), Vec::new()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Renders the full document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"kind\": {},", escape(&self.kind));
        let _ = writeln!(out, "  \"name\": {},", escape(&self.name));
        out.push_str("  \"build\": {\n");
        let _ = writeln!(out, "    \"package_version\": {},", escape(&self.build.package_version));
        let _ = writeln!(out, "    \"profile\": {},", escape(&self.build.profile));
        let _ = writeln!(out, "    \"arch\": {},", escape(&self.build.arch));
        let _ = writeln!(out, "    \"os\": {},", escape(&self.build.os));
        let _ = writeln!(out, "    \"host_threads\": {},", self.build.host_threads);
        let _ = writeln!(out, "    \"unix_time_secs\": {}", self.build.unix_time_secs);
        if self.sections.is_empty() {
            out.push_str("  }\n");
        } else {
            out.push_str("  },\n");
        }
        for (at, (name, objects)) in self.sections.iter().enumerate() {
            let _ = write!(out, "  {}: [", escape(name));
            for (i, object) in objects.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n    {object}");
            }
            let tail = if at + 1 == self.sections.len() { "" } else { "," };
            if objects.is_empty() {
                let _ = writeln!(out, "]{tail}");
            } else {
                let _ = writeln!(out, "\n  ]{tail}");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Validates the render and writes it to `path` atomically (temp
    /// file + rename), the same crash-safe discipline `results.csv`
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error; an invalid render (a bug in this
    /// module) surfaces as [`io::ErrorKind::InvalidData`].
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let json = self.to_json();
        validate(&json).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, &json)?;
        fs::rename(&tmp, path)
    }
}

/// A parsed JSON value — the read half of this module. Objects keep
/// their key order (schema-v2 sections are *ordered* object arrays),
/// and numbers are `f64` (every value this schema emits — counts,
/// micro-timestamps, throughputs — is exact well past 2^52).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => {
                members.iter().find(|(name, _)| name == key).map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload truncated to `u64` (negative → 0).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| if n.is_finite() && n > 0.0 { n as u64 } else { 0 })
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Convenience for schema-v2 documents: the named section as an
    /// object array, or an empty slice when absent/mistyped.
    pub fn section(&self, name: &str) -> &[Value] {
        self.get(name).and_then(Value::as_array).unwrap_or(&[])
    }
}

/// Parses `text` as a single JSON value.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

/// Parses the file at `path` as a single JSON value.
///
/// # Errors
///
/// Returns the read error or the first syntax error, either way
/// prefixed with the path.
pub fn parse_file(path: impl AsRef<Path>) -> Result<Value, String> {
    let path = path.as_ref();
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks that `text` is a single well-formed JSON value. Not a full
/// deserializer — the workspace has no real serde — just enough of a
/// recursive-descent parser to reject anything `json.tool` would.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Value::String),
        Some(b't') => parse_literal(bytes, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null").map(|()| Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(format!("unexpected byte {other:#04x} at offset {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    let mut members = Vec::new();
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    let mut items = Vec::new();
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // consume opening quote
    let mut out = String::new();
    while let Some(&byte) = bytes.get(*pos) {
        match byte {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let escape = bytes.get(*pos + 1).copied();
                match escape {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at offset {pos}", pos = *pos));
                        }
                        let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16)
                            .expect("four hex digits");
                        // Surrogates (the writer never emits them) fall
                        // back to the replacement character rather than
                        // growing a pairing decoder here.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 6;
                        continue;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos)),
                }
                *pos += 2;
            }
            0x00..=0x1F => {
                return Err(format!("raw control byte in string at offset {pos}", pos = *pos))
            }
            _ => {
                // Consume the whole UTF-8 scalar (the input is a &str,
                // so continuation bytes are guaranteed well-formed).
                let len = match byte {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let end = (*pos + len).min(bytes.len());
                out.push_str(
                    std::str::from_utf8(&bytes[*pos..end]).map_err(|_| {
                        format!("invalid UTF-8 in string at offset {pos}", pos = *pos)
                    })?,
                );
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, expected: &[u8]) -> Result<(), String> {
    if bytes.get(*pos..*pos + expected.len()) == Some(expected) {
        *pos += expected.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_from = |bytes: &[u8], pos: &mut usize| {
        let begin = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > begin
    };
    if !digits_from(bytes, pos) {
        return Err(format!("bad number at offset {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits_from(bytes, pos) {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits_from(bytes, pos) {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number bytes");
    text.parse::<f64>().map(Value::Number).map_err(|_| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_header_and_sections_render() {
        let mut doc = Document::new("metrics", "unit-test");
        doc.push_object("counters", &[("name", escape("a.b")), ("value", number(3.0))]);
        doc.push_object("counters", &[("name", escape("c")), ("value", number(0.5))]);
        doc.section("gauges");
        let json = doc.to_json();
        validate(&json).unwrap_or_else(|err| panic!("{err}\n{json}"));
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"kind\": \"metrics\""));
        assert!(json.contains("\"name\": \"unit-test\""));
        assert!(json.contains("\"a.b\""));
        assert!(json.contains("\"gauges\": []"));
    }

    #[test]
    fn empty_document_is_valid() {
        let json = Document::new("bench", "empty").to_json();
        validate(&json).expect("empty document must parse");
    }

    #[test]
    fn pinned_build_render_is_deterministic() {
        let mut a = Document::new("metrics", "g");
        a.set_build(BuildInfo::pinned());
        let mut b = Document::new("metrics", "g");
        b.set_build(BuildInfo::pinned());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"unix_time_secs\": 0"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn number_maps_non_finite_to_zero() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn validator_accepts_json_corpus() {
        for good in [
            "null",
            "true",
            " false ",
            "0",
            "-12.5e+3",
            "\"str \\u00e9\"",
            "[]",
            "[1, [2, {\"a\": null}]]",
            "{\"k\": \"v\", \"n\": [1.5, -2]}",
        ] {
            validate(good).unwrap_or_else(|err| panic!("{good}: {err}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "nul",
            "01x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1 2",
            "{'a': 1}",
            "[1] trailing",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let value = parse("{\"a\": [1, -2.5e1, \"x\\ny\"], \"b\": {\"c\": true, \"d\": null}}")
            .expect("must parse");
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(value.section("a")[0].as_f64(), Some(1.0));
        assert_eq!(value.section("a")[1].as_f64(), Some(-25.0));
        assert_eq!(value.section("a")[2].as_str(), Some("x\ny"));
        assert_eq!(value.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(value.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(value.get("missing"), None);
        assert!(value.section("missing").is_empty());
    }

    #[test]
    fn parse_unescapes_and_preserves_member_order() {
        let value = parse("{\"z\": 1, \"a\": \"q\\\"\\u00e9\\t\"}").expect("must parse");
        let keys: Vec<&str> = value.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"], "document order, not sorted");
        assert_eq!(value.get("a").unwrap().as_str(), Some("q\"\u{e9}\t"));
    }

    #[test]
    fn documents_round_trip_through_parse() {
        let mut doc = Document::new("metrics", "round-trip");
        doc.set_build(BuildInfo::pinned());
        doc.push_object("counters", &[("name", escape("a.b")), ("value", "7".into())]);
        doc.section("series");
        let value = parse(&doc.to_json()).expect("writer output must parse");
        assert_eq!(value.get("schema_version").unwrap().as_u64(), Some(2));
        assert_eq!(value.get("kind").unwrap().as_str(), Some("metrics"));
        assert_eq!(value.get("build").unwrap().get("host_threads").unwrap().as_u64(), Some(8));
        assert_eq!(value.section("counters")[0].get("name").unwrap().as_str(), Some("a.b"));
        assert_eq!(value.section("counters")[0].get("value").unwrap().as_u64(), Some(7));
        assert!(value.section("series").is_empty());
    }

    #[test]
    fn write_is_atomic_and_valid_on_disk() {
        let dir = std::env::temp_dir().join(format!("dlk_obs_json_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("metrics.json");
        let mut doc = Document::new("metrics", "atomic");
        doc.push_object("counters", &[("name", escape("n")), ("value", number(1.0))]);
        doc.write(&path).expect("write");
        let on_disk = std::fs::read_to_string(&path).expect("read back");
        validate(&on_disk).expect("on-disk JSON parses");
        assert!(!path.with_extension("json.tmp").exists(), "temp file must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
