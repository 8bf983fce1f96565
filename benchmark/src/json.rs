//! The result line the driver reads, and a reader for it.
//!
//! The workspace has no registry access, so there is no `serde_json`; the
//! emitter is a few `write!`s and the reader is a small recursive-descent
//! parser that `--aa` uses to read child runs and the tests use to check
//! what the emitter wrote.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`, starts
/// with a letter or digit and is at most 64 bytes.
pub fn valid_name(name: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(ok)
}

/// Formats a measured value with all its digits (shortest round-trip
/// form); non-finite values, which JSON cannot carry, become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` as the inside of a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One run's result: the object printed as the last line of stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted in the measured region (at least 1).
    pub attempted: u64,
    /// Operations that failed, were shed, errored or produced a wrong output.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The single-line JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 64);
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            debug_assert!(valid_name(name), "metric name {name:?}");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                number(*value),
                escape(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads back what [`RunResult::to_json`] wrote (metric order is
    /// alphabetical after a round trip, since JSON objects are unordered).
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let v = parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing key {k:?}"));
        let whole = |k: &str| -> Result<u64, String> {
            let n = field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k} is not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{k} is not a whole number"));
            }
            Ok(n as u64)
        };
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("correct is not a bool".into()),
        };
        let Json::Object(ms) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(ms.len());
        for (name, m) in ms {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name}: no numeric value"))?;
            let unit = match m.get("unit") {
                Some(Json::Str(u)) => u.clone(),
                _ => return Err(format!("metric {name}: no unit")),
            };
            metrics.push((name.clone(), value, unit));
        }
        Ok(RunResult {
            correct,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (keys sorted).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 32 {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.s.get(self.i).copied() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("expected , or }} at byte {}", self.i)),
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err("bad escape".into()),
                    }
                }
                Some(b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for good in [
            "setup_s",
            "ingress.drive_ns_per_req",
            "a-b",
            "9x",
            "env.host_cores",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                ("ops_per_s".into(), 364_211.730_194_5, "1/s".into()),
                ("rtt_p50_us".into(), 81.9, "us".into()),
                ("setup_s".into(), 0.012_345_678_9, "s".into()),
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back, r, "values keep every digit");
        for (name, _, _) in &back.metrics {
            assert!(valid_name(name));
        }
        assert_eq!(back.value("rtt_p50_us"), Some(81.9));
    }

    #[test]
    fn non_finite_values_are_emitted_as_zero() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn parser_rejects_garbage_and_reads_nested_documents() {
        assert!(parse("{\"a\": [1, 2, {\"b\": null}], \"c\": \"x\\ny\"}").is_ok());
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::Str("é".to_string()));
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{} x", "\"abc"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(RunResult::from_json("{\"correct\": true}").is_err());
        assert!(RunResult::from_json(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }
}
