//! The benchmark's output contract: metric names, exact percentiles, and
//! the one-line JSON result (with a parser used to prove the line
//! round-trips).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples that must lie strictly beyond a reported percentile. Below
/// this count the tail is a handful of transactions and the percentile
/// does not repeat between runs, so it is refused instead of reported.
pub const MIN_BEYOND: usize = 10;

/// True when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// An exact percentile of a set of samples, with the counts that say how
/// much of the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q·n)`.
    pub value: u64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn exact_percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// `num / den`, or 0 when nothing was measured (never NaN or infinite,
/// which JSON cannot carry).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num.is_finite() {
        num / den
    } else {
        0.0
    }
}

/// The median of `values` (upper median for an even count), 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Render as one line of JSON with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values keep every digit (the
    /// shortest representation that parses back to the same `f64`).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Parse a line produced by [`Outcome::to_json`].
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let top = p.object()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
        keys.sort_unstable();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected top-level keys {keys:?}"));
        }
        let count = |k: &str| match &top[k] {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("{k} is not a whole number: {other:?}")),
        };
        let correct = match &top["correct"] {
            Json::Bool(b) => *b,
            other => return Err(format!("correct is not a bool: {other:?}")),
        };
        let Json::Obj(ms) = &top["metrics"] else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in ms {
            let Json::Obj(fields) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            match (fields.get("value"), fields.get("unit"), fields.len()) {
                (Some(Json::Num(value)), Some(Json::Str(unit)), 2) => {
                    metrics.insert(
                        name.clone(),
                        Metric {
                            value: *value,
                            unit: unit.clone(),
                        },
                    );
                }
                _ => return Err(format!("metric {name} must be {{value, unit}}")),
            }
        }
        Ok(Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

/// A parser for the JSON subset the result line uses: objects, strings
/// without escapes, numbers and booleans.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(self.s[start..self.i - 1].to_vec())
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err(format!("escapes are not used, found one at {}", self.i)),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object().map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') | Some(b'f') => {
                for (word, b) in [("true", true), ("false", false)] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(Json::Bool(b));
                    }
                }
                Err(format!("bad literal at byte {}", self.i))
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Json>, String> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if out.insert(key.clone(), v).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        let p50 = exact_percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (500, 1000, 500));
        let p99 = exact_percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990, 10));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 999 samples: p99 sits at rank 990, leaving only 9 beyond it.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(exact_percentile(&v, 0.99), None);
        assert!(exact_percentile(&v, 0.5).is_some());
        // The rule is about the tail, not the total: p999 needs 10 000.
        let v: Vec<u64> = (1..=9_999).collect();
        assert_eq!(exact_percentile(&v, 0.999), None);
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(exact_percentile(&v, 0.999).unwrap().beyond, 10);
        assert_eq!(exact_percentile(&[], 0.5), None);
        assert_eq!(exact_percentile(&[7; 20], 0.5).unwrap().value, 7);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "p50_ms",
            "core.executor.full_aborts_per_commit",
            "a-b",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "per/commit", "p99%", "é"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn printed_line_round_trips() {
        let mut metrics = BTreeMap::new();
        for (name, value, unit) in [
            ("commits_per_sec", 291.73333333333335, "txn/s"),
            ("p99_ms", 31.0123456789, "ms"),
            ("setup_s", 0.8127, "s"),
            ("core.executor.useful_block_ratio", 1.0, "ratio"),
            ("tiny", 1.25e-7, "ms"),
            ("zero", 0.0, "count"),
        ] {
            metrics.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        let out = Outcome {
            correct: true,
            attempted: 2921,
            failed: 0,
            metrics,
        };
        let line = out.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::parse(&line).unwrap(), out);
        let refused = Outcome {
            correct: false,
            ..out
        };
        assert_eq!(Outcome::parse(&refused.to_json()).unwrap(), refused);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{\"correct\": true}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1}}}",
        ] {
            assert!(Outcome::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ratio_and_median_never_produce_nan() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
