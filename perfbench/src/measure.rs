//! Summary statistics and the result line: medians, quartile spreads, the
//! tail-percentile rule and the metric records the benchmark prints.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// The samples beyond a reported tail value must number at least this many.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail value of `samples`: the nearest-rank 99th percentile when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// nearest rank that still leaves that many beyond. Returns the value and
/// the percentile it sits at; `None` with `TAIL_MIN_BEYOND` samples or fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_MIN_BEYOND);
    Some((sorted[rank - 1], rank as f64 / n as f64 * 100.0))
}

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The counters and metrics of one run, rendered as the final result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Mechanism or output checks that failed, one line each.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        if !valid_name(name) || !valid_unit(unit) {
            self.problem(format!("invalid metric name or unit: {name:?} {unit:?}"));
        }
        self.metrics.push(Metric { name: name.to_string(), value, unit: unit.to_string() });
    }

    /// Records a failed check (it makes the run incorrect); a check failing
    /// over and over is recorded once.
    pub fn problem(&mut self, text: String) {
        if !self.problems.contains(&text) {
            self.problems.push(text);
        }
    }

    /// The run is correct when every attempted operation passed its checks,
    /// every mechanism check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, each value printed with all its digits.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value cannot be JSON; it is already reported as
            // incorrect, so print it as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail(&samples).expect("enough samples");
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
    }

    #[test]
    fn tail_falls_back_to_leave_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (value, pct) = tail(&samples).expect("enough samples");
        assert_eq!(value, 190.0);
        assert_eq!(pct, 95.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), TAIL_MIN_BEYOND);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.0), Some(1.0));
        assert_eq!(tail(&eleven[..10]), None);
    }

    #[test]
    fn names_and_units_follow_the_rules() {
        assert!(valid_name("fresh_p99_ms"));
        assert!(valid_name("stage.da_us"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn result_line_prints_full_digits() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.push("latency_ms", 1.203_456_789_1, "ms");
        o.push("setup_s", 2.0, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        o.problem("x".into());
        assert!(!o.correct());
    }
}
