//! Order statistics and the JSON result line that ends every run.

use std::fmt::Write as _;

/// Nearest-rank quantile of `values` (need not be sorted); `+inf`
/// entries stand for failed or refused requests and sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum that reads `0` (not `-0`) when empty.
pub fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Named metrics with units, in the order they were added.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// One human-readable line per metric.
    pub fn print(&self, prefix: &str) {
        for (name, value, unit) in &self.0 {
            println!("{prefix}{name} = {value} {unit}");
        }
    }
}

/// Formats a float for JSON: non-finite values have no JSON spelling,
/// so they are written as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The JSON result line that ends every run: correctness, operation
/// counts and the metrics with their units.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v = vec![1.0; 98];
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(quantile(&v, 0.99), f64::INFINITY);
        assert_eq!(quantile(&v, 0.5), 1.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("latency_p99_ms", f64::INFINITY, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"latency_p99_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
