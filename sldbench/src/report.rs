//! Order statistics and the result line.

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Named metrics in the order they were added.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push((name, value, unit));
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self, workload: &str) -> String {
        self.rows
            .iter()
            .map(|(name, value, unit)| format!("{workload:<18} {name:<28} {value:>14.4} {unit}\n"))
            .collect()
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.5, "s");
        m.add("bad", f64::NAN, "ratio");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"bad\":{\"value\":0,\"unit\":\"ratio\"}}}"
        );
    }
}
