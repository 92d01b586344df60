//! Latency statistics and the result line the benchmark prints.

use cnfet_serve::json::Json;

/// Nearest-rank percentile `p` (0–100] of ascending-sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the standard tail percentiles that keeps at least ten
/// samples beyond it, or `None` when even p90 has fewer than ten.
pub fn resolved_tail(samples: usize) -> Option<f64> {
    // In permille, so the nearest rank is exact integer arithmetic.
    [999usize, 990, 900]
        .into_iter()
        .find(|&p| samples - (p * samples).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Median of unsorted values (the lower middle for even counts, so the
/// result is always one of the measured values).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result object: the last line of a run's standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit.as_str())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Parses a rendered result line back.
    #[cfg(test)]
    pub fn parse(line: &str) -> Option<Outcome> {
        let value = cnfet_serve::json::parse(line).ok()?;
        let Some(Json::Obj(fields)) = value.get("metrics") else {
            return None;
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                Some(Metric {
                    name: name.clone(),
                    value: m.get("value")?.as_f64()?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            correct: value.get("correct")?.as_bool()?,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 1.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(resolved_tail(99), None);
        assert_eq!(resolved_tail(100), Some(90.0));
        assert_eq!(resolved_tail(999), Some(90.0));
        assert_eq!(resolved_tail(1000), Some(99.0));
        assert_eq!(resolved_tail(10_000), Some(99.9));
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_round_trips() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: Vec::new(),
        };
        outcome.push("p50_us", 12.345_678_901_234, "us");
        outcome.push("setup_s", 0.812_7, "s");
        outcome.push("cache.hit_ratio", 0.999_125, "ratio");
        let line = outcome.to_json().render();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1234,\"failed\":0,\"metrics\":{"));
        assert_eq!(Outcome::parse(&line), Some(outcome));
    }

    #[test]
    fn malformed_result_lines_are_rejected() {
        assert_eq!(Outcome::parse("{\"correct\":true}"), None);
        assert_eq!(Outcome::parse("not json"), None);
    }
}
