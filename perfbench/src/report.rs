//! A run's result: correctness checks, operation counts, the metrics
//! `BENCHMARK.json` names, and detail lines printed above the final JSON
//! object.

use crate::stats::Tail;

/// One named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or the detail table.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `share`.
    pub unit: &'static str,
    /// Sample count or other context, printed with detail lines.
    pub note: String,
}

/// Everything a workload run produces.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Of those, shed, refused, panicked or answered wrongly.
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Metrics of the final JSON object.
    pub metrics: Vec<Metric>,
    /// Workload-specific values printed as detail lines only.
    pub details: Vec<Metric>,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Adds a metric of the final JSON object.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        });
    }

    /// Adds a detail line.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.details.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds p50, p90 and p99 of `tail` (in ns) as `<name>.p50<suffix>`
    /// etc. detail lines in microseconds with the sample count, failing a
    /// check when a percentile is not reportable. Returns p50 and p90.
    pub fn tail_details(&mut self, name: &str, suffix: &str, tail: &Tail) -> (f64, f64) {
        let mut us = [0.0; 3];
        for (i, (p, v)) in [("p50", tail.p50), ("p90", tail.p90), ("p99", tail.p99)]
            .into_iter()
            .enumerate()
        {
            let full = format!("{name}.{p}{suffix}");
            us[i] = self.reportable(&full, v, tail.n) / 1e3;
            self.detail(&full, us[i], "us", format!("n={}", tail.n));
        }
        (us[0], us[1])
    }

    /// The percentile's value, or a failed check (and NaN) when it is
    /// not reportable or infinite (a miss in its tail).
    pub fn reportable(&mut self, name: &str, v: Option<f64>, n: usize) -> f64 {
        match v {
            Some(x) if x.is_finite() => x,
            Some(_) => {
                self.check(
                    &format!("{name} finite"),
                    false,
                    "misses reach this percentile",
                );
                f64::NAN
            }
            None => {
                self.check(
                    &format!("{name} reportable"),
                    false,
                    format!("{n} samples leave fewer than ten beyond it"),
                );
                f64::NAN
            }
        }
    }

    /// Every check passed, every operation succeeded, every value is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|c| c.1)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
