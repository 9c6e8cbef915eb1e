//! The run's result: ops attempted and failed, problems found, and metrics
//! by name with their units, printed as one JSON line.

use std::fmt::Write as _;

/// One op's circuits and modelled device nanoseconds, and whether its
/// checks passed.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub circuits: u64,
    pub device_ns: u64,
    pub ok: bool,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric; a value that is not finite is recorded as a problem.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts `ops` as attempted and the ones whose checks failed.
    pub fn count_ops(&mut self, ops: &[OpSample]) {
        self.attempted += ops.len() as u64;
        self.failed += ops.iter().filter(|o| !o.ok).count() as u64;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}
