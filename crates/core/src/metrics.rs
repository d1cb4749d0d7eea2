//! The one metric type of the workspace and its formats.
//!
//! Every numeric surface — `fall-serve`'s `metrics` op
//! ([`crate::service::AttackService::metrics`]), the flight recorder's
//! histograms ([`crate::trace::metrics`]), the `fall-dist` farm's end-of-run
//! and live counters, and the `bench_smoke` regression gate — produces a
//! [`MetricReport`]: a sorted map from a flat `snake_case` name to a
//! [`Metric`] (a value plus its direction of goodness).
//!
//! This module owns the type and its Prometheus text exposition
//! ([`MetricReport::prometheus_text`]).  The JSON dialect — a flat object of
//! `name -> {"value": f64, "higher_is_better": bool}` — is encoded and
//! decoded by `fall_serve::protocol::MetricJson`, next to the `metrics` wire
//! frame that carries it, so `fall` itself needs no JSON library.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sat::SolverStats;

/// One named measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Direction of goodness: `true` if larger values are better (speedups,
    /// cache-hit rates), `false` if smaller values are better or the value is
    /// informational (times, query counts).
    pub higher_is_better: bool,
}

/// A named set of metrics, sorted by name so every rendering is
/// deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricReport {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricReport {
    /// Creates an empty report.
    pub fn new() -> MetricReport {
        MetricReport::default()
    }

    /// Records a metric (replacing any previous value of the same name).
    pub fn record(&mut self, name: impl Into<String>, value: f64, higher_is_better: bool) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                higher_is_better,
            },
        );
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Moves every metric of `other` into this report (`other` wins on a
    /// name clash).
    pub fn extend(&mut self, other: MetricReport) {
        self.metrics.extend(other.metrics);
    }

    /// Records every [`SolverStats::fields`] entry as a lower-is-better
    /// metric named `name(field)` — `sat_<field>` on the serve surface,
    /// `dist_sat_<field>` on the farm's.  Driven by the canonical field
    /// table, so a counter added to `SolverStats` reaches every surface.
    pub fn record_solver_stats(&mut self, stats: &SolverStats, name: impl Fn(&str) -> String) {
        for (field, value) in stats.fields() {
            self.record(name(field), value as f64, false);
        }
    }

    /// Renders the report in the Prometheus text exposition format (one
    /// `# TYPE` line plus one value line per metric, sorted by name).
    /// Metric names are already `snake_case` identifiers; anything else is
    /// mangled to `_`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            let name: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            let name = if name.starts_with(|c: char| c.is_ascii_digit()) {
                format!("_{name}")
            } else {
                name
            };
            let _ = writeln!(out, "# TYPE {name} gauge");
            if metric.value == metric.value.trunc() && metric.value.abs() < 9.0e15 {
                let _ = writeln!(out, "{name} {}", metric.value as i64);
            } else {
                let _ = writeln!(out, "{name} {}", metric.value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering() {
        let mut report = MetricReport::new();
        report.record("serve_jobs_completed", 32.0, false);
        report.record("oracle_cache_hit_rate", 0.41, true);
        let text = report.prometheus_text();
        assert!(text.contains("# TYPE serve_jobs_completed gauge\nserve_jobs_completed 32\n"));
        assert!(text.contains("oracle_cache_hit_rate 0.41\n"));
    }

    #[test]
    fn solver_stats_rows_follow_the_field_table() {
        let stats = SolverStats {
            conflicts: 7,
            ..SolverStats::default()
        };
        let mut report = MetricReport::new();
        report.record_solver_stats(&stats, |field| format!("x_{field}"));
        assert_eq!(report.metrics.len(), stats.fields().len());
        assert_eq!(report.get("x_conflicts").map(|m| m.value), Some(7.0));
    }
}
