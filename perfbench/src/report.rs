//! The metric catalogue and the result a workload hands back to `main`.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use netshim::Value;

use crate::sys::median;

/// The metric catalogue, `(name, unit)` pairs read from the repository's
/// `BENCHMARK.json` (the one place it is written) when this crate is
/// compiled: the end-to-end metrics every untraced run reports and the
/// per-layer metrics every traced run reports.  A layer a workload never
/// reaches reports 0.
struct Catalogue {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let spec =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let section = |key: &str| {
            let metrics = spec.get(key).and_then(Value::as_array);
            metrics
                .expect("BENCHMARK.json lists the metrics")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        let text = m.get(f).and_then(Value::as_str);
                        text.expect("every metric has a name and a unit").to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        Catalogue {
            end_to_end: section("end_to_end"),
            per_layer: section("per_layer"),
        }
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Verdicts attempted (cases, jobs or farm drains, over every pass).
    pub attempted: u64,
    /// Attempts whose verdict did not match the known answer.
    pub failed: u64,
    /// Correctness or determinism violations; any entry fails the run.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, by run mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-case ledger rows and other context, written beside the metrics.
    pub ledger: Vec<Value>,
    /// Scalar facts about the run that are not metrics (sample counts,
    /// percentiles used, deterministic-counter digests).
    pub notes: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Adds `value` to metric `name` (which must be catalogued).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let c = catalogue();
        assert!(
            c.end_to_end
                .iter()
                .chain(&c.per_layer)
                .any(|(n, _)| n == name),
            "uncatalogued metric {name}"
        );
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.remove(name);
        self.add(name, value);
    }

    /// Records a verdict.
    pub fn verdict(&mut self, solved: bool) {
        self.attempted += 1;
        if !solved {
            self.failed += 1;
        }
    }

    /// Sets `wall_s` and `cpu_s` to the medians over the measured passes and
    /// records the passes in the notes.
    pub fn passes(&mut self, walls: &[f64], cpus: &[f64]) {
        self.set("wall_s", median(walls));
        self.set("cpu_s", median(cpus));
        let walls_value = Value::Array(walls.iter().map(|&w| Value::from(w)).collect());
        self.notes.insert("pass_walls", walls_value);
        self.notes.insert("passes", Value::from(walls.len()));
    }

    /// The latency metrics of a workload whose requests are whole attacks
    /// (a batch case, or a farm drain), from each pass's attack latencies,
    /// in the same attack order every pass.  An attack's latency is its
    /// median over the passes; `latency_p50_s` is the median attack and
    /// `latency_tail_s` the slowest.  The attacks are the same fixed jobs in
    /// every pass, so the slowest is one known attack, not an order
    /// statistic of a small sample.
    pub fn attack_latency(&mut self, passes: &[Vec<f64>]) {
        let attacks: Vec<f64> = (0..passes[0].len())
            .map(|i| median(&passes.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
            .collect();
        self.set("latency_p50_s", median(&attacks));
        self.set(
            "latency_tail_s",
            attacks.iter().copied().fold(0.0, f64::max),
        );
        self.notes
            .insert("latency_samples", Value::from(attacks.len()));
        self.notes.insert("latency_tail_pct", Value::from(100.0));
    }

    /// The `solved_frac` end-to-end metric.
    pub fn solved_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The final result object: `correct`, `attempted`, `failed` and every
    /// metric of the run's catalogue with its unit.
    pub fn result_line(&self, traced: bool) -> Value {
        let c = catalogue();
        let metrics = if traced { &c.per_layer } else { &c.end_to_end };
        let metrics = metrics.iter().map(|(name, unit)| {
            let value = self.metrics.get(name.as_str()).copied().unwrap_or(0.0);
            (
                name.as_str(),
                Value::object([
                    ("value", Value::from(value)),
                    ("unit", Value::from(unit.as_str())),
                ]),
            )
        });
        Value::object([
            (
                "correct",
                Value::from(self.errors.is_empty() && self.failed == 0),
            ),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::object(metrics)),
        ])
    }
}

/// Renders a fixed set of deterministic counters as one comparable string.
pub fn digest(counters: &[(&str, u64)]) -> String {
    counters
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_latency_takes_each_attacks_median_over_passes() {
        let mut report = Report::default();
        // Three attacks over three passes; the second pass ran slow.
        report.attack_latency(&[
            vec![1.0, 2.0, 10.0],
            vec![3.0, 6.0, 30.0],
            vec![1.0, 2.0, 11.0],
        ]);
        assert_eq!(report.metrics["latency_p50_s"], 2.0);
        assert_eq!(report.metrics["latency_tail_s"], 11.0);
    }
}
