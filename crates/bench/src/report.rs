//! Formatting of the paper's tables and figure data series, plus the
//! regression policy of the benchmark CI gate (`./ci.sh --bench-smoke`) over
//! [`MetricReport`]s.

use std::collections::BTreeMap;
use std::time::Duration;

use fall::metrics::MetricReport;
use netlist::strash::strash;

use crate::runner::{AttackKind, AttackRecord};
use crate::suite::{CircuitSpec, HdPolicy, LockCase, Scale};

/// One row of Table I: original and SFLL-locked gate counts for a circuit.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of outputs.
    pub outputs: usize,
    /// Key width.
    pub keys: usize,
    /// Gate count of the (generated) original circuit.
    pub original_gates: usize,
    /// Minimum gate count over the SFLL-locked variants.
    pub sfll_min_gates: usize,
    /// Maximum gate count over the SFLL-locked variants.
    pub sfll_max_gates: usize,
}

/// Builds the Table I rows for a set of circuits at a given scale by locking
/// each circuit with every Hamming-distance policy and counting gates after
/// structural hashing.
pub fn table1_rows(specs: &[CircuitSpec], scale: Scale) -> Vec<Table1Row> {
    specs
        .iter()
        .map(|spec| {
            let effective = spec.at_scale(scale);
            let original = spec.build(scale);
            let original_gates = strash(&original).num_gates();
            let mut min_gates = usize::MAX;
            let mut max_gates = 0usize;
            for policy in HdPolicy::all() {
                let case = LockCase::build(spec, policy, scale);
                let gates = case.locked.locked.num_gates();
                min_gates = min_gates.min(gates);
                max_gates = max_gates.max(gates);
            }
            Table1Row {
                name: effective.name.to_string(),
                inputs: effective.inputs,
                outputs: effective.outputs,
                keys: effective.keys,
                original_gates,
                sfll_min_gates: min_gates,
                sfll_max_gates: max_gates,
            }
        })
        .collect()
}

/// Formats Table I in the paper's column layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("ckt        #in  #out  #keys  gates(orig)  gates(SFLL min)  gates(SFLL max)\n");
    out.push_str("---------------------------------------------------------------------------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>4} {:>5} {:>6} {:>12} {:>16} {:>16}\n",
            row.name,
            row.inputs,
            row.outputs,
            row.keys,
            row.original_gates,
            row.sfll_min_gates,
            row.sfll_max_gates
        ));
    }
    out
}

/// Builds a cactus-plot series (Figure 5): for each solved instance, the
/// cumulative number of benchmarks solved within a time budget.
///
/// Only records with `defeated == true` contribute.  The series is sorted by
/// time, so plotting `(time, index + 1)` reproduces the paper's curves.
pub fn cactus_series(records: &[AttackRecord]) -> Vec<(Duration, usize)> {
    let mut times: Vec<Duration> = records
        .iter()
        .filter(|r| r.defeated)
        .map(|r| r.elapsed)
        .collect();
    times.sort_unstable();
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, i + 1))
        .collect()
}

/// Formats one Figure 5 panel: a cactus series per attack kind.
pub fn format_fig5(panel_label: &str, records: &[AttackRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== Figure 5 panel: {panel_label} ==\n"));
    let mut by_attack: BTreeMap<&'static str, Vec<AttackRecord>> = BTreeMap::new();
    for record in records {
        by_attack
            .entry(record.attack.label())
            .or_default()
            .push(record.clone());
    }
    for (label, group) in by_attack {
        let series = cactus_series(&group);
        let total = group.len();
        out.push_str(&format!(
            "{label}: {} of {} benchmarks solved\n",
            series.len(),
            total
        ));
        for (time, solved) in &series {
            out.push_str(&format!(
                "    {:>10.3}s  {:>3} solved\n",
                time.as_secs_f64(),
                solved
            ));
        }
    }
    out
}

/// Per-circuit mean/standard deviation of execution time for Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Circuit name.
    pub circuit: String,
    /// Mean and standard deviation of key-confirmation time (seconds).
    pub key_confirmation: (f64, f64),
    /// Mean and standard deviation of SAT-attack time (seconds).
    pub sat_attack: (f64, f64),
}

/// Aggregates attack records into Figure 6 rows (mean ± stddev per circuit).
pub fn fig6_rows(records: &[AttackRecord]) -> Vec<Fig6Row> {
    let mut per_circuit: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for record in records {
        let entry = per_circuit.entry(record.circuit.clone()).or_default();
        match record.attack {
            AttackKind::KeyConfirmation => entry.0.push(record.elapsed.as_secs_f64()),
            AttackKind::SatAttack => entry.1.push(record.elapsed.as_secs_f64()),
            _ => {}
        }
    }
    per_circuit
        .into_iter()
        .map(|(circuit, (kc, sa))| Fig6Row {
            circuit,
            key_confirmation: mean_std(&kc),
            sat_attack: mean_std(&sa),
        })
        .collect()
}

/// Formats the Figure 6 comparison.
pub fn format_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str("circuit     key-confirmation mean(s)  ±std     SAT-attack mean(s)  ±std\n");
    out.push_str("--------------------------------------------------------------------------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>22.3} {:>8.3} {:>20.3} {:>8.3}\n",
            row.circuit,
            row.key_confirmation.0,
            row.key_confirmation.1,
            row.sat_attack.0,
            row.sat_attack.1
        ));
    }
    out
}

/// One metric that got worse than the baseline allows.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Currently measured value (`None` if the metric disappeared).
    pub current: Option<f64>,
    /// `current / baseline` (worsening direction normalised so > 1 is worse).
    pub factor: f64,
}

/// Compares a current report against a baseline.
///
/// A metric regresses when it moved in its *bad* direction by more than
/// `tolerance` (a fraction: `0.2` allows 20 % worsening), or when a baseline
/// metric is missing from the current report.  Metrics that only exist in
/// the current report are ignored, so new measurements can be added before
/// the baseline is regenerated.
pub fn regressions_against(
    current: &MetricReport,
    baseline: &MetricReport,
    tolerance: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (name, base) in &baseline.metrics {
        let Some(current) = current.get(name) else {
            regressions.push(Regression {
                name: name.clone(),
                baseline: base.value,
                current: None,
                factor: f64::INFINITY,
            });
            continue;
        };
        // Normalise so `factor > 1` means "worse".
        let factor = if base.higher_is_better {
            if current.value <= 0.0 && base.value <= 0.0 {
                1.0
            } else if current.value <= 0.0 {
                f64::INFINITY
            } else {
                base.value / current.value
            }
        } else if base.value <= 0.0 {
            if current.value <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            current.value / base.value
        };
        if factor > 1.0 + tolerance {
            regressions.push(Regression {
                name: name.clone(),
                baseline: base.value,
                current: Some(current.value),
                factor,
            });
        }
    }
    regressions
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, variance.sqrt())
}

/// The § VI-B headline numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Headline {
    /// Total locked circuits in the grid.
    pub total: usize,
    /// Circuits defeated by at least one analysis.
    pub defeated: usize,
    /// Defeated circuits for which exactly one key was shortlisted
    /// (oracle-less successes).
    pub unique_key: usize,
}

/// Computes the headline numbers from combined-FALL records (one per locked
/// circuit).
pub fn headline(records: &[AttackRecord]) -> Headline {
    Headline {
        total: records.len(),
        defeated: records.iter().filter(|r| r.defeated).count(),
        unique_key: records
            .iter()
            .filter(|r| r.defeated && r.unique_key)
            .count(),
    }
}

/// Formats the headline comparison with the paper's numbers (65/80 defeated,
/// 58/65 with a unique key).
pub fn format_headline(h: &Headline) -> String {
    let pct = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    format!(
        "circuits defeated: {}/{} ({:.0}%)   [paper: 65/80 (81%)]\n\
         unique key (oracle-less): {}/{} ({:.0}%)   [paper: 58/65 (90%)]\n",
        h.defeated,
        h.total,
        pct(h.defeated, h.total),
        h.unique_key,
        h.defeated,
        pct(h.unique_key, h.defeated)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        attack: AttackKind,
        circuit: &str,
        secs: f64,
        defeated: bool,
        unique: bool,
    ) -> AttackRecord {
        AttackRecord {
            circuit: circuit.to_string(),
            h: 1,
            keys: 8,
            attack,
            defeated,
            unique_key: unique,
            shortlisted: usize::from(defeated),
            elapsed: Duration::from_secs_f64(secs),
        }
    }

    #[test]
    fn cactus_series_is_sorted_and_counts_only_successes() {
        let records = vec![
            record(AttackKind::Distance2H, "a", 3.0, true, true),
            record(AttackKind::Distance2H, "b", 1.0, true, true),
            record(AttackKind::Distance2H, "c", 2.0, false, false),
        ];
        let series = cactus_series(&records);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, 1);
        assert_eq!(series[1].1, 2);
        assert!(series[0].0 <= series[1].0);
    }

    #[test]
    fn fig6_rows_group_by_circuit() {
        let records = vec![
            record(AttackKind::KeyConfirmation, "c432", 0.5, true, false),
            record(AttackKind::KeyConfirmation, "c432", 1.5, true, false),
            record(AttackKind::SatAttack, "c432", 5.0, false, false),
        ];
        let rows = fig6_rows(&records);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].key_confirmation.0 - 1.0).abs() < 1e-9);
        assert!((rows[0].sat_attack.0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn headline_counts() {
        let records = vec![
            record(AttackKind::Distance2H, "a", 1.0, true, true),
            record(AttackKind::Distance2H, "b", 1.0, true, false),
            record(AttackKind::Distance2H, "c", 1.0, false, false),
        ];
        let h = headline(&records);
        assert_eq!(
            h,
            Headline {
                total: 3,
                defeated: 2,
                unique_key: 1
            }
        );
        let text = format_headline(&h);
        assert!(text.contains("2/3"));
        assert!(text.contains("paper: 65/80"));
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let rows = vec![Table1Row {
            name: "c432".into(),
            inputs: 36,
            outputs: 7,
            keys: 36,
            original_gates: 209,
            sfll_min_gates: 1119,
            sfll_max_gates: 1155,
        }];
        let text = format_table1(&rows);
        assert!(text.contains("c432"));
        assert!(text.contains("1119"));
    }

    #[test]
    fn regressions_respect_direction_and_tolerance() {
        let mut baseline = MetricReport::new();
        baseline.record("time_s", 1.0, false);
        baseline.record("speedup", 2.0, true);
        baseline.record("gone", 5.0, false);

        let mut current = MetricReport::new();
        current.record("time_s", 1.1, false); // 10% worse: within 20%
        current.record("speedup", 2.4, true); // better
        let ok = regressions_against(&current, &baseline, 0.2);
        assert_eq!(ok.len(), 1, "{ok:?}");
        assert_eq!(ok[0].name, "gone");
        assert!(ok[0].current.is_none());

        current.record("gone", 5.0, false);
        current.record("time_s", 1.5, false); // 50% worse
        current.record("speedup", 1.0, true); // halved
        let bad = regressions_against(&current, &baseline, 0.2);
        let names: Vec<&str> = bad.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["speedup", "time_s"]);
        assert!(bad.iter().all(|r| r.factor > 1.2));

        // Metrics only present in the current report never regress.
        current.record("brand_new", 9.0, false);
        assert_eq!(regressions_against(&current, &baseline, 0.2).len(), 2);
    }

    #[test]
    fn fig5_formatting_mentions_each_attack() {
        let records = vec![
            record(AttackKind::SatAttack, "a", 2.0, true, false),
            record(AttackKind::Distance2H, "a", 0.2, true, true),
        ];
        let text = format_fig5("SFLL-HDh where h = m/8", &records);
        assert!(text.contains("SAT-Attack"));
        assert!(text.contains("Distance2H"));
    }
}
