//! Regenerates Figure 5: execution time vs number of benchmarks solved for
//! the circuit analyses (AnalyzeUnateness / SlidingWindow / Distance2H) and
//! the SAT attack, one panel per Hamming-distance policy.
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin fig5 [--full] [--circuits N] [--timeout SECS] [--skip-sat]`

use std::time::Duration;

use fall::functional::Analysis;
use fall_bench::{
    format_fig5, AttackRecord, HdPolicy, LockCase, Runner, RunnerConfig, Scale, TABLE1_CIRCUITS,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Paper
    } else {
        Scale::Scaled
    };
    let skip_sat = args.iter().any(|a| a == "--skip-sat");
    let limit = arg_value(&args, "--circuits").unwrap_or(6);
    let timeout = Duration::from_secs_f64(arg_value(&args, "--timeout").unwrap_or(3) as f64);

    let runner = Runner::new(RunnerConfig {
        budget: timeout,
        validation_samples: 128,
    });
    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Figure 5: {} circuits x 4 Hamming-distance policies at {:?} scale, {:?} per attack",
        specs.len(),
        scale,
        timeout
    );

    for policy in HdPolicy::all() {
        let mut records: Vec<AttackRecord> = Vec::new();
        for spec in specs {
            let case = LockCase::build(spec, policy, scale);
            eprintln!("  [{}] {} (h = {})", policy.label(), spec.name, case.h);
            match policy {
                HdPolicy::Zero => {
                    records.push(runner.run_fall(&case, Some(Analysis::Unateness)));
                }
                _ => {
                    if 4 * case.h <= case.keys {
                        records.push(runner.run_fall(&case, Some(Analysis::Distance2H)));
                    }
                    if 2 * case.h < case.keys {
                        records.push(runner.run_fall(&case, Some(Analysis::SlidingWindow)));
                    }
                }
            }
            if !skip_sat {
                records.push(runner.run_sat_attack(&case));
            }
        }
        println!("{}", format_fig5(policy.label(), &records));
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
