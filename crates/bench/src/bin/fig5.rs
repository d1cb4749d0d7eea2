//! Regenerates Figure 5: execution time vs number of benchmarks solved for
//! the circuit analyses (AnalyzeUnateness / SlidingWindow / Distance2H) and
//! the SAT attack, one panel per Hamming-distance policy.  Each SFLL-HDh
//! panel also shows the combined `FALL` series: every applicable analysis
//! after the cube proposal by simulation (`FallAttackConfig::analyses`).
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin fig5 [--full] [--circuits N] [--timeout SECS] [--skip-sat]`

use fall::functional::Analysis;
use fall_bench::{
    cli, format_fig5, AttackRecord, HdPolicy, LockCase, Runner, RunnerConfig, Scale,
    TABLE1_CIRCUITS,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Paper
    } else {
        Scale::Scaled
    };
    let skip_sat = args.iter().any(|a| a == "--skip-sat");
    let limit = cli::flag_or_exit(&args, "--circuits", 6);
    let timeout = cli::timeout_or_exit(&args, 3);

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
                    // The combined attack: every applicable analysis, after
                    // the cube proposal by simulation.
                    records.push(runner.run_fall(&case, None));
                }
            }
            if !skip_sat {
                records.push(runner.run_sat_attack(&case));
            }
        }
        println!("{}", format_fig5(policy.label(), &records));
    }
}
