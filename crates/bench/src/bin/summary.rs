//! Regenerates the § VI-B headline numbers: how many of the 80 locked
//! circuits the FALL attack defeats, and for how many it shortlists exactly
//! one key (oracle-less success).
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin summary [--full] [--circuits N] [--timeout SECS]`

use std::time::Duration;

use fall_bench::{
    format_headline, headline, AttackRecord, HdPolicy, LockCase, Runner, RunnerConfig, Scale,
    TABLE1_CIRCUITS,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Paper
    } else {
        Scale::Scaled
    };
    let limit = arg_value(&args, "--circuits").unwrap_or(TABLE1_CIRCUITS.len());
    let timeout = Duration::from_secs_f64(arg_value(&args, "--timeout").unwrap_or(5) as f64);

    let runner = Runner::new(RunnerConfig {
        budget: timeout,
        validation_samples: 128,
    });
    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Summary: {} circuits x 4 policies = {} locked instances at {:?} scale",
        specs.len(),
        specs.len() * 4,
        scale
    );

    let mut records: Vec<AttackRecord> = Vec::new();
    for spec in specs {
        for policy in HdPolicy::all() {
            let case = LockCase::build(spec, policy, scale);
            let record = runner.run_fall(&case, None);
            eprintln!(
                "  {:<8} h={:<2} keys={:<2} defeated={} unique={} shortlisted={} {:.2}s",
                spec.name,
                case.h,
                case.keys,
                record.defeated,
                record.unique_key,
                record.shortlisted,
                record.elapsed.as_secs_f64()
            );
            records.push(record);
        }
    }
    println!("SECTION VI-B headline numbers ({scale:?} suite, {timeout:?} per attack)");
    println!("{}", format_headline(&headline(&records)));
}

fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
