//! Regenerates the § VI-B headline numbers: how many of the 80 locked
//! circuits the FALL attack defeats, and for how many it shortlists exactly
//! one key (oracle-less success).
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin summary [--full] [--circuits N] [--timeout SECS]`

use fall_bench::{
    cli, format_headline, headline, AttackRecord, HdPolicy, LockCase, Runner, RunnerConfig, Scale,
    TABLE1_CIRCUITS,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Paper
    } else {
        Scale::Scaled
    };
    let limit = cli::flag_or_exit(&args, "--circuits", TABLE1_CIRCUITS.len());
    let timeout = cli::timeout_or_exit(&args, 5);

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
