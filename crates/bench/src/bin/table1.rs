//! Regenerates Table I: benchmark circuits with original and SFLL-locked gate
//! counts.
//!
//! Usage: `cargo run -p fall-bench --release --bin table1 [--full] [--circuits N]`

use fall_bench::{cli, format_table1, table1_rows, Scale, TABLE1_CIRCUITS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Paper
    } else {
        Scale::Scaled
    };
    let limit = cli::flag_or_exit(&args, "--circuits", TABLE1_CIRCUITS.len());

    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Building Table I for {} circuits at {:?} scale (pass --full for paper sizes)...",
        specs.len(),
        scale
    );
    let rows = table1_rows(specs, scale);
    println!(
        "TABLE I: Benchmark circuits (seeded random stand-ins with the paper's interface sizes)"
    );
    println!("{}", format_table1(&rows));
}
