//! Paper-scale benchmark of the FALL attack stack.
//!
//! ```text
//! fall-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in this (fresh) process from locked netlist to
//! verified key and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the `end_to_end` ones of `BENCHMARK.json`; with `--trace 1`
//! a separate traced run reports its `per_layer` ones.  Ledger rows go to
//! stdout (one JSON line each, before the result) and, with the notes, to
//! `.bench_out/<workload>-seed<N>-trace<T>.json`.  See `README.md` beside
//! this crate for the workloads and the metric map.

mod batch;
mod farm;
mod report;
mod serve;
mod sys;

use std::process::ExitCode;

use netshim::Value;

use report::Report;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["ttlock_paper", "sfll_paper", "serve_mixed", "farm_regions"];

/// Parsed command line.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: lock seeds, decoys and job order derive from it.
    pub seed: u64,
    /// Measured-phase budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn write_artifact(args: &Args, report: &Report, result: &Value) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let notes = Value::object(report.notes.iter().map(|(k, v)| (*k, v.clone())));
    let document = Value::object([
        ("workload", Value::from(args.workload.as_str())),
        ("seed", Value::from(args.seed)),
        ("trace", Value::from(args.trace)),
        ("result", result.clone()),
        (
            "errors",
            Value::Array(
                report
                    .errors
                    .iter()
                    .map(|e| Value::from(e.as_str()))
                    .collect(),
            ),
        ),
        ("notes", notes),
        ("ledger", Value::Array(report.ledger.clone())),
    ]);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(path, format!("{document}\n"))
}

fn main() -> ExitCode {
    // Farm workers are re-execs of this binary.
    fall_dist::maybe_run_worker_process();

    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fall-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "ttlock_paper" => batch::run(batch::Grid::Ttlock, &args, &mut report),
        "sfll_paper" => batch::run(batch::Grid::Sfll, &args, &mut report),
        "serve_mixed" => serve::run(&args, &mut report),
        "farm_regions" => farm::run(&args, &mut report),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
    if !args.trace {
        report.set("peak_rss_mb", sys::peak_rss_mb());
        report.set("solved_frac", report.solved_frac());
    }
    for error in &report.errors {
        eprintln!("fall-perfbench: error: {error}");
    }
    for row in &report.ledger {
        println!("{}", Value::object([("ledger", row.clone())]));
    }
    let notes = Value::object(report.notes.iter().map(|(k, v)| (*k, v.clone())));
    println!("{}", Value::object([("notes", notes)]));
    let result = report.result_line(args.trace);
    if let Err(error) = write_artifact(&args, &report, &result) {
        eprintln!("fall-perfbench: cannot write .bench_out: {error}");
        return ExitCode::from(1);
    }
    println!("{result}");
    if report.errors.is_empty() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
