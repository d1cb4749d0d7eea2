//! The `fall-dist` binary: supervise a distributed key-search farm.
//!
//! ```text
//! fall-dist --locked FILE.bench --oracle FILE.bench
//!           [--workers N] [--partition-bits N]
//!           [--no-steal] [--no-cancel-on-winner]
//!           [--listen HOST:PORT]
//!           [--heartbeat-ms N] [--heartbeat-timeout-ms N] [--lease-timeout-ms N]
//!           [--metrics-out FILE] [--trace-out FILE]
//! ```
//!
//! By default workers are child processes over stdin/stdout pipes (re-execs
//! of this binary).  With `--listen` the supervisor instead waits for
//! `--workers` TCP connections from independently-started workers:
//!
//! ```text
//! fall-dist __fall-dist-worker --connect HOST:PORT
//! ```
//!
//! A region search has no iteration cap: it ends when key confirmation
//! concludes, when the supervisor broadcasts `cancel` (the first winner,
//! unless `--no-cancel-on-winner`), or when it outlasts
//! `--lease-timeout-ms`, which kills the worker and requeues the region.
//!
//! The result is printed as one JSON line (the farm counters gated by the
//! bench suite), plus a human summary on stderr.

use std::net::TcpListener;
use std::time::Duration;

use fall_dist::{farm_over_tcp, maybe_run_worker_process, Farm, FarmConfig, FarmResult};
use netlist::bench_format;
use netshim::Value;

fn usage() -> ! {
    eprintln!(
        "usage: fall-dist --locked FILE.bench --oracle FILE.bench [--workers N] \
         [--partition-bits N] [--no-steal] [--no-cancel-on-winner] [--listen HOST:PORT] \
         [--heartbeat-ms N] [--heartbeat-timeout-ms N] [--lease-timeout-ms N] \
         [--metrics-out FILE] [--trace-out FILE]\n\
         \n\
         worker mode (started by the supervisor, or manually for --listen farms):\n\
         fall-dist __fall-dist-worker [--connect HOST:PORT] [--max-frame BYTES]"
    );
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(text) = args.next() else {
        eprintln!("fall-dist: {flag} requires a value");
        usage();
    };
    let Ok(value) = text.parse() else {
        eprintln!("fall-dist: invalid value {text:?} for {flag}");
        usage();
    };
    value
}

fn result_json(result: &FarmResult) -> String {
    Value::object([
        (
            "key",
            match &result.key {
                Some(key) => Value::from(fall_dist::protocol::bits_to_wire(key.bits())),
                None => Value::Null,
            },
        ),
        ("completed", Value::from(result.completed)),
        ("iterations", Value::from(result.iterations)),
        (
            "unique_oracle_queries",
            Value::from(result.unique_oracle_queries),
        ),
        ("regions", Value::from(result.regions)),
        ("regions_completed", Value::from(result.regions_completed)),
        ("regions_requeued", Value::from(result.regions_requeued)),
        ("regions_stolen", Value::from(result.regions_stolen)),
        ("workers", Value::from(result.workers)),
        ("workers_crashed", Value::from(result.workers_crashed)),
        ("stats_reports", Value::from(result.stats_reports)),
        (
            "solver_stats",
            Value::object(
                result
                    .solver_stats
                    .fields()
                    .iter()
                    .map(|&(name, value)| (name.to_string(), Value::from(value)))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "elapsed_ms",
            Value::from(result.elapsed.as_secs_f64() * 1e3),
        ),
    ])
    .to_string()
}

fn main() {
    maybe_run_worker_process();

    let mut config = FarmConfig::default();
    let mut locked_path: Option<String> = None;
    let mut oracle_path: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--locked" => locked_path = Some(parse_value(&mut args, "--locked")),
            "--oracle" => oracle_path = Some(parse_value(&mut args, "--oracle")),
            "--workers" => config.workers = parse_value(&mut args, "--workers"),
            "--partition-bits" => {
                config.partition_bits = parse_value(&mut args, "--partition-bits");
            }
            "--no-steal" => config.steal = false,
            "--no-cancel-on-winner" => config.cancel_on_winner = false,
            "--listen" => listen = Some(parse_value(&mut args, "--listen")),
            "--heartbeat-ms" => {
                config.heartbeat = Duration::from_millis(parse_value(&mut args, "--heartbeat-ms"));
            }
            "--heartbeat-timeout-ms" => {
                config.heartbeat_timeout =
                    Duration::from_millis(parse_value(&mut args, "--heartbeat-timeout-ms"));
            }
            "--lease-timeout-ms" => {
                config.lease_timeout =
                    Duration::from_millis(parse_value(&mut args, "--lease-timeout-ms"));
            }
            "--metrics-out" => metrics_out = Some(parse_value(&mut args, "--metrics-out")),
            "--trace-out" => trace_out = Some(parse_value(&mut args, "--trace-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fall-dist: unknown flag {other:?}");
                usage();
            }
        }
    }
    let (Some(locked_path), Some(oracle_path)) = (locked_path, oracle_path) else {
        eprintln!("fall-dist: --locked and --oracle are required");
        usage();
    };
    let locked = match std::fs::read_to_string(&locked_path)
        .map_err(|error| error.to_string())
        .and_then(|text| bench_format::parse(&text).map_err(|error| format!("{error:?}")))
    {
        Ok(netlist) => netlist,
        Err(error) => {
            eprintln!("fall-dist: cannot load {locked_path}: {error}");
            std::process::exit(1);
        }
    };
    let oracle = match std::fs::read_to_string(&oracle_path)
        .map_err(|error| error.to_string())
        .and_then(|text| bench_format::parse(&text).map_err(|error| format!("{error:?}")))
    {
        Ok(netlist) => netlist,
        Err(error) => {
            eprintln!("fall-dist: cannot load {oracle_path}: {error}");
            std::process::exit(1);
        }
    };

    if trace_out.is_some() {
        fall::trace::set_enabled(true);
    }

    let result = match listen {
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(listener) => listener,
                Err(error) => {
                    eprintln!("fall-dist: cannot bind {addr}: {error}");
                    std::process::exit(1);
                }
            };
            let local = listener
                .local_addr()
                .expect("bound listener has an address");
            eprintln!(
                "fall-dist supervising on {local}, waiting for {} workers",
                config.workers
            );
            match farm_over_tcp(&locked, &oracle, &listener, &config) {
                Ok(supervisor) => supervisor.wait(),
                Err(error) => {
                    eprintln!("fall-dist: cannot start the farm: {error}");
                    std::process::exit(1);
                }
            }
        }
        None => match Farm::spawn(&locked, &oracle, &config) {
            Ok(farm) => farm.wait(),
            Err(error) => {
                eprintln!("fall-dist: cannot spawn workers: {error}");
                std::process::exit(1);
            }
        },
    };

    eprintln!(
        "fall-dist: {} in {:.2}s — {} unique oracle queries, {}/{} regions completed, \
         {} requeued, {} stolen, {}/{} workers crashed",
        match &result.key {
            Some(_) => "key recovered",
            None if result.completed => "key space exhausted (no key)",
            None => "incomplete",
        },
        result.elapsed.as_secs_f64(),
        result.unique_oracle_queries,
        result.regions_completed,
        result.regions,
        result.regions_requeued,
        result.regions_stolen,
        result.workers_crashed,
        result.workers,
    );
    if let Some(path) = &metrics_out {
        let text = result.metrics().prometheus_text();
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("fall-dist: cannot write {path}: {error}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &trace_out {
        if let Err(error) = std::fs::write(path, fall::trace::chrome_trace_json()) {
            eprintln!("fall-dist: cannot write {path}: {error}");
            std::process::exit(1);
        }
    }
    println!("{}", result_json(&result));
    if !result.completed {
        std::process::exit(3);
    }
}
