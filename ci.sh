#!/usr/bin/env bash
# Local CI gate for the FALL attacks reproduction.
#
# Usage: ./ci.sh [--quick|--bench-smoke]
#   --quick        skip the release build (format/lint/test only)
#   --bench-smoke  run ONLY the benchmark smoke suite: build the bench
#                  harness in release mode, run the trimmed parallel-engine
#                  workloads plus a pipes-mode fall-dist farm smoke (clean
#                  2-worker run and a crash-requeue run, gating the
#                  dist_* counters and the dist_worker_stats_reports
#                  telemetry count) and a flight-recorder-armed SAT attack
#                  (gating the trace_* span counts and exporting the Chrome
#                  trace to BENCH_trace.json), write BENCH_parallel.json,
#                  and fail if any tracked metric regresses >20% against the
#                  checked-in baseline
#                  (crates/bench/baseline/BENCH_parallel.json — the one
#                  canonical copy; the root BENCH_parallel.json is this
#                  run's gitignored output artifact).
#                  Regenerate the baseline with:
#                    cargo run --release -p fall-bench --bin bench_smoke -- --write-baseline
#
# Everything runs offline: external dependencies are vendored as local
# API-compatible stand-ins under crates/compat/ (see crates/compat/README.md).

set -euo pipefail
cd "$(dirname "$0")"

quick=0
bench_smoke=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --bench-smoke) bench_smoke=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

if [ "$bench_smoke" -eq 1 ]; then
    echo "==> cargo run --release -p fall-bench --bin bench_smoke"
    cargo run --release -p fall-bench --bin bench_smoke -- \
        --baseline crates/bench/baseline/BENCH_parallel.json \
        --out BENCH_parallel.json \
        --trace-out BENCH_trace.json
    echo "BENCH SMOKE OK"
    exit 0
fi

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: rustdoc must build warning-free (broken intra-doc
# links, bad code fences, missing docs on public items all fail the build).
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The runnable walkthroughs under examples/ must keep compiling; they are
# documentation too (quickstart, serve_client, ...).
echo "==> cargo build --examples"
cargo build --examples

# perfbench/ (the paper-scale benchmark) is a workspace of its own, so the
# workspace clippy/test runs above never build it.  Type-check it against the
# library crates it depends on by path, so an API change breaks CI rather
# than only the benchmark.  The build output goes under target/, so nothing
# is written into perfbench/.
echo "==> cargo check --release --manifest-path perfbench/Cargo.toml"
cargo check --release --offline --locked --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The frame-scoped-predicate correctness story: the differential + property
# suites proving a recycled per-worker session is observationally equivalent
# to a fresh session per region.  Part of the workspace run above; re-run
# explicitly so a failure is attributed to the session-reuse machinery.
echo "==> cargo test -q --test session_reuse --test parallel_engine"
cargo test -q --test session_reuse --test parallel_engine

# The clause-arena and inprocessing correctness story: GC forced at every
# conflict must be status-identical to GC disabled, bounded variable
# elimination forced at every simplify checkpoint must be status-identical to
# elimination disabled (with reconstructed models satisfying the original
# clauses), and 100 retired predicate generations must hold variable count
# and arena bytes flat.  Also part of the workspace run; re-run explicitly so
# a failure is attributed to the arena/GC/eliminator machinery.
echo "==> cargo test -q --test gc_differential"
cargo test -q --test gc_differential

# The modern-CDCL-core unit story: LBD tier accounting, EMA restart
# forcing/blocking, adaptive strategy classification and the eliminator's
# freeze/resurrect/model-reconstruction invariants live in the sat crate's
# unit tests; re-run them explicitly so a failure is attributed to the
# solver core rather than an attack-level suite.
echo "==> cargo test -q -p sat --lib"
cargo test -q -p sat --lib

# The stripper-verdict correctness story: fall_attack's shortlist, status,
# analyses_used and prefilter counters must equal a sweep that runs every
# analysis and equivalence check on a fresh session (seeded TTLock/SFLL-HDh
# netlists x h, with and without the equivalence check), a proven or refuted
# candidate must answer with zero extra solves, and nothing may be recorded
# at 2h = m or from an interrupted solve.  Also part of the workspace run;
# re-run explicitly so a failure is attributed to the session's verdicts.
echo "==> cargo test -q -p fall --lib stripper_verdicts"
cargo test -q -p fall --lib stripper_verdicts

# The prefilter-cache correctness story: the session's cached cofactor
# verdicts and distance sweep must equal the per-call sweeping reference for
# every node x input position (random, TTLock- and SFLL-locked netlists),
# and a warm cache must answer with zero sweeps.  Also part of the workspace
# run; re-run explicitly so a failure is attributed to the prefilter cache.
echo "==> cargo test -q -p fall --lib prefilter"
cargo test -q -p fall --lib prefilter

# The metrics story: one MetricReport type (fall::metrics) serves every
# metric surface (serve's metrics op, the fall-dist farm, the flight
# recorder, the bench gate's baseline), with one Prometheus renderer and one
# JSON codec (fall_serve::protocol::MetricJson).  Reports must round-trip
# through both the Value and the text codec, names with quotes, backslashes,
# newlines and non-ASCII characters included; \u escapes must decode;
# malformed input must name the offending metric or field.  Also part of the
# workspace run; re-run explicitly so a failure is attributed to the metrics
# module or its codec.
echo "==> cargo test -q -p fall --lib metrics"
cargo test -q -p fall --lib metrics
echo "==> cargo test -q -p fall-serve --lib metric_json"
cargo test -q -p fall-serve --lib metric_json

# The wide-simulation correctness story: the W-word blocked engine must match
# the scalar reference bit for bit for W in {1,2,4,8}, the batched oracle
# transport must leave the attack trajectory untouched, and the word-batched
# confirmation prescreen must confirm the same key as the plain run.  Also
# part of the workspace run; re-run explicitly so a failure is attributed to
# the wide-sim machinery.
echo "==> cargo test -q --test wide_sim"
cargo test -q --test wide_sim

# The distributed-farm correctness story: pipes and TCP farms recover the
# serial key with bounded cross-process oracle traffic, a SIGKILLed or hung
# worker's lease requeues and a survivor finishes, and drain-all counters
# reproduce exactly. Also part of the workspace run; re-run explicitly so a
# failure is attributed to the fall-dist supervisor/worker machinery.
echo "==> cargo test -q -p fall-dist --test farm"
cargo test -q -p fall-dist --test farm

# The observability story: a flight-recorder-armed SAT attack must export a
# structurally valid Chrome trace document (parsed back through netshim:
# complete events only, non-negative timestamps, per-thread spans properly
# nested) whose span counts match the attack's own iteration/query counters,
# and a disabled recorder must record nothing. Also part of the workspace
# run; re-run explicitly so a failure is attributed to the tracing layer.
echo "==> cargo test -q -p fall-bench --test trace_validate"
cargo test -q -p fall-bench --test trace_validate

echo "CI OK"
