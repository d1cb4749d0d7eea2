#!/usr/bin/env bash
# Local CI gate for the FALL attacks reproduction.
#
# Usage: ./ci.sh [--quick|--bench-smoke]
#   --quick        skip the release build (format/lint/test only)
#   --bench-smoke  run ONLY the benchmark smoke suite: build the bench
#                  harness in release mode, run the trimmed partitioned key
#                  search (one session draining 4 and then 8 regions,
#                  gating the parallel_1w_* counters and
#                  cone_encodings_built) plus a pipes-mode fall-dist farm
#                  smoke (clean 2-worker run and a crash-requeue run, gating the
#                  dist_* counters and the dist_worker_stats_reports
#                  telemetry count), paper-scale TTLock FALL attacks on des
#                  (m = 64; gating fall_des_h0_unique_correct_key,
#                  fall_des_h0_comparators = 64, fall_des_h0_sat_solves and
#                  fall_des_h0_prefilter_refuted, higher is better)
#                  and on apex4 (m = 10; gating
#                  fall_apex4_h0_unique_correct_key,
#                  fall_apex4_h0_sat_solves = 0 and
#                  fall_apex4_h0_cone_encodings = 0), a paper-scale SFLL-HD m/3
#                  FALL attack on c432 (gating the fall_c432_m3_* key, solve
#                  and conflict counters) and a flight-recorder-armed SAT attack
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

# The workspace clippy, build and test steps run with --offline --locked,
# as the perfbench check below does: a manifest edit that would rewrite
# Cargo.lock fails CI instead of silently updating the lock file.
echo "==> cargo clippy --offline --locked --workspace --all-targets -- -D warnings"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

# Documentation gate: rustdoc must build warning-free (broken intra-doc
# links, bad code fences, missing docs on public items all fail the build).
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The runnable walkthroughs under examples/ must keep compiling; they are
# documentation too (quickstart, serve_client, ...).
echo "==> cargo build --offline --locked --examples"
cargo build --offline --locked --examples

# perfbench/ (the paper-scale benchmark) is a workspace of its own, so the
# workspace clippy/test runs above never build it.  Type-check it against the
# library crates it depends on by path, so an API change breaks CI rather
# than only the benchmark.  The build output goes under target/, so nothing
# is written into perfbench/.
echo "==> cargo check --release --manifest-path perfbench/Cargo.toml"
cargo check --release --offline --locked --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --offline --locked --release"
    cargo build --offline --locked --release
    # One walkthrough is also run, not only built: it stops an SFLL SAT
    # attack by raising the session's interrupt flag from the oracle's
    # 100th answer, then confirms a FALL shortlist (about a second).
    echo "==> cargo run --offline --locked --release --example sat_attack_baseline"
    cargo run --offline --locked --release --example sat_attack_baseline
fi

echo "==> cargo test --offline --locked -q --workspace"
cargo test --offline --locked -q --workspace

# The frame-scoped-predicate correctness story: the differential + property
# suites proving a recycled session is observationally equivalent to a fresh
# session per region, and that the one-session partitioned key search finds
# an equivalent key with no more unique oracle queries than a fresh session
# per region (plus one).  Part of the workspace run above; re-run explicitly
# so a failure is attributed to the session-reuse machinery.
echo "==> cargo test --offline --locked -q --test session_reuse --test parallel_engine"
cargo test --offline --locked -q --test session_reuse --test parallel_engine

# The clause-arena and inprocessing correctness story: GC forced at every
# conflict must be status-identical to GC disabled, bounded variable
# elimination forced at every simplify checkpoint must be status-identical to
# elimination disabled (with reconstructed models satisfying the original
# clauses, also after a post-solve simplify or resurrection changes the
# elimination stack), and 100 retired predicate generations must hold
# variable count and arena bytes flat.  Also part of the workspace run;
# re-run explicitly so a failure is attributed to the arena/GC/eliminator
# machinery.
echo "==> cargo test --offline --locked -q --test gc_differential"
cargo test --offline --locked -q --test gc_differential

# The modern-CDCL-core unit story: LBD tier accounting, EMA restart
# forcing/blocking, adaptive strategy classification, the eliminator's
# freeze/resurrect invariants and its deferred model reconstruction (every
# read against an eager reference walk, no walk for frozen-only reads) live
# in the sat crate's unit tests; re-run them explicitly so a failure is
# attributed to the solver core rather than an attack-level suite.
echo "==> cargo test --offline --locked -q -p sat --lib"
cargo test --offline --locked -q -p sat --lib

# The stripper-verdict correctness story: fall_attack's shortlist, status,
# analyses_used and prefilter counters must equal a sweep that runs every
# analysis and equivalence check on a fresh session (seeded TTLock/SFLL-HDh
# netlists x h), a proven or refuted candidate must answer with zero extra
# solves, and nothing may be recorded at 2h = m or from an interrupted solve.
# Also part of the workspace run; re-run explicitly so a failure is
# attributed to the session's verdicts.
echo "==> cargo test --offline --locked -q -p fall --lib stripper_verdicts"
cargo test --offline --locked -q -p fall --lib stripper_verdicts

# The cube-proposal correctness story: one sweep of every assignment of a
# support of up to 12 inputs must decide each node at each h exactly as its
# brute-force truth table does (seeded random netlists plus strippers of
# every width from 1 to 12, plain and strashed, every h in 0..=m), with no
# solve and nothing recorded at 2h = m, and agree with the equivalence
# check; an m = 13 stripper takes the SAT-backed fallback paths.  Also part
# of the workspace run; re-run explicitly so a failure is attributed to the
# enumeration.
echo "==> cargo test --offline --locked -q -p fall --lib enumeration_matches_truth_tables"
cargo test --offline --locked -q -p fall --lib enumeration_matches_truth_tables

# The prefilter-cache correctness story: the session's cached cofactor
# verdicts and distance sweep must equal the per-call sweeping reference for
# every node x input position (random, TTLock- and SFLL-locked netlists),
# and a warm cache must answer with zero sweeps.  Also part of the workspace
# run; re-run explicitly so a failure is attributed to the prefilter cache.
echo "==> cargo test --offline --locked -q -p fall --lib prefilter"
cargo test --offline --locked -q -p fall --lib prefilter

# The warm-session story: fall_attack_in on one long-lived session must
# match a fresh fall_attack per call (TTLock and SFLL-HD h = 1..3, the
# lock's h and a wrong one, with and without an oracle) in status,
# shortlist, analyses_used and confirmed key, and a repeated call must make
# no cone solve; a confirmation on a pooled session must run the same
# iterations and oracle queries whether or not FALL jobs ran before it; and
# the bitset support table must match per-node support() on random, TTLock-
# and SFLL-locked netlists, with the structural stages' outputs unchanged.
# Also part of the workspace run; re-run explicitly so a failure is
# attributed to the warm FALL path.
echo "==> cargo test --offline --locked -q -p fall --lib warm_session"
cargo test --offline --locked -q -p fall --lib warm_session

# The metrics story: one MetricReport type (fall::metrics) serves every
# metric surface (serve's metrics op, the fall-dist farm, the flight
# recorder, the bench gate's baseline), with one Prometheus renderer and one
# JSON codec (fall_serve::protocol::MetricJson).  Reports must round-trip
# through both the Value and the text codec, names with quotes, backslashes,
# newlines and non-ASCII characters included; \u escapes must decode;
# malformed input must name the offending metric or field.  Also part of the
# workspace run; re-run explicitly so a failure is attributed to the metrics
# module or its codec.
echo "==> cargo test --offline --locked -q -p fall --lib metrics"
cargo test --offline --locked -q -p fall --lib metrics
echo "==> cargo test --offline --locked -q -p fall-serve --lib metric_json"
cargo test --offline --locked -q -p fall-serve --lib metric_json

# The wide-simulation correctness story: the W-word blocked engine must match
# the scalar reference bit for bit for W in {1,2,4,8}, and the one-word
# engine must match the fresh-allocation baseline.  Also part of the
# workspace run; re-run explicitly so a failure is attributed to the
# wide-sim machinery.
echo "==> cargo test --offline --locked -q --test wide_sim"
cargo test --offline --locked -q --test wide_sim

# The distributed-farm correctness story: pipes and TCP farms recover the
# serial key with bounded cross-process oracle traffic, a SIGKILLed or hung
# worker's lease requeues and a survivor finishes, and drain-all counters
# reproduce exactly. Also part of the workspace run; re-run explicitly so a
# failure is attributed to the fall-dist supervisor/worker machinery.
echo "==> cargo test --offline --locked -q -p fall-dist --test farm"
cargo test --offline --locked -q -p fall-dist --test farm

# The observability story: a flight-recorder-armed SAT attack must export a
# structurally valid Chrome trace document (parsed back through netshim:
# complete events only, non-negative timestamps, per-thread spans properly
# nested) whose span counts match the attack's own iteration/query counters,
# and a disabled recorder must record nothing. Also part of the workspace
# run; re-run explicitly so a failure is attributed to the tracing layer.
echo "==> cargo test --offline --locked -q -p fall-bench --test trace_validate"
cargo test --offline --locked -q -p fall-bench --test trace_validate

# The stop story: the session interrupt flag is the only way to stop an
# attack early.  A flag fired by a timer must end the SAT attack as
# Interrupted; a flag raised from the oracle's n-th answer must stop the SAT
# attack and key confirmation after exactly n iterations; a fired flag, the
# config's or the session's own, must leave key confirmation and FALL
# results marked unfinished (completed: false); the same flag must end a
# region drain as Cancelled without acknowledging the region it stopped;
# and the bench Runner's per-attack timer must cut a paper-scale c432 h = m/3
# SlidingWindow run at its 500 ms budget without counting it as a defeat.
# Also part of the workspace run; re-run explicitly so a failure is
# attributed to the stop mechanism.
echo "==> cargo test --offline --locked -q -p fall-bench --lib runner"
cargo test --offline --locked -q -p fall-bench --lib runner
echo "==> cargo test --offline --locked -q -p fall --lib interrupt"
cargo test --offline --locked -q -p fall --lib interrupt

# The hostile-input story: seeded mutations of valid frames (bit flips,
# truncation, splicing, deep nesting, hostile numbers) fed to the netshim
# JSON parser, both fall-dist line protocols and the farm telemetry decoder,
# the .bench reader and a loopback fall-serve server must each get Ok or a
# typed error (an error frame on the wire), with no panic on any thread, and
# the server must still run a valid SAT attack afterwards.  Also part of the
# workspace run; re-run explicitly so a failure is attributed to input
# validation.
echo "==> cargo test --offline --locked -q --test wire_fuzz"
cargo test --offline --locked -q --test wire_fuzz

# The spec story: docs/PROTOCOL.md is the normative wire specification, so
# its two "Protocol version" lines must equal both PROTOCOL_VERSION
# constants, its job-event status row must list exactly the JobStatus wire
# names and its `complete` row exactly the RegionOutcome names.  Also part
# of the workspace run; re-run explicitly so a failure is attributed to the
# document, not the code.
echo "==> cargo test --offline --locked -q --test protocol_doc"
cargo test --offline --locked -q --test protocol_doc

echo "CI OK"
