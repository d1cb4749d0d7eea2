//! Fast benchmark smoke run for the CI regression gate.
//!
//! Runs trimmed versions of the partitioned-key-search, farm, serve and
//! simulation workloads, writes the measured metrics as
//! `BENCH_parallel.json` (a [`MetricReport`]) and compares them against a
//! checked-in baseline:
//!
//! ```text
//! bench_smoke [--baseline PATH] [--out PATH] [--write-baseline] [--tolerance F]
//!             [--trace-out PATH]
//! ```
//!
//! With `--write-baseline`, the baseline file is (re)written from this run
//! instead of being compared against.  Exit status 1 means at least one
//! tracked metric regressed beyond the tolerance.  With `--trace-out`, the
//! flight-recorder events captured during the single-SAT-attack section are
//! written as a Chrome trace-event JSON document (loadable in Perfetto; see
//! `docs/OBSERVABILITY.md`).
//!
//! Two classes of metric are reported:
//!
//! * deterministic counters (oracle queries, iterations, cone sizes, the
//!   `cone_encodings_built` counter of the frame-scoped-predicate search,
//!   and the clause-arena memory counters — `*_arena_bytes`/`*_gc_runs`/
//!   `*_recycled_vars` from the single-session workloads (the
//!   `parallel_1w_*` partitioned search reads them from
//!   `PartitionedSearchResult::solver_stats`), including the 100-generation
//!   long-lived-session run, the conflicts and arena bytes `fall_h0_*` of
//!   the h = 0 FALL attack's session, the unique correct key, the
//!   comparator count, the solves and the prefilter refutations
//!   `fall_des_h0_*` of a paper-scale TTLock attack (des, m = 64), the
//!   unique correct key, the solves and the cone encodings
//!   `fall_apex4_h0_*` of a paper-scale TTLock attack (apex4, m = 10), the
//!   solves and conflicts
//!   `fall_c432_m3_*` of a paper-scale SFLL-HD m/3 attack (c432, m = 36,
//!   h = 12) and its unique correct key, the flight-recorder span counts
//!   `trace_*` from the traced single SAT attack, and the farm
//!   telemetry-report count `dist_worker_stats_reports`) — gated at the
//!   tolerance (default 20 %);
//!   any `*_s`/`*speedup*` metric that does land in a baseline gets a 3x
//!   band;
//! * `info_*` metrics (absolute seconds, single-shot speedup ratios,
//!   scheduler-dependent counts) — reported for humans and uploaded as a CI
//!   artifact, but excluded from the baseline: neither absolute timings nor
//!   one-shot ratios are comparable across machines or runs.

use std::process::ExitCode;
use std::time::Instant;

use fall::attack::{fall_attack, fall_attack_in, FallAttackConfig, FallStatus};
use fall::functional::PrefilterStats;
use fall::key_confirmation::key_confirmation_in;
use fall::metrics::MetricReport;
use fall::oracle::{CountingOracle, SimOracle};
use fall::parallel::partitioned_key_search;
use fall::sat_attack::sat_attack;
use fall::session::AttackSession;
use fall_bench::{regressions_against, HdPolicy, LockCase, Scale, TABLE1_CIRCUITS};
use fall_serve::protocol::MetricJson;
use locking::{LockingScheme, SfllHd, TtLock, XorLock};
use netlist::cnf::KeyCone;
use netlist::random::{generate, RandomCircuitSpec};
use netlist::WideSim;
use netshim::Value;

// Two partition bits keep the whole smoke fast.
const PARTITION_BITS: usize = 2;
// The frame-scoped-predicate acceptance workload: 8 regions on one session,
// whose reuse (exactly one full encoding, not 8) is measured by a
// deterministic counter.
const WIDE_PARTITION_BITS: usize = 3;

struct Options {
    baseline: String,
    out: String,
    write_baseline: bool,
    tolerance: f64,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        baseline: "crates/bench/baseline/BENCH_parallel.json".to_string(),
        out: "BENCH_parallel.json".to_string(),
        write_baseline: false,
        tolerance: 0.2,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => options.baseline = value("--baseline")?,
            "--out" => options.out = value("--out")?,
            "--write-baseline" => options.write_baseline = true,
            "--tolerance" => {
                options.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance expects a number".to_string())?
            }
            "--trace-out" => options.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn measure() -> MetricReport {
    let mut report = MetricReport::new();

    // ---- Partitioned key search on a Table 1 workload ---------------------
    // ex1010 at the scaled size: 10-bit key, TTLock (HD0) — the
    // SAT-attack-resilient case where region partitioning matters.
    let case = LockCase::build(&TABLE1_CIRCUITS[0], HdPolicy::Zero, Scale::Scaled);
    let locked = &case.locked.locked;
    let oracle = SimOracle::new(case.locked.original.clone());

    let cone = KeyCone::of(locked);
    report.record("key_cone_gates", cone.num_gates() as f64, false);

    let t = Instant::now();
    let search = partitioned_key_search(locked, &oracle, PARTITION_BITS);
    report.record(
        "info_partitioned_search_s",
        t.elapsed().as_secs_f64(),
        false,
    );
    assert!(
        search.completed && search.key.is_some(),
        "partitioned search"
    );
    // One session drains the regions in order, so every counter is
    // deterministic.  The `parallel_1w_` names are kept so the checked-in
    // baseline values stay comparable across the rename of the engine.
    report.record(
        "parallel_1w_unique_oracle_queries",
        search.oracle_queries as f64,
        false,
    );
    // The solver's memory counters: the arena footprint after draining every
    // region, and how much the GC + variable recycling reclaimed.
    let sat = &search.solver_stats;
    report.record("parallel_1w_arena_bytes", sat.arena_bytes as f64, false);
    report.record("parallel_1w_gc_runs", sat.gc_runs as f64, false);
    report.record("parallel_1w_recycled_vars", sat.recycled_vars as f64, false);
    // Search-effort counters of the modern CDCL core (tiered reduction, EMA
    // restarts, bounded variable elimination): how many conflicts and
    // propagated literals the whole region sweep costs, and how often the
    // tiered learnt-database reduction ran.  Baseline-gated so a heuristic
    // regression that silently blows up search effort fails the smoke even
    // when wall-clock noise would hide it.
    report.record("parallel_1w_conflicts", sat.conflicts as f64, false);
    report.record("parallel_1w_propagations", sat.propagations as f64, false);
    report.record("parallel_1w_reductions", sat.reductions as f64, false);

    // ---- Frame-scoped predicate reuse: 8 regions on one session -----------
    // The session rebinds ϕ per region, so the circuit is encoded once
    // (deterministic: the session is primed before the first region).
    let t = Instant::now();
    let wide = partitioned_key_search(locked, &oracle, WIDE_PARTITION_BITS);
    report.record(
        "info_partitioned_8regions_s",
        t.elapsed().as_secs_f64(),
        false,
    );
    assert!(
        wide.completed && wide.key.is_some(),
        "8-region partitioned search"
    );
    report.record(
        "cone_encodings_built",
        wide.cone_encodings_built as f64,
        false,
    );

    // ---- Long-lived session: bounded memory across 100 generations --------
    // One AttackSession runs 100 whole key-confirmation runs back to back
    // (alternating confirming and rejecting shortlists).  The flat clause
    // arena plus variable recycling must hold the variable count exactly
    // flat after warm-up and keep the arena bounded; all four counters are
    // deterministic (single-threaded) and baseline-tracked.
    let ll_original = generate(&RandomCircuitSpec::new("smoke_longlived", 8, 2, 50));
    let ll_locked = XorLock::new(5)
        .with_seed(4)
        .lock(&ll_original)
        .expect("lock");
    let ll_oracle = SimOracle::new(ll_original);
    let mut ll_session = AttackSession::new(&ll_locked.locked);
    const LL_WARMUP: usize = 10;
    const LL_GENERATIONS: usize = 100;
    let mut ll_warm_vars = 0usize;
    let mut ll_warm_arena = 0u64;
    let t = Instant::now();
    for generation in 0..LL_GENERATIONS {
        let shortlist = if generation % 2 == 0 {
            vec![ll_locked.key.clone(), ll_locked.key.complement()]
        } else {
            vec![ll_locked.key.complement()]
        };
        let result = key_confirmation_in(&mut ll_session, &ll_oracle, &shortlist);
        assert!(
            result.completed && result.key.is_some() == (generation % 2 == 0),
            "long-lived generation {generation}"
        );
        if generation + 1 == LL_WARMUP {
            ll_warm_vars = ll_session.num_vars();
            ll_warm_arena = ll_session.stats().arena_bytes;
        }
    }
    report.record("info_longlived_100gen_s", t.elapsed().as_secs_f64(), false);
    let ll_stats = ll_session.stats();
    assert_eq!(
        ll_session.num_vars(),
        ll_warm_vars,
        "variable count must be flat after warm-up \
         (generation N + 1 reuses generation N's recycled variables)"
    );
    assert!(
        ll_stats.arena_bytes <= ll_warm_arena * 2,
        "the clause arena must stay flat after warm-up: {ll_warm_arena} bytes \
         at generation {LL_WARMUP}, {} at generation {LL_GENERATIONS}",
        ll_stats.arena_bytes
    );
    report.record("longlived_100gen_vars", ll_session.num_vars() as f64, false);
    report.record(
        "longlived_100gen_arena_bytes",
        ll_stats.arena_bytes as f64,
        false,
    );
    report.record("longlived_100gen_gc_runs", ll_stats.gc_runs as f64, false);
    report.record(
        "longlived_100gen_recycled_vars",
        ll_stats.recycled_vars as f64,
        false,
    );

    // ---- Warm confirmation: a settled shortlist asks the oracle nothing ----
    // A session keeps every oracle answer it was shown, so confirming the
    // same shortlist again is decided by the first run's observations
    // alone: the repeat must make zero oracle queries (gated at 0).
    {
        let counting = CountingOracle::new(oracle.clone());
        let shortlist = [case.locked.key.complement(), case.locked.key.clone()];
        let mut session = AttackSession::new(locked);
        let cold = key_confirmation_in(&mut session, &counting, &shortlist);
        let warm = key_confirmation_in(&mut session, &counting, &shortlist);
        assert!(
            cold.key == Some(case.locked.key.clone()) && warm.key == cold.key,
            "warm confirmation"
        );
        assert_eq!(counting.queries(), cold.iterations + warm.iterations);
        report.record(
            "info_warm_confirm_first_oracle_queries",
            cold.iterations as f64,
            false,
        );
        report.record(
            "warm_confirm_repeat_oracle_queries",
            warm.iterations as f64,
            false,
        );
    }

    // ---- Wide bit-parallel simulation throughput --------------------------
    // The 8-word blocked engine versus the 64-way per-call-allocating
    // baseline (`node_words_fresh`) over an identical 32768-pattern budget.
    // The ratio is gated two ways: the in-run assert requires >= 2x on any
    // machine (the ISSUE acceptance floor — the blocked engine amortises the
    // per-gate dispatch over 8 words and allocates nothing per sweep), and
    // the baseline comparison applies the wall-clock 3x band because single
    // shot ratios jitter with the scheduler.
    let ws_nl = generate(&RandomCircuitSpec::new("smoke_widesim", 16, 4, 600));
    const WS_WORDS: usize = 8;
    const WS_SWEEPS: usize = 64; // 64 sweeps x 8 words x 64 bits = 32768 patterns
    let mut ws_state = 0x5EED_F00Du64;
    let wide_stimuli: Vec<Vec<u64>> = (0..WS_SWEEPS)
        .map(|_| {
            (0..ws_nl.num_inputs() * WS_WORDS)
                .map(|_| splitmix64(&mut ws_state))
                .collect()
        })
        .collect();
    // The same patterns re-blocked for the one-word baseline.
    let mut scalar_stimuli: Vec<Vec<u64>> = Vec::with_capacity(WS_SWEEPS * WS_WORDS);
    for block in &wide_stimuli {
        for lane in 0..WS_WORDS {
            scalar_stimuli.push(
                (0..ws_nl.num_inputs())
                    .map(|pin| block[pin * WS_WORDS + lane])
                    .collect(),
            );
        }
    }
    let mut best_fresh = f64::INFINITY;
    let mut best_wide = f64::INFINITY;
    let mut fresh_checksum = 0u64;
    let mut wide_checksum = 0u64;
    for _ in 0..3 {
        let t = Instant::now();
        let mut acc = 0u64;
        for stimulus in &scalar_stimuli {
            let values = ws_nl.node_words_fresh(stimulus, &[]).expect("widths");
            for &(_, id) in ws_nl.outputs() {
                acc ^= values[id.index()];
            }
        }
        best_fresh = best_fresh.min(t.elapsed().as_secs_f64());
        fresh_checksum = acc;

        let t = Instant::now();
        let mut acc = 0u64;
        let mut sim = WideSim::new(&ws_nl, WS_WORDS);
        for block in &wide_stimuli {
            sim.run(&ws_nl, block, &[]).expect("widths");
            for &(_, id) in ws_nl.outputs() {
                for &word in sim.node(id) {
                    acc ^= word;
                }
            }
        }
        best_wide = best_wide.min(t.elapsed().as_secs_f64());
        wide_checksum = acc;
    }
    assert_eq!(
        fresh_checksum, wide_checksum,
        "wide and baseline engines must simulate identical patterns"
    );
    let patterns = (WS_SWEEPS * WS_WORDS * 64) as f64;
    let ws_speedup = best_fresh / best_wide;
    report.record("wide_sim_speedup_8w_vs_fresh", ws_speedup, true);
    report.record(
        "info_wide_sim_mpatterns_per_s",
        patterns / best_wide / 1e6,
        true,
    );
    assert!(
        ws_speedup >= 2.0,
        "wide engine must be at least 2x the 64-way baseline, measured {ws_speedup:.2}x"
    );

    // ---- Wide prefilters + batched oracle path ----------------------------
    // Deterministic counters from full seeded attacks: how many SAT queries
    // the word-parallel prefilters refuted (h = 0 exercises the unateness
    // filter, h = 1 the Hamming-distance filter) and how much random
    // simulation they spent doing it.
    let wp_original = generate(&RandomCircuitSpec::new("smoke_wide_attack", 14, 3, 90));
    let wp_tt = TtLock::new(10)
        .with_seed(31)
        .lock(&wp_original)
        .expect("lock")
        .optimized();
    let wp_hd = SfllHd::new(10, 1)
        .with_seed(8)
        .lock(&wp_original)
        .expect("lock")
        .optimized();
    let t = Instant::now();
    let mut tt_session = AttackSession::new(&wp_tt.locked);
    let tt_result = fall_attack_in(&mut tt_session, None, &FallAttackConfig::for_h(0));
    let hd_result = fall_attack(&wp_hd.locked, None, &FallAttackConfig::for_h(1));
    report.record("info_fall_attacks_s", t.elapsed().as_secs_f64(), false);
    assert!(tt_result.status.is_success(), "TTLock attack");
    assert!(hd_result.status.is_success(), "SFLL-HD1 attack");
    // The h = 0 attack's SAT work and clause footprint: its distance-0
    // references are ANDs over input equalities, so a popcount network
    // over every input would show up in both.
    let tt_stats = tt_session.stats();
    report.record("fall_h0_sat_conflicts", tt_stats.conflicts as f64, false);
    report.record("fall_h0_arena_bytes", tt_stats.arena_bytes as f64, false);
    let mut prefilter = PrefilterStats::default();
    prefilter.merge(&tt_result.prefilter);
    prefilter.merge(&hd_result.prefilter);
    assert!(
        prefilter.patterns_simulated > 0,
        "attacks must exercise the wide prefilters"
    );
    report.record("prefilter_refuted", prefilter.total_refuted() as f64, false);
    report.record(
        "prefilter_patterns_simulated",
        prefilter.patterns_simulated as f64,
        false,
    );

    // ---- Paper-scale TTLock attacks -----------------------------------------
    // des at h = 0 (m = 64), the largest Table I circuit: the structural
    // stage's one-sweep comparator classifier must pair all 64 key inputs,
    // and the attack must shortlist exactly the correct key.  Each candidate
    // costs at most one witness solve before the analyses answer from its
    // verdict, so the session's solves are gated too.  So are the prefilter
    // refutations (higher is better): its cofactor sweeps cover only the
    // candidates' fan-in cones, and no refutation may be lost there.
    let des = TABLE1_CIRCUITS
        .iter()
        .find(|spec| spec.name == "des")
        .expect("Table I circuit");
    let des_case = LockCase::build(des, HdPolicy::Zero, Scale::Paper);
    let t = Instant::now();
    let mut des_session = AttackSession::new(&des_case.locked.locked);
    let des_result = fall_attack_in(&mut des_session, None, &FallAttackConfig::for_h(0));
    report.record("info_fall_des_h0_s", t.elapsed().as_secs_f64(), false);
    let des_unique_correct = des_result.status == FallStatus::UniqueKey
        && des_result.best_key() == Some(&des_case.locked.key);
    report.record(
        "fall_des_h0_unique_correct_key",
        f64::from(u8::from(des_unique_correct)),
        true,
    );
    report.record(
        "fall_des_h0_comparators",
        des_result.num_comparators as f64,
        true,
    );
    report.record(
        "fall_des_h0_sat_solves",
        des_session.stats().solves as f64,
        false,
    );
    report.record(
        "fall_des_h0_prefilter_refuted",
        des_result.prefilter.total_refuted() as f64,
        true,
    );
    assert!(des_unique_correct, "des h = 0: {des_result:?}");
    assert_eq!(des_result.num_comparators, 64, "des h = 0 comparators");
    // apex4 at h = 0 (m = 10, about 2 000 candidates): one enumeration sweep
    // decides every candidate, so the attack makes no solve at all, and the
    // analyses answer from the verdicts without encoding a cone.
    let apex4 = TABLE1_CIRCUITS
        .iter()
        .find(|spec| spec.name == "apex4")
        .expect("Table I circuit");
    let apex4_case = LockCase::build(apex4, HdPolicy::Zero, Scale::Paper);
    let t = Instant::now();
    let mut apex4_session = AttackSession::new(&apex4_case.locked.locked);
    let apex4_result = fall_attack_in(&mut apex4_session, None, &FallAttackConfig::for_h(0));
    report.record("info_fall_apex4_h0_s", t.elapsed().as_secs_f64(), false);
    let apex4_unique_correct = apex4_result.status == FallStatus::UniqueKey
        && apex4_result.best_key() == Some(&apex4_case.locked.key);
    report.record(
        "fall_apex4_h0_unique_correct_key",
        f64::from(u8::from(apex4_unique_correct)),
        true,
    );
    report.record(
        "fall_apex4_h0_sat_solves",
        apex4_session.stats().solves as f64,
        false,
    );
    report.record(
        "fall_apex4_h0_cone_encodings",
        apex4_session.cone_encodings_built() as f64,
        false,
    );
    assert!(apex4_unique_correct, "apex4 h = 0: {apex4_result:?}");

    // ---- Paper-scale SFLL-HD m/3 attack -------------------------------------
    // c432 at h = m/3 (m = 36, h = 12): the cube proposal by simulation
    // settles the stripper, so the equivalence check is the attack's SAT
    // work.  Gated: a unique, correct key and the session's solves and
    // conflicts (no oracle, so only the cone solver solves).
    let c432 = TABLE1_CIRCUITS
        .iter()
        .find(|spec| spec.name == "c432")
        .expect("Table I circuit");
    let m3_case = LockCase::build(c432, HdPolicy::ThirdOfKeys, Scale::Paper);
    let t = Instant::now();
    let mut m3_session = AttackSession::new(&m3_case.locked.locked);
    let m3_result = fall_attack_in(&mut m3_session, None, &FallAttackConfig::for_h(m3_case.h));
    report.record("info_fall_c432_m3_s", t.elapsed().as_secs_f64(), false);
    let m3_unique_correct = m3_result.status == FallStatus::UniqueKey
        && m3_result.best_key() == Some(&m3_case.locked.key);
    report.record(
        "fall_c432_m3_unique_correct_key",
        f64::from(u8::from(m3_unique_correct)),
        true,
    );
    assert!(m3_unique_correct, "c432 m/3: {m3_result:?}");
    let m3_stats = m3_session.stats();
    report.record("fall_c432_m3_sat_solves", m3_stats.solves as f64, false);
    report.record(
        "fall_c432_m3_sat_conflicts",
        m3_stats.conflicts as f64,
        false,
    );

    // ---- Traced single SAT attack ------------------------------------------
    let pf_original = generate(&RandomCircuitSpec::new("smoke_pf", 12, 3, 120));
    let pf_locked = XorLock::new(10)
        .with_seed(1)
        .lock(&pf_original)
        .expect("lock");
    let pf_oracle = SimOracle::new(pf_original);
    // Arm the flight recorder for the single deterministic attack, and only
    // for it: the recorded span counts become gated metrics, proving the
    // tracing layer sees exactly the phases the attack runs.  (Spans only
    // read a clock, so the attack trajectory — and every other gated counter
    // — is identical whether the recorder is on or off.)
    fall::trace::reset();
    fall::trace::set_enabled(true);
    let t = Instant::now();
    let single = sat_attack(&pf_locked.locked, &pf_oracle);
    fall::trace::set_enabled(false);
    report.record("info_sat_attack_single_s", t.elapsed().as_secs_f64(), false);
    assert!(single.is_success(), "single sat attack");
    report.record("sat_attack_iterations", single.iterations as f64, false);
    // One span per DIP round plus the final UNSAT round that ends the loop.
    let traced_dips = fall::trace::phase_count("dip_iteration");
    assert_eq!(
        traced_dips,
        single.iterations as u64 + 1,
        "flight recorder must see every DIP iteration"
    );
    assert_eq!(
        fall::trace::phase_count("oracle_query"),
        single.iterations as u64,
        "flight recorder must see every oracle query"
    );
    assert!(
        fall::trace::phase_count("solve") > 0,
        "solver checkpoints must be traced"
    );
    assert_eq!(fall::trace::events_dropped(), 0, "ring must not overflow");
    report.record("trace_dip_iterations", traced_dips as f64, false);
    report.record(
        "trace_oracle_queries",
        fall::trace::phase_count("oracle_query") as f64,
        false,
    );

    // ---- fall-serve: many-client smoke load -------------------------------
    // An in-process server (ephemeral port, 2 worker sessions) under 8
    // concurrent wire clients x 4 confirmation jobs each.  The job mix is
    // deterministic — every job confirms the true TTLock key against its
    // complement — so the completion/key-found/busy counters are exact and
    // baseline-gated; the end-to-end p50/p99 latencies land in the baseline
    // under the wall-clock 3x band (`_s` suffix).  The final `/metrics`
    // scrape is decoded with `MetricJson::from_value`, which pins the wire
    // format of the metrics surface to the report dialect.
    {
        const CLIENTS: usize = 8;
        const JOBS_PER_CLIENT: usize = 4;
        let mut server_config = fall_serve::ServerConfig::default();
        server_config.service.workers_per_target = 2;
        server_config.service.queue_capacity = 64;
        let server = fall_serve::Server::start(server_config).expect("start fall-serve");
        let addr = server.local_addr();

        let mut control = ServeClient::connect(addr);
        control.send(&Value::object([
            ("op", Value::from("register")),
            ("name", Value::from("smoke")),
            ("scheme", Value::from("ttlock")),
            ("h", Value::from(0u64)),
            (
                "locked",
                Value::from(netlist::bench_format::write(&wp_tt.locked)),
            ),
            (
                "oracle",
                Value::from(netlist::bench_format::write(&wp_original)),
            ),
        ]));
        let registered = control.recv();
        assert_eq!(
            registered.get("ok").and_then(Value::as_bool),
            Some(true),
            "register failed: {registered}"
        );

        let good: String = wp_tt
            .key
            .bits()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let bad: String = wp_tt
            .key
            .complement()
            .bits()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                let (good, bad) = (good.clone(), bad.clone());
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr);
                    for id in 0..JOBS_PER_CLIENT as u64 {
                        client.send(&Value::object([
                            ("op", Value::from("attack")),
                            ("id", Value::from(id)),
                            ("target", Value::from("smoke")),
                            ("kind", Value::from("confirm")),
                            (
                                "shortlist",
                                Value::Array(vec![
                                    Value::from(bad.as_str()),
                                    Value::from(good.as_str()),
                                ]),
                            ),
                        ]));
                    }
                    let mut reports = 0;
                    while reports < JOBS_PER_CLIENT {
                        let frame = client.recv();
                        if frame.get("event").and_then(Value::as_str) != Some("job") {
                            assert_eq!(
                                frame.get("ok").and_then(Value::as_bool),
                                Some(true),
                                "submission rejected: {frame}"
                            );
                            continue;
                        }
                        assert_eq!(
                            frame.get("status").and_then(Value::as_str),
                            Some("key_found"),
                            "{frame}"
                        );
                        assert_eq!(
                            frame.get("key").and_then(Value::as_str),
                            Some(good.as_str()),
                            "{frame}"
                        );
                        reports += 1;
                    }
                });
            }
        });
        report.record("info_serve_smoke_s", t.elapsed().as_secs_f64(), false);

        control.send(&Value::object([("op", Value::from("metrics"))]));
        let scraped = control.recv();
        let server_report =
            MetricReport::from_value(scraped.get("metrics").expect("metrics member"))
                .expect("serve /metrics must be MetricReport-compatible JSON");
        let sample = |name: &str| {
            server_report
                .get(name)
                .unwrap_or_else(|| panic!("serve /metrics misses {name}"))
                .value
        };
        let total = (CLIENTS * JOBS_PER_CLIENT) as f64;
        assert_eq!(sample("serve_jobs_completed"), total);
        assert_eq!(sample("serve_jobs_key_found"), total);
        assert_eq!(sample("serve_jobs_busy"), 0.0);
        report.record(
            "serve_8c_jobs_completed",
            sample("serve_jobs_completed"),
            false,
        );
        report.record(
            "serve_8c_jobs_key_found",
            sample("serve_jobs_key_found"),
            false,
        );
        report.record("serve_8c_jobs_busy", sample("serve_jobs_busy"), false);
        report.record("serve_8c_sessions", sample("serve_sessions_created"), false);
        report.record("serve_8c_p50_s", sample("serve_latency_p50_s"), false);
        report.record("serve_8c_p99_s", sample("serve_latency_p99_s"), false);
        report.record("info_serve_sat_solves", sample("sat_solves"), false);
    }

    // ---- fall-dist: multi-process farm smoke ------------------------------
    // A 2-worker pipes farm over stdin/stdout (workers are re-execs of this
    // binary — see `maybe_run_worker_process` in `main`).  Stealing and
    // cancel-on-winner are off and winners keep draining, so every worker
    // retires exactly its dealt share and the merged unique-oracle-query
    // count is a pure function of the workload — a point-gateable canary
    // that the cross-process cache sync keeps farm-wide oracle traffic
    // deduplicated.  A second run crashes worker 0 on its first lease
    // (deterministically region 0) and gates that exactly that one lease
    // requeues and the survivor still completes the whole region space.
    {
        let dist_original = generate(&RandomCircuitSpec::new("dist_farm", 8, 2, 50));
        let dist_locked = SfllHd::new(5, 0)
            .with_seed(2)
            .lock(&dist_original)
            .expect("lock dist smoke circuit");
        let mut farm_config = fall_dist::FarmConfig {
            workers: 2,
            partition_bits: 2,
            steal: false,
            cancel_on_winner: false,
            ..fall_dist::FarmConfig::default()
        };

        let t = Instant::now();
        let clean = fall_dist::Farm::spawn(&dist_locked.locked, &dist_original, &farm_config)
            .expect("spawn dist farm")
            .wait();
        report.record("info_dist_2w_s", t.elapsed().as_secs_f64(), false);
        assert!(clean.completed, "dist farm concludes");
        let key = clean.key.as_ref().expect("dist farm recovers a key");
        assert!(
            dist_locked.key_is_functionally_correct(key, 200, 4),
            "dist farm key unlocks the circuit"
        );
        report.record("dist_2w_key_found", 1.0, false);
        report.record(
            "dist_2w_unique_oracle_queries",
            clean.unique_oracle_queries as f64,
            false,
        );
        report.record(
            "dist_2w_regions_completed",
            clean.regions_completed as f64,
            false,
        );
        // Worker telemetry: every drain-all `complete` frame piggybacks a
        // cumulative SolverStats snapshot, so the report count equals the
        // region count, and the supervisor's farm-wide aggregate must be
        // exactly the field-wise sum of each worker's latest snapshot.
        assert_eq!(
            clean.stats_reports, clean.regions_completed,
            "every complete frame carries worker telemetry"
        );
        let mut summed = sat::SolverStats::default();
        for telemetry in clean.worker_telemetry.iter().flatten() {
            summed.absorb(&telemetry.solver);
        }
        assert_eq!(
            clean.solver_stats, summed,
            "supervisor aggregate equals the sum of worker-local stats"
        );
        assert!(clean.solver_stats.solves > 0, "workers did SAT work");
        report.record(
            "dist_worker_stats_reports",
            clean.stats_reports as f64,
            false,
        );

        farm_config.worker_args = vec![vec!["--crash-on-first-lease".to_string()]];
        let t = Instant::now();
        let crash = fall_dist::Farm::spawn(&dist_locked.locked, &dist_original, &farm_config)
            .expect("spawn dist crash farm")
            .wait();
        report.record("info_dist_crash_s", t.elapsed().as_secs_f64(), false);
        assert!(crash.completed, "dist farm survives a worker crash");
        let key = crash
            .key
            .as_ref()
            .expect("crash-run survivor recovers the key");
        assert!(dist_locked.key_is_functionally_correct(key, 200, 4));
        report.record(
            "dist_requeued_regions",
            crash.regions_requeued as f64,
            false,
        );
        report.record(
            "dist_crash_workers_crashed",
            crash.workers_crashed as f64,
            false,
        );
    }

    report
}

/// A minimal blocking wire client for the serve smoke section.
struct ServeClient {
    writer: std::net::TcpStream,
    reader: netshim::LineReader<std::net::TcpStream>,
}

impl ServeClient {
    fn connect(addr: std::net::SocketAddr) -> ServeClient {
        let stream = std::net::TcpStream::connect(addr).expect("connect to fall-serve");
        let writer = stream.try_clone().expect("clone stream");
        ServeClient {
            writer,
            reader: netshim::LineReader::new(stream, 4 << 20),
        }
    }

    fn send(&mut self, value: &Value) {
        netshim::write_line(&mut self.writer, &value.to_string()).expect("send frame");
    }

    fn recv(&mut self) -> Value {
        let line = self
            .reader
            .read_line()
            .expect("read frame")
            .expect("server closed the connection");
        Value::parse(&line).expect("frame is valid JSON")
    }
}

/// Deterministic stimulus generator for the throughput section: the bench
/// binaries avoid the `rand` dev-dependency, and splitmix64 is plenty for
/// filling simulation words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn is_wall_clock(name: &str) -> bool {
    name.ends_with("_s") || name.contains("speedup")
}

fn main() -> ExitCode {
    // The dist-farm section re-execs this binary as its worker processes;
    // a worker invocation never returns from this call.
    fall_dist::maybe_run_worker_process();

    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("bench_smoke: {message}");
            return ExitCode::from(2);
        }
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("bench_smoke: measuring on {cores} core(s)");
    let report = measure();
    print!("{}", report.to_json());

    if let Err(error) = std::fs::write(&options.out, report.to_json()) {
        eprintln!("bench_smoke: cannot write {}: {error}", options.out);
        return ExitCode::from(2);
    }
    println!("bench_smoke: wrote {}", options.out);

    // The flight-recorder events from the traced attack section are still in
    // the rings (disabling the recorder keeps them); export on request.
    if let Some(path) = &options.trace_out {
        if let Err(error) = std::fs::write(path, fall::trace::chrome_trace_json()) {
            eprintln!("bench_smoke: cannot write {path}: {error}");
            return ExitCode::from(2);
        }
        println!("bench_smoke: wrote {path}");
    }

    if options.write_baseline {
        let mut tracked = report.clone();
        tracked.metrics.retain(|name, _| !name.starts_with("info_"));
        if let Err(error) = std::fs::write(&options.baseline, tracked.to_json()) {
            eprintln!("bench_smoke: cannot write {}: {error}", options.baseline);
            return ExitCode::from(2);
        }
        println!("bench_smoke: baseline {} updated", options.baseline);
        return ExitCode::SUCCESS;
    }

    let baseline_text = match std::fs::read_to_string(&options.baseline) {
        Ok(text) => text,
        Err(error) => {
            eprintln!(
                "bench_smoke: cannot read baseline {}: {error} \
                 (run with --write-baseline to create it)",
                options.baseline
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match MetricReport::from_json(&baseline_text) {
        Ok(baseline) => baseline,
        Err(message) => {
            eprintln!("bench_smoke: malformed baseline: {message}");
            return ExitCode::from(2);
        }
    };

    // Wall-clock metrics get a wider band than deterministic counters.
    let mut counters = MetricReport::new();
    let mut timings = MetricReport::new();
    for (name, metric) in &baseline.metrics {
        let target = if is_wall_clock(name) {
            &mut timings
        } else {
            &mut counters
        };
        target.metrics.insert(name.clone(), *metric);
    }
    let mut regressions = regressions_against(&report, &counters, options.tolerance);
    regressions.extend(regressions_against(
        &report,
        &timings,
        options.tolerance * 3.0,
    ));

    if regressions.is_empty() {
        println!(
            "bench_smoke: OK — no tracked metric regressed more than {:.0}% \
             (wall-clock band {:.0}%)",
            options.tolerance * 100.0,
            options.tolerance * 300.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_smoke: {} regression(s) detected:", regressions.len());
        for regression in &regressions {
            match regression.current {
                Some(current) => eprintln!(
                    "  {}: baseline {:.4} -> current {:.4} ({:.2}x worse)",
                    regression.name, regression.baseline, current, regression.factor
                ),
                None => eprintln!(
                    "  {}: baseline {:.4} -> metric missing from current run",
                    regression.name, regression.baseline
                ),
            }
        }
        ExitCode::FAILURE
    }
}
