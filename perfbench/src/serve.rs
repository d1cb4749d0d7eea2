//! `serve_mixed`: an in-process `fall-serve` on loopback with two targets
//! and one session-owning worker each, driven closed-loop by one client
//! over one connection.  The job sequence (kinds, targets, decoys) comes
//! from the seed; with one worker per target and a single client, every
//! target's FIFO runs its jobs in sequence order on one warm session, so
//! the solver and oracle counters repeat exactly.

use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fall_bench::{HdPolicy, LockCase, Scale, TABLE1_CIRCUITS};
use fall_serve::{Server, ServerConfig};
use locking::{Key, LockedCircuit, LockingScheme, XorLock};
use netlist::bench_format;
use netshim::{LineReader, Value};

use crate::report::{digest, Report};
use crate::sys::{self, repeat};
use crate::Args;

/// Jobs per pass (the sum of [`MIX`]): 110 leaves 11 samples beyond the
/// 90th percentile.
const JOBS: usize = 110;
/// Jobs the client keeps outstanding: more than the two workers, no more
/// than one target's queue.
const WINDOW: usize = 4;
/// Per-target admission queue.
const QUEUE_CAPACITY: usize = 8;
/// No single reply may take longer than this.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Request id of every `metrics` scrape (above every job id).
const METRICS_ID: u64 = 1 << 40;
/// Random patterns for the functional check of every returned key.
const KEY_CHECK_PATTERNS: usize = 64;

/// A registered target: `(wire name, scheme label, h, lock)`.
struct Target {
    name: &'static str,
    scheme: &'static str,
    h: usize,
    locked: LockedCircuit,
}

/// The two targets at scaled size: ex1010 under SFLL-HD m/3 with the
/// canonical `LockCase::build` lock (FALL and confirmation jobs) and c432
/// under random XOR locking with a seeded lock (SAT-attack and confirmation
/// jobs: the SAT attack converges on XOR locking, not on SFLL).  At m/3,
/// confirming ex1010 on a fresh session takes 0.08-0.25 s for any lock; at
/// m/8 and m/4 some locks take several seconds.
fn targets(seed: u64) -> [Target; 2] {
    let spec = |name: &str| {
        TABLE1_CIRCUITS
            .iter()
            .find(|s| s.name == name)
            .expect("Table I circuit")
    };
    let sfll = LockCase::build(spec("ex1010"), HdPolicy::ThirdOfKeys, Scale::Scaled);
    let c432 = spec("c432").at_scale(Scale::Scaled);
    let xor = XorLock::new(c432.keys)
        .with_seed(sys::mix(seed ^ sys::name_hash("c432")))
        .lock(&c432.build(Scale::Scaled))
        .expect("c432 locks");
    [
        Target {
            name: "sfll",
            scheme: "sfll-hd",
            h: sfll.h,
            locked: sfll.locked,
        },
        Target {
            name: "xor",
            scheme: "xor-lock",
            h: 0,
            locked: xor.optimized(),
        },
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Confirm,
    Sat,
    Fall,
}

impl Kind {
    fn wire(self) -> &'static str {
        match self {
            Kind::Confirm => "confirm",
            Kind::Sat => "sat",
            Kind::Fall => "fall",
        }
    }
}

/// One planned job.
struct Job {
    kind: Kind,
    target: usize,
    shortlist: Vec<Key>,
}

/// Jobs of each kind per pass, as `(kind, target, count)`: 70 %
/// confirmation in all, and 61 % on the SFLL target, so that the median
/// job is an SFLL job rather than the boundary between the slow SFLL and
/// the fast XOR jobs.
const MIX: [(Kind, usize, usize); 4] = [
    (Kind::Confirm, 0, 50),
    (Kind::Fall, 0, 17),
    (Kind::Confirm, 1, 27),
    (Kind::Sat, 1, 16),
];

/// Seed of the SFLL target's job subsequence and of the interleaving,
/// which stay fixed.  A warm
/// session's cost depends on its whole history: with seeded subsequences,
/// single confirmations took up to 4 s and one pass 3.2-21 s over five
/// seeds, so the run length would mostly be a function of the seed.
const SFLL_JOBS_SEED: u64 = 0x5f11;

/// A seeded stream of pseudo-random words.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = sys::mix(seed);
    move || {
        state = sys::mix(state);
        state
    }
}

/// Shuffles `items` in place (Fisher-Yates) with `next`.
fn shuffle<T>(items: &mut [T], next: &mut impl FnMut() -> u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// One target's jobs of [`MIX`] in a shuffled order, each confirmation
/// listing the true key among one to three random decoys at a random
/// position.
fn subsequence(target: usize, key: &Key, next: &mut impl FnMut() -> u64) -> Vec<Job> {
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .filter(|&&(_, t, _)| t == target)
        .flat_map(|&(kind, _, count)| std::iter::repeat_n(kind, count))
        .collect();
    shuffle(&mut kinds, next);
    kinds
        .into_iter()
        .map(|kind| {
            let mut shortlist = Vec::new();
            if kind == Kind::Confirm {
                let decoys = 1 + next() % 3;
                shortlist = (0..decoys)
                    .map(|_| Key::new((0..key.len()).map(|_| next() % 2 == 1).collect()))
                    .filter(|decoy| decoy != key)
                    .collect();
                let at = (next() % (shortlist.len() as u64 + 1)) as usize;
                shortlist.insert(at, key.clone());
            }
            Job {
                kind,
                target,
                shortlist,
            }
        })
        .collect()
}

/// The job sequence: the SFLL target's fixed subsequence and the XOR
/// target's seeded one, interleaved in a fixed order.  Each target's FIFO
/// sees its own subsequence in order whatever the interleaving, but the
/// queue a job meets depends on it: with a seeded interleaving the median
/// latency spread 15 % over five seeds at a steady pass time.
fn plan(seed: u64, targets: &[Target; 2]) -> Vec<Job> {
    let mut fixed = stream(SFLL_JOBS_SEED);
    let mut seeded = stream(seed ^ sys::name_hash("serve-jobs"));
    let mut sfll = subsequence(0, &targets[0].locked.key, &mut fixed).into_iter();
    let mut xor = subsequence(1, &targets[1].locked.key, &mut seeded).into_iter();
    let mut order: Vec<usize> = std::iter::repeat_n(0, sfll.len())
        .chain(std::iter::repeat_n(1, xor.len()))
        .collect();
    assert_eq!(order.len(), JOBS, "MIX adds up to JOBS");
    shuffle(&mut order, &mut fixed);
    order
        .into_iter()
        .map(|target| {
            let jobs = if target == 0 { &mut sfll } else { &mut xor };
            jobs.next().expect("one slot per job")
        })
        .collect()
}

fn wire_key(key: &Key) -> String {
    key.bits()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// One connection: requests go out on `writer`; a reader thread forwards
/// every parsed frame.
struct Client {
    writer: TcpStream,
    frames: Receiver<Value>,
    reader: JoinHandle<()>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect to loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let read_half = stream.try_clone().expect("clone socket");
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = LineReader::new(read_half, 1 << 20);
            while let Ok(Some(line)) = reader.read_line() {
                let frame = Value::parse(&line).expect("server frames are JSON");
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });
        Client {
            writer: stream,
            frames,
            reader,
        }
    }

    fn send(&mut self, request: &Value) {
        netshim::write_line(&mut self.writer, &request.to_string()).expect("send request");
    }

    fn recv(&self) -> Value {
        self.frames
            .recv_timeout(REPLY_TIMEOUT)
            .expect("server replies within the reply timeout")
    }

    /// Sends a request with `id` and returns the frame answering it.
    fn call(&mut self, id: u64, request: Vec<(&str, Value)>) -> Value {
        let mut fields = request;
        fields.push(("id", Value::from(id)));
        self.send(&Value::object(fields));
        loop {
            let frame = self.recv();
            if frame.get("id").and_then(Value::as_u64) == Some(id) {
                return frame;
            }
        }
    }

    fn close(self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        self.reader.join().expect("reader thread never panics");
    }
}

/// A started server with both targets registered.
struct Live {
    server: Server,
    client: Client,
}

/// Starts a server, registers both targets over the wire and waits until
/// both workers have built and primed their sessions, so that priming
/// counts in the set-up and never in the first jobs of a pass.
fn start(targets: &[Target; 2]) -> Live {
    let config = ServerConfig {
        service: fall::service::ServiceConfig {
            queue_capacity: QUEUE_CAPACITY,
            workers_per_target: 1,
            ..fall::service::ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start loopback server");
    let mut client = Client::connect(&server);
    for (i, target) in targets.iter().enumerate() {
        let reply = client.call(
            i as u64,
            vec![
                ("op", Value::from("register")),
                ("name", Value::from(target.name)),
                ("scheme", Value::from(target.scheme)),
                ("h", Value::from(target.h)),
                (
                    "locked",
                    Value::from(bench_format::write(&target.locked.locked)),
                ),
                (
                    "oracle",
                    Value::from(bench_format::write(&target.locked.original)),
                ),
            ],
        );
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "register {}: {reply}",
            target.name
        );
    }
    loop {
        let frame = client.call(METRICS_ID, vec![("op", Value::from("metrics"))]);
        let metrics = frame.get("metrics").expect("metrics frame");
        if scraped(metrics, "serve_sessions_created") >= targets.len() as f64 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Live { server, client }
}

impl Live {
    fn stop(self) {
        let Live { mut server, client } = self;
        client.close();
        server.stop();
    }
}

/// One finished job as the client saw it.
struct Done {
    ok: bool,
    /// The reply frame, kept for the ledger when the verdict is wrong.
    frame: Value,
    busy: bool,
    kind: Kind,
    latency: f64,
    queued: f64,
    elapsed: f64,
    iterations: u64,
    oracle_queries: u64,
    /// Status, key, iterations and oracle queries: compared across repeats.
    fingerprint: String,
}

/// What one pass measured.
struct Pass {
    done: Vec<Done>,
    cpu: f64,
    scrape: Value,
}

/// Whether a job's reply carries the known answer: the true key on the
/// SFLL target, whose key is unique; on the XOR target, where strashing can
/// leave key gates unobservable, any key that unlocks the circuit.
fn check(job: &Job, frame: &Value, targets: &[Target; 2], seed: u64) -> bool {
    let target = &targets[job.target].locked;
    if frame.get("status").and_then(Value::as_str) != Some("key_found") {
        return false;
    }
    let Some(key) = frame.get("key").and_then(Value::as_str) else {
        return false;
    };
    let key = Key::new(key.chars().map(|c| c == '1').collect());
    let unlocks = target.key_is_functionally_correct(&key, KEY_CHECK_PATTERNS, seed);
    unlocks && (job.target == 1 || key == target.key)
}

/// Runs the job sequence closed-loop against a live server, then scrapes
/// its metrics.
fn drive(live: &mut Live, jobs: &[Job], targets: &[Target; 2], seed: u64) -> (Pass, f64) {
    let client = &mut live.client;
    let mut sent_at: Vec<Option<Instant>> = vec![None; jobs.len()];
    let mut done: Vec<Option<Done>> = (0..jobs.len()).map(|_| None).collect();
    let mut next = 0;
    let mut outstanding = 0;
    let mut finished = 0;
    let cpu = sys::cpu_total_s();
    let started = Instant::now();
    while finished < jobs.len() {
        while outstanding < WINDOW && next < jobs.len() {
            let job = &jobs[next];
            let mut request = vec![
                ("op", Value::from("attack")),
                ("id", Value::from(next as u64)),
                ("target", Value::from(targets[job.target].name)),
                ("kind", Value::from(job.kind.wire())),
            ];
            if job.kind == Kind::Confirm {
                let list = job.shortlist.iter().map(|k| Value::from(wire_key(k)));
                request.push(("shortlist", Value::Array(list.collect())));
            }
            client.send(&Value::object(request));
            sent_at[next] = Some(Instant::now());
            next += 1;
            outstanding += 1;
        }
        let frame = client.recv();
        let Some(id) = frame.get("id").and_then(Value::as_u64) else {
            continue;
        };
        let index = id as usize;
        let is_event = frame.get("event").and_then(Value::as_str) == Some("job");
        let refused = frame.get("ok").and_then(Value::as_bool) == Some(false);
        if !is_event && !refused {
            continue; // the acknowledgement; the job event follows
        }
        let latency = sent_at[index].expect("sent").elapsed().as_secs_f64();
        let ok = is_event && check(&jobs[index], &frame, targets, seed);
        let ms = |name: &str| frame.get(name).and_then(Value::as_f64).unwrap_or(0.0) / 1e3;
        let count = |name: &str| frame.get(name).and_then(Value::as_u64).unwrap_or(0);
        let fingerprint = format!(
            "{}:{}:{}:{}",
            frame
                .get("status")
                .or(frame.get("error"))
                .map_or(String::new(), Value::to_string),
            frame.get("key").map_or(String::new(), Value::to_string),
            count("iterations"),
            count("oracle_queries")
        );
        done[index] = Some(Done {
            ok,
            busy: frame.get("error").and_then(Value::as_str) == Some("busy"),
            kind: jobs[index].kind,
            latency,
            queued: ms("queued_ms"),
            elapsed: ms("elapsed_ms"),
            iterations: count("iterations"),
            oracle_queries: count("oracle_queries"),
            fingerprint,
            frame,
        });
        outstanding -= 1;
        finished += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = sys::cpu_total_s() - cpu;
    let scrape = client.call(METRICS_ID, vec![("op", Value::from("metrics"))]);
    let scrape = scrape.get("metrics").cloned().expect("metrics frame");
    let done = done
        .into_iter()
        .map(|d| d.expect("every job finished"))
        .collect();
    (Pass { done, cpu, scrape }, wall)
}

fn scraped(scrape: &Value, name: &str) -> f64 {
    scrape
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The deterministic counters of a pass: every job's fingerprint plus the
/// pooled solver and oracle counters.
fn pass_digest(pass: &Pass) -> String {
    let mut counters: Vec<(&str, u64)> = [
        "sat_solves",
        "sat_conflicts",
        "sat_propagations",
        "sat_decisions",
        "oracle_unique_queries",
        "oracle_cache_hits",
    ]
    .iter()
    .map(|&name| (name, scraped(&pass.scrape, name) as u64))
    .collect();
    let jobs: String = pass
        .done
        .iter()
        .map(|d| d.fingerprint.as_str())
        .collect::<Vec<_>>()
        .join(";");
    counters.push(("jobs_hash", sys::name_hash(&jobs)));
    digest(&counters)
}

/// Runs `serve_mixed`.
pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let setup = |setups: &mut Vec<f64>| {
        let started = Instant::now();
        let targets = targets(args.seed);
        let live = start(&targets);
        setups.push(started.elapsed().as_secs_f64());
        (targets, live)
    };
    let serve_pass = |setups: &mut Vec<f64>, traced: bool| {
        let (targets, mut live) = setup(setups);
        let jobs = plan(args.seed, &targets);
        fall::trace::set_enabled(traced);
        let (pass, wall) = drive(&mut live, &jobs, &targets, args.seed);
        fall::trace::set_enabled(false);
        live.stop();
        (pass, wall)
    };
    while sys::more_setups(&setups) {
        setup(&mut setups).1.stop();
    }

    if !args.trace {
        let passes = repeat(args.seconds, || serve_pass(&mut setups, false));
        check_passes(&passes, report);
        failed_jobs(&passes[0].0, report);
        let mut p50 = Vec::new();
        let mut tails = Vec::new();
        let mut tail_pct = 0.0;
        for (pass, _) in &passes {
            let latencies: Vec<f64> = pass.done.iter().map(|d| d.latency).collect();
            p50.push(sys::median(&latencies));
            let (pct, tail) = sys::tail(&latencies);
            tails.push(tail);
            tail_pct = pct;
            for d in &pass.done {
                report.verdict(d.ok);
            }
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.0.cpu).collect();
        report.set("setup_s", sys::median(&setups));
        report.passes(&walls, &cpus);
        report.set("latency_p50_s", sys::median(&p50));
        report.set("latency_tail_s", sys::median(&tails));
        report.notes.insert("latency_samples", Value::from(JOBS));
        report
            .notes
            .insert("latency_tail_pct", Value::from(tail_pct));
        report
            .notes
            .insert("counters", Value::from(pass_digest(&passes[0].0)));
        return;
    }

    // Traced run: an untraced pass, then the same sequence on a fresh
    // server with the flight recorder on.
    let untraced = serve_pass(&mut setups, false);
    let traced = serve_pass(&mut setups, true);
    std::fs::create_dir_all(".bench_out").expect("create .bench_out");
    std::fs::write(
        format!(".bench_out/serve_mixed-seed{}-chrome.json", args.seed),
        fall::trace::chrome_trace_json(),
    )
    .expect("write Chrome trace");
    let passes = [untraced, traced];
    check_passes(&passes, report);
    let (pass, wall) = &passes[1];
    failed_jobs(pass, report);
    let mean = |f: &dyn Fn(&Done) -> f64, kind: Option<Kind>| {
        let picked: Vec<f64> = pass
            .done
            .iter()
            .filter(|d| kind.is_none_or(|k| d.kind == k))
            .map(f)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    };
    for d in &pass.done {
        report.verdict(d.ok);
    }
    report.set("serve.queued_s", mean(&|d| d.queued, None));
    report.set("serve.service_s", mean(&|d| d.elapsed, None));
    report.set(
        "serve.wire_s",
        mean(&|d| d.latency - d.queued - d.elapsed, None),
    );
    report.set(
        "serve.service_confirm_s",
        mean(&|d| d.elapsed, Some(Kind::Confirm)),
    );
    report.set("serve.service_sat_s", mean(&|d| d.elapsed, Some(Kind::Sat)));
    report.set(
        "serve.service_fall_s",
        mean(&|d| d.elapsed, Some(Kind::Fall)),
    );
    report.set(
        "serve.busy",
        pass.done.iter().filter(|d| d.busy).count() as f64,
    );
    let confirm_iterations: u64 = pass
        .done
        .iter()
        .filter(|d| d.kind == Kind::Confirm)
        .map(|d| d.iterations)
        .sum();
    report.set("key_confirmation.iterations", confirm_iterations as f64);
    report.set(
        "oracle.queries",
        pass.done.iter().map(|d| d.oracle_queries).sum::<u64>() as f64,
    );
    let s = &pass.scrape;
    for (metric, series) in [
        ("sat.solves", "sat_solves"),
        ("sat.conflicts", "sat_conflicts"),
        ("sat.propagations", "sat_propagations"),
        ("sat.decisions", "sat_decisions"),
        ("sat.restarts", "sat_restarts"),
        ("sat.reductions", "sat_reductions"),
        ("sat.gc_runs", "gc_runs"),
        ("sat.vars_eliminated", "sat_vars_eliminated"),
        ("sat.arena_bytes", "arena_bytes"),
        ("session.sessions_created", "serve_sessions_created"),
        (
            "prefilter.patterns_simulated",
            "prefilter_patterns_simulated",
        ),
    ] {
        report.set(metric, scraped(s, series));
    }
    // Share of client latency the server's own frames account for.
    let server_side: f64 = pass.done.iter().map(|d| d.queued + d.elapsed).sum();
    let latency: f64 = pass.done.iter().map(|d| d.latency).sum();
    report.set("trace.coverage", server_side / latency);
    report.set("trace.overhead_frac", wall / passes[0].1 - 1.0);
    report.set("setup_s", sys::median(&setups));
    report
        .notes
        .insert("counters", Value::from(pass_digest(pass)));
}

/// Ledger rows for the jobs of `pass` whose verdict was wrong.
fn failed_jobs(pass: &Pass, report: &mut Report) {
    for (index, d) in pass.done.iter().enumerate().filter(|(_, d)| !d.ok) {
        report.ledger.push(Value::object([
            ("job", Value::from(index)),
            ("kind", Value::from(d.kind.wire())),
            ("reply", d.frame.clone()),
        ]));
    }
}

/// Flags a `busy` count other than 0 and any difference in the
/// deterministic counters between passes.
fn check_passes(passes: &[(Pass, f64)], report: &mut Report) {
    for (pass, _) in passes {
        if scraped(&pass.scrape, "serve_jobs_busy") != 0.0 {
            report.errors.push("serve_jobs_busy is not 0".into());
        }
    }
    let first = pass_digest(&passes[0].0);
    for (pass, _) in &passes[1..] {
        let other = pass_digest(pass);
        if other != first {
            report.errors.push(format!(
                "serve counters differ between passes: {first} vs {other}"
            ));
        }
    }
}
