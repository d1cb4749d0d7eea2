//! End-to-end and robustness tests for the `fall-serve` wire protocol and
//! session pool: correctness of all three job kinds over TCP, malformed and
//! oversized requests, overload (`busy`) responses, per-job timeouts, and
//! client disconnect mid-job — in every failure case the pool sessions must
//! survive and serve the next job.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fall_serve::{Server, ServerConfig};
use locking::{LockingScheme, SfllHd, TtLock, XorLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;
use netshim::{LineError, LineReader, Value};

fn circuit(name: &str, inputs: usize, gates: usize) -> Netlist {
    generate(&RandomCircuitSpec::new(name, inputs, 4, gates))
}

/// A blocking test client over one TCP connection.
struct Client {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Client {
            writer,
            reader: LineReader::new(stream, 1 << 20),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    fn send(&mut self, line: &str) {
        netshim::write_line(&mut self.writer, line).expect("send");
    }

    fn recv(&mut self) -> Value {
        let line = self
            .reader
            .read_line()
            .expect("read frame")
            .expect("connection open");
        Value::parse(&line).expect("response is valid JSON")
    }

    /// Reads frames until the job event for `job_id` arrives.
    fn recv_job_event(&mut self, job_id: u64) -> Value {
        loop {
            let frame = self.recv();
            if frame.get("event").and_then(Value::as_str) == Some("job")
                && frame.get("job").and_then(Value::as_u64) == Some(job_id)
            {
                return frame;
            }
        }
    }

    fn register(&mut self, name: &str, scheme: &str, h: usize, locked: &Netlist, oracle: &Netlist) {
        let request = Value::object([
            ("op", Value::from("register")),
            ("name", Value::from(name)),
            ("scheme", Value::from(scheme)),
            ("h", Value::from(h)),
            ("locked", Value::from(netlist::bench_format::write(locked))),
            ("oracle", Value::from(netlist::bench_format::write(oracle))),
        ]);
        self.send(&request.to_string());
        let response = self.recv();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "register failed: {response}"
        );
    }

    /// Submits an attack request and returns the accepted job id.
    fn submit(&mut self, request: Value) -> u64 {
        self.send(&request.to_string());
        let response = self.recv();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "submit failed: {response}"
        );
        response.get("job").and_then(Value::as_u64).expect("job id")
    }
}

fn test_server() -> Server {
    Server::start(ServerConfig::default()).expect("start server")
}

fn wire_key(key: &locking::Key) -> String {
    key.bits()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

#[test]
fn serves_all_three_job_kinds_over_the_wire() {
    let server = test_server();
    let mut client = Client::connect(&server);

    // An easy SAT-attackable target and a FALL-attackable target.
    let xor_original = circuit("serve_xor", 14, 120);
    let xor = XorLock::new(10)
        .with_seed(5)
        .lock(&xor_original)
        .expect("lock")
        .optimized();
    client.register("xor", "xor-lock", 0, &xor.locked, &xor_original);

    let tt_original = circuit("serve_tt", 16, 150);
    let tt = TtLock::new(10)
        .with_seed(11)
        .lock(&tt_original)
        .expect("lock")
        .optimized();
    client.register("tt", "ttlock", 0, &tt.locked, &tt_original);

    // hello lists both targets.
    client.send("{\"op\":\"hello\",\"id\":1}");
    let hello = client.recv();
    let targets = hello
        .get("targets")
        .and_then(Value::as_array)
        .expect("targets");
    assert_eq!(targets.len(), 2, "{hello}");

    // SAT attack on the XOR target converges and proves the key.
    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(10u64)),
        ("target", Value::from("xor")),
        ("kind", Value::from("sat")),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found"),
        "{event}"
    );
    assert_eq!(event.get("id").and_then(Value::as_u64), Some(10));
    let recovered = event.get("key").and_then(Value::as_str).expect("key");
    assert!(
        xor.key_is_functionally_correct(
            &locking::Key::new(recovered.chars().map(|c| c == '1').collect()),
            256,
            1
        ),
        "recovered key is wrong: {event}"
    );

    // FALL on the TTLock target recovers the exact key without the oracle.
    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(11u64)),
        ("target", Value::from("tt")),
        ("kind", Value::from("fall")),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found"),
        "{event}"
    );
    assert_eq!(
        event.get("key").and_then(Value::as_str),
        Some(wire_key(&tt.key).as_str())
    );

    // Confirmation over a shortlist singles out the true key.
    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(12u64)),
        ("target", Value::from("tt")),
        ("kind", Value::from("confirm")),
        (
            "shortlist",
            Value::Array(vec![
                Value::from(wire_key(&tt.key.complement())),
                Value::from(wire_key(&tt.key)),
            ]),
        ),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found"),
        "{event}"
    );
    assert_eq!(
        event.get("key").and_then(Value::as_str),
        Some(wire_key(&tt.key).as_str())
    );

    // The metrics surface reflects the work and is MetricReport-shaped.
    client.send("{\"op\":\"metrics\",\"id\":13}");
    let response = client.recv();
    let metrics = response
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, entry) in metrics {
        assert!(
            entry.get("value").and_then(Value::as_f64).is_some(),
            "{name} has no numeric value"
        );
        assert!(
            entry
                .get("higher_is_better")
                .and_then(Value::as_bool)
                .is_some(),
            "{name} has no orientation"
        );
    }
    let metric = |name: &str| {
        metrics
            .get(name)
            .and_then(|entry| entry.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(metric("serve_jobs_submitted"), 3.0);
    assert_eq!(metric("serve_jobs_completed"), 3.0);
    assert_eq!(metric("serve_jobs_key_found"), 3.0);
    assert_eq!(metric("serve_targets"), 2.0);
    assert_eq!(metric("serve_sessions_created"), 4.0);
    assert!(metric("sat_solves") > 0.0);
    assert!(metric("arena_bytes") > 0.0);
    assert!(metric("serve_latency_p50_s") > 0.0);
    assert!(metric("serve_latency_p99_s") >= metric("serve_latency_p50_s"));
}

#[test]
fn trace_op_records_jobs_and_metrics_render_as_prometheus() {
    let server = test_server();
    let mut client = Client::connect(&server);

    let original = circuit("serve_trace", 14, 120);
    let locked = XorLock::new(8)
        .with_seed(7)
        .lock(&original)
        .expect("lock")
        .optimized();
    client.register("t", "xor-lock", 0, &locked.locked, &original);

    // Arm the flight recorder, run one job, then dump the trace.
    client.send("{\"op\":\"trace\",\"action\":\"start\",\"id\":1}");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("enabled").and_then(Value::as_bool), Some(true));

    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("target", Value::from("t")),
        ("kind", Value::from("sat")),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found"),
        "{event}"
    );

    client.send("{\"op\":\"trace\",\"action\":\"dump\",\"id\":2}");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert!(
        response.get("events").and_then(Value::as_u64).unwrap_or(0) > 0,
        "the job left trace events: {response}"
    );
    let dump = response.get("trace").expect("dump embeds the trace");
    let events = dump
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("Chrome trace document");
    assert!(
        events
            .iter()
            .any(|e| { e.get("name").and_then(Value::as_str) == Some("serve_job") }),
        "job span recorded"
    );

    client.send("{\"op\":\"trace\",\"action\":\"stop\",\"id\":3}");
    let response = client.recv();
    assert_eq!(
        response.get("enabled").and_then(Value::as_bool),
        Some(false)
    );

    // Prometheus-format metrics: rendered text travels as a string member.
    client.send("{\"op\":\"metrics\",\"format\":\"prometheus\",\"id\":4}");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let text = response
        .get("metrics_text")
        .and_then(Value::as_str)
        .expect("prometheus text");
    assert!(text.contains("# TYPE serve_jobs_completed gauge"), "{text}");
    assert!(text.contains("serve_jobs_sat 1"), "{text}");
    // (Other tests in this process may record spans concurrently, so only
    // presence — not an exact count — is asserted.)
    assert!(
        text.contains("trace_serve_job_spans"),
        "trace histograms feed the metrics surface: {text}"
    );

    // An unknown format is a typed bad request.
    client.send("{\"op\":\"metrics\",\"format\":\"xml\"}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );

    // An unknown trace action is a typed bad request too.
    client.send("{\"op\":\"trace\",\"action\":\"flush\"}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );
}

#[test]
fn malformed_requests_get_typed_errors_and_the_connection_survives() {
    let server = test_server();
    let mut client = Client::connect(&server);

    // Not JSON at all.
    client.send("this is not json");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("parse_error")
    );

    // Valid JSON, missing op.
    client.send("{\"id\":3}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );
    assert_eq!(response.get("id").and_then(Value::as_u64), Some(3));

    // Unknown op.
    client.send("{\"op\":\"frobnicate\"}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("unknown_op")
    );

    // Attack against an unregistered target.
    client.send("{\"op\":\"attack\",\"target\":\"nope\"}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("unknown_target")
    );

    // Register with an unparsable netlist.
    client.send("{\"op\":\"register\",\"name\":\"x\",\"locked\":\"INPUT(\",\"oracle\":\"INPUT(\"}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_netlist")
    );

    // Non-UTF-8 frame: reported, connection still framed.
    client.send_raw(b"\xff\xfe\xfd\n");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("parse_error")
    );

    // The connection still works after all of that.
    client.send("{\"op\":\"hello\",\"id\":9}");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Value::as_u64), Some(9));
}

#[test]
fn confirm_requests_are_validated_before_queueing() {
    let server = test_server();
    let mut client = Client::connect(&server);
    let original = circuit("serve_validate", 14, 120);
    let locked = TtLock::new(8)
        .with_seed(2)
        .lock(&original)
        .expect("lock")
        .optimized();
    client.register("t", "ttlock", 0, &locked.locked, &original);

    // Empty shortlist.
    client.send("{\"op\":\"attack\",\"target\":\"t\",\"kind\":\"confirm\",\"shortlist\":[]}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );

    // Key-width mismatch.
    client.send("{\"op\":\"attack\",\"target\":\"t\",\"kind\":\"confirm\",\"shortlist\":[\"01\"]}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );

    // Garbage key characters.
    client
        .send("{\"op\":\"attack\",\"target\":\"t\",\"kind\":\"confirm\",\"shortlist\":[\"01xx\"]}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );

    // Registering an oracle that still has key inputs is rejected.
    let request = Value::object([
        ("op", Value::from("register")),
        ("name", Value::from("bad-oracle")),
        (
            "locked",
            Value::from(netlist::bench_format::write(&locked.locked)),
        ),
        (
            "oracle",
            Value::from(netlist::bench_format::write(&locked.locked)),
        ),
    ]);
    client.send(&request.to_string());
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_netlist")
    );

    // Re-registering an existing name is idempotent, not an error.
    let request = Value::object([
        ("op", Value::from("register")),
        ("name", Value::from("t")),
        (
            "locked",
            Value::from(netlist::bench_format::write(&locked.locked)),
        ),
        (
            "oracle",
            Value::from(netlist::bench_format::write(&original)),
        ),
    ]);
    client.send(&request.to_string());
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        response.get("existing").and_then(Value::as_bool),
        Some(true)
    );
}

#[test]
fn invalid_timeouts_are_rejected_before_queueing() {
    let server = test_server();
    let mut client = Client::connect(&server);
    let original = circuit("serve_timeout_validate", 14, 120);
    let locked = TtLock::new(8)
        .with_seed(2)
        .lock(&original)
        .expect("lock")
        .optimized();
    client.register("t", "ttlock", 0, &locked.locked, &original);

    // A zero deadline would expire before any worker could start the job;
    // non-numeric and negative values used to fall back to the default
    // silently.  All are typed bad requests now.
    for raw in ["0", "-100", "1.5", "\"5000\"", "null"] {
        client.send(&format!(
            "{{\"op\":\"attack\",\"target\":\"t\",\"kind\":\"sat\",\"timeout_ms\":{raw}}}"
        ));
        let response = client.recv();
        assert_eq!(
            response.get("error").and_then(Value::as_str),
            Some("bad_request"),
            "timeout_ms {raw} must be rejected"
        );
        assert!(
            response
                .get("message")
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains("timeout_ms")),
            "error names the offending field"
        );
    }

    // A positive integer is accepted; the connection survived the rejects.
    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("target", Value::from("t")),
        ("kind", Value::from("sat")),
        ("timeout_ms", Value::from(60_000u64)),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found")
    );
}

#[test]
fn oversized_frames_close_the_connection_with_a_typed_error() {
    let config = ServerConfig {
        max_frame: 256,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start");
    let mut client = Client::connect(&server);

    let mut frame = vec![b'a'; 4096];
    frame.push(b'\n');
    client.send_raw(&frame);
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("oversized")
    );
    // The server closes the stream afterwards.
    match client.reader.read_line() {
        Ok(None) | Err(LineError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
}

/// A target whose SAT attack grinds long enough to still be running when a
/// deadline or disconnect lands: SFLL-HD is SAT-attack resilient, so the DIP
/// loop needs on the order of 2^m iterations.
fn hard_target(client: &mut Client, name: &str) {
    let original = circuit("serve_hard", 18, 220);
    let locked = SfllHd::new(14, 2)
        .with_seed(23)
        .lock(&original)
        .expect("lock")
        .optimized();
    client.register(name, "sfll-hd", 2, &locked.locked, &original);
}

#[test]
fn timeouts_cancel_mid_job_and_the_session_serves_the_next_job() {
    let server = test_server();
    let mut client = Client::connect(&server);
    hard_target(&mut client, "hard");

    let started = Instant::now();
    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(1u64)),
        ("target", Value::from("hard")),
        ("kind", Value::from("sat")),
        ("timeout_ms", Value::from(150u64)),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("timeout"),
        "{event}"
    );
    // Cancellation must land promptly (the deadline plus one solver check
    // point), not after the attack would have finished naturally.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "timeout cancellation took {:?}",
        started.elapsed()
    );

    // The worker and its session survived: the next job on the same target
    // completes.  (Confirmation of a wrong key is fast — a single
    // counterexample kills it.)
    let wrong = "0".repeat(14);
    let job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(2u64)),
        ("target", Value::from("hard")),
        ("kind", Value::from("confirm")),
        ("shortlist", Value::Array(vec![Value::from(wrong)])),
    ]));
    let event = client.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("no_key"),
        "{event}"
    );

    client.send("{\"op\":\"metrics\"}");
    let metrics = client.recv();
    let timeouts = metrics
        .get("metrics")
        .and_then(|m| m.get("serve_jobs_timeout"))
        .and_then(|entry| entry.get("value"))
        .and_then(Value::as_f64)
        .expect("timeout counter");
    assert_eq!(timeouts, 1.0);
}

#[test]
fn disconnect_cancels_in_flight_jobs_and_the_pool_survives() {
    let server = test_server();
    let mut client = Client::connect(&server);
    hard_target(&mut client, "hard");

    // Kick off a long job, then vanish.
    let _job = client.submit(Value::object([
        ("op", Value::from("attack")),
        ("target", Value::from("hard")),
        ("kind", Value::from("sat")),
        ("timeout_ms", Value::from(60_000u64)),
    ]));
    drop(client);

    // The disconnect cancels the running job through its token; poll the
    // cancelled counter from a fresh connection.
    let mut observer = Client::connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        observer.send("{\"op\":\"metrics\"}");
        let response = observer.recv();
        let cancelled = response
            .get("metrics")
            .and_then(|m| m.get("serve_jobs_cancelled"))
            .and_then(|entry| entry.get("value"))
            .and_then(Value::as_f64)
            .expect("cancelled counter");
        if cancelled >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect did not cancel the job: {response}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The surviving session immediately serves the observer.
    let wrong = "1".repeat(14);
    let job = observer.submit(Value::object([
        ("op", Value::from("attack")),
        ("target", Value::from("hard")),
        ("kind", Value::from("confirm")),
        ("shortlist", Value::Array(vec![Value::from(wrong)])),
    ]));
    let event = observer.recv_job_event(job);
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("no_key"),
        "{event}"
    );
}

#[test]
fn overload_produces_typed_busy_responses() {
    let mut config = ServerConfig::default();
    config.service.workers_per_target = 1;
    config.service.queue_capacity = 1;
    let server = Server::start(config).expect("start");
    let mut client = Client::connect(&server);
    hard_target(&mut client, "hard");

    // One job occupies the single worker, one fills the queue; with
    // capacity 1, four rapid submissions must shed load at least once.
    let mut busy = 0;
    for i in 0..4u64 {
        let request = Value::object([
            ("op", Value::from("attack")),
            ("id", Value::from(i)),
            ("target", Value::from("hard")),
            ("kind", Value::from("sat")),
            ("timeout_ms", Value::from(2_000u64)),
        ]);
        client.send(&request.to_string());
        let response = client.recv();
        if response.get("error").and_then(Value::as_str) == Some("busy") {
            busy += 1;
            assert!(
                response.get("queued").and_then(Value::as_u64).is_some()
                    && response.get("capacity").and_then(Value::as_u64).is_some(),
                "busy response must carry queue occupancy: {response}"
            );
        } else {
            assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(true),
                "{response}"
            );
        }
    }
    assert!(busy >= 1, "queue of capacity 1 never reported busy");

    client.send("{\"op\":\"metrics\"}");
    let response = client.recv();
    let shed = response
        .get("metrics")
        .and_then(|m| m.get("serve_jobs_busy"))
        .and_then(|entry| entry.get("value"))
        .and_then(Value::as_f64)
        .expect("busy counter");
    assert_eq!(shed, busy as f64);
}

#[test]
fn remote_shutdown_stops_the_server() {
    let server = test_server();
    let mut client = Client::connect(&server);
    client.send("{\"op\":\"shutdown\",\"id\":1}");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    server.wait();

    let mut blocked = Server::start(ServerConfig {
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&blocked);
    client.send("{\"op\":\"shutdown\"}");
    let response = client.recv();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("bad_request")
    );
    blocked.stop();
}
