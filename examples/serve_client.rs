//! Talk to a `fall-serve` attack server over its wire protocol.
//!
//! This example exercises the whole service loop end to end, in process:
//!
//! 1. start a [`fall_serve::Server`] on an ephemeral port (`127.0.0.1:0`),
//!    exactly as `cargo run -p fall-serve -- --addr 127.0.0.1:0` would;
//! 2. connect a TCP client and `register` a TTLock-locked netlist together
//!    with its oracle (both shipped as ISCAS-89 `.bench` text);
//! 3. submit two jobs — an oracle-less `fall` attack and a `confirm` run
//!    over a key shortlist — and wait for their asynchronous job events;
//! 4. scrape `/metrics` (the `metrics` op) and print the counters the
//!    server accumulated while serving us.
//!
//! The wire protocol is line-delimited JSON; the full specification lives in
//! `docs/PROTOCOL.md`.  Everything below is plain `std::net` plus the
//! vendored `netshim` JSON shim — a client needs no other dependencies.
//!
//! Run with: `cargo run --example serve_client`

use std::net::TcpStream;
use std::time::Duration;

use fall_serve::{Server, ServerConfig};
use locking::{LockingScheme, TtLock};
use netlist::random::{generate, RandomCircuitSpec};
use netshim::{LineReader, Value};

/// A minimal blocking client: one TCP connection, line-delimited JSON frames.
struct Client {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let writer = stream.try_clone()?;
        // 1 MiB inbound frame cap: plenty for job events and metrics.
        Ok(Client {
            writer,
            reader: LineReader::new(stream, 1 << 20),
        })
    }

    /// Sends one request frame (a JSON object on a single line).
    fn send(&mut self, request: &Value) -> std::io::Result<()> {
        netshim::write_line(&mut self.writer, &request.to_string())
    }

    /// Receives the next frame from the server.
    fn recv(&mut self) -> Value {
        let line = self
            .reader
            .read_line()
            .expect("read frame")
            .expect("server closed the connection");
        Value::parse(&line).expect("server frames are valid JSON")
    }

    /// Reads frames until the completion event for `job_id` arrives.  Job
    /// events are pushed asynchronously, so other responses may interleave.
    fn wait_for_job(&mut self, job_id: u64) -> Value {
        loop {
            let frame = self.recv();
            if frame.get("event").and_then(Value::as_str) == Some("job")
                && frame.get("job").and_then(Value::as_u64) == Some(job_id)
            {
                return frame;
            }
        }
    }
}

/// Renders a [`locking::Key`] in the wire encoding: a bitstring like "0101".
fn wire_key(key: &locking::Key) -> String {
    key.bits()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Start a server on an ephemeral port. -------------------------
    // ServerConfig::default() binds 127.0.0.1:0; the OS picks a free port.
    let server = Server::start(ServerConfig::default())?;
    println!("server listening on {}", server.local_addr());

    // --- 2. Register a locked target. ------------------------------------
    // The "design house" side: a 16-input circuit locked with a 10-bit
    // TTLock key.  The adversary-facing server receives the locked netlist
    // and an I/O oracle, both as .bench text.
    let original = generate(&RandomCircuitSpec::new("serve_demo", 16, 4, 150));
    let locked = TtLock::new(10).with_seed(7).lock(&original)?.optimized();
    println!("locked circuit: {}", locked.locked.summary());

    let mut client = Client::connect(server.local_addr())?;
    client.send(&Value::object([
        ("op", Value::from("register")),
        ("id", Value::from(1u64)),
        ("name", Value::from("demo")),
        ("scheme", Value::from("ttlock")),
        ("h", Value::from(0u64)),
        (
            "locked",
            Value::from(netlist::bench_format::write(&locked.locked)),
        ),
        (
            "oracle",
            Value::from(netlist::bench_format::write(&original)),
        ),
    ]))?;
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    println!("registered target 'demo': {response}");

    // --- 3a. Job one: the oracle-less FALL attack. -----------------------
    // The server replies immediately with {"ok":true,"job":N}; the result
    // arrives later as an {"event":"job",...} frame once a pool session
    // finishes the attack.
    client.send(&Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(2u64)),
        ("target", Value::from("demo")),
        ("kind", Value::from("fall")),
    ]))?;
    let accepted = client.recv();
    assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
    let fall_job = accepted.get("job").and_then(Value::as_u64).expect("job id");
    println!("fall job accepted: {accepted}");

    let event = client.wait_for_job(fall_job);
    println!("fall job finished: {event}");
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found")
    );
    assert_eq!(
        event.get("key").and_then(Value::as_str),
        Some(wire_key(&locked.key).as_str()),
        "FALL must recover the exact TTLock key"
    );

    // --- 3b. Job two: confirm a key shortlist against the oracle. --------
    // Keys travel as bitstrings; the server checks each candidate with the
    // key-confirmation predicate and reports the first confirmed key.
    client.send(&Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(3u64)),
        ("target", Value::from("demo")),
        ("kind", Value::from("confirm")),
        (
            "shortlist",
            Value::Array(vec![
                Value::from(wire_key(&locked.key.complement())),
                Value::from(wire_key(&locked.key)),
            ]),
        ),
    ]))?;
    let accepted = client.recv();
    let confirm_job = accepted.get("job").and_then(Value::as_u64).expect("job id");

    let event = client.wait_for_job(confirm_job);
    println!("confirm job finished: {event}");
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found")
    );

    // --- 4. Scrape /metrics. ---------------------------------------------
    // The metrics member is a `fall::metrics::MetricReport` in its JSON
    // dialect, name -> {"value": f64, "higher_is_better": bool}; a client
    // linking `fall-serve` can decode it with
    // `fall_serve::protocol::MetricJson::from_value`.
    client.send(&Value::object([
        ("op", Value::from("metrics")),
        ("id", Value::from(4u64)),
    ]))?;
    let scraped = client.recv();
    let metrics = scraped
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    println!("metrics ({} series):", metrics.len());
    for (name, sample) in metrics {
        let value = sample.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        println!("  {name:<32} {value}");
    }
    assert!(metrics.contains_key("serve_jobs_completed"));
    assert!(metrics.contains_key("sat_conflicts"));

    println!("SUCCESS: two jobs served by one primed session pool.");
    Ok(())
}
