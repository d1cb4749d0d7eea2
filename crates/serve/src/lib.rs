//! `fall-serve`: a multi-tenant attack-as-a-service session server.
//!
//! The server fronts [`fall::service::AttackService`] — a pool of long-lived
//! primed attack sessions keyed by registered target — with a line-delimited
//! JSON protocol over TCP (specified in `docs/PROTOCOL.md`).  Clients
//! register `(netlist, scheme)` targets, submit SAT / FALL / confirmation
//! jobs against them, and scrape a `/metrics`-style counter surface: a
//! [`fall::metrics::MetricReport`] in its JSON dialect (or Prometheus text),
//! the same format as the benchmark gate's baseline file.
//!
//! The transport is deliberately plain `std::net`: blocking sockets, one
//! reader and one writer thread per connection (see
//! [`netshim`] for the vendored framing and JSON pieces).  Job execution is
//! asynchronous — an `attack` request is acknowledged immediately with a job
//! id, and the result is pushed later as a `job` event on the same
//! connection — so one connection can keep many jobs in flight and the
//! per-client round-robin scheduler in the service keeps tenants fair.
//!
//! Robustness guarantees at this layer:
//!
//! * malformed JSON gets a typed `parse_error` response, the connection
//!   stays usable;
//! * a frame over the size cap gets an `oversized` response and the
//!   connection closes (the stream is no longer framed);
//! * a disconnect cancels the client's queued and running jobs through
//!   [`fall::parallel::CancelToken`], and the worker sessions survive to
//!   serve the next client.

#![deny(missing_docs)]

pub mod protocol;

use std::io::BufWriter;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fall::oracle::SimOracle;
use fall::service::{AttackService, JobKind, JobReport, JobSpec, RegisterError, SubmitError};
use netlist::bench_format;
use netshim::{LineError, LineReader, Value};

use protocol::{key_from_wire, ErrorCode, RequestId};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; use port `0` for an ephemeral port (tests, examples).
    pub addr: String,
    /// Maximum accepted frame length in bytes.  Netlists travel inside
    /// frames, so this bounds the largest registrable circuit.
    pub max_frame: usize,
    /// Whether the `shutdown` operation is honoured from the wire.
    pub allow_remote_shutdown: bool,
    /// Session-pool sizing and scheduling knobs.
    pub service: fall::service::ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame: 4 << 20,
            allow_remote_shutdown: true,
            service: fall::service::ServiceConfig::default(),
        }
    }
}

/// Shared across the accept loop and every connection thread.
struct ServerState {
    stopping: AtomicBool,
    stop_flag: Mutex<bool>,
    stop_wake: Condvar,
    /// Socket clones of live connections, force-closed at stop time so
    /// blocked reader threads wake up.
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    local_addr: SocketAddr,
    max_frame: usize,
    allow_remote_shutdown: bool,
}

impl ServerState {
    /// Flags the server as stopping and unblocks the accept loop and
    /// [`Server::wait`].
    fn signal_stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        *self.stop_flag.lock().expect("stop lock") = true;
        self.stop_wake.notify_all();
        // The accept loop blocks in `accept`; poke it with a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running server.  Dropping it stops it: the listener closes, live
/// connections are shut down, and the session pool is drained and joined.
pub struct Server {
    service: Arc<AttackService>,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the accept loop and session pool.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let service = Arc::new(AttackService::new(config.service.clone()));
        let state = Arc::new(ServerState {
            stopping: AtomicBool::new(false),
            stop_flag: Mutex::new(false),
            stop_wake: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            local_addr,
            max_frame: config.max_frame,
            allow_remote_shutdown: config.allow_remote_shutdown,
        });
        let accept = {
            let state = Arc::clone(&state);
            let service = Arc::clone(&service);
            std::thread::spawn(move || accept_loop(&listener, &service, &state))
        };
        Ok(Server {
            service,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the actual port when `addr` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// The underlying session pool, for in-process target registration and
    /// metric scraping.
    pub fn service(&self) -> &Arc<AttackService> {
        &self.service
    }

    /// Blocks until a stop is requested (a wire `shutdown` request, or
    /// [`Server::stop`] from another thread).
    pub fn wait(&self) {
        let mut stopped = self.state.stop_flag.lock().expect("stop lock");
        while !*stopped {
            stopped = self.state.stop_wake.wait(stopped).expect("stop lock");
        }
    }

    /// Stops the server: no new connections, queued jobs reported as
    /// cancelled, active jobs cancelled, everything joined.  Idempotent.
    pub fn stop(&mut self) {
        self.state.signal_stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Drain the pool first: this cancels active jobs, so the per-job
        // reports flush out and connection forwarder threads can finish.
        self.service.shutdown();
        for conn in self.state.conns.lock().expect("conns lock").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.state.conn_threads.lock().expect("threads lock"));
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<AttackService>, state: &Arc<ServerState>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.stopping.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(clone) = stream.try_clone() {
            state.conns.lock().expect("conns lock").push(clone);
        }
        let service = Arc::clone(service);
        let state_for_conn = Arc::clone(state);
        let handle =
            std::thread::spawn(move || handle_connection(stream, &service, &state_for_conn));
        state
            .conn_threads
            .lock()
            .expect("threads lock")
            .push(handle);
    }
}

/// Whether the connection should stay open after a request.
#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Close,
}

fn handle_connection(stream: TcpStream, service: &Arc<AttackService>, state: &Arc<ServerState>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // The server also holds a clone of this socket (for forced close at stop
    // time), so dropping our handles alone would not send FIN; shut the
    // socket down explicitly once the protocol loop ends.
    let closer = stream.try_clone();
    // All frames — immediate responses and asynchronous job events — funnel
    // through one channel into one writer thread, so interleaved writers can
    // never corrupt the framing.
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut writer = BufWriter::new(write_half);
        while let Ok(line) = out_rx.recv() {
            if netshim::write_line(&mut writer, &line).is_err() {
                break;
            }
        }
    });

    let client = service.next_client();
    let (reply_tx, reply_rx) = mpsc::channel::<JobReport>();
    let forward = out_tx.clone();
    let forwarder = std::thread::spawn(move || {
        while let Ok(report) = reply_rx.recv() {
            // The job tag encodes the originating request id (id + 1; 0 for
            // requests without an id).
            let id = report.tag.checked_sub(1);
            let _ = forward.send(protocol::job_event_frame(id, &report));
        }
    });

    let mut reader = LineReader::new(stream, state.max_frame);
    loop {
        match reader.read_line() {
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let flow = handle_request(&line, service, state, client, &reply_tx, &out_tx);
                if flow == Flow::Close {
                    break;
                }
            }
            Ok(None) => break,
            Err(LineError::InvalidUtf8) => {
                // The stream is still framed correctly; report and continue.
                let _ = out_tx.send(protocol::error_frame(
                    None,
                    ErrorCode::ParseError,
                    "frame is not valid UTF-8",
                ));
            }
            Err(LineError::Oversized { limit }) => {
                // Framing is lost beyond this point; answer and close.
                let _ = out_tx.send(protocol::error_frame(
                    None,
                    ErrorCode::Oversized,
                    &format!("frame exceeds the {limit}-byte limit"),
                ));
                break;
            }
            Err(LineError::Io(_)) => break,
        }
    }

    // Whatever this client still has in flight dies with the connection; the
    // pool sessions survive for the next client.
    service.cancel_client(client);
    drop(reply_tx);
    drop(out_tx);
    let _ = forwarder.join();
    let _ = writer.join();
    if let Ok(closer) = closer {
        let _ = closer.shutdown(Shutdown::Both);
    }
}

fn handle_request(
    line: &str,
    service: &Arc<AttackService>,
    state: &Arc<ServerState>,
    client: fall::service::ClientId,
    reply_tx: &Sender<JobReport>,
    out_tx: &Sender<String>,
) -> Flow {
    let send = |frame: String| {
        let _ = out_tx.send(frame);
    };
    let request = match Value::parse(line) {
        Ok(value) => value,
        Err(reason) => {
            send(protocol::error_frame(None, ErrorCode::ParseError, &reason));
            return Flow::Continue;
        }
    };
    let id: RequestId = request.get("id").and_then(Value::as_u64);
    let Some(op) = request.get("op").and_then(Value::as_str) else {
        send(protocol::error_frame(
            id,
            ErrorCode::BadRequest,
            "missing string field \"op\"",
        ));
        return Flow::Continue;
    };
    match op {
        "hello" => send(protocol::hello_frame(id, &service.targets())),
        "register" => send(handle_register(&request, id, service)),
        "attack" => send(handle_attack(&request, id, service, client, reply_tx)),
        "metrics" => match request.get("format").and_then(Value::as_str) {
            None | Some("json") => send(protocol::metrics_frame(id, &service.metrics())),
            Some("prometheus") => send(protocol::prometheus_frame(id, &service.metrics())),
            Some(other) => send(protocol::error_frame(
                id,
                ErrorCode::BadRequest,
                &format!("unknown metrics format {other:?}"),
            )),
        },
        "trace" => send(handle_trace(&request, id)),
        "shutdown" => {
            if !state.allow_remote_shutdown {
                send(protocol::error_frame(
                    id,
                    ErrorCode::BadRequest,
                    "remote shutdown is disabled",
                ));
                return Flow::Continue;
            }
            send(protocol::ok_frame(id));
            state.signal_stop();
            return Flow::Close;
        }
        other => send(protocol::error_frame(
            id,
            ErrorCode::UnknownOp,
            &format!("unknown op {other:?}"),
        )),
    }
    Flow::Continue
}

/// The `trace` op: drive the in-process flight recorder.
///
/// `action` is one of `start` (reset the recorder and enable span
/// collection), `stop` (disable collection, keeping what was recorded),
/// `dump` (return the recorded events as an embedded Chrome trace-event
/// document) or `status` (the default: just report the recorder state).
fn handle_trace(request: &Value, id: RequestId) -> String {
    let action = request
        .get("action")
        .and_then(Value::as_str)
        .unwrap_or("status");
    match action {
        "start" => {
            fall::trace::reset();
            fall::trace::set_enabled(true);
        }
        "stop" => fall::trace::set_enabled(false),
        "dump" | "status" => {}
        other => {
            return protocol::error_frame(
                id,
                ErrorCode::BadRequest,
                &format!("unknown trace action {other:?}"),
            );
        }
    }
    let events = fall::trace::events().len();
    let dump = if action == "dump" {
        match Value::parse(&fall::trace::chrome_trace_json()) {
            Ok(document) => Some(document),
            Err(reason) => {
                return protocol::error_frame(
                    id,
                    ErrorCode::BadRequest,
                    &format!("trace dump failed: {reason}"),
                );
            }
        }
    } else {
        None
    };
    protocol::trace_frame(id, fall::trace::enabled(), events, dump)
}

fn handle_register(request: &Value, id: RequestId, service: &Arc<AttackService>) -> String {
    let Some(name) = request.get("name").and_then(Value::as_str) else {
        return protocol::error_frame(id, ErrorCode::BadRequest, "missing string field \"name\"");
    };
    let scheme = request
        .get("scheme")
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    let h = request.get("h").and_then(Value::as_u64).unwrap_or(0) as usize;
    let Some(locked_text) = request.get("locked").and_then(Value::as_str) else {
        return protocol::error_frame(
            id,
            ErrorCode::BadRequest,
            "missing string field \"locked\" (bench-format netlist)",
        );
    };
    let Some(oracle_text) = request.get("oracle").and_then(Value::as_str) else {
        return protocol::error_frame(
            id,
            ErrorCode::BadRequest,
            "missing string field \"oracle\" (bench-format netlist)",
        );
    };
    let locked = match bench_format::parse(locked_text) {
        Ok(netlist) => netlist,
        Err(error) => {
            return protocol::error_frame(
                id,
                ErrorCode::BadNetlist,
                &format!("locked netlist: {error}"),
            );
        }
    };
    let oracle_netlist = match bench_format::parse(oracle_text) {
        Ok(netlist) => netlist,
        Err(error) => {
            return protocol::error_frame(
                id,
                ErrorCode::BadNetlist,
                &format!("oracle netlist: {error}"),
            );
        }
    };
    if oracle_netlist.num_key_inputs() != 0 {
        return protocol::error_frame(
            id,
            ErrorCode::BadNetlist,
            "oracle netlist must be key-free (it answers for the original circuit)",
        );
    }
    let oracle = Arc::new(SimOracle::new(oracle_netlist));
    match service.register_target(name, scheme, h, locked, oracle) {
        Ok(info) => protocol::register_frame(id, &info, false),
        Err(RegisterError::Exists) => match service.target_info(name) {
            Some(info) => protocol::register_frame(id, &info, true),
            None => protocol::error_frame(id, ErrorCode::ShuttingDown, "target vanished"),
        },
        Err(RegisterError::PoolFull) => {
            protocol::error_frame(id, ErrorCode::PoolFull, "target pool is full")
        }
        Err(RegisterError::ShuttingDown) => {
            protocol::error_frame(id, ErrorCode::ShuttingDown, "service is shutting down")
        }
        Err(RegisterError::BadTarget(reason)) => {
            protocol::error_frame(id, ErrorCode::BadNetlist, &reason)
        }
    }
}

fn handle_attack(
    request: &Value,
    id: RequestId,
    service: &Arc<AttackService>,
    client: fall::service::ClientId,
    reply_tx: &Sender<JobReport>,
) -> String {
    let Some(target) = request.get("target").and_then(Value::as_str) else {
        return protocol::error_frame(id, ErrorCode::BadRequest, "missing string field \"target\"");
    };
    let kind_name = request.get("kind").and_then(Value::as_str).unwrap_or("sat");
    let kind = match kind_name {
        "sat" => JobKind::SatAttack,
        "fall" => JobKind::Fall {
            h: request.get("h").and_then(Value::as_u64).map(|h| h as usize),
        },
        "confirm" => {
            let Some(items) = request.get("shortlist").and_then(Value::as_array) else {
                return protocol::error_frame(
                    id,
                    ErrorCode::BadRequest,
                    "kind \"confirm\" requires a \"shortlist\" array of key bitstrings",
                );
            };
            let mut shortlist = Vec::with_capacity(items.len());
            for item in items {
                let Some(text) = item.as_str() else {
                    return protocol::error_frame(
                        id,
                        ErrorCode::BadRequest,
                        "shortlist entries must be key bitstrings",
                    );
                };
                match key_from_wire(text) {
                    Ok(key) => shortlist.push(key),
                    Err(reason) => {
                        return protocol::error_frame(id, ErrorCode::BadRequest, &reason);
                    }
                }
            }
            JobKind::Confirm { shortlist }
        }
        other => {
            return protocol::error_frame(
                id,
                ErrorCode::BadRequest,
                &format!("unknown attack kind {other:?} (expected sat, fall or confirm)"),
            );
        }
    };
    let timeout = match protocol::parse_timeout_ms(request) {
        Ok(millis) => millis.map(Duration::from_millis),
        Err(reason) => return protocol::error_frame(id, ErrorCode::BadRequest, &reason),
    };
    let spec = JobSpec {
        kind,
        timeout,
        tag: id.map_or(0, |id| id.saturating_add(1)),
    };
    match service.submit(target, client, spec, reply_tx.clone()) {
        Ok(job_id) => protocol::job_accepted_frame(id, job_id),
        Err(SubmitError::Busy { queued, capacity }) => protocol::busy_frame(id, queued, capacity),
        Err(SubmitError::UnknownTarget) => {
            protocol::error_frame(id, ErrorCode::UnknownTarget, "no such target")
        }
        Err(SubmitError::ShuttingDown) => {
            protocol::error_frame(id, ErrorCode::ShuttingDown, "service is shutting down")
        }
        Err(SubmitError::BadRequest(reason)) => {
            protocol::error_frame(id, ErrorCode::BadRequest, &reason)
        }
    }
}
