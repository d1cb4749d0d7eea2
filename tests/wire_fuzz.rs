//! Deterministic fuzzing of every parser that reads hostile input: the
//! netshim JSON parser, both `fall-dist` line protocols, the farm's
//! telemetry decoder, the `.bench` reader (which `fall-serve`'s `register`
//! op runs on client text) and a loopback `fall-serve` server.
//!
//! Inputs are seeded mutations of valid frames: bit flips, truncation,
//! splicing of two frames, deep nesting, hostile numbers, stray structural
//! tokens, swapped bytes and duplicated slices.  Every input must produce `Ok` or a typed
//! error (an error frame on the wire), nothing may panic on any thread, and
//! the server must still answer a valid request afterwards.  Seeds and
//! iteration counts are fixed, so a failure reproduces exactly.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Duration;

use fall::service::ServiceConfig;
use fall_dist::protocol::{
    RegionOutcome, SupervisorMessage, WorkerMessage, WorkerTelemetry, PROTOCOL_VERSION,
};
use fall_serve::{Server, ServerConfig};
use locking::{Key, LockingScheme, XorLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::{bench_format, Netlist};
use netshim::{LineReader, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sat::SolverStats;

/// Mutated inputs per parser target.
const PARSER_ITERATIONS: usize = 3000;
/// Mutated frames sent to the loopback server.
const SERVER_ITERATIONS: usize = 400;
/// Request id of the `hello` sent after each fuzz frame: exact as a wire
/// number (at most 2^53) and far from any id in the corpus.
const SENTINEL: u64 = 1 << 52;

/// Panics observed on any thread of this test binary (the server's
/// connection and worker threads included).
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            previous(info);
        }));
    });
}

/// Numbers that stress integer conversion: negative, fractional, past
/// 2^53 and 2^64, non-finite after parsing, and very long.
const HOSTILE_NUMBERS: [&str; 10] = [
    "-1",
    "0.5",
    "-0",
    "9007199254740993",
    "18446744073709551616",
    "1e308",
    "1e400",
    "-1e400",
    "1E-400",
    "123456789012345678901234567890123456789012345678901234567890",
];

/// Tokens spliced in at random positions.
const TOKENS: [&[u8]; 17] = [
    b"\"",
    b"\\",
    b"\\u",
    b"\\ud800",
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"\0",
    "\u{e9}".as_bytes(),
    b"\xff",
    b"=",
    b"(",
    b")",
    b"\n",
];

/// Applies one to three random mutations to a corpus entry.
fn mutate(rng: &mut ChaCha8Rng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = corpus[rng.gen_range(0..corpus.len())].clone();
    for _ in 0..rng.gen_range(1..4usize) {
        let len = bytes.len();
        match rng.gen_range(0..8u32) {
            0 if len > 0 => {
                for _ in 0..rng.gen_range(1..5usize) {
                    let at = rng.gen_range(0..len);
                    bytes[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            1 => bytes.truncate(rng.gen_range(0..len + 1)),
            2 => {
                let other = &corpus[rng.gen_range(0..corpus.len())];
                let head = rng.gen_range(0..len + 1);
                let tail = rng.gen_range(0..other.len() + 1);
                bytes.truncate(head);
                bytes.extend_from_slice(&other[tail..]);
            }
            3 => {
                let depth = rng.gen_range(1..200usize);
                let (open, close): (&[u8], &[u8]) = if rng.gen_bool(0.5) {
                    (b"[", b"]")
                } else {
                    (b"{\"op\":", b"}")
                };
                let mut nested = open.repeat(depth);
                nested.extend_from_slice(&bytes);
                nested.extend_from_slice(&close.repeat(depth));
                bytes = nested;
            }
            4 => {
                let digits: Vec<usize> = (0..len).filter(|&i| bytes[i].is_ascii_digit()).collect();
                let number = HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())].as_bytes();
                if digits.is_empty() {
                    let at = rng.gen_range(0..len + 1);
                    bytes.splice(at..at, number.iter().copied());
                } else {
                    let start = digits[rng.gen_range(0..digits.len())];
                    let end = (start..len)
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(len);
                    bytes.splice(start..end, number.iter().copied());
                }
            }
            5 => {
                let at = rng.gen_range(0..len + 1);
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(at..at, token.iter().copied());
            }
            6 if len > 1 => {
                let a = rng.gen_range(0..len - 1);
                let b = (a + rng.gen_range(1..32usize)).min(len - 1);
                bytes.swap(a, b);
            }
            _ if len > 0 => {
                let start = rng.gen_range(0..len);
                let end = rng.gen_range(start..len) + 1;
                let at = rng.gen_range(0..len + 1);
                let slice = bytes[start..end].to_vec();
                bytes.splice(at..at, slice);
            }
            _ => {}
        }
    }
    bytes
}

/// A small XOR-locked circuit: the serve target and the `.bench` corpus.
fn small_lock() -> (Netlist, Netlist, Key) {
    let original = generate(&RandomCircuitSpec::new("fuzz", 6, 2, 24));
    let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
    (locked.locked, original, locked.key)
}

fn wire_bits(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Valid `fall-dist` frames of both directions.
fn farm_corpus() -> Vec<Vec<u8>> {
    let (locked, oracle, key) = small_lock();
    let telemetry = WorkerTelemetry {
        solver: SolverStats {
            conflicts: 41,
            solves: 7,
            arena_bytes: 1 << 20,
            ..SolverStats::default()
        },
        oracle_hits: 12,
        oracle_unique: 5,
    };
    let pairs = vec![
        (
            vec![true, false, true, true, false, false],
            vec![false, true],
        ),
        (vec![false; 6], vec![true, true]),
    ];
    let worker = [
        WorkerMessage::Hello {
            protocol: PROTOCOL_VERSION,
        },
        WorkerMessage::Lease {
            pairs: pairs.clone(),
        },
        WorkerMessage::Complete {
            region: 3,
            outcome: RegionOutcome::Found,
            iterations: 17,
            key: Some(key),
            pairs: pairs.clone(),
            stats: Box::new(telemetry),
        },
        WorkerMessage::Heartbeat,
    ];
    let supervisor = [
        SupervisorMessage::Setup {
            worker: 1,
            locked: bench_format::write(&locked),
            oracle: bench_format::write(&oracle),
            partition_bits: 2,
            heartbeat_ms: 250,
        },
        SupervisorMessage::Region {
            region: 2,
            stolen: true,
            pairs,
        },
        SupervisorMessage::Drained,
        SupervisorMessage::Cancel,
    ];
    worker
        .iter()
        .map(WorkerMessage::to_frame)
        .chain(supervisor.iter().map(SupervisorMessage::to_frame))
        .chain([telemetry.to_value().to_string()])
        .map(String::into_bytes)
        .collect()
}

/// Valid `fall-serve` request frames against the target `t`.
fn serve_corpus(locked: &Netlist, oracle: &Netlist, key: &Key) -> Vec<Vec<u8>> {
    let register = Value::object([
        ("op", Value::from("register")),
        ("id", Value::from(1u64)),
        ("name", Value::from("t")),
        ("scheme", Value::from("xor")),
        ("h", Value::from(0u64)),
        ("locked", Value::from(bench_format::write(locked))),
        ("oracle", Value::from(bench_format::write(oracle))),
    ]);
    let confirm = Value::object([
        ("op", Value::from("attack")),
        ("id", Value::from(4u64)),
        ("target", Value::from("t")),
        ("kind", Value::from("confirm")),
        (
            "shortlist",
            Value::Array(vec![Value::from(wire_bits(key.bits()))]),
        ),
        ("timeout_ms", Value::from(2000u64)),
    ]);
    [
        "{\"op\":\"hello\",\"id\":0}".to_string(),
        register.to_string(),
        "{\"op\":\"attack\",\"id\":2,\"target\":\"t\",\"kind\":\"sat\",\"timeout_ms\":2000}"
            .to_string(),
        "{\"op\":\"attack\",\"id\":3,\"target\":\"t\",\"kind\":\"fall\",\"h\":0}".to_string(),
        confirm.to_string(),
        "{\"op\":\"metrics\",\"id\":5,\"format\":\"prometheus\"}".to_string(),
        "{\"op\":\"trace\",\"id\":6,\"action\":\"status\"}".to_string(),
        "{\"op\":\"shutdown\",\"id\":7}".to_string(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

/// Runs `check` on [`PARSER_ITERATIONS`] mutations of `corpus` (as
/// lossily decoded text).
fn fuzz_text(seed: u64, corpus: &[Vec<u8>], mut check: impl FnMut(&str)) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for text in corpus {
        check(&String::from_utf8_lossy(text));
    }
    for _ in 0..PARSER_ITERATIONS {
        let bytes = mutate(&mut rng, corpus);
        check(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn json_parser_survives_mutated_frames() {
    let (locked, oracle, key) = small_lock();
    let mut corpus = farm_corpus();
    corpus.extend(serve_corpus(&locked, &oracle, &key));
    let mut accepted = 0;
    fuzz_text(0x15_0001, &corpus, |text| {
        if let Ok(value) = Value::parse(text) {
            accepted += 1;
            // Whatever parses must re-render as one line that parses back.
            let rendered = value.to_string();
            assert!(!rendered.contains('\n'), "{rendered:?}");
            assert_eq!(Value::parse(&rendered).as_ref(), Ok(&value), "{text:?}");
        }
    });
    assert!(
        accepted >= corpus.len(),
        "the valid frames themselves parse"
    );
}

#[test]
fn farm_protocols_survive_mutated_frames() {
    let corpus = farm_corpus();
    let (mut worker, mut supervisor, mut telemetry) = (0, 0, 0);
    fuzz_text(0x15_0002, &corpus, |text| {
        if let Ok(message) = WorkerMessage::parse(text) {
            worker += 1;
            assert_eq!(WorkerMessage::parse(&message.to_frame()), Ok(message));
        }
        if let Ok(message) = SupervisorMessage::parse(text) {
            supervisor += 1;
            assert_eq!(SupervisorMessage::parse(&message.to_frame()), Ok(message));
        }
        if let Ok(value) = Value::parse(text) {
            let stats = value.get("stats").unwrap_or(&value);
            if WorkerTelemetry::from_value(stats).is_ok() {
                telemetry += 1;
            }
        }
    });
    // The unmutated frames are in the run, so every decoder accepted some.
    assert!(worker >= 4 && supervisor >= 4 && telemetry >= 2);
}

#[test]
fn bench_reader_survives_mutated_netlists() {
    let (locked, oracle, _) = small_lock();
    let corpus: Vec<Vec<u8>> = [
        bench_format::write(&locked),
        bench_format::write(&oracle),
        "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n".to_string(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect();
    let mut accepted = 0;
    fuzz_text(0x15_0003, &corpus, |text| {
        if let Ok(netlist) = bench_format::parse(text) {
            accepted += 1;
            // An accepted netlist is well formed: it simulates and its
            // rendering parses back to the same interface.
            let inputs = vec![false; netlist.num_inputs()];
            let keys = vec![true; netlist.num_key_inputs()];
            assert_eq!(
                netlist.evaluate(&inputs, &keys).len(),
                netlist.num_outputs()
            );
            let again = bench_format::parse(&bench_format::write(&netlist)).expect("round trip");
            assert_eq!(again.num_inputs(), netlist.num_inputs(), "{text:?}");
            assert_eq!(again.num_outputs(), netlist.num_outputs(), "{text:?}");
        }
    });
    assert!(accepted >= corpus.len());
}

/// A client that follows each fuzz frame with a sentinel `hello` and reads
/// until the sentinel's answer.
struct Client {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: LineReader::new(stream, 1 << 22),
        }
    }

    /// Sends `frame` and then a `hello` with id [`SENTINEL`]; returns every
    /// frame received before the answer to that `hello`.
    fn exchange(&mut self, frame: &[u8]) -> Vec<Value> {
        let mut bytes = frame.to_vec();
        bytes.extend_from_slice(format!("\n{{\"op\":\"hello\",\"id\":{SENTINEL}}}\n").as_bytes());
        self.writer.write_all(&bytes).expect("send");
        let mut frames = Vec::new();
        loop {
            let line = self
                .reader
                .read_line()
                .unwrap_or_else(|e| {
                    panic!("no answer to {:?}: {e}", String::from_utf8_lossy(frame))
                })
                .unwrap_or_else(|| {
                    panic!(
                        "connection closed after {:?}",
                        String::from_utf8_lossy(frame)
                    )
                });
            let value = Value::parse(&line).expect("every server frame is JSON");
            let is_sentinel = value.get("event").is_none()
                && value.get("id").and_then(Value::as_u64) == Some(SENTINEL)
                && value.get("targets").is_some();
            if is_sentinel {
                return frames;
            }
            frames.push(value);
        }
    }
}

#[test]
fn server_answers_mutated_frames_with_typed_errors() {
    count_panics();
    let (locked, oracle, key) = small_lock();
    let corpus = serve_corpus(&locked, &oracle, &key);
    let mut server = Server::start(ServerConfig {
        allow_remote_shutdown: false,
        service: ServiceConfig {
            workers_per_target: 1,
            max_targets: 4,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(&server);
    let register = client.exchange(&corpus[1]);
    assert_eq!(register.len(), 1);
    assert_eq!(register[0].get("ok").and_then(Value::as_bool), Some(true));

    let mut rng = ChaCha8Rng::seed_from_u64(0x15_0004);
    let (mut errors, mut oks) = (0, 0);
    for _ in 0..SERVER_ITERATIONS {
        let frame = mutate(&mut rng, &corpus);
        for reply in client.exchange(&frame) {
            if reply.get("event").is_some() {
                continue; // a job event of an earlier accepted attack
            }
            match reply.get("ok").and_then(Value::as_bool) {
                Some(true) => oks += 1,
                Some(false) => {
                    let code = reply.get("error").and_then(Value::as_str);
                    assert!(code.is_some(), "error frame without a code: {reply}");
                    errors += 1;
                }
                None => panic!("reply without \"ok\": {reply}"),
            }
        }
    }
    assert!(errors > 0 && oks > 0, "errors {errors}, oks {oks}");

    // A fresh connection still gets a full SAT attack answered with the key
    // (closing the fuzzing connection cancels whatever it left queued).
    drop(client);
    let mut fresh = Client::connect(&server);
    let request = "{\"op\":\"attack\",\"id\":9,\"target\":\"t\",\"kind\":\"sat\"}";
    let mut replies = fresh.exchange(request.as_bytes());
    // Job events are pushed whenever the job ends, so on a fast job the
    // event may overtake the acknowledgement.
    while !replies.iter().any(|r| r.get("event").is_some()) {
        replies.extend(fresh.exchange(b""));
    }
    let (events, acks): (Vec<&Value>, Vec<&Value>) =
        replies.iter().partition(|r| r.get("event").is_some());
    assert_eq!(acks.len(), 1, "{replies:?}");
    assert_eq!(acks[0].get("ok").and_then(Value::as_bool), Some(true));
    let event = events[0];
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("key_found")
    );
    let found = event.get("key").and_then(Value::as_str).expect("key");
    let found = Key::new(found.chars().map(|c| c == '1').collect());
    for pattern in 0..64u64 {
        let bits = netlist::sim::pattern_to_bits(pattern, 6);
        assert_eq!(
            locked.evaluate(&bits, found.bits()),
            oracle.evaluate(&bits, &[])
        );
    }
    server.stop();
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a thread panicked");
}
