//! Wire encoding of the farm protocol.
//!
//! One message is one JSON object on one line (netshim framing — the same
//! transport discipline as `fall-serve`; see `docs/PROTOCOL.md` for the
//! normative specification).  This module converts between
//! [`netshim::Value`] documents and the typed messages the supervisor and
//! worker loops exchange; it performs no I/O.

use fall::dist::IoPair;
use locking::Key;
use netshim::Value;
use sat::SolverStats;

/// Protocol revision carried by the worker's `hello`.
///
/// Version 2 adds the `stats` member of `complete` (cumulative worker
/// telemetry).  Version 3 drops `setup`'s per-region wall-clock and per-call
/// conflict budgets.  Version 4 drops its per-region iteration cap: a region
/// drain stops when key confirmation concludes or at a `cancel`, and the
/// supervisor's lease timeout bounds it.  Version 5 makes `stats` required
/// and drops the `complete` outcome for a region stopped without a
/// `cancel`: a worker's only stop signal is `cancel`.  Peers of different
/// versions send frames the other rejects, so the supervisor refuses any
/// `hello` of another version.
pub const PROTOCOL_VERSION: u64 = 5;

/// Cumulative worker telemetry piggybacked on `complete` frames.
///
/// Snapshots are **cumulative over the worker's lifetime**, not per-region
/// deltas: the supervisor keeps the latest snapshot per worker and sums
/// across workers, which makes absorption idempotent (a resent frame
/// replaces, never double-counts) and exact for gauge-like fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Cumulative [`SolverStats`] of the worker's long-lived session.
    pub solver: SolverStats,
    /// Queries the worker's syncing oracle cache answered locally.
    pub oracle_hits: u64,
    /// Distinct patterns the worker forwarded to its real oracle.
    pub oracle_unique: u64,
}

impl WorkerTelemetry {
    /// Encodes as the wire `stats` object: one member per
    /// [`SolverStats::fields`] entry plus the two oracle counters.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = self
            .solver
            .fields()
            .iter()
            .map(|&(name, value)| (name.to_string(), Value::from(value)))
            .collect();
        fields.push(("oracle_hits".to_string(), Value::from(self.oracle_hits)));
        fields.push(("oracle_unique".to_string(), Value::from(self.oracle_unique)));
        Value::object(fields)
    }

    /// Decodes the wire `stats` object.  Unknown members are ignored (a
    /// newer peer may report counters this build does not know), non-numeric
    /// values are rejected.
    pub fn from_value(value: &Value) -> Result<WorkerTelemetry, String> {
        let Some(members) = value.as_object() else {
            return Err("\"stats\" must be an object".into());
        };
        let mut telemetry = WorkerTelemetry::default();
        for (name, member) in members {
            let Some(number) = member.as_u64() else {
                return Err(format!(
                    "stats member {name:?} must be a non-negative integer"
                ));
            };
            match name.as_str() {
                "oracle_hits" => telemetry.oracle_hits = number,
                "oracle_unique" => telemetry.oracle_unique = number,
                other => {
                    // Unknown solver counters are forward-compatibility, not
                    // errors.
                    let _ = telemetry.solver.set_field(other, number);
                }
            }
        }
        Ok(telemetry)
    }
}

/// Renders a bit vector as the wire bitstring (`"0101"`, character `i` =
/// bit `i`).
pub fn bits_to_wire(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a wire bitstring into a bit vector.
pub fn bits_from_wire(text: &str) -> Result<Vec<bool>, String> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid bit character {other:?}")),
        })
        .collect()
}

/// Encodes a batch of oracle (input, output) pairs as
/// `[["0101","10"], ...]`.
pub fn pairs_to_value(pairs: &[IoPair]) -> Value {
    Value::Array(
        pairs
            .iter()
            .map(|(input, output)| {
                Value::Array(vec![
                    Value::from(bits_to_wire(input)),
                    Value::from(bits_to_wire(output)),
                ])
            })
            .collect(),
    )
}

/// Decodes the optional `pairs` member of a message (absent = empty).
pub fn pairs_from_message(message: &Value) -> Result<Vec<IoPair>, String> {
    let Some(items) = message.get("pairs") else {
        return Ok(Vec::new());
    };
    let Some(items) = items.as_array() else {
        return Err("\"pairs\" must be an array".into());
    };
    let mut pairs = Vec::with_capacity(items.len());
    for item in items {
        let Some(pair) = item.as_array() else {
            return Err("each pair must be a two-element array".into());
        };
        let [input, output] = pair else {
            return Err("each pair must be a two-element array".into());
        };
        let (Some(input), Some(output)) = (input.as_str(), output.as_str()) else {
            return Err("pair members must be bitstrings".into());
        };
        pairs.push((bits_from_wire(input)?, bits_from_wire(output)?));
    }
    Ok(pairs)
}

/// A message from a worker to the supervisor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerMessage {
    /// First frame after process start: identifies the protocol revision.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Requests the next region, shipping pairs discovered since the last
    /// round-trip.
    Lease {
        /// Newly-discovered oracle pairs to merge into the shared store.
        pairs: Vec<IoPair>,
    },
    /// Reports the outcome of a leased region (the only way a lease is
    /// retired — a worker that dies mid-lease is detected by EOF or
    /// heartbeat loss, and its lease requeued).
    Complete {
        /// The region the outcome is for.
        region: u64,
        /// What happened in the region.
        outcome: RegionOutcome,
        /// Distinguishing-input iterations spent on the region.
        iterations: usize,
        /// The confirmed key, for [`RegionOutcome::Found`].
        key: Option<Key>,
        /// Newly-discovered oracle pairs.
        pairs: Vec<IoPair>,
        /// Cumulative worker telemetry.  Boxed so the rare `complete` frame
        /// does not inflate the size of every queued `WorkerMessage`.
        stats: Box<WorkerTelemetry>,
    },
    /// Periodic liveness signal.
    Heartbeat,
}

/// How a leased region concluded, as reported by `complete`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionOutcome {
    /// The region completed and provably contains no key.
    Keyless,
    /// The region confirmed a key (carried in the `key` member).
    Found,
    /// The supervisor's `cancel` interrupted the region mid-search.
    Cancelled,
}

impl RegionOutcome {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RegionOutcome::Keyless => "keyless",
            RegionOutcome::Found => "found",
            RegionOutcome::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name.
    pub fn parse_str(text: &str) -> Result<RegionOutcome, String> {
        match text {
            "keyless" => Ok(RegionOutcome::Keyless),
            "found" => Ok(RegionOutcome::Found),
            "cancelled" => Ok(RegionOutcome::Cancelled),
            other => Err(format!("unknown region outcome {other:?}")),
        }
    }
}

impl WorkerMessage {
    /// Serialises to one frame.
    pub fn to_frame(&self) -> String {
        match self {
            WorkerMessage::Hello { protocol } => Value::object([
                ("op", Value::from("hello")),
                ("protocol", Value::from(*protocol)),
            ]),
            WorkerMessage::Lease { pairs } => Value::object([
                ("op", Value::from("lease")),
                ("pairs", pairs_to_value(pairs)),
            ]),
            WorkerMessage::Complete {
                region,
                outcome,
                iterations,
                key,
                pairs,
                stats,
            } => {
                let mut fields = vec![
                    ("op".to_string(), Value::from("complete")),
                    ("region".to_string(), Value::from(*region)),
                    ("outcome".to_string(), Value::from(outcome.as_str())),
                    ("iterations".to_string(), Value::from(*iterations)),
                    ("pairs".to_string(), pairs_to_value(pairs)),
                    ("stats".to_string(), stats.to_value()),
                ];
                if let Some(key) = key {
                    fields.push(("key".to_string(), Value::from(bits_to_wire(key.bits()))));
                }
                Value::object(fields)
            }
            WorkerMessage::Heartbeat => Value::object([("op", Value::from("heartbeat"))]),
        }
        .to_string()
    }

    /// Parses one frame.
    pub fn parse(frame: &str) -> Result<WorkerMessage, String> {
        let value = Value::parse(frame)?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "hello" => Ok(WorkerMessage::Hello {
                protocol: value
                    .get("protocol")
                    .and_then(Value::as_u64)
                    .ok_or("hello: missing \"protocol\"")?,
            }),
            "lease" => Ok(WorkerMessage::Lease {
                pairs: pairs_from_message(&value)?,
            }),
            "complete" => {
                let region = value
                    .get("region")
                    .and_then(Value::as_u64)
                    .ok_or("complete: missing \"region\"")?;
                let outcome = RegionOutcome::parse_str(
                    value
                        .get("outcome")
                        .and_then(Value::as_str)
                        .ok_or("complete: missing \"outcome\"")?,
                )?;
                let iterations = value
                    .get("iterations")
                    .and_then(Value::as_u64)
                    .ok_or("complete: missing \"iterations\"")?
                    as usize;
                let key = match value.get("key").and_then(Value::as_str) {
                    Some(text) => {
                        let bits = bits_from_wire(text)?;
                        if bits.is_empty() {
                            return Err("complete: empty key".into());
                        }
                        Some(Key::new(bits))
                    }
                    None => None,
                };
                if outcome == RegionOutcome::Found && key.is_none() {
                    return Err("complete: outcome \"found\" requires a key".into());
                }
                let stats = Box::new(WorkerTelemetry::from_value(
                    value.get("stats").ok_or("complete: missing \"stats\"")?,
                )?);
                Ok(WorkerMessage::Complete {
                    region,
                    outcome,
                    iterations,
                    key,
                    pairs: pairs_from_message(&value)?,
                    stats,
                })
            }
            "heartbeat" => Ok(WorkerMessage::Heartbeat),
            other => Err(format!("unknown worker op {other:?}")),
        }
    }
}

/// A message from the supervisor to a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum SupervisorMessage {
    /// Reply to `hello`: everything the worker needs to build its session.
    Setup {
        /// The worker's index in the farm (stable for the run).
        worker: usize,
        /// The locked netlist, as `.bench` text.
        locked: String,
        /// The key-free oracle netlist, as `.bench` text — the worker
        /// simulates the activated chip locally behind its syncing cache.
        oracle: String,
        /// Number of fixed key bits (`2^partition_bits` regions).
        partition_bits: usize,
        /// How often the worker must send `heartbeat`.
        heartbeat_ms: u64,
    },
    /// A lease grant: the region to search plus the oracle pairs the worker
    /// has not yet seen (cache-sync delta).
    Region {
        /// The granted region.
        region: u64,
        /// Whether the region came out of another worker's share.
        stolen: bool,
        /// Pairs appended to the shared store since this worker's last sync.
        pairs: Vec<IoPair>,
    },
    /// The region space is retired; the worker should exit cleanly.
    Drained,
    /// The network analogue of `CancelToken`: stop searching immediately.
    Cancel,
}

impl SupervisorMessage {
    /// Serialises to one frame.
    pub fn to_frame(&self) -> String {
        match self {
            SupervisorMessage::Setup {
                worker,
                locked,
                oracle,
                partition_bits,
                heartbeat_ms,
            } => Value::object([
                ("op", Value::from("setup")),
                ("worker", Value::from(*worker)),
                ("locked", Value::from(locked.as_str())),
                ("oracle", Value::from(oracle.as_str())),
                ("partition_bits", Value::from(*partition_bits)),
                ("heartbeat_ms", Value::from(*heartbeat_ms)),
            ]),
            SupervisorMessage::Region {
                region,
                stolen,
                pairs,
            } => Value::object([
                ("op", Value::from("region")),
                ("region", Value::from(*region)),
                ("stolen", Value::from(*stolen)),
                ("pairs", pairs_to_value(pairs)),
            ]),
            SupervisorMessage::Drained => Value::object([("op", Value::from("drained"))]),
            SupervisorMessage::Cancel => Value::object([("op", Value::from("cancel"))]),
        }
        .to_string()
    }

    /// Parses one frame.
    pub fn parse(frame: &str) -> Result<SupervisorMessage, String> {
        let value = Value::parse(frame)?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "setup" => Ok(SupervisorMessage::Setup {
                worker: value
                    .get("worker")
                    .and_then(Value::as_u64)
                    .ok_or("setup: missing \"worker\"")? as usize,
                locked: value
                    .get("locked")
                    .and_then(Value::as_str)
                    .ok_or("setup: missing \"locked\"")?
                    .to_string(),
                oracle: value
                    .get("oracle")
                    .and_then(Value::as_str)
                    .ok_or("setup: missing \"oracle\"")?
                    .to_string(),
                partition_bits: value
                    .get("partition_bits")
                    .and_then(Value::as_u64)
                    .ok_or("setup: missing \"partition_bits\"")?
                    as usize,
                heartbeat_ms: value
                    .get("heartbeat_ms")
                    .and_then(Value::as_u64)
                    .ok_or("setup: missing \"heartbeat_ms\"")?,
            }),
            "region" => Ok(SupervisorMessage::Region {
                region: value
                    .get("region")
                    .and_then(Value::as_u64)
                    .ok_or("region: missing \"region\"")?,
                stolen: value
                    .get("stolen")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                pairs: pairs_from_message(&value)?,
            }),
            "drained" => Ok(SupervisorMessage::Drained),
            "cancel" => Ok(SupervisorMessage::Cancel),
            other => Err(format!("unknown supervisor op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_messages_round_trip() {
        let messages = [
            WorkerMessage::Hello {
                protocol: PROTOCOL_VERSION,
            },
            WorkerMessage::Lease {
                pairs: vec![(vec![true, false], vec![false])],
            },
            WorkerMessage::Complete {
                region: 3,
                outcome: RegionOutcome::Found,
                iterations: 17,
                key: Some(Key::new(vec![true, false, true])),
                pairs: vec![(vec![false, false], vec![true])],
                stats: Box::default(),
            },
            WorkerMessage::Complete {
                region: 1,
                outcome: RegionOutcome::Keyless,
                iterations: 4,
                key: None,
                pairs: Vec::new(),
                stats: Box::new(WorkerTelemetry {
                    solver: SolverStats {
                        conflicts: 41,
                        solves: 7,
                        arena_bytes: 1 << 20,
                        ..SolverStats::default()
                    },
                    oracle_hits: 12,
                    oracle_unique: 5,
                }),
            },
            WorkerMessage::Heartbeat,
        ];
        for message in messages {
            let frame = message.to_frame();
            assert!(!frame.contains('\n'), "{frame}");
            assert_eq!(WorkerMessage::parse(&frame).expect("parse"), message);
        }
    }

    #[test]
    fn supervisor_messages_round_trip() {
        let messages = [
            SupervisorMessage::Setup {
                worker: 1,
                locked: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into(),
                oracle: "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n".into(),
                partition_bits: 2,
                heartbeat_ms: 250,
            },
            SupervisorMessage::Region {
                region: 2,
                stolen: true,
                pairs: vec![(vec![true], vec![false, true])],
            },
            SupervisorMessage::Drained,
            SupervisorMessage::Cancel,
        ];
        for message in messages {
            let frame = message.to_frame();
            assert!(!frame.contains('\n'), "{frame}");
            assert_eq!(SupervisorMessage::parse(&frame).expect("parse"), message);
        }
    }

    #[test]
    fn malformed_frames_are_rejected_with_reasons() {
        assert!(WorkerMessage::parse("not json").is_err());
        assert!(WorkerMessage::parse("{\"op\":\"nope\"}").is_err());
        // found without a key
        assert!(WorkerMessage::parse(
            "{\"op\":\"complete\",\"region\":0,\"outcome\":\"found\",\"iterations\":1,\
             \"stats\":{}}"
        )
        .is_err());
        // complete without stats, or with an outcome version 5 dropped
        assert_eq!(
            WorkerMessage::parse(
                "{\"op\":\"complete\",\"region\":0,\"outcome\":\"keyless\",\"iterations\":1}"
            ),
            Err("complete: missing \"stats\"".to_string())
        );
        assert_eq!(
            WorkerMessage::parse(
                "{\"op\":\"complete\",\"region\":0,\"outcome\":\"unfinished\",\
                 \"iterations\":1,\"stats\":{}}"
            ),
            Err("unknown region outcome \"unfinished\"".to_string())
        );
        assert!(SupervisorMessage::parse("{\"op\":\"region\"}").is_err());
        assert!(bits_from_wire("01x").is_err());
        // stats must be an object of non-negative integers...
        assert!(WorkerMessage::parse(
            "{\"op\":\"complete\",\"region\":0,\"outcome\":\"keyless\",\
             \"iterations\":1,\"stats\":7}"
        )
        .is_err());
        assert!(WorkerMessage::parse(
            "{\"op\":\"complete\",\"region\":0,\"outcome\":\"keyless\",\
             \"iterations\":1,\"stats\":{\"conflicts\":\"many\"}}"
        )
        .is_err());
    }

    #[test]
    fn telemetry_covers_every_solver_stats_field_and_skips_unknown() {
        // Every SolverStats counter must survive the wire round trip — the
        // encoding iterates `fields()`, so this guards the decoder's
        // `set_field` path.
        let mut telemetry = WorkerTelemetry::default();
        for (index, (name, _)) in WorkerTelemetry::default()
            .solver
            .fields()
            .iter()
            .enumerate()
        {
            assert!(telemetry.solver.set_field(name, index as u64 + 1));
        }
        telemetry.oracle_hits = 99;
        telemetry.oracle_unique = 44;
        let decoded = WorkerTelemetry::from_value(&telemetry.to_value()).expect("round trip");
        assert_eq!(decoded, telemetry);

        // Unknown members from a newer peer are ignored, not fatal.
        let forward = WorkerTelemetry::from_value(
            &Value::parse("{\"conflicts\":3,\"from_the_future\":8}").expect("json"),
        )
        .expect("forward compatible");
        assert_eq!(forward.solver.conflicts, 3);
    }
}
