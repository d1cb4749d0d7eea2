//! Wire-protocol encoding and decoding.
//!
//! One request or response is one JSON object on one line (see
//! `docs/PROTOCOL.md` for the full specification).  This module converts
//! between [`netshim::Value`] documents and the typed requests/responses the
//! server core works with; it performs no I/O.

use std::fmt::Write as _;

use fall::metrics::MetricReport;
use fall::service::{JobReport, TargetInfo};
use locking::Key;
use netshim::Value;

/// Protocol revision reported by `hello`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes of the `error` field in failure responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    ParseError,
    /// The frame was valid JSON but not a valid request for the operation.
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The addressed target is not registered.
    UnknownTarget,
    /// The target's job queue is full; retry later.
    Busy,
    /// The target pool is at capacity.
    PoolFull,
    /// A shipped netlist failed to parse or is unusable.
    BadNetlist,
    /// A frame exceeded the server's size limit; the connection closes.
    Oversized,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownTarget => "unknown_target",
            ErrorCode::Busy => "busy",
            ErrorCode::PoolFull => "pool_full",
            ErrorCode::BadNetlist => "bad_netlist",
            ErrorCode::Oversized => "oversized",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// A request id as it appeared on the wire: requests may omit it, and
/// responses echo it only when present.
pub type RequestId = Option<u64>;

/// Renders a key as the wire bitstring (`"0101"`, character `i` = key input
/// `i`).
pub fn key_to_wire(key: &Key) -> String {
    key.bits()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// Parses a wire bitstring into a key.
pub fn key_from_wire(text: &str) -> Result<Key, String> {
    let mut bits = Vec::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '0' => bits.push(false),
            '1' => bits.push(true),
            other => return Err(format!("invalid key character {other:?}")),
        }
    }
    if bits.is_empty() {
        return Err("empty key bitstring".into());
    }
    Ok(Key::new(bits))
}

/// Parses the optional `timeout_ms` request field.
///
/// Absent means "use the server default" (`Ok(None)`).  When present it
/// must be a **positive integer** count of milliseconds: zero would arm a
/// deadline that expires before any worker can pick the job up, and
/// non-numeric, negative or fractional values used to be silently dropped —
/// handing the client the default deadline it explicitly tried to
/// override.  Both now fail typed, for a `bad_request` response.
pub fn parse_timeout_ms(request: &Value) -> Result<Option<u64>, String> {
    let Some(value) = request.get("timeout_ms") else {
        return Ok(None);
    };
    match value.as_u64() {
        Some(0) => Err("\"timeout_ms\" must be a positive integer (got 0)".into()),
        Some(millis) => Ok(Some(millis)),
        None => Err(format!(
            "\"timeout_ms\" must be a positive integer (got {value})"
        )),
    }
}

/// Starts a response object, echoing the request id when present.
fn base(ok: bool, id: RequestId) -> Vec<(String, Value)> {
    let mut fields = vec![("ok".to_string(), Value::from(ok))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::from(id)));
    }
    fields
}

/// Serialises a response object to one frame.
fn frame(fields: Vec<(String, Value)>) -> String {
    Value::object(fields).to_string()
}

/// An error response.
pub fn error_frame(id: RequestId, code: ErrorCode, message: &str) -> String {
    let mut fields = base(false, id);
    fields.push(("error".to_string(), Value::from(code.as_str())));
    fields.push(("message".to_string(), Value::from(message)));
    frame(fields)
}

/// A `busy` response carrying the queue occupancy, so clients can implement
/// informed backoff.
pub fn busy_frame(id: RequestId, queued: usize, capacity: usize) -> String {
    let mut fields = base(false, id);
    fields.push(("error".to_string(), Value::from(ErrorCode::Busy.as_str())));
    fields.push((
        "message".to_string(),
        Value::from(format!("queue full ({queued}/{capacity}); retry later")),
    ));
    fields.push(("queued".to_string(), Value::from(queued)));
    fields.push(("capacity".to_string(), Value::from(capacity)));
    frame(fields)
}

/// The `hello` response.
pub fn hello_frame(id: RequestId, targets: &[TargetInfo]) -> String {
    let mut fields = base(true, id);
    fields.push(("server".to_string(), Value::from("fall-serve")));
    fields.push(("protocol".to_string(), Value::from(PROTOCOL_VERSION)));
    fields.push((
        "targets".to_string(),
        Value::Array(
            targets
                .iter()
                .map(|t| Value::from(t.name.as_str()))
                .collect(),
        ),
    ));
    frame(fields)
}

/// A successful `register` response; `existing` is `true` when the target
/// was already registered (registration is idempotent by name).
pub fn register_frame(id: RequestId, info: &TargetInfo, existing: bool) -> String {
    let mut fields = base(true, id);
    fields.push(("existing".to_string(), Value::from(existing)));
    fields.push(("target".to_string(), target_value(info)));
    frame(fields)
}

fn target_value(info: &TargetInfo) -> Value {
    Value::object([
        ("name", Value::from(info.name.as_str())),
        ("scheme", Value::from(info.scheme.as_str())),
        ("inputs", Value::from(info.inputs)),
        ("outputs", Value::from(info.outputs)),
        ("key_width", Value::from(info.key_width)),
        ("workers", Value::from(info.workers)),
    ])
}

/// The immediate acknowledgement of an accepted `attack` request.
pub fn job_accepted_frame(id: RequestId, job_id: u64) -> String {
    let mut fields = base(true, id);
    fields.push(("job".to_string(), Value::from(job_id)));
    frame(fields)
}

/// The asynchronous completion event for a job.  `id` is the id of the
/// originating `attack` request, when it had one.
pub fn job_event_frame(id: RequestId, report: &JobReport) -> String {
    let mut fields = vec![("event".to_string(), Value::from("job"))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::from(id)));
    }
    fields.push(("job".to_string(), Value::from(report.job_id)));
    fields.push(("status".to_string(), Value::from(report.status.as_str())));
    fields.push((
        "key".to_string(),
        match &report.key {
            Some(key) => Value::from(key_to_wire(key)),
            None => Value::Null,
        },
    ));
    if !report.shortlist.is_empty() {
        fields.push((
            "shortlist".to_string(),
            Value::Array(
                report
                    .shortlist
                    .iter()
                    .map(|key| Value::from(key_to_wire(key)))
                    .collect(),
            ),
        ));
    }
    fields.push(("iterations".to_string(), Value::from(report.iterations)));
    // Every iteration issues one oracle query: the wire keeps both keys.
    fields.push(("oracle_queries".to_string(), Value::from(report.iterations)));
    fields.push((
        "queued_ms".to_string(),
        Value::from(report.queued.as_secs_f64() * 1e3),
    ));
    fields.push((
        "elapsed_ms".to_string(),
        Value::from(report.elapsed.as_secs_f64() * 1e3),
    ));
    frame(fields)
}

/// The JSON dialect of a [`MetricReport`]: a flat object of
/// `name -> {"value": f64, "higher_is_better": bool}`.  This is the one
/// codec of that dialect — the `metrics` frame embeds
/// [`MetricJson::to_value`] and the benchmark gate's baseline file is
/// [`MetricJson::to_json`] text.  It lives beside the frame because `fall`,
/// which owns the type, has no JSON dependency.
pub trait MetricJson: Sized {
    /// The report as a JSON object of `name -> {"value", "higher_is_better"}`.
    fn to_value(&self) -> Value;

    /// Decodes a [`MetricJson::to_value`] object.  `higher_is_better` is
    /// optional and defaults to `false`, the conservative orientation (a
    /// metric that grows can regress, never one that shrinks).
    ///
    /// # Errors
    ///
    /// Names the offending metric or field: a non-object entry, a
    /// non-numeric `value` ("invalid number"), a missing value ("lacks a
    /// value"), a non-boolean orientation ("expected boolean") or an unknown
    /// field.
    fn from_value(value: &Value) -> Result<Self, String>;

    /// The report as JSON text, one metric per line (the layout of the
    /// checked-in benchmark baseline, so its diffs stay readable).
    fn to_json(&self) -> String;

    /// Parses JSON text in the [`MetricJson::to_value`] dialect (any
    /// layout, including [`MetricJson::to_json`]'s).
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the [`MetricJson::from_value`]
    /// error.
    fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&Value::parse(text)?)
    }
}

impl MetricJson for MetricReport {
    fn to_value(&self) -> Value {
        Value::object(self.metrics.iter().map(|(name, metric)| {
            (
                name.clone(),
                Value::object([
                    ("value", Value::from(metric.value)),
                    ("higher_is_better", Value::from(metric.higher_is_better)),
                ]),
            )
        }))
    }

    fn from_value(value: &Value) -> Result<MetricReport, String> {
        let entries = value
            .as_object()
            .ok_or_else(|| format!("expected a metrics object, found {value}"))?;
        let mut report = MetricReport::new();
        for (name, entry) in entries {
            let fields = entry
                .as_object()
                .ok_or_else(|| format!("metric {name:?} is not an object: {entry}"))?;
            let mut value = None;
            let mut higher_is_better = false;
            for (field, member) in fields {
                match field.as_str() {
                    "value" => {
                        value = Some(
                            member
                                .as_f64()
                                .ok_or_else(|| format!("invalid number {member}"))?,
                        );
                    }
                    "higher_is_better" => {
                        higher_is_better = member
                            .as_bool()
                            .ok_or_else(|| format!("expected boolean, found {member}"))?;
                    }
                    other => return Err(format!("unknown metric field {other:?}")),
                }
            }
            let value = value.ok_or_else(|| format!("metric {name:?} lacks a value"))?;
            report.record(name.clone(), value, higher_is_better);
        }
        Ok(report)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {}: {{\"value\": {}, \"higher_is_better\": {}}}{comma}",
                Value::from(name.as_str()),
                Value::from(metric.value),
                metric.higher_is_better
            );
        }
        out.push_str("}\n");
        out
    }
}

/// The `metrics` response.  The `metrics` member is
/// [`MetricJson::to_value`], so [`MetricJson::from_value`] decodes it.
pub fn metrics_frame(id: RequestId, report: &MetricReport) -> String {
    let mut fields = base(true, id);
    fields.push(("metrics".to_string(), report.to_value()));
    frame(fields)
}

/// The `metrics` response in Prometheus text exposition: the rendered text
/// travels as one JSON string member, so the framing stays line-delimited.
pub fn prometheus_frame(id: RequestId, report: &MetricReport) -> String {
    let mut fields = base(true, id);
    fields.push(("format".to_string(), Value::from("prometheus")));
    fields.push((
        "metrics_text".to_string(),
        Value::from(report.prometheus_text()),
    ));
    frame(fields)
}

/// The `trace` response: the flight recorder's state plus, for the `dump`
/// action, the recorded events as an embedded Chrome trace-event document
/// (`trace` member — extract it and save to a file to load in Perfetto).
pub fn trace_frame(id: RequestId, enabled: bool, events: usize, dump: Option<Value>) -> String {
    let mut fields = base(true, id);
    fields.push(("enabled".to_string(), Value::from(enabled)));
    fields.push(("events".to_string(), Value::from(events)));
    if let Some(dump) = dump {
        fields.push(("trace".to_string(), dump));
    }
    frame(fields)
}

/// A bare `{"ok":true}` acknowledgement (e.g. for `shutdown`).
pub fn ok_frame(id: RequestId) -> String {
    frame(base(true, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_through_the_wire_encoding() {
        let key = Key::new(vec![false, true, true, false, true]);
        let wire = key_to_wire(&key);
        assert_eq!(wire, "01101");
        assert_eq!(key_from_wire(&wire).expect("parse"), key);
        assert!(key_from_wire("01x1").is_err());
        assert!(key_from_wire("").is_err());
    }

    #[test]
    fn frames_are_single_lines() {
        let frames = [
            error_frame(Some(7), ErrorCode::BadRequest, "nope"),
            busy_frame(None, 3, 4),
            ok_frame(Some(1)),
        ];
        for frame in frames {
            assert!(!frame.contains('\n'), "{frame}");
            let value = Value::parse(&frame).expect("valid JSON");
            assert!(value.get("ok").is_some());
        }
    }

    #[test]
    fn timeout_ms_accepts_positive_integers_and_rejects_the_rest() {
        let with = |raw: &str| Value::parse(&format!("{{\"timeout_ms\":{raw}}}")).expect("JSON");
        assert_eq!(
            parse_timeout_ms(&Value::parse("{}").expect("JSON")),
            Ok(None)
        );
        assert_eq!(parse_timeout_ms(&with("5000")), Ok(Some(5000)));
        assert_eq!(parse_timeout_ms(&with("1")), Ok(Some(1)));
        for raw in ["0", "-5", "1.5", "\"5000\"", "null", "true", "[1]"] {
            assert!(
                parse_timeout_ms(&with(raw)).is_err(),
                "timeout_ms {raw} must be rejected"
            );
        }
    }

    #[test]
    fn error_frames_carry_code_and_echoed_id() {
        let frame = error_frame(Some(42), ErrorCode::UnknownTarget, "no such target");
        let value = Value::parse(&frame).expect("valid JSON");
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(42));
        assert_eq!(
            value.get("error").and_then(Value::as_str),
            Some("unknown_target")
        );
    }

    /// The [`MetricJson`] codec of [`MetricReport`].
    mod metric_json {
        use super::*;

        #[test]
        fn metric_report_round_trips_through_json() {
            let mut report = MetricReport::new();
            report.record("serial_elapsed_s", 1.25, false);
            report.record("parallel_speedup_4w", 2.5, true);
            report.record("oracle_queries", 132.0, false);
            let json = report.to_json();
            let parsed = MetricReport::from_json(&json).expect("round trip");
            assert_eq!(parsed, report);
            // An empty report round-trips too.
            let empty = MetricReport::new();
            assert_eq!(
                MetricReport::from_json(&empty.to_json()).expect("empty"),
                empty
            );
        }

        #[test]
        fn metric_report_rejects_malformed_json() {
            for bad in [
                "",
                "{",
                "{\"a\": 1}",
                "{\"a\": {\"value\": x}}",
                // Syntax errors next to multi-byte characters must produce an
                // Err, not a char-boundary slice panic in the error formatter.
                "{\"µ×µ×µ×µ×µ×µ×µ×\": {\"value\": µ}}",
                "{\"a\": {\"value\": 1}} µ×trailing×µ garbage",
            ] {
                assert!(MetricReport::from_json(bad).is_err(), "{bad:?}");
            }
        }

        #[test]
        fn metric_report_errors_name_the_offending_field() {
            // A non-numeric value is rejected with the bad token in the message.
            let error = MetricReport::from_json("{\"a\": {\"value\": true}}").unwrap_err();
            assert!(error.contains("invalid number"), "{error}");
            let error = MetricReport::from_json(
                "{\"a\": {\"value\": \"12\", \"higher_is_better\": false}}",
            )
            .unwrap_err();
            assert!(error.contains("invalid number"), "{error}");

            // A metric without a value names the metric.
            let error =
                MetricReport::from_json("{\"oracle_queries\": {\"higher_is_better\": true}}")
                    .unwrap_err();
            assert!(error.contains("oracle_queries"), "{error}");
            assert!(error.contains("lacks a value"), "{error}");

            // A non-boolean orientation is rejected too.
            let error = MetricReport::from_json("{\"a\": {\"value\": 1, \"higher_is_better\": 7}}")
                .unwrap_err();
            assert!(error.contains("expected boolean"), "{error}");

            // Unknown metric fields are rejected rather than silently dropped.
            let error =
                MetricReport::from_json("{\"a\": {\"value\": 1, \"unit\": 2}}").unwrap_err();
            assert!(error.contains("unit"), "{error}");
        }

        #[test]
        fn missing_orientation_defaults_to_lower_is_better() {
            // Orientation is optional on the wire: a bare value parses, and the
            // conservative default is "smaller is better" (so a metric that
            // grows can regress, never one that shrinks).
            let report = MetricReport::from_json("{\"queries\": {\"value\": 42}}").expect("parse");
            let metric = report.metrics.get("queries").expect("metric present");
            assert_eq!(metric.value, 42.0);
            assert!(!metric.higher_is_better);
        }

        #[test]
        fn names_with_escapes_round_trip_through_both_codecs() {
            let name = "q\"uote\\slash\nline µs";
            let mut report = MetricReport::new();
            report.record(name, 0.5, true);
            report.record("plain", 3.0, false);

            let json = report.to_json();
            let parsed = Value::parse(&json).expect("to_json text is valid JSON");
            assert_eq!(MetricReport::from_value(&parsed).expect("decode"), report);
            assert_eq!(MetricReport::from_json(&json).expect("parse"), report);
            assert_eq!(json.lines().count(), 4, "one line per metric: {json}");

            let value = report.to_value();
            assert_eq!(MetricReport::from_value(&value).expect("decode"), report);
            let reparsed = Value::parse(&value.to_string()).expect("wire text");
            assert_eq!(MetricReport::from_value(&reparsed).expect("decode"), report);
        }

        #[test]
        fn unicode_escapes_decode_to_the_character() {
            let report = MetricReport::from_json("{\"a\\u00b5\": {\"value\": 1}}").expect("parse");
            let names: Vec<&str> = report.metrics.keys().map(String::as_str).collect();
            assert_eq!(names, ["aµ"]);
        }
    }
}
