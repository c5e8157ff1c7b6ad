//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per request (responses to pipelined
//! requests on a single connection may interleave; match them up by the
//! echoed `id`). Requests name an operation:
//!
//! ```json
//! {"id": 1, "op": "eval", "protocols": ["reno", "cubic"], "steps": 2000}
//! {"id": 2, "op": "experiment", "name": "table1", "smoke": true}
//! {"id": 3, "op": "ping"}
//! {"id": 4, "op": "stats"}
//! {"id": 5, "op": "shutdown"}
//! ```
//!
//! and every response is either `{"id": …, "ok": true, "result": {…}}` or
//! `{"id": …, "ok": false, "error": {"kind": …, "message": …}}` with a
//! closed error taxonomy ([`ErrorKind`]): clients can branch on `kind`
//! alone — `overloaded` means "back off and retry", `timeout` means "the
//! deadline passed", `bad-request`/`invalid-scenario` mean "don't retry",
//! `job-panicked` means "this input is poisoned, report it upstream",
//! `shutting-down` means "reconnect elsewhere".

use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use serde_json::{Map, Value};

/// Default fluid-model step count for `eval` (matches `axcc run`).
pub const DEFAULT_STEPS: usize = 2000;
/// Default link bandwidth in Mbps (matches `axcc run`).
pub const DEFAULT_MBPS: f64 = 20.0;
/// Default link RTT in milliseconds (matches `axcc run`).
pub const DEFAULT_RTT_MS: f64 = 42.0;
/// Default buffer size in MSS (matches `axcc run`).
pub const DEFAULT_BUFFER_MSS: f64 = 100.0;

/// The closed error taxonomy. `kind` strings are a wire contract: clients
/// branch on them, so variants are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON, or named no known operation,
    /// or was missing/mistyping a field. Never retried.
    BadRequest,
    /// The request was well-formed but describes a scenario outside the
    /// simulator's domain (unknown protocol, non-positive bandwidth, …).
    /// Never retried.
    InvalidScenario,
    /// The job panicked while evaluating. The daemon caught it at the job
    /// boundary and keeps serving; the input is poisoned, not the server.
    JobPanicked,
    /// The per-request deadline passed before the job finished.
    Timeout,
    /// The admission queue is full: the daemon shed this request instead
    /// of buffering it. Retry with backoff.
    Overloaded,
    /// The daemon is draining for shutdown and admits no new work.
    ShuttingDown,
}

impl ErrorKind {
    /// The stable wire identifier for this kind.
    pub fn wire_id(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::InvalidScenario => "invalid-scenario",
            ErrorKind::JobPanicked => "job-panicked",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting-down",
        }
    }

    /// Parse a wire identifier back into a kind (client side).
    pub fn from_wire(id: &str) -> Option<ErrorKind> {
        match id {
            "bad-request" => Some(ErrorKind::BadRequest),
            "invalid-scenario" => Some(ErrorKind::InvalidScenario),
            "job-panicked" => Some(ErrorKind::JobPanicked),
            "timeout" => Some(ErrorKind::Timeout),
            "overloaded" => Some(ErrorKind::Overloaded),
            "shutting-down" => Some(ErrorKind::ShuttingDown),
            _ => None,
        }
    }
}

/// An inline single-scenario evaluation: a shared fluid-model link, one
/// sender per named protocol, scored with the solo axiom metrics.
///
/// The spec is [`Fingerprint`]able — equal specs share a content address
/// in the daemon's result cache, so repeated evaluations are answered
/// without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSpec {
    /// Protocol names/specs, resolved through the protocol registry.
    pub protocols: Vec<String>,
    /// Link bandwidth in Mbps.
    pub mbps: f64,
    /// Link round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Link buffer in MSS.
    pub buffer: f64,
    /// Fluid-model steps to simulate.
    pub steps: usize,
    /// Scenario seed (drives the wire-loss process, if any).
    pub seed: u64,
    /// Bernoulli wire-loss rate in `[0, 1)`; `0` disables wire loss.
    pub wire_loss: f64,
}

impl Fingerprint for EvalSpec {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("serve::EvalSpec");
        fp.write_usize(self.protocols.len());
        for p in &self.protocols {
            fp.write_str(p);
        }
        fp.write_f64(self.mbps);
        fp.write_f64(self.rtt_ms);
        fp.write_f64(self.buffer);
        fp.write_usize(self.steps);
        fp.write_u64(self.seed);
        fp.write_f64(self.wire_loss);
    }
}

/// A registry-experiment run request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Experiment name as listed by `axcc run-all`.
    pub name: String,
    /// Run at smoke (CI) scale instead of paper scale.
    pub smoke: bool,
}

/// A parsed request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Server statistics; answered inline, never queued.
    Stats,
    /// Begin a graceful drain; answered inline.
    Shutdown,
    /// Evaluate an inline scenario.
    Eval(EvalSpec),
    /// Run a registry experiment.
    Experiment(ExperimentSpec),
    /// Test-only: a job that panics (enabled by `debug_ops`).
    DebugPanic,
    /// Test-only: a job that sleeps for the given milliseconds (enabled
    /// by `debug_ops`); used to exercise deadlines and overload.
    DebugSleep(u64),
}

/// A fully parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's correlation id, echoed verbatim in the response
    /// (`null` when absent).
    pub id: Value,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// What to do.
    pub op: Op,
}

/// A request that could not be parsed: the error to send back, plus
/// whatever id could be salvaged for correlation.
#[derive(Debug, Clone)]
pub struct WireError {
    /// Salvaged correlation id (`null` if the line was not even JSON).
    pub id: Value,
    /// Always a client error: `bad-request`.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
}

fn bad(id: &Value, message: String) -> WireError {
    WireError {
        id: id.clone(),
        kind: ErrorKind::BadRequest,
        message,
    }
}

fn field_f64(obj: &Value, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

fn field_u64(obj: &Value, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

/// Parse one request line. Malformed input yields a [`WireError`] that
/// the connection turns into a `bad-request` response — a garbage line
/// costs one error reply, never the connection and never the daemon.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let null = Value::Null;
    let v = serde_json::from_str(line).map_err(|e| bad(&null, format!("invalid JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(bad(&null, "request must be a JSON object".to_string()));
    }
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    let op_name = match v.get("op").and_then(Value::as_str) {
        Some(s) => s,
        None => return Err(bad(&id, "missing string field `op`".to_string())),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            bad(
                &id,
                "field `deadline_ms` must be a non-negative integer".to_string(),
            )
        })?),
    };
    let op = match op_name {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "debug-panic" => Op::DebugPanic,
        "debug-sleep" => Op::DebugSleep(field_u64(&v, "ms", 100).map_err(|m| bad(&id, m))?),
        "eval" => {
            let protocols = match v.get("protocols").and_then(Value::as_array) {
                Some(arr) if !arr.is_empty() => {
                    let mut names = Vec::with_capacity(arr.len());
                    for p in arr {
                        match p.as_str() {
                            Some(s) => names.push(s.to_string()),
                            None => {
                                return Err(bad(
                                    &id,
                                    "`protocols` entries must be strings".to_string(),
                                ))
                            }
                        }
                    }
                    names
                }
                _ => {
                    return Err(bad(
                        &id,
                        "eval needs a non-empty `protocols` string array".to_string(),
                    ))
                }
            };
            let link = v.get("link").cloned().unwrap_or(Value::Null);
            let spec = EvalSpec {
                protocols,
                mbps: field_f64(&link, "mbps", DEFAULT_MBPS).map_err(|m| bad(&id, m))?,
                rtt_ms: field_f64(&link, "rtt_ms", DEFAULT_RTT_MS).map_err(|m| bad(&id, m))?,
                buffer: field_f64(&link, "buffer", DEFAULT_BUFFER_MSS).map_err(|m| bad(&id, m))?,
                steps: field_u64(&v, "steps", DEFAULT_STEPS as u64).map_err(|m| bad(&id, m))?
                    as usize,
                seed: field_u64(&v, "seed", 0).map_err(|m| bad(&id, m))?,
                wire_loss: field_f64(&v, "wire_loss", 0.0).map_err(|m| bad(&id, m))?,
            };
            Op::Eval(spec)
        }
        "experiment" => {
            let name = match v.get("name").and_then(Value::as_str) {
                Some(s) => s.to_string(),
                None => {
                    return Err(bad(
                        &id,
                        "experiment needs a string field `name`".to_string(),
                    ))
                }
            };
            let smoke = v
                .get("smoke")
                .map(|b| {
                    b.as_bool()
                        .ok_or_else(|| bad(&id, "field `smoke` must be a boolean".to_string()))
                })
                .transpose()?
                .unwrap_or(true);
            Op::Experiment(ExperimentSpec { name, smoke })
        }
        other => return Err(bad(&id, format!("unknown op `{other}`"))),
    };
    Ok(Request {
        id,
        deadline_ms,
        op,
    })
}

/// Render a success response line (newline included).
pub fn ok_line(id: &Value, result: Value) -> String {
    let mut m = Map::new();
    m.insert("id".to_string(), id.clone());
    m.insert("ok".to_string(), Value::Bool(true));
    m.insert("result".to_string(), result);
    let mut line = Value::Object(m).render_compact();
    line.push('\n');
    line
}

/// Render an error response line (newline included).
pub fn err_line(id: &Value, kind: ErrorKind, message: &str) -> String {
    let mut e = Map::new();
    e.insert(
        "kind".to_string(),
        Value::String(kind.wire_id().to_string()),
    );
    e.insert("message".to_string(), Value::String(message.to_string()));
    let mut m = Map::new();
    m.insert("id".to_string(), id.clone());
    m.insert("ok".to_string(), Value::Bool(false));
    m.insert("error".to_string(), Value::Object(e));
    let mut line = Value::Object(m).render_compact();
    line.push('\n');
    line
}

/// Client-side view of one response line.
#[derive(Debug, Clone)]
pub struct ParsedResponse {
    /// The echoed correlation id.
    pub id: Value,
    /// `result` on success, `Err((kind, message))` on error.
    pub outcome: Result<Value, (ErrorKind, String)>,
}

/// Parse a response line (the benchmark's client and tests use this).
pub fn parse_response(line: &str) -> Result<ParsedResponse, String> {
    let v = serde_json::from_str(line.trim()).map_err(|e| format!("invalid response JSON: {e}"))?;
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(ParsedResponse {
            id,
            outcome: Ok(v.get("result").cloned().unwrap_or(Value::Null)),
        }),
        Some(false) => {
            let err = v.get("error").cloned().unwrap_or(Value::Null);
            let kind = err
                .get("kind")
                .and_then(Value::as_str)
                .and_then(ErrorKind::from_wire)
                .ok_or_else(|| "error response without a known `kind`".to_string())?;
            let message = err
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Ok(ParsedResponse {
                id,
                outcome: Err((kind, message)),
            })
        }
        None => Err("response missing boolean `ok`".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_the_wire() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::InvalidScenario,
            ErrorKind::JobPanicked,
            ErrorKind::Timeout,
            ErrorKind::Overloaded,
            ErrorKind::ShuttingDown,
        ] {
            assert_eq!(ErrorKind::from_wire(kind.wire_id()), Some(kind));
        }
        assert_eq!(ErrorKind::from_wire("nope"), None);
    }

    #[test]
    fn garbage_is_bad_request_with_null_id() {
        let e = parse_request("not json at all").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.id.is_null());
        let e = parse_request("[1,2,3]").unwrap_err();
        assert!(e.message.contains("object"));
    }

    #[test]
    fn id_is_salvaged_from_malformed_requests() {
        let e = parse_request(r#"{"id": 7, "op": "no-such-op"}"#).unwrap_err();
        assert_eq!(e.id.as_u64(), Some(7));
        let e = parse_request(r#"{"id": "abc"}"#).unwrap_err();
        assert_eq!(e.id.as_str(), Some("abc"));
    }

    #[test]
    fn eval_defaults_match_the_cli() {
        let r = parse_request(r#"{"id": 1, "op": "eval", "protocols": ["reno"]}"#).unwrap();
        match r.op {
            Op::Eval(spec) => {
                assert_eq!(spec.protocols, vec!["reno".to_string()]);
                assert_eq!(spec.steps, DEFAULT_STEPS);
                assert_eq!(spec.mbps, DEFAULT_MBPS);
                assert_eq!(spec.rtt_ms, DEFAULT_RTT_MS);
                assert_eq!(spec.seed, 0);
            }
            other => panic!("expected Eval, got {other:?}"),
        }
    }

    #[test]
    fn eval_spec_fingerprints_are_input_sensitive() {
        let base = EvalSpec {
            protocols: vec!["reno".to_string()],
            mbps: DEFAULT_MBPS,
            rtt_ms: DEFAULT_RTT_MS,
            buffer: DEFAULT_BUFFER_MSS,
            steps: DEFAULT_STEPS,
            seed: 0,
            wire_loss: 0.0,
        };
        let same = base.clone();
        assert_eq!(base.digest(), same.digest());
        let mut other = base.clone();
        other.seed = 1;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.protocols = vec!["cubic".to_string()];
        assert_ne!(base.digest(), other.digest());
    }

    #[test]
    fn experiment_parses_with_smoke_default() {
        let r = parse_request(r#"{"op": "experiment", "name": "table1"}"#).unwrap();
        assert_eq!(
            r.op,
            Op::Experiment(ExperimentSpec {
                name: "table1".to_string(),
                smoke: true,
            })
        );
        assert!(r.id.is_null());
    }

    #[test]
    fn deadline_override_is_parsed() {
        let r = parse_request(r#"{"op": "ping", "deadline_ms": 250}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(250));
        assert!(parse_request(r#"{"op": "ping", "deadline_ms": "soon"}"#).is_err());
    }

    #[test]
    fn response_lines_round_trip() {
        let ok = ok_line(
            &serde_json::to_value(&3u64),
            serde_json::json!({"pong": true}),
        );
        assert!(ok.ends_with('\n'));
        let parsed = parse_response(&ok).unwrap();
        assert_eq!(parsed.id.as_u64(), Some(3));
        assert!(parsed.outcome.is_ok());

        let err = err_line(&Value::Null, ErrorKind::Overloaded, "queue full");
        let parsed = parse_response(&err).unwrap();
        match parsed.outcome {
            Err((kind, msg)) => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(msg, "queue full");
            }
            other => panic!("expected error outcome, got {other:?}"),
        }
    }
}
