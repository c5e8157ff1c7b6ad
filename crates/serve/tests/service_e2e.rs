//! End-to-end robustness tests for the `axcc serve` daemon: a real
//! listener on an ephemeral port, real TCP clients, and every failure
//! mode from ISSUE acceptance — malformed input, panicking jobs,
//! deadline overruns, sustained overload, and drain-on-shutdown — all
//! survived by one daemon process per test.
#![allow(clippy::expect_used)] // harness failures should abort the e2e suite loudly

use axcc_serve::protocol::{parse_response, ErrorKind, ParsedResponse};
use axcc_serve::{start, ServeConfig, ServerHandle};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A line-oriented test client with a read timeout so a missing
/// response fails the test instead of hanging it.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv(&mut self) -> ParsedResponse {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "server closed the connection");
        parse_response(&line).expect("well-formed response line")
    }

    fn roundtrip(&mut self, line: &str) -> ParsedResponse {
        self.send_raw(line);
        self.recv()
    }
}

fn debug_server(configure: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        debug_ops: true,
        ..ServeConfig::default()
    };
    configure(&mut config);
    start(config).expect("daemon starts")
}

fn expect_err(response: &ParsedResponse) -> (ErrorKind, &str) {
    match &response.outcome {
        Err((kind, msg)) => (*kind, msg.as_str()),
        Ok(v) => panic!("expected an error response, got ok: {}", v.render_compact()),
    }
}

fn shutdown_and_join(server: ServerHandle) -> axcc_serve::ServeReport {
    server.trigger_shutdown();
    server.join()
}

#[test]
fn malformed_requests_get_bad_request_and_the_daemon_keeps_serving() {
    let server = debug_server(|_| {});
    let mut client = Client::connect(&server);

    // Not JSON at all: typed bad-request with a null id.
    let r = client.roundtrip("certainly not json");
    assert!(r.id.is_null());
    assert_eq!(expect_err(&r).0, ErrorKind::BadRequest);

    // Valid JSON, unknown op: the client's id is echoed for correlation.
    let r = client.roundtrip(r#"{"id": 9, "op": "frobnicate"}"#);
    assert_eq!(r.id.as_u64(), Some(9));
    assert_eq!(expect_err(&r).0, ErrorKind::BadRequest);

    // Valid op, impossible scenario: typed invalid-scenario, not a crash.
    let r =
        client.roundtrip(r#"{"id": 10, "op": "eval", "protocols": ["warp-drive"], "steps": 50}"#);
    assert_eq!(expect_err(&r).0, ErrorKind::InvalidScenario);
    let r = client.roundtrip(
        r#"{"id": 11, "op": "eval", "protocols": ["reno"], "link": {"mbps": -4.0}, "steps": 50}"#,
    );
    assert_eq!(expect_err(&r).0, ErrorKind::InvalidScenario);

    // The same connection still serves real work afterwards.
    let r = client.roundtrip(r#"{"id": 12, "op": "ping"}"#);
    assert_eq!(
        r.outcome.unwrap().get("pong").and_then(Value::as_bool),
        Some(true)
    );

    let report = shutdown_and_join(server);
    assert!(report.bad_requests >= 2, "{report:?}");
    assert!(report.invalid_scenarios >= 2, "{report:?}");
}

#[test]
fn an_overlong_request_line_is_refused_and_the_connection_keeps_serving() {
    let server = debug_server(|_| {});
    let mut client = Client::connect(&server);

    // 2 MiB with no newline: the daemon answers as soon as the line
    // passes its cap instead of buffering until a newline arrives.
    client.writer.write_all(&vec![b'x'; 2 << 20]).expect("send");
    let r = client.recv();
    assert!(r.id.is_null());
    let (kind, msg) = expect_err(&r);
    assert_eq!(kind, ErrorKind::BadRequest);
    assert!(msg.contains("exceeds"), "{msg}");

    // The rest of that line is skipped; the next request is served.
    client
        .writer
        .write_all(b"tail of the long line\n")
        .expect("send");
    let r = client.roundtrip(r#"{"id": 1, "op": "ping"}"#);
    assert_eq!(r.id.as_u64(), Some(1));
    assert_eq!(
        r.outcome.unwrap().get("pong").and_then(Value::as_bool),
        Some(true)
    );

    let report = shutdown_and_join(server);
    assert_eq!(report.bad_requests, 1, "{report:?}");
}

#[test]
fn a_panicking_job_is_contained_and_the_daemon_survives() {
    let server = debug_server(|_| {});
    let mut client = Client::connect(&server);

    let r = client.roundtrip(r#"{"id": 1, "op": "debug-panic"}"#);
    let (kind, msg) = expect_err(&r);
    assert_eq!(kind, ErrorKind::JobPanicked);
    assert!(msg.contains("debug-panic"), "{msg}");

    // The worker that caught the panic is still in the pool: real work
    // on a fresh connection succeeds.
    let mut client2 = Client::connect(&server);
    let r = client2
        .roundtrip(r#"{"id": 2, "op": "eval", "protocols": ["reno", "cubic"], "steps": 200}"#);
    let result = r.outcome.expect("eval after panic succeeds");
    assert_eq!(
        result
            .get("senders")
            .and_then(Value::as_array)
            .map(Vec::len),
        Some(2)
    );

    let report = shutdown_and_join(server);
    assert_eq!(report.panicked, 1, "{report:?}");
    assert!(report.completed >= 1, "{report:?}");
}

#[test]
fn a_deadline_overrun_times_out_on_time_and_the_daemon_keeps_serving() {
    let server = debug_server(|_| {});
    let mut client = Client::connect(&server);

    // The job sleeps far past its deadline; the timekeeper answers with
    // a typed timeout at the deadline, not when the job finishes.
    let started = std::time::Instant::now();
    let r = client.roundtrip(r#"{"id": 1, "op": "debug-sleep", "ms": 3000, "deadline_ms": 80}"#);
    let waited = started.elapsed();
    assert_eq!(expect_err(&r).0, ErrorKind::Timeout);
    assert!(
        waited < Duration::from_millis(1500),
        "timeout should beat the 3s job, took {waited:?}"
    );

    // The daemon is still responsive (the default pool has a free worker).
    let r = client.roundtrip(r#"{"id": 2, "op": "ping"}"#);
    assert!(r.outcome.is_ok());

    let report = shutdown_and_join(server);
    assert_eq!(report.timed_out, 1, "{report:?}");
}

#[test]
fn sustained_overload_sheds_with_typed_overloaded_and_recovers() {
    // One worker, a one-slot queue: a burst of slow jobs must shed.
    let server = debug_server(|c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let mut client = Client::connect(&server);

    const BURST: usize = 6;
    let mut batch = String::new();
    for i in 0..BURST {
        batch.push_str(&format!(
            "{{\"id\": {i}, \"op\": \"debug-sleep\", \"ms\": 300, \"deadline_ms\": 10000}}\n"
        ));
    }
    client
        .writer
        .write_all(batch.as_bytes())
        .expect("send burst");

    let mut ok = 0u32;
    let mut overloaded = 0u32;
    for _ in 0..BURST {
        let r = client.recv();
        match r.outcome {
            Ok(_) => ok += 1,
            Err((ErrorKind::Overloaded, msg)) => {
                assert!(msg.contains("retry"), "{msg}");
                overloaded += 1;
            }
            Err(other) => panic!("unexpected outcome under overload: {other:?}"),
        }
    }
    // At most one running plus one queued job can complete; the rest of
    // the burst must have been refused at admission, not buffered.
    assert!(
        overloaded >= (BURST as u32) - 2,
        "{overloaded} shed, {ok} ok"
    );
    assert!(ok >= 1, "the daemon should still finish admitted work");

    // After the burst drains the daemon accepts work again.
    let r = client.roundtrip(r#"{"id": 99, "op": "ping"}"#);
    assert!(r.outcome.is_ok());

    let report = shutdown_and_join(server);
    assert_eq!(report.overloaded, u64::from(overloaded), "{report:?}");
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let server = debug_server(|c| c.workers = 4);
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .expect("read timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                // Two clients share seed 0 (exercises the shared cache),
                // two use distinct seeds.
                let seed = if t < 2 { 0 } else { t };
                writeln!(
                    writer,
                    "{{\"id\": {t}, \"op\": \"eval\", \"protocols\": [\"reno\", \"cubic\"], \
                     \"steps\": 300, \"seed\": {seed}}}"
                )
                .expect("send");
                let mut line = String::new();
                reader.read_line(&mut line).expect("recv");
                let r = parse_response(&line).expect("parse");
                assert_eq!(r.id.as_u64(), Some(t as u64));
                let result = r.outcome.expect("eval ok");
                let eff = result
                    .get("metrics")
                    .and_then(|m| m.get("efficiency"))
                    .and_then(Value::as_f64)
                    .expect("efficiency metric");
                assert!(eff > 0.0);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let report = shutdown_and_join(server);
    assert_eq!(report.completed, 4, "{report:?}");
    assert!(report.connections >= 4, "{report:?}");
}

#[test]
fn registry_experiments_run_over_the_wire() {
    let server = debug_server(|_| {});
    let mut client = Client::connect(&server);

    let r = client.roundtrip(
        r#"{"id": 1, "op": "experiment", "name": "table1", "smoke": true, "deadline_ms": 120000}"#,
    );
    let result = r.outcome.expect("table1 smoke succeeds");
    assert_eq!(
        result.get("experiment").and_then(Value::as_str),
        Some("table1")
    );
    assert_eq!(result.get("passed").and_then(Value::as_bool), Some(true));

    // An unknown experiment is a typed bad-request, not a crash.
    let r = client.roundtrip(r#"{"id": 2, "op": "experiment", "name": "no-such-table"}"#);
    assert_eq!(expect_err(&r).0, ErrorKind::BadRequest);

    let _ = shutdown_and_join(server);
}

#[test]
fn shutdown_drains_queued_work_and_sheds_late_arrivals() {
    let server = debug_server(|_| {});
    let mut client = Client::connect(&server);

    // One batch: real work, then the shutdown op, then a late request.
    // The queued eval still completes (drain, not abort); the late eval
    // is refused with the typed shutting-down error.
    let batch = concat!(
        r#"{"id": 1, "op": "eval", "protocols": ["reno"], "steps": 200}"#,
        "\n",
        r#"{"id": 2, "op": "shutdown"}"#,
        "\n",
        r#"{"id": 3, "op": "eval", "protocols": ["reno"], "steps": 200}"#,
        "\n",
    );
    client
        .writer
        .write_all(batch.as_bytes())
        .expect("send batch");

    let mut saw_eval_ok = false;
    let mut saw_draining = false;
    let mut saw_shed = false;
    for _ in 0..3 {
        let r = client.recv();
        match r.id.as_u64() {
            Some(1) => saw_eval_ok = r.outcome.is_ok(),
            Some(2) => {
                saw_draining = r
                    .outcome
                    .as_ref()
                    .ok()
                    .and_then(|v| v.get("draining"))
                    .and_then(Value::as_bool)
                    == Some(true);
            }
            Some(3) => saw_shed = matches!(r.outcome, Err((ErrorKind::ShuttingDown, _))),
            other => panic!("unexpected response id {other:?}"),
        }
    }
    assert!(saw_eval_ok, "queued work must finish during the drain");
    assert!(saw_draining, "the shutdown op must acknowledge");
    assert!(saw_shed, "post-shutdown work must be shed as shutting-down");

    // The shutdown op already triggered the drain; join() must return.
    let report = server.join();
    assert!(report.completed >= 2, "{report:?}");
    assert_eq!(report.shed_shutdown, 1, "{report:?}");
}

#[test]
fn debug_ops_are_refused_unless_enabled() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = start(config).expect("daemon starts");
    let mut client = Client::connect(&server);
    let r = client.roundtrip(r#"{"id": 1, "op": "debug-panic"}"#);
    let (kind, msg) = expect_err(&r);
    assert_eq!(kind, ErrorKind::BadRequest);
    assert!(msg.contains("debug ops"), "{msg}");
    let _ = shutdown_and_join(server);
}
