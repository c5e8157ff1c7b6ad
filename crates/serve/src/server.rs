//! The daemon: listener, connection readers, worker pool, timekeeper,
//! and the graceful-drain state machine.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! * **accept loop** (the server thread): non-blocking `accept` polled on
//!   a short tick so a raised shutdown flag is noticed promptly; enforces
//!   the connection cap.
//! * **connection readers** (one per client): line-framed reads under a
//!   read-timeout tick (enforces the idle timeout and notices shutdown);
//!   parse, validate, answer control ops inline, and push work onto the
//!   bounded queue — shedding `overloaded` / `shutting-down` at admission.
//! * **workers** (fixed pool): pop jobs, run them under the panic
//!   boundary (the `worker` module), send the response.
//! * **timekeeper**: scans in-flight deadlines; a request whose deadline
//!   passes gets a typed `timeout` response *at the deadline* and its
//!   cancellation flag raised so a multi-job experiment stops claiming
//!   between jobs. A single long evaluation cannot be preempted — the
//!   client still hears `timeout` on time; the worker's eventual result
//!   is suppressed by the per-request send-once latch.
//!
//! Every response path goes through a `Responder` whose atomic latch
//! guarantees exactly one response per request no matter how worker and
//! timekeeper race.
//!
//! **Drain semantics** (`shutdown` op, [`ServerHandle::trigger_shutdown`],
//! or the CLI's SIGINT hook): stop accepting, close the queue (new pushes
//! answer `shutting-down`), let workers finish the backlog, join
//! everything, report. The result cache is write-through, so "flush the
//! cache" is a property of normal operation, not a shutdown step.

use crate::protocol::{err_line, ok_line, parse_request, ErrorKind, Op, Request};
use crate::queue::{BoundedQueue, Popped, PushError};
use crate::worker::{execute, request_runner};
use axcc_sweep::ResultCache;
use serde_json::{Map, Value};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How often blocking loops wake to poll flags.
const TICK: Duration = Duration::from_millis(25);
/// How often the non-blocking accept loop polls. Much shorter than
/// [`TICK`]: this sleep is the worst-case latency a new connection's
/// first request pays, and it shows up directly in client p99.
const ACCEPT_TICK: Duration = Duration::from_millis(2);
/// How often the timekeeper scans deadlines.
const DEADLINE_SCAN: Duration = Duration::from_millis(10);
/// Longest request line a connection buffers. A longer line is answered
/// with a typed `bad-request` and skipped up to its newline, so a client
/// that never sends one cannot grow the reader's buffer without bound.
/// The largest legitimate request (an `eval` spec) is a few hundred bytes.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port `0` for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are shed with
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Maximum simultaneously connected clients; further connections are
    /// refused with an `overloaded` error line.
    pub max_connections: usize,
    /// Default per-request deadline (ms), overridable per request by
    /// `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Idle-connection timeout (ms): a connection with no complete
    /// request for this long is closed.
    pub idle_timeout_ms: u64,
    /// Persist the result cache under this directory (in-memory if
    /// `None`).
    pub cache_dir: Option<PathBuf>,
    /// Enable the `debug-panic` / `debug-sleep` test operations.
    pub debug_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            default_deadline_ms: 30_000,
            idle_timeout_ms: 60_000,
            cache_dir: None,
            debug_ops: false,
        }
    }
}

/// Counters shared across the daemon's threads (reported by the `stats`
/// op and in the final [`ServeReport`]).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    bad_requests: AtomicU64,
    invalid_scenarios: AtomicU64,
    panicked: AtomicU64,
    timed_out: AtomicU64,
    overloaded: AtomicU64,
    shed_shutdown: AtomicU64,
}

impl Counters {
    fn bump_error(&self, kind: ErrorKind) {
        match kind {
            ErrorKind::BadRequest => &self.bad_requests,
            ErrorKind::InvalidScenario => &self.invalid_scenarios,
            ErrorKind::JobPanicked => &self.panicked,
            ErrorKind::Timeout => &self.timed_out,
            ErrorKind::Overloaded => &self.overloaded,
            ErrorKind::ShuttingDown => &self.shed_shutdown,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// What the daemon did over its lifetime; returned by
/// [`ServerHandle::join`] after a drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Client connections accepted.
    pub connections: u64,
    /// Requests parsed (including ones later shed or failed).
    pub requests: u64,
    /// Jobs answered with `ok: true`.
    pub completed: u64,
    /// `bad-request` responses.
    pub bad_requests: u64,
    /// `invalid-scenario` responses.
    pub invalid_scenarios: u64,
    /// `job-panicked` responses (the daemon survived each one).
    pub panicked: u64,
    /// `timeout` responses.
    pub timed_out: u64,
    /// `overloaded` sheds.
    pub overloaded: u64,
    /// `shutting-down` sheds during the drain.
    pub shed_shutdown: u64,
    /// Evaluations answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Evaluations actually executed.
    pub executed: u64,
}

impl ServeReport {
    /// Render the post-drain summary the CLI prints.
    pub fn render(&self) -> String {
        format!(
            "served {} request(s) over {} connection(s): {} ok, {} bad-request, \
             {} invalid-scenario, {} panicked, {} timed out, {} overloaded, \
             {} shed in drain; cache {} hit(s) / {} executed",
            self.requests,
            self.connections,
            self.completed,
            self.bad_requests,
            self.invalid_scenarios,
            self.panicked,
            self.timed_out,
            self.overloaded,
            self.shed_shutdown,
            self.cache_hits,
            self.executed,
        )
    }
}

/// Exactly-once response channel for one request. Worker and timekeeper
/// may race to answer; the atomic latch lets the first win and the loser
/// discard silently.
#[derive(Clone)]
pub(crate) struct Responder {
    out: Arc<Mutex<TcpStream>>,
    sent: Arc<AtomicBool>,
}

impl Responder {
    fn new(out: Arc<Mutex<TcpStream>>) -> Self {
        Responder {
            out,
            sent: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Send `line` unless a response for this request already went out.
    /// Returns whether this call won the latch.
    fn send_once(&self, line: &str) -> bool {
        if self.sent.swap(true, Ordering::SeqCst) {
            return false;
        }
        let mut stream = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A dead client is not a server error; the write result only
        // matters to the client that hung up.
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.flush();
        true
    }

    fn already_sent(&self) -> bool {
        self.sent.load(Ordering::SeqCst)
    }
}

/// One queued unit of work.
pub(crate) struct Job {
    id: Value,
    op: Op,
    responder: Responder,
    cancel: Arc<AtomicBool>,
}

/// A request the timekeeper is watching.
struct Pending {
    deadline: Instant,
    cancel: Arc<AtomicBool>,
    responder: Responder,
    id: Value,
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<Job>,
    cache: Arc<ResultCache>,
    counters: Counters,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
    pending: Mutex<Vec<Pending>>,
    cache_hits: AtomicU64,
    executed: AtomicU64,
}

impl Shared {
    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Vec<Pending>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats_value(&self) -> Value {
        let mut m = Map::new();
        let c = &self.counters;
        for (key, v) in [
            ("connections", c.connections.load(Ordering::Relaxed)),
            ("requests", c.requests.load(Ordering::Relaxed)),
            ("completed", c.completed.load(Ordering::Relaxed)),
            ("bad_requests", c.bad_requests.load(Ordering::Relaxed)),
            (
                "invalid_scenarios",
                c.invalid_scenarios.load(Ordering::Relaxed),
            ),
            ("panicked", c.panicked.load(Ordering::Relaxed)),
            ("timed_out", c.timed_out.load(Ordering::Relaxed)),
            ("overloaded", c.overloaded.load(Ordering::Relaxed)),
            ("cache_hits", self.cache_hits.load(Ordering::Relaxed)),
            ("executed", self.executed.load(Ordering::Relaxed)),
            ("queued", self.queue.len() as u64),
        ] {
            m.insert(key.to_string(), Value::Number(v as f64));
        }
        m.insert(
            "draining".to_string(),
            Value::Bool(self.shutdown.load(Ordering::SeqCst)),
        );
        Value::Object(m)
    }

    fn report(&self) -> ServeReport {
        let c = &self.counters;
        ServeReport {
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            invalid_scenarios: c.invalid_scenarios.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            shed_shutdown: c.shed_shutdown.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
        }
    }
}

/// A running daemon: its bound address plus shutdown/join controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, shed new work with
    /// `shutting-down`, finish queued and in-flight jobs.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }

    /// Whether a drain has been triggered (by signal, op, or handle).
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for the drain to complete and collect the lifetime report.
    /// Call [`trigger_shutdown`](Self::trigger_shutdown) first (or rely
    /// on a client's `shutdown` op).
    pub fn join(self) -> ServeReport {
        // A panic on the accept thread would be a daemon bug; surface the
        // report regardless so the caller's drain path stays total.
        let _ = self.accept_thread.join();
        self.shared.report()
    }
}

/// Bind and start the daemon; returns once the listener is live.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let cache = match &config.cache_dir {
        Some(dir) => Arc::new(ResultCache::with_disk(dir.clone())),
        None => Arc::new(ResultCache::in_memory()),
    };
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity),
        cache,
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        open_connections: AtomicUsize::new(0),
        pending: Mutex::new(Vec::new()),
        cache_hits: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        config,
    });

    let workers: Vec<thread::JoinHandle<()>> = (0..shared.config.workers.max(1))
        .map(|_| {
            let sh = shared.clone();
            thread::spawn(move || worker_loop(&sh))
        })
        .collect();
    let timekeeper = {
        let sh = shared.clone();
        thread::spawn(move || timekeeper_loop(&sh))
    };

    let accept_shared = shared.clone();
    let accept_thread = thread::spawn(move || {
        accept_loop(&listener, &accept_shared);
        // Past here the drain has begun: no new connections, queue
        // closed. Wait for the backlog to finish.
        accept_shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
        let _ = timekeeper.join();
    });

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread,
    })
}

/// Drive a started daemon to completion: poll `should_stop` (the CLI's
/// SIGINT latch) on a short tick, trigger the drain when it fires — or
/// when a client's `shutdown` op already did — then join and report.
///
/// Lives here rather than in the CLI so the polling loop stays inside
/// the crate whose thread/wall-clock tidy waiver covers it.
pub fn run_until(handle: ServerHandle, should_stop: &dyn Fn() -> bool) -> ServeReport {
    loop {
        if handle.draining() {
            break;
        }
        if should_stop() {
            handle.trigger_shutdown();
            break;
        }
        thread::sleep(TICK);
    }
    handle.join()
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.open_connections.load(Ordering::SeqCst) >= shared.config.max_connections {
                    // Refuse at the door with a typed error, then close.
                    let mut s = stream;
                    let _ = s.write_all(
                        err_line(
                            &Value::Null,
                            ErrorKind::Overloaded,
                            "connection limit reached; retry with backoff",
                        )
                        .as_bytes(),
                    );
                    continue;
                }
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared.open_connections.fetch_add(1, Ordering::SeqCst);
                let sh = shared.clone();
                thread::spawn(move || {
                    connection_loop(stream, &sh);
                    sh.open_connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Read newline-delimited requests off one client connection.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets may inherit the listener's non-blocking mode on
    // some platforms; force blocking-with-timeout reads. Disable Nagle:
    // responses are single small writes, and batching them behind an ACK
    // adds tens of milliseconds to every request's tail latency.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut read_half = stream;
    // Bytes of the unfinished request line (never more than
    // `MAX_LINE_BYTES` plus one read).
    let mut buf: Vec<u8> = Vec::new();
    // Set after an over-long line was refused: drop input up to its newline.
    let mut skipping = false;
    let mut chunk = [0u8; 4096];
    let idle_limit = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    let mut last_activity = Instant::now();

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Stop reading; in-flight responses go out via write_half
            // clones held by workers/timekeeper.
            return;
        }
        if last_activity.elapsed() >= idle_limit {
            return;
        }
        match read_half.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // Earlier bytes were already scanned: only the new ones
                // can hold a newline.
                let mut scan_from = buf.len() - n;
                let mut line_start = 0;
                while let Some(off) = buf[scan_from..].iter().position(|&b| b == b'\n') {
                    let end = scan_from + off;
                    let line = &buf[line_start..end];
                    line_start = end + 1;
                    scan_from = line_start;
                    if skipping {
                        skipping = false;
                        continue;
                    }
                    let text = String::from_utf8_lossy(line);
                    let text = text.trim();
                    if text.is_empty() {
                        continue;
                    }
                    last_activity = Instant::now();
                    handle_line(text, &write_half, shared);
                }
                buf.drain(..line_start);
                if !skipping && buf.len() > MAX_LINE_BYTES {
                    last_activity = Instant::now();
                    refuse_long_line(&write_half, shared);
                    skipping = true;
                }
                if skipping {
                    buf.clear();
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Answer a request line longer than [`MAX_LINE_BYTES`] without reading
/// the rest of it.
fn refuse_long_line(out: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    shared.counters.bump_error(ErrorKind::BadRequest);
    Responder::new(out.clone()).send_once(&err_line(
        &Value::Null,
        ErrorKind::BadRequest,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes; skipped to its newline"),
    ));
}

fn handle_line(line: &str, out: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.bump_error(e.kind);
            let responder = Responder::new(out.clone());
            responder.send_once(&err_line(&e.id, e.kind, &e.message));
            return;
        }
    };
    let responder = Responder::new(out.clone());
    match &request.op {
        Op::Ping => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            responder.send_once(&ok_line(&request.id, serde_json::json!({"pong": true})));
        }
        Op::Stats => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            responder.send_once(&ok_line(&request.id, shared.stats_value()));
        }
        Op::Shutdown => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            responder.send_once(&ok_line(&request.id, serde_json::json!({"draining": true})));
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.close();
        }
        Op::DebugPanic | Op::DebugSleep(_) if !shared.config.debug_ops => {
            shared.counters.bump_error(ErrorKind::BadRequest);
            responder.send_once(&err_line(
                &request.id,
                ErrorKind::BadRequest,
                "debug ops are disabled (start the daemon with --debug-ops)",
            ));
        }
        Op::Eval(_) | Op::Experiment(_) | Op::DebugPanic | Op::DebugSleep(_) => {
            enqueue(request, responder, shared);
        }
    }
}

fn enqueue(request: Request, responder: Responder, shared: &Arc<Shared>) {
    let deadline_ms = request
        .deadline_ms
        .unwrap_or(shared.config.default_deadline_ms)
        .max(1);
    let cancel = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    shared.lock_pending().push(Pending {
        deadline,
        cancel: cancel.clone(),
        responder: responder.clone(),
        id: request.id.clone(),
    });
    let job = Job {
        id: request.id,
        op: request.op,
        responder,
        cancel,
    };
    if let Err((why, job)) = shared.queue.push(job) {
        let (kind, msg) = match why {
            PushError::Full => (
                ErrorKind::Overloaded,
                "admission queue full; retry with backoff",
            ),
            PushError::Closed => (ErrorKind::ShuttingDown, "daemon is draining"),
        };
        shared.counters.bump_error(kind);
        job.responder.send_once(&err_line(&job.id, kind, msg));
        // The timekeeper drops the pending entry on its next scan (the
        // responder's latch is already closed).
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        match shared.queue.pop(TICK) {
            Popped::Closed => return,
            Popped::Empty => continue,
            Popped::Job(job) => run_job(job, shared),
        }
    }
}

fn run_job(job: Job, shared: &Arc<Shared>) {
    if job.responder.already_sent() {
        // The timekeeper answered (deadline passed while queued); don't
        // burn a worker on a request nobody is waiting for.
        return;
    }
    let runner = request_runner(&shared.cache, &job.cancel);
    let outcome = execute(&job.op, &runner, &job.cancel);
    let stats = runner.stats();
    shared
        .cache_hits
        .fetch_add(stats.cache_hits, Ordering::Relaxed);
    shared.executed.fetch_add(stats.executed, Ordering::Relaxed);
    match outcome {
        Ok(result) => {
            if job.responder.send_once(&ok_line(&job.id, result)) {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err((kind, msg)) => {
            if job.responder.send_once(&err_line(&job.id, kind, &msg)) {
                shared.counters.bump_error(kind);
            }
        }
    }
}

fn timekeeper_loop(shared: &Arc<Shared>) {
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        let now = Instant::now();
        {
            let mut pending = shared.lock_pending();
            pending.retain(|p| {
                if p.responder.already_sent() {
                    return false;
                }
                if now >= p.deadline {
                    // Raise the flag first so an in-flight sweep stops
                    // claiming, then answer the client on time.
                    p.cancel.store(true, Ordering::SeqCst);
                    if p.responder.send_once(&err_line(
                        &p.id,
                        ErrorKind::Timeout,
                        "deadline passed; the job was cancelled (completed sweep jobs \
                         are cached, so a retry resumes)",
                    )) {
                        shared.counters.bump_error(ErrorKind::Timeout);
                    }
                    return false;
                }
                true
            });
            if draining && pending.is_empty() && shared.queue.len() == 0 {
                return;
            }
        }
        thread::sleep(DEADLINE_SCAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity >= 1);
        assert!(c.default_deadline_ms >= 1);
        assert!(!c.debug_ops);
    }

    #[test]
    fn report_renders_every_counter() {
        let r = ServeReport {
            connections: 1,
            requests: 2,
            completed: 3,
            bad_requests: 4,
            invalid_scenarios: 5,
            panicked: 6,
            timed_out: 7,
            overloaded: 8,
            shed_shutdown: 9,
            cache_hits: 10,
            executed: 11,
        };
        let text = r.render();
        for needle in ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
