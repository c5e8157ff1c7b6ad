//! axcc-serve: a fault-tolerant evaluation daemon for the axiomatic
//! congestion-control testbed.
//!
//! The daemon (`axcc serve`) listens on a TCP socket for
//! newline-delimited JSON requests — an inline scenario spec (`eval`) or
//! a registry experiment by name (`experiment`) — and streams back one
//! JSON response line per request. It is built to keep serving through
//! every failure mode a long-running evaluator meets:
//!
//! - **Malformed input** never reaches a worker: requests are validated
//!   at parse time and refused with a typed `bad-request`/`invalid-scenario`.
//! - **Poisoned jobs** are isolated: each job runs under `catch_unwind`,
//!   so a panicking scenario yields a `job-panicked` response and the
//!   daemon keeps serving.
//! - **Deadlines** are enforced by a timekeeper thread that cancels the
//!   job's sweep runner and answers with a typed `timeout`; completed
//!   sweep jobs are already cached, so a retry resumes.
//! - **Overload** is shed at admission: a bounded queue refuses work
//!   beyond capacity with a typed `overloaded` instead of buffering
//!   without bound.
//! - **Shutdown** (SIGINT or the `shutdown` op) drains: queued jobs
//!   finish, new work is refused with `shutting-down`, and the cache is
//!   write-through so nothing needs flushing.
//!
//! Its throughput and latency are measured by `perfbench`'s serve-mixed
//! workload (see `perfbench/README.md`).

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod protocol;
pub mod server;

mod queue;
mod worker;

pub use protocol::{parse_response, ErrorKind, ParsedResponse};
pub use server::{start, ServeConfig, ServeReport, ServerHandle};
