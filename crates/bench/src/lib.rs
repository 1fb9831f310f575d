#![warn(missing_docs)]
//! The experiment harness: reproduces every table and figure of §7.
//!
//! [`Experiments`] owns the (lazily generated, cached) preset datasets and
//! a memo of algorithm runs, so the harness binary can regenerate all
//! tables/figures in one process without re-running shared sweeps. Each
//! `table*`/`fig*` method returns the rendered table and writes a CSV next
//! to it for re-plotting.
//!
//! # Latency methodology
//!
//! Two kinds of measurement coexist here and must not be conflated:
//!
//! * **Closed-loop throughput** ([`runner`], the `fig*` benches): the
//!   harness feeds records back-to-back, so elapsed time measures how
//!   fast the join can drain a stream. Good for the paper's
//!   time-vs-parameter figures; says nothing about the latency an
//!   individual record experiences under load, because a slow record
//!   delays the *issuing* of every later one (coordinated omission —
//!   the system is never observed while it is behind).
//! * **Open-loop latency** ([`openloop`], the `ext_latency_openloop`
//!   bench and `sssj bench-latency`): the arrival schedule is fixed in
//!   advance from the stream's timestamps rescaled to a target rate,
//!   and each record's latency runs from its *scheduled* arrival to
//!   completion, so queueing delay during stalls is charged to every
//!   record it affects. This is the number a subscriber to the pair
//!   stream would actually observe; backpressure shows up both in the
//!   tail quantiles and in an explicit stall counter.
//! * **Open-loop over sockets** ([`netbench`], the `ext_latency_net`
//!   bench and `sssj bench-latency --net`): the same schedule driven
//!   through real connections — one ingest client plus N concurrent
//!   query clients — so the server's read path (Mutex oracle vs
//!   snapshot reads) is inside the measurement.

pub mod datasets;
pub mod experiments;
pub mod extensions;
pub mod grid;
pub mod netbench;
pub mod openloop;
pub mod runner;

pub use datasets::default_n;
pub use experiments::Experiments;
pub use grid::{LAMBDAS, THETAS};
pub use netbench::{run_net_open_loop, run_query_saturation, NetLoopConfig};
pub use openloop::{run_open_loop, run_open_loop_with_hooks, OpenLoopConfig, OpenLoopReport};
pub use runner::{run_algorithm, RunOutcome, RunResult};
