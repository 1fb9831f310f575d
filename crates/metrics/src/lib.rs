#![warn(missing_docs)]
//! Instrumentation for the streaming similarity self-join.
//!
//! The paper's evaluation (§7) reports wall-clock times, posting-entry
//! traversal counts, candidate counts and success-within-budget fractions.
//! This crate provides the shared plumbing:
//!
//! * [`JoinStats`] — the counters every index/framework maintains;
//! * [`Stopwatch`] — wall-clock timing;
//! * [`WorkBudget`] — the per-run budget used to reproduce Table 2;
//! * [`TextTable`] — aligned text tables for harness output;
//! * [`linear_regression`] — the least-squares fit of Figure 9;
//! * [`Csv`] — minimal CSV emission for downstream plotting;
//! * [`LogLinearHistogram`] — fixed-footprint per-record latency quantiles;
//! * [`registry`] — the always-on process-global telemetry registry
//!   ([`Counter`]/[`Gauge`]/[`Recorder`] handles, Prometheus + JSON
//!   export) every runtime crate reports into;
//! * [`trace`] — always-on span/event tracing into per-thread
//!   lock-free flight-recorder rings, exported as the net `TRACE`
//!   verb and Chrome trace-event JSON (Perfetto).

pub mod budget;
pub mod counters;
pub mod csv;
pub mod histogram;
pub mod registry;
pub mod regression;
pub mod table;
pub mod timer;
pub mod trace;

pub use budget::{BudgetOutcome, WorkBudget};
pub use counters::JoinStats;
pub use csv::Csv;
pub use histogram::LogLinearHistogram;
pub use registry::{telemetry_enabled, Counter, Gauge, Recorder, Registry};
pub use regression::{linear_regression, Regression};
pub use table::TextTable;
pub use timer::Stopwatch;
pub use trace::trace_enabled;
