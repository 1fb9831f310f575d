#![warn(missing_docs)]
//! Streaming similarity self-join (SSSJ) — the core contribution of the
//! paper.
//!
//! Given an unbounded stream of timestamped unit vectors, a threshold `θ`
//! and a decay rate `λ`, report every pair with time-dependent similarity
//! `dot(x, y)·e^{-λ·|t(x)−t(y)|} ≥ θ`. The decay induces a *time horizon*
//! `τ = ln(1/θ)/λ` beyond which nothing can pair, which bounds state.
//!
//! Two frameworks solve the problem:
//!
//! * [`MiniBatch`] (MB, Algorithm 1 + §6.1) — buffers the stream in
//!   windows of length `τ`, builds a fresh batch index per window and
//!   queries it with the following window. Uses any batch index
//!   ([`sssj_index::BatchIndex`]) as a black box; reports within-window
//!   pairs with delay and probes pairs as far apart as `2τ`.
//! * [`Streaming`] (STR, Algorithms 5–8) — a single incrementally
//!   maintained index with *time filtering* built in: posting lists are
//!   pruned as they are scanned, bounds are decayed per entry, and old
//!   state is dropped the moment it falls behind the horizon.
//!
//! Both frameworks are instantiated with any [`sssj_index::IndexKind`];
//! the paper's headline configuration is STR with the L2 index.
//!
//! # One config surface: [`spec::JoinSpec`]
//!
//! The whole variant family — STR/MB × index, generalised decay, top-k,
//! LSH, sharding, plus the reorder/checked/durable/graph/history
//! wrappers — is described by one declarative, serializable
//! [`spec::JoinSpec`] and built by its single factory
//! [`spec::JoinSpec::build`]. The compact
//! text form (e.g. `str-l2?theta=0.7&lambda=0.01&reorder=5`) is what the
//! CLI and the net protocol speak; [`JoinBuilder`] is the fluent
//! front-end over the same spec.
//!
//! ```
//! use sssj_core::spec::JoinSpec;
//!
//! let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.1".parse().unwrap();
//! let mut join = spec.build().unwrap();
//! # use sssj_core::StreamJoin;
//! # use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};
//! let mut out = Vec::new();
//! for (i, t) in [0.0, 1.0, 100.0].into_iter().enumerate() {
//!     let r = StreamRecord::new(i as u64, Timestamp::new(t), unit_vector(&[(1, 1.0)]));
//!     join.process(&r, &mut out);
//! }
//! // Identical vectors 0 and 1 are close in time; 2 is beyond the horizon.
//! assert_eq!(out.len(), 1);
//! assert_eq!((out[0].left, out[0].right), (0, 1));
//! ```

pub mod advisor;
pub mod algorithm;
pub mod api;
pub mod config;
pub mod decay_join;
pub mod latency;
pub mod minibatch;
pub mod reorder;
pub mod sink;
pub mod spec;
pub mod streaming;
pub mod telemetry;
pub mod topk;
pub mod verify;

pub use advisor::{advise, advise_from_examples, Advice, AdvisorError};
pub use algorithm::{
    build_algorithm, run_stream, Checkpointable, Framework, ShardableJoin, StreamJoin,
};
pub use api::{JoinBuilder, PairIter};
pub use config::SssjConfig;
pub use decay_join::DecayStreaming;
pub use latency::{measure_report_delay, DelayStats};
pub use minibatch::MiniBatch;
pub use reorder::{LateRecord, ReorderBuffer};
pub use sink::{PairSink, SinkedJoin};
pub use spec::{DecaySpec, EngineSpec, JoinSpec, LshSpec, ShardedInner, SpecError, WrapperSpec};
pub use streaming::{read_max_aux, write_max_aux, Streaming, MAX_SNAPSHOT_DIM};
pub use telemetry::TelemetryJoin;
pub use topk::TopKJoin;
pub use verify::CheckedJoin;
