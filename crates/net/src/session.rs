//! The per-connection session state machine.
//!
//! [`Session`] is deliberately socket-free: it maps one [`Request`] to a
//! sequence of [`Response`]s, so the whole protocol behaviour is unit-
//! testable without networking. The server (see [`crate::server`]) only
//! adds framing: read a line, parse, `handle`, write the responses.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use sssj_core::{
    EngineSpec, Framework, JoinSpec, ReorderBuffer, SpecError, StreamJoin, WrapperSpec,
};
use sssj_graph::{Edge, GraphHandle, GraphStats};
use sssj_metrics::registry::{Counter, Recorder, Registry};
use sssj_segments::HistoryHandle;
use sssj_textsim::Tokenizer;
use sssj_types::{SimilarPair, SparseVectorBuilder, StreamRecord, Timestamp};

use crate::protocol::{
    ConfigRequest, EngineLabel, GraphQuery, Request, Response, SessionMode, SessionStats,
};

/// Request verbs as metric label values, indexed by [`verb_index`].
const VERB_NAMES: [&str; 10] = [
    "config",
    "vector",
    "text",
    "stats",
    "metrics",
    "query",
    "subscribe",
    "finish",
    "quit",
    "trace",
];

fn verb_index(request: &Request) -> usize {
    match request {
        Request::Config(_) => 0,
        Request::Vector { .. } => 1,
        Request::Text { .. } => 2,
        Request::Stats => 3,
        Request::Metrics => 4,
        Request::Query(_) => 5,
        Request::Subscribe { .. } => 6,
        Request::Finish => 7,
        Request::Quit => 8,
        Request::Trace { .. } => 9,
    }
}

/// Server-side ceiling on one `TRACE n` reply, so a client cannot ask
/// for unbounded drain work (the rings hold 4096 events per thread).
const MAX_TRACE_EVENTS: u64 = 65_536;

struct VerbHandles {
    requests: &'static Counter,
    seconds: &'static Recorder,
}

/// Per-verb request counters and latency recorders, resolved once —
/// `handle` indexes this table with [`verb_index`], so the per-request
/// cost is two striped bumps, never a registry lookup.
fn verb_metrics() -> &'static [VerbHandles] {
    static M: OnceLock<Vec<VerbHandles>> = OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        VERB_NAMES
            .iter()
            .map(|v| VerbHandles {
                requests: reg.counter_with(
                    "sssj_net_requests_total",
                    "protocol requests handled, by verb",
                    &[("verb", v)],
                ),
                seconds: reg.recorder_with(
                    "sssj_net_request_seconds",
                    "request handling latency, by verb",
                    &[("verb", v)],
                ),
            })
            .collect()
    })
}

/// The slow-query threshold from `SSSJ_SLOW_MS` (milliseconds, read
/// once). `None` — the default — disables the probe entirely, so the
/// hot path never formats a request it will not log.
fn slow_threshold_ms() -> Option<f64> {
    static T: OnceLock<Option<f64>> = OnceLock::new();
    *T.get_or_init(|| {
        std::env::var("SSSJ_SLOW_MS")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|t| t.is_finite() && *t >= 0.0)
    })
}

/// Logs one slow request to stderr, rate-limited to roughly one line
/// per second process-wide so a pathological stream cannot flood the
/// log. Counted (unsampled) in `sssj_net_slow_requests_total` either
/// way.
fn log_slow_request(repr: &str, elapsed_ms: f64, generation: u64, trace_id: u64) {
    static LAST: Mutex<Option<Instant>> = Mutex::new(None);
    let mut last = LAST.lock().expect("slow-log clock poisoned");
    let due = last.is_none_or(|at| at.elapsed().as_secs_f64() >= 1.0);
    if due {
        *last = Some(Instant::now());
        eprintln!(
            "sssj: slow request ({elapsed_ms:.1} ms, snapshot generation {generation}): {repr}"
        );
        // With tracing on, the offending request's span tree — its
        // journey through ingest, shards, WAL, graph — follows the line.
        if trace_id != 0 {
            let tree = sssj_metrics::trace::format_span_tree(trace_id);
            if !tree.is_empty() {
                eprint!("{tree}");
            }
        }
    }
}

/// Server-side defaults a session starts from; `CONFIG` overrides them
/// per session. The join pipeline is a full [`JoinSpec`], so any variant
/// the workspace implements can be the server default.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionDefaults {
    /// The join pipeline (engine, index, θ/λ, wrappers).
    pub spec: JoinSpec,
    /// Payload interpretation.
    pub mode: SessionMode,
}

impl Default for SessionDefaults {
    fn default() -> Self {
        SessionDefaults {
            spec: JoinSpec::new(0.7, 0.01),
            mode: SessionMode::Vector,
        }
    }
}

/// The join behind a session: plain, or wrapped in a reorder buffer when
/// the client asked for out-of-order tolerance. The wrapper is kept
/// explicit (not type-erased) so late records can be reported as `E`
/// responses rather than silently dropped.
enum SessionJoin {
    Plain(Box<dyn StreamJoin>),
    Reordered(ReorderBuffer<Box<dyn StreamJoin>>),
}

impl SessionJoin {
    fn stats(&self) -> sssj_metrics::JoinStats {
        match self {
            SessionJoin::Plain(j) => j.stats(),
            SessionJoin::Reordered(j) => j.stats(),
        }
    }

    fn live_postings(&self) -> u64 {
        match self {
            SessionJoin::Plain(j) => j.live_postings(),
            SessionJoin::Reordered(j) => j.live_postings(),
        }
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        match self {
            SessionJoin::Plain(j) => j.finish(out),
            SessionJoin::Reordered(j) => j.finish(out),
        }
    }

    fn resume_point(&self) -> Option<(u64, f64)> {
        match self {
            SessionJoin::Plain(j) => j.resume_point(),
            SessionJoin::Reordered(j) => j.resume_point(),
        }
    }
}

/// One client session: configuration, the running join, and id/time
/// bookkeeping.
pub struct Session {
    defaults: SessionDefaults,
    current: SessionDefaults,
    /// Slack of the current spec's outermost reorder wrapper (0 = none).
    slack: f64,
    join: SessionJoin,
    /// The live graph handle when the spec carries the `graph` wrapper —
    /// what `QUERY`/`SUBSCRIBE` are served from.
    graph: Option<GraphHandle>,
    /// The historical tier's handle when the spec carries `history=` —
    /// what `QUERY … at=<t>` and the stats history boundary are served
    /// from.
    history: Option<HistoryHandle>,
    /// The current spec's horizon τ (the time-travel window width).
    horizon: f64,
    /// Nodes with live `SUBSCRIBE`s (insertion order; deduplicated).
    subs: Vec<u64>,
    tokenizer: Tokenizer,
    next_id: u64,
    last_t: f64,
    records: u64,
    pairs: u64,
    started: bool,
    finished: bool,
    /// Serve watermark-time `QUERY`s from the published [`GraphSnapshot`]
    /// instead of the freshness path (see [`Session::set_snapshot_reads`]).
    ///
    /// [`GraphSnapshot`]: sssj_graph::GraphSnapshot
    snapshot_reads: bool,
    /// Which serving engine hosts this session (`STATS` reports it).
    engine_label: EngineLabel,
    /// Whether this session feeds a shared pipeline (`STATS` reports it).
    shared: bool,
}

/// Builds the session's join through the one spec factory. An outermost
/// reorder wrapper is split off and kept un-type-erased so late records
/// can be reported as `E` responses rather than silently dropped;
/// everything inside it comes from [`JoinSpec::build`] — except that a
/// `graph`-wrapped spec goes through `sssj_graph::build_with_handle`,
/// which is the same factory path plus the query handle `QUERY`/
/// `SUBSCRIBE` are served from. Returns the join, that wrapper's slack,
/// and the graph handle (if any).
type BuiltJoin = (SessionJoin, f64, Option<GraphHandle>, Option<HistoryHandle>);

fn build_join(spec: &JoinSpec) -> Result<BuiltJoin, SpecError> {
    // Validate the *whole* spec first, so an invalid outer wrapper
    // combination cannot slip through the split.
    spec.validate()?;
    let (inner, slack) = spec.split_outer_reorder();
    let (join, graph, history) = if inner
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::History(_)))
    {
        let (join, graph, history) = sssj_segments::build_with_handles(&inner)?;
        (join, graph, Some(history))
    } else if inner
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::Graph))
    {
        let (join, handle) = sssj_graph::build_with_handle(&inner)?;
        (join, Some(handle), None)
    } else {
        (inner.build()?, None, None)
    };
    Ok(match slack {
        Some(slack) if slack > 0.0 => (
            SessionJoin::Reordered(ReorderBuffer::new(join, slack)),
            slack,
            graph,
            history,
        ),
        _ => (SessionJoin::Plain(join), 0.0, graph, history),
    })
}

/// Emits an edge list as `P <node> <nbr> <sim>` lines plus the counting
/// `OK` terminator — the framing every edge-valued `QUERY` uses.
fn push_edges(out: &mut Vec<Response>, node: u64, edges: Vec<Edge>) {
    let n = edges.len() as u64;
    out.extend(
        edges
            .into_iter()
            .map(|e| Response::Pair(SimilarPair::new(node, e.neighbor, e.similarity))),
    );
    out.push(Response::Ok(n));
}

impl Session {
    /// Creates a session with the server's defaults.
    ///
    /// Panics when the default spec cannot be built — server defaults
    /// are operator-supplied configuration, not client input. Client
    /// `CONFIG` requests never panic; they answer `E` lines.
    pub fn new(defaults: SessionDefaults) -> Self {
        crate::register_spec_builders();
        let (join, slack, graph, history) = build_join(&defaults.spec)
            .unwrap_or_else(|e| panic!("invalid server default spec {}: {e}", defaults.spec));
        // A durable default spec may have *resumed* from its manifest:
        // continue id assignment and the timestamp watermark where the
        // previous incarnation stopped.
        let (next_id, last_t) = join.resume_point().unwrap_or((0, f64::NEG_INFINITY));
        let horizon = defaults.spec.horizon();
        Session {
            current: defaults.clone(),
            defaults,
            slack,
            join,
            graph,
            history,
            horizon,
            subs: Vec::new(),
            tokenizer: Tokenizer::new(),
            next_id,
            last_t,
            records: 0,
            pairs: 0,
            started: false,
            finished: false,
            snapshot_reads: false,
            engine_label: EngineLabel::Unknown,
            shared: false,
        }
    }

    /// Stamps the serving shape `STATS` reports (`engine=eventloop`,
    /// `shared=`) — the server calls this once when it adopts the session.
    pub fn set_serving_info(&mut self, shared: bool) {
        self.engine_label = EngineLabel::EventLoop;
        self.shared = shared;
    }

    /// The configuration currently in effect.
    pub fn current_config(&self) -> &SessionDefaults {
        &self.current
    }

    /// When on, watermark-time `QUERY`s (no `at=`) answer from the
    /// graph's *published snapshot* — wait-free for the reader and
    /// consistent at the snapshot's own watermark — instead of the
    /// freshness path, which takes the ingest lock to fold in pending
    /// edges first. The shared event-loop server turns this on so
    /// queries never contend with ingest; it publishes after every
    /// request batch, so a client that saw its `OK` also sees its edges
    /// (read-your-writes across request/response turns). Off by default:
    /// a session that owns its pipeline wants fresh answers.
    pub fn set_snapshot_reads(&mut self, on: bool) {
        self.snapshot_reads = on;
    }

    /// The live graph handle (a cheap clone), when the spec carries the
    /// `graph` wrapper — the server's publish/fan-out hooks use it.
    pub fn graph_handle(&self) -> Option<GraphHandle> {
        self.graph.clone()
    }

    /// Handles one request, appending the responses. Returns `false`
    /// when the session must close (after `QUIT`).
    ///
    /// The server funnels every request through here, so this is where
    /// the per-verb telemetry, the trace scope, and the slow-query probe
    /// live. With telemetry and tracing off and no `SSSJ_SLOW_MS`
    /// threshold the request goes straight to dispatch — not even a
    /// clock read.
    pub fn handle(&mut self, request: Request, out: &mut Vec<Response>) -> bool {
        let slow_ms = slow_threshold_ms();
        let telemetry = sssj_metrics::telemetry_enabled();
        if !telemetry && !sssj_metrics::trace_enabled() && slow_ms.is_none() {
            return self.dispatch(request, out);
        }
        let verb = verb_index(&request);
        // Format the request up front only when the slow probe is armed:
        // dispatch consumes it, and the probe logs the parsed form.
        let repr = slow_ms.map(|_| request.to_string());
        // Every request gets its own trace id; spans recorded anywhere
        // downstream — ingest, shard fan-out, WAL, graph publish — nest
        // under this scope, so one record's journey is reconstructible.
        let _trace = sssj_metrics::trace::scope(sssj_metrics::trace::next_trace_id());
        let mut span =
            sssj_metrics::trace::span_with(sssj_metrics::trace::Stage::NetRequest, verb as u64, 0);
        let started = Instant::now();
        let keep = self.dispatch(request, out);
        let elapsed = started.elapsed();
        span.set_args(verb as u64, out.len() as u64);
        let trace_id = span.trace_id();
        drop(span);
        if telemetry {
            let m = &verb_metrics()[verb];
            m.requests.inc();
            m.seconds.record_duration(elapsed);
        }
        if let (Some(threshold), Some(repr)) = (slow_ms, repr) {
            let elapsed_ms = elapsed.as_secs_f64() * 1e3;
            if elapsed_ms > threshold {
                if telemetry {
                    Registry::global()
                        .counter(
                            "sssj_net_slow_requests_total",
                            "requests over the SSSJ_SLOW_MS threshold",
                        )
                        .inc();
                }
                sssj_metrics::trace::instant(
                    sssj_metrics::trace::Stage::SlowRequest,
                    verb as u64,
                    elapsed_ms as u64,
                );
                log_slow_request(&repr, elapsed_ms, self.snapshot_generation(), trace_id);
            }
        }
        keep
    }

    /// Graph snapshot generation visible to this session (0 without a
    /// graph or before the first publish).
    fn snapshot_generation(&self) -> u64 {
        self.graph
            .as_ref()
            .map(|g| g.snapshot().generation())
            .unwrap_or(0)
    }

    fn dispatch(&mut self, request: Request, out: &mut Vec<Response>) -> bool {
        match request {
            Request::Config(c) => self.handle_config(c, out),
            Request::Vector { t, entries } => self.handle_vector(t, &entries, out),
            Request::Text { t, text } => self.handle_text(t, &text, out),
            Request::Query(q) => self.handle_query(q, out),
            Request::Subscribe { node } => {
                if self.graph.is_none() {
                    out.push(Response::Err(
                        "session has no graph (configure a graph-wrapped spec, \
                         e.g. CONFIG spec=str-l2?theta=0.7&tau=10&graph)"
                            .into(),
                    ));
                } else {
                    if !self.subs.contains(&node) {
                        self.subs.push(node);
                    }
                    out.push(Response::Ok(0));
                }
            }
            Request::Stats => {
                let s = self.join.stats();
                out.push(Response::Stats(SessionStats {
                    records: self.records,
                    pairs: self.pairs,
                    entries_traversed: s.entries_traversed,
                    candidates: s.candidates,
                    full_sims: s.full_sims,
                    live_postings: self.join.live_postings(),
                    engine: self.engine_label,
                    shared: self.shared,
                    generation: self.snapshot_generation(),
                }));
            }
            Request::Metrics => {
                // Empty with SSSJ_TELEMETRY=off: frozen counters would
                // scrape as zeros, which reads as data. Absence does not.
                let text = if sssj_metrics::telemetry_enabled() {
                    Registry::global().prometheus()
                } else {
                    String::new()
                };
                let mut n = 0u64;
                for line in text.lines() {
                    out.push(Response::Metric(line.to_string()));
                    n += 1;
                }
                out.push(Response::Ok(n));
            }
            Request::Trace { max } => {
                // Drain before the header so `dropped=` covers exactly
                // the events this reply could have carried.
                let dump = sssj_metrics::trace::drain_last(max.min(MAX_TRACE_EVENTS) as usize);
                out.push(Response::TraceLine(format!(
                    "# now={} watermark={} dropped={}",
                    dump.now_ns, self.last_t, dump.dropped
                )));
                out.extend(
                    dump.events
                        .iter()
                        .map(|ev| Response::TraceLine(ev.to_wire())),
                );
                out.push(Response::Ok(1 + dump.events.len() as u64));
            }
            Request::Finish => {
                if self.finished {
                    out.push(Response::Ok(0));
                    return true;
                }
                let mut pairs = Vec::new();
                self.join.finish(&mut pairs);
                self.finished = true;
                self.emit(pairs, out);
            }
            Request::Quit => {
                out.push(Response::Bye);
                return false;
            }
        }
        true
    }

    fn handle_config(&mut self, c: ConfigRequest, out: &mut Vec<Response>) {
        if self.started {
            out.push(Response::Err("CONFIG must precede the first record".into()));
            return;
        }
        // The spec replaces the pipeline wholesale; scalar keys override
        // its fields on top (in that order — see the protocol docs).
        let mut spec = c.spec.unwrap_or_else(|| self.defaults.spec.clone());
        if let Some(theta) = c.theta {
            spec.theta = theta;
        }
        if let Some(lambda) = c.lambda {
            spec.lambda = lambda;
        }
        if let Some(index) = c.index {
            spec.index = index;
        }
        if let Some(framework) = c.framework {
            spec.engine = match framework {
                Framework::Streaming => EngineSpec::Streaming,
                Framework::MiniBatch => EngineSpec::MiniBatch,
            };
        }
        if let Some(slack) = c.slack {
            if !(slack.is_finite() && slack >= 0.0) {
                out.push(Response::Err(format!("slack must be ≥ 0: {slack}")));
                return;
            }
            // Replace any outer reorder wrapper with the requested slack.
            if let (inner, Some(_)) = spec.split_outer_reorder() {
                spec = inner;
            }
            if slack > 0.0 {
                spec.wrappers.push(WrapperSpec::Reorder(slack));
            }
        }
        // Validate by building: every error — out-of-range parameter,
        // invalid wrapper combination, unregistered engine — comes back
        // as an `E` line and the session stays on its previous join.
        match build_join(&spec) {
            Ok((join, slack, graph, history)) => {
                // Resuming a durable store (`…&durable=<dir>` with an
                // existing manifest): the session continues the
                // recovered stream — ids restart after the ingested
                // prefix, the watermark at the recovered timestamp, and
                // the replay tail surfaces with the first record's
                // response.
                let (next_id, last_t) = join.resume_point().unwrap_or((0, f64::NEG_INFINITY));
                self.next_id = next_id;
                self.last_t = last_t;
                self.join = join;
                self.graph = graph;
                self.history = history;
                self.horizon = spec.horizon();
                self.subs.clear();
                self.slack = slack;
                self.current = SessionDefaults {
                    spec,
                    mode: c.mode.unwrap_or(self.defaults.mode),
                };
                out.push(Response::Ok(0));
            }
            Err(e) => out.push(Response::Err(e.to_string())),
        }
    }

    fn handle_vector(&mut self, t: f64, entries: &[(u32, f64)], out: &mut Vec<Response>) {
        if self.current.mode != SessionMode::Vector {
            out.push(Response::Err("session is in text mode; use T".into()));
            return;
        }
        let mut b = SparseVectorBuilder::with_capacity(entries.len());
        for &(d, w) in entries {
            b.push(d, w);
        }
        match b.build_normalized() {
            Ok(v) => self.ingest(t, v, out),
            Err(e) => out.push(Response::Err(format!("bad vector: {e}"))),
        }
    }

    fn handle_text(&mut self, t: f64, text: &str, out: &mut Vec<Response>) {
        if self.current.mode != SessionMode::Text {
            out.push(Response::Err("session is in vector mode; use V".into()));
            return;
        }
        match self.tokenizer.unit_vector(text) {
            Ok(v) => self.ingest(t, v, out),
            // Token-free text can never join anything: accept and move on
            // without consuming an id, mirroring the CLI `serve` command.
            Err(_) => out.push(Response::Ok(0)),
        }
    }

    fn ingest(&mut self, t: f64, vector: sssj_types::SparseVector, out: &mut Vec<Response>) {
        if self.finished {
            out.push(Response::Err(
                "session already finished; open a new connection".into(),
            ));
            return;
        }
        let record = StreamRecord::new(self.next_id, Timestamp::new(t), vector);
        let mut pairs = Vec::new();
        match &mut self.join {
            SessionJoin::Plain(join) => {
                if t < self.last_t {
                    out.push(Response::Err(format!(
                        "out-of-order timestamp {t} < {} (configure slack= to tolerate)",
                        self.last_t
                    )));
                    return;
                }
                join.process(&record, &mut pairs);
            }
            SessionJoin::Reordered(join) => {
                if let Err(late) = join.push(&record, &mut pairs) {
                    out.push(Response::Err(format!(
                        "record at t={t} is more than slack={} late (released up to t={})",
                        self.slack, late.released_up_to
                    )));
                    return;
                }
            }
        }
        self.started = true;
        self.next_id += 1;
        self.records += 1;
        if t > self.last_t {
            self.last_t = t;
        }
        self.emit(pairs, out);
    }

    fn emit(&mut self, pairs: Vec<SimilarPair>, out: &mut Vec<Response>) {
        let n = pairs.len() as u64;
        self.pairs += n;
        // Pushed subscription updates ride between the P lines and the
        // OK; they are not counted (wire compatibility for clients that
        // never subscribe).
        let updates: Vec<Response> = if self.subs.is_empty() {
            Vec::new()
        } else {
            pairs
                .iter()
                .flat_map(|p| {
                    [p.left, p.right]
                        .into_iter()
                        .filter(|node| self.subs.contains(node))
                        .map(|node| Response::Update { node, pair: *p })
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        out.extend(pairs.into_iter().map(Response::Pair));
        out.extend(updates);
        out.push(Response::Ok(n));
    }

    /// Serves one `QUERY` — at the session's stream watermark, or (with
    /// `at=<t>` on a history session) at historical time `t` from the
    /// segment-tier overlay.
    fn handle_query(&mut self, query: GraphQuery, out: &mut Vec<Response>) {
        let at = match query {
            GraphQuery::Neighbors { at, .. }
            | GraphQuery::TopK { at, .. }
            | GraphQuery::Component { at, .. } => at,
            GraphQuery::Stats => None,
        };
        if let Some(t) = at {
            self.handle_history_query(query, t, out);
            return;
        }
        let Some(graph) = &self.graph else {
            out.push(Response::Err(
                "session has no graph (configure a graph-wrapped spec, \
                 e.g. CONFIG spec=str-l2?theta=0.7&tau=10&graph)"
                    .into(),
            ));
            return;
        };
        if self.snapshot_reads {
            // Shared event-loop serving: answer from the published
            // snapshot, evaluated at its own watermark. Publication is
            // lazy — `publish_now` folds any unpublished ingest in
            // before answering (read-your-writes across the loop's
            // connections) and is a wait-free cached-`Arc` load when
            // nothing changed, so pure-ingest iterations never pay a
            // capture and idle queries never take a lock.
            let snap = graph.publish_now();
            let now = snap.watermark();
            match query {
                GraphQuery::Neighbors { node, .. } => {
                    push_edges(out, node, snap.neighbors(node, now));
                }
                GraphQuery::TopK { node, k, .. } => {
                    push_edges(out, node, snap.topk(node, k as usize, now));
                }
                GraphQuery::Component { node, .. } => {
                    let (root, size) = snap.component(node, now).unwrap_or((node, 0));
                    out.push(Response::Graph(vec![
                        ("root".into(), root),
                        ("size".into(), size),
                    ]));
                }
                GraphQuery::Stats => {
                    let fields = self.stats_fields(snap.stats(now), now);
                    out.push(Response::Graph(fields));
                }
            }
            return;
        }
        let now = self.last_t;
        match query {
            GraphQuery::Neighbors { node, .. } => {
                push_edges(out, node, graph.neighbors(node, now));
            }
            GraphQuery::TopK { node, k, .. } => {
                push_edges(out, node, graph.topk(node, k as usize, now));
            }
            GraphQuery::Component { node, .. } => {
                let (root, size) = graph.component(node, now).unwrap_or((node, 0));
                out.push(Response::Graph(vec![
                    ("root".into(), root),
                    ("size".into(), size),
                ]));
            }
            GraphQuery::Stats => {
                let fields = self.stats_fields(graph.stats(now), now);
                out.push(Response::Graph(fields));
            }
        }
    }

    /// The `QUERY stats` G-line fields for counters `s` at time `now`.
    /// The history boundary rides the same G line as extra fields (times
    /// in saturating integer milliseconds), so history-unaware clients
    /// keep parsing it unchanged.
    fn stats_fields(&self, s: GraphStats, now: f64) -> Vec<(String, u64)> {
        let mut fields = vec![
            ("nodes".into(), s.nodes),
            ("edges".into(), s.edges),
            ("components".into(), s.components),
        ];
        if let Some(history) = &self.history {
            let b = history.boundary();
            let ms = |t: f64| (t.max(0.0) * 1000.0).round() as u64;
            fields.push(("history_segments".into(), b.segments));
            fields.push(("history_oldest_ms".into(), ms(b.oldest_t.unwrap_or(0.0))));
            fields.push((
                "watermark_ms".into(),
                ms(if now.is_finite() { now } else { 0.0 }),
            ));
        }
        fields
    }

    /// Serves one `QUERY … at=<t>` from the historical overlay.
    fn handle_history_query(&mut self, query: GraphQuery, t: f64, out: &mut Vec<Response>) {
        let Some(history) = &self.history else {
            out.push(Response::Err(
                "at= needs a history-wrapped spec (append &history=<dir> \
                 after durable=; the live graph has already expired that window)"
                    .into(),
            ));
            return;
        };
        let graph = self.graph.as_ref();
        match query {
            GraphQuery::Neighbors { node, .. } => {
                let edges = history.neighbors_at(graph, node, t, self.horizon);
                let n = edges.len() as u64;
                out.extend(
                    edges
                        .into_iter()
                        .map(|e| Response::Pair(SimilarPair::new(node, e.neighbor, e.similarity))),
                );
                out.push(Response::Ok(n));
            }
            GraphQuery::TopK { node, k, .. } => {
                let edges = history.topk_at(graph, node, k as usize, t, self.horizon);
                let n = edges.len() as u64;
                out.extend(
                    edges
                        .into_iter()
                        .map(|e| Response::Pair(SimilarPair::new(node, e.neighbor, e.similarity))),
                );
                out.push(Response::Ok(n));
            }
            GraphQuery::Component { node, .. } => {
                let (root, size) = history
                    .component_at(graph, node, t, self.horizon)
                    .unwrap_or((node, 0));
                out.push(Response::Graph(vec![
                    ("root".into(), root),
                    ("size".into(), size),
                ]));
            }
            GraphQuery::Stats => unreachable!("stats has no at= form"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle_line(s: &mut Session, line: &str) -> Vec<Response> {
        let mut out = Vec::new();
        s.handle(Request::parse(line).unwrap(), &mut out);
        out
    }

    fn ok_count(responses: &[Response]) -> u64 {
        match responses.last() {
            Some(Response::Ok(n)) => *n,
            other => panic!("expected OK, got {other:?}"),
        }
    }

    #[test]
    fn history_session_serves_time_travel() {
        let root = std::env::temp_dir().join(format!("sssj-net-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spec: JoinSpec = format!(
            "str-l2?theta=0.6&tau=4&durable={}&graph&history={}",
            root.join("wal").display(),
            root.join("hist").display()
        )
        .parse()
        .unwrap();
        let mut s = Session::new(SessionDefaults {
            spec,
            mode: SessionMode::Vector,
        });
        handle_line(&mut s, "V 0.0 7:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "V 1.0 7:1.0")), 1);
        for i in 0..40 {
            handle_line(&mut s, &format!("V {} {}:1.0", 10.0 + i as f64, 1000 + i));
        }
        // Live: the 0–1 edge (t=1) has long expired under τ=4.
        assert_eq!(ok_count(&handle_line(&mut s, "QUERY neighbors 0")), 0);
        // Time travel to t=2 sees it again.
        let r = handle_line(&mut s, "QUERY neighbors 0 at=2.0");
        assert_eq!(ok_count(&r), 1);
        match &r[0] {
            Response::Pair(p) => assert_eq!(p.key(), (0, 1)),
            other => panic!("expected pair, got {other:?}"),
        }
        assert_eq!(ok_count(&handle_line(&mut s, "QUERY topk 1 5 at=2.0")), 1);
        let r = handle_line(&mut s, "QUERY component 1 at=2.0");
        assert_eq!(
            r[0],
            Response::Graph(vec![("root".into(), 0), ("size".into(), 2)])
        );
        // Before the stream began, nothing existed.
        assert_eq!(ok_count(&handle_line(&mut s, "QUERY neighbors 0 at=-5")), 0);
        // The stats G line reports the history boundary fields.
        let r = handle_line(&mut s, "QUERY stats");
        match &r[0] {
            Response::Graph(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert!(keys.contains(&"history_segments"), "{keys:?}");
                assert!(keys.contains(&"history_oldest_ms"), "{keys:?}");
                let wm = fields
                    .iter()
                    .find(|(k, _)| k == "watermark_ms")
                    .expect("watermark field");
                assert_eq!(wm.1, 49_000);
            }
            other => panic!("expected G reply, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_reads_serve_the_published_watermark() {
        let mut s = Session::new(SessionDefaults {
            spec: "str-l2?theta=0.6&tau=100&graph".parse().unwrap(),
            mode: SessionMode::Vector,
        });
        s.set_snapshot_reads(true);
        handle_line(&mut s, "V 0.0 7:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "V 1.0 7:1.0")), 1);
        // Publication is lazy: ingest alone leaves the write side dirty
        // and nothing captured …
        let g = s.graph_handle().expect("graph spec");
        assert!(g.is_dirty());
        assert_eq!(g.snapshot().generation(), 0);
        // … and the query folds the backlog in before answering
        // (read-your-writes without a per-record capture).
        let r = handle_line(&mut s, "QUERY neighbors 0");
        assert!(!g.is_dirty());
        assert_eq!(ok_count(&r), 1);
        match &r[0] {
            Response::Pair(p) => assert_eq!(p.key(), (0, 1)),
            other => panic!("expected pair, got {other:?}"),
        }
        let r = handle_line(&mut s, "QUERY stats");
        assert_eq!(
            r[0],
            Response::Graph(vec![
                ("nodes".into(), 2),
                ("edges".into(), 1),
                ("components".into(), 1),
            ])
        );
    }

    #[test]
    fn at_query_without_history_is_an_error() {
        let mut s = Session::new(SessionDefaults {
            spec: "str-l2?theta=0.7&tau=10&graph".parse().unwrap(),
            mode: SessionMode::Vector,
        });
        handle_line(&mut s, "V 0.0 7:1.0");
        let r = handle_line(&mut s, "QUERY neighbors 0 at=0.0");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("history")));
    }

    #[test]
    fn near_duplicates_pair_up() {
        let mut s = Session::new(SessionDefaults::default());
        assert_eq!(ok_count(&handle_line(&mut s, "V 0.0 7:1.0")), 0);
        let r = handle_line(&mut s, "V 1.0 7:1.0");
        assert_eq!(ok_count(&r), 1);
        match &r[0] {
            Response::Pair(p) => {
                assert_eq!(p.key(), (0, 1));
                assert!((p.similarity - (-0.01f64).exp()).abs() < 1e-12);
            }
            other => panic!("expected pair, got {other:?}"),
        }
    }

    #[test]
    fn config_changes_threshold() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "CONFIG theta=0.99 lambda=1.0");
        handle_line(&mut s, "V 0.0 7:1.0");
        // e^{-1.0·1.0} ≈ 0.37 < 0.99: no pair under the stricter config.
        assert_eq!(ok_count(&handle_line(&mut s, "V 1.0 7:1.0")), 0);
    }

    #[test]
    fn config_after_first_record_is_rejected() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "V 0.0 7:1.0");
        let r = handle_line(&mut s, "CONFIG theta=0.5");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("precede")));
    }

    #[test]
    fn out_of_order_rejected_without_slack() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "V 5.0 7:1.0");
        let r = handle_line(&mut s, "V 1.0 7:1.0");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("out-of-order")));
        // The record was not consumed: the next id is still 1.
        let r = handle_line(&mut s, "V 6.0 8:1.0");
        assert_eq!(ok_count(&r), 0);
        handle_line(&mut s, "STATS");
        assert_eq!(s.records, 2);
    }

    #[test]
    fn slack_tolerates_bounded_disorder() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "CONFIG slack=10 theta=0.7 lambda=0.01");
        handle_line(&mut s, "V 5.0 7:1.0");
        let r = handle_line(&mut s, "V 1.0 7:1.0"); // 4 late, within slack
        assert!(!matches!(&r[0], Response::Err(_)), "{r:?}");
        let r = handle_line(&mut s, "FINISH");
        assert_eq!(ok_count(&r), 1, "pair reported at flush");
    }

    #[test]
    fn slack_still_rejects_hopelessly_late_records() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "CONFIG slack=1");
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 100.0 7:1.0"); // watermark 99: releases t=0
        handle_line(&mut s, "V 200.0 7:1.0"); // watermark 199: releases t=100
        let r = handle_line(&mut s, "V 2.0 7:1.0"); // behind released t=100
        assert!(matches!(&r[0], Response::Err(m) if m.contains("late")));
    }

    #[test]
    fn text_mode_tokenises() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "CONFIG mode=text theta=0.9 lambda=0.001");
        assert_eq!(
            ok_count(&handle_line(&mut s, "T 0.0 rust streaming join")),
            0
        );
        let r = handle_line(&mut s, "T 1.0 rust streaming join");
        assert_eq!(ok_count(&r), 1);
        // Token-free text is accepted but joins nothing.
        assert_eq!(ok_count(&handle_line(&mut s, "T 2.0 !!! ...")), 0);
    }

    #[test]
    fn wrong_verb_for_mode_is_an_error() {
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(&mut s, "T 0.0 hello");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("vector mode")));
        handle_line(&mut s, "CONFIG mode=text");
        let r = handle_line(&mut s, "V 0.0 1:1.0");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("text mode")));
    }

    #[test]
    fn stats_report_session_counters() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 1.0 7:1.0");
        let r = handle_line(&mut s, "STATS");
        match &r[0] {
            Response::Stats(st) => {
                assert_eq!(st.records, 2);
                assert_eq!(st.pairs, 1);
                assert!(st.live_postings > 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn finish_flushes_minibatch_and_seals_session() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "CONFIG framework=mb theta=0.7 lambda=0.01");
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 1.0 7:1.0");
        let r = handle_line(&mut s, "FINISH");
        assert_eq!(
            ok_count(&r),
            1,
            "MB reports the within-window pair at flush"
        );
        let r = handle_line(&mut s, "V 2.0 7:1.0");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("finished")));
        // FINISH is idempotent.
        assert_eq!(ok_count(&handle_line(&mut s, "FINISH")), 0);
    }

    #[test]
    fn directly_built_bad_config_is_an_error_not_a_panic() {
        use crate::protocol::ConfigRequest;
        for bad in [
            ConfigRequest {
                theta: Some(2.0),
                ..Default::default()
            },
            ConfigRequest {
                theta: Some(f64::NAN),
                ..Default::default()
            },
            ConfigRequest {
                lambda: Some(-1.0),
                ..Default::default()
            },
            ConfigRequest {
                slack: Some(f64::INFINITY),
                ..Default::default()
            },
        ] {
            let mut s = Session::new(SessionDefaults::default());
            let mut out = Vec::new();
            s.handle(Request::Config(bad), &mut out);
            assert!(matches!(&out[0], Response::Err(_)), "{out:?}");
        }
    }

    #[test]
    fn spec_negotiates_extended_variants() {
        // Top-k over the wire: two matches for the third record, k=1
        // keeps only the better one.
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(&mut s, "CONFIG spec=topk-l2?theta=0.3&lambda=0.01&k=1");
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        handle_line(&mut s, "V 0.0 1:1.0");
        handle_line(&mut s, "V 0.5 1:1.0 2:1.0");
        let r = handle_line(&mut s, "V 1.0 1:1.0");
        assert_eq!(ok_count(&r), 1, "{r:?}");

        // The approximate LSH engine is reachable too.
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(&mut s, "CONFIG spec=lsh?theta=0.7&lambda=0.1");
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        handle_line(&mut s, "V 0.0 7:1.0 8:2.0");
        let r = handle_line(&mut s, "V 1.0 7:1.0 8:2.0");
        assert_eq!(ok_count(&r), 1, "identical signatures always collide");

        // And the sharded engine (pairs may surface at FINISH).
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(
            &mut s,
            "CONFIG spec=sharded-l2?theta=0.7&lambda=0.1&shards=2",
        );
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        handle_line(&mut s, "V 0.0 7:1.0");
        let n = ok_count(&handle_line(&mut s, "V 1.0 7:1.0"));
        let m = ok_count(&handle_line(&mut s, "FINISH"));
        assert_eq!(n + m, 1, "the sharded pair must arrive by FINISH");
    }

    #[test]
    fn sharded_inner_specs_negotiate_over_the_wire() {
        // The inner engine spec round-trips through CONFIG: MB workers
        // behind the sharded driver, reported by FINISH at the latest.
        for (config_line, canonical) in [
            (
                "CONFIG spec=sharded?theta=0.7&lambda=0.1&shards=2&inner=mb-l2",
                "sharded?theta=0.7&lambda=0.1&shards=2&inner=mb-l2",
            ),
            (
                "CONFIG spec=sharded?theta=0.7&shards=2&inner=decay&model=window:10",
                "sharded?theta=0.7&shards=2&inner=decay&model=window:10",
            ),
            (
                "CONFIG spec=sharded?theta=0.7&lambda=0.1&shards=2&inner=lsh",
                "sharded?theta=0.7&lambda=0.1&shards=2&inner=lsh\
                 &bits=256&bands=32&verify=exact",
            ),
        ] {
            let mut s = Session::new(SessionDefaults::default());
            let r = handle_line(&mut s, config_line);
            assert!(matches!(r[0], Response::Ok(0)), "{config_line}: {r:?}");
            assert_eq!(
                s.current_config().spec.to_string(),
                canonical,
                "{config_line}"
            );
            handle_line(&mut s, "V 0.0 7:1.0");
            let n = ok_count(&handle_line(&mut s, "V 1.0 7:1.0"));
            let m = ok_count(&handle_line(&mut s, "FINISH"));
            assert_eq!(n + m, 1, "{config_line}: pair must arrive by FINISH");
        }

        // CONFIGJ speaks the same inner mapping.
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(
            &mut s,
            "CONFIGJ {\"engine\":\"sharded\",\"index\":\"l2ap\",\"theta\":0.7,\
             \"lambda\":0.1,\"shards\":2,\"inner\":\"mb\"}",
        );
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        assert_eq!(
            s.current_config().spec.to_string(),
            "sharded?theta=0.7&lambda=0.1&shards=2&inner=mb-l2ap"
        );
    }

    #[test]
    fn scalar_keys_override_the_spec() {
        let mut s = Session::new(SessionDefaults::default());
        // theta= overrides the spec's theta; e^{-1} ≈ 0.37 < 0.99.
        handle_line(&mut s, "CONFIG spec=str-l2?theta=0.5&lambda=1.0 theta=0.99");
        handle_line(&mut s, "V 0.0 7:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "V 1.0 7:1.0")), 0);
    }

    #[test]
    fn configj_and_spec_reorder_work_over_the_session() {
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(
            &mut s,
            "CONFIGJ {\"engine\":\"str\",\"index\":\"l2\",\"theta\":0.7,\
             \"lambda\":0.01,\"wrappers\":[[\"reorder\",10]]}",
        );
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        handle_line(&mut s, "V 5.0 7:1.0");
        let r = handle_line(&mut s, "V 1.0 7:1.0"); // 4 late, within slack
        assert!(!matches!(&r[0], Response::Err(_)), "{r:?}");
        assert_eq!(ok_count(&handle_line(&mut s, "FINISH")), 1);
    }

    #[test]
    fn invalid_spec_is_an_error_and_session_survives() {
        let mut s = Session::new(SessionDefaults::default());
        let mut out = Vec::new();
        // Parse-level garbage is rejected by the wire parser; a
        // structurally valid but unbuildable spec must come back as E.
        s.handle(
            Request::Config(ConfigRequest {
                spec: Some(sssj_core::JoinSpec {
                    engine: sssj_core::EngineSpec::TopK(0),
                    ..sssj_core::JoinSpec::new(0.7, 0.01)
                }),
                ..Default::default()
            }),
            &mut out,
        );
        assert!(
            matches!(&out[0], Response::Err(m) if m.contains("k >= 1")),
            "{out:?}"
        );
        // The previous join is still live.
        handle_line(&mut s, "V 0.0 7:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "V 1.0 7:1.0")), 1);
    }

    #[test]
    fn durable_spec_resumes_the_session_from_the_manifest() {
        let dir = std::env::temp_dir().join(format!(
            "sssj-net-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = format!(
            "CONFIG spec=str-l2?theta=0.7&lambda=0.01&durable={}",
            dir.display()
        );

        // First incarnation: two records, one pair, clean FINISH (which
        // publishes a checkpoint).
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(&mut s, &config);
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        handle_line(&mut s, "V 0.0 7:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "V 1.0 7:1.0")), 1);
        handle_line(&mut s, "FINISH");
        drop(s);

        // Second incarnation resumes: ids continue after the recovered
        // prefix and new arrivals pair with pre-restart records.
        let mut s = Session::new(SessionDefaults::default());
        let r = handle_line(&mut s, &config);
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        let r = handle_line(&mut s, "V 1.5 7:1.0");
        assert_eq!(ok_count(&r), 2, "pairs with both recovered records: {r:?}");
        let keys: Vec<(u64, u64)> = r
            .iter()
            .filter_map(|resp| match resp {
                Response::Pair(p) => Some(p.key()),
                _ => None,
            })
            .collect();
        assert!(
            keys.contains(&(0, 2)) && keys.contains(&(1, 2)),
            "resumed ids must continue at 2: {keys:?}"
        );
        // The recovered watermark still rejects out-of-order input.
        let r = handle_line(&mut s, "V 0.5 7:1.0");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("out-of-order")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_session_serves_queries_and_subscriptions() {
        let mut s = Session::new(SessionDefaults::default());
        // Queries before a graph config are errors, not panics.
        let r = handle_line(&mut s, "QUERY stats");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("no graph")));
        let r = handle_line(&mut s, "SUBSCRIBE 0");
        assert!(matches!(&r[0], Response::Err(m) if m.contains("no graph")));

        let r = handle_line(&mut s, "CONFIG spec=str-l2?theta=0.5&tau=10&graph");
        assert!(matches!(r[0], Response::Ok(0)), "{r:?}");
        handle_line(&mut s, "SUBSCRIBE 0");
        handle_line(&mut s, "V 0.0 7:1.0");
        // Record 1 pairs with 0: one P line, one pushed U line for the
        // subscription, OK still counts only the P line.
        let r = handle_line(&mut s, "V 1.0 7:1.0");
        assert!(
            matches!(&r[0], Response::Pair(p) if p.key() == (0, 1)),
            "{r:?}"
        );
        assert!(
            matches!(&r[1], Response::Update { node: 0, pair } if pair.key() == (0, 1)),
            "{r:?}"
        );
        assert_eq!(ok_count(&r), 1, "{r:?}");
        handle_line(&mut s, "V 2.0 7:1.0");

        // neighbors / topk answer P-framed edge lists.
        let r = handle_line(&mut s, "QUERY neighbors 1");
        assert_eq!(ok_count(&r), 2, "{r:?}");
        let r = handle_line(&mut s, "QUERY topk 1 1");
        assert_eq!(ok_count(&r), 1, "{r:?}");
        match &r[0] {
            Response::Pair(p) => assert_eq!(p.key(), (0, 1), "tie → smaller id"),
            other => panic!("expected edge, got {other:?}"),
        }

        // component / stats answer G lines.
        let r = handle_line(&mut s, "QUERY component 2");
        assert_eq!(
            r,
            vec![Response::Graph(vec![
                ("root".into(), 0),
                ("size".into(), 3)
            ])]
        );
        let r = handle_line(&mut s, "QUERY component 99");
        assert_eq!(
            r,
            vec![Response::Graph(vec![
                ("root".into(), 99),
                ("size".into(), 0)
            ])]
        );
        let r = handle_line(&mut s, "QUERY stats");
        assert_eq!(
            r,
            vec![Response::Graph(vec![
                ("nodes".into(), 3),
                ("edges".into(), 3),
                ("components".into(), 1),
            ])]
        );
    }

    #[test]
    fn graph_queries_respect_the_stream_watermark() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "CONFIG spec=str-l2?theta=0.5&tau=5&graph");
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 1.0 7:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "QUERY neighbors 0")), 1);
        // Advancing the stream far enough expires the edge — queries
        // are judged at the watermark, not the wall clock.
        handle_line(&mut s, "V 20.0 9:1.0");
        assert_eq!(ok_count(&handle_line(&mut s, "QUERY neighbors 0")), 0);
        let r = handle_line(&mut s, "QUERY component 0");
        assert_eq!(
            r,
            vec![Response::Graph(vec![
                ("root".into(), 0),
                ("size".into(), 0)
            ])]
        );
    }

    #[test]
    fn stats_reports_serving_shape() {
        let mut s = Session::new(SessionDefaults {
            spec: "str-l2?theta=0.5&tau=10&graph".parse().unwrap(),
            mode: SessionMode::Vector,
        });
        s.set_serving_info(true);
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 1.0 7:1.0");
        // Force a publish so the generation is visible.
        s.graph_handle().expect("graph spec").publish_now();
        let r = handle_line(&mut s, "STATS");
        match &r[0] {
            Response::Stats(st) => {
                assert_eq!(st.engine, EngineLabel::EventLoop);
                assert!(st.shared);
                assert!(st.generation > 0, "publish bumps the generation");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // The S line round-trips the new keys through the wire format.
        let line = r[0].to_string();
        assert_eq!(Response::parse(&line).unwrap(), r[0]);
    }

    #[test]
    fn metrics_reply_is_prometheus_parseable() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 1.0 7:1.0");
        let r = handle_line(&mut s, "METRICS");
        if !sssj_metrics::telemetry_enabled() {
            assert_eq!(r, vec![Response::Ok(0)], "off lane answers an empty scrape");
            return;
        }
        let (lines, tail) = r.split_at(r.len() - 1);
        assert_eq!(tail[0], Response::Ok(lines.len() as u64));
        let mut saw_records = false;
        for resp in lines {
            let Response::Metric(line) = resp else {
                panic!("expected M line, got {resp:?}");
            };
            // Prometheus text exposition: comments or `name[{labels}] value`.
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            if name.starts_with("sssj_core_records_total") {
                saw_records = true;
            }
        }
        assert!(saw_records, "scrape must include the ingest counter");
    }

    #[test]
    fn trace_dump_answers_header_and_events() {
        use sssj_metrics::trace::{Stage, TraceEvent};
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "V 0.0 7:1.0");
        handle_line(&mut s, "V 1.0 7:1.0");
        let r = handle_line(&mut s, "TRACE 4096");
        let (lines, tail) = r.split_at(r.len() - 1);
        assert_eq!(tail[0], Response::Ok(lines.len() as u64));
        let Response::TraceLine(header) = &lines[0] else {
            panic!("expected R header, got {:?}", lines[0]);
        };
        assert!(header.starts_with("# now="), "{header}");
        assert!(header.contains(" watermark=1 "), "{header}");
        assert!(header.contains(" dropped="), "{header}");
        if !sssj_metrics::trace_enabled() {
            assert_eq!(lines.len(), 1, "off lane answers the bare header");
            return;
        }
        let events: Vec<TraceEvent> = lines[1..]
            .iter()
            .map(|resp| match resp {
                Response::TraceLine(l) => {
                    TraceEvent::from_wire(l).unwrap_or_else(|| panic!("bad event line {l:?}"))
                }
                other => panic!("expected R line, got {other:?}"),
            })
            .collect();
        // The two V requests left NetRequest spans, each enclosing an
        // Ingest span stamped with the request's trace id.
        let ingest: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.stage == Stage::Ingest && e.trace_id != 0)
            .collect();
        assert!(!ingest.is_empty(), "{events:?}");
        assert!(
            events
                .iter()
                .any(|e| e.stage == Stage::NetRequest && e.trace_id == ingest[0].trace_id),
            "ingest span must share its request's trace id: {events:?}"
        );
    }

    #[test]
    fn quit_closes_session() {
        let mut s = Session::new(SessionDefaults::default());
        let mut out = Vec::new();
        let keep = s.handle(Request::parse("QUIT").unwrap(), &mut out);
        assert!(!keep);
        assert_eq!(out, vec![Response::Bye]);
    }

    #[test]
    fn duplicate_dims_coalesce_instead_of_erroring() {
        let mut s = Session::new(SessionDefaults::default());
        handle_line(&mut s, "V 0.0 1:0.5 1:0.5"); // sums to a single coord
        assert_eq!(ok_count(&handle_line(&mut s, "V 0.0 1:1.0")), 1);
    }

    #[test]
    fn bad_vector_reports_error_and_continues() {
        // The wire parser rejects empty vectors, but the session guards
        // against directly constructed requests too (e.g. future binary
        // front ends).
        let mut s = Session::new(SessionDefaults::default());
        let mut out = Vec::new();
        s.handle(
            Request::Vector {
                t: 0.0,
                entries: vec![],
            },
            &mut out,
        );
        assert!(matches!(&out[0], Response::Err(m) if m.contains("bad vector")));
        assert_eq!(ok_count(&handle_line(&mut s, "V 0.0 1:1.0")), 0);
    }
}
