//! The traced run's side: draining the program's flight recorder often
//! enough that no ring wraps, putting the benchmark's own spans on the
//! recorder's clock, and attributing busy time to stages.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sssj_metrics::trace::{self, EventKind, Stage, TraceEvent};

/// `net.request` verb ordinals, in the order of the wire protocol's
/// verbs (`CONFIG`, `V`, `T`, `STATS`, `METRICS`, `QUERY`, …).
pub const VERB_VECTOR: u64 = 1;
pub const VERB_QUERY: u64 = 5;

/// Records between recorder drains. The busiest thread (the event
/// loop of the served workload) writes about five events per record, so
/// this stays far below the 4096-event rings.
pub const DRAIN_EVERY: usize = 128;

/// Incremental reader of every thread's recorder ring.
pub struct Tracer {
    cursors: Vec<u64>,
    /// Events drained since the last [`Tracer::reset`].
    pub events: Vec<TraceEvent>,
    /// Events that wrapped out of a ring before they were drained.
    pub lost: u64,
    /// The `Instant` of trace-clock zero.
    epoch: Instant,
}

impl Tracer {
    /// Calibrates the trace clock and skips everything already recorded.
    pub fn new() -> Tracer {
        let before = Instant::now();
        let now_ns = trace::drain_last(0).now_ns;
        let after = Instant::now();
        let mid = before + (after - before) / 2;
        let mut t = Tracer {
            cursors: Vec::new(),
            events: Vec::new(),
            lost: 0,
            epoch: mid.checked_sub(Duration::from_nanos(now_ns)).unwrap_or(mid),
        };
        t.reset();
        t
    }

    /// Trace-clock nanoseconds of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Drains every ring past its cursor; a gap between the cursor and
    /// the oldest surviving slot is counted as lost.
    pub fn drain(&mut self) {
        let before = self.cursors.clone();
        let events = trace::drain_new(&mut self.cursors);
        let advanced: u64 = self
            .cursors
            .iter()
            .enumerate()
            .map(|(i, &c)| c - before.get(i).copied().unwrap_or(0))
            .sum();
        self.lost += advanced.saturating_sub(events.len() as u64);
        self.events.extend(events);
    }

    /// Drops everything drained so far and skips what the rings hold.
    pub fn reset(&mut self) {
        let _ = trace::drain_new(&mut self.cursors);
        self.events.clear();
        self.lost = 0;
    }
}

fn spans(events: &[TraceEvent], stage: Stage) -> impl Iterator<Item = &TraceEvent> {
    events
        .iter()
        .filter(move |e| e.stage == stage && e.kind == EventKind::Span)
}

/// Durations of every `stage` span, in microseconds.
pub fn durations_us(events: &[TraceEvent], stage: Stage) -> Vec<f64> {
    spans(events, stage)
        .map(|e| e.dur_ns as f64 / 1e3)
        .collect()
}

/// Summed `stage` span time per recording thread, nanoseconds.
pub fn busy_by_thread(events: &[TraceEvent], stage: Stage) -> HashMap<u32, u64> {
    let mut m = HashMap::new();
    for e in spans(events, stage) {
        *m.entry(e.tid).or_insert(0) += e.dur_ns;
    }
    m
}

/// Share of `candidates` time in the busy time of the threads that ran
/// it, where a thread's busy time is its root (depth-0) spans.
pub fn candidates_share(events: &[TraceEvent]) -> f64 {
    let cand = busy_by_thread(events, Stage::Candidates);
    let mut root: HashMap<u32, u64> = HashMap::new();
    for e in events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.depth == 0 && cand.contains_key(&e.tid))
    {
        *root.entry(e.tid).or_insert(0) += e.dur_ns;
    }
    let busy: u64 = root.values().sum();
    if busy == 0 {
        return 0.0;
    }
    cand.values().sum::<u64>() as f64 / busy as f64
}

/// The share of the benchmark's spans `[start, end]` (trace-clock ns,
/// sorted, one thread) that root spans of thread `tid` overlap: how much
/// of the caller's busy time the program's own stages account for.
/// Overlap rather than containment, since the two clocks agree only to
/// the calibration error (about a microsecond).
pub fn covered_frac(events: &[TraceEvent], tid: u32, bench: &[(u64, u64)]) -> f64 {
    let mut roots: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.depth == 0 && e.tid == tid)
        .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
        .collect();
    roots.sort_unstable();
    let total: u64 = bench.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
    if total == 0 {
        return 0.0;
    }
    let mut covered = 0u64;
    let mut j = 0;
    for &(s, e) in bench {
        while j < roots.len() && roots[j].1 <= s {
            j += 1;
        }
        let mut k = j;
        while k < roots.len() && roots[k].0 < e {
            covered += roots[k].1.min(e).saturating_sub(roots[k].0.max(s));
            k += 1;
        }
    }
    covered as f64 / total as f64
}

/// Matches client-side request intervals `[start, end]` (trace-clock
/// ns, sorted) to the server's `net.request` spans of verb `verb` that
/// lie inside them. Returns, per client request, the server span's
/// duration in ns (`None` when no span matched).
pub fn match_requests(events: &[TraceEvent], verb: u64, client: &[(u64, u64)]) -> Vec<Option<u64>> {
    let mut server: Vec<(u64, u64)> = spans(events, Stage::NetRequest)
        .filter(|e| e.a == verb)
        .map(|e| (e.ts_ns, e.dur_ns))
        .collect();
    server.sort_unstable();
    let mut j = 0;
    client
        .iter()
        .map(|&(s, e)| {
            while j < server.len() && server[j].0 < s {
                j += 1;
            }
            if j < server.len() && server[j].0 + server[j].1 <= e {
                j += 1;
                Some(server[j - 1].1)
            } else {
                None
            }
        })
        .collect()
}
