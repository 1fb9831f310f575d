//! Process-global telemetry registry: named counters, gauges and
//! latency recorders that are always on, allocation-free and lock-free
//! on the record path.
//!
//! The offline reporting types in this crate ([`crate::LogLinearHistogram`],
//! counter tables, CSV writers) are built for benchmarks: single-threaded,
//! owned by the harness, read at the end. A long-lived `sssj serve`
//! process needs the opposite shape — metrics that any subsystem can bump
//! from any thread mid-flight and that an operator can scrape while the
//! server runs. This module provides that layer:
//!
//! * **Handles are resolved once, at construction time.** Registering a
//!   metric takes a short global lock and may allocate; the returned
//!   handle is a `&'static` reference (leaked once per unique
//!   name+labels, deduplicated forever after) that call sites store in
//!   their own structs. The hot path never touches the registry again.
//! * **Recording is a relaxed atomic op.** [`Counter::add`] is one
//!   relaxed load (the [`SSSJ_TELEMETRY`](crate::registry#disabling)
//!   gate) plus one relaxed `fetch_add` on a cache-line-padded stripe
//!   picked per thread; [`Gauge::set`] is a relaxed store;
//!   [`Recorder::record`] is an array `fetch_add` using
//!   [`crate::LogLinearHistogram`]'s bucket geometry. No locks, no
//!   allocation — safe inside the PR-1 zero-alloc steady state.
//! * **Export is pull.** [`Registry::prometheus`] renders the
//!   text-exposition format (recorders as true Prometheus histograms —
//!   cumulative `_bucket{le=…}` series over the *populated* buckets
//!   plus `+Inf`/`_sum`/`_count`, so external scrapers can aggregate
//!   across instances; the 2048-bucket geometry never shows through
//!   because empty buckets are skipped);
//!   [`Registry::json_line`] renders one compact JSON object per call
//!   for append-only metrics logs.
//!
//! # Naming conventions
//!
//! `sssj_<crate>_<noun>[_<unit>][_total]`, snake_case:
//! monotone counters end in `_total`, durations are recorded in seconds
//! and named `_seconds`, sizes in bytes named `_bytes`. Labels are for
//! low-cardinality dimensions only (a verb, an engine name, a shard
//! ordinal) — every distinct label set is a leaked allocation held for
//! the process lifetime, so keep the cross product small (≲ a few dozen
//! series per metric; never a record id, node id or timestamp).
//!
//! # Disabling
//!
//! `SSSJ_TELEMETRY=off` (or `0`), read once at first registry use, turns
//! every record operation into a single relaxed load + branch; export
//! then reports zeros. Because recording only ever feeds these metrics —
//! never the join output — disabling telemetry is byte-invisible to
//! every other observable output (CI runs the full suite in that lane).
//!
//! ```
//! use sssj_metrics::registry::Registry;
//!
//! let reg = Registry::global();
//! let records = reg.counter("doc_records_total", "records ingested");
//! let lat = reg.recorder("doc_ingest_seconds", "per-record latency");
//! records.inc();
//! lat.record(125e-9);
//! if sssj_metrics::telemetry_enabled() {
//!     assert_eq!(records.value(), 1);
//!     assert!(reg.prometheus().contains("doc_records_total 1"));
//! }
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, Once, OnceLock};

use crate::histogram::{LogLinearHistogram, LL_BUCKETS};

/// Stripes per counter: enough to keep unrelated threads off each
/// other's cache lines without bloating every metric.
const STRIPES: usize = 8;
/// Stripes per recorder (each stripe is a 16 KiB bucket table, so
/// recorders stripe less aggressively than 8-byte counters).
const HIST_STRIPES: usize = 4;

static TELEMETRY_ON: AtomicBool = AtomicBool::new(true);
static TELEMETRY_INIT: Once = Once::new();

/// Whether recording is enabled this process (the `SSSJ_TELEMETRY` gate,
/// resolved once at first registry use).
#[inline]
pub fn telemetry_enabled() -> bool {
    TELEMETRY_ON.load(Relaxed)
}

fn init_gate() {
    TELEMETRY_INIT.call_once(|| {
        let off = std::env::var("SSSJ_TELEMETRY")
            .map(|v| v.eq_ignore_ascii_case("off") || v == "0")
            .unwrap_or(false);
        TELEMETRY_ON.store(!off, Relaxed);
    });
}

/// Bench-only override of the `SSSJ_TELEMETRY` gate, so one process can
/// A/B the on- and off-path record costs (`telemetry_overhead` bench).
/// Burns the env read first so a later first-use cannot undo the
/// override. Not for production code: flipping mid-flight loses counts.
#[doc(hidden)]
pub fn force_telemetry_for_bench(on: bool) {
    init_gate();
    TELEMETRY_ON.store(on, Relaxed);
}

/// The calling thread's stripe ordinal, assigned round-robin on first
/// use and cached in a TLS cell — no hashing, no allocation.
#[inline]
fn stripe() -> usize {
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let v = NEXT.fetch_add(1, Relaxed) % STRIPES;
        s.set(v);
        v
    })
}

/// One cache line per stripe so concurrent writers do not false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotone counter: relaxed striped `fetch_add` on record, summed on
/// read. Obtained from [`Registry::counter`]; handles are `&'static` and
/// freely shareable.
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

impl Counter {
    fn new() -> Self {
        Counter {
            stripes: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    /// Adds `n`. One relaxed load + one relaxed `fetch_add`; a no-op
    /// branch when telemetry is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if !TELEMETRY_ON.load(Relaxed) {
            return;
        }
        self.stripes[stripe()].0.fetch_add(n, Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across stripes.
    pub fn value(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

/// A point-in-time value (queue depth, segment count, flag): relaxed
/// store/`fetch_add`, no striping (gauges are set, not hammered).
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if !TELEMETRY_ON.load(Relaxed) {
            return;
        }
        self.value.store(v, Relaxed);
    }

    /// Adjusts the gauge by `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if !TELEMETRY_ON.load(Relaxed) {
            return;
        }
        self.value.fetch_add(d, Relaxed);
    }

    /// Decrements by `d`.
    #[inline]
    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// One recorder stripe: a full log-linear bucket table plus the exact
/// sum (f64 bits behind a CAS add — lock-free, exact) and max (relaxed
/// `fetch_max`; non-negative f64 bit patterns order like their values).
struct HistStripe {
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A concurrent latency/size recorder with
/// [`LogLinearHistogram`]'s exact bucket
/// geometry: recording is an array `fetch_add` (plus a CAS for the exact
/// sum), reading merges the stripes into an owned snapshot histogram.
pub struct Recorder {
    stripes: [HistStripe; HIST_STRIPES],
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            stripes: std::array::from_fn(|_| HistStripe {
                buckets: (0..LL_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                max_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one non-negative observation (seconds for durations).
    /// NaN is dropped rather than panicking — the record path must never
    /// take the process down.
    #[inline]
    pub fn record(&self, v: f64) {
        if !TELEMETRY_ON.load(Relaxed) || v.is_nan() {
            return;
        }
        let v = v.max(0.0);
        let s = &self.stripes[stripe() % HIST_STRIPES];
        s.buckets[LogLinearHistogram::bucket_index(v)].fetch_add(1, Relaxed);
        s.max_bits.fetch_max(v.to_bits(), Relaxed);
        let _ = s.sum_bits.fetch_update(Relaxed, Relaxed, |b| {
            Some((f64::from_bits(b) + v).to_bits())
        });
    }

    /// Records an elapsed [`std::time::Duration`] in seconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Merges the stripes into an owned histogram snapshot.
    pub fn snapshot(&self) -> LogLinearHistogram {
        let mut buckets = vec![0u64; LL_BUCKETS];
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for s in &self.stripes {
            for (acc, b) in buckets.iter_mut().zip(s.buckets.iter()) {
                *acc += b.load(Relaxed);
            }
            sum += f64::from_bits(s.sum_bits.load(Relaxed));
            max = max.max(f64::from_bits(s.max_bits.load(Relaxed)));
        }
        LogLinearHistogram::from_raw(buckets, sum, max)
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.buckets.iter().map(|b| b.load(Relaxed)).sum::<u64>())
            .sum()
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Recorder(&'static Recorder),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Recorder(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    help: &'static str,
    /// Label pairs, already leaked; empty slice for unlabeled metrics.
    labels: &'static [(&'static str, &'static str)],
    metric: Metric,
}

impl Entry {
    /// `{k="v",…}` (Prometheus form) or the empty string.
    fn label_block(&self, extra: Option<(&str, &str)>) -> String {
        if self.labels.is_empty() && extra.is_none() {
            return String::new();
        }
        let mut parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// A flat `name` or `name{k=v,…}` key for JSON export (no quotes, so
    /// it embeds in a JSON string without escaping).
    fn json_key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, parts.join(","))
    }
}

/// The process-global metric registry. Construction-time API (register a
/// metric, get a `&'static` handle) takes a short lock; the handles
/// themselves never touch the registry again.
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// The process-global registry (also resolves the `SSSJ_TELEMETRY`
    /// gate on first use).
    pub fn global() -> &'static Registry {
        init_gate();
        GLOBAL.get_or_init(|| Registry {
            entries: Mutex::new(Vec::new()),
        })
    }

    fn register<T, F: FnOnce() -> &'static T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: F,
        wrap: fn(&'static T) -> Metric,
        pick: fn(&Metric) -> Option<&'static T>,
    ) -> &'static T {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name {name:?} is not a valid Prometheus identifier"
        );
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries.iter().find(|e| {
            e.name == name && e.labels.len() == labels.len() && {
                e.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            }
        }) {
            return pick(&e.metric).unwrap_or_else(|| {
                panic!(
                    "metric {name:?} re-registered as a different type ({})",
                    e.metric.type_name()
                )
            });
        }
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            // Same name, new label set: the kind must still agree.
            assert!(
                pick(&e.metric).is_some(),
                "metric {name:?} re-registered as a different type ({})",
                e.metric.type_name()
            );
        }
        let handle = make();
        let leaked_labels: &'static [(&'static str, &'static str)] = Box::leak(
            labels
                .iter()
                .map(|&(k, v)| {
                    (
                        &*Box::leak(k.to_string().into_boxed_str()),
                        &*Box::leak(v.to_string().into_boxed_str()),
                    )
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        );
        entries.push(Entry {
            name: Box::leak(name.to_string().into_boxed_str()),
            help: Box::leak(help.to_string().into_boxed_str()),
            labels: leaked_labels,
            metric: wrap(handle),
        });
        handle
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> &'static Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with a label set. Labels must be
    /// low-cardinality — each distinct set is a process-lifetime series.
    pub fn counter_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> &'static Counter {
        self.register(
            name,
            help,
            labels,
            || Box::leak(Box::new(Counter::new())),
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c),
                _ => None,
            },
        )
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> &'static Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge with a label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> &'static Gauge {
        self.register(
            name,
            help,
            labels,
            || Box::leak(Box::new(Gauge::new())),
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g),
                _ => None,
            },
        )
    }

    /// Registers (or finds) an unlabeled recorder (latency/size
    /// histogram; exported as a Prometheus histogram).
    pub fn recorder(&self, name: &str, help: &str) -> &'static Recorder {
        self.recorder_with(name, help, &[])
    }

    /// Registers (or finds) a recorder with a label set.
    pub fn recorder_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> &'static Recorder {
        self.register(
            name,
            help,
            labels,
            || Box::leak(Box::new(Recorder::new())),
            Metric::Recorder,
            |m| match m {
                Metric::Recorder(r) => Some(r),
                _ => None,
            },
        )
    }

    /// Renders every registered metric in the Prometheus text-exposition
    /// format: `# HELP` / `# TYPE` per metric name, counters and gauges
    /// as plain samples, recorders as histograms — cumulative
    /// `_bucket{le=…}` series over the populated buckets plus the
    /// mandatory `le="+Inf"`, then `_sum`/`_count`. Quantiles are
    /// derivable server-side (`histogram_quantile`), so none are
    /// rendered here; the JSON log line keeps p50/p99/p999 for humans.
    pub fn prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut done: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if done.contains(&e.name) {
                continue;
            }
            done.push(e.name);
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} {}\n", e.name, e.metric.type_name()));
            for s in entries.iter().filter(|s| s.name == e.name) {
                match s.metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            s.name,
                            s.label_block(None),
                            c.value()
                        ));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            s.name,
                            s.label_block(None),
                            g.value()
                        ));
                    }
                    Metric::Recorder(r) => {
                        let h = r.snapshot();
                        let mut cum = 0u64;
                        for (upper, c) in h.nonzero_buckets() {
                            cum += c;
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                s.name,
                                s.label_block(Some(("le", &fmt_f64(upper)))),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            s.name,
                            s.label_block(Some(("le", "+Inf"))),
                            h.count()
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            s.name,
                            s.label_block(None),
                            fmt_f64(h.mean() * h.count() as f64)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            s.name,
                            s.label_block(None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// Renders one compact JSON object (single line, no trailing
    /// newline): `ts_ms`, then `counters` / `gauges` / `recorders` maps
    /// keyed by `name` or `name{k=v,…}`. Built for append-only metrics
    /// logs — one call per interval, one line per call.
    pub fn json_line(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut recorders = Vec::new();
        for e in entries.iter() {
            let key = e.json_key();
            match e.metric {
                Metric::Counter(c) => counters.push(format!("\"{key}\":{}", c.value())),
                Metric::Gauge(g) => gauges.push(format!("\"{key}\":{}", g.value())),
                Metric::Recorder(r) => {
                    let h = r.snapshot();
                    recorders.push(format!(
                        "\"{key}\":{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{},\"sum\":{}}}",
                        h.count(),
                        fmt_f64(h.quantile(0.5)),
                        fmt_f64(h.quantile(0.99)),
                        fmt_f64(h.quantile(0.999)),
                        fmt_f64(h.max()),
                        fmt_f64(h.mean() * h.count() as f64),
                    ));
                }
            }
        }
        format!(
            "{{\"ts_ms\":{ts_ms},\"counters\":{{{}}},\"gauges\":{{{}}},\"recorders\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            recorders.join(",")
        )
    }
}

/// JSON/Prometheus-safe float rendering (no NaN/inf, no exponent
/// surprises for integers).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.9}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        if !telemetry_enabled() {
            return; // the off lane freezes every handle; nothing to assert
        }
        let reg = Registry::global();
        let c = reg.counter("test_reg_basic_total", "basic counter");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        let g = reg.gauge("test_reg_depth", "basic gauge");
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.value(), 8);
        // Re-registration returns the same handle.
        let c2 = reg.counter("test_reg_basic_total", "basic counter");
        assert!(std::ptr::eq(c, c2));
    }

    #[test]
    fn labeled_series_are_distinct() {
        if !telemetry_enabled() {
            return; // the off lane freezes every handle; nothing to assert
        }
        let reg = Registry::global();
        let a = reg.counter_with("test_reg_verbs_total", "per-verb", &[("verb", "query")]);
        let b = reg.counter_with("test_reg_verbs_total", "per-verb", &[("verb", "stats")]);
        assert!(!std::ptr::eq(a, b));
        a.add(2);
        b.add(3);
        let text = reg.prometheus();
        assert!(
            text.contains("test_reg_verbs_total{verb=\"query\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("test_reg_verbs_total{verb=\"stats\"} 3"),
            "{text}"
        );
        // One TYPE line for the whole family.
        assert_eq!(
            text.matches("# TYPE test_reg_verbs_total counter").count(),
            1
        );
    }

    #[test]
    fn recorder_snapshot_matches_sequential_histogram() {
        if !telemetry_enabled() {
            return; // the off lane freezes every handle; nothing to assert
        }
        let reg = Registry::global();
        let r = reg.recorder("test_reg_lat_seconds", "latencies");
        let mut reference = LogLinearHistogram::new();
        for i in 1..=1000u64 {
            let v = i as f64 * 1e-6;
            r.record(v);
            reference.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.count(), reference.count());
        assert_eq!(snap.max(), reference.max());
        assert!((snap.mean() - reference.mean()).abs() < 1e-12);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), reference.quantile(q), "q={q}");
        }
    }

    #[test]
    fn concurrent_hammer_is_exact() {
        // The satellite concurrency test: N threads hammer one counter
        // and one recorder; totals must be exact and quantiles sane.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let reg = Registry::global();
        let c = reg.counter("test_reg_hammer_total", "hammered");
        let r = reg.recorder("test_reg_hammer_seconds", "hammered");
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        // Values spread over [1us, 1ms).
                        r.record(1e-6 + ((t as u64 * PER_THREAD + i) % 999) as f64 * 1e-6);
                    }
                });
            }
        });
        if !telemetry_enabled() {
            // The off lane freezes the handles: same hammer, no motion.
            assert_eq!(c.value(), 0);
            assert_eq!(r.snapshot().count(), 0);
            return;
        }
        assert_eq!(c.value(), THREADS as u64 * PER_THREAD);
        let h = r.snapshot();
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let (p50, p99, max) = (h.quantile(0.5), h.quantile(0.99), h.max());
        assert!(p50 <= p99 && p99 <= max, "p50={p50} p99={p99} max={max}");
        assert!((4e-4..=6e-4).contains(&p50), "p50={p50}");
        assert!(max < 1.1e-3, "max={max}");
        // The exact sum survives the CAS accumulation (up to f64
        // addition-order noise).
        let expected_sum: f64 = (0..THREADS as u64 * PER_THREAD)
            .map(|k| 1e-6 + (k % 999) as f64 * 1e-6)
            .sum();
        let sum = h.mean() * h.count() as f64;
        assert!(
            (sum - expected_sum).abs() / expected_sum < 1e-9,
            "sum={sum} expected~{expected_sum}"
        );
    }

    #[test]
    fn recorder_exposes_prometheus_histogram_series() {
        if !telemetry_enabled() {
            return; // the off lane freezes every handle; nothing to assert
        }
        let reg = Registry::global();
        let r = reg.recorder("test_reg_expo_seconds", "exposition probe");
        // Three values in two distinct buckets (1us twice and 1ms once).
        r.record(1.0e-6);
        r.record(1.0e-6);
        r.record(1.0e-3);
        let text = reg.prometheus();
        assert!(
            text.contains("# TYPE test_reg_expo_seconds histogram"),
            "{text}"
        );
        // Cumulative bucket counts, ending in the mandatory +Inf.
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter(|l| l.starts_with("test_reg_expo_seconds_bucket{le=\""))
            .map(|l| {
                let (name, v) = l.rsplit_once(' ').unwrap();
                let le = name
                    .strip_prefix("test_reg_expo_seconds_bucket{le=\"")
                    .unwrap()
                    .strip_suffix("\"}")
                    .unwrap();
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                (le, v.parse().unwrap())
            })
            .collect();
        assert!(buckets.len() >= 3, "{text}"); // 2 populated + +Inf
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "le ascending");
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "counts cumulative"
        );
        let last = buckets.last().unwrap();
        assert_eq!(last.0, f64::INFINITY);
        assert_eq!(last.1, 3, "+Inf equals total count");
        // Both micro observations share a bucket below the milli one.
        assert_eq!(buckets[0].1, 2, "{buckets:?}");
        assert!(text.contains("test_reg_expo_seconds_count 3"), "{text}");
        // No summary-style quantile lines remain.
        assert!(!text.contains("test_reg_expo_seconds{quantile"), "{text}");
    }

    #[test]
    fn json_line_is_one_line_of_json_shape() {
        if !telemetry_enabled() {
            return; // the off lane freezes every handle; nothing to assert
        }
        let reg = Registry::global();
        reg.counter("test_reg_json_total", "json").add(9);
        let line = reg.json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"test_reg_json_total\":9"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    #[test]
    fn nan_is_dropped_not_fatal() {
        if !telemetry_enabled() {
            return; // the off lane freezes every handle; nothing to assert
        }
        let reg = Registry::global();
        let r = reg.recorder("test_reg_nan_seconds", "nan probe");
        r.record(f64::NAN);
        r.record(-1.0); // clamps to 0
        assert_eq!(r.count(), 1);
    }
}
