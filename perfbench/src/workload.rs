//! The workloads and the two run shapes: the end-to-end run (recorder
//! dark) and the traced run (per-layer attribution).

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use sssj_core::JoinSpec;
use sssj_data::{generate, preset, Preset};
use sssj_metrics::trace::{self, Stage, TraceEvent};
use sssj_metrics::JoinStats;
use sssj_types::StreamRecord;

use crate::feeder::Pass;
use crate::inproc;
use crate::oracle::Oracle;
use crate::report::Report;
use crate::serve::{self, ServePass};
use crate::tracing::{self as tr, Tracer};
use crate::util::{self, max, median, pct};

/// One workload: a seeded stream, a pipeline, and its load shape.
pub struct Workload {
    pub name: &'static str,
    preset: Preset,
    /// Stream length.
    n: usize,
    /// The pipeline; the served workload appends its state directories.
    pub spec: &'static str,
    served: bool,
    /// Offered rate of the latency passes, records per second. README.md
    /// gives the measurement each one comes from.
    pub rate: f64,
    /// p99 limit on ingest and pair latency for `sustained_rps`, µs.
    limit_us: f64,
    pub load_threads: usize,
    pub system_threads: &'static str,
    /// A sharded variant of the pipeline that the traced run drives once
    /// more over the same stream, to measure the parallel layer.
    sharded: Option<&'static str>,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tweets-serve",
        preset: Preset::Tweets,
        n: 100_000,
        spec: "str-l2?theta=0.5&tau=10",
        served: true,
        rate: 20_000.0,
        limit_us: 50_000.0,
        load_threads: 2,
        system_threads: "event loop + compactor",
        sharded: None,
    },
    Workload {
        name: "dense-str",
        preset: Preset::Dense,
        n: 20_000,
        spec: "str-l2?theta=0.5&tau=1000",
        served: false,
        rate: 2_100.0,
        limit_us: 50_000.0,
        load_threads: 1,
        system_threads: "none (joins on the load thread)",
        sharded: Some("sharded?theta=0.5&tau=1000&shards=2&inner=str-l2"),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// Per-invocation settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch state (served workload directories), removed at exit.
    pub work_dir: PathBuf,
    /// Oracle and determinism caches, kept across runs.
    pub cache_dir: PathBuf,
    /// CPUs of the host, counted before any pinning.
    pub nproc: usize,
}

/// The generated stream, its oracle and the parsed pipeline.
struct Prepared {
    records: Vec<StreamRecord>,
    oracle: Oracle,
    spec: JoinSpec,
    horizon: f64,
    /// Records fed closed loop before timing starts: those of the first
    /// horizon, after which the live index holds a full window.
    warm: usize,
}

fn prepare(w: &Workload, run: &Run, r: &mut Report) -> Result<Prepared, String> {
    let records = generate(&preset(w.preset, w.n).with_seed(run.seed));
    let spec: JoinSpec = w
        .spec
        .parse()
        .map_err(|e| format!("spec {}: {e:?}", w.spec))?;
    let horizon = spec.horizon();
    let mut oracle = Oracle::load(&records, spec.theta, spec.lambda, horizon, &run.cache_dir);
    if w.served {
        oracle.build_adjacency();
    }
    let t0 = records.first().map_or(0.0, |r| r.t.seconds());
    let warm = records.partition_point(|r| r.t.seconds() < t0 + horizon);
    // The measured part runs on one CPU; pinned only now, so the oracle
    // still gets both. On the 2-vCPU shared host, unpinned runs swung by
    // up to 2× from run to run: client ↔ event-loop ping-pong across
    // cores, and shard workers whose second core came and went with the
    // neighbours' load.
    crate::pin_to_last_cpu(run.nproc);
    r.cpus.push(("passes", crate::CPUS.load(Ordering::Relaxed)));
    Ok(Prepared {
        records,
        oracle,
        spec,
        horizon,
        warm,
    })
}

/// A pass's result in the form every workload shares.
struct Outcome {
    pass: Pass,
    /// entries traversed, candidates, full sims, pairs.
    counters: [u64; 4],
    /// postings added, entries pruned, peak postings (in-process only).
    index: [u64; 3],
    served: Option<serve::Served>,
}

#[derive(Clone, Copy)]
struct PassCfg {
    len: usize,
    warm: usize,
    rate: Option<f64>,
    queries: bool,
    recover: bool,
    keep_pairs: bool,
}

impl PassCfg {
    /// The whole stream, closed loop, from the first record.
    fn drain(p: &Prepared) -> PassCfg {
        PassCfg {
            len: p.records.len(),
            warm: 0,
            rate: None,
            queries: false,
            recover: false,
            keep_pairs: true,
        }
    }

    /// The whole stream at the workload's offered rate after warm-up,
    /// with the query connection when served.
    fn latency(w: &Workload, p: &Prepared) -> PassCfg {
        PassCfg {
            warm: p.warm,
            rate: Some(w.rate),
            queries: w.served,
            ..PassCfg::drain(p)
        }
    }
}

fn run_pass(
    w: &Workload,
    p: &Prepared,
    run: &Run,
    c: &PassCfg,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let records = &p.records[..c.len];
    if w.served {
        let cfg = ServePass {
            base: w.spec,
            dir: run.work_dir.join("state"),
            records,
            warm: c.warm,
            rate: c.rate,
            queries: c.queries,
            recover: c.recover,
            keep_pairs: c.keep_pairs,
            horizon: p.horizon,
        };
        let mut s = serve::pass(&cfg, &p.oracle, tracer)?;
        Ok(Outcome {
            pass: std::mem::take(&mut s.pass),
            counters: s.counters,
            index: [0; 3],
            served: Some(s),
        })
    } else {
        let (pass, st) = inproc::pass(&p.spec, records, c.warm, c.rate, c.keep_pairs, tracer)?;
        Ok(inproc_outcome(pass, st))
    }
}

fn inproc_outcome(pass: Pass, st: JoinStats) -> Outcome {
    Outcome {
        pass,
        counters: [
            st.entries_traversed,
            st.candidates,
            st.full_sims,
            st.pairs_output,
        ],
        index: [st.postings_added, st.entries_pruned, st.peak_postings],
        served: None,
    }
}

/// Checks one pass against the oracle and counts its operations.
fn check(r: &mut Report, p: &Prepared, o: &Outcome, label: &str) {
    let pass = &o.pass;
    r.ops(pass.records, pass.errors, || {
        format!("{label}: {} calls failed", pass.errors)
    });
    if pass.pairs.len() as u64 == pass.pair_count {
        let m = p.oracle.check(&pass.pairs, pass.records);
        r.ops(1, (m.total() > 0) as u64, || {
            format!("{label}: pair set differs from the oracle: {m:?}")
        });
    } else {
        let ok = p
            .oracle
            .check_digest(pass.pair_count, pass.digest, pass.records);
        r.ops(1, (!ok) as u64, || {
            format!("{label}: pair count or digest differs from the oracle")
        });
    }
    if let Some(s) = &o.served {
        r.ops(s.queries.attempted, s.queries.failed, || {
            format!(
                "{label}: {} queries failed or answered wrong",
                s.queries.failed
            )
        });
        if s.recover_s.is_some() {
            r.ops(1, (!s.recover_ok) as u64, || {
                format!("{label}: recovered server answered differently")
            });
        }
    }
}

/// Full-stream passes must repeat the paper counters and the pair-set
/// digest exactly, within a run and across runs of the same build.
struct Determinism {
    seen: Option<([u64; 4], u64)>,
}

impl Determinism {
    fn observe(&mut self, r: &mut Report, o: &Outcome, label: &str) {
        let now = (o.counters, o.pass.digest);
        match self.seen {
            None => self.seen = Some(now),
            Some(first) => r.ops(1, (first != now) as u64, || {
                format!("{label}: counters/digest {now:?} differ from the run's first {first:?}")
            }),
        }
    }

    /// Compares with the figures an earlier run of this executable
    /// recorded for the same stream, or records them.
    fn across_runs(&self, r: &mut Report, p: &Prepared, run: &Run, w: &Workload) {
        let Some((counters, digest)) = self.seen else {
            return;
        };
        let Some(exe) = std::env::current_exe()
            .ok()
            .and_then(|e| std::fs::read(e).ok())
        else {
            return;
        };
        let mut h = util::Fnv::new();
        h.bytes(&exe);
        h.u64(p.oracle.key());
        let path = run
            .cache_dir
            .join(format!("counters-{}-{:016x}.txt", w.name, h.finish()));
        let line = format!("{counters:?} {digest:016x}\n");
        match std::fs::read_to_string(&path) {
            Ok(prev) => r.ops(1, (prev != line) as u64, || {
                format!("counters/digest {line:?} differ from an earlier run's {prev:?}")
            }),
            Err(_) => {
                let _ = std::fs::create_dir_all(&run.cache_dir);
                let _ = std::fs::write(&path, line);
            }
        }
    }
}

fn mb(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Set-ups timed on their own, on top of one per pass, so the median
/// rests on enough samples.
const EXTRA_SETUPS: usize = 45;

/// Builds the system under test ready for its first record, times
/// that, and tears it down.
fn setup_only(w: &Workload, p: &Prepared, run: &Run) -> Result<f64, String> {
    if w.served {
        serve::setup_only(w.spec, &run.work_dir.join("state"))
    } else {
        inproc::setup_only(&p.spec)
    }
}

/// Runs one pass, checks it against the oracle and the run's other
/// passes, and logs its headline figures to standard error.
fn checked_pass(
    w: &Workload,
    p: &Prepared,
    run: &Run,
    c: &PassCfg,
    r: &mut Report,
    det: &mut Determinism,
    label: &str,
) -> Result<Outcome, String> {
    let o = run_pass(w, p, run, c, None)?;
    check(r, p, &o, label);
    det.observe(r, &o, label);
    eprintln!(
        "perfbench: {label}: {:.0} rec/s, ingest p50 {:.0}us, pair p50 {:.0}us",
        o.pass.rate,
        pct(&o.pass.ingest_us, 0.5),
        pct(&o.pass.pair_us, 0.5),
    );
    Ok(o)
}

/// Latency of a set of open-loop passes, each cut into segments (see
/// `util::seg_pct`): a median is the segments' lower quartile, a p99
/// the segments' median.
fn latency(passes: &[&Pass], f: fn(&Pass) -> &Vec<f64>, q: f64) -> f64 {
    let segs: Vec<f64> = passes.iter().flat_map(|p| util::seg_pct(f(p), q)).collect();
    if q < 0.9 {
        util::lower_quartile(&segs)
    } else {
        median(&segs)
    }
}

/// The end-to-end run, tracing off. First a closed-loop pass that keeps
/// no pairs gives the peak memory; then closed-loop passes run while the
/// budget lasts (two at least), each adding a set-up sample and a check
/// against the oracle and the run's other passes.
pub fn end_to_end(w: &Workload, run: &Run) -> Result<Report, String> {
    let mut r = Report::default();
    let p = prepare(w, run, &mut r)?;
    let mut det = Determinism { seen: None };
    let rss_base = util::rss_bytes();
    util::reset_peak_rss();
    let mem = PassCfg {
        keep_pairs: false,
        ..PassCfg::drain(&p)
    };
    let o = checked_pass(w, &p, run, &mem, &mut r, &mut det, "memory pass")?;
    let rss_peak = util::peak_rss_bytes() - rss_base;
    let mut setups = vec![o.pass.setup_s];
    let t0 = Instant::now();
    let mut last = 0.0;
    while setups.len() < 3 || t0.elapsed().as_secs_f64() + last <= run.seconds {
        let started = Instant::now();
        let o = checked_pass(
            w,
            &p,
            run,
            &PassCfg::drain(&p),
            &mut r,
            &mut det,
            "drain pass",
        )?;
        setups.push(o.pass.setup_s);
        last = started.elapsed().as_secs_f64();
    }
    det.across_runs(&mut r, &p, run, w);
    for _ in 0..EXTRA_SETUPS {
        setups.push(setup_only(w, &p, run)?);
    }
    r.put("setup_s", median(&setups), "s");
    r.put("rss_peak_mb", mb(rss_peak.max(0.0)), "MB");
    Ok(r)
}

/// Bisection steps of the `sustained_rps` search.
const PROBES: usize = 7;

/// Offered-load seconds each `sustained_rps` probe times.
const PROBE_S: f64 = 2.0;

/// `sustained_rps`, untraced: a geometric bisection between a tenth of
/// `drain_rps` and slightly above it, one fresh system per probe. A
/// probe feeds the warm-up closed loop and then [`PROBE_S`] of records
/// at the probed rate. It passes when the lower-quartile segment p99 of
/// ingest and of pair latency stays under the limit and the backlog left
/// at the end drains within the limit. A failed probe is tried once
/// more, since interference can only make a probe fail.
fn sustained(
    w: &Workload,
    p: &Prepared,
    run: &Run,
    drain_rps: f64,
    r: &mut Report,
) -> Result<f64, String> {
    let n = p.records.len();
    let probe = |step: usize, rate: f64, r: &mut Report| -> Result<bool, String> {
        let cfg = PassCfg {
            len: (p.warm + (rate * PROBE_S) as usize).min(n),
            rate: Some(rate),
            ..PassCfg::latency(w, p)
        };
        let o = run_pass(w, p, run, &cfg, None)?;
        check(r, p, &o, &format!("probe {step} at {rate:.0}/s"));
        let ing = util::lower_quartile(&util::seg_pct(&o.pass.ingest_us, 0.99));
        let pair = util::lower_quartile(&util::seg_pct(&o.pass.pair_us, 0.99));
        let ok = ing <= w.limit_us
            && pair <= w.limit_us
            && (o.pass.backlog_end as f64) <= rate * w.limit_us * 1e-6;
        eprintln!(
            "perfbench: probe {step} at {rate:.0}/s: ingest p99 {ing:.0}us, pair p99 {pair:.0}us, backlog {} -> {ok}",
            o.pass.backlog_end
        );
        Ok(ok)
    };
    let (mut lo, mut hi) = (0.1 * drain_rps, 1.05 * drain_rps);
    for step in 0..PROBES {
        let mid = (lo * hi).sqrt();
        if probe(step, mid, r)? || probe(step, mid, r)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The traced pass's events from its first timed call on (warm-up is
/// not attributed), the benchmark's busy spans on the trace clock, and
/// the timed part's wall time in ns.
fn timed_events(tracer: &Tracer, pass: &Pass) -> (Vec<TraceEvent>, Vec<(u64, u64)>, f64) {
    let from = pass.busy.first().map_or(0, |b| tracer.ns(b.0));
    let events = tracer
        .events
        .iter()
        .copied()
        .filter(|e| e.ts_ns >= from)
        .collect();
    let bench: Vec<(u64, u64)> = pass
        .busy
        .iter()
        .map(|&(s, e)| (tracer.ns(s), tracer.ns(e)))
        .collect();
    let wall = match (bench.first(), bench.last()) {
        (Some(a), Some(b)) => (b.1 - a.0).max(1) as f64,
        _ => 1.0,
    };
    (events, bench, wall)
}

/// Tolerance on `metrics.attributed_frac`: the program's spans must
/// cover this share of the caller's busy time (in process), or match
/// this share of the requests (served).
const ATTRIBUTED_MIN: f64 = 0.9;

/// The traced run: untraced, traced and untraced latency passes, the
/// throughput passes, and for in-process workloads a traced and an
/// untraced pass through the sharded variant. Per-layer metrics come from the traced passes'
/// recorder drains and the benchmark's own spans around each public call.
pub fn traced(w: &Workload, run: &Run) -> Result<Report, String> {
    let mut r = Report::default();
    let p = prepare(w, run, &mut r)?;
    let mut det = Determinism { seen: None };
    let n = p.records.len();
    let cfg = PassCfg::latency(w, &p);
    // Untraced, traced, untraced: the overhead compares the traced pass
    // with both neighbours, so warm-up and drift cancel. The first one
    // also restarts the served system to time its recovery.
    trace::force_trace_for_bench(false);
    let recover = PassCfg {
        recover: w.served,
        ..cfg
    };
    let off = checked_pass(w, &p, run, &recover, &mut r, &mut det, "untraced pass")?;
    trace::force_trace_for_bench(true);
    let mut tracer = Tracer::new();
    let on = run_pass(w, &p, run, &cfg, Some(&mut tracer))?;
    check(&mut r, &p, &on, "traced pass");
    det.observe(&mut r, &on, "traced pass");
    trace::force_trace_for_bench(false);
    let off2 = checked_pass(w, &p, run, &cfg, &mut r, &mut det, "second untraced pass")?;
    let mut drains = vec![];
    for _ in 0..3 {
        let o = checked_pass(
            w,
            &p,
            run,
            &PassCfg::drain(&p),
            &mut r,
            &mut det,
            "drain pass",
        )?;
        drains.push(o.pass.rate);
    }
    let sustained_rps = sustained(w, &p, run, median(&drains), &mut r)?;
    det.across_runs(&mut r, &p, run, w);

    let (events, bench, _) = timed_events(&tracer, &on.pass);
    let mut lost = tracer.lost;

    // The parallel layer: one more traced pass through the sharded
    // variant, on every CPU, as a sharded deployment runs. Same stream,
    // so the same pairs and the same paper counters as the sequential
    // passes.
    let mut speedup = 0.0;
    let sharded = match w.sharded {
        Some(text) => {
            let spec: JoinSpec = text.parse().map_err(|e| format!("spec {text}: {e:?}"))?;
            crate::unpin(run.nproc);
            r.cpus
                .push(("sharded_pass", crate::CPUS.load(Ordering::Relaxed)));
            trace::force_trace_for_bench(true);
            let traced = inproc::pass(
                &spec,
                &p.records,
                p.warm,
                Some(w.rate),
                true,
                Some(&mut tracer),
            );
            trace::force_trace_for_bench(false);
            let (pass, st) = traced?;
            let o = inproc_outcome(pass, st);
            check(&mut r, &p, &o, "sharded pass");
            det.observe(&mut r, &o, "sharded pass");
            lost += tracer.lost;
            let (ev, bench, wall) = timed_events(&tracer, &o.pass);
            // Closed loop once more, untraced, for the two-core speed-up
            // over the sequential drain passes.
            let (pass, st) = inproc::pass(&spec, &p.records, 0, None, true, None)?;
            let d = inproc_outcome(pass, st);
            check(&mut r, &p, &d, "sharded drain pass");
            det.observe(&mut r, &d, "sharded drain pass");
            speedup = d.pass.rate / median(&drains);
            Some((o, ev, bench, wall))
        }
        None => None,
    };
    r.ops(1, lost, || {
        format!("{lost} trace events wrapped out before a drain")
    });

    let c = off.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cand = tr::durations_us(&events, Stage::Candidates);
    r.put("core.candidates_us.p50", pct(&cand, 0.5), "us");
    r.put("core.candidates_us.p99", pct(&cand, 0.99), "us");
    r.put(
        "core.candidates_share",
        tr::candidates_share(&events),
        "fraction",
    );
    r.put("core.entries_traversed", c[0] as f64, "count");
    r.put("core.candidates", c[1] as f64, "count");
    r.put("core.full_sims", c[2] as f64, "count");
    r.put("core.pairs", c[3] as f64, "count");
    r.put("core.filter_yield", ratio(c[2], c[1]), "fraction");
    r.put("core.verify_yield", ratio(c[3], c[2]), "fraction");
    r.put("index.postings_added", off.index[0] as f64, "count");
    r.put("index.entries_pruned", off.index[1] as f64, "count");
    r.put("index.peak_postings", off.index[2] as f64, "count");

    let (mut flush, mut shard, mut busy_fracs, mut pair_delay) = (vec![], vec![], vec![], vec![]);
    let (mut driver_busy, mut skip_rate) = (0.0, 0.0);
    if let Some((o, ev, sb, wall)) = &sharded {
        flush = tr::durations_us(ev, Stage::RouterFlush);
        shard = tr::durations_us(ev, Stage::ShardRecord);
        let busy = tr::busy_by_thread(ev, Stage::ShardRecord);
        busy_fracs = busy.values().map(|&b| b as f64 / wall).collect();
        driver_busy = sb.iter().map(|&(s, e)| e - s).sum::<u64>() as f64 / wall;
        // Deliveries of timed records against one per record and shard.
        let delivered = ev
            .iter()
            .filter(|e| e.stage == Stage::ShardRecord && e.a >= p.warm as u64)
            .count();
        skip_rate = 1.0 - delivered as f64 / ((n - p.warm) * busy.len().max(1)) as f64;
        pair_delay = o.pass.pair_delay_us.clone();
    }
    let mean_busy = busy_fracs.iter().sum::<f64>() / busy_fracs.len().max(1) as f64;
    r.put("parallel.router_flush_us.p50", pct(&flush, 0.5), "us");
    r.put("parallel.router_flush_us.p99", pct(&flush, 0.99), "us");
    r.put("parallel.driver_busy_frac", driver_busy, "fraction");
    r.put("parallel.shard_record_us.p50", pct(&shard, 0.5), "us");
    r.put("parallel.shard_busy_frac.max", max(&busy_fracs), "fraction");
    r.put(
        "parallel.shard_imbalance",
        if mean_busy > 0.0 {
            max(&busy_fracs) / mean_busy
        } else {
            0.0
        },
        "ratio",
    );
    r.put("parallel.skip_rate", skip_rate, "fraction");
    r.put("parallel.drain_speedup", speedup, "ratio");
    r.put("parallel.pair_delay_us.p99", pct(&pair_delay, 0.99), "us");
    let sharded_pair50 = sharded.as_ref().map_or(0.0, |(o, ..)| {
        util::lower_quartile(&util::seg_pct(&o.pass.pair_us, 0.5))
    });
    r.put("parallel.pair_p50_us", sharded_pair50, "us");

    let wal = tr::durations_us(&events, Stage::WalAppend);
    let wal_bytes: Vec<f64> = events
        .iter()
        .filter(|e| e.stage == Stage::WalAppend)
        .map(|e| e.b as f64)
        .collect();
    let ckpt: Vec<f64> = tr::durations_us(&events, Stage::Checkpoint)
        .iter()
        .map(|v| v / 1e3)
        .collect();
    let fsync: Vec<f64> = tr::durations_us(&events, Stage::WalFsync)
        .iter()
        .map(|v| v / 1e3)
        .collect();
    r.put("store.wal_append_us.p50", pct(&wal, 0.5), "us");
    r.put("store.wal_append_us.p99", pct(&wal, 0.99), "us");
    r.put(
        "store.wal_bytes_per_record",
        wal_bytes.iter().fold(0.0, |a, b| a + b) / wal_bytes.len().max(1) as f64,
        "B",
    );
    r.put("store.checkpoint_ms.p50", pct(&ckpt, 0.5), "ms");
    r.put("store.checkpoint_ms.max", max(&ckpt), "ms");
    r.put("store.checkpoints", ckpt.len() as f64, "count");
    r.put("store.fsync_ms.max", max(&fsync), "ms");

    let publish = tr::durations_us(&events, Stage::GraphPublish);
    r.put("graph.publish_us.p50", pct(&publish, 0.5), "us");
    r.put("graph.publish_us.p99", pct(&publish, 0.99), "us");
    r.put("graph.publishes", publish.len() as f64, "count");

    let compaction: Vec<f64> = tr::durations_us(&events, Stage::Compaction)
        .iter()
        .map(|v| v / 1e3)
        .collect();
    r.put("segments.compaction_ms.p50", pct(&compaction, 0.5), "ms");
    r.put("segments.compaction_ms.max", max(&compaction), "ms");
    r.put("segments.compactions", compaction.len() as f64, "count");
    let (seg_count, seg_bytes) = on
        .served
        .as_ref()
        .map_or((0, 0), |s| (s.segment_files, s.segment_bytes));
    r.put("segments.count", seg_count as f64, "count");
    r.put("segments.bytes", seg_bytes as f64, "B");

    // Net: client round trips from the benchmark's spans, server time
    // from `net.request`, and their difference as socket + loop wait.
    let q = on.served.as_ref().map(|s| &s.queries);
    let to_ns = |v: &[(Instant, Instant)]| -> Vec<(u64, u64)> {
        v.iter()
            .map(|&(s, e)| (tracer.ns(s), tracer.ns(e)))
            .collect()
    };
    let at_ns = q.map(|q| to_ns(&q.at)).unwrap_or_default();
    let mut query_ns = q.map(|q| to_ns(&q.live)).unwrap_or_default();
    query_ns.extend(&at_ns);
    query_ns.sort_unstable();
    let at_server: Vec<f64> = tr::match_requests(&events, tr::VERB_QUERY, &at_ns)
        .into_iter()
        .flatten()
        .map(|d| d as f64 / 1e3)
        .collect();
    r.put("segments.at_query_us.p50", pct(&at_server, 0.5), "us");
    r.put("segments.at_query_us.p99", pct(&at_server, 0.99), "us");

    let rtt =
        |v: &[(u64, u64)]| -> Vec<f64> { v.iter().map(|&(s, e)| (e - s) as f64 / 1e3).collect() };
    let (ingest_rtt, query_rtt) = if w.served {
        (rtt(&bench), rtt(&query_ns))
    } else {
        (vec![], vec![])
    };
    let request: Vec<f64> = events
        .iter()
        .filter(|e| {
            e.stage == Stage::NetRequest && (e.a == tr::VERB_VECTOR || e.a == tr::VERB_QUERY)
        })
        .map(|e| e.dur_ns as f64 / 1e3)
        .collect();
    let matched = if w.served {
        tr::match_requests(&events, tr::VERB_VECTOR, &bench)
    } else {
        vec![]
    };
    let wait: Vec<f64> = matched
        .iter()
        .zip(&bench)
        .filter_map(|(m, &(s, e))| m.map(|d| (e - s).saturating_sub(d) as f64 / 1e3))
        .collect();
    r.put("net.ingest_rtt_us.p50", pct(&ingest_rtt, 0.5), "us");
    r.put("net.ingest_rtt_us.p99", pct(&ingest_rtt, 0.99), "us");
    r.put("net.query_rtt_us.p50", pct(&query_rtt, 0.5), "us");
    r.put("net.query_rtt_us.p99", pct(&query_rtt, 0.99), "us");
    r.put("net.request_us.p50", pct(&request, 0.5), "us");
    r.put("net.request_us.p99", pct(&request, 0.99), "us");
    r.put("net.wait_us.p99", pct(&wait, 0.99), "us");
    r.put(
        "net.loop_stalls",
        on.served.as_ref().map_or(0, |s| s.loop_stalls) as f64,
        "count",
    );

    // Attribution: in process, the program's root spans on the calling
    // thread against the benchmark's span around each call; served, the
    // share of ingest round trips matched to their server span (the rest
    // of each round trip is the net wait above).
    let attributed = if w.served {
        let total: u64 = bench.iter().map(|&(s, e)| e - s).sum();
        let hit: u64 = matched
            .iter()
            .zip(&bench)
            .filter(|(m, _)| m.is_some())
            .map(|(_, &(s, e))| e - s)
            .sum();
        hit as f64 / total.max(1) as f64
    } else {
        let driver = events
            .iter()
            .find(|e| e.stage == Stage::Ingest)
            .map_or(u32::MAX, |e| e.tid);
        tr::covered_frac(&events, driver, &bench)
    };
    r.ops(
        1,
        (!(ATTRIBUTED_MIN..=1.0 + 1e-9).contains(&attributed)) as u64,
        || format!("attributed_frac {attributed:.4} outside [{ATTRIBUTED_MIN}, 1]"),
    );
    let off_p50 = 0.5 * (pct(&off.pass.ingest_us, 0.5) + pct(&off2.pass.ingest_us, 0.5));
    r.put(
        "metrics.trace_overhead_pct",
        (pct(&on.pass.ingest_us, 0.5) / off_p50.max(1e-9) - 1.0) * 100.0,
        "%",
    );
    r.put("metrics.trace_dropped", lost as f64, "count");
    r.put("metrics.attributed_frac", attributed, "fraction");
    r.put(
        "bench.gen_lag_us.p99",
        pct(&off.pass.gen_lag_us, 0.99),
        "us",
    );
    r.put("bench.backlog_end", off.pass.backlog_end as f64, "count");

    r.put("drain_rps", median(&drains), "1/s");
    r.put("sustained_rps", sustained_rps, "1/s");
    let untraced = [&off.pass, &off2.pass];
    r.put(
        "ingest_p50_us",
        latency(&untraced, |p| &p.ingest_us, 0.5),
        "us",
    );
    r.put("pair_p50_us", latency(&untraced, |p| &p.pair_us, 0.5), "us");
    r.put(
        "ingest_p99_us",
        latency(&untraced, |p| &p.ingest_us, 0.99),
        "us",
    );
    r.put(
        "pair_p99_us",
        latency(&untraced, |p| &p.pair_us, 0.99),
        "us",
    );
    // The served workload's queries, restart and disk, from the first
    // untraced pass.
    let s = off.served.as_ref();
    let ql = s.map(|s| s.queries.latency_us.clone()).unwrap_or_default();
    r.put("query_p50_us", pct(&ql, 0.5), "us");
    r.put("query_p99_us", pct(&ql, 0.99), "us");
    r.put("recover_s", s.and_then(|s| s.recover_s).unwrap_or(0.0), "s");
    r.put("disk_mb", mb(s.map_or(0, |s| s.disk_bytes) as f64), "MB");
    Ok(r)
}
