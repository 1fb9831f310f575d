//! The served workload: a durable, graph-backed, history-archiving
//! pipeline behind a shared event-loop `sssj_net::Server`, fed by one
//! ingest connection and queried by one query connection.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sssj_core::JoinSpec;
use sssj_net::{JoinClient, Server, ServerEngine, ServerOptions, SessionDefaults, SessionMode};
use sssj_types::{SimilarPair, StreamRecord};

use crate::feeder::{drive, Feed, Pass, Target};
use crate::oracle::{topk_matches, Oracle};
use crate::tracing::{Tracer, DRAIN_EVERY};
use crate::util::us;

/// One query slot every this many ingests.
pub const QUERY_EVERY: usize = 16;
/// `k` of every `topk` query.
pub const TOPK: u32 = 8;
/// `at=` queries ask for the newest record at least this many horizons
/// older than the ingest front: its whole window lies before the live
/// graph's, so the answer comes from the archive.
pub const DEEP_HORIZONS: f64 = 2.0;

/// The served pipeline over fresh state directories under `root`.
pub fn spec(base: &str, root: &Path) -> Result<JoinSpec, String> {
    let text = format!(
        "{base}&durable={}&graph&history={}",
        root.join("wal").display(),
        root.join("hist").display()
    );
    text.parse::<JoinSpec>()
        .map_err(|e| format!("spec {text}: {e:?}"))
}

/// Binds a shared event-loop server for `spec` and connects the ingest
/// client; returns once the server answered the client, i.e. is ready
/// for the first record. The third value is that set-up time, seconds.
pub fn start(spec: &JoinSpec) -> Result<(Server, JoinClient, f64), String> {
    let t0 = Instant::now();
    let options = ServerOptions {
        defaults: SessionDefaults {
            spec: spec.clone(),
            mode: SessionMode::Vector,
        },
        engine: ServerEngine::EventLoop,
        shared: true,
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", options).map_err(|e| format!("bind: {e}"))?;
    let mut client =
        JoinClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client.stats().map_err(|e| format!("first stats: {e}"))?;
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

/// Time to bring a server up on fresh directories under `dir` until it
/// answers, seconds; the server is shut down and the directories removed.
pub fn setup_only(base: &str, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir: {e}"))?;
    let (server, client, setup) = start(&spec(base, dir)?)?;
    let _ = client.quit();
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup)
}

/// Query-side results of one pass.
#[derive(Default)]
pub struct Queries {
    /// Scheduled instant → reply, per query.
    pub latency_us: Vec<f64>,
    /// Sent, and failed or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// `[send, reply]` of live and `at=` queries (traced runs only).
    pub live: Vec<(Instant, Instant)>,
    pub at: Vec<(Instant, Instant)>,
}

/// Ingest-side extras of one pass.
pub struct Served {
    pub pass: Pass,
    pub queries: Queries,
    /// Paper counters from the session: entries, candidates, full sims, pairs.
    pub counters: [u64; 4],
    pub loop_stalls: u64,
    /// Bytes under the state directories after `FINISH`.
    pub disk_bytes: u64,
    /// Archive segment files (one `.idx` per segment) and their bytes.
    pub segment_files: u64,
    pub segment_bytes: u64,
    /// Time for a fresh server on the same directories to answer, s.
    pub recover_s: Option<f64>,
    /// Whether the recovered server answered as the old one did.
    pub recover_ok: bool,
}

struct Ingest<'a> {
    client: JoinClient,
    started: &'a AtomicU64,
    acked: &'a AtomicU64,
    tracer: Option<&'a mut Tracer>,
    /// Hands the schedule to the query thread once warm-up is done.
    schedule_tx: Option<mpsc::Sender<Vec<Instant>>>,
}

impl Target for Ingest<'_> {
    fn process(&mut self, r: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        self.started.store(r.id + 1, Ordering::Release);
        let pairs = self.client.send_record(r).map_err(|e| e.to_string())?;
        out.extend(pairs);
        self.acked.store(r.id + 1, Ordering::Release);
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        out.extend(self.client.finish().map_err(|e| e.to_string())?);
        Ok(())
    }

    fn after(&mut self, i: usize) {
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            self.tick();
        }
    }

    fn tick(&mut self) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.drain();
        }
    }

    fn begin(&mut self, schedule: &[Instant]) {
        if let Some(tx) = self.schedule_tx.take() {
            let _ = tx.send(schedule.to_vec());
        }
    }
}

/// Settings of one served pass.
pub struct ServePass<'a> {
    pub base: &'a str,
    pub dir: PathBuf,
    pub records: &'a [StreamRecord],
    pub warm: usize,
    pub rate: Option<f64>,
    /// Run the query connection alongside (open-loop passes only).
    pub queries: bool,
    /// Measure recovery on the pass's directories afterwards.
    pub recover: bool,
    pub keep_pairs: bool,
    pub horizon: f64,
}

/// Runs one served pass on fresh directories and removes them after.
pub fn pass(
    cfg: &ServePass,
    oracle: &Oracle,
    tracer: Option<&mut Tracer>,
) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(&cfg.dir);
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("mkdir: {e}"))?;
    let result = run(cfg, oracle, tracer);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    result
}

fn run(
    cfg: &ServePass,
    oracle: &Oracle,
    mut tracer: Option<&mut Tracer>,
) -> Result<Served, String> {
    if let Some(t) = tracer.as_deref_mut() {
        t.reset();
    }
    let spec = spec(cfg.base, &cfg.dir)?;
    let (server, client, setup_s) = start(&spec)?;
    let addr = server.local_addr();
    let started = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let keep_busy = tracer.is_some();
    let feed = Feed {
        records: cfg.records,
        warm: cfg.warm,
        rate: cfg.rate,
        keep_busy,
        keep_pairs: cfg.keep_pairs,
    };
    let (schedule_tx, schedule_rx) = mpsc::channel();
    let with_queries = cfg.queries && cfg.rate.is_some();
    let mut ingest = Ingest {
        client,
        started: &started,
        acked: &acked,
        tracer,
        schedule_tx: with_queries.then_some(schedule_tx),
    };
    let (mut pass, queries) = std::thread::scope(|s| {
        let q = with_queries.then(|| {
            let (started, acked) = (&started, &acked);
            s.spawn(move || {
                let slots: Vec<Instant> = schedule_rx
                    .recv()
                    .unwrap_or_default()
                    .into_iter()
                    .skip(QUERY_EVERY - 1)
                    .step_by(QUERY_EVERY)
                    .collect();
                query_loop(addr, oracle, &slots, started, acked, cfg.horizon, keep_busy)
            })
        });
        let pass = drive(&feed, &mut ingest);
        let queries = match q {
            Some(h) => h.join().expect("query thread panicked"),
            None => Ok(Queries::default()),
        };
        (pass, queries)
    });
    let queries = queries?;
    pass.setup_s = setup_s;
    let mut client = ingest.client;
    let st = client.stats().map_err(|e| format!("stats: {e}"))?;
    let counters = [st.entries_traversed, st.candidates, st.full_sims, st.pairs];
    let loop_stalls = client.loop_stalls().unwrap_or(0);
    let disk_bytes = crate::util::dir_bytes(&cfg.dir);
    let hist = cfg.dir.join("hist");
    let segment_files = crate::util::count_files(&hist, ".idx");
    let segment_bytes = crate::util::dir_bytes(&hist);

    let mut recover_s = None;
    let mut recover_ok = true;
    if cfg.recover {
        let last = cfg.records.len() as u64 - 1;
        let deep = oracle
            .before(last, DEEP_HORIZONS * cfg.horizon)
            .unwrap_or(0);
        let at = oracle.time(deep);
        let live = client.query_topk(last, TOPK).map_err(|e| e.to_string())?;
        let past = client
            .query_topk_at(deep, TOPK, Some(at))
            .map_err(|e| e.to_string())?;
        let _ = client.quit();
        server.shutdown();
        let t0 = Instant::now();
        let (server, mut client, _) = start(&spec)?;
        let live2 = client.query_topk(last, TOPK).map_err(|e| e.to_string())?;
        recover_s = Some(t0.elapsed().as_secs_f64());
        let past2 = client
            .query_topk_at(deep, TOPK, Some(at))
            .map_err(|e| e.to_string())?;
        let as_want = |node: u64, v: &[SimilarPair]| -> Vec<(u64, f64)> {
            v.iter()
                .map(|p| (if p.left == node { p.right } else { p.left }, p.similarity))
                .collect()
        };
        recover_ok = topk_matches(last, &live2, &as_want(last, &live))
            && topk_matches(deep, &past2, &as_want(deep, &past));
        let _ = client.quit();
        server.shutdown();
    } else {
        let _ = client.quit();
        server.shutdown();
    }
    if let Some(t) = ingest.tracer {
        t.drain();
    }
    Ok(Served {
        pass,
        queries,
        counters,
        loop_stalls,
        disk_bytes,
        segment_files,
        segment_bytes,
        recover_s,
        recover_ok,
    })
}

/// The query connection: at each slot's scheduled instant, a `topk`
/// alternating between the live graph (for the newest acknowledged
/// record) and an `at=` read [`DEEP_HORIZONS`] back. Every answer is
/// checked against the oracle.
fn query_loop(
    addr: SocketAddr,
    oracle: &Oracle,
    slots: &[Instant],
    started: &AtomicU64,
    acked: &AtomicU64,
    horizon: f64,
    keep_busy: bool,
) -> Result<Queries, String> {
    let mut client = JoinClient::connect(addr).map_err(|e| format!("query connect: {e}"))?;
    let mut q = Queries::default();
    for (j, &due) in slots.iter().enumerate() {
        // Queries only sleep: the feeder and the server own the cores.
        crate::util::wait_until(due, Duration::ZERO);
        let a = acked.load(Ordering::Acquire);
        if a == 0 {
            continue;
        }
        let deep = match j % 2 {
            1 => oracle.before(a - 1, DEEP_HORIZONS * horizon),
            _ => None,
        };
        q.attempted += 1;
        let sent = Instant::now();
        let ok = if let Some(node) = deep {
            let at = oracle.time(node);
            match client.query_topk_at(node, TOPK, Some(at)) {
                Ok(reply) => topk_matches(
                    node,
                    &reply,
                    &oracle.topk(node, TOPK as usize, at, horizon, u64::MAX),
                ),
                Err(_) => false,
            }
        } else {
            let node = a - 1;
            match client.query_topk(node, TOPK) {
                Ok(reply) => {
                    // The graph may have taken in any record between the
                    // last acknowledged and the last sent one.
                    let b = started.load(Ordering::Acquire);
                    (a..=b).any(|m| {
                        let want = oracle.topk(node, TOPK as usize, oracle.time(m - 1), horizon, m);
                        topk_matches(node, &reply, &want)
                    })
                }
                Err(_) => false,
            }
        };
        let replied = Instant::now();
        q.latency_us.push(us(due, replied));
        if !ok {
            q.failed += 1;
        }
        if keep_busy {
            match deep {
                Some(_) => &mut q.at,
                None => &mut q.live,
            }
            .push((sent, replied));
        }
    }
    let _ = client.quit();
    Ok(q)
}
