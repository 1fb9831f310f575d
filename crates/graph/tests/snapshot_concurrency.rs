//! Concurrency differential suite for the snapshot read path: one
//! ingest thread hammers a handle while N query threads read snapshots,
//! and **every** answer must equal a brute-force replay of the delivery
//! log truncated at that snapshot's own watermark.
//!
//! Verification is post-hoc by construction: delivery stamps are
//! strictly increasing, and the ingest thread logs each edge *before*
//! adding it, so for any published watermark `w` the graph state equals
//! exactly the log prefix with `t ≤ w` (an edge logged but unadded at
//! publish time has `t > w`). Checking against the live graph instead
//! would race — by the time a probe is compared the writer may have
//! advanced past `w` and swept edges that were live at `w`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sssj_graph::{GraphHandle, GraphStats, SimilarityGraph};

/// left, right, sim, stamp — stamps strictly increasing.
type LogEntry = (u64, u64, f64, f64);

/// One snapshot observation taken by a query thread.
struct Probe {
    watermark: f64,
    node: u64,
    neighbors: Vec<(u64, f64)>,
    topk: Vec<(u64, f64)>,
    component: Option<(u64, u64)>,
    stats: GraphStats,
}

/// Deterministic clustered edge stream: ids in a few dozen clusters so
/// components merge and split as the horizon slides.
fn edge_stream(n: usize) -> Vec<LogEntry> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|i| {
            let cluster = next() % 24;
            let a = cluster * 8 + next() % 8;
            let mut b = cluster * 8 + next() % 8;
            if b == a {
                b = cluster * 8 + (a + 1) % 8;
            }
            let sim = 0.5 + (next() % 1000) as f64 / 2000.0;
            (a.min(b), a.max(b), sim, i as f64 * 0.05)
        })
        .collect()
}

fn pairs_of(edges: &[sssj_graph::Edge]) -> Vec<(u64, f64)> {
    edges.iter().map(|e| (e.neighbor, e.similarity)).collect()
}

#[test]
fn snapshot_reads_under_concurrent_ingest_match_the_log_prefix() {
    const HORIZON: f64 = 20.0;
    const EDGES: usize = 12_000;
    const QUERY_THREADS: usize = 3;

    let stream = Arc::new(edge_stream(EDGES));
    let handle = GraphHandle::with_options(HORIZON, false);
    // The log the verifier replays: filled strictly ahead of the graph.
    let log: Arc<Mutex<Vec<LogEntry>>> = Arc::new(Mutex::new(Vec::with_capacity(EDGES)));
    let done = Arc::new(AtomicBool::new(false));

    let ingest = {
        let (handle, log, done, stream) = (
            handle.clone(),
            Arc::clone(&log),
            Arc::clone(&done),
            Arc::clone(&stream),
        );
        std::thread::spawn(move || {
            for &(l, r, sim, t) in stream.iter() {
                log.lock().unwrap().push((l, r, sim, t));
                handle.add_edge(l, r, sim, t);
            }
            done.store(true, Ordering::Release);
        })
    };

    let queriers: Vec<_> = (0..QUERY_THREADS)
        .map(|q| {
            let (handle, done, stream) = (handle.clone(), Arc::clone(&done), Arc::clone(&stream));
            std::thread::spawn(move || {
                // Probe only once ingest has published: on a loaded host
                // the queriers could otherwise take all their probes from
                // the empty initial snapshot before the ingest thread runs.
                while !done.load(Ordering::Acquire) && !handle.snapshot().watermark().is_finite() {
                    std::thread::yield_now();
                }
                let mut probes = Vec::new();
                let mut i = q;
                while !done.load(Ordering::Acquire) || probes.len() < 50 {
                    let snap = handle.snapshot();
                    let w = snap.watermark();
                    // Probe a node likely to be live near the watermark.
                    let node = stream[(i * 37) % stream.len()].0;
                    i += 1;
                    probes.push(Probe {
                        watermark: w,
                        node,
                        neighbors: pairs_of(&snap.neighbors(node, w)),
                        topk: pairs_of(&snap.topk(node, 3, w)),
                        component: snap.component(node, w),
                        stats: snap.stats(w),
                    });
                    if probes.len() >= 4000 {
                        break;
                    }
                }
                probes
            })
        })
        .collect();

    ingest.join().unwrap();
    let mut probes: Vec<Probe> = queriers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let log = Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap();
    assert_eq!(log.len(), EDGES);
    assert!(
        probes.iter().any(|p| p.watermark.is_finite()),
        "at least some probes must have seen published state"
    );

    // Replay the log incrementally, verifying probes in watermark order.
    probes.sort_by(|a, b| a.watermark.total_cmp(&b.watermark));
    let mut oracle = SimilarityGraph::new(HORIZON);
    let mut cursor = 0usize;
    for p in &probes {
        while cursor < log.len() && log[cursor].3 <= p.watermark {
            let (l, r, sim, t) = log[cursor];
            oracle.add_edge(l, r, sim, t);
            cursor += 1;
        }
        let w = p.watermark;
        assert_eq!(
            p.neighbors,
            pairs_of(&oracle.neighbors(p.node, w)),
            "neighbors({}) at watermark {w}",
            p.node
        );
        assert_eq!(
            p.topk,
            pairs_of(&oracle.topk(p.node, 3, w)),
            "topk({}) at watermark {w}",
            p.node
        );
        assert_eq!(
            p.component,
            oracle.component(p.node, w),
            "component({}) at watermark {w}",
            p.node
        );
        assert_eq!(p.stats, oracle.stats(w), "stats at watermark {w}");
    }
}

#[test]
fn snapshot_and_oracle_handles_agree_on_the_same_stream() {
    // The flagged Mutex path and the snapshot path, fed identically,
    // must answer identically at any query time — including times that
    // advance the clock past the last delivery.
    const HORIZON: f64 = 10.0;
    let snapshotting = GraphHandle::with_options(HORIZON, false);
    let oracle = GraphHandle::new_oracle(HORIZON);
    for &(l, r, sim, t) in &edge_stream(3_000) {
        snapshotting.add_edge(l, r, sim, t);
        oracle.add_edge(l, r, sim, t);
    }
    let last_t = 3_000.0 * 0.05;
    for now in [last_t * 0.5, last_t, last_t + HORIZON * 0.5] {
        for node in 0..192u64 {
            assert_eq!(
                pairs_of(&snapshotting.neighbors(node, now)),
                pairs_of(&oracle.neighbors(node, now)),
                "neighbors({node}) at {now}"
            );
            assert_eq!(
                pairs_of(&snapshotting.topk(node, 4, now)),
                pairs_of(&oracle.topk(node, 4, now)),
                "topk({node}) at {now}"
            );
            assert_eq!(
                snapshotting.component(node, now),
                oracle.component(node, now),
                "component({node}) at {now}"
            );
        }
        assert_eq!(snapshotting.stats(now), oracle.stats(now), "stats at {now}");
    }
}
