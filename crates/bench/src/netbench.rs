//! Open-loop latency replay against the *net* serving path: one ingest
//! connection plus N concurrent query connections, all driven from one
//! pre-computed arrival schedule.
//!
//! The in-process replay ([`crate::openloop`]) measures the join; this
//! module measures the *server* — socket framing, session dispatch and
//! (in shared mode) snapshot reads all sit inside the timed window. The methodology is the same and coordinated-omission
//! free: every arrival is scheduled before the run from the stream's
//! own timestamps, latency runs from **scheduled arrival** to reply
//! received, and a backed-up server is charged for every reply it
//! delays.
//!
//! The query stream is sliced round-robin across `clients` independent
//! connections: query slot `q` belongs to connection `q % clients`, so
//! each connection issues its own slots at their scheduled instants
//! regardless of what the others are doing. With the graph's Mutex
//! oracle forced (`SSSJ_GRAPH_ORACLE=1`) their reads serialize on the
//! lock; with snapshot reads they do not — the difference is what
//! `ext_latency_net` records. Per-connection histograms merge
//! ([`sssj_metrics::LogLinearHistogram::merge`]) into one distribution.

use std::net::SocketAddr;
use std::time::Instant;

use sssj_metrics::LogLinearHistogram;
use sssj_net::JoinClient;
use sssj_types::StreamRecord;

use crate::openloop::{schedule, wait_until, OpenLoopReport};

/// Configuration for one open-loop replay over sockets.
#[derive(Clone, Copy, Debug)]
pub struct NetLoopConfig {
    /// Target mean ingest arrival rate, records per wall-clock second.
    pub rate: f64,
    /// Concurrent query connections (0 disables the query stream).
    pub clients: usize,
    /// One `QUERY topk` slot per `query_every` ingests (0 disables).
    pub query_every: usize,
    /// `k` for the top-k query stream.
    pub k: usize,
    /// Leading records replayed but not recorded (index warm-up).
    pub warmup: usize,
}

impl Default for NetLoopConfig {
    fn default() -> Self {
        NetLoopConfig {
            rate: 5_000.0,
            clients: 1,
            query_every: 16,
            k: 8,
            warmup: 64,
        }
    }
}

/// Replays `records` against a running server at `addr` (a *shared*
/// graph-wrapped pipeline — every connection feeds/queries the same
/// join) and reports ingest and query latency distributions.
///
/// The ingest connection paces the schedule; each query connection
/// issues `topk` for the record of its slot at that record's scheduled
/// arrival — the instant the answer logically becomes available — so
/// queries and ingest genuinely contend. The report's `query`
/// histogram is the merge across all connections.
pub fn run_net_open_loop(
    addr: SocketAddr,
    records: &[StreamRecord],
    cfg: &NetLoopConfig,
) -> Result<OpenLoopReport, String> {
    assert!(
        cfg.rate > 0.0 && cfg.rate.is_finite(),
        "rate must be positive"
    );
    let offsets = schedule(records, cfg.rate);
    let period = std::time::Duration::from_secs_f64(1.0 / cfg.rate);

    // Query slots: (record index, scheduled offset, node to ask about).
    let slots: Vec<(usize, std::time::Duration, u64)> = if cfg.query_every > 0 {
        records
            .iter()
            .zip(&offsets)
            .enumerate()
            .filter(|(i, _)| (i + 1) % cfg.query_every == 0)
            .map(|(i, (r, &off))| (i, off, r.id))
            .collect()
    } else {
        Vec::new()
    };

    let clients = if slots.is_empty() { 0 } else { cfg.clients };
    let start = Instant::now();
    let ingest = std::thread::scope(|scope| -> Result<_, String> {
        let query_handles: Vec<_> = (0..clients)
            .map(|c| {
                let mine: Vec<_> = slots
                    .iter()
                    .enumerate()
                    .filter(|(q, _)| q % clients == c)
                    .map(|(_, s)| *s)
                    .collect();
                let k = cfg.k as u32;
                let warmup = cfg.warmup;
                scope.spawn(move || -> Result<(LogLinearHistogram, u64), String> {
                    let mut client =
                        JoinClient::connect(addr).map_err(|e| format!("query client {c}: {e}"))?;
                    let mut hist = LogLinearHistogram::new();
                    let mut issued = 0u64;
                    for (i, off, node) in mine {
                        let scheduled = start + off;
                        wait_until(scheduled);
                        let top = client
                            .query_topk(node, k)
                            .map_err(|e| format!("query client {c}: {e}"))?;
                        std::hint::black_box(&top);
                        issued += 1;
                        if i >= warmup {
                            hist.record(scheduled.elapsed().as_secs_f64());
                        }
                    }
                    client
                        .quit()
                        .map_err(|e| format!("query client {c}: {e}"))?;
                    Ok((hist, issued))
                })
            })
            .collect();

        // The ingest connection runs on the caller's thread.
        let mut client = JoinClient::connect(addr).map_err(|e| format!("ingest: {e}"))?;
        let mut hist = LogLinearHistogram::new();
        let mut stalls = 0u64;
        let mut pairs = 0u64;
        for (i, (r, &off)) in records.iter().zip(&offsets).enumerate() {
            let scheduled = start + off;
            wait_until(scheduled);
            if scheduled.elapsed() > period {
                stalls += 1;
            }
            let out = client.send_record(r).map_err(|e| format!("ingest: {e}"))?;
            pairs += out.len() as u64;
            if i >= cfg.warmup {
                hist.record(scheduled.elapsed().as_secs_f64());
            }
        }
        // No FINISH: on a shared pipeline it would seal the join for
        // every connection. QUIT closes only this one.
        client.quit().map_err(|e| format!("ingest: {e}"))?;

        let mut query_hist = LogLinearHistogram::new();
        let mut queries = 0u64;
        for h in query_handles {
            let (hist, issued) = h.join().map_err(|_| "query client panicked")??;
            query_hist.merge(&hist);
            queries += issued;
        }
        Ok((hist, stalls, pairs, query_hist, queries))
    })?;
    let (ingest_hist, stalls, pairs, query_hist, queries) = ingest;
    let wall = start.elapsed().as_secs_f64();

    Ok(OpenLoopReport {
        ingest: ingest_hist,
        query: query_hist,
        stalls,
        records: records.len() as u64,
        queries,
        pairs,
        wall_seconds: wall,
        target_rate: cfg.rate,
        achieved_rate: if wall > 0.0 {
            records.len() as f64 / wall
        } else {
            0.0
        },
    })
}

/// Aggregate query throughput: `clients` connections hammer `QUERY
/// topk` closed-loop (each issues its next query the moment the
/// previous reply lands) for `duration`, cycling over `nodes`. Returns
/// `(total queries answered, wall seconds)` — the read-scalability
/// number: a mutex-guarded graph serializes the connections, snapshot
/// reads do not.
pub fn run_query_saturation(
    addr: SocketAddr,
    nodes: &[u64],
    clients: usize,
    k: usize,
    duration: std::time::Duration,
) -> Result<(u64, f64), String> {
    assert!(clients > 0 && !nodes.is_empty());
    let start = Instant::now();
    let deadline = start + duration;
    let total = std::thread::scope(|scope| -> Result<u64, String> {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let k = k as u32;
                scope.spawn(move || -> Result<u64, String> {
                    let mut client = JoinClient::connect(addr)
                        .map_err(|e| format!("saturation client {c}: {e}"))?;
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let node = nodes[(c + n as usize * clients) % nodes.len()];
                        let top = client
                            .query_topk(node, k)
                            .map_err(|e| format!("saturation client {c}: {e}"))?;
                        std::hint::black_box(&top);
                        n += 1;
                    }
                    client
                        .quit()
                        .map_err(|e| format!("saturation client {c}: {e}"))?;
                    Ok(n)
                })
            })
            .collect();
        let mut total = 0u64;
        for h in handles {
            total += h.join().map_err(|_| "saturation client panicked")??;
        }
        Ok(total)
    })?;
    Ok((total, start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_data::{generate, preset, Preset};
    use sssj_net::{Server, ServerOptions, SessionDefaults};

    fn shared_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerOptions {
                defaults: SessionDefaults {
                    spec: "str-l2?theta=0.5&tau=100&graph".parse().unwrap(),
                    ..Default::default()
                },
                shared: true,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn net_replay_reports_merged_latencies() {
        let records = generate(&preset(Preset::Tweets, 240));
        let cfg = NetLoopConfig {
            rate: 50_000.0,
            clients: 3,
            query_every: 8,
            k: 4,
            warmup: 16,
        };
        let server = shared_server();
        let rep = run_net_open_loop(server.local_addr(), &records, &cfg).unwrap();
        server.shutdown();
        assert_eq!(rep.records, 240);
        assert_eq!(rep.queries, 240 / 8);
        assert!(rep.query.count() > 0);
        assert!(rep.ingest.count() > 0);
        assert!(rep.ingest.quantile(0.99) >= rep.ingest.quantile(0.5));
        assert!(rep.achieved_rate > 0.0);
    }

    #[test]
    fn saturation_counts_queries_across_clients() {
        let records = generate(&preset(Preset::Tweets, 120));
        let server = shared_server();
        let cfg = NetLoopConfig {
            rate: 100_000.0,
            clients: 1,
            query_every: 0,
            warmup: 0,
            ..NetLoopConfig::default()
        };
        run_net_open_loop(server.local_addr(), &records, &cfg).unwrap();
        let nodes: Vec<u64> = (0..120).collect();
        let (total, wall) = run_query_saturation(
            server.local_addr(),
            &nodes,
            4,
            8,
            std::time::Duration::from_millis(100),
        )
        .unwrap();
        server.shutdown();
        assert!(total > 0);
        assert!(wall >= 0.1);
    }

    #[test]
    fn query_stream_can_be_disabled_over_the_wire() {
        let records = generate(&preset(Preset::Tweets, 100));
        let server = shared_server();
        let cfg = NetLoopConfig {
            rate: 50_000.0,
            clients: 4,
            query_every: 0,
            warmup: 0,
            ..NetLoopConfig::default()
        };
        let rep = run_net_open_loop(server.local_addr(), &records, &cfg).unwrap();
        server.shutdown();
        assert_eq!(rep.queries, 0);
        assert_eq!(rep.query.count(), 0);
        assert_eq!(rep.ingest.count(), 100);
    }
}
