//! Extension: open-loop latency and aggregate query throughput over
//! the wire, at 1/8/64 concurrent query connections.
//!
//! Each row runs the shared graph pipeline (`str-l2?theta=0.5&
//! tau=100&graph`) behind a loopback event-loop server and replays the
//! same schedule through `sssj_bench::run_net_open_loop` (one ingest
//! connection + N query connections, latency from scheduled arrival —
//! see the latency methodology in `sssj_bench`'s crate docs), then
//! hammers `QUERY topk` closed-loop for a fixed window to measure
//! aggregate read throughput.
//!
//! Each row is labelled from the `sssj_graph_oracle_lane` gauge the
//! server reports in a `METRICS` scrape after the run, so a label
//! cannot disagree with the read path it measured:
//!
//! * `snapshot-eventloop` (gauge 0, the default) — queries served
//!   wait-free from the published snapshot;
//! * `mutex-eventloop` (gauge 1) — every read through the one
//!   `Mutex<SimilarityGraph>`, the differential baseline. The graph
//!   reads `SSSJ_GRAPH_ORACLE` once per process, so this row comes from
//!   its own run:
//!   `SSSJ_GRAPH_ORACLE=1 cargo bench -p sssj-bench --bench ext_latency_net`.
//!
//! The bench panics if the scrape carries no such gauge (for example
//! under `SSSJ_TELEMETRY=off`).
//!
//! Rows append to `$CRITERION_JSON` when set (the `BENCH_pr8.json`
//! protocol). Caveat for absolute numbers: on a 1-vCPU host the N
//! client threads and the server share one core, so a multi-core host
//! would show the snapshot path's *parallel* read scaling on top of
//! what this measures. `BENCH_FAST=1` shrinks the streams for the CI
//! smoke run.

use std::net::SocketAddr;
use std::time::Duration;

use sssj_bench::{run_net_open_loop, run_query_saturation, NetLoopConfig, OpenLoopReport};
use sssj_data::{generate, preset, Preset};
use sssj_net::{JoinClient, Server, ServerOptions, SessionDefaults};

fn fast() -> bool {
    std::env::var("BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn bind_server() -> Server {
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
    .expect("bind loopback")
}

/// The row label for the graph read path the server reports through
/// its `sssj_graph_oracle_lane` gauge.
fn reported_lane(addr: SocketAddr) -> &'static str {
    let mut client = JoinClient::connect(addr).expect("connect for METRICS");
    let lines = client.metrics().expect("METRICS scrape");
    client.quit().expect("quit METRICS client");
    let value = lines
        .iter()
        .find_map(|l| l.strip_prefix("sssj_graph_oracle_lane "))
        .unwrap_or_else(|| panic!("server reported no sssj_graph_oracle_lane gauge"));
    match value.trim() {
        "0" => "snapshot-eventloop",
        "1" => "mutex-eventloop",
        other => panic!("sssj_graph_oracle_lane = {other:?}, expected 0 or 1"),
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_json(lane: &str, clients: usize, rep: &OpenLoopReport, qps: f64) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    let row = format!(
        concat!(
            "{{\"group\":\"netloop\",\"bench\":\"{}/c{}\",",
            "\"rate\":{:.0},\"achieved\":{:.0},\"stalls\":{},\"pairs\":{},",
            "\"ingest_p50_ns\":{:.0},\"ingest_p99_ns\":{:.0},",
            "\"ingest_p999_ns\":{:.0},\"ingest_max_ns\":{:.0},",
            "\"query_p50_ns\":{:.0},\"query_p99_ns\":{:.0},",
            "\"query_p999_ns\":{:.0},\"saturation_qps\":{:.0}}}\n"
        ),
        lane,
        clients,
        rep.target_rate,
        rep.achieved_rate,
        rep.stalls,
        rep.pairs,
        rep.ingest.quantile(0.5) * 1e9,
        rep.ingest.quantile(0.99) * 1e9,
        rep.ingest.quantile(0.999) * 1e9,
        rep.ingest.max() * 1e9,
        rep.query.quantile(0.5) * 1e9,
        rep.query.quantile(0.99) * 1e9,
        rep.query.quantile(0.999) * 1e9,
        qps,
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open CRITERION_JSON");
    f.write_all(row.as_bytes()).expect("append CRITERION_JSON");
}

fn main() {
    let (n, rate, sat) = if fast() {
        (1_500, 20_000.0, Duration::from_millis(200))
    } else {
        (10_000, 5_000.0, Duration::from_secs(1))
    };
    let client_counts: &[usize] = if fast() { &[1, 4] } else { &[1, 8, 64] };
    let records = generate(&preset(Preset::Tweets, n));
    let nodes: Vec<u64> = records.iter().map(|r| r.id).collect();

    for &clients in client_counts {
        let server = bind_server();
        let cfg = NetLoopConfig {
            rate,
            clients,
            query_every: 16,
            k: 8,
            warmup: (n / 20).max(32),
        };
        let rep = run_net_open_loop(server.local_addr(), &records, &cfg)
            .unwrap_or_else(|e| panic!("netloop/c{clients}: {e}"));
        let (total, wall) = run_query_saturation(server.local_addr(), &nodes, clients, 8, sat)
            .unwrap_or_else(|e| panic!("saturation/c{clients}: {e}"));
        let lane = reported_lane(server.local_addr());
        server.shutdown();
        let qps = total as f64 / wall;
        println!(
            "netloop/{lane}/c{clients} rate={:.0}/s achieved={:.0}/s stalls={} \
             ip50={:.1}us ip99={:.1}us qp50={:.1}us qp99={:.1}us qp999={:.1}us \
             queries={} sat={:.0}q/s pairs={}",
            rep.target_rate,
            rep.achieved_rate,
            rep.stalls,
            rep.ingest.quantile(0.5) * 1e6,
            rep.ingest.quantile(0.99) * 1e6,
            rep.query.quantile(0.5) * 1e6,
            rep.query.quantile(0.99) * 1e6,
            rep.query.quantile(0.999) * 1e6,
            rep.queries,
            qps,
            rep.pairs,
        );
        assert!(rep.ingest.count() > 0, "{lane}/c{clients}: empty");
        assert!(rep.query.count() > 0, "{lane}/c{clients}: no queries");
        assert!(total > 0, "{lane}/c{clients}: saturation idle");
        emit_json(lane, clients, &rep, qps);
    }
}
