//! `sssj bench-latency` — open-loop latency replay against a running
//! join (see the "Latency methodology" section in `sssj_bench`'s crate
//! docs: latency is measured from *scheduled* arrival, so queueing
//! delay shows up in the tail instead of being coordinated away).
//!
//! With `--history DIR` the replay runs a durable + graph + history
//! pipeline rooted under `DIR` and the periodic query stream becomes a
//! time-travel mix: each query is a `topk … at=<t>` through the segment
//! tier's overlay, with `t` cycling over fractions {0.25, 0.5, 0.75} of
//! the stream span so the mix spans deep history, mid-window and
//! near-live points.

use std::path::PathBuf;

use sssj_bench::{run_open_loop, run_open_loop_with_hooks, NetLoopConfig, OpenLoopConfig};
use sssj_core::{Framework, JoinSpec, SssjConfig, Streaming, WrapperSpec};
use sssj_data::{generate, preset, Preset};
use sssj_index::IndexKind;
use sssj_kernels::Lane;
use sssj_net::{Server, ServerOptions, SessionDefaults};
use sssj_types::{SimilarPair, StreamRecord};

use crate::args::parse;
use crate::io::load;

/// `sssj bench-latency [FILE] [--preset P --n N] [--rate R] [--theta T]
/// [--lambda L] [--index I] [--k K] [--query-every Q] [--lane auto|scalar]
/// [--history DIR] [--net [--clients N] [--oracle]]`
///
/// `--net` replays the same open-loop schedule through a loopback
/// server instead of an in-process join: one ingest connection plus
/// `--clients` concurrent query connections against a `--shared`
/// pipeline, so socket framing, session dispatch and the event loop
/// are inside the measurement. `--oracle` forces the Mutex graph path
/// (the differential baseline — sets `SSSJ_GRAPH_ORACLE` for the rest
/// of the process).
pub fn bench_latency(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["net", "oracle"])?;
    p.expect_only(&[
        "preset",
        "n",
        "rate",
        "theta",
        "lambda",
        "index",
        "k",
        "query-every",
        "lane",
        "history",
        "net",
        "clients",
        "oracle",
    ])?;
    let records = match p.positional.as_slice() {
        [] => {
            let name = p.get("preset").unwrap_or("rcv1");
            let preset_kind =
                Preset::parse(name).ok_or_else(|| format!("unknown preset {name:?}"))?;
            let n = p.get_parsed("n", 10_000usize)?;
            generate(&preset(preset_kind, n))
        }
        [input] => load(&PathBuf::from(input))?,
        _ => return Err("bench-latency takes at most one path".into()),
    };
    if records.is_empty() {
        return Err("empty stream".into());
    }
    let theta = p.get_parsed("theta", 0.5)?;
    let lambda = p.get_parsed("lambda", 0.05)?;
    let kind = match p.get("index") {
        Some(name) => IndexKind::parse(name).ok_or_else(|| format!("unknown index {name:?}"))?,
        None => IndexKind::L2,
    };
    let lane = match p.get("lane").unwrap_or("auto") {
        "auto" => None,
        "scalar" => Some(Lane::Scalar),
        other => return Err(format!("--lane must be auto or scalar, got {other:?}")),
    };
    let cfg = OpenLoopConfig {
        rate: p.get_parsed("rate", 10_000.0)?,
        query_every: p.get_parsed("query-every", 16usize)?,
        k: p.get_parsed("k", 8usize)?,
        warmup: (records.len() / 20).max(32).min(records.len() / 2),
        graph_horizon: f64::INFINITY,
    };
    if !cfg.rate.is_finite() || cfg.rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    println!(
        "lane={} index={kind} theta={theta} lambda={lambda}",
        lane.map_or("auto", |_| "scalar"),
    );
    if p.flag("net") {
        if p.get("history").is_some() {
            return Err("--net and --history are mutually exclusive".into());
        }
        let clients = p.get_parsed("clients", 1usize)?;
        // The graph handle reads the oracle flag when the shared
        // session is built — in the loop thread — so the variable stays
        // set for the process.
        if p.flag("oracle") {
            std::env::set_var("SSSJ_GRAPH_ORACLE", "1");
        }
        let mut spec =
            JoinSpec::classic(Framework::Streaming, kind, SssjConfig::new(theta, lambda));
        spec.wrappers = vec![WrapperSpec::Graph];
        spec.validate().map_err(|e| e.to_string())?;
        let server = Server::bind(
            "127.0.0.1:0",
            ServerOptions {
                defaults: SessionDefaults {
                    spec,
                    ..Default::default()
                },
                shared: true,
                ..Default::default()
            },
        )
        .map_err(|e| format!("cannot bind loopback server: {e}"))?;
        let net_cfg = NetLoopConfig {
            rate: cfg.rate,
            clients,
            query_every: cfg.query_every,
            k: cfg.k,
            warmup: cfg.warmup,
        };
        sssj_kernels::force_lane(lane);
        let report = sssj_bench::run_net_open_loop(server.local_addr(), &records, &net_cfg);
        sssj_kernels::force_lane(None);
        server.shutdown();
        println!("net: clients={clients} oracle={}", p.flag("oracle"));
        println!("{}", report?.render());
        return Ok(());
    }
    match p.get("history") {
        None => {
            let mut join = Streaming::new(SssjConfig::new(theta, lambda), kind);
            sssj_kernels::force_lane(lane);
            let report = run_open_loop(&mut join, &records, &cfg);
            sssj_kernels::force_lane(None);
            println!("{}", report.render());
        }
        Some(dir) => {
            let root = PathBuf::from(dir);
            std::fs::create_dir_all(&root)
                .map_err(|e| format!("cannot create --history {dir}: {e}"))?;
            let mut spec =
                JoinSpec::classic(Framework::Streaming, kind, SssjConfig::new(theta, lambda));
            spec.wrappers = vec![
                WrapperSpec::Durable(root.join("wal").display().to_string()),
                WrapperSpec::Graph,
                WrapperSpec::History(root.join("hist").display().to_string()),
            ];
            spec.validate().map_err(|e| e.to_string())?;
            sssj_net::register_spec_builders();
            let (mut join, graph, history) =
                sssj_segments::build_with_handles(&spec).map_err(|e| e.to_string())?;
            let graph = graph.ok_or("history build lost its graph handle")?;
            let horizon = spec.horizon();
            let t0 = records[0].t.seconds();
            let k = cfg.k;
            // The graph wrapper inside the pipeline already records every
            // pair; the pairs hook has nothing left to do.
            let mut on_pairs = |_r: &StreamRecord, _out: &[SimilarPair]| {};
            const FRACS: [f64; 3] = [0.25, 0.5, 0.75];
            let mut qi = 0usize;
            let mut query = |r: &StreamRecord| {
                let t = t0 + (r.t.seconds() - t0) * FRACS[qi % FRACS.len()];
                qi += 1;
                let top = history.topk_at(Some(&graph), r.id, k, t, horizon);
                std::hint::black_box(&top);
            };
            sssj_kernels::force_lane(lane);
            let report =
                run_open_loop_with_hooks(join.as_mut(), &records, &cfg, &mut on_pairs, &mut query);
            sssj_kernels::force_lane(None);
            let mut tail = Vec::new();
            join.finish(&mut tail);
            println!("{}", report.render());
            let b = history.boundary();
            match b.oldest_t {
                Some(oldest) => println!(
                    "history: segments={} oldest_t={oldest:.3} (at= mix over fractions {FRACS:?})",
                    b.segments
                ),
                None => println!(
                    "history: segments=0 (nothing expired during the replay; at= answered from the live window)"
                ),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn net_mode_replays_over_loopback_with_concurrent_query_clients() {
        bench_latency(&argv(&[
            "--preset",
            "tweets",
            "--n",
            "240",
            "--rate",
            "100000",
            "--query-every",
            "8",
            "--net",
            "--clients",
            "3",
        ]))
        .unwrap();
        // --net refuses the in-process history replay.
        assert!(bench_latency(&argv(&["--net", "--n", "50", "--history", "/tmp/x"])).is_err());
    }

    #[test]
    fn history_mode_replays_with_a_time_travel_query_mix() {
        let dir = std::env::temp_dir().join(format!(
            "sssj-bench-latency-hist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        bench_latency(&argv(&[
            "--preset",
            "tweets",
            "--n",
            "300",
            "--rate",
            "200000",
            "--query-every",
            "8",
            "--history",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
