//! `sssj graph` — run a stream into a live similarity graph and query
//! it.
//!
//! ```sh
//! sssj graph tweets.bin --spec 'str-l2?theta=0.7&tau=10' \
//!     --query 'topk 17 3; neighbors 17; component 17; stats'
//! ```
//!
//! The spec gets the `graph` wrapper appended when absent, the stream is
//! driven through the one spec factory, and each `;`-separated query is
//! answered at end-of-stream against the live graph (at the stream
//! watermark). A query may carry a trailing `at=<t>` to be answered as
//! of historical time `t` instead — those need the spec to route expired
//! edges into the segment tier (`…&durable=DIR&history=DIR`), or
//! `--brute-force`. With `--brute-force` the same queries are answered
//! by recomputing from the run's emitted-pair log instead of the graph —
//! identical output is the differential property, which CI's graph
//! smoke diffs (and `crates/graph/tests/differential.rs` asserts at
//! every prefix).

use std::path::PathBuf;

use sssj_core::{StreamJoin, WrapperSpec};
use sssj_graph::{build_with_handle, GraphHandle};
use sssj_segments::HistoryHandle;
use sssj_types::SimilarPair;

use crate::args::parse;
use crate::commands::spec_from_args;
use crate::io::load;

/// One parsed `--query` item. The trailing `Option<f64>` is the
/// `at=<t>` time-travel point (`None` = the stream watermark).
#[derive(Clone, Copy, Debug)]
pub enum Query {
    /// `neighbors <node> [at=<t>]`
    Neighbors(u64, Option<f64>),
    /// `topk <node> <k> [at=<t>]`
    TopK(u64, usize, Option<f64>),
    /// `component <node> [at=<t>]`
    Component(u64, Option<f64>),
    /// `stats`
    Stats,
}

impl Query {
    /// The query's `at=<t>` point, if any.
    pub fn at(self) -> Option<f64> {
        match self {
            Query::Neighbors(_, at) | Query::TopK(_, _, at) | Query::Component(_, at) => at,
            Query::Stats => None,
        }
    }

    /// The canonical label the answer line starts with — shared by the
    /// live, history and brute-force paths so outputs diff cleanly.
    pub fn label(self) -> String {
        let with_at = |base: String, at: Option<f64>| match at {
            Some(t) => format!("{base} at={t}"),
            None => base,
        };
        match self {
            Query::Neighbors(node, at) => with_at(format!("neighbors {node}"), at),
            Query::TopK(node, k, at) => with_at(format!("topk {node} {k}"), at),
            Query::Component(node, at) => with_at(format!("component {node}"), at),
            Query::Stats => "stats".into(),
        }
    }
}

/// Parses a `;`-separated query list: `neighbors N | topk N K |
/// component N | stats`, each but `stats` optionally followed by
/// `at=<t>`.
pub fn parse_queries(s: &str) -> Result<Vec<Query>, String> {
    let mut out = Vec::new();
    for item in s.split(';') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let mut parts = item.split_ascii_whitespace();
        let kind = parts.next().expect("non-empty item");
        let mut num = |what: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or_else(|| format!("query {item:?}: missing {what}"))?
                .parse()
                .map_err(|e| format!("query {item:?}: bad {what}: {e}"))
        };
        let q = match kind {
            "neighbors" => Query::Neighbors(num("node")?, None),
            "topk" => {
                let node = num("node")?;
                let k = num("k")? as usize;
                if k == 0 {
                    return Err(format!("query {item:?}: k must be >= 1"));
                }
                Query::TopK(node, k, None)
            }
            "component" => Query::Component(num("node")?, None),
            "stats" => Query::Stats,
            other => {
                return Err(format!(
                    "unknown query {other:?} (neighbors|topk|component|stats)"
                ))
            }
        };
        let q = match parts.next() {
            None => q,
            Some(tok) => {
                let Some(raw) = tok.strip_prefix("at=") else {
                    return Err(format!("query {item:?}: trailing arguments"));
                };
                let t: f64 = raw
                    .parse()
                    .map_err(|e| format!("query {item:?}: bad at=: {e}"))?;
                if !t.is_finite() {
                    return Err(format!("query {item:?}: at= must be finite"));
                }
                match q {
                    Query::Neighbors(node, _) => Query::Neighbors(node, Some(t)),
                    Query::TopK(node, k, _) => Query::TopK(node, k, Some(t)),
                    Query::Component(node, _) => Query::Component(node, Some(t)),
                    Query::Stats => {
                        return Err(format!("query {item:?}: stats takes no at="));
                    }
                }
            }
        };
        if parts.next().is_some() {
            return Err(format!("query {item:?}: trailing arguments"));
        }
        out.push(q);
    }
    if out.is_empty() {
        return Err("no queries given (try --query 'stats')".into());
    }
    Ok(out)
}

/// The canonical one-line answer format, shared by the local command,
/// the net client printer and the brute-force path so outputs diff
/// cleanly.
pub fn format_edge_list(label: &str, edges: &[(u64, f64)]) -> String {
    let mut line = format!("{label}:");
    for (id, sim) in edges {
        line.push_str(&format!(" {id}:{sim:.6}"));
    }
    line
}

/// Formats one query answer from the live graph, or — when the query
/// carries `at=<t>` — from the history tier's overlay of the live
/// window and the compacted edge segments.
fn answer_live(
    q: Query,
    graph: &GraphHandle,
    history: Option<&HistoryHandle>,
    horizon: f64,
    watermark: f64,
) -> Result<String, String> {
    if let Some(t) = q.at() {
        let Some(h) = history else {
            return Err(format!(
                "query {:?} carries at= but the spec has no history=<dir> wrapper \
                 (append &history=DIR after durable=, or use --brute-force)",
                q.label()
            ));
        };
        return Ok(match q {
            Query::Neighbors(node, _) => {
                let edges: Vec<(u64, f64)> = h
                    .neighbors_at(Some(graph), node, t, horizon)
                    .iter()
                    .map(|e| (e.neighbor, e.similarity))
                    .collect();
                format_edge_list(&q.label(), &edges)
            }
            Query::TopK(node, k, _) => {
                let edges: Vec<(u64, f64)> = h
                    .topk_at(Some(graph), node, k, t, horizon)
                    .iter()
                    .map(|e| (e.neighbor, e.similarity))
                    .collect();
                format_edge_list(&q.label(), &edges)
            }
            Query::Component(node, _) => {
                let (root, size) = h
                    .component_at(Some(graph), node, t, horizon)
                    .unwrap_or((node, 0));
                format!("{}: root={root} size={size}", q.label())
            }
            Query::Stats => unreachable!("stats rejects at= at parse time"),
        });
    }
    let now = watermark;
    Ok(match q {
        Query::Neighbors(node, _) => {
            let edges: Vec<(u64, f64)> = graph
                .neighbors(node, now)
                .iter()
                .map(|e| (e.neighbor, e.similarity))
                .collect();
            format_edge_list(&q.label(), &edges)
        }
        Query::TopK(node, k, _) => {
            let edges: Vec<(u64, f64)> = graph
                .topk(node, k, now)
                .iter()
                .map(|e| (e.neighbor, e.similarity))
                .collect();
            format_edge_list(&q.label(), &edges)
        }
        Query::Component(node, _) => {
            let (root, size) = graph.component(node, now).unwrap_or((node, 0));
            format!("{}: root={root} size={size}", q.label())
        }
        Query::Stats => {
            let s = graph.stats(now);
            format!(
                "stats: nodes={} edges={} components={}",
                s.nodes, s.edges, s.components
            )
        }
    })
}

/// Formats one query answer by brute force over the delivery log
/// (`(left, right, sim, stamp)` per delivered pair). `at=` queries
/// simply move the evaluation point: the visible window becomes
/// `[at − horizon, at]` instead of ending at the watermark.
fn answer_from_log(q: Query, log: &[(u64, u64, f64, f64)], horizon: f64, watermark: f64) -> String {
    let now = q.at().unwrap_or(watermark);
    let live: Vec<&(u64, u64, f64, f64)> = log
        .iter()
        .filter(|e| e.3 <= now && now - e.3 <= horizon)
        .collect();
    let neighbors = |node: u64| -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = live
            .iter()
            .filter_map(|&&(l, r, sim, _)| {
                if l == node {
                    Some((r, sim))
                } else if r == node {
                    Some((l, sim))
                } else {
                    None
                }
            })
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    };
    match q {
        Query::Neighbors(node, _) => format_edge_list(&q.label(), &neighbors(node)),
        Query::TopK(node, k, _) => {
            let mut all = neighbors(node);
            all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            all.truncate(k);
            format_edge_list(&q.label(), &all)
        }
        Query::Component(node, _) => {
            // Breadth-first over the live edges.
            let mut members = vec![node];
            let mut frontier = vec![node];
            while let Some(x) = frontier.pop() {
                for (id, _) in neighbors(x) {
                    if !members.contains(&id) {
                        members.push(id);
                        frontier.push(id);
                    }
                }
            }
            if members.len() == 1 && neighbors(node).is_empty() {
                format!("{}: root={node} size=0", q.label())
            } else {
                let root = *members.iter().min().expect("non-empty");
                format!("{}: root={root} size={}", q.label(), members.len())
            }
        }
        Query::Stats => {
            let mut nodes: Vec<u64> = live.iter().flat_map(|&&(l, r, _, _)| [l, r]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            // Count components by BFS sweep.
            let mut seen: Vec<u64> = Vec::new();
            let mut components = 0u64;
            for &n in &nodes {
                if seen.contains(&n) {
                    continue;
                }
                components += 1;
                let mut frontier = vec![n];
                while let Some(x) = frontier.pop() {
                    if seen.contains(&x) {
                        continue;
                    }
                    seen.push(x);
                    frontier.extend(neighbors(x).into_iter().map(|(id, _)| id));
                }
            }
            format!(
                "stats: nodes={} edges={} components={components}",
                nodes.len(),
                live.len()
            )
        }
    }
}

/// Ensures the spec carries the `graph` wrapper, inserting it at its
/// one valid position: directly above a durable base (the grammar pins
/// `durable=` to position 0 and `graph` to position 1 when it is
/// present), innermost otherwise — so a user spec like
/// `…&durable=D&reorder=2` gains the wrapper without tripping the
/// position rule. Idempotent.
fn with_graph_wrapper(mut spec: sssj_core::JoinSpec) -> sssj_core::JoinSpec {
    if !spec.wrappers.contains(&WrapperSpec::Graph) {
        let at = usize::from(matches!(
            spec.wrappers.first(),
            Some(WrapperSpec::Durable(_))
        ));
        spec.wrappers.insert(at, WrapperSpec::Graph);
    }
    spec
}

/// `sssj graph FILE [--spec S | --theta --lambda --index --framework]
/// --query 'Q[; Q…]' [--brute-force] [--pairs] [--quiet]`
pub fn graph(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["brute-force", "pairs", "quiet"])?;
    let [input] = p.positional.as_slice() else {
        return Err("graph needs exactly one path".into());
    };
    let spec = with_graph_wrapper(spec_from_args(&p)?);
    spec.validate().map_err(|e| e.to_string())?;
    let queries = parse_queries(p.get("query").unwrap_or("stats"))?;
    let records = load(&PathBuf::from(input))?;

    sssj_net::register_spec_builders();
    let brute_force = p.flag("brute-force");
    let has_history = spec
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::History(_)));
    if !brute_force && !has_history {
        if let Some(q) = queries.iter().find(|q| q.at().is_some()) {
            return Err(format!(
                "query {:?} carries at= but the spec has no history=<dir> wrapper \
                 (append &history=DIR after durable=, or use --brute-force)",
                q.label()
            ));
        }
    }
    let (mut join, graph, history) = if has_history {
        let (join, graph, history) =
            sssj_segments::build_with_handles(&spec).map_err(|e| e.to_string())?;
        let graph = graph.ok_or("history spec built without its graph handle")?;
        (join, graph, Some(history))
    } else {
        let (join, graph) = build_with_handle(&spec).map_err(|e| e.to_string())?;
        (join, graph, None)
    };
    let horizon = spec.horizon();
    // The delivery log exists for the brute-force path only — on a
    // dense stream it is O(total pairs) of extra heap the live graph
    // does not need.
    let mut log: Vec<(u64, u64, f64, f64)> = Vec::new();
    let mut delivered = 0u64;
    let mut out: Vec<SimilarPair> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    // A durable spec pointing at an existing store *resumes* it: skip
    // the prefix the store already ingested (re-feeding it would arrive
    // behind the recovered watermark), mirroring `sssj run`. CI's
    // compaction-crash smoke leans on this — kill -9 mid-run, re-issue
    // the same command, and the answers must match brute force.
    let skip = match join.resume_point() {
        Some((n, t)) => {
            if (records.len() as u64) < n {
                return Err(format!(
                    "{input} holds {} records but the durable store already \
                     ingested {n} — wrong stream?",
                    records.len()
                ));
            }
            if !p.flag("quiet") {
                eprintln!(
                    "resumed durable store: {n} records already ingested, watermark t={t:.3}"
                );
            }
            last_t = t;
            n as usize
        }
        None => 0,
    };
    for record in &records[skip..] {
        out.clear();
        join.process(record, &mut out);
        last_t = last_t.max(record.t.seconds());
        delivered += out.len() as u64;
        for pair in &out {
            if p.flag("pairs") {
                println!("{} {} {:.6}", pair.left, pair.right, pair.similarity);
            }
            if brute_force {
                log.push((pair.left, pair.right, pair.similarity, last_t));
            }
        }
    }
    out.clear();
    join.finish(&mut out);
    delivered += out.len() as u64;
    for pair in &out {
        if p.flag("pairs") {
            println!("{} {} {:.6}", pair.left, pair.right, pair.similarity);
        }
        if brute_force {
            log.push((pair.left, pair.right, pair.similarity, last_t));
        }
    }

    if !p.flag("quiet") {
        eprintln!(
            "sssj: {} records -> {delivered} delivered pairs; answering {} quer{} at watermark t={last_t:.3}{}",
            records.len(),
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" },
            if brute_force {
                " by brute force over the pair log"
            } else {
                ""
            }
        );
    }
    for q in queries {
        let line = if brute_force {
            answer_from_log(q, &log, horizon, last_t)
        } else {
            answer_live(q, &graph, history.as_ref(), horizon, last_t)?
        };
        println!("{line}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_core::JoinSpec;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn mini_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sssj-graph-cmd-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mini.txt");
        std::fs::write(&file, "0.0 7:1.0\n1.0 7:1.0\n2.0 7:1.0\n").unwrap();
        file
    }

    #[test]
    fn graph_wrapper_lands_above_a_durable_base() {
        let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj&reorder=2"
            .parse()
            .unwrap();
        let wrapped = with_graph_wrapper(spec);
        assert!(wrapped.validate().is_ok(), "{wrapped}");
        assert_eq!(
            wrapped.to_string(),
            "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj&graph&reorder=2"
        );
        // Idempotent, and plain specs get it innermost.
        let plain: JoinSpec = "str-l2?theta=0.7&lambda=0.01&graph".parse().unwrap();
        assert_eq!(with_graph_wrapper(plain.clone()), plain);
    }

    #[test]
    fn parse_queries_accepts_the_grammar() {
        let qs = parse_queries("topk 5 3; neighbors 2;stats; component 0").unwrap();
        assert_eq!(qs.len(), 4);
        let qs = parse_queries("neighbors 2 at=12.5; topk 5 3 at=-1; component 0 at=0").unwrap();
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0].at(), Some(12.5));
        assert_eq!(qs[0].label(), "neighbors 2 at=12.5");
        assert_eq!(qs[1].at(), Some(-1.0));
        assert_eq!(qs[2].at(), Some(0.0));
        for bad in [
            "",
            "what 1",
            "neighbors",
            "neighbors x",
            "topk 5",
            "topk 5 0",
            "stats 9",
            "stats at=3",
            "neighbors 2 at=",
            "neighbors 2 at=nan",
            "neighbors 2 at=1 at=2",
            "neighbors 2 at=1 9",
        ] {
            assert!(parse_queries(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn graph_command_answers_queries() {
        let file = mini_file("run");
        graph(&argv(&[
            file.to_str().unwrap(),
            "--spec",
            "str-l2?theta=0.5&tau=10",
            "--query",
            "neighbors 1; topk 1 1; component 2; stats",
            "--quiet",
        ]))
        .unwrap();
        std::fs::remove_dir_all(file.parent().unwrap()).ok();
    }

    #[test]
    fn graph_and_brute_force_agree() {
        // The differential property at CLI level: both paths print the
        // same answers (the test suite in sssj-graph covers every
        // prefix; this covers the command plumbing end to end).
        let file = mini_file("bf");
        let records = load(&file).unwrap();
        let spec: JoinSpec = "str-l2?theta=0.5&tau=10&graph".parse().unwrap();
        sssj_net::register_spec_builders();
        let (mut join, g) = build_with_handle(&spec).unwrap();
        let mut log = Vec::new();
        let mut out = Vec::new();
        let mut last_t = f64::NEG_INFINITY;
        for r in &records {
            out.clear();
            join.process(r, &mut out);
            last_t = last_t.max(r.t.seconds());
            for p in &out {
                log.push((p.left, p.right, p.similarity, last_t));
            }
        }
        for q in parse_queries("neighbors 0; topk 1 2; component 2; stats").unwrap() {
            assert_eq!(
                answer_live(q, &g, None, spec.horizon(), last_t).unwrap(),
                answer_from_log(q, &log, spec.horizon(), last_t),
                "{q:?}"
            );
        }
        std::fs::remove_dir_all(file.parent().unwrap()).ok();
    }

    #[test]
    fn at_query_needs_history_or_brute_force() {
        let file = mini_file("needs-hist");
        let err = graph(&argv(&[
            file.to_str().unwrap(),
            "--spec",
            "str-l2?theta=0.5&tau=10",
            "--query",
            "neighbors 1 at=0.5",
            "--quiet",
        ]))
        .unwrap_err();
        assert!(err.contains("history"), "{err}");
        // The same query goes through with --brute-force.
        graph(&argv(&[
            file.to_str().unwrap(),
            "--spec",
            "str-l2?theta=0.5&tau=10",
            "--query",
            "neighbors 1 at=0.5",
            "--brute-force",
            "--quiet",
        ]))
        .unwrap();
        std::fs::remove_dir_all(file.parent().unwrap()).ok();
    }

    #[test]
    fn graph_command_resumes_a_durable_store() {
        // Two invocations over the same file and store: the second must
        // resume (skip the ingested prefix) instead of re-feeding the
        // WAL records behind its watermark — the shape CI's
        // compaction-crash smoke relies on after a kill -9.
        let dir = std::env::temp_dir().join(format!(
            "sssj-graph-cmd-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("stream.txt");
        let mut body = String::from("0.0 7:1.0\n1.0 7:1.0\n");
        for i in 0..40 {
            body.push_str(&format!("{}.0 {}:1.0\n", 20 + i, 100 + i));
        }
        std::fs::write(&file, body).unwrap();
        let spec = format!(
            "str-l2?theta=0.5&tau=4&durable={}&graph&history={}",
            dir.join("wal").display(),
            dir.join("hist").display()
        );
        let args = argv(&[
            file.to_str().unwrap(),
            "--spec",
            &spec,
            "--query",
            "neighbors 0 at=1.5; stats",
            "--quiet",
        ]);
        graph(&args).unwrap();
        graph(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn history_and_brute_force_agree_on_time_travel() {
        // The at= differential at CLI level: answers from the history
        // overlay match the brute-force recomputation from the delivery
        // log at a time the live graph has already expired.
        let dir = std::env::temp_dir().join(format!(
            "sssj-graph-cmd-travel-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("stream.txt");
        let mut body = String::from("0.0 7:1.0\n1.0 7:1.0\n2.0 7:1.0\n");
        for i in 0..40 {
            body.push_str(&format!("{}.0 {}:1.0\n", 20 + i, 100 + i));
        }
        std::fs::write(&file, body).unwrap();
        let spec: JoinSpec = format!(
            "str-l2?theta=0.5&tau=4&durable={}&graph&history={}",
            dir.join("wal").display(),
            dir.join("hist").display()
        )
        .parse()
        .unwrap();
        let records = load(&file).unwrap();
        sssj_net::register_spec_builders();
        let (mut join, g, h) = sssj_segments::build_with_handles(&spec).unwrap();
        let g = g.expect("graph wrapper present");
        let mut log = Vec::new();
        let mut out = Vec::new();
        let mut last_t = f64::NEG_INFINITY;
        for r in &records {
            out.clear();
            join.process(r, &mut out);
            last_t = last_t.max(r.t.seconds());
            for p in &out {
                log.push((p.left, p.right, p.similarity, last_t));
            }
        }
        let qs = "neighbors 0 at=2.5; topk 1 2 at=2.5; component 2 at=2.5; \
                  neighbors 0 at=-5; neighbors 0; stats";
        for q in parse_queries(qs).unwrap() {
            assert_eq!(
                answer_live(q, &g, Some(&h), spec.horizon(), last_t).unwrap(),
                answer_from_log(q, &log, spec.horizon(), last_t),
                "{q:?}"
            );
        }
        // And the expired-window answer is non-trivial: node 0 still
        // sees neighbors 1 and 2 at t=2.5 even though the live graph
        // dropped them long ago.
        let line = answer_live(
            parse_queries("neighbors 0 at=2.5").unwrap()[0],
            &g,
            Some(&h),
            spec.horizon(),
            last_t,
        )
        .unwrap();
        assert!(line.contains(" 1:"), "{line}");
        assert!(line.contains(" 2:"), "{line}");
        assert_eq!(
            answer_live(
                parse_queries("neighbors 0").unwrap()[0],
                &g,
                None,
                spec.horizon(),
                last_t
            )
            .unwrap(),
            "neighbors 0:"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
