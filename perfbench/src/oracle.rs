//! The exact answer every run is checked against: the brute-force
//! streaming join of `sssj_baseline`, computed outside the timed window
//! and cached per stream in the work directory.

use std::collections::HashMap;
use std::path::Path;

use sssj_types::{SimilarPair, StreamRecord};

use crate::util::Fnv;

/// Absolute similarity tolerance between the engines and the oracle
/// (different summation orders, same arithmetic).
pub const SIM_TOL: f64 = 1e-9;

/// The oracle's pair set, sorted by `(left, right)`.
pub struct Oracle {
    /// Digest of the stream and join parameters the pairs belong to.
    key: u64,
    pairs: Vec<SimilarPair>,
    /// Stream time of every record, indexed by id.
    times: Vec<f64>,
    /// `node → (neighbor, similarity, delivery time)`, built on demand
    /// for graph-query checks.
    adjacency: HashMap<u64, Vec<(u64, f64, f64)>>,
}

/// What a delivered pair set got wrong against the oracle.
#[derive(Debug, Default)]
pub struct Mismatch {
    pub missing: u64,
    pub extra: u64,
    pub wrong_sim: u64,
}

impl Mismatch {
    pub fn total(&self) -> u64 {
        self.missing + self.extra + self.wrong_sim
    }
}

/// Digest of a stream plus join parameters: the cache key.
fn stream_key(records: &[StreamRecord], theta: f64, lambda: f64) -> u64 {
    let mut h = Fnv::new();
    h.u64(theta.to_bits());
    h.u64(lambda.to_bits());
    for r in records {
        h.u64(r.id);
        h.u64(r.t.seconds().to_bits());
        for (d, w) in r.vector.iter() {
            h.u64(d as u64);
            h.u64(w.to_bits());
        }
    }
    h.finish()
}

/// Brute force on two threads: the stream is cut at its middle record,
/// and the second half starts one horizon early so every later record
/// still sees its whole window. Each half keeps only the pairs whose
/// later record it owns, so the union is exactly the one-thread answer.
fn brute_force(records: &[StreamRecord], theta: f64, lambda: f64, tau: f64) -> Vec<SimilarPair> {
    let mid = records.len() / 2;
    if mid == 0 {
        return sssj_baseline::brute_force_stream(records, theta, lambda);
    }
    let t_mid = records[mid].t.seconds();
    let start = records.partition_point(|r| r.t.seconds() < t_mid - tau - 1.0);
    let mid_id = records[mid].id;
    let (mut a, b) = std::thread::scope(|s| {
        let first = s.spawn(|| sssj_baseline::brute_force_stream(&records[..mid], theta, lambda));
        let second = sssj_baseline::brute_force_stream(&records[start..], theta, lambda);
        (first.join().expect("oracle thread panicked"), second)
    });
    a.extend(b.into_iter().filter(|p| p.right >= mid_id));
    a
}

impl Oracle {
    /// Loads the cached oracle for this stream, or computes and caches it.
    pub fn load(
        records: &[StreamRecord],
        theta: f64,
        lambda: f64,
        tau: f64,
        cache_dir: &Path,
    ) -> Oracle {
        let key = stream_key(records, theta, lambda);
        let path = cache_dir.join(format!("oracle-{key:016x}.bin"));
        let mut pairs = std::fs::read(&path)
            .ok()
            .and_then(|b| decode(&b))
            .unwrap_or_else(|| {
                let pairs = brute_force(records, theta, lambda, tau);
                let _ = std::fs::create_dir_all(cache_dir);
                let tmp = path.with_extension("tmp");
                if std::fs::write(&tmp, encode(&pairs)).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
                pairs
            });
        pairs.sort_by_key(|p| p.key());
        Oracle {
            key,
            pairs,
            times: records.iter().map(|r| r.t.seconds()).collect(),
            adjacency: HashMap::new(),
        }
    }

    /// Digest of the stream and join parameters.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Compares `delivered` with the oracle restricted to the first `n`
    /// records: ids exact, similarity within [`SIM_TOL`], no duplicates.
    pub fn check(&self, delivered: &[SimilarPair], n: u64) -> Mismatch {
        let mut got: Vec<SimilarPair> = delivered.to_vec();
        got.sort_by_key(|p| p.key());
        let want = self.pairs.iter().filter(|p| p.right < n);
        let mut m = Mismatch::default();
        let mut g = got.iter().peekable();
        for w in want {
            while let Some(p) = g.peek() {
                if p.key() < w.key() {
                    m.extra += 1;
                    g.next();
                } else {
                    break;
                }
            }
            match g.peek() {
                Some(p) if p.key() == w.key() => {
                    if (p.similarity - w.similarity).abs() > SIM_TOL {
                        m.wrong_sim += 1;
                    }
                    g.next();
                }
                _ => m.missing += 1,
            }
        }
        m.extra += g.count() as u64;
        m
    }

    /// Whether a pass that kept only its pairs' count and digest
    /// delivered the oracle's id set over the first `n` records.
    /// Similarities are not checked: passes that keep their pairs do.
    pub fn check_digest(&self, count: u64, digest: u64, n: u64) -> bool {
        let want = self.pairs.iter().filter(|p| p.right < n);
        let (c, d) = want.fold((0u64, 0u64), |(c, d), p| {
            (c + 1, d.wrapping_add(pair_hash(p)))
        });
        c == count && d == digest
    }

    /// Newest record at least `dt` of stream time older than `id`.
    pub fn before(&self, id: u64, dt: f64) -> Option<u64> {
        let t = self.time(id) - dt;
        let k = self.times[..id as usize].partition_point(|&x| x <= t);
        k.checked_sub(1).map(|k| k as u64)
    }

    /// Indexes the pairs by node for [`Oracle::topk`].
    pub fn build_adjacency(&mut self) {
        for p in &self.pairs {
            let t = self.times[p.right as usize];
            self.adjacency
                .entry(p.left)
                .or_default()
                .push((p.right, p.similarity, t));
            self.adjacency
                .entry(p.right)
                .or_default()
                .push((p.left, p.similarity, t));
        }
    }

    /// The graph's `topk node k at=t` answer once the first `n` records
    /// are in: edges delivered in `[t − horizon, t]`, similarity
    /// descending, neighbour id ascending on ties.
    pub fn topk(&self, node: u64, k: usize, at: f64, horizon: f64, n: u64) -> Vec<(u64, f64)> {
        let mut edges: Vec<(u64, f64)> = self
            .adjacency
            .get(&node)
            .map(|es| {
                es.iter()
                    .filter(|&&(nb, _, t)| nb.max(node) < n && t >= at - horizon && t <= at)
                    .map(|&(nb, s, _)| (nb, s))
                    .collect()
            })
            .unwrap_or_default();
        edges.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        edges.truncate(k);
        edges
    }

    /// Stream time of record `id`.
    pub fn time(&self, id: u64) -> f64 {
        self.times[id as usize]
    }
}

/// Whether a top-k reply for `node` equals the expected answer:
/// similarities position by position within [`SIM_TOL`], and each
/// neighbour is an expected one (ties may order differently).
pub fn topk_matches(node: u64, reply: &[SimilarPair], want: &[(u64, f64)]) -> bool {
    reply.len() == want.len()
        && reply.iter().zip(want).all(|(p, &(_, s))| {
            let nb = if p.left == node { p.right } else { p.left };
            (p.similarity - s).abs() <= SIM_TOL
                && want
                    .iter()
                    .any(|&(w, ws)| w == nb && (ws - p.similarity).abs() <= SIM_TOL)
        })
}

/// One pair's share of a pair-set digest: the wrapping sum of these
/// over a set is independent of delivery order, and a missing, extra or
/// repeated pair changes it.
pub fn pair_hash(p: &SimilarPair) -> u64 {
    let mut h = Fnv::new();
    h.u64(p.left);
    h.u64(p.right);
    h.finish()
}

fn encode(pairs: &[SimilarPair]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 + 24 * pairs.len());
    b.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for p in pairs {
        b.extend_from_slice(&p.left.to_le_bytes());
        b.extend_from_slice(&p.right.to_le_bytes());
        b.extend_from_slice(&p.similarity.to_bits().to_le_bytes());
    }
    b
}

fn decode(b: &[u8]) -> Option<Vec<SimilarPair>> {
    let word = |i: usize| -> Option<u64> {
        Some(u64::from_le_bytes(
            b.get(i * 8..i * 8 + 8)?.try_into().ok()?,
        ))
    };
    let n = usize::try_from(word(0)?).ok()?;
    if b.len() != 8 + 24 * n {
        return None;
    }
    (0..n)
        .map(|i| {
            Some(SimilarPair::new(
                word(1 + 3 * i)?,
                word(2 + 3 * i)?,
                f64::from_bits(word(3 + 3 * i)?),
            ))
        })
        .collect()
}
