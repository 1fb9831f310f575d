//! Micro-benchmarks of the hot primitives: sparse dot products, the
//! score accumulator, windowed maxima, SimHash signatures and the
//! latency histogram.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sssj_collections::{ScoreAccumulator, WindowedMaxVec};
use sssj_data::{generate, preset, Preset};
use sssj_kernels::{L2BatchParams, Lane};
use sssj_lsh::SimHasher;
use sssj_metrics::LogLinearHistogram;
use sssj_types::dot;
use std::hint::black_box;

/// The two lanes every kernel row is measured under: the scalar
/// reference and whatever runtime dispatch picks (AVX2 here). Benches
/// run serially, so flipping the process-global override between rows
/// is safe; it is always restored to auto.
const LANES: [(&str, Option<Lane>); 2] = [("scalar", Some(Lane::Scalar)), ("auto", None)];

/// A sorted sparse vector with `n` coordinates over `vocab` dims.
fn sparse(n: usize, vocab: u32, seed: u64) -> (Vec<u32>, Vec<f64>) {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut dims: Vec<u32> = (0..n * 2).map(|_| rng.random_range(0..vocab)).collect();
    dims.sort_unstable();
    dims.dedup();
    dims.truncate(n);
    let weights = dims.iter().map(|_| rng.random_range(0.01..1.0)).collect();
    (dims, weights)
}

/// Packed posting words (id, weight, prefix_norm, t) for batch kernels.
fn postings(n: usize, seed: u64) -> Vec<u64> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut raw = Vec::with_capacity(n * 4);
    for i in 0..n {
        raw.push(i as u64);
        raw.push(rng.random_range(0.01..1.0f64).to_bits());
        raw.push(rng.random_range(0.0..1.0f64).to_bits());
        raw.push((i as f64 * 0.01).to_bits());
    }
    raw
}

/// Per-kernel scalar-vs-dispatched A/B rows. Each row appends to
/// `$CRITERION_JSON` like every other bench, so the `BENCH_pr6.json`
/// ratio rows come straight from here.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");

    let (ad, aw) = sparse(64, 4_000, 1);
    let (bd, bw) = sparse(64, 4_000, 2);
    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("dot_merge_64x64", label), |b| {
            sssj_kernels::force_lane(lane);
            b.iter(|| black_box(sssj_kernels::dot_merge(&ad, &aw, &bd, &bw)));
            sssj_kernels::force_lane(None);
        });
    }

    // Ratio 64 sits just inside the vectorized-gallop regime (beyond
    // 64× the probe falls back to binary search on every lane).
    let (sd, sw) = sparse(16, 40_000, 3);
    let (ld, lw) = sparse(1_024, 40_000, 4);
    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("dot_probe_16x1024", label), |b| {
            sssj_kernels::force_lane(lane);
            b.iter(|| black_box(sssj_kernels::dot_probe(&sd, &sw, &ld, &lw)));
            sssj_kernels::force_lane(None);
        });
    }

    let dense: Vec<f64> = (0..4_000).map(|i| (i % 97) as f64 / 97.0).collect();
    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("dot_dense_64", label), |b| {
            sssj_kernels::force_lane(lane);
            b.iter(|| black_box(sssj_kernels::dot_dense(&ad, &aw, &dense)));
            sssj_kernels::force_lane(None);
        });
    }

    let raw = postings(4_096, 5);
    let factors: Vec<f64> = (0..=1024).map(|i| (-0.001 * i as f64).exp()).collect();
    let params = L2BatchParams {
        xj: 0.4,
        now: 64.0,
        xnorm_before: 0.7,
        rs2: 0.9,
        theta_slack: 0.5,
        inv_step: 1024.0 / 64.0,
    };
    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("l2_candidate_batch_4096", label), |b| {
            sssj_kernels::force_lane(lane);
            let mut ids = [0u64; 64];
            let mut deltas = [0.0f64; 64];
            let mut prune = [0.0f64; 64];
            let mut admit = [0u8; 64];
            b.iter(|| {
                let mut acc = 0u32;
                for chunk in raw.chunks(64 * 4) {
                    let n = chunk.len() / 4;
                    sssj_kernels::l2_candidate_batch(
                        chunk,
                        &params,
                        &factors,
                        &mut ids[..n],
                        &mut deltas[..n],
                        &mut prune[..n],
                        &mut admit[..n],
                    );
                    acc += admit[..n].iter().map(|&a| a as u32).sum::<u32>();
                }
                black_box(acc)
            });
            sssj_kernels::force_lane(None);
        });
    }

    let dts: Vec<f64> = (0..4_096).map(|i| i as f64 * 0.015).collect();
    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("decay_upper_batch_4096", label), |b| {
            sssj_kernels::force_lane(lane);
            let mut out = vec![0.0f64; dts.len()];
            b.iter(|| {
                sssj_kernels::decay_upper_batch(&dts, params.inv_step, &factors, &mut out);
                black_box(out[out.len() - 1])
            });
            sssj_kernels::force_lane(None);
        });
    }

    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("partition_time_4096", label), |b| {
            sssj_kernels::force_lane(lane);
            b.iter(|| black_box(sssj_kernels::partition_time_strided(&raw, 4, 3, 20.0)));
            sssj_kernels::force_lane(None);
        });
    }

    for (label, lane) in LANES {
        g.bench_function(BenchmarkId::new("select_ge_4096", label), |b| {
            sssj_kernels::force_lane(lane);
            let mut idx = vec![0u32; raw.len() / 4];
            b.iter(|| black_box(sssj_kernels::select_ge_strided(&raw, 4, 1, 0.5, &mut idx)));
            sssj_kernels::force_lane(None);
        });
    }

    g.finish();
}

fn bench(c: &mut Criterion) {
    let records = generate(&preset(Preset::Rcv1, 200));
    let mut g = c.benchmark_group("micro_primitives");

    g.bench_function("dot_sparse_pairs", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for w in records.windows(2) {
                acc += dot(&w[0].vector, &w[1].vector);
            }
            black_box(acc)
        })
    });

    for n in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::new("accumulator_add_clear", n), &n, |b, &n| {
            b.iter(|| {
                let mut acc = ScoreAccumulator::new();
                for i in 0..n {
                    acc.add(i % 257, 0.5);
                }
                let len = acc.len();
                acc.clear();
                black_box(len)
            })
        });
    }

    g.bench_function("windowed_max_update_query", |b| {
        b.iter(|| {
            let mut m = WindowedMaxVec::new(10.0);
            let mut acc = 0.0;
            for i in 0..10_000u32 {
                let t = i as f64 * 0.01;
                m.update(i % 16, t, ((i * 2654435761) % 1000) as f64 / 1000.0);
                acc += m.max(i % 16, t);
            }
            black_box(acc)
        })
    });

    for bits in [128u32, 256] {
        let hasher = SimHasher::new(bits, 7);
        g.bench_with_input(BenchmarkId::new("simhash_sign", bits), &hasher, |b, h| {
            b.iter(|| {
                let mut ones = 0u32;
                for r in records.iter().take(50) {
                    ones += h
                        .sign(&r.vector)
                        .words()
                        .iter()
                        .map(|w| w.count_ones())
                        .sum::<u32>();
                }
                black_box(ones)
            })
        });
    }

    g.bench_function("varint_roundtrip_10k", |b| {
        use sssj_collections::varint;
        b.iter(|| {
            let mut buf = Vec::with_capacity(20_000);
            for i in 0..10_000u64 {
                varint::write_u64(i * 37, &mut buf);
            }
            let mut pos = 0usize;
            let mut acc = 0u64;
            while pos < buf.len() {
                let (v, n) = varint::read_u64(&buf[pos..]).unwrap();
                acc = acc.wrapping_add(v);
                pos += n;
            }
            black_box(acc)
        })
    });

    g.bench_function("decay_backward_10k", |b| {
        use sssj_types::Decay;
        let d = Decay::new(0.01);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..10_000u32 {
                acc += d.apply(0.9, i as f64 * 0.01);
            }
            black_box(acc)
        })
    });

    g.bench_function("decay_forward_10k", |b| {
        use sssj_types::{ForwardDecay, Timestamp};
        let d = ForwardDecay::new(0.01);
        b.iter(|| {
            let mut acc = 0.0;
            let now = Timestamp::new(100.0);
            for i in 0..10_000u32 {
                acc += d.apply(0.9, Timestamp::new(100.0 - i as f64 * 0.01), now);
            }
            black_box(acc)
        })
    });

    g.bench_function("latency_histogram_record", |b| {
        b.iter(|| {
            let mut h = LogLinearHistogram::new();
            for i in 1..10_000u32 {
                h.record(i as f64 * 1e-7);
            }
            black_box(h.quantile(0.99))
        })
    });

    g.finish();
}

criterion_group!(benches, bench, bench_kernels);
criterion_main!(benches);
