//! In-process workloads: a spec-built join driven directly through
//! `JoinSpec::build` and `StreamJoin::process`.

use std::time::Instant;

use sssj_core::{JoinSpec, StreamJoin};
use sssj_metrics::JoinStats;
use sssj_types::{SimilarPair, StreamRecord};

use crate::feeder::{drive, Feed, Pass, Target};
use crate::tracing::{Tracer, DRAIN_EVERY};

struct Join<'t> {
    join: Box<dyn StreamJoin>,
    tracer: Option<&'t mut Tracer>,
}

impl Target for Join<'_> {
    fn process(&mut self, r: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        self.join.process(r, out);
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String> {
        self.join.finish(out);
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
}

/// Builds the join from `spec` (timed as set-up), feeds it, and returns
/// the pass with the join's final work counters.
pub fn pass(
    spec: &JoinSpec,
    records: &[StreamRecord],
    warm: usize,
    rate: Option<f64>,
    keep_pairs: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Pass, JoinStats), String> {
    if let Some(t) = tracer.as_deref_mut() {
        t.reset();
    }
    let t0 = Instant::now();
    let join = spec.build().map_err(|e| format!("spec build: {e:?}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let feed = Feed {
        records,
        warm,
        rate,
        keep_busy: tracer.is_some(),
        keep_pairs,
    };
    let mut target = Join { join, tracer };
    let mut p = drive(&feed, &mut target);
    p.setup_s = setup_s;
    let stats = target.join.stats();
    drop(target.join); // joins shard workers before the final drain
    if let Some(t) = target.tracer {
        t.drain();
    }
    Ok((p, stats))
}

/// Time to build the join and tear it down again, seconds.
pub fn setup_only(spec: &JoinSpec) -> Result<f64, String> {
    let t0 = Instant::now();
    let join = spec.build().map_err(|e| format!("spec build: {e:?}"))?;
    let setup = t0.elapsed().as_secs_f64();
    drop(join);
    Ok(setup)
}
