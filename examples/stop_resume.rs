//! Stop/resume: run a durable join (`durable=<dir>`: WAL + checkpoints),
//! kill it halfway, rebuild the same spec to resume from its store, and
//! keep joining with no pair lost.
//!
//! ```sh
//! cargo run --release --example stop_resume
//! ```

use std::collections::BTreeSet;

use sssj::data::{generate, preset, Preset};
use sssj::prelude::*;

fn main() {
    register_all_engines();
    let mut config = preset(Preset::Rcv1, 3_000);
    config = config.with_seed(19);
    let stream = generate(&config);
    let cut = stream.len() / 2;

    let dir = std::env::temp_dir().join(format!("sssj-stop-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = "str-l2?theta=0.6&lambda=0.01";
    let spec: JoinSpec = format!("{base}&durable={}", dir.display())
        .parse()
        .expect("valid spec");

    let keys =
        |pairs: &[SimilarPair]| -> BTreeSet<(u64, u64)> { pairs.iter().map(|p| p.key()).collect() };

    // Uninterrupted reference run on the ephemeral spec.
    let mut reference = base.parse::<JoinSpec>().unwrap().build().unwrap();
    let expected = keys(&run_stream(reference.as_mut(), &stream));

    // First incarnation: process half the stream, then "crash" (drop the
    // join without finishing or flushing anything).
    let mut join = spec.build().expect("durable store opens");
    let mut before = Vec::new();
    for r in &stream[..cut] {
        join.process(r, &mut before);
    }
    drop(join);

    // Second incarnation: the same spec resumes from the store's WAL and
    // checkpoints; feed the stream from the reported resume point.
    let mut join = spec.build().expect("durable store resumes");
    let (ingested, watermark) = join.resume_point().expect("store holds a manifest");
    println!("resumed after {ingested} records (watermark t={watermark})");
    let mut after = Vec::new();
    for r in &stream[ingested as usize..] {
        join.process(r, &mut after);
    }
    join.finish(&mut after);
    drop(join);
    let _ = std::fs::remove_dir_all(&dir);

    let union: BTreeSet<_> = keys(&before).union(&keys(&after)).copied().collect();
    assert_eq!(
        union, expected,
        "stop/resume must report exactly the uninterrupted run's pairs"
    );
    println!(
        "{} pairs before the crash, {} after resuming (pairs past the last \
         checkpoint are re-delivered); union equals the uninterrupted run's \
         {} pairs",
        before.len(),
        after.len(),
        expected.len()
    );
}
