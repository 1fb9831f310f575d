//! The open-loop feeder shared by every workload: it sends each record
//! at its scheduled instant whether or not the system kept up, and times
//! records and pairs from that instant.

use std::time::{Duration, Instant};

use sssj_types::{SimilarPair, StreamRecord};

use crate::util::{schedule, us, wait_until};

/// What one pass over a stream prefix measured.
#[derive(Default)]
pub struct Pass {
    /// Set-up time of the system under test for this pass, seconds.
    pub setup_s: f64,
    /// Scheduled arrival → `process`/`send_record` return, per record.
    pub ingest_us: Vec<f64>,
    /// Later record's scheduled arrival → pair in the caller's hands.
    pub pair_us: Vec<f64>,
    /// Pair latency minus its later record's ingest latency.
    pub pair_delay_us: Vec<f64>,
    /// How late the feeder sent each record: from the later of its due
    /// instant and the previous call's return, to the send.
    pub gen_lag_us: Vec<f64>,
    /// Records due before the schedule ended but not done by then.
    pub backlog_end: u64,
    /// Timed records per second of wall time (first send → last pair).
    pub rate: f64,
    /// Pairs delivered, warm-up and `finish` included, and their
    /// order-independent id digest (see [`crate::oracle::pair_hash`]).
    pub pair_count: u64,
    pub digest: u64,
    /// Every pair delivered, when the feed keeps them.
    pub pairs: Vec<SimilarPair>,
    /// Records fed (the prefix length the oracle is cut at).
    pub records: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// `[send, return]` of every timed call (traced runs only).
    pub busy: Vec<(Instant, Instant)>,
}

/// How to feed one pass.
pub struct Feed<'a> {
    /// The stream prefix to feed.
    pub records: &'a [StreamRecord],
    /// Leading records fed closed loop and not timed (index warm-up).
    pub warm: usize,
    /// Mean offered rate of the timed records; `None` feeds closed loop.
    pub rate: Option<f64>,
    /// Keep per-call busy intervals for attribution.
    pub keep_busy: bool,
    /// Keep every pair for the oracle check; otherwise only their count
    /// and digest, so the pass holds no memory that grows with its output.
    pub keep_pairs: bool,
}

/// Lead time between the end of warm-up and the first scheduled arrival.
const LEAD: Duration = Duration::from_millis(2);

/// How close to a record's due instant the feeder stops sleeping and
/// yields instead: about the kernel's timer slack, so records are sent
/// on time without the feeder holding a core between arrivals.
const SPIN: Duration = Duration::from_micros(60);

/// The system under test as the feeder sees it.
pub trait Target {
    /// Ingests one record, appending the pairs it surfaced.
    fn process(&mut self, r: &StreamRecord, out: &mut Vec<SimilarPair>) -> Result<(), String>;
    /// Ends the stream, appending the pairs still buffered.
    fn finish(&mut self, out: &mut Vec<SimilarPair>) -> Result<(), String>;
    /// Called after every record (recorder drains, progress counters).
    fn after(&mut self, _i: usize) {}
    /// Called about every 10 ms while the feeder waits for the system to
    /// settle (recorder drains).
    fn tick(&mut self) {}
    /// Called once warm-up is done, with every timed record's scheduled
    /// instant (empty when feeding closed loop).
    fn begin(&mut self, _schedule: &[Instant]) {}
}

/// Feeds `feed.records` through `target` and measures the timed part.
pub fn drive(feed: &Feed, target: &mut dyn Target) -> Pass {
    let n = feed.records.len();
    let warm = feed.warm.min(n);
    let mut pass = Pass {
        records: n as u64,
        ..Pass::default()
    };
    let mut out = Vec::new();
    let tally = |pass: &mut Pass, out: &mut Vec<SimilarPair>| {
        pass.pair_count += out.len() as u64;
        for p in out.iter() {
            pass.digest = pass.digest.wrapping_add(crate::oracle::pair_hash(p));
        }
        if feed.keep_pairs {
            pass.pairs.append(out);
        } else {
            out.clear();
        }
    };
    for (i, r) in feed.records[..warm].iter().enumerate() {
        if target.process(r, &mut out).is_err() {
            pass.errors += 1;
        }
        target.after(i);
        tally(&mut pass, &mut out);
    }
    if warm > 0 {
        crate::util::settle(&mut || target.tick());
    }

    let timed = n - warm;
    let sched: Vec<Instant> = match feed.rate {
        Some(rate) => {
            let ts: Vec<f64> = feed.records[warm..].iter().map(|r| r.t.seconds()).collect();
            let start = Instant::now() + LEAD;
            schedule(&ts, rate).into_iter().map(|d| start + d).collect()
        }
        None => Vec::new(),
    };
    target.begin(&sched);
    // Per-record figures only for an open-loop pass.
    let mut ingest = vec![f64::NAN; sched.len()];
    let mut done = Vec::with_capacity(sched.len());
    let mut first_sent = None;
    let mut prev_return: Option<Instant> = None;
    let credit = |pairs: &mut Vec<SimilarPair>, at: Instant, pass: &mut Pass, ingest: &[f64]| {
        if !sched.is_empty() {
            for p in pairs.iter().filter(|p| p.right as usize >= warm) {
                let k = p.right as usize - warm;
                let lat = us(sched[k], at);
                pass.pair_us.push(lat);
                pass.pair_delay_us.push((lat - ingest[k]).max(0.0));
            }
        }
        tally(pass, pairs);
    };
    for (k, r) in feed.records[warm..].iter().enumerate() {
        if let Some(&due) = sched.get(k) {
            wait_until(due, SPIN);
        }
        let sent = Instant::now();
        first_sent.get_or_insert(sent);
        let ok = target.process(r, &mut out).is_ok();
        let returned = Instant::now();
        if !ok {
            pass.errors += 1;
        }
        if let Some(&due) = sched.get(k) {
            ingest[k] = us(due, returned);
            pass.gen_lag_us
                .push(us(prev_return.map_or(due, |p| p.max(due)), sent));
        }
        if feed.keep_busy {
            pass.busy.push((sent, returned));
        }
        if !sched.is_empty() {
            done.push(returned);
        }
        prev_return = Some(returned);
        credit(&mut out, returned, &mut pass, &ingest);
        target.after(warm + k);
    }
    if target.finish(&mut out).is_err() {
        pass.errors += 1;
    }
    let end = Instant::now();
    credit(&mut out, end, &mut pass, &ingest);

    pass.ingest_us = ingest.into_iter().filter(|v| !v.is_nan()).collect();
    let wall = end.duration_since(first_sent.unwrap_or(end));
    pass.rate = timed as f64 / wall.max(Duration::from_nanos(1)).as_secs_f64();
    if let Some(&last) = sched.last() {
        pass.backlog_end = sched
            .iter()
            .zip(&done)
            .filter(|&(&due, &d)| due < last && d > last)
            .count() as u64;
    }
    pass
}
