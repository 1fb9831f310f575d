//! Small shared helpers: percentiles, digests, clocks, process memory and
//! directory sizes.

use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `v` (`q` in `[0, 1]`); 0 for an empty set.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The `q` percentile of each run of consecutive samples (a short tail
/// joins the run before it; a set too small to split is one run). A run
/// holds at least 250 samples and enough that ten lie beyond the
/// percentile: 250 for a median, 1000 for a p99. Interference from the
/// shared host comes in bursts of a few seconds, so it shows in some
/// runs and leaves the others alone.
pub fn seg_pct(v: &[f64], q: f64) -> Vec<f64> {
    if v.is_empty() {
        return Vec::new();
    }
    let len = ((10.0 / (1.0 - q)).ceil() as usize).max(250);
    let n = (v.len() / len).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n { v.len() } else { (i + 1) * len };
            pct(&v[i * len..end], q)
        })
        .collect()
}

/// Lower quartile of a set of segment figures: interference from the
/// shared host only ever adds time, so the quieter quarter of the
/// segments shows the system itself, while a change that slows most
/// records still moves it.
pub fn lower_quartile(v: &[f64]) -> f64 {
    pct(v, 0.25)
}

/// Median of a set of per-pass figures.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Largest value; 0 for an empty set.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// 64-bit FNV-1a, the digest behind cache keys and pair-set digests.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Microseconds from `from` to `to` (0 when `to` precedes `from`).
pub fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Waits until `deadline`: sleeps while more than `spin` out, then
/// yields the core until due (yielding rather than spinning, so a
/// server thread sharing the core can run).
pub fn wait_until(deadline: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Wall-clock arrival offsets of `ts` (stream seconds, non-decreasing)
/// rescaled to a mean of `rate` per second; the relative gaps — the
/// stream's burstiness — are kept.
pub fn schedule(ts: &[f64], rate: f64) -> Vec<Duration> {
    let n = ts.len();
    let span = if n > 1 { ts[n - 1] - ts[0] } else { 0.0 };
    if n < 2 || span <= 0.0 {
        return (0..n)
            .map(|i| Duration::from_secs_f64(i as f64 / rate))
            .collect();
    }
    let scale = (n - 1) as f64 / rate / span;
    ts.iter()
        .map(|t| Duration::from_secs_f64((t - ts[0]) * scale))
        .collect()
}

/// CPU time all of this process's threads have run, nanoseconds (0
/// where `/proc` is unavailable).
fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Waits (up to 3 s) until the process's other threads have gone idle —
/// used between warm-up and the timed part, so work queued behind a
/// closed-loop warm-up (shard inboxes, compaction) is not charged to
/// the first timed records. `tick` runs on every poll.
pub fn settle(tick: &mut dyn FnMut()) {
    const TICK: Duration = Duration::from_millis(10);
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut before = process_cpu_ns();
    while Instant::now() < deadline {
        std::thread::sleep(TICK);
        tick();
        let now = process_cpu_ns();
        if now - before < TICK.as_nanos() as u64 / 10 {
            return;
        }
        before = now;
    }
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_kb(field: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// Current resident set, bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0)
}

/// Peak resident set since start or the last [`reset_peak_rss`], bytes.
pub fn peak_rss_bytes() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux
/// `clear_refs` code 5); a no-op where unsupported.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Total bytes of the regular files under `dir` (0 when absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => dir_bytes(&e.path()),
            Ok(ft) if ft.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Regular files under `dir` whose name ends with `suffix`.
pub fn count_files(dir: &Path, suffix: &str) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => count_files(&e.path(), suffix),
            Ok(ft) if ft.is_file() && e.file_name().to_string_lossy().ends_with(suffix) => 1,
            _ => 0,
        })
        .sum()
}
