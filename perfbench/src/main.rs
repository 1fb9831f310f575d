//! Open-loop benchmark of the streaming similarity self-join.
//!
//! ```text
//! perfbench --workload <tweets-serve|dense-str> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! Each workload generates its stream from `--seed`, computes (or loads)
//! the brute-force oracle outside the timed window, and then drives the
//! system under test through its public entry points. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` the per-layer
//! metrics of a traced pass. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Any
//! wrong answer makes `correct` false and the exit code 1.

mod feeder;
mod inproc;
mod oracle;
mod report;
mod serve;
mod tracing;
mod util;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// CPUs the last successful [`set_cpus`] allowed; 0 while unset.
pub static CPUS: AtomicUsize = AtomicUsize::new(0);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to CPUs `first..=last`, and records the count for provenance. Best
/// effort: on failure the affinity stays as it was.
fn set_cpus(first: usize, last: usize) {
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    for cpu in first..=last.min(1023) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised 128-byte buffer, exactly the
    // size passed, and the call only reads it; pid 0 means this thread,
    // whose mask every thread started later inherits.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        CPUS.store(last + 1 - first, Ordering::Relaxed);
    } else {
        eprintln!("perfbench: could not set cpus {first}..={last}; affinity unchanged");
    }
}

/// Pins the measured part to the highest numbered of the host's
/// `nproc` CPUs.
pub fn pin_to_last_cpu(nproc: usize) {
    set_cpus(nproc - 1, nproc - 1);
}

/// Lets the calling thread, and every thread it starts afterwards, run
/// on all of the host's `nproc` CPUs again.
pub fn unpin(nproc: usize) {
    set_cpus(0, nproc - 1);
}

/// CPUs this process may run on: the host's, when counted before any
/// pinning.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workload::names().join(", ")
        );
        return ExitCode::from(2);
    };
    sssj_net::register_spec_builders();
    // The end-to-end run measures with the recorder dark; the traced run
    // arms it explicitly (its untraced comparison pass disarms it).
    sssj_metrics::trace::force_trace_for_bench(args.trace);
    // Scratch state and caches live next to the manifest; `.gitignore`
    // names the directory.
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let run = workload::Run {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: work.join(format!("run-{}", std::process::id())),
        cache_dir: work.join("cache"),
        nproc: nproc(),
    };
    let result = if args.trace {
        workload::traced(w, &run)
    } else {
        workload::end_to_end(w, &run)
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);
    match result {
        Ok(r) => {
            println!("{}", report::provenance(w, &run, args.trace, &r));
            for note in &r.notes {
                eprintln!("perfbench: {note}");
            }
            println!("{}", r.to_json());
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            ExitCode::from(1)
        }
    }
}
