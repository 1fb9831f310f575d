//! The result line and the provenance line printed before it.

use crate::workload::{Run, Workload};

/// One run's verdict and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why operations failed, for standard error.
    pub notes: Vec<String>,
    /// `(passes, CPUs they could run on)`, for provenance.
    pub cpus: Vec<(&'static str, usize)>,
}

impl Report {
    /// Counts `n` operations, `bad` of which failed (noting why).
    pub fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.notes.push(what());
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, v, unit)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything needed to tell where and how a result was taken. Commit,
/// source digest and compiler come from the launcher's environment.
pub fn provenance(w: &Workload, run: &Run, traced: bool, r: &Report) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let fields = [
        ("workload", json_str(w.name)),
        ("seed", run.seed.to_string()),
        ("seconds", format!("{:?}", run.seconds)),
        ("commit", json_str(&env("PERFBENCH_COMMIT"))),
        ("source_digest", json_str(&env("PERFBENCH_SOURCE"))),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
        ("profile", json_str("release, lto=thin")),
        ("nproc", run.nproc.to_string()),
        ("cpu", json_str(&cpu_model())),
        (
            "kernel_lane",
            json_str(&format!("{:?}", sssj_kernels::active_lane())),
        ),
        ("traced_run", traced.to_string()),
        ("sssj_trace_env", json_str(&env("SSSJ_TRACE"))),
        ("sssj_telemetry_env", json_str(&env("SSSJ_TELEMETRY"))),
        (
            "telemetry_enabled",
            sssj_metrics::telemetry_enabled().to_string(),
        ),
        ("spec", json_str(w.spec)),
        ("offered_rate_per_s", format!("{:?}", w.rate)),
        ("load_threads", w.load_threads.to_string()),
        ("system_threads", json_str(w.system_threads)),
    ];
    let mut body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    for (passes, n) in &r.cpus {
        body.push(format!("\"cpus_{passes}\": {n}"));
    }
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}
