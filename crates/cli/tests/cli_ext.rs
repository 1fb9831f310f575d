//! End-to-end tests for the extension subcommands (sweep, compare, lsh)
//! and for the `run --spec` forms of top-k, sharded and generalised-decay
//! joins.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sssj-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sssj-cli-ext-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small dataset once per test.
fn dataset(dir: &Path, n: u32) -> PathBuf {
    let path = dir.join("s.txt");
    let out = bin()
        .args([
            "generate",
            "--preset",
            "rcv1",
            "--n",
            &n.to_string(),
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn sweep_emits_full_grid_csv() {
    let dir = tmpdir("sweep");
    let data = dataset(&dir, 250);
    let out = bin()
        .arg("sweep")
        .arg(&data)
        .args(["--thetas", "0.5,0.9", "--lambdas", "0.01,0.1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1 + 4, "header + 2×2 grid: {stdout}");
    assert!(lines[0].starts_with("algorithm,theta,lambda,tau,pairs"));
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), 10, "{row}");
        assert!(row.starts_with("STR-L2,"), "{row}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_reports_all_algorithms_matching() {
    let dir = tmpdir("compare");
    let data = dataset(&dir, 220);
    let out = bin()
        .arg("compare")
        .arg(&data)
        .args(["--theta", "0.6", "--lambda", "0.05"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("match").count(), 8, "{stdout}"); // 2 frameworks × 4 indexes
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn topk_caps_pairs_per_record() {
    let dir = tmpdir("topk");
    let data = dataset(&dir, 250);
    let full = bin()
        .arg("run")
        .arg(&data)
        .args(["--theta", "0.5", "--lambda", "0.01", "--pairs"])
        .output()
        .unwrap();
    assert!(full.status.success());
    let full_pairs = String::from_utf8_lossy(&full.stdout).lines().count();

    let capped = bin()
        .arg("run")
        .arg(&data)
        .args(["--spec", "topk-l2?theta=0.5&lambda=0.01&k=1", "--pairs"])
        .output()
        .unwrap();
    assert!(
        capped.status.success(),
        "{}",
        String::from_utf8_lossy(&capped.stderr)
    );
    let capped_pairs = String::from_utf8_lossy(&capped.stdout).lines().count();
    assert!(capped_pairs <= full_pairs);
    assert!(capped_pairs <= 250, "at most one pair per record");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lsh_reports_accuracy_metrics() {
    let dir = tmpdir("lsh");
    let data = dataset(&dir, 220);
    let out = bin()
        .arg("lsh")
        .arg(&data)
        .args([
            "--theta", "0.7", "--lambda", "0.05", "--bits", "256", "--bands", "32",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recall"), "{stdout}");
    assert!(
        stdout.contains("precision       : 1.0000"),
        "exact mode: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lsh_rejects_bad_band_shapes() {
    let dir = tmpdir("lshbad");
    let data = dataset(&dir, 50);
    for args in [
        ["--bits", "100", "--bands", "10"],
        ["--bits", "256", "--bands", "3"],
    ] {
        let out = bin().arg("lsh").arg(&data).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must be rejected");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_matches_sequential_pair_count() {
    let dir = tmpdir("shards");
    let data = dataset(&dir, 250);
    let seq = bin()
        .arg("run")
        .arg(&data)
        .args(["--theta", "0.6", "--lambda", "0.05", "--pairs"])
        .output()
        .unwrap();
    assert!(seq.status.success());
    let seq_pairs = String::from_utf8_lossy(&seq.stdout).lines().count();

    let out = bin()
        .arg("run")
        .arg(&data)
        .args([
            "--spec",
            "sharded?theta=0.6&lambda=0.05&shards=3&inner=str-l2",
            "--shard-stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("pairs     : {seq_pairs}\n")),
        "{stderr} vs {seq_pairs}"
    );
    assert!(stderr.contains("routing   : candidate-aware"), "{stderr}");
    let shard_rows = stderr
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("shard"))
        .skip(1)
        .count();
    assert_eq!(shard_rows, 3, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_shard_stats_prints_the_routing_report() {
    let dir = tmpdir("shardstats");
    let data = dataset(&dir, 250);
    let out = bin()
        .arg("run")
        .arg(&data)
        .args([
            "--spec",
            "sharded?theta=0.6&lambda=0.05&shards=3&inner=str-l2",
            "--shard-stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("routing   : candidate-aware"), "{stderr}");
    assert!(stderr.contains("skip rate"), "{stderr}");
    // One header + three per-shard rows.
    assert!(stderr.contains("shard"), "{stderr}");
    for shard in ["0 ", "1 ", "2 "] {
        assert!(
            stderr.lines().any(|l| l.trim_start().starts_with(shard)),
            "missing shard row {shard}: {stderr}"
        );
    }

    // Non-sharded specs are rejected with a pointer at the flag.
    let out = bin()
        .arg("run")
        .arg(&data)
        .args(["--spec", "str-l2?theta=0.6&lambda=0.05", "--shard-stats"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shard-stats requires a sharded spec"),);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decay_accepts_every_model_syntax() {
    let dir = tmpdir("decay");
    let data = dataset(&dir, 150);
    for model in ["exp:0.05", "window:30", "linear:50", "poly:2:10"] {
        let out = bin()
            .arg("run")
            .arg(&data)
            .args(["--spec", &format!("decay?theta=0.7&model={model}")])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("pairs"), "{stderr}");
    }
    // Garbage model strings fail cleanly.
    let out = bin()
        .arg("run")
        .arg(&data)
        .args(["--spec", "decay?theta=0.7&model=gauss:1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decay_exponential_matches_run_output() {
    let dir = tmpdir("decayeq");
    let data = dataset(&dir, 200);
    let run = bin()
        .arg("run")
        .arg(&data)
        .args(["--theta", "0.7", "--lambda", "0.05", "--pairs"])
        .output()
        .unwrap();
    let decay = bin()
        .arg("run")
        .arg(&data)
        .args(["--spec", "decay?theta=0.7&model=exp:0.05", "--pairs"])
        .output()
        .unwrap();
    assert!(run.status.success() && decay.status.success());
    let mut a: Vec<String> = String::from_utf8_lossy(&run.stdout)
        .lines()
        .map(String::from)
        .collect();
    let mut b: Vec<String> = String::from_utf8_lossy(&decay.stdout)
        .lines()
        .map(String::from)
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_subcommands_and_flags_fail_cleanly() {
    let cases: [&[&str]; 4] = [
        &[
            "net-serve",
            "--listen",
            "127.0.0.1:0",
            "--engine",
            "threaded",
        ],
        &["topk"],
        &["shards"],
        &["decay"],
    ];
    for args in cases {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("sssj: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
