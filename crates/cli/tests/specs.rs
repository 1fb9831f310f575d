//! The spec surface, end to end: every advertised spec string must
//! build through the one factory, and the name of the join it builds
//! must match what the spec says.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sssj-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sssj-cli-specs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What each advertised spec must build, asserted by `name()` fragments
/// keyed on the spec string.
fn expected_name_fragment(spec: &str) -> &'static str {
    if spec.contains("&graph") {
        return "graph(";
    }
    if spec.contains("&reorder=") {
        return "Reorder(";
    }
    if spec.contains("&checked") {
        return "checked(";
    }
    if spec.starts_with("decay?") {
        return "STR-L2[";
    }
    if spec.starts_with("topk-") {
        return "-top";
    }
    if spec.starts_with("lsh?") {
        return "LSH-";
    }
    if spec.starts_with("sharded") {
        return "x2"; // …x2 for shards=2, any inner engine
    }
    if spec.starts_with("mb-") {
        return "MB-";
    }
    "STR-"
}

#[test]
fn every_advertised_spec_builds_and_names_match() {
    let out = bin().arg("specs").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 16, "expected every variant listed: {stdout}");

    // Every engine keyword, every sharded inner and every wrapper is
    // represented.
    for keyword in ["str-", "mb-", "decay?", "topk-", "lsh?", "sharded?"] {
        assert!(
            lines.iter().any(|l| l.starts_with(keyword)),
            "missing {keyword} in {stdout}"
        );
    }
    for inner in ["inner=str-", "inner=mb-", "inner=decay", "inner=lsh"] {
        assert!(
            lines.iter().any(|l| l.contains(inner)),
            "missing {inner} in {stdout}"
        );
    }
    for wrapper in ["&reorder=", "&checked", "&graph"] {
        assert!(
            lines.iter().any(|l| l.contains(wrapper)),
            "missing {wrapper} in {stdout}"
        );
    }

    for line in &lines {
        let (spec, name) = line.split_once('\t').expect("spec<TAB>name lines");
        assert!(!name.is_empty(), "{line}");
        assert!(
            name.contains(expected_name_fragment(spec)),
            "spec {spec} built {name}, expected a {} join",
            expected_name_fragment(spec)
        );
    }
}

#[test]
fn run_reaches_every_variant_through_spec_strings() {
    let dir = tmpdir("run");
    let data = dir.join("s.txt");
    assert!(bin()
        .args(["generate", "--preset", "tweets", "--n", "120", "--out"])
        .arg(&data)
        .status()
        .unwrap()
        .success());

    // One spec per engine family, including wrappers — all through the
    // same `run --spec` entry point. The checked wrapper shadows the run
    // with the exact oracle, so a success is a correctness statement too.
    for spec in [
        "str-l2?theta=0.6&lambda=0.05",
        "mb-inv?theta=0.6&lambda=0.05",
        "decay?theta=0.6&model=window:30",
        "decay?theta=0.6&model=window:30&bounds=l2",
        "topk-l2?theta=0.6&lambda=0.05&k=2",
        "lsh?theta=0.6&lambda=0.05",
        "sharded?theta=0.6&lambda=0.05&shards=2&inner=str-l2",
        "sharded?theta=0.6&lambda=0.05&shards=2&inner=mb-l2",
        "sharded?theta=0.6&shards=2&inner=decay&model=window:30",
        "sharded?theta=0.6&lambda=0.05&shards=2&inner=lsh",
        "str-l2?theta=0.6&lambda=0.05&checked&reorder=5",
        "str-l2?theta=0.6&lambda=0.05&graph",
        "sharded?theta=0.6&lambda=0.05&shards=2&inner=mb-l2&graph",
    ] {
        let out = bin()
            .arg("run")
            .arg(&data)
            .args(["--spec", spec])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("spec      : {spec}")), "{stderr}");
    }

    // The exact engines must agree on the pair count via spec strings.
    let mut counts = Vec::new();
    for spec in [
        "str-l2?theta=0.6&lambda=0.05",
        "mb-l2ap?theta=0.6&lambda=0.05",
        "sharded-inv?theta=0.6&lambda=0.05&shards=3",
    ] {
        let out = bin()
            .arg("run")
            .arg(&data)
            .args(["--spec", spec, "--pairs"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{spec}");
        counts.push(String::from_utf8_lossy(&out.stdout).lines().count());
    }
    assert_eq!(counts[0], counts[1], "MB must agree with STR");
    assert_eq!(counts[0], counts[2], "sharded must agree with STR");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_conflicts_and_garbage_are_rejected() {
    let dir = tmpdir("bad");
    let data = dir.join("s.txt");
    std::fs::write(&data, "0.0 1:1.0\n").unwrap();
    for args in [
        vec!["--spec", "str-l2", "--theta", "0.5"], // mutually exclusive
        vec!["--spec", "quantum-join"],
        vec!["--spec", "topk-l2?k=0"],
        vec!["--spec", "lsh?checked"],
    ] {
        let out = bin().arg("run").arg(&data).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must be rejected");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
