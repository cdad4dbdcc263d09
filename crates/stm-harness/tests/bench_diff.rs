//! End-to-end tests of `repro bench-diff`: the command is run as a real
//! subprocess (`CARGO_BIN_EXE_repro`) against synthesized snapshot files,
//! asserting both the exit codes the CI gate relies on and the report
//! lines naming the offending points.

use std::path::PathBuf;
use std::process::{Command, Output};

use stm_harness::snapshot::{BenchSnapshot, MachineProfile, SnapshotPoint, SCHEMA_VERSION};

fn point(benchmark: &str, stm: &str, threads: u64, throughput: f64) -> SnapshotPoint {
    SnapshotPoint {
        benchmark: benchmark.into(),
        stm: stm.into(),
        threads,
        seed: 0x5715,
        profile: "quick".into(),
        clock: "strict".into(),
        table_layout: "flat".into(),
        grain_shift: 1,
        elapsed_secs: 0.15,
        operations: 10_000,
        commits: 10_000,
        aborts: 120,
        throughput,
        wait_share: 0.03,
        backoff_share: 0.01,
    }
}

fn snapshot(label: &str, points: Vec<SnapshotPoint>) -> BenchSnapshot {
    BenchSnapshot {
        schema_version: SCHEMA_VERSION,
        label: label.into(),
        machine: MachineProfile {
            cores: 4,
            kernel: "test-kernel".into(),
            os: "linux".into(),
            arch: "x86_64".into(),
            debug_assertions: false,
        },
        points,
    }
}

/// Writes a snapshot to a unique temp file and returns its path.
fn write_snapshot(test: &str, name: &str, snap: &BenchSnapshot) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "bench-diff-{test}-{name}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, snap.to_json_string()).expect("temp snapshot must be writable");
    path
}

fn bench_diff(old: &PathBuf, new: &PathBuf, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench-diff")
        .arg(old)
        .arg(new)
        .args(extra)
        .output()
        .expect("repro must launch")
}

#[test]
fn injected_regression_exits_nonzero_naming_the_point() {
    let baseline = snapshot(
        "baseline",
        vec![
            point("red-black tree", "SwissTM", 1, 10_000.0),
            point("red-black tree", "SwissTM", 4, 30_000.0),
            point("stmbench7-read-write", "TL2", 4, 800.0),
        ],
    );
    let mut regressed = baseline.clone();
    regressed.label = "regressed".into();
    // Inject a 30% throughput drop on exactly one point.
    regressed.points[1].throughput = 21_000.0;

    let old = write_snapshot("red", "baseline", &baseline);
    let new = write_snapshot("red", "regressed", &regressed);
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !output.status.success(),
        "a 30% drop must fail the gate:\n{stdout}"
    );
    assert!(
        stdout.contains("FAIL red-black tree × SwissTM × 4 threads"),
        "the failure must name the exact point:\n{stdout}"
    );
    assert!(stdout.contains("throughput regressed"), "{stdout}");
    // The untouched points still pass.
    assert!(
        stdout.contains("ok   red-black tree × SwissTM × 1 threads"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

#[test]
fn within_tolerance_jitter_exits_zero() {
    let baseline = snapshot(
        "baseline",
        vec![
            point("red-black tree", "SwissTM", 2, 10_000.0),
            point("lee-main", "TinySTM", 2, 500.0),
        ],
    );
    let mut jittered = baseline.clone();
    jittered.label = "jittered".into();
    // ±10% noise stays inside the default 0.75 tolerance.
    jittered.points[0].throughput = 9_000.0;
    jittered.points[1].throughput = 550.0;

    let old = write_snapshot("green", "baseline", &baseline);
    let new = write_snapshot("green", "jittered", &jittered);
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

#[test]
fn identical_snapshots_exit_zero() {
    let snap = snapshot(
        "baseline",
        vec![
            point("red-black tree", "SwissTM", 1, 10_000.0),
            point("stmbench7-read-write", "TL2", 2, 800.0),
        ],
    );
    let old = write_snapshot("identical", "a", &snap);
    let new = write_snapshot("identical", "b", &snap);
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("machine profiles match"), "{stdout}");
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

#[test]
fn looser_tolerance_waves_through_a_regression_the_default_catches() {
    let baseline = snapshot("baseline", vec![point("lee-main", "SwissTM", 1, 1000.0)]);
    let mut dropped = baseline.clone();
    dropped.label = "dropped".into();
    dropped.points[0].throughput = 700.0;

    let old = write_snapshot("tolerance", "baseline", &baseline);
    let new = write_snapshot("tolerance", "dropped", &dropped);
    let strict = bench_diff(&old, &new, &[]);
    assert!(
        !strict.status.success(),
        "default 0.75 must catch a 30% drop"
    );
    let loose = bench_diff(&old, &new, &["--throughput-tolerance", "0.50"]);
    let stdout = String::from_utf8_lossy(&loose.stdout);
    assert!(loose.status.success(), "{stdout}");
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

#[test]
fn cross_machine_diff_skips_multithread_gates_but_gates_single_thread() {
    let baseline = snapshot(
        "container",
        vec![
            point("red-black tree", "SwissTM", 1, 10_000.0),
            point("red-black tree", "SwissTM", 8, 50_000.0),
        ],
    );
    let mut other_box = baseline.clone();
    other_box.label = "runner".into();
    other_box.machine.cores = 16;
    // The 8-thread point collapsed — must be skipped, not failed.
    other_box.points[1].throughput = 100.0;

    let old = write_snapshot("xmachine", "baseline", &baseline);
    let new = write_snapshot("xmachine", "other", &other_box);
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("MACHINE PROFILES DIFFER"), "{stdout}");
    assert!(stdout.contains("cores 4 vs 16"), "{stdout}");
    assert!(
        stdout.contains("vacuous under differing machine profiles"),
        "{stdout}"
    );

    // But a regressed single-thread point still turns the gate red.
    other_box.points[0].throughput = 1_000.0;
    std::fs::write(&new, other_box.to_json_string()).unwrap();
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!output.status.success(), "{stdout}");
    assert!(
        stdout.contains("FAIL red-black tree × SwissTM × 1 threads"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

#[test]
fn wait_share_and_abort_regressions_fail_the_gate() {
    let baseline = snapshot("baseline", vec![point("lee-main", "SwissTM", 2, 1000.0)]);
    let mut contended = baseline.clone();
    contended.label = "contended".into();
    contended.points[0].wait_share = 0.40;
    let old = write_snapshot("contention", "baseline", &baseline);
    let new = write_snapshot("contention", "waity", &contended);
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!output.status.success(), "{stdout}");
    assert!(stdout.contains("wait share grew"), "{stdout}");

    let mut aborty = baseline.clone();
    aborty.label = "aborty".into();
    aborty.points[0].aborts = 6_000;
    std::fs::write(&new, aborty.to_json_string()).unwrap();
    let output = bench_diff(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!output.status.success(), "{stdout}");
    assert!(stdout.contains("aborts exceed bound"), "{stdout}");
    let _ = std::fs::remove_file(old);
    let _ = std::fs::remove_file(new);
}

/// The committed baseline CI gates against still reads and matches itself
/// point for point: its points carry a `pin` field and the file has a
/// `bench` array, both of which this binary ignores.
#[test]
fn committed_baseline_gates_fully_against_itself() {
    let baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let output = bench_diff(&baseline, &baseline, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("# 25 passed, 0 failed"), "{stdout}");
    assert!(!stdout.contains("only in"), "{stdout}");
}

#[test]
fn unreadable_and_malformed_snapshots_exit_nonzero_with_errors() {
    let snap = snapshot("ok", vec![point("red-black tree", "SwissTM", 1, 1.0)]);
    let good = write_snapshot("errors", "good", &snap);

    let missing = std::env::temp_dir().join("bench-diff-does-not-exist.json");
    let output = bench_diff(&missing, &good, &[]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read snapshot"));

    let malformed = std::env::temp_dir().join(format!(
        "bench-diff-errors-malformed-{}.json",
        std::process::id()
    ));
    std::fs::write(&malformed, "{\"schema_version\": 1, ").unwrap();
    let output = bench_diff(&good, &malformed, &[]);
    assert!(!output.status.success());

    let wrong_version = std::env::temp_dir().join(format!(
        "bench-diff-errors-version-{}.json",
        std::process::id()
    ));
    let mut future = snap.clone();
    future.schema_version = SCHEMA_VERSION + 1;
    std::fs::write(&wrong_version, future.to_json_string()).unwrap();
    let output = bench_diff(&good, &wrong_version, &[]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unsupported schema_version"));

    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(malformed);
    let _ = std::fs::remove_file(wrong_version);
}
