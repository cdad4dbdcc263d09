//! The armed snapshot recorder captures real measured points from
//! `run_point`, and `repro --snapshot` emits a schema-valid document.
//!
//! This lives in its own integration-test binary: the recorder is
//! process-global, so sharing a binary with unrelated tests that also call
//! `run_point` would race on the armed state.

use std::process::Command;
use std::time::Duration;

use stm_core::config::{ClockMode, TableLayout};
use stm_harness::runner::{run_point, Benchmark, CmChoice, RunOptions, StmVariant};
use stm_harness::snapshot::{arm_recorder, take_recorded, BenchSnapshot};
use stm_workloads::rbtree::RbTreeConfig;

fn tiny_options() -> RunOptions {
    RunOptions {
        max_threads: 2,
        point_duration: Duration::from_millis(20),
        heap_words: 1 << 20,
        lock_table_log2: 12,
        clock: ClockMode::Deferred,
        table_layout: TableLayout::Padded,
        seed: 0xC0FFEE,
        ..RunOptions::quick()
    }
}

#[test]
fn armed_recorder_captures_self_describing_points_from_run_point() {
    let options = tiny_options();
    let benchmark = Benchmark::RbTree(RbTreeConfig::small());

    // Unarmed: nothing is captured.
    run_point(
        StmVariant::Swiss(CmChoice::Default),
        &benchmark,
        1,
        &options,
    );
    assert!(take_recorded().is_empty());

    arm_recorder();
    run_point(
        StmVariant::Swiss(CmChoice::Default),
        &benchmark,
        1,
        &options,
    );
    run_point(StmVariant::Tl2(CmChoice::Default), &benchmark, 2, &options);
    let points = take_recorded();
    assert_eq!(points.len(), 2);

    let swiss = &points[0];
    assert_eq!(swiss.benchmark, "red-black tree");
    assert_eq!(swiss.stm, "SwissTM");
    assert_eq!(swiss.threads, 1);
    // The point is self-describing: seed and config knobs come from the
    // RunResult the driver recorded, not from out-of-band context.
    assert_eq!(swiss.seed, 0xC0FFEE);
    assert_eq!(swiss.profile, "quick");
    assert_eq!(swiss.clock, "deferred");
    assert_eq!(swiss.table_layout, "padded");
    assert_eq!(swiss.grain_shift, 1);
    assert!(swiss.commits > 0);
    assert!(swiss.throughput > 0.0);
    assert!(swiss.elapsed_secs > 0.0);

    assert_eq!(points[1].stm, "TL2");
    assert_eq!(points[1].threads, 2);
}

/// `repro fig5 --snapshot` end to end: the emitted file parses back as a
/// schema-valid snapshot whose points carry the CLI's configuration, and
/// `repro bench-diff` accepts the file against itself with exit code 0.
#[test]
fn repro_snapshot_flag_emits_schema_valid_file() {
    let path =
        std::env::temp_dir().join(format!("BENCH_recorder-test-{}.json", std::process::id()));

    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig5", "--threads", "2", "--millis", "20", "--seed", "41"])
        .args(["--clock", "deferred", "--snapshot"])
        .arg(&path)
        .output()
        .expect("repro must launch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("wrote perf snapshot"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("snapshot file must exist");
    let snapshot = BenchSnapshot::parse(&text).expect("emitted snapshot must be schema-valid");
    assert_eq!(
        snapshot.label,
        format!("recorder-test-{}", std::process::id())
    );
    // Figure 5 sweeps 4 STMs over threads 1..=2: 8 points.
    assert_eq!(snapshot.points.len(), 8);
    assert!(snapshot.points.iter().all(|p| p.seed == 41));
    assert!(snapshot.points.iter().all(|p| p.clock == "deferred"));
    assert!(snapshot
        .points
        .iter()
        .any(|p| p.stm == "SwissTM" && p.threads == 2));
    assert_eq!(snapshot.machine.cores, {
        std::thread::available_parallelism().unwrap().get() as u64
    });

    // The file gates cleanly against itself.
    let diff = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench-diff")
        .arg(&path)
        .arg(&path)
        .output()
        .expect("repro must launch");
    assert!(
        diff.status.success(),
        "{}",
        String::from_utf8_lossy(&diff.stdout)
    );

    let _ = std::fs::remove_file(path);
}

/// `bench7-ops` times its kinds outside `run_point`, so a `--snapshot` of
/// it records no point. Such a file would pass every gate vacuously, so
/// the run must fail and write nothing.
#[test]
fn repro_snapshot_of_a_run_without_points_fails_and_writes_nothing() {
    let path = std::env::temp_dir().join(format!("BENCH_empty-test-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench7-ops", "--millis", "20", "--snapshot"])
        .arg(&path)
        .output()
        .expect("repro must launch");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    assert!(stderr.contains("no data points were recorded"), "{stderr}");
    assert!(!path.exists(), "an empty snapshot must not be written");
}
