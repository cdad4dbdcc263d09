//! Tests for the figure-shape checks: the comparator logic (driven with
//! synthetic [`RunResult`]s, including the failure messages) and a
//! down-scaled sweep through the whole `--check-shapes` path.

use std::time::Duration;

use stm_core::stats::TxStats;
use stm_harness::runner::RunOptions;
use stm_harness::shapes::{
    check_anchor_cost, check_cm_cost, check_competitive, check_dominates, check_naive_anchor_cost,
    check_polka_contention_cost, elapsed_series, run_shape_checks, throughput_series, Direction,
    SeriesPoint, ShapeReport, NAIVE_MIN_RATIO, POLKA_MAX_WAIT_SHARE, POLKA_MIN_RATIO,
};
use stm_workloads::driver::RunResult;

/// Builds a synthetic RunResult committing `commits` transactions over
/// `millis` of measured window — the comparator inputs the sweeps produce.
fn synthetic_result(commits: u64, millis: u64) -> RunResult {
    let elapsed = Duration::from_millis(millis);
    let mut totals = TxStats::new();
    totals.commits = commits;
    RunResult {
        totals,
        threads: 1,
        operations: commits,
        elapsed,
    }
}

fn synthetic_sweep(points: &[(usize, u64, u64)]) -> Vec<(usize, RunResult)> {
    points
        .iter()
        .map(|&(threads, commits, millis)| (threads, synthetic_result(commits, millis)))
        .collect()
}

#[test]
fn series_extraction_reads_throughput_and_elapsed() {
    let sweep = synthetic_sweep(&[(1, 1000, 100), (2, 3000, 100)]);
    let tput = throughput_series(&sweep);
    assert_eq!(tput.len(), 2);
    assert_eq!(tput[0].threads, 1);
    assert!((tput[0].value - 10_000.0).abs() < 1e-6);
    assert!((tput[1].value - 30_000.0).abs() < 1e-6);
    let elapsed = elapsed_series(&sweep);
    assert!((elapsed[1].value - 0.1).abs() < 1e-9);
}

#[test]
fn dominance_passes_when_champion_leads_beyond_two_threads() {
    // The champion loses at 1–2 threads (allowed) and wins beyond.
    let champion = throughput_series(&synthetic_sweep(&[
        (1, 800, 100),
        (2, 1500, 100),
        (4, 4000, 100),
        (8, 8000, 100),
    ]));
    let baseline = throughput_series(&synthetic_sweep(&[
        (1, 1000, 100),
        (2, 1800, 100),
        (4, 3000, 100),
        (8, 4000, 100),
    ]));
    let outcome = check_dominates(
        "STMBench7 read-write",
        ("SwissTM", &champion),
        ("TL2", &baseline),
        2,
        Direction::HigherIsBetter,
        0.9,
    );
    let line = outcome.expect("shape must pass");
    assert!(line.contains("dominates"), "{line}");
    assert!(line.contains("2 points beyond 2 threads"), "{line}");
}

#[test]
fn dominance_failure_names_figure_threads_and_values() {
    let champion = vec![
        SeriesPoint {
            threads: 4,
            value: 100.0,
        },
        SeriesPoint {
            threads: 8,
            value: 500.0,
        },
    ];
    let baseline = vec![
        SeriesPoint {
            threads: 4,
            value: 400.0,
        },
        SeriesPoint {
            threads: 8,
            value: 450.0,
        },
    ];
    let message = check_dominates(
        "STMBench7 read-write",
        ("SwissTM", &champion),
        ("TinySTM", &baseline),
        2,
        Direction::HigherIsBetter,
        0.8,
    )
    .expect_err("4-thread point must fail");
    assert!(message.contains("STMBench7 read-write"), "{message}");
    assert!(message.contains("at 4 threads"), "{message}");
    assert!(message.contains("SwissTM=100.00"), "{message}");
    assert!(message.contains("TinySTM=400.00"), "{message}");
    assert!(message.contains("tolerance 0.80"), "{message}");
}

#[test]
fn lower_is_better_inverts_the_comparison() {
    // Execution time: champion routes faster beyond 2 threads.
    let champion = vec![SeriesPoint {
        threads: 4,
        value: 1.0,
    }];
    let slower_baseline = vec![SeriesPoint {
        threads: 4,
        value: 2.0,
    }];
    assert!(check_dominates(
        "Lee-TM memory board",
        ("SwissTM", &champion),
        ("RSTM", &slower_baseline),
        2,
        Direction::LowerIsBetter,
        0.9,
    )
    .is_ok());
    // And fails the other way around, mentioning the values.
    let message = check_dominates(
        "Lee-TM memory board",
        ("SwissTM", &slower_baseline),
        ("RSTM", &champion),
        2,
        Direction::LowerIsBetter,
        0.9,
    )
    .expect_err("slower champion must fail");
    assert!(message.contains("must not exceed"), "{message}");
    assert!(message.contains("SwissTM=2.00"), "{message}");
}

#[test]
fn dominance_skips_when_no_points_beyond_the_threshold() {
    let short = vec![
        SeriesPoint {
            threads: 1,
            value: 1.0,
        },
        SeriesPoint {
            threads: 2,
            value: 1.0,
        },
    ];
    let line = check_dominates(
        "STMBench7 read-write",
        ("SwissTM", &short),
        ("TL2", &short),
        2,
        Direction::HigherIsBetter,
        0.9,
    )
    .expect("vacuous check must not fail");
    assert!(line.contains("skipped"), "{line}");
}

#[test]
fn competitive_check_passes_and_fails_on_ratio() {
    let reference = vec![
        SeriesPoint {
            threads: 1,
            value: 1000.0,
        },
        SeriesPoint {
            threads: 2,
            value: 900.0,
        },
    ];
    let close = vec![
        SeriesPoint {
            threads: 1,
            value: 950.0,
        },
        SeriesPoint {
            threads: 2,
            value: 600.0,
        },
    ];
    assert!(check_competitive(
        "red-black tree",
        ("SwissTM", &reference),
        ("TL2", &close),
        2,
        0.5,
    )
    .is_ok());
    let far = vec![SeriesPoint {
        threads: 1,
        value: 100.0,
    }];
    let message = check_competitive(
        "red-black tree",
        ("SwissTM", &reference),
        ("TL2", &far),
        2,
        0.5,
    )
    .expect_err("a 10x gap is not competitive");
    assert!(message.contains("red-black tree"), "{message}");
    assert!(message.contains("TL2=100.00"), "{message}");
    assert!(message.contains("SwissTM=1000.00"), "{message}");
}

/// The cost shape fails on either symptom of a manager that sleeps through
/// its conflicts — the numbers are Polka's before and after its back-off
/// exponent became the wait round.
#[test]
fn cm_cost_check_bounds_throughput_ratio_and_wait_share() {
    let check = |throughput, wait_share| {
        check_cm_cost(
            "small tree, 2 threads",
            ("two-phase", 5_400_000.0),
            ("polka", throughput, wait_share),
            POLKA_MIN_RATIO,
            POLKA_MAX_WAIT_SHARE,
        )
    };
    let pass = check(4_800_000.0, 0.02).unwrap();
    assert!(pass.contains("0.89x of two-phase"), "{pass}");
    let slow = check(900_000.0, 0.88).unwrap_err();
    assert!(
        slow.contains("polka must reach 0.50x of two-phase"),
        "{slow}"
    );
    assert!(slow.contains("wait share 88.0%"), "{slow}");
    let waiting = check(3_000_000.0, 0.4).unwrap_err();
    assert!(waiting.contains("40.0% of thread time"), "{waiting}");
}

/// The measured Polka cost check names its point and both series whether
/// it passes, fails or skips; the verdict of a 20 ms debug-build point is
/// not pinned (see the sweep test below).
#[test]
fn polka_cost_check_runs_on_a_downscaled_point() {
    let options = RunOptions {
        max_threads: 2,
        point_duration: Duration::from_millis(20),
        ..RunOptions::quick()
    };
    let line = match check_polka_contention_cost(&options) {
        Ok(line) | Err(line) => line,
    };
    assert!(
        line.starts_with("small red-black tree, 2 threads"),
        "{line}"
    );
    assert!(line.contains("SwissTM[polka]"), "{line}");
    assert!(line.contains("SwissTM[two-phase]"), "{line}");
    let single = RunOptions {
        max_threads: 1,
        ..options
    };
    let skipped = check_polka_contention_cost(&single).unwrap();
    assert!(skipped.contains("skipped"), "{skipped}");
}

/// The anchor's own anchor: the global lock within a fifth of no lock at
/// all, reported with its ratio either way.
#[test]
fn anchor_cost_check_bounds_the_global_lock_against_no_lock() {
    let check = |naive| {
        check_anchor_cost(
            "red-black tree, 1 thread",
            ("sequential", 6_000_000.0),
            ("global-lock", naive),
            NAIVE_MIN_RATIO,
        )
    };
    let pass = check(5_820_000.0).unwrap();
    assert!(
        pass.contains("global-lock at 0.97x of sequential"),
        "{pass}"
    );
    let slow = check(4_500_000.0).unwrap_err();
    assert!(
        slow.contains("global-lock must reach 0.80x of sequential"),
        "{slow}"
    );
    assert!(slow.contains("global-lock=4500000.00"), "{slow}");
}

/// The measured anchor check names its point and both subjects whether it
/// passes or fails; the verdict of a 20 ms debug-build point is not pinned.
#[test]
fn anchor_cost_check_runs_on_a_downscaled_point() {
    let options = RunOptions {
        max_threads: 1,
        point_duration: Duration::from_millis(20),
        ..RunOptions::quick()
    };
    let line = match check_naive_anchor_cost(&options) {
        Ok(line) | Err(line) => line,
    };
    assert!(line.starts_with("red-black tree, 1 thread"), "{line}");
    assert!(line.contains("global-lock"), "{line}");
    assert!(line.contains("sequential"), "{line}");
}

#[test]
fn shape_report_aggregates_and_renders() {
    let mut report = ShapeReport::default();
    report.record(Ok("figure A: fine".into()));
    assert!(report.passed());
    report.record(Err("figure B: inverted".into()));
    assert!(!report.passed());
    let rendered = report.to_string();
    assert!(rendered.contains("ok   figure A: fine"), "{rendered}");
    assert!(rendered.contains("FAIL figure B: inverted"), "{rendered}");
    assert!(rendered.contains("1 passed, 1 failed"), "{rendered}");
}

/// The whole `--check-shapes` path on a heavily down-scaled sweep: two
/// threads only, so the dominance checks are vacuous (skipped, not
/// failed) and the competitive checks run against real measured points.
///
/// The test asserts the *path* — every check ran, the dominance checks
/// were skipped rather than failed, the competitive checks were evaluated
/// against measured numbers — but deliberately not the competitive
/// verdicts themselves: 20 ms debug-build points measured while the rest
/// of the test binary runs in parallel are too noisy to pin a throughput
/// ratio on (the comparator verdicts are pinned by the deterministic
/// synthetic-series tests above, and the release-mode `repro
/// --check-shapes` run is the real gate).
#[test]
fn downscaled_sweep_through_the_check_shapes_path() {
    let options = RunOptions {
        max_threads: 2,
        point_duration: Duration::from_millis(20),
        heap_words: 1 << 20,
        lock_table_log2: 12,
        seed: 0x5a,
        ..RunOptions::quick()
    };
    let report = run_shape_checks(&options);
    // 6 dominance checks (vacuous at 2 threads) + 2 competitive checks.
    assert_eq!(report.passes.len() + report.failures.len(), 8, "{report}");
    let skipped = report
        .passes
        .iter()
        .filter(|line| line.contains("skipped"))
        .count();
    assert_eq!(
        skipped, 6,
        "all dominance checks must be vacuous at 2 threads:\n{report}"
    );
    assert!(
        report.failures.iter().all(|line| !line.contains("skipped")),
        "skips must never be reported as failures:\n{report}"
    );
    // Both competitive checks were evaluated against measured points.
    let competitive: Vec<&String> = report
        .passes
        .iter()
        .chain(report.failures.iter())
        .filter(|line| line.contains("red-black tree"))
        .collect();
    assert_eq!(competitive.len(), 2, "{report}");
    for line in competitive {
        assert!(
            line.contains("competitive") || line.contains("must stay within"),
            "{line}"
        );
    }
    let rendered = report.to_string();
    assert!(rendered.contains("Figure-shape checks"), "{rendered}");
}

fn series(points: &[(usize, f64)]) -> Vec<SeriesPoint> {
    points
        .iter()
        .map(|&(threads, value)| SeriesPoint { threads, value })
        .collect()
}

/// A champion point the baseline did not measure is neither a pass nor a
/// failure: only common thread counts are compared and counted.
#[test]
fn dominance_compares_only_thread_counts_both_series_measured() {
    let champion = series(&[(3, 10.0), (4, 1.0), (8, 100.0)]);
    let baseline = series(&[(3, 10.0), (8, 100.0)]);
    let line = check_dominates(
        "Lee-TM",
        ("SwissTM", &champion),
        ("TL2", &baseline),
        2,
        Direction::HigherIsBetter,
        1.0,
    )
    .expect("the 4-thread dip has no baseline to lose against");
    assert!(line.contains("all 2 points beyond 2 threads"), "{line}");
    let baseline = series(&[(5, 10.0)]);
    let line = check_dominates(
        "Lee-TM",
        ("SwissTM", &champion),
        ("TL2", &baseline),
        2,
        Direction::HigherIsBetter,
        1.0,
    )
    .expect("disjoint series compare nothing");
    assert!(line.contains("skipped"), "{line}");
}

/// The tolerance is inclusive: a champion exactly at `tolerance` times the
/// baseline passes in both directions, one step beyond it fails.
#[test]
fn dominance_tolerance_is_an_inclusive_bound() {
    let baseline = series(&[(4, 100.0)]);
    let check = |value: f64, direction| {
        check_dominates(
            "fig",
            ("A", &series(&[(4, value)])),
            ("B", &baseline),
            2,
            direction,
            0.8,
        )
    };
    assert!(check(80.0, Direction::HigherIsBetter).is_ok());
    assert!(check(79.9, Direction::HigherIsBetter).is_err());
    assert!(check(125.0, Direction::LowerIsBetter).is_ok());
    let message = check(126.0, Direction::LowerIsBetter).unwrap_err();
    assert!(message.contains("A must not exceed B"), "{message}");
    assert!(
        message.contains("at 4 threads A=126.00 vs B=100.00"),
        "{message}"
    );
}

#[test]
fn competitive_check_ignores_points_above_its_thread_bound() {
    let reference = series(&[(1, 1000.0), (2, 1000.0), (4, 1000.0)]);
    // Far behind at 4 threads, which the check does not cover.
    let contender = series(&[(1, 600.0), (2, 500.0), (4, 10.0)]);
    let line = check_competitive(
        "red-black tree",
        ("SwissTM", &reference),
        ("TinySTM", &contender),
        2,
        0.5,
    )
    .expect("the 4-thread point is outside the bound");
    assert!(line.contains("all 2 points up to 2 threads"), "{line}");
    let line = check_competitive(
        "red-black tree",
        ("SwissTM", &reference),
        ("TinySTM", &series(&[(4, 10.0)])),
        2,
        0.5,
    )
    .expect("a vacuous check must not fail");
    assert!(line.contains("skipped"), "{line}");
}

#[test]
fn cm_cost_bounds_are_inclusive() {
    let check = |throughput, wait_share| {
        check_cm_cost(
            "point",
            ("reference", 1000.0),
            ("contender", throughput, wait_share),
            0.5,
            0.25,
        )
    };
    let line = check(500.0, 0.25).expect("exactly at both bounds passes");
    assert!(line.contains("0.50x of reference"), "{line}");
    assert!(line.contains("wait share 25.0%"), "{line}");
    assert!(check(499.0, 0.0).is_err());
    assert!(check(1000.0, 0.251).is_err());
}
