//! One Criterion group per fixed-work figure of the paper.
//!
//! Each benchmark measures the wall-clock time of one experiment data point
//! (a workload on an STM configuration) through the same runner the `repro`
//! binary uses. Only figures that run a fixed amount of work (STAMP, Lee-TM)
//! are here: a throughput point runs for `point_duration` whatever the STM
//! does, so its time says nothing. The goal is not absolute numbers but
//! tracking the *relative* behaviour of the STMs over time; EXPERIMENTS.md
//! interprets a full run.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rstm::RstmVariant;
use stm_bench::bench_options;
use stm_harness::runner::{run_point, Benchmark, CmChoice, RunOptions, StmVariant};
use stm_workloads::lee::LeeConfig;
use stm_workloads::stamp::StampApp;

const BENCH_THREADS: usize = 2;

fn options() -> RunOptions {
    bench_options(BENCH_THREADS)
}

/// Figure 3: STAMP — SwissTM vs TL2 and TinySTM on a representative subset.
fn fig3_stamp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_stamp");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let apps = [
        StampApp::KmeansHigh,
        StampApp::Intruder,
        StampApp::VacationHigh,
        StampApp::Yada,
    ];
    let variants = [
        StmVariant::Swiss(CmChoice::Default),
        StmVariant::Tl2(CmChoice::Default),
        StmVariant::Tiny(CmChoice::Default),
    ];
    for app in apps {
        for variant in variants {
            let id = BenchmarkId::new(app.label(), variant.label());
            group.bench_function(id, |b| {
                b.iter(|| run_point(variant, &Benchmark::Stamp(app), BENCH_THREADS, &options()));
            });
        }
    }
    group.finish();
}

/// Figure 4: Lee-TM execution time (tiny board, so one iteration stays
/// in the millisecond range; the real boards belong to the repro sweeps).
fn fig4_lee(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_lee_small");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let variants = [
        StmVariant::Swiss(CmChoice::Default),
        StmVariant::Tiny(CmChoice::Default),
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Default),
    ];
    for variant in variants {
        group.bench_with_input(
            BenchmarkId::from_parameter(variant.label()),
            &variant,
            |b, &variant| {
                b.iter(|| {
                    // The tiny board keeps one iteration in the
                    // single-digit-millisecond range; the quick memory
                    // board (160 routes) is 20x that and belongs to the
                    // repro sweeps.
                    run_point(
                        variant,
                        &Benchmark::Lee(LeeConfig::tiny()),
                        BENCH_THREADS,
                        &options(),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Figures 7/8: conflict-detection ablation — eager (TinySTM) vs lazy (TL2)
/// vs mixed (SwissTM) on the irregular Lee-TM workload.
fn fig7_8_conflict_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_8_irregular_lee");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for ratio in [0u64, 20] {
        for variant in [
            StmVariant::Swiss(CmChoice::Default),
            StmVariant::Tiny(CmChoice::Default),
        ] {
            let id = BenchmarkId::new(variant.label(), format!("R={ratio}%"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    run_point(
                        variant,
                        &Benchmark::Lee(LeeConfig::tiny().with_irregular_updates(ratio)),
                        BENCH_THREADS,
                        &options(),
                    )
                });
            });
        }
    }
    group.finish();
}

/// Figure 11: back-off vs no back-off on the intruder hot spot.
fn fig11_backoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_backoff_intruder");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for variant in [
        StmVariant::Swiss(CmChoice::TwoPhase),
        StmVariant::Swiss(CmChoice::TwoPhaseNoBackoff),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(variant.label()),
            &variant,
            |b, &variant| {
                b.iter(|| {
                    run_point(
                        variant,
                        &Benchmark::Stamp(StampApp::Intruder),
                        BENCH_THREADS,
                        &options(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    paper_figures,
    fig3_stamp,
    fig4_lee,
    fig7_8_conflict_detection,
    fig11_backoff
);
criterion_main!(paper_figures);
