//! One function per figure/table of the paper's evaluation.
//!
//! Every function sweeps the same parameters as the corresponding figure
//! and returns a [`Table`] whose rows are the figure's data series. The
//! absolute numbers depend on the machine (and, for the quick options, on
//! heavily scaled-down workloads); EXPERIMENTS.md records a measured run
//! and compares its *shape* against the paper.

use rstm::RstmVariant;
use stm_workloads::lee::LeeConfig;
use stm_workloads::rbtree::RbTreeConfig;
use stm_workloads::stamp::StampApp;
use stm_workloads::stmbench7::WorkloadMix;

use crate::runner::{run_point, Benchmark, CmChoice, RunOptions, StmVariant};
use crate::table::{format_ktps, format_seconds, format_speedup_minus_one, Table};

/// Figure 2: STMBench7 throughput of the four STMs for the three workload
/// mixes over the thread sweep.
pub fn figure2(options: &RunOptions) -> Vec<Table> {
    let mixes = [
        WorkloadMix::read_dominated(),
        WorkloadMix::read_write(),
        WorkloadMix::write_dominated(),
    ];
    let variants = [
        StmVariant::Swiss(CmChoice::Default),
        StmVariant::Tiny(CmChoice::Default),
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Serializer),
        StmVariant::Tl2(CmChoice::Default),
    ];
    mixes
        .iter()
        .map(|mix| {
            let mut table = Table::new(
                format!("Figure 2: STMBench7 {} workload", mix.name),
                "Throughput [10^3 tx/s] per thread count",
            )
            .headers(
                std::iter::once("threads".to_string()).chain(variants.iter().map(|v| v.label())),
            );
            for threads in options.thread_counts() {
                let mut row = vec![threads.to_string()];
                for variant in variants {
                    let result = run_point(variant, &Benchmark::Bench7(*mix), threads, options);
                    row.push(format_ktps(result.throughput()));
                }
                table.push_row(row);
            }
            table
        })
        .collect()
}

/// Figure 3: speedup (minus one) of SwissTM over TL2 and over TinySTM for
/// the ten STAMP workloads at 1, 2, 4 and 8 threads.
pub fn figure3(options: &RunOptions) -> Vec<Table> {
    let thread_points: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= options.max_threads)
        .collect();
    let baselines = [
        (StmVariant::Tl2(CmChoice::Default), "SwissTM vs TL2"),
        (StmVariant::Tiny(CmChoice::Default), "SwissTM vs TinySTM"),
    ];
    baselines
        .iter()
        .map(|(baseline, title)| {
            let mut table = Table::new(
                format!("Figure 3: {title} (STAMP)"),
                "Speedup - 1 per workload (positive = SwissTM faster)",
            )
            .headers(
                std::iter::once("workload".to_string())
                    .chain(thread_points.iter().map(|t| format!("{t} thr"))),
            );
            for app in StampApp::all() {
                let mut row = vec![app.label().to_string()];
                for &threads in &thread_points {
                    let benchmark = Benchmark::Stamp(app);
                    let swiss = run_point(
                        StmVariant::Swiss(CmChoice::Default),
                        &benchmark,
                        threads,
                        options,
                    );
                    let base = run_point(*baseline, &benchmark, threads, options);
                    let ratio = base.elapsed.as_secs_f64() / swiss.elapsed.as_secs_f64().max(1e-9);
                    row.push(format_speedup_minus_one(ratio));
                }
                table.push_row(row);
            }
            table
        })
        .collect()
}

/// Figure 4: Lee-TM execution time for the memory and mainboard inputs.
pub fn figure4(options: &RunOptions) -> Vec<Table> {
    let boards = [
        ("memory board", LeeConfig::memory_board_at(options.profile)),
        ("main board", LeeConfig::main_board_at(options.profile)),
    ];
    let variants = [
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Default),
        StmVariant::Tiny(CmChoice::Default),
        StmVariant::Swiss(CmChoice::Default),
    ];
    boards
        .iter()
        .map(|(name, config)| {
            let mut table = Table::new(
                format!("Figure 4: Lee-TM execution time, {name}"),
                "Duration [s] per thread count",
            )
            .headers(
                std::iter::once("threads".to_string()).chain(variants.iter().map(|v| v.label())),
            );
            for threads in options.thread_counts() {
                let mut row = vec![threads.to_string()];
                for variant in variants {
                    let result = run_point(variant, &Benchmark::Lee(*config), threads, options);
                    row.push(format_seconds(result.elapsed));
                }
                table.push_row(row);
            }
            table
        })
        .collect()
}

/// Figure 5: red-black tree throughput (range 16 384, 20 % updates).
pub fn figure5(options: &RunOptions) -> Table {
    let variants = [
        StmVariant::Swiss(CmChoice::Default),
        StmVariant::Tl2(CmChoice::Default),
        StmVariant::Tiny(CmChoice::Default),
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Default),
    ];
    let mut table = Table::new(
        "Figure 5: red-black tree throughput",
        "Throughput [10^3 tx/s], range 16384, 20% updates",
    )
    .headers(std::iter::once("threads".to_string()).chain(variants.iter().map(|v| v.label())));
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for variant in variants {
            let result = run_point(
                variant,
                &Benchmark::RbTree(RbTreeConfig::paper_default()),
                threads,
                options,
            );
            row.push(format_ktps(result.throughput()));
        }
        table.push_row(row);
    }
    table
}

/// Figure 7: eager vs lazy conflict detection in the read-dominated
/// STMBench7 workload.
pub fn figure7(options: &RunOptions) -> Table {
    let variants = [
        StmVariant::Tiny(CmChoice::Default),
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Default),
        StmVariant::Rstm(RstmVariant::lazy_invisible(), CmChoice::Default),
        StmVariant::Tl2(CmChoice::Default),
    ];
    let mut table = Table::new(
        "Figure 7: eager vs lazy conflict detection (read-dominated STMBench7)",
        "Throughput [10^3 tx/s]; TinySTM/RSTM-eager are eager, RSTM-lazy/TL2 are lazy",
    )
    .headers(std::iter::once("threads".to_string()).chain(variants.iter().map(|v| v.label())));
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for variant in variants {
            let result = run_point(
                variant,
                &Benchmark::Bench7(WorkloadMix::read_dominated()),
                threads,
                options,
            );
            row.push(format_ktps(result.throughput()));
        }
        table.push_row(row);
    }
    table
}

/// Figure 8: the "irregular" Lee-TM experiment (hot word updated by R % of
/// the transactions), SwissTM vs TinySTM.
pub fn figure8(options: &RunOptions) -> Table {
    let ratios = [0u64, 5, 20];
    let mut headers = vec!["threads".to_string()];
    for &r in &ratios {
        headers.push(format!("SwissTM R={r}%"));
        headers.push(format!("TinySTM R={r}%"));
    }
    let mut table = Table::new(
        "Figure 8: irregular Lee-TM (memory board)",
        "Duration [s]; R = fraction of transactions updating the shared hot word",
    )
    .headers(headers);
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for &r in &ratios {
            let config = LeeConfig::memory_board_at(options.profile).with_irregular_updates(r);
            let swiss = run_point(
                StmVariant::Swiss(CmChoice::Default),
                &Benchmark::Lee(config),
                threads,
                options,
            );
            let tiny = run_point(
                StmVariant::Tiny(CmChoice::Default),
                &Benchmark::Lee(config),
                threads,
                options,
            );
            row.push(format_seconds(swiss.elapsed));
            row.push(format_seconds(tiny.elapsed));
        }
        table.push_row(row);
    }
    table
}

/// Figure 9: Polka vs Greedy contention management in RSTM on the
/// read-dominated STMBench7 workload.
pub fn figure9(options: &RunOptions) -> Table {
    let variants = [
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Greedy),
        StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Polka),
    ];
    let mut table = Table::new(
        "Figure 9: Polka vs Greedy (RSTM, read-dominated STMBench7)",
        "Throughput [10^3 tx/s]",
    )
    .headers(std::iter::once("threads".to_string()).chain(variants.iter().map(|v| v.label())));
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for variant in variants {
            let result = run_point(
                variant,
                &Benchmark::Bench7(WorkloadMix::read_dominated()),
                threads,
                options,
            );
            row.push(format_ktps(result.throughput()));
        }
        table.push_row(row);
    }
    table
}

/// Figure 10: the two-phase contention manager vs Greedy inside SwissTM on
/// the red-black tree microbenchmark.
pub fn figure10(options: &RunOptions) -> Table {
    let variants = [
        StmVariant::Swiss(CmChoice::TwoPhase),
        StmVariant::Swiss(CmChoice::Greedy),
    ];
    let mut table = Table::new(
        "Figure 10: two-phase vs Greedy (SwissTM, red-black tree)",
        "Throughput [10^3 tx/s]",
    )
    .headers(std::iter::once("threads".to_string()).chain(variants.iter().map(|v| v.label())));
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for variant in variants {
            let result = run_point(
                variant,
                &Benchmark::RbTree(RbTreeConfig::paper_default()),
                threads,
                options,
            );
            row.push(format_ktps(result.throughput()));
        }
        table.push_row(row);
    }
    table
}

/// Figure 11: back-off vs no back-off after rollbacks (SwissTM, STAMP
/// intruder).
pub fn figure11(options: &RunOptions) -> Table {
    let variants = [
        StmVariant::Swiss(CmChoice::TwoPhaseNoBackoff),
        StmVariant::Swiss(CmChoice::TwoPhase),
    ];
    let mut table = Table::new(
        "Figure 11: back-off vs no back-off (SwissTM, intruder)",
        "Duration [s]",
    )
    .headers(["threads", "No backoff", "Linear backoff"]);
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for variant in variants {
            let result = run_point(
                variant,
                &Benchmark::Stamp(StampApp::Intruder),
                threads,
                options,
            );
            row.push(format_seconds(result.elapsed));
        }
        table.push_row(row);
    }
    table
}

/// Figure 12: speedup of the two-phase contention manager over timid inside
/// SwissTM on the three STMBench7 workloads.
pub fn figure12(options: &RunOptions) -> Table {
    let mixes = [
        WorkloadMix::read_dominated(),
        WorkloadMix::read_write(),
        WorkloadMix::write_dominated(),
    ];
    let mut table = Table::new(
        "Figure 12: two-phase vs timid contention manager (SwissTM, STMBench7)",
        "Speedup - 1 of two-phase over timid (positive = two-phase faster)",
    )
    .headers(
        std::iter::once("threads".to_string()).chain(mixes.iter().map(|m| m.name.to_string())),
    );
    for threads in options.thread_counts() {
        let mut row = vec![threads.to_string()];
        for mix in mixes {
            let two_phase = run_point(
                StmVariant::Swiss(CmChoice::TwoPhase),
                &Benchmark::Bench7(mix),
                threads,
                options,
            );
            let timid = run_point(
                StmVariant::Swiss(CmChoice::Timid),
                &Benchmark::Bench7(mix),
                threads,
                options,
            );
            let ratio = two_phase.throughput() / timid.throughput().max(1e-9);
            row.push(format_speedup_minus_one(ratio));
        }
        table.push_row(row);
    }
    table
}

/// The benchmark list used by the lock-granularity experiments (Figure 13
/// and Table 2): every benchmark family with a representative
/// configuration.
fn granularity_benchmarks(options: &RunOptions) -> Vec<Benchmark> {
    let mut benchmarks: Vec<Benchmark> =
        StampApp::all().into_iter().map(Benchmark::Stamp).collect();
    benchmarks.push(Benchmark::RbTree(RbTreeConfig::paper_default()));
    benchmarks.push(Benchmark::Lee(LeeConfig::memory_board_at(options.profile)));
    benchmarks.push(Benchmark::Lee(LeeConfig::main_board_at(options.profile)));
    benchmarks.push(Benchmark::Bench7(WorkloadMix::read_dominated()));
    benchmarks.push(Benchmark::Bench7(WorkloadMix::read_write()));
    benchmarks.push(Benchmark::Bench7(WorkloadMix::write_dominated()));
    benchmarks
}

/// Measures SwissTM throughput (operations per second) for one benchmark at
/// the maximum thread count and a given stripe granularity.
fn granularity_ops_per_second(
    benchmark: &Benchmark,
    grain_shift: u32,
    options: &RunOptions,
) -> f64 {
    let options = options.with_grain_shift(grain_shift);
    let threads = options.max_threads;
    let result = run_point(
        StmVariant::Swiss(CmChoice::Default),
        benchmark,
        threads,
        &options,
    );
    result.ops_per_second()
}

/// Figure 13: average speedup of each lock granularity against the others,
/// across all benchmarks, at the maximum thread count.
///
/// The paper's x-axis is stripe size in bytes (2^2 … 2^8 with 32-bit
/// words); our heap words are 64-bit, so `grain_shift` values 0…5 cover
/// 8…256 bytes and are reported in bytes for comparability.
pub fn figure13(options: &RunOptions) -> Table {
    let shifts: Vec<u32> = (0..=5).collect();
    let benchmarks = granularity_benchmarks(options);
    // ops/s per (benchmark, shift)
    let mut measurements: Vec<Vec<f64>> = Vec::new();
    for benchmark in &benchmarks {
        let per_shift: Vec<f64> = shifts
            .iter()
            .map(|&s| granularity_ops_per_second(benchmark, s, options))
            .collect();
        measurements.push(per_shift);
    }

    let mut table = Table::new(
        "Figure 13: lock granularity sweep (SwissTM, all benchmarks)",
        "Average speedup - 1 of each stripe size against all other sizes, max threads",
    )
    .headers(["stripe bytes", "avg speedup - 1"]);
    for (i, &shift) in shifts.iter().enumerate() {
        let mut ratios = Vec::new();
        for per_shift in &measurements {
            for (j, &other) in per_shift.iter().enumerate() {
                if i != j && other > 0.0 {
                    ratios.push(per_shift[i] / other);
                }
            }
        }
        let average = if ratios.is_empty() {
            1.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        table.push_row([
            format!("{}", 8u32 << shift),
            format_speedup_minus_one(average),
        ]);
    }
    table
}

/// Table 2: per-benchmark comparison of three stripe granularities (the
/// paper's 2^4 vs 2^2, 2^4 vs 2^6 and 2^2 vs 2^6 bytes; ours are the
/// 64-bit-word equivalents 16, 8(=word) and 64 bytes).
pub fn table2(options: &RunOptions) -> Table {
    // grain shifts: 16 bytes = 1, 8 bytes (single word) = 0, 64 bytes = 3.
    let mut table = Table::new(
        "Table 2: lock granularity breakdown per benchmark (SwissTM, max threads)",
        "Relative speedups - 1: 16B vs 8B, 16B vs 64B, 8B vs 64B",
    )
    .headers(["benchmark", "16B vs 8B", "16B vs 64B", "8B vs 64B"]);
    let mut sums = [0.0f64; 3];
    let benchmarks = granularity_benchmarks(options);
    for benchmark in &benchmarks {
        let ops8 = granularity_ops_per_second(benchmark, 0, options);
        let ops16 = granularity_ops_per_second(benchmark, 1, options);
        let ops64 = granularity_ops_per_second(benchmark, 3, options);
        let r1 = ops16 / ops8.max(1e-9);
        let r2 = ops16 / ops64.max(1e-9);
        let r3 = ops8 / ops64.max(1e-9);
        sums[0] += r1;
        sums[1] += r2;
        sums[2] += r3;
        table.push_row([
            benchmark.label(),
            format_speedup_minus_one(r1),
            format_speedup_minus_one(r2),
            format_speedup_minus_one(r3),
        ]);
    }
    let n = benchmarks.len() as f64;
    table.push_row([
        "Average".to_string(),
        format_speedup_minus_one(sums[0] / n),
        format_speedup_minus_one(sums[1] / n),
        format_speedup_minus_one(sums[2] / n),
    ]);
    table
}

/// Table 1: effectiveness of the design-choice combinations (acquisition ×
/// read visibility × contention manager) on the read-write STMBench7
/// workload, measured as throughput at the maximum thread count.
pub fn table1(options: &RunOptions) -> Table {
    let threads = options.max_threads;
    let combos: Vec<(String, StmVariant)> = vec![
        (
            "lazy acquire / invisible reads".into(),
            StmVariant::Rstm(RstmVariant::lazy_invisible(), CmChoice::Polka),
        ),
        (
            "eager acquire / visible reads".into(),
            StmVariant::Rstm(RstmVariant::eager_visible(), CmChoice::Polka),
        ),
        (
            "eager acquire / invisible reads / Polka".into(),
            StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Polka),
        ),
        (
            "eager acquire / invisible reads / timid".into(),
            StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Timid),
        ),
        (
            "eager acquire / invisible reads / Greedy".into(),
            StmVariant::Rstm(RstmVariant::eager_invisible(), CmChoice::Greedy),
        ),
        (
            "mixed (SwissTM) / invisible reads / timid".into(),
            StmVariant::Swiss(CmChoice::Timid),
        ),
        (
            "mixed (SwissTM) / invisible reads / Greedy".into(),
            StmVariant::Swiss(CmChoice::Greedy),
        ),
        (
            "mixed (SwissTM) / invisible reads / two-phase".into(),
            StmVariant::Swiss(CmChoice::TwoPhase),
        ),
    ];
    let mut table = Table::new(
        "Table 1: effectiveness of STM design-choice combinations",
        "Read-write STMBench7 at max threads; higher throughput = more effective",
    )
    .headers([
        "acquire / reads / CM",
        "throughput [10^3 tx/s]",
        "abort ratio",
    ]);
    for (label, variant) in combos {
        let result = run_point(
            variant,
            &Benchmark::Bench7(WorkloadMix::read_write()),
            threads,
            options,
        );
        table.push_row([
            label,
            format_ktps(result.throughput()),
            format!("{:.3}", result.abort_ratio()),
        ]);
    }
    table
}

/// What two threads share, from nothing to one data structure: red-black
/// tree throughput at 20 % and 100 % updates for one thread and for two
/// threads on (a) two STM instances with a tree each, (b) one instance with
/// a tree per thread and (c) one shared tree.
///
/// (a) is what the machine gives two independent threads, (a) → (b) is the
/// price of the instance's shared infrastructure — commit clock, lock table
/// and allocator — with no data conflict possible, (b) → (c) the price of
/// sharing the data itself.
pub fn sharing(options: &RunOptions) -> Vec<Table> {
    let variants = StmVariant::paper_defaults();
    [20, 100]
        .into_iter()
        .map(|update_percent| {
            let config = RbTreeConfig::paper_default().with_update_percent(update_percent);
            let shared = Benchmark::RbTree(config);
            let disjoint = Benchmark::RbTreeDisjoint(config);
            let point = |variant, benchmark: &Benchmark, threads| {
                run_point(variant, benchmark, threads, options).throughput()
            };
            let separate_instances = |variant| {
                std::thread::scope(|scope| {
                    let rival = scope.spawn(|| point(variant, &shared, 1));
                    point(variant, &shared, 1) + rival.join().expect("data point panicked")
                })
            };
            let mut table = Table::new(
                format!("Sharing: red-black tree, {update_percent}% updates"),
                "Throughput [10^3 tx/s], range 16384; two threads sharing ever more",
            )
            .headers(
                std::iter::once("configuration".to_string())
                    .chain(variants.iter().map(|v| v.label())),
            );
            let rows: [(&str, &dyn Fn(StmVariant) -> f64); 4] = [
                ("1 thread", &|v| point(v, &shared, 1)),
                ("2 threads, separate instances", &separate_instances),
                ("2 threads, one instance, disjoint trees", &|v| {
                    point(v, &disjoint, 2)
                }),
                ("2 threads, one shared tree", &|v| point(v, &shared, 2)),
            ];
            for (label, measure) in rows {
                table.push_row(
                    std::iter::once(label.to_string())
                        .chain(variants.iter().map(|&v| format_ktps(measure(v)))),
                );
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn smoke_options() -> RunOptions {
        RunOptions {
            max_threads: 2,
            point_duration: Duration::from_millis(20),
            heap_words: 1 << 20,
            lock_table_log2: 12,
            seed: 3,
            ..RunOptions::quick()
        }
    }

    #[test]
    fn figure5_produces_one_row_per_thread_count() {
        let table = figure5(&smoke_options());
        assert_eq!(table.len(), 2);
        assert_eq!(table.headers.len(), 5);
        assert!(table.to_string().contains("SwissTM"));
    }

    #[test]
    fn figure10_and_11_have_expected_series() {
        let options = smoke_options();
        let t10 = figure10(&options);
        assert!(t10.headers.iter().any(|h| h.contains("greedy")));
        let t11 = figure11(&options);
        assert!(t11
            .headers
            .iter()
            .any(|h| h.contains("backoff") || h.contains("back")));
    }

    #[test]
    fn sharing_reports_four_configurations_per_update_ratio() {
        let tables = sharing(&smoke_options());
        assert_eq!(tables.len(), 2);
        for table in &tables {
            assert_eq!(table.len(), 4);
            assert_eq!(table.headers.len(), 5);
            assert!(table.to_string().contains("disjoint trees"));
        }
    }

    #[test]
    fn figure12_reports_all_three_mixes() {
        let table = figure12(&smoke_options());
        assert!(table.headers.contains(&"read-dominated".to_string()));
        assert!(table.headers.contains(&"write-dominated".to_string()));
    }
}
