//! Contention profiles: where contended transactions spend their time.
//!
//! Throughput alone does not explain the paper's contention-manager
//! comparisons (Figures 9/10/12, Table 1). The tables here re-run a
//! benchmark under every contention manager and print the telemetry
//! breakdown next to throughput: share of thread-time spent in CM wait
//! loops and in back-off, the CM resolution counts (waits / self-aborts /
//! victim-aborts), the inflicted vs. received remote-abort pair, and the
//! retry-depth histogram.
//!
//! Exposed through the `repro` binary as `repro contention` (the
//! high-contention profile: small red-black tree, write-dominated
//! STMBench7, Lee main board) and as `--contention` on `fig9`/`fig10`
//! (the same breakdown on those figures' sweeps). Every row is a fresh
//! measurement — the sweep covers all five managers, not just the pair the
//! figure plots — so the throughput column can differ slightly from an
//! adjacent figure table's number for the same configuration (independent
//! runs on a shared machine).

use stm_workloads::lee::LeeConfig;
use stm_workloads::rbtree::RbTreeConfig;
use stm_workloads::stmbench7::WorkloadMix;

use crate::runner::{run_point, Benchmark, CmChoice, RunOptions, StmVariant};
use crate::table::{format_ktps, Table};

/// The contention managers swept by the contention tables: all five
/// policies of `stm_core::cm`.
pub const CM_SWEEP: [CmChoice; 5] = [
    CmChoice::Timid,
    CmChoice::Greedy,
    CmChoice::Serializer,
    CmChoice::Polka,
    CmChoice::TwoPhase,
];

/// Builds one contention table: `benchmark` under every manager in `cms`
/// (constructed into a full STM configuration by `make_variant`), swept
/// over the options' thread counts.
pub fn contention_table(
    title: impl Into<String>,
    benchmark: &Benchmark,
    make_variant: impl Fn(CmChoice) -> StmVariant,
    cms: &[CmChoice],
    options: &RunOptions,
) -> Table {
    let mut table = Table::new(
        title,
        "Per CM: throughput, share of thread-time in CM wait loops / back-off, \
         CM resolutions (wait/self/other), inflicted vs received remote aborts, \
         retry depth (attempts per commit); upgrade% is the share of attempts \
         that were log-free read-only attempts re-run logged, quiet% the share \
         of commits that were read-only ones whose every read checked the \
         commit clock instead of its stripe",
    )
    .headers([
        "cm",
        "thr",
        "tx/s [10^3]",
        "abort%",
        "upgrade%",
        "quiet%",
        "wait%",
        "backoff%",
        "waits",
        "self",
        "other",
        "inflicted",
        "received",
        "retries",
    ]);
    for &cm in cms {
        for threads in options.thread_counts() {
            let result = run_point(make_variant(cm), benchmark, threads, options);
            let contention = &result.stats.totals.contention;
            table.push_row([
                cm.label().to_string(),
                threads.to_string(),
                format_ktps(result.throughput()),
                format!("{:.1}", result.abort_ratio() * 100.0),
                format!("{:.2}", result.stats.upgrade_share() * 100.0),
                format!("{:.1}", result.stats.quiet_share() * 100.0),
                format!("{:.1}", result.wait_share() * 100.0),
                format!("{:.1}", result.backoff_share() * 100.0),
                contention.waits().to_string(),
                contention.aborts_self().to_string(),
                contention.aborts_other().to_string(),
                contention.remote_aborts_inflicted.to_string(),
                contention.remote_aborts_received.to_string(),
                // RetryHistogram's Display is the compact empty-bucket
                // skipping form.
                result.stats.totals.retries.to_string(),
            ]);
        }
    }
    table
}

/// Contention breakdown of the Figure 9 sweep (RSTM, read-dominated
/// STMBench7), extended from the figure's Polka-vs-Greedy pair to all five
/// managers.
pub fn figure9_contention(options: &RunOptions) -> Table {
    contention_table(
        "Contention profile: Figure 9 sweep (RSTM, read-dominated STMBench7)",
        &Benchmark::Bench7(WorkloadMix::read_dominated()),
        |cm| StmVariant::Rstm(rstm::RstmVariant::eager_invisible(), cm),
        &CM_SWEEP,
        options,
    )
}

/// Contention breakdown of the Figure 10 sweep (SwissTM, red-black tree),
/// extended from the figure's two-phase-vs-Greedy pair to all five
/// managers.
pub fn figure10_contention(options: &RunOptions) -> Table {
    contention_table(
        "Contention profile: Figure 10 sweep (SwissTM, red-black tree)",
        &Benchmark::RbTree(RbTreeConfig::paper_default()),
        StmVariant::Swiss,
        &CM_SWEEP,
        options,
    )
}

/// The high-contention profile: SwissTM under all five managers on the
/// three workloads where conflicts dominate — the small red-black tree,
/// write-dominated STMBench7 and the Lee main board.
pub fn profile(options: &RunOptions) -> Vec<Table> {
    let benchmarks: [(&str, Benchmark); 3] = [
        (
            "small red-black tree",
            Benchmark::RbTree(RbTreeConfig::small()),
        ),
        (
            "write-dominated STMBench7",
            Benchmark::Bench7(WorkloadMix::write_dominated()),
        ),
        (
            "Lee main board",
            Benchmark::Lee(LeeConfig::main_board_at(options.profile)),
        ),
    ];
    benchmarks
        .iter()
        .map(|(name, benchmark)| {
            contention_table(
                format!("Contention profile: {name} (SwissTM)"),
                benchmark,
                StmVariant::Swiss,
                &CM_SWEEP,
                options,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_options() -> RunOptions {
        RunOptions {
            max_threads: 2,
            point_duration: Duration::from_millis(25),
            heap_words: 1 << 20,
            lock_table_log2: 12,
            seed: 11,
            ..RunOptions::quick()
        }
    }

    #[test]
    fn contention_table_reports_all_requested_cms() {
        let options = tiny_options();
        let table = contention_table(
            "smoke",
            &Benchmark::RbTree(RbTreeConfig::small()),
            StmVariant::Swiss,
            &[CmChoice::Timid, CmChoice::TwoPhase],
            &options,
        );
        // 2 CMs × 2 thread counts.
        assert_eq!(table.len(), 4);
        assert!(table.headers.iter().any(|h| h == "wait%"));
        assert!(table.headers.iter().any(|h| h == "inflicted"));
        assert!(table.headers.iter().any(|h| h == "upgrade%"));
        assert!(table.headers.iter().any(|h| h == "quiet%"));
        let rendered = table.to_string();
        assert!(rendered.contains("timid"), "{rendered}");
        assert!(rendered.contains("two-phase"), "{rendered}");
    }
}
