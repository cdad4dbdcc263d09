//! Smoke test: one tiny experiment through `stm_harness::experiments`, so
//! the full experiment path (variant construction → workload set-up →
//! multi-threaded run → table formatting) is covered by `cargo test` and not
//! only by the `repro` binary.

use std::time::Duration;

use stm_harness::experiments;
use stm_harness::runner::{run_point, Benchmark, CmChoice, RunOptions, StmVariant};
use stm_workloads::rbtree::RbTreeConfig;

fn smoke_options() -> RunOptions {
    RunOptions {
        max_threads: 1,
        point_duration: Duration::from_millis(10),
        heap_words: 1 << 20,
        lock_table_log2: 12,
        seed: 0x51,
        ..RunOptions::quick()
    }
}

#[test]
fn figure5_at_one_thread_produces_a_full_table() {
    let options = smoke_options();
    let table = experiments::figure5(&options);

    // One data row per thread count, one column for threads plus one per STM.
    assert_eq!(table.len(), options.thread_counts().len());
    assert_eq!(table.headers.len(), 1 + StmVariant::paper_defaults().len());
    for row in &table.rows {
        assert_eq!(row.len(), table.headers.len());
        for cell in row {
            assert!(!cell.is_empty(), "table cell left empty: {table}");
        }
    }

    // The rendering must contain every series label (the repro binary prints
    // exactly this string).
    let rendered = table.to_string();
    for variant in StmVariant::paper_defaults() {
        assert!(
            rendered.contains(&variant.label()),
            "series '{}' missing from:\n{rendered}",
            variant.label()
        );
    }
}

#[test]
fn single_data_point_reports_consistent_statistics() {
    let options = smoke_options();
    let result = run_point(
        StmVariant::Swiss(CmChoice::Default),
        &Benchmark::RbTree(RbTreeConfig::small()),
        1,
        &options,
    );
    assert!(result.check_passed);
    assert!(result.operations > 0);
    assert!(result.throughput() > 0.0);
    assert!(result.abort_ratio() >= 0.0 && result.abort_ratio() <= 1.0);
}
