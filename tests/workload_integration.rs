//! Integration tests spanning the workloads and the STM implementations:
//! short end-to-end runs of every benchmark family on more than one STM.

use std::sync::Arc;
use std::time::Duration;

use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
use stm_core::tm::ThreadContext;
use stm_workloads::driver::{run_workload, RunLength};
use stm_workloads::lee::{LeeConfig, LeeWorkload};
use stm_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};
use stm_workloads::stamp::StampApp;
use stm_workloads::stmbench7::{Bench7Config, Bench7Data, Bench7Workload, WorkloadMix};

use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

fn config() -> StmConfig {
    StmConfig {
        heap: HeapConfig::with_words(1 << 21),
        lock_table: LockTableConfig::small(),
        clock: stm_core::config::ClockMode::Strict,
    }
}

#[test]
fn stmbench7_all_three_mixes_run_on_swisstm() {
    for mix in [
        WorkloadMix::read_dominated(),
        WorkloadMix::read_write(),
        WorkloadMix::write_dominated(),
    ] {
        let stm = Arc::new(SwissTm::with_config(config()));
        let data = Bench7Data::build(&stm, Bench7Config::tiny(), 11);
        let workload = Arc::new(Bench7Workload::new(data, mix));
        let result = run_workload(stm, workload, 3, RunLength::OpsPerThread(40), 3);
        assert_eq!(result.operations, 120);
    }
}

#[test]
fn stmbench7_throughput_mode_runs_on_tl2() {
    let stm = Arc::new(Tl2::with_config(config()));
    let data = Bench7Data::build(&stm, Bench7Config::tiny(), 13);
    let workload = Arc::new(Bench7Workload::new(data, WorkloadMix::read_dominated()));
    let result = run_workload(
        stm,
        workload,
        2,
        RunLength::Duration(Duration::from_millis(60)),
        5,
    );
    assert!(result.operations > 0);
}

#[test]
fn lee_routes_the_same_netlist_on_swisstm_and_tinystm() {
    let config_lee = LeeConfig::tiny();

    let swiss = Arc::new(SwissTm::with_config(config()));
    let workload = LeeWorkload::setup(&swiss, config_lee, 21);
    run_workload(
        Arc::clone(&swiss),
        Arc::clone(&workload),
        2,
        RunLength::TotalOps(config_lee.routes as u64),
        1,
    );
    let mut ctx = ThreadContext::register(swiss);
    let routed_swiss = workload.routed(&mut ctx);

    let tiny = Arc::new(TinyStm::with_config(config()));
    let workload = LeeWorkload::setup(&tiny, config_lee, 21);
    run_workload(
        Arc::clone(&tiny),
        Arc::clone(&workload),
        2,
        RunLength::TotalOps(config_lee.routes as u64),
        1,
    );
    let mut ctx = ThreadContext::register(tiny);
    let routed_tiny = workload.routed(&mut ctx);

    // The exact count can differ by a route or two depending on the
    // interleaving (a blocked cell may make an alternative route
    // unroutable), but both STMs must route a substantial part of the
    // netlist.
    assert!(routed_swiss > 0 && routed_tiny > 0);
}

#[test]
fn irregular_lee_still_produces_consistent_grids() {
    let stm = Arc::new(SwissTm::with_config(config()));
    let lee_config = LeeConfig::tiny().with_irregular_updates(20);
    let workload = LeeWorkload::setup(&stm, lee_config, 5);
    run_workload(stm, workload, 3, RunLength::TotalOps(24), 9);
}

#[test]
fn rbtree_microbenchmark_runs_on_all_stms_with_updates() {
    let config_tree = RbTreeConfig {
        key_range: 256,
        update_percent: 50,
        initial_size: 128,
    };
    let swiss = Arc::new(SwissTm::with_config(config()));
    let workload = RbTreeWorkload::setup(&swiss, config_tree, 3);
    run_workload(swiss, workload, 4, RunLength::OpsPerThread(200), 3);

    let tl2 = Arc::new(Tl2::with_config(config()));
    let workload = RbTreeWorkload::setup(&tl2, config_tree, 3);
    run_workload(tl2, workload, 4, RunLength::OpsPerThread(200), 3);

    let tiny = Arc::new(TinyStm::with_config(config()));
    let workload = RbTreeWorkload::setup(&tiny, config_tree, 3);
    run_workload(tiny, workload, 4, RunLength::OpsPerThread(200), 3);

    let rstm = Arc::new(rstm::Rstm::with_config(config()));
    let workload = RbTreeWorkload::setup(&rstm, config_tree, 3);
    run_workload(rstm, workload, 4, RunLength::OpsPerThread(200), 3);
}

#[test]
fn a_stamp_subset_runs_on_swisstm_and_tl2() {
    for app in [
        StampApp::KmeansHigh,
        StampApp::VacationLow,
        StampApp::Genome,
        StampApp::Ssca2,
    ] {
        let stm = Arc::new(SwissTm::with_config(config()));
        let workload = app.build(&stm, 7);
        run_workload(stm, workload, 2, RunLength::TotalOps(32), 5);

        let stm = Arc::new(Tl2::with_config(config()));
        let workload = app.build(&stm, 7);
        run_workload(stm, workload, 2, RunLength::TotalOps(32), 5);
    }
}
