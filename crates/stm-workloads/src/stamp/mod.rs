//! STAMP-style application kernels (paper Figure 3 and Figure 11).
//!
//! STAMP (Stanford Transactional Applications for Multi-Processing) is a
//! suite of eight applications / ten workloads. The reproduction keeps each
//! application's *transactional* structure — what a transaction reads and
//! writes, how long it is, and where the contention hot spots are — while
//! simplifying the non-transactional computation around it (see DESIGN.md
//! §2):
//!
//! | kernel | transactional behaviour reproduced |
//! |---|---|
//! | [`bayes`] | long transactions querying a dependency graph and inserting edges |
//! | [`genome`] | hash-set deduplication of segments followed by chain linking |
//! | [`intruder`] | a shared work queue (hot spot) plus per-flow reassembly maps |
//! | [`kmeans`] | tiny update transactions on a small set of cluster centres (high/low contention) |
//! | [`labyrinth`] | Lee-style routing on a grid (large read set, small write set) |
//! | [`ssca2`] | very small transactions appending edges to adjacency lists |
//! | [`vacation`] | mid-size transactions over red-black-tree tables (high/low contention) |
//! | [`yada`] | worklist-driven mesh refinement with neighbourhood rewrites |
//!
//! [`StampApp`] enumerates the ten workloads exactly as Figure 3 lists them.

pub mod bayes;
pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod ssca2;
pub mod vacation;
pub mod yada;

use std::sync::Arc;

use stm_core::tm::TmAlgorithm;

use crate::driver::Workload;
use crate::profile::SizeProfile;

/// The ten STAMP workloads of the paper's Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StampApp {
    /// Bayesian network structure learning.
    Bayes,
    /// Gene sequencing (segment deduplication + overlap matching).
    Genome,
    /// Network intrusion detection (packet reassembly).
    Intruder,
    /// K-means clustering, high contention (few clusters).
    KmeansHigh,
    /// K-means clustering, low contention (many clusters).
    KmeansLow,
    /// Maze routing (the STAMP variant of Lee's algorithm).
    Labyrinth,
    /// Scalable synthetic graph kernel (edge insertion).
    Ssca2,
    /// Travel reservation system, high contention.
    VacationHigh,
    /// Travel reservation system, low contention.
    VacationLow,
    /// Delaunay mesh refinement.
    Yada,
}

impl StampApp {
    /// All ten workloads in the order Figure 3 lists them.
    pub fn all() -> [StampApp; 10] {
        [
            StampApp::Bayes,
            StampApp::Genome,
            StampApp::Intruder,
            StampApp::KmeansHigh,
            StampApp::KmeansLow,
            StampApp::Labyrinth,
            StampApp::Ssca2,
            StampApp::VacationHigh,
            StampApp::VacationLow,
            StampApp::Yada,
        ]
    }

    /// The label used in the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            StampApp::Bayes => "bayes",
            StampApp::Genome => "genome",
            StampApp::Intruder => "intruder",
            StampApp::KmeansHigh => "kmeans-high",
            StampApp::KmeansLow => "kmeans-low",
            StampApp::Labyrinth => "labyrinth",
            StampApp::Ssca2 => "ssca2",
            StampApp::VacationHigh => "vacation-high",
            StampApp::VacationLow => "vacation-low",
            StampApp::Yada => "yada",
        }
    }

    /// Number of fixed-work operations that constitute one "run" of this
    /// workload at the given size profile (scaled so every app finishes in
    /// a comparable time within a profile).
    pub fn ops_at(self, profile: SizeProfile) -> u64 {
        let full = match self {
            StampApp::Bayes => 400,
            StampApp::Genome => 4_000,
            StampApp::Intruder => 4_000,
            StampApp::KmeansHigh | StampApp::KmeansLow => 8_000,
            StampApp::Labyrinth => 96,
            StampApp::Ssca2 => 8_000,
            StampApp::VacationHigh | StampApp::VacationLow => 2_000,
            StampApp::Yada => 2_000,
        };
        profile.pick((full / 10).max(8), full, full * 4)
    }

    /// Builds the workload for this app on the given STM instance with the
    /// quick-profile dataset (pair with [`StampApp::ops_at`] at
    /// [`SizeProfile::Quick`]; use [`StampApp::build_at`] to pick another
    /// profile).
    pub fn build<A: TmAlgorithm>(self, stm: &Arc<A>, seed: u64) -> Arc<dyn Workload<A>> {
        self.build_at(stm, seed, SizeProfile::Quick)
    }

    /// Builds the workload for this app with the dataset geometry of the
    /// given size profile.
    ///
    /// The returned object is ready to be passed to
    /// [`crate::driver::run_workload`].
    pub fn build_at<A: TmAlgorithm>(
        self,
        stm: &Arc<A>,
        seed: u64,
        profile: SizeProfile,
    ) -> Arc<dyn Workload<A>> {
        match self {
            StampApp::Bayes => {
                bayes::BayesWorkload::setup(stm, bayes::BayesConfig::for_profile(profile), seed)
            }
            StampApp::Genome => {
                genome::GenomeWorkload::setup(stm, genome::GenomeConfig::for_profile(profile), seed)
            }
            StampApp::Intruder => intruder::IntruderWorkload::setup(
                stm,
                intruder::IntruderConfig::for_profile(profile),
                seed,
            ),
            StampApp::KmeansHigh => kmeans::KmeansWorkload::setup(
                stm,
                kmeans::KmeansConfig::high_contention_at(profile),
                seed,
            ),
            StampApp::KmeansLow => kmeans::KmeansWorkload::setup(
                stm,
                kmeans::KmeansConfig::low_contention_at(profile),
                seed,
            ),
            StampApp::Labyrinth => labyrinth::LabyrinthWorkload::setup(
                stm,
                labyrinth::LabyrinthConfig::for_profile(profile),
                seed,
            ),
            StampApp::Ssca2 => {
                ssca2::Ssca2Workload::setup(stm, ssca2::Ssca2Config::for_profile(profile), seed)
            }
            StampApp::VacationHigh => vacation::VacationWorkload::setup(
                stm,
                vacation::VacationConfig::high_contention_at(profile),
                seed,
            ),
            StampApp::VacationLow => vacation::VacationWorkload::setup(
                stm,
                vacation::VacationConfig::low_contention_at(profile),
                seed,
            ),
            StampApp::Yada => {
                yada::YadaWorkload::setup(stm, yada::YadaConfig::for_profile(profile), seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunLength};
    use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
    use swisstm::SwissTm;
    use tl2::Tl2;

    fn config() -> StmConfig {
        StmConfig {
            heap: HeapConfig::with_words(1 << 21),
            lock_table: LockTableConfig::small(),
            clock: stm_core::config::ClockMode::Strict,
        }
    }

    #[test]
    fn labels_are_distinct_and_ten_workloads_exist() {
        let apps = StampApp::all();
        assert_eq!(apps.len(), 10);
        let mut labels: Vec<_> = apps.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn ops_scale_with_the_profile() {
        for app in StampApp::all() {
            assert!(app.ops_at(SizeProfile::Quick) < app.ops_at(SizeProfile::Full));
            assert!(app.ops_at(SizeProfile::Full) < app.ops_at(SizeProfile::Huge));
        }
        assert_eq!(StampApp::Genome.ops_at(SizeProfile::Quick), 400);
        assert_eq!(StampApp::Labyrinth.ops_at(SizeProfile::Quick), 9);
        assert_eq!(StampApp::Genome.ops_at(SizeProfile::Full), 4_000);
    }

    #[test]
    fn every_app_runs_briefly_on_swisstm() {
        for app in StampApp::all() {
            let stm = Arc::new(SwissTm::with_config(config()));
            let workload = app.build(&stm, 42);
            let result = run_workload(stm, workload, 2, RunLength::TotalOps(24), 7);
            assert!(result.totals.commits > 0, "{}", app.label());
        }
    }

    #[test]
    fn every_app_runs_briefly_on_tl2() {
        for app in StampApp::all() {
            let stm = Arc::new(Tl2::with_config(config()));
            let workload = app.build(&stm, 42);
            run_workload(stm, workload, 2, RunLength::TotalOps(24), 7);
        }
    }

    #[test]
    fn every_app_runs_briefly_on_tinystm() {
        for app in StampApp::all() {
            let stm = Arc::new(tinystm::TinyStm::with_config(config()));
            let workload = app.build(&stm, 42);
            let result = run_workload(stm, workload, 2, RunLength::TotalOps(24), 7);
            assert_eq!(result.operations, 24, "{}", app.label());
        }
    }

    #[test]
    fn every_app_runs_briefly_on_rstm() {
        for app in StampApp::all() {
            let stm = Arc::new(rstm::Rstm::with_config(config()));
            let workload = app.build(&stm, 42);
            let result = run_workload(stm, workload, 2, RunLength::TotalOps(24), 7);
            assert_eq!(result.operations, 24, "{}", app.label());
        }
    }
}
