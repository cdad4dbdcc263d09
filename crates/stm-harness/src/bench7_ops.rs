//! `repro bench7-ops`: what each STMBench7 operation kind costs on one
//! thread, on every subject of the repo benchmark plus a lock-free
//! reference.
//!
//! One thread runs an operation stream and every operation is timed on its
//! own, so a kind's row is its cost in the mix the benchmark runs: the
//! write-dominated one (`bench7-write-2t`) by default, the read-dominated one
//! (`bench7-read-1t`) with `--mix read`, which draws the same kinds in other
//! proportions and runs the read-only ones log-free on a quiet clock, as
//! the benchmark's one-thread row does. The stream's length comes from `--millis`
//! at [`OPS_PER_MILLI`], not from the clock: structural additions lengthen
//! the composites' part lists as the stream goes on, so only subjects (and
//! a before/after pair of builds) that ran the same operations on the same
//! structure can be compared row by row. The last subject,
//! [`stm_core::testkit::SequentialTm`], has no lock, no log and no
//! validation: what an operation costs there is the workload's own code
//! around its loads and stores, and a kind that is slow *per access* on that
//! row spends its time outside any transactional-memory call.

use std::hint::black_box;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use rstm::{Rstm, RstmVariant};
use stm_core::backoff::FastRng;
use stm_core::naive::NaiveGlobalLockTm;
use stm_core::testkit::SequentialTm;
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_workloads::stmbench7::{
    Bench7Config, Bench7Data, Bench7Workload, OperationKind, WorkloadMix,
};
use swisstm::SwissTm;
use tinystm::TinyStm;
use tl2::Tl2;

use crate::runner::RunOptions;
use crate::table::Table;

const KINDS: usize = OperationKind::ALL.len();

/// Operations per millisecond of `--millis`: about what the slowest subject
/// (TL2) runs at the quick geometry, so the budget is roughly kept.
pub const OPS_PER_MILLI: u64 = 50;

/// The STMBench7 mix `repro bench7-ops` draws its operations from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mix {
    /// `WorkloadMix::read_dominated()`, the mix of `bench7-read-1t`.
    Read,
    /// `WorkloadMix::write_dominated()`, the mix of `bench7-write-2t`.
    #[default]
    Write,
}

impl Mix {
    fn workload_mix(self) -> WorkloadMix {
        match self {
            Mix::Read => WorkloadMix::read_dominated(),
            Mix::Write => WorkloadMix::write_dominated(),
        }
    }
}

impl FromStr for Mix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "read" => Ok(Mix::Read),
            "write" => Ok(Mix::Write),
            other => Err(format!("unknown mix '{other}' (expected read or write)")),
        }
    }
}

/// What the operations of one kind added up to on one subject.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    ops: u64,
    nanos: f64,
    reads: u64,
    writes: u64,
}

impl Tally {
    fn per_op(&self, total: f64) -> Option<f64> {
        (self.ops > 0).then(|| total / self.ops as f64)
    }

    fn nanos_per_access(&self) -> Option<f64> {
        let accesses = self.reads + self.writes;
        (accesses > 0).then(|| self.nanos / accesses as f64)
    }
}

/// One subject's tallies, indexed by `OperationKind as usize`.
type Tallies = [Tally; KINDS];

/// The mean cost of reading the clock.
fn clock_read_nanos() -> f64 {
    const READS: u32 = 10_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

/// Runs the next `ops` operations of the workload's stream, timing each
/// from the end of the one before it.
fn sample<A: TmAlgorithm>(
    workload: &Bench7Workload,
    ctx: &mut ThreadContext<A>,
    rng: &mut FastRng,
    ops: u64,
) -> Tallies {
    let mut tallies = Tallies::default();
    let mut last = Instant::now();
    for _ in 0..ops {
        let kind = workload.mix().pick(rng);
        let (reads, writes) = (ctx.stats().reads, ctx.stats().writes);
        workload.run_operation(ctx, rng, kind);
        let now = Instant::now();
        let tally = &mut tallies[kind as usize];
        tally.ops += 1;
        tally.nanos += (now - last).as_nanos() as f64;
        tally.reads += ctx.stats().reads - reads;
        tally.writes += ctx.stats().writes - writes;
        last = now;
    }
    tallies
}

fn measure<A: TmAlgorithm>(stm: A, options: &RunOptions, mix: Mix, ops: u64) -> Tallies {
    let stm = Arc::new(stm);
    let config = Bench7Config::for_profile(options.profile);
    let data = Bench7Data::build(&stm, config, options.seed);
    let workload = Bench7Workload::new(data, mix.workload_mix());
    let mut ctx = ThreadContext::register(stm);
    let mut rng = FastRng::new(options.seed);
    // Warm-up: caches, the descriptor's logs and the allocator cache.
    sample(&workload, &mut ctx, &mut rng, ops / 10);
    sample(&workload, &mut ctx, &mut rng, ops)
}

/// A table with one row per operation kind and one column per subject.
fn by_subject(
    title: &str,
    caption: String,
    subjects: &[(&str, Tallies)],
    cell: impl Fn(&Tally, &Tallies) -> String,
) -> Table {
    let mut table = Table::new(title, caption)
        .headers(std::iter::once("operation").chain(subjects.iter().map(|(label, _)| *label)));
    for (index, kind) in OperationKind::ALL.iter().enumerate() {
        table.push_row(
            std::iter::once(format!("{kind:?}")).chain(
                subjects
                    .iter()
                    .map(|(_, tallies)| cell(&tallies[index], tallies)),
            ),
        );
    }
    table
}

fn format_or_dash(value: Option<f64>, decimals: usize) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.decimals$}"))
}

/// The three `bench7-ops` tables of `mix`: time per operation, time per
/// transactional access and share of the run's time, each by operation kind
/// and subject.
pub fn bench7_ops(options: &RunOptions, mix: Mix) -> Vec<Table> {
    let config = options.stm_config();
    let ops = (options.point_duration.as_millis() as u64 * OPS_PER_MILLI).max(1);
    let rstm = Rstm::builder()
        .config(config)
        .variant(RstmVariant::eager_invisible())
        .build();
    let mut subjects = [
        (
            "SwissTM",
            measure(SwissTm::builder().config(config).build(), options, mix, ops),
        ),
        (
            "TL2",
            measure(Tl2::builder().config(config).build(), options, mix, ops),
        ),
        (
            "TinySTM",
            measure(TinyStm::builder().config(config).build(), options, mix, ops),
        ),
        ("RSTM", measure(rstm, options, mix, ops)),
        (
            "global-lock",
            measure(NaiveGlobalLockTm::new(config.heap), options, mix, ops),
        ),
        (
            "sequential",
            measure(SequentialTm::new(config.heap), options, mix, ops),
        ),
    ];
    // Every timed interval holds one clock read.
    let clock_nanos = clock_read_nanos();
    for tally in subjects.iter_mut().flat_map(|(_, tallies)| tallies) {
        tally.nanos = (tally.nanos - tally.ops as f64 * clock_nanos).max(0.0);
    }
    let setting = format!(
        "{} mix, 1 thread, the same {ops} operations on every subject, \
         {clock_nanos:.0} ns per clock read subtracted",
        mix.workload_mix().name
    );
    let mut per_op = by_subject(
        "bench7-ops: time per operation",
        format!("ns/op; {setting}; ops %, reads/op, writes/op: the stream's"),
        &subjects,
        |tally, _| format_or_dash(tally.per_op(tally.nanos), 0),
    );
    // Every subject ran the same operations: on one thread nothing aborts,
    // so the operation and access counts are the stream's, shown once.
    let (_, reference) = &subjects[0];
    per_op
        .headers
        .splice(1..1, ["ops %", "reads/op", "writes/op"].map(String::from));
    for (row, tally) in per_op.rows.iter_mut().zip(reference) {
        row.splice(
            1..1,
            [
                format!("{:.1}", 100.0 * tally.ops as f64 / ops as f64),
                format_or_dash(tally.per_op(tally.reads as f64), 1),
                format_or_dash(tally.per_op(tally.writes as f64), 1),
            ],
        );
    }
    vec![
        per_op,
        by_subject(
            "bench7-ops: time per transactional access",
            format!("ns/(reads + writes); {setting}"),
            &subjects,
            |tally, _| format_or_dash(tally.nanos_per_access(), 2),
        ),
        by_subject(
            "bench7-ops: share of the run's time",
            format!("% of the subject's timed nanoseconds; {setting}"),
            &subjects,
            |tally, all| {
                let total: f64 = all.iter().map(|t| t.nanos).sum();
                format!("{:.1}", 100.0 * tally.nanos / total.max(1.0))
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_are_indexed_in_the_order_of_all() {
        for (index, kind) in OperationKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, index);
        }
    }

    #[test]
    fn three_tables_with_a_row_per_kind_and_a_column_per_subject() {
        let options = RunOptions {
            point_duration: std::time::Duration::from_millis(10),
            ..RunOptions::quick()
        };
        let tables = bench7_ops(&options, Mix::Write);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].headers.len(), 1 + 3 + 6);
        for table in &tables {
            assert_eq!(table.len(), KINDS);
            assert!(table.headers.iter().any(|h| h == "sequential"));
        }
        // The update traversal writes: a kind's accesses are counted, and it
        // is where the run's time goes on every subject.
        let update = OperationKind::LongTraversalUpdate as usize;
        let writes: f64 = tables[0].rows[update][3].parse().unwrap();
        assert!(writes > 1000.0, "{writes} writes per update traversal");
        for cell in &tables[2].rows[update][1..] {
            let share: f64 = cell.parse().unwrap();
            assert!(share > 50.0, "update traversals are {share} % of the time");
        }
    }

    #[test]
    fn the_read_mix_is_parsed_and_draws_no_update_traversal_writes() {
        assert_eq!("read".parse::<Mix>(), Ok(Mix::Read));
        assert_eq!("write".parse::<Mix>(), Ok(Mix::Write));
        assert!("both".parse::<Mix>().is_err());
        let options = RunOptions {
            point_duration: std::time::Duration::from_millis(4),
            ..RunOptions::quick()
        };
        let tables = bench7_ops(&options, Mix::Read);
        assert_eq!(tables.len(), 3);
        assert!(
            tables[0].caption.contains("read-dominated"),
            "{}",
            tables[0]
        );
        // The read-only traversal is drawn and writes nothing.
        let traversal = OperationKind::LongTraversalRead as usize;
        let reads: f64 = tables[0].rows[traversal][2].parse().unwrap();
        let writes: f64 = tables[0].rows[traversal][3].parse().unwrap();
        assert!(reads > 1000.0, "{reads} reads per read-only traversal");
        assert_eq!(writes, 0.0);
    }
}
