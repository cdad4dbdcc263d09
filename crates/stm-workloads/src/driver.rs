//! The multi-threaded benchmark driver.
//!
//! The paper measures either *throughput* (transactions per second over a
//! fixed wall-clock interval — STMBench7, red-black tree) or *execution
//! time* (time to complete a fixed amount of work — Lee-TM, STAMP). The
//! driver supports both through [`RunLength`].

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use stm_core::backoff::FastRng;
use stm_core::config::{ClockMode, TableLayout};
use stm_core::stats::{StatsAggregate, TxStats};
use stm_core::sync::{AtomicBool, AtomicU64, Ordering};
use stm_core::tm::{ThreadContext, TmAlgorithm};

/// A benchmark workload: a shared, thread-safe description of the data
/// structure plus an `execute` method performing one application-level
/// operation (usually one transaction, sometimes a couple).
pub trait Workload<A: TmAlgorithm>: Send + Sync {
    /// Executes one operation on behalf of the calling thread.
    ///
    /// `op_index` is a per-thread operation counter; `rng` is a per-thread
    /// deterministic generator.
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, op_index: u64);

    /// Human-readable workload name.
    fn name(&self) -> String;

    /// Optional post-run consistency check (run single-threaded). Returning
    /// `false` fails the benchmark run's sanity assertion.
    fn check(&self, _ctx: &mut ThreadContext<A>) -> bool {
        true
    }

    /// Optional per-thread setup, called after the worker has registered its
    /// [`ThreadContext`] but *before* the start barrier: whatever happens
    /// here (warm-up, allocation) is excluded from the measurement
    /// window.
    fn on_thread_start(&self, _thread_index: usize) {}
}

/// How long a benchmark run lasts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunLength {
    /// Each thread executes exactly this many operations (execution-time
    /// style measurements: Lee-TM, STAMP).
    OpsPerThread(u64),
    /// All threads run until the wall-clock duration elapses (throughput
    /// style measurements: STMBench7, red-black tree).
    Duration(Duration),
    /// The threads collectively execute this many operations, claimed from a
    /// shared counter (used when the work list is global, e.g. Lee-TM
    /// routes).
    TotalOps(u64),
}

/// Full specification of one benchmark run: how long it runs, how it is
/// seeded, and which runtime configuration knobs were active.
///
/// `clock` and `table_layout` describe the STM instance the caller built —
/// the driver records them verbatim into [`RunResult`] so every measured
/// point is self-describing (the driver itself only sees the instance
/// through [`TmAlgorithm`] and cannot read its configuration back).
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Number of worker threads.
    pub threads: usize,
    /// How long the run lasts.
    pub length: RunLength,
    /// Seed for the per-thread operation streams.
    pub seed: u64,
    /// Commit-clock mode the STM instance was built with.
    pub clock: ClockMode,
    /// Lock-table layout the STM instance was built with.
    pub table_layout: TableLayout,
}

impl RunSpec {
    /// A spec with the default runtime knobs (strict clock, flat lock
    /// table).
    pub fn new(threads: usize, length: RunLength, seed: u64) -> Self {
        RunSpec {
            threads,
            length,
            seed,
            clock: ClockMode::Strict,
            table_layout: TableLayout::Flat,
        }
    }

    /// Returns a copy recording a different commit-clock mode.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Returns a copy recording a different lock-table layout.
    pub fn with_table_layout(mut self, table_layout: TableLayout) -> Self {
        self.table_layout = table_layout;
        self
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Aggregated transaction statistics.
    pub stats: StatsAggregate,
    /// Number of application-level operations executed.
    pub operations: u64,
    /// Wall-clock time of the measured interval.
    pub elapsed: Duration,
    /// Whether the workload's consistency check passed.
    pub check_passed: bool,
    /// Seed the run's operation streams were drawn from ([`RunSpec::seed`]).
    pub seed: u64,
    /// Commit-clock mode recorded for this run ([`RunSpec::clock`]).
    pub clock: ClockMode,
    /// Lock-table layout recorded for this run ([`RunSpec::table_layout`]).
    pub table_layout: TableLayout,
}

impl RunResult {
    /// Application-level operations per second.
    pub fn ops_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / secs
        }
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput()
    }

    /// Abort ratio across all threads.
    pub fn abort_ratio(&self) -> f64 {
        self.stats.abort_ratio()
    }

    /// Fraction of total thread-time spent in CM wait loops (contention
    /// telemetry; see [`stm_core::stats::StatsAggregate::wait_share`]).
    pub fn wait_share(&self) -> f64 {
        self.stats.wait_share()
    }

    /// Fraction of total thread-time spent spinning in back-off (contention
    /// telemetry; see [`stm_core::stats::StatsAggregate::backoff_share`]).
    pub fn backoff_share(&self) -> f64 {
        self.stats.backoff_share()
    }
}

/// Runs `workload` on `threads` threads and collects statistics.
///
/// Each thread registers a [`ThreadContext`], runs the workload's
/// [`Workload::on_thread_start`] setup, draws a deterministic RNG seeded
/// from `seed` and its thread index, and then blocks on a start barrier: no
/// worker executes an operation until *every* worker has registered. The
/// measurement window opens when the barrier releases.
///
/// `elapsed` is measured on the workers' own clocks for every run mode:
/// the earliest worker's barrier release to the last worker's loop end.
/// This is exactly the interval the counted operations span — thread
/// creation, registration and join overhead never pollute it, and (unlike
/// a window sampled by the main thread) it cannot be skewed by the timer
/// thread being scheduled late on an oversubscribed machine. For
/// [`RunLength::Duration`] runs the main thread still acts as the timer
/// (sleep, then raise the stop flag), so `elapsed` is the requested
/// duration plus the in-flight tail of operations that were already
/// counted when the flag landed.
///
/// # Panics
///
/// Panics if a worker thread panics or the workload's consistency check
/// fails.
pub fn run_workload<A, W>(
    stm: Arc<A>,
    workload: Arc<W>,
    threads: usize,
    length: RunLength,
    seed: u64,
) -> RunResult
where
    A: TmAlgorithm,
    W: Workload<A> + ?Sized + 'static,
{
    run_workload_spec(stm, workload, &RunSpec::new(threads, length, seed))
}

/// Runs `workload` under a full [`RunSpec`] and collects statistics.
///
/// This is the fully specified entry point the harness uses: besides the
/// thread count, run length and seed, the spec carries the commit-clock
/// mode and lock-table layout of the STM instance so the returned
/// [`RunResult`] describes the complete configuration the numbers were
/// measured under.
pub fn run_workload_spec<A, W>(stm: Arc<A>, workload: Arc<W>, spec: &RunSpec) -> RunResult
where
    A: TmAlgorithm,
    W: Workload<A> + ?Sized + 'static,
{
    let threads = spec.threads;
    let length = spec.length;
    let seed = spec.seed;
    assert!(threads > 0, "at least one thread is required");
    let stop = Arc::new(AtomicBool::new(false));
    let shared_ops = Arc::new(AtomicU64::new(0));
    // Workers + the main (timer) thread all meet at the start barrier.
    let barrier = Arc::new(Barrier::new(threads + 1));

    /// Guarantees the barrier is reached even if per-thread setup panics:
    /// the main thread is parked on the barrier, and a missing participant
    /// would otherwise turn the panic into a deadlock instead of a
    /// propagated join error.
    struct BarrierGuard {
        barrier: Arc<Barrier>,
        armed: bool,
    }

    impl BarrierGuard {
        fn wait(mut self) {
            self.armed = false;
            self.barrier.wait();
        }
    }

    impl Drop for BarrierGuard {
        fn drop(&mut self) {
            if self.armed {
                self.barrier.wait();
            }
        }
    }

    type WorkerSample = (TxStats, u64, Instant, Instant);
    let (per_thread, elapsed): (Vec<WorkerSample>, Duration) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for thread_index in 0..threads {
            let stm = Arc::clone(&stm);
            let workload = Arc::clone(&workload);
            let stop = Arc::clone(&stop);
            let shared_ops = Arc::clone(&shared_ops);
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let release = BarrierGuard {
                    barrier: Arc::clone(&barrier),
                    armed: true,
                };
                let mut ctx = ThreadContext::register(stm);
                workload.on_thread_start(thread_index);
                let mut rng =
                    FastRng::new(seed ^ (thread_index as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
                release.wait();
                // Each worker samples its own window edges: on an
                // oversubscribed machine the workers can run (or a
                // small fixed-work run even finish) before the main
                // thread is scheduled again, so the main thread's
                // clock cannot bound the window the counted
                // operations actually span.
                let started_at = Instant::now();
                let mut executed = 0u64;
                match length {
                    RunLength::OpsPerThread(ops) => {
                        for op_index in 0..ops {
                            workload.execute(&mut ctx, &mut rng, op_index);
                            executed += 1;
                        }
                    }
                    RunLength::Duration(_) => {
                        let mut op_index = 0u64;
                        // sync: Relaxed — the stop flag only ends the
                        // measurement window; the worker's results are
                        // published by the join, not by this load.
                        while !stop.load(Ordering::Relaxed) {
                            workload.execute(&mut ctx, &mut rng, op_index);
                            executed += 1;
                            op_index += 1;
                        }
                    }
                    RunLength::TotalOps(total) => loop {
                        // sync: Relaxed RMW — indices must be unique
                        // (atomicity), but no payload rides on the counter.
                        let op_index = shared_ops.fetch_add(1, Ordering::Relaxed);
                        if op_index >= total {
                            break;
                        }
                        workload.execute(&mut ctx, &mut rng, op_index);
                        executed += 1;
                    },
                }
                let finished_at = Instant::now();
                (ctx.take_stats(), executed, started_at, finished_at)
            }));
        }

        // Release the workers; the measurement window opens here.
        barrier.wait();
        if let RunLength::Duration(duration) = length {
            // The main thread is only the timer; the window itself is
            // measured by the workers' clocks below.
            std::thread::sleep(duration);
            // sync: Relaxed — see the worker-side load above.
            stop.store(true, Ordering::Relaxed);
        }

        let per_thread: Vec<WorkerSample> = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker thread panicked"))
            .collect();
        // The window spans the earliest worker's barrier release to the
        // last worker's loop end — the exact interval the counted
        // operations executed in.
        let first_start = per_thread
            .iter()
            .map(|&(_, _, started_at, _)| started_at)
            .min();
        let last_finish = per_thread
            .iter()
            .map(|&(_, _, _, finished_at)| finished_at)
            .max();
        let elapsed = match (first_start, last_finish) {
            (Some(start), Some(finish)) => finish.saturating_duration_since(start),
            _ => Duration::ZERO,
        };
        (per_thread, elapsed)
    });

    let operations = per_thread.iter().map(|(_, ops, _, _)| ops).sum();
    let stats = StatsAggregate::collect(per_thread.iter().map(|(s, _, _, _)| s), elapsed);

    // Post-run consistency check on a fresh context.
    let mut checker = ThreadContext::register(stm);
    let check_passed = workload.check(&mut checker);
    assert!(
        check_passed,
        "workload '{}' failed its post-run consistency check",
        workload.name()
    );

    RunResult {
        stats,
        operations,
        elapsed,
        check_passed,
        seed,
        clock: spec.clock,
        table_layout: spec.table_layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::HeapConfig;
    use stm_core::naive::NaiveGlobalLockTm;
    use stm_core::sync::AtomicUsize;
    use stm_core::word::Addr;

    struct CounterWorkload {
        addr: Addr,
    }

    impl Workload<NaiveGlobalLockTm> for CounterWorkload {
        fn execute(
            &self,
            ctx: &mut ThreadContext<NaiveGlobalLockTm>,
            _rng: &mut FastRng,
            _op: u64,
        ) {
            ctx.atomically(|tx| {
                let v = tx.read(self.addr)?;
                tx.write(self.addr, v + 1)
            })
            .unwrap();
        }

        fn name(&self) -> String {
            "counter".into()
        }

        fn check(&self, ctx: &mut ThreadContext<NaiveGlobalLockTm>) -> bool {
            ctx.read_word(self.addr).unwrap() > 0
        }
    }

    fn setup() -> (Arc<NaiveGlobalLockTm>, Arc<CounterWorkload>) {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        (stm, Arc::new(CounterWorkload { addr }))
    }

    #[test]
    fn ops_per_thread_executes_exact_count() {
        let (stm, workload) = setup();
        let result = run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            3,
            RunLength::OpsPerThread(100),
            42,
        );
        assert_eq!(result.operations, 300);
        assert_eq!(stm.heap().load(workload.addr), 300);
        assert!(result.check_passed);
        assert!(result.ops_per_second() > 0.0);
    }

    #[test]
    fn total_ops_splits_work_between_threads() {
        let (stm, workload) = setup();
        let result = run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            4,
            RunLength::TotalOps(200),
            1,
        );
        assert_eq!(result.operations, 200);
        assert_eq!(stm.heap().load(workload.addr), 200);
    }

    /// The contention telemetry flows from the per-thread contexts through
    /// `take_stats` into the aggregated `RunResult`: the retry histogram
    /// accounts for every commit, and the share metrics are well-formed.
    #[test]
    fn run_result_carries_contention_telemetry() {
        let (stm, workload) = setup();
        let result = run_workload(stm, workload, 2, RunLength::OpsPerThread(50), 3);
        let totals = &result.stats.totals;
        assert_eq!(
            totals.retries.total(),
            totals.commits,
            "every commit lands in exactly one retry-depth bucket"
        );
        assert!(result.wait_share() >= 0.0);
        assert!(result.backoff_share() >= 0.0);
        // Wait time can never exceed the total thread-time of the window.
        let thread_time_nanos = result.elapsed.as_nanos() as u64 * 2;
        assert!(totals.contention.cm_wait_nanos <= thread_time_nanos);
    }

    #[test]
    fn duration_run_terminates_and_reports_throughput() {
        let (stm, workload) = setup();
        let result = run_workload(
            stm,
            workload,
            2,
            RunLength::Duration(Duration::from_millis(50)),
            7,
        );
        assert!(result.operations > 0);
        assert!(result.throughput() > 0.0);
        assert!(result.elapsed >= Duration::from_millis(50));
    }

    /// A counter workload whose per-thread setup is artificially slow: the
    /// regression stand-in for expensive thread registration. The measured
    /// window must not include it.
    struct SlowStartWorkload {
        inner: CounterWorkload,
        startup_delay: Duration,
        registered: AtomicUsize,
        threads: usize,
        saw_unregistered_peer: AtomicBool,
    }

    impl Workload<NaiveGlobalLockTm> for SlowStartWorkload {
        fn execute(&self, ctx: &mut ThreadContext<NaiveGlobalLockTm>, rng: &mut FastRng, op: u64) {
            // sync: SeqCst — regression test flags; strongest ordering so
            // the assertion can't be blamed on the counters themselves.
            if self.registered.load(Ordering::SeqCst) != self.threads {
                self.saw_unregistered_peer.store(true, Ordering::SeqCst);
            }
            self.inner.execute(ctx, rng, op);
        }

        fn name(&self) -> String {
            "slow-start counter".into()
        }

        fn on_thread_start(&self, thread_index: usize) {
            // Stagger the delays so late threads register visibly later, as
            // a slow spawn tail would.
            std::thread::sleep(self.startup_delay * (thread_index as u32));
            // sync: SeqCst — regression test counter, see execute().
            self.registered.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn slow_start_setup(
        threads: usize,
        startup_delay: Duration,
    ) -> (Arc<NaiveGlobalLockTm>, Arc<SlowStartWorkload>) {
        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let workload = SlowStartWorkload {
            inner: CounterWorkload { addr },
            startup_delay,
            registered: AtomicUsize::new(0),
            threads,
            saw_unregistered_peer: AtomicBool::new(false),
        };
        (stm, Arc::new(workload))
    }

    /// Regression test for the measurement-window bug: `elapsed` used to
    /// span spawn-to-join, so slow per-thread start-up (registration) was
    /// charged to the measured interval. With four threads staggering their
    /// start-up by 40 ms each (120 ms for the last), the old measurement
    /// reported ≥ 170 ms for a 50 ms point; the post-barrier window stays
    /// within a tight tolerance of the requested duration.
    #[test]
    fn duration_elapsed_excludes_thread_startup_time() {
        let duration = Duration::from_millis(50);
        let (stm, workload) = slow_start_setup(4, Duration::from_millis(40));
        let result = run_workload(
            stm,
            Arc::clone(&workload),
            4,
            RunLength::Duration(duration),
            5,
        );
        assert!(
            result.elapsed >= duration - Duration::from_millis(25),
            "elapsed {:?}",
            result.elapsed
        );
        assert!(
            result.elapsed < duration + Duration::from_millis(100),
            "elapsed {:?} should stay close to the requested {:?} window \
             even though thread start-up took 120 ms",
            result.elapsed,
            duration
        );
        // The stats aggregate must use the same measured window.
        assert_eq!(result.stats.elapsed, result.elapsed);
    }

    /// Same regression with many threads: sixteen workers whose staggered
    /// start-up tail (10 ms × 15 = 150 ms) dwarfs the 50 ms point. The old
    /// spawn-to-join measurement grew with the thread count; the
    /// barrier-to-stop window must not.
    #[test]
    fn duration_elapsed_is_tight_with_many_threads() {
        let duration = Duration::from_millis(50);
        let (stm, workload) = slow_start_setup(16, Duration::from_millis(10));
        let result = run_workload(
            stm,
            Arc::clone(&workload),
            16,
            RunLength::Duration(duration),
            9,
        );
        // The window is measured on the workers' clocks, so scheduling on a
        // loaded box can shift it a little either way relative to the timer
        // thread's sleep; the regression being pinned is the 150 ms
        // start-up tail leaking in, which would push elapsed past 200 ms.
        assert!(
            result.elapsed >= duration - Duration::from_millis(25),
            "elapsed {:?}",
            result.elapsed
        );
        assert!(
            result.elapsed < duration + Duration::from_millis(100),
            "elapsed {:?} must not grow with the 150 ms start-up tail of 16 \
             threads",
            result.elapsed
        );
    }

    /// A worker panicking during per-thread setup (registration or
    /// `on_thread_start`) must propagate as a join panic — the barrier
    /// guard releases the other participants, so the panic cannot turn
    /// into a deadlock of the start barrier.
    #[test]
    #[should_panic(expected = "benchmark worker thread panicked")]
    fn worker_panic_during_setup_propagates_instead_of_deadlocking() {
        struct PanickyStart {
            inner: CounterWorkload,
        }

        impl Workload<NaiveGlobalLockTm> for PanickyStart {
            fn execute(
                &self,
                ctx: &mut ThreadContext<NaiveGlobalLockTm>,
                rng: &mut FastRng,
                op: u64,
            ) {
                self.inner.execute(ctx, rng, op);
            }

            fn name(&self) -> String {
                "panicky-start counter".into()
            }

            fn on_thread_start(&self, thread_index: usize) {
                if thread_index == 1 {
                    panic!("per-thread setup failed");
                }
            }
        }

        let stm = Arc::new(NaiveGlobalLockTm::new(HeapConfig::small()));
        let addr = stm.heap().alloc_zeroed(1).unwrap();
        let workload = Arc::new(PanickyStart {
            inner: CounterWorkload { addr },
        });
        run_workload(stm, workload, 2, RunLength::OpsPerThread(4), 1);
    }

    /// The start barrier: no worker may execute an operation until every
    /// worker has registered. Without the barrier, thread 0 runs alone for
    /// the whole (staggered, 120 ms) spawn tail and trips the flag.
    #[test]
    fn no_worker_executes_before_all_threads_registered() {
        let (stm, workload) = slow_start_setup(4, Duration::from_millis(40));
        let result = run_workload(
            stm,
            Arc::clone(&workload),
            4,
            RunLength::OpsPerThread(200),
            5,
        );
        assert_eq!(result.operations, 800);
        assert!(
            // sync: SeqCst — regression test flag, see execute().
            !workload.saw_unregistered_peer.load(Ordering::SeqCst),
            "a worker executed operations before all threads were registered"
        );
    }

    /// Every `RunResult` is self-describing: the seed and the runtime
    /// configuration knobs (clock mode and table layout)
    /// land in the result exactly as specified, so a perf-snapshot point
    /// built from it can be reproduced without out-of-band context.
    #[test]
    fn run_result_records_seed_and_config_knobs() {
        let (stm, workload) = setup();
        let result = run_workload(
            Arc::clone(&stm),
            Arc::clone(&workload),
            2,
            RunLength::OpsPerThread(10),
            0xfeed,
        );
        // The convenience wrapper records the defaults.
        assert_eq!(result.seed, 0xfeed);
        assert_eq!(result.clock, ClockMode::Strict);
        assert_eq!(result.table_layout, TableLayout::Flat);

        // A full spec threads every knob through verbatim.
        let spec = RunSpec::new(2, RunLength::OpsPerThread(10), 77)
            .with_clock(ClockMode::Deferred)
            .with_table_layout(TableLayout::PaddedMixed);
        let result = run_workload_spec(stm, workload, &spec);
        assert_eq!(result.seed, 77);
        assert_eq!(result.clock, ClockMode::Deferred);
        assert_eq!(result.table_layout, TableLayout::PaddedMixed);
    }

    /// Fixed-work runs measure from barrier release to the last worker's
    /// loop end, so the staggered start-up cannot inflate execution time.
    #[test]
    fn ops_run_elapsed_excludes_thread_startup_time() {
        let (stm, workload) = slow_start_setup(3, Duration::from_millis(50));
        let result = run_workload(stm, workload, 3, RunLength::TotalOps(60), 5);
        assert_eq!(result.operations, 60);
        // The window is measured by the workers' own clocks, so it can
        // never collapse to zero (which would blow up ops/s ratios) even if
        // the run outpaces the main thread's scheduling.
        assert!(result.elapsed > Duration::ZERO);
        assert!(result.ops_per_second() > 0.0);
        assert!(
            result.elapsed < Duration::from_millis(100),
            "60 trivial counter increments cannot take {:?}; the 100 ms \
             start-up tail leaked into the execution-time window",
            result.elapsed
        );
    }
}
