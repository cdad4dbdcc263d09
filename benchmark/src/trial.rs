//! One trial, run in a child process of its own: build a fresh STM and the
//! workload's data, warm up, run a fixed number of operations per thread in
//! a closed loop, check the data, print one JSON record.

use std::io::Write as _;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use stm_core::backoff::FastRng;
use stm_core::clock::ThreadSlot;
use stm_core::pad::CachePadded;
use stm_core::stats::TxStats;
use stm_core::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use stm_core::tm::{ThreadContext, TmAlgorithm};
use stm_workloads::driver::Workload;

use crate::json::Value;
use crate::spec::{with_subject, Job, WorkloadSpec};
use crate::traced::{self, Sink, ThreadTrace, TracedTm, KINDS};

/// Fault injection for the benchmark's own acceptance tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    None,
    /// Never finish: the watchdog has to kill the child.
    Hang,
    /// Report a failed `Workload::check`.
    CheckFail,
}

#[derive(Clone, Debug)]
pub struct TrialArgs {
    pub workload: &'static WorkloadSpec,
    pub subject: String,
    pub seed: u64,
    pub ops_per_thread: u64,
    pub traced: bool,
    /// Where the traced pass writes its spans.
    pub trace_out: Option<String>,
    pub hook: Hook,
}

/// Every 16th operation carries child spans; the one eight later is timed
/// as a whole with no child spans, so latency percentiles do not include
/// the clock reads around its children.
const SAMPLE_EVERY: u64 = 16;
const LATENCY_PHASE: u64 = 8;

/// A worker's heartbeat, for [`rescue_stalled`]: a tick per operation, and
/// [`PARKED`] while the worker is not running operations.
struct Progress {
    ticks: CachePadded<AtomicU64>,
    slot: AtomicUsize,
}

const PARKED: u64 = u64::MAX;
const STALL_POLL: Duration = Duration::from_millis(25);
/// Millions of times a red-black tree transaction, and well beyond the
/// longest chain of contention-manager waits seen on STMBench7 (Polka under
/// RSTM holds a transaction for a few hundred milliseconds at times).
const STALL: Duration = Duration::from_secs(1);

/// Stage one of the watchdog, inside the trial. A transaction can read a
/// tree node that another thread's commit freed and a third transaction's
/// `Tx::alloc` zeroed, and then loop in the tree body for ever: its reads
/// stay valid, nothing aborts it, the thread never finishes (README,
/// "zombie loop"). A worker that completes no operation and no attempt for
/// [`STALL`] gets what a contention manager would give a victim: a remote
/// abort request on its shared record. The transaction rolls back, retries
/// and the trial goes on; the rescue is counted and reported. A child that
/// does not finish all the same is killed by the parent.
fn rescue_stalled<A: TmAlgorithm>(stm: &A, progress: &[Progress], done: &AtomicBool) -> u64 {
    let mut seen = vec![(PARKED, 0); progress.len()];
    let mut since = vec![Instant::now(); progress.len()];
    let mut rescues = 0;
    // sync: Relaxed — the flag only ends the polling; the workers' results
    // are published by their joins.
    while !done.load(Ordering::Relaxed) {
        std::thread::sleep(STALL_POLL);
        for (i, worker) in progress.iter().enumerate() {
            // sync: Relaxed — a heartbeat: only whether the values change
            // between polls matters, not what they order.
            let ticks = worker.ticks.load(Ordering::Relaxed);
            if ticks == PARKED {
                seen[i] = (PARKED, 0);
                continue;
            }
            // sync: Relaxed — written by the worker before its first tick,
            // which the ticks load above has seen; the slot never changes.
            let slot = ThreadSlot::new(worker.slot.load(Ordering::Relaxed));
            let shared = stm.registry().shared(slot);
            let now = (ticks, shared.successive_aborts());
            if now != seen[i] {
                seen[i] = now;
                since[i] = Instant::now();
            } else if since[i].elapsed() >= STALL {
                shared.request_abort();
                rescues += 1;
                since[i] = Instant::now();
            }
        }
    }
    rescues
}

struct ThreadResult {
    /// The thread's registry slot, which its call spans carry too.
    slot: usize,
    stats: TxStats,
    started: Instant,
    finished: Instant,
    /// `(operation index, start, end)` of operations with child spans.
    sampled_ops: Vec<(u64, Duration, Duration)>,
    latencies_ns: Vec<u64>,
}

struct TrialJob<'a> {
    args: &'a TrialArgs,
    /// When the trial began: set-up is timed from here, and so are spans.
    epoch: Instant,
    /// Where the descriptors of a traced trial leave their traces.
    sink: Option<Sink>,
}

impl Job for TrialJob<'_> {
    type Out = Value;

    fn run<A: TmAlgorithm>(self, stm: A) -> Value {
        let args = self.args;
        let spec = args.workload;
        let stm = Arc::new(stm);
        let workload = spec.build(&stm, args.seed);
        let setup = self.epoch.elapsed();
        if args.hook == Hook::Hang {
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }

        let ops = args.ops_per_thread;
        let barrier = Barrier::new(spec.threads);
        let epoch = self.epoch;
        let traced = args.traced;
        let progress: Vec<Progress> = (0..spec.threads)
            .map(|_| Progress {
                ticks: CachePadded::new(AtomicU64::new(PARKED)),
                slot: AtomicUsize::new(0),
            })
            .collect();
        let done = AtomicBool::new(false);
        let (results, rescues) = std::thread::scope(|scope| {
            let handles: Vec<_> = progress
                .iter()
                .enumerate()
                .map(|(thread, progress)| {
                    let (stm, workload, barrier) = (Arc::clone(&stm), &*workload, &barrier);
                    let seed = args.seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    scope.spawn(move || {
                        run_thread(stm, workload, barrier, progress, seed, ops, traced, epoch)
                    })
                })
                .collect();
            // One thread cannot make a zombie of itself.
            let monitor =
                (spec.threads > 1).then(|| scope.spawn(|| rescue_stalled(&*stm, &progress, &done)));
            let results: Vec<ThreadResult> = handles
                .into_iter()
                .map(|h| h.join().expect("trial worker panicked"))
                .collect();
            // sync: Relaxed — see the load in rescue_stalled.
            done.store(true, Ordering::Relaxed);
            let rescues = monitor.map_or(0, |m| m.join().expect("trial monitor panicked"));
            (results, rescues)
        });

        let mut checker = ThreadContext::register(Arc::clone(&stm));
        let check = workload.check(&mut checker) && args.hook != Hook::CheckFail;
        drop(checker);

        // The window the counted operations span, on the workers' clocks.
        let started = results.iter().map(|r| r.started).min().expect("threads");
        let finished = results.iter().map(|r| r.finished).max().expect("threads");
        let elapsed = finished.saturating_duration_since(started);
        let mut totals = TxStats::new();
        for r in &results {
            totals.merge(&r.stats);
        }

        let mut record = vec![
            ("subject".to_string(), Value::from(args.subject.as_str())),
            ("ops".into(), Value::from(ops * spec.threads as u64)),
            ("elapsed_ns".into(), Value::from(elapsed.as_nanos() as u64)),
            ("setup_ns".into(), Value::from(setup.as_nanos() as u64)),
            ("check".into(), Value::from(check)),
            ("commits".into(), Value::from(totals.commits)),
            ("aborts".into(), Value::from(totals.aborts)),
            ("reads".into(), Value::from(totals.reads)),
            ("writes".into(), Value::from(totals.writes)),
            ("validations".into(), Value::from(totals.validations)),
            ("extensions".into(), Value::from(totals.extensions)),
            (
                "wait_ns".into(),
                Value::from(totals.contention.cm_wait_nanos),
            ),
            (
                "backoff_ns".into(),
                Value::from(totals.contention.backoff_nanos),
            ),
            ("rescues".into(), Value::from(rescues)),
            ("vm_hwm_kb".into(), Value::from(vm_hwm_kb())),
        ];
        if let Some(sink) = self.sink {
            let traces = std::mem::take(&mut *sink.lock().expect("trace sink poisoned"));
            record.extend(traced_fields(&traces, &results));
            if let Some(path) = &args.trace_out {
                if let Err(e) = write_spans(path, &traces, &results) {
                    eprintln!("stm-benchmark: cannot write {path}: {e}");
                }
            }
        }
        Value::Obj(record)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_thread<A: TmAlgorithm>(
    stm: Arc<A>,
    workload: &dyn Workload<A>,
    barrier: &Barrier,
    progress: &Progress,
    seed: u64,
    ops: u64,
    traced: bool,
    epoch: Instant,
) -> ThreadResult {
    let mut ctx = ThreadContext::register(stm);
    let slot = ctx.slot().index();
    // sync: Relaxed — see the loads in rescue_stalled.
    progress.slot.store(slot, Ordering::Relaxed);
    // sync: Relaxed — a heartbeat on the worker's own cache line.
    let tick = |n: u64| progress.ticks.store(n, Ordering::Relaxed);
    let mut rng = FastRng::new(seed);
    let warm_up = ops / 10;
    for op in 0..warm_up {
        tick(op);
        workload.execute(&mut ctx, &mut rng, op);
    }
    // Warm-up transactions are not part of the measurement.
    drop(ctx.take_stats());
    let mut sampled_ops = Vec::new();
    let mut latencies_ns = Vec::new();
    tick(PARKED);
    barrier.wait();
    let started = Instant::now();
    if traced {
        traced::set_mode(traced::COUNT);
        for op in 0..ops {
            tick(warm_up + op);
            match op % SAMPLE_EVERY {
                0 if op < u64::from(traced::COUNT) => {
                    traced::set_mode(op as u32);
                    let start = epoch.elapsed();
                    workload.execute(&mut ctx, &mut rng, op);
                    let end = epoch.elapsed();
                    traced::set_mode(traced::COUNT);
                    sampled_ops.push((op, start, end));
                }
                LATENCY_PHASE => {
                    let start = Instant::now();
                    workload.execute(&mut ctx, &mut rng, op);
                    latencies_ns.push(start.elapsed().as_nanos() as u64);
                }
                _ => workload.execute(&mut ctx, &mut rng, op),
            }
        }
        traced::set_mode(traced::OFF);
    } else {
        for op in 0..ops {
            tick(warm_up + op);
            workload.execute(&mut ctx, &mut rng, op);
        }
    }
    let finished = Instant::now();
    tick(PARKED);
    ThreadResult {
        slot,
        stats: ctx.take_stats(),
        started,
        finished,
        sampled_ops,
        latencies_ns,
    }
}

/// The traced pass's numbers: per call kind the exact count, how many calls
/// were timed and their summed time; mean and percentiles of the operations
/// timed as a whole; what a span costs to record.
fn traced_fields(traces: &[ThreadTrace], results: &[ThreadResult]) -> Vec<(String, Value)> {
    let mut fields = Vec::new();
    for (kind, name) in KINDS.iter().enumerate() {
        let sum = |f: fn(&traced::KindTotals) -> u64| -> u64 {
            traces.iter().map(|t| f(&t.kinds[kind])).sum()
        };
        fields.push((format!("{name}_calls"), Value::from(sum(|k| k.calls))));
        fields.push((format!("{name}_timed"), Value::from(sum(|k| k.timed))));
        fields.push((format!("{name}_timed_ns"), Value::from(sum(|k| k.ns))));
    }
    let mut latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[rank] as f64 / 1e3
    };
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    fields.push(("op_mean_ns".into(), Value::from(mean)));
    fields.push(("op_p50_us".into(), Value::from(percentile(0.50))));
    fields.push(("op_p99_us".into(), Value::from(percentile(0.99))));
    fields.push(("op_samples".into(), Value::from(latencies.len() as u64)));
    let (inside, outside) = traced::span_overhead_ns();
    fields.push(("span_inside_ns".into(), Value::from(inside)));
    fields.push(("span_outside_ns".into(), Value::from(outside)));
    fields
}

/// Writes the spans kept in memory during the trial: one line per span,
/// `thread,kind,start_ns,end_ns,parent_op`, the thread being its registry
/// slot; an operation's own span has kind `op` and its index as `parent_op`.
fn write_spans(
    path: &str,
    traces: &[ThreadTrace],
    results: &[ThreadResult],
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,kind,start_ns,end_ns,parent_op")?;
    for result in results {
        let slot = result.slot;
        // Only the operations whose children the thread's ring still holds.
        let oldest = traces
            .iter()
            .filter(|t| t.thread == slot)
            .flat_map(|t| t.spans().next())
            .map(|span| u64::from(span.parent))
            .min();
        for (op, start, end) in &result.sampled_ops {
            if oldest.is_some_and(|oldest| *op >= oldest) {
                writeln!(
                    out,
                    "{slot},op,{},{},{op}",
                    start.as_nanos(),
                    end.as_nanos()
                )?;
            }
        }
    }
    for trace in traces {
        for span in trace.spans() {
            writeln!(
                out,
                "{},{},{},{},{}",
                trace.thread, KINDS[span.kind as usize], span.start_ns, span.end_ns, span.parent
            )?;
        }
    }
    out.flush()
}

/// Peak resident set of this process, from `/proc/self/status`.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs the trial `args` describes in this process. `None` for an unknown
/// subject.
pub fn run(args: &TrialArgs) -> Option<Value> {
    let epoch = Instant::now();
    if args.traced {
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let job = TrialJob {
            args,
            epoch,
            sink: Some(Arc::clone(&sink)),
        };
        with_subject(&args.subject, TracedJob { job, sink })
    } else {
        let sink = None;
        with_subject(&args.subject, TrialJob { args, epoch, sink })
    }
}

/// Wraps the subject in [`TracedTm`] before running the trial on it.
struct TracedJob<'a> {
    job: TrialJob<'a>,
    sink: Sink,
}

impl Job for TracedJob<'_> {
    type Out = Value;

    fn run<A: TmAlgorithm>(self, stm: A) -> Value {
        let epoch = self.job.epoch;
        self.job.run(TracedTm::new(stm, epoch, self.sink))
    }
}
