//! The parent side: one child process per trial under a watchdog, the
//! checks on what the children report, and the metrics made from it.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stm_core::backoff::FastRng;

use crate::anatomy::{self, median};
use crate::compare::declared_names;
use crate::json::{self, obj, Value};
use crate::report::{Metric, PassResult};
use crate::spec::{self, Data, WorkloadSpec, RUN_SECONDS, STMS, SUBJECTS, TRACED_SCALE, WORKLOADS};
use crate::trial::{self, Hook, TrialArgs};
use crate::Args;

/// Where the traced pass leaves its spans, relative to the checkout root
/// the benchmark is run from.
const TRACE_DIR: &str = "benchmark/out";
/// Kernel sample length at [`RUN_SECONDS`].
const KERNEL_MILLIS: u64 = 30;

pub fn trial_main(args: &Args) -> Result<ExitCode, String> {
    let name = args.required("workload")?;
    let hook = match args.get("hook") {
        None => Hook::None,
        Some("hang") => Hook::Hang,
        Some("check-fail") => Hook::CheckFail,
        Some(other) => return Err(format!("unknown hook '{other}'")),
    };
    let trial = TrialArgs {
        workload: spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        subject: args.required("subject")?.to_string(),
        seed: args.number("seed")?,
        ops_per_thread: args.number("ops")?,
        traced: args.number("traced")? != 0,
        trace_out: args.get("trace-out").map(str::to_string),
        hook,
    };
    let record =
        trial::run(&trial).ok_or_else(|| format!("unknown subject '{}'", trial.subject))?;
    println!("{record}");
    Ok(ExitCode::SUCCESS)
}

enum Outcome {
    Done(Value),
    Hung,
    Errored(String),
    NotRun,
}

const HUNG_TRIALS_TOLERATED: u64 = 2;

/// How trials are launched in this invocation.
struct Launcher {
    exe: PathBuf,
    /// `--inject hang:SUBJECT` or `check-fail:SUBJECT`: every trial of that
    /// subject gets the hook.
    inject: Option<(String, String)>,
    seconds: u64,
    smoke: bool,
}

impl Launcher {
    fn from_args(args: &Args, seconds: u64) -> Result<Launcher, String> {
        let inject = match args.get("inject") {
            None => None,
            Some(text) => {
                let (hook, subject) = text
                    .split_once(':')
                    .ok_or("--inject takes hang:SUBJECT or check-fail:SUBJECT")?;
                if !["hang", "check-fail"].contains(&hook) || !SUBJECTS.contains(&subject) {
                    return Err(format!("bad --inject '{text}'"));
                }
                Some((hook.to_string(), subject.to_string()))
            }
        };
        Ok(Launcher {
            exe: std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?,
            inject,
            seconds,
            smoke: args.get("smoke").is_some(),
        })
    }

    /// What the frozen durations are multiplied by in this invocation.
    fn time_scale(&self) -> f64 {
        let scale = self.seconds as f64 / RUN_SECONDS as f64;
        if self.smoke {
            scale / 20.0
        } else {
            scale
        }
    }

    /// Ten times the trial's frozen expected duration.
    fn watchdog(&self, spec: &WorkloadSpec, traced_pass: bool) -> Duration {
        let pass_scale = if traced_pass {
            TRACED_SCALE as f64
        } else {
            1.0
        };
        let expected = spec.expected_trial_s * pass_scale * self.time_scale();
        Duration::from_secs_f64((10.0 * expected).max(2.0))
    }

    fn launch(
        &self,
        spec: &WorkloadSpec,
        subject: &str,
        seed: u64,
        traced_pass: bool,
        traced: bool,
    ) -> Outcome {
        let ops = spec.scaled_ops(self.seconds, self.smoke, traced_pass);
        let mut command = Command::new(&self.exe);
        command
            .arg("trial")
            .args(["--workload", spec.name, "--subject", subject])
            .args(["--seed", &seed.to_string(), "--ops", &ops.to_string()])
            .args(["--traced", if traced { "1" } else { "0" }]);
        if traced {
            let path = format!("{TRACE_DIR}/trace-{}-{subject}.csv", spec.name);
            command.args(["--trace-out", &path]);
        }
        if let Some((hook, target)) = &self.inject {
            if target == subject {
                command.args(["--hook", hook]);
            }
        }
        command.stdin(Stdio::null()).stdout(Stdio::piped());
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => return Outcome::Errored(format!("cannot spawn trial: {e}")),
        };
        // The record is one short line, so the pipe never fills and the
        // child can be waited for before its output is read.
        let deadline = Instant::now() + self.watchdog(spec, traced_pass);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() >= deadline => {
                    // Kill and reap; the error of a child that exited in
                    // between changes nothing.
                    let _ = child.kill();
                    let _ = child.wait();
                    return Outcome::Hung;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Outcome::Errored(format!("cannot wait: {e}")),
            }
        };
        let output = match child.wait_with_output() {
            Ok(output) => output,
            Err(e) => return Outcome::Errored(format!("cannot read trial: {e}")),
        };
        if !status.success() {
            return Outcome::Errored(format!("trial exited with {status}"));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        match text.lines().last().map(json::parse) {
            Some(Ok(record)) => Outcome::Done(record),
            _ => Outcome::Errored("trial printed no record".into()),
        }
    }
}

/// Launches one trial and does the accounting every trial gets: attempted
/// and failed ops, hung and errored children, `Workload::check`, and on the
/// red-black tree one commit per operation. `None` unless the trial's
/// record is fit to make metrics from.
fn trial(
    pass: &mut PassResult,
    launcher: &Launcher,
    spec: &WorkloadSpec,
    subject: usize,
    seed: u64,
    traced_pass: bool,
    traced: bool,
) -> Option<Value> {
    let name = SUBJECTS[subject];
    // A subject that hangs every time must not hold the run for ten trial
    // lengths per trial: after two hangs its trials fail without running.
    let outcome = if pass.hung_trials[subject] >= HUNG_TRIALS_TOLERATED {
        Outcome::NotRun
    } else {
        launcher.launch(spec, name, seed, traced_pass, traced)
    };
    let ops = spec.scaled_ops(launcher.seconds, launcher.smoke, traced_pass) * spec.threads as u64;
    pass.attempted += ops;
    let fail = |pass: &mut PassResult, note: String| {
        pass.failed += ops;
        pass.notes.push(format!("{name} seed {seed}: {note}"));
    };
    match outcome {
        Outcome::NotRun => {
            fail(pass, "not run: the subject hung twice before".into());
            None
        }
        Outcome::Hung => {
            pass.hung_trials[subject] += 1;
            fail(pass, "hung; killed by the watchdog".into());
            None
        }
        Outcome::Errored(why) => {
            pass.errored = true;
            fail(pass, why);
            None
        }
        Outcome::Done(record) => {
            pass.zombie_rescues[subject] += record.num_at("rescues") as u64;
            let mut problems = Vec::new();
            if record.get("check") != Some(&Value::Bool(true)) {
                problems.push("Workload::check failed".to_string());
            }
            let commits = record.num_at("commits");
            if spec.data == Data::RbTree && commits != ops as f64 {
                problems.push(format!("{commits} commits for {ops} operations"));
            }
            if spec.single_threaded() {
                for counter in ["aborts", "wait_ns", "backoff_ns"] {
                    if record.num_at(counter) != 0.0 {
                        problems.push(format!(
                            "{counter} = {} on one thread",
                            record.num_at(counter)
                        ));
                    }
                }
            }
            if traced {
                problems.extend(traced_count_problems(&record));
            }
            if problems.is_empty() {
                Some(record)
            } else {
                pass.correct = false;
                fail(pass, problems.join("; "));
                None
            }
        }
    }
}

/// The wrapper's exact counts against the `TxStats` of the same trial.
/// Attempts and rollbacks must agree exactly. A read or write that is
/// refused before the algorithm counts it (the remote-abort check at its
/// top) ends its attempt, so the wrapper may have seen up to one more call
/// per abort than `TxStats` did, and exactly as many when nothing aborted.
fn traced_count_problems(record: &Value) -> Vec<String> {
    let aborts = record.num_at("aborts");
    let checks = [
        ("begin_calls", record.num_at("commits") + aborts, 0.0),
        ("rollback_calls", aborts, 0.0),
        ("read_calls", record.num_at("reads"), aborts),
        ("write_calls", record.num_at("writes"), aborts),
        ("commit_calls", record.num_at("commits"), aborts),
    ];
    checks
        .iter()
        .filter(|(key, counted, slack)| {
            let calls = record.num_at(key);
            calls < *counted || calls > counted + slack
        })
        .map(|(key, counted, _)| {
            format!(
                "traced {key} = {}, TxStats say {counted}",
                record.num_at(key)
            )
        })
        .collect()
}

/// On one thread the same seed must give every subject the same work.
fn same_counts(pass: &mut PassResult, what: &str, records: &[&Value]) {
    for counter in ["commits", "reads", "writes"] {
        let values: Vec<f64> = records.iter().map(|r| r.num_at(counter)).collect();
        if values.windows(2).any(|w| w[0] != w[1]) {
            pass.correct = false;
            pass.failed += records[0].num_at("ops") as u64;
            pass.notes
                .push(format!("{what}: {counter} differ: {values:?}"));
        }
    }
}

fn ops_per_s(record: &Value) -> f64 {
    record.num_at("ops") / (record.num_at("elapsed_ns") / 1e9)
}

/// End-to-end metrics: every subject runs every trial's op stream, trial by
/// trial so that drift on the machine lands on all subjects alike.
fn untraced_pass(launcher: &Launcher, spec: &WorkloadSpec, seed: u64) -> PassResult {
    let mut pass = PassResult {
        correct: true,
        ..PassResult::default()
    };
    let trials = if launcher.smoke { 1 } else { spec.trials };
    let mut seeds = FastRng::new(seed);
    let mut records: [Vec<Value>; 5] = Default::default();
    for _ in 0..trials {
        let trial_seed = seeds.next_u64();
        let row: Vec<(usize, Value)> = (0..SUBJECTS.len())
            .filter_map(|s| {
                Some((
                    s,
                    trial(&mut pass, launcher, spec, s, trial_seed, false, false)?,
                ))
            })
            .collect();
        if spec.single_threaded() {
            let refs: Vec<&Value> = row.iter().map(|(_, r)| r).collect();
            same_counts(&mut pass, &format!("seed {trial_seed}"), &refs);
        }
        for (subject, record) in row {
            records[subject].push(record);
        }
    }

    let mut setup_s = 0.0;
    let mut peak_kb: f64 = 0.0;
    for (subject, records) in SUBJECTS.iter().zip(&records) {
        let samples: Vec<f64> = records.iter().map(ops_per_s).collect();
        // The mean, not the median: on the contended workloads a subject's
        // trials fall into two regimes, and a median of them jumps from one
        // to the other between runs.
        let value = samples.iter().fold(0.0, |sum, s| sum + s) / samples.len().max(1) as f64;
        pass.metrics.push(Metric {
            samples,
            ..Metric::new(format!("{subject}.ops_per_s"), value, "1/s")
        });
        let mut setups: Vec<f64> = records.iter().map(|r| r.num_at("setup_ns") / 1e9).collect();
        setup_s += median(&mut setups);
        peak_kb = records
            .iter()
            .map(|r| r.num_at("vm_hwm_kb"))
            .fold(peak_kb, f64::max);
    }
    pass.metrics.push(Metric::new("setup_s", setup_s, "s"));
    pass.metrics
        .push(Metric::new("peak_rss_mb", peak_kb / 1024.0, "MB"));
    pass
}

/// Per-layer metrics: one untraced and one traced trial per subject on the
/// same seed, then the anatomy kernels.
fn traced_pass(launcher: &Launcher, spec: &WorkloadSpec, seed: u64) -> PassResult {
    let mut pass = PassResult {
        correct: true,
        ..PassResult::default()
    };
    let trial_seed = FastRng::new(seed).next_u64();
    let untraced: Vec<Option<Value>> = (0..SUBJECTS.len())
        .map(|s| trial(&mut pass, launcher, spec, s, trial_seed, true, false))
        .collect();
    let traced: Vec<Option<Value>> = (0..STMS.len())
        .map(|s| trial(&mut pass, launcher, spec, s, trial_seed, true, true))
        .collect();
    if spec.single_threaded() {
        for (plain, traced) in untraced.iter().zip(&traced) {
            if let (Some(plain), Some(traced)) = (plain, traced) {
                same_counts(&mut pass, "traced against untraced", &[plain, traced]);
            }
        }
    }

    let kernel_sample = Duration::from_secs_f64(KERNEL_MILLIS as f64 / 1e3 * launcher.time_scale());
    let kernels = anatomy::run(kernel_sample, seed);
    let kernel = |name: &str| -> f64 {
        kernels
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ns)| *ns)
    };

    // A trial that hung or failed leaves zeros behind: the metric is still
    // printed, and the failure is in `failed` and the notes.
    let empty = obj::<String>([]);
    let naive_ops_per_s = untraced[4].as_ref().map_or(0.0, ops_per_s);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = |name: String, value: f64, unit: &'static str| {
        pass.metrics.push(Metric::new(name, value, unit));
    };
    for (i, s) in STMS.iter().enumerate() {
        let t = traced[i].as_ref().unwrap_or(&empty);
        let inside = t.num_at("span_inside_ns");
        let ops = t.num_at("ops");
        let mut children_ns_per_op = 0.0;
        for kind in crate::traced::KINDS {
            let timed = t.num_at(&format!("{kind}_timed"));
            // A span holds `inside` nanoseconds that are not the call's.
            let ns = (ratio(t.num_at(&format!("{kind}_timed_ns")), timed) - inside).max(0.0);
            children_ns_per_op += ns * ratio(t.num_at(&format!("{kind}_calls")), ops);
            m(format!("{s}.{kind}_ns"), ns, "ns");
        }
        // An operation's self time is its span minus its children. The span
        // is that of the operations timed as a whole and the children are
        // priced at their means: taken from the operations that carry child
        // spans, the difference would mostly be what recording those spans
        // costs outside them (`trace.span_outside_ns` each).
        let self_ns = t.num_at("op_mean_ns") - inside - children_ns_per_op;
        m(format!("{s}.body_ns"), self_ns.max(0.0), "ns");
        let commits = t.num_at("commits");
        let thread_ns = t.num_at("elapsed_ns") * spec.threads as f64;
        m(
            format!("{s}.reads_per_op"),
            ratio(t.num_at("reads"), ops),
            "count",
        );
        m(
            format!("{s}.writes_per_op"),
            ratio(t.num_at("writes"), ops),
            "count",
        );
        m(
            format!("{s}.abort_ratio"),
            ratio(t.num_at("aborts"), commits + t.num_at("aborts")),
            "ratio",
        );
        m(
            format!("{s}.validations_per_commit"),
            ratio(t.num_at("validations"), commits),
            "count",
        );
        m(
            format!("{s}.extensions_per_commit"),
            ratio(t.num_at("extensions"), commits),
            "count",
        );
        m(
            format!("{s}.wait_share"),
            ratio(t.num_at("wait_ns"), thread_ns),
            "ratio",
        );
        m(
            format!("{s}.backoff_share"),
            ratio(t.num_at("backoff_ns"), thread_ns),
            "ratio",
        );
        let plain_ops_per_s = untraced[i].as_ref().map_or(0.0, ops_per_s);
        m(
            format!("{s}.vs_naive"),
            ratio(plain_ops_per_s, naive_ops_per_s),
            "ratio",
        );
        for name in ["read1k_ns", "write1k_ns", "raw1k_ns"] {
            m(format!("{s}.{name}"), kernel(&format!("{s}.{name}")), "ns");
        }
    }

    let swiss = traced[0].as_ref().unwrap_or(&empty);
    m("swisstm.op_p50_us".into(), swiss.num_at("op_p50_us"), "us");
    m("swisstm.op_p99_us".into(), swiss.num_at("op_p99_us"), "us");
    m(
        "swisstm.op_samples".into(),
        swiss.num_at("op_samples"),
        "count",
    );
    let traced_rate = traced[0].as_ref().map_or(0.0, ops_per_s);
    let plain_rate = untraced[0].as_ref().map_or(0.0, ops_per_s);
    m("trace.traced_ops_per_s".into(), traced_rate, "1/s");
    m("trace.untraced_ops_per_s".into(), plain_rate, "1/s");
    m(
        "trace.overhead_ratio".into(),
        ratio(traced_rate, plain_rate),
        "ratio",
    );
    m(
        "trace.span_inside_ns".into(),
        swiss.num_at("span_inside_ns"),
        "ns",
    );
    m(
        "trace.span_outside_ns".into(),
        swiss.num_at("span_outside_ns"),
        "ns",
    );

    for (name, ns) in &kernels {
        if !name.ends_with("1k_ns") {
            m(name.clone(), *ns, "ns");
        }
    }

    // The layers priced one by one against the measured whole.
    let value = |name: &str| -> f64 {
        pass.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let model_ns = value("tm.empty_tx_ns.swisstm")
        + value("swisstm.reads_per_op") * value("swisstm.read_ns")
        + value("swisstm.writes_per_op") * value("swisstm.write_ns")
        + value("swisstm.body_ns");
    let measured_ns = ratio(1e9 * spec.threads as f64, plain_rate);
    pass.metrics
        .push(Metric::new("swisstm.model_ns_per_op", model_ns, "ns"));
    pass.metrics
        .push(Metric::new("swisstm.measured_ns_per_op", measured_ns, "ns"));
    pass.metrics.push(Metric::new(
        "swisstm.model_gap_ratio",
        ratio(model_ns, measured_ns),
        "ratio",
    ));
    for (i, subject) in SUBJECTS.iter().enumerate() {
        let (hung, rescues) = (pass.hung_trials[i], pass.zombie_rescues[i]);
        pass.metrics.push(Metric::new(
            format!("{subject}.hung_trials"),
            hung as f64,
            "count",
        ));
        pass.metrics.push(Metric::new(
            format!("{subject}.zombie_rescues"),
            rescues as f64,
            "count",
        ));
    }
    pass
}

fn exit_code(passes: &[&PassResult]) -> ExitCode {
    if passes.iter().all(|p| p.correct && !p.errored) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn bench_main(args: &Args) -> Result<ExitCode, String> {
    let name = args.required("workload")?;
    let spec = spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = args.number("seed")?;
    let seconds = args.number("seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let launcher = Launcher::from_args(args, seconds)?;
    let pass = match args.required("trace")? {
        "0" => untraced_pass(&launcher, spec, seed),
        "1" => traced_pass(&launcher, spec, seed),
        _ => return Err("--trace must be 0 or 1".into()),
    };
    pass.print_table(spec.name);
    println!("{}", pass.to_value(false));
    // A hang alone is a counted failure of the program and leaves the exit
    // status alone; a failed check or a crashed child does not.
    Ok(exit_code(&[&pass]))
}

pub fn run_main(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed")?;
    let out = args.required("out")?;
    let launcher = Launcher::from_args(args, RUN_SECONDS)?;
    let started = Instant::now();
    let mut file = Vec::new();
    let mut passes = Vec::new();
    for spec in &WORKLOADS {
        let untraced = untraced_pass(&launcher, spec, seed);
        untraced.print_table(spec.name);
        let traced = traced_pass(&launcher, spec, seed);
        traced.print_table(spec.name);
        file.push((
            spec.name,
            obj([
                ("end_to_end", untraced.to_value(true)),
                ("per_layer", traced.to_value(true)),
            ]),
        ));
        passes.push(untraced);
        passes.push(traced);
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!("total wall time {wall_s:.1} s");
    let document = obj([
        ("seed", Value::from(seed)),
        ("smoke", Value::from(launcher.smoke)),
        ("wall_s", Value::from(wall_s)),
        ("workloads", obj(file)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{document}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;

    let mut code = exit_code(&passes.iter().collect::<Vec<_>>());
    if launcher.smoke {
        let problems = smoke_problems(args, &passes)?;
        for problem in &problems {
            println!("smoke: {problem}");
        }
        if !problems.is_empty() {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

/// `--smoke`: every metric `BENCHMARK.json` declares is in the output of
/// every workload, and nothing undeclared is.
fn smoke_problems(args: &Args, passes: &[PassResult]) -> Result<Vec<String>, String> {
    let declared = declared_names(args.get("spec").unwrap_or("BENCHMARK.json"))?;
    let mut problems = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        let workload = WORKLOADS[i / 2].name;
        let (section, names) = if i % 2 == 0 {
            ("end_to_end", &declared.0)
        } else {
            ("per_layer", &declared.1)
        };
        for name in names {
            if !pass.metrics.iter().any(|m| &m.name == name) {
                problems.push(format!(
                    "{workload}: declared {section} metric '{name}' is missing"
                ));
            }
        }
        for metric in &pass.metrics {
            if !names.contains(&metric.name) {
                problems.push(format!(
                    "{workload}: '{}' is not a declared {section} metric",
                    metric.name
                ));
            }
        }
    }
    Ok(problems)
}
