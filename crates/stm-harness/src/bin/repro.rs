//! `repro` — regenerate the figures and tables of the SwissTM paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--full|--huge] [--threads N] [--millis M] [--seed S]
//!      [--clock strict|deferred] [--table-layout flat|mixed|padded|padded-mixed]
//!      [--pin none|compact|scatter] [--check-shapes] [--contention]
//!      [--snapshot BENCH_<label>.json] [--bench-timings <timings.tsv>]
//! repro bench-diff <old.json> <new.json> [--throughput-tolerance X]
//!
//! experiments: fig2 fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!              table1 table2 contention sharing bench7-ops all
//! ```
//!
//! Without `--full` the quick profile is used: fewer threads, shorter data
//! points and scaled-down datasets — enough to see the shape of every
//! figure in minutes on a laptop. `--full` switches to the paper's
//! 1–8 thread sweep with full-profile datasets; `--huge` uses
//! paper-scale-and-beyond datasets for dedicated runs of single figures.
//! `--check-shapes` additionally measures the headline figure shapes
//! (SwissTM vs the baselines, and what Polka costs under contention next to
//! two-phase; see `stm_harness::shapes`) and fails the process if a shape is
//! inverted. `--contention` extends the CM figures
//! (`fig9`, `fig10`, and `all`) with contention-telemetry tables — the
//! wait/back-off time shares and inflicted/received remote-abort counts
//! next to throughput, for every contention manager. The `contention`
//! experiment prints the dedicated high-contention profile (small
//! red-black tree, write-dominated STMBench7, Lee main board). The `sharing`
//! experiment runs the red-black tree on two threads that share nothing
//! (two STM instances), only the instance (a tree per thread) or the tree,
//! which separates the cost of the shared infrastructure from data
//! conflicts. The `bench7-ops` experiment times every STMBench7 operation
//! kind on one thread — ns/op, reads/op, writes/op, ns per access and share
//! of the write-dominated mix's time — on the four STMs, the global lock and
//! a lock-free sequential reference, whose row is the workload's own cost.
//!
//! `--clock` selects the commit-clock mode (strict `fetch_add` counter vs
//! the deferred GV5-style clock), `--table-layout` the lock-table memory
//! layout (cache-line-padded entries and/or index mixing), and `--pin` the
//! thread-placement policy — together they drive the placement-aware
//! scaling sweeps (fig9/fig10 with `--contention`).
//!
//! `--snapshot PATH` captures every measured data point of the run into a
//! versioned `BENCH_*.json` perf snapshot (see `stm_harness::snapshot`);
//! `--bench-timings PATH` merges a `name\tmean_nanos` timings file (as
//! written by the bench harness under `STM_BENCH_TIMINGS`) into that
//! snapshot. `repro bench-diff old.json new.json` compares two snapshots
//! point-by-point under the self-regression gates and exits non-zero on a
//! gated regression.

use std::process::ExitCode;
use std::time::Duration;

use stm_harness::bench7_ops;
use stm_harness::contention;
use stm_harness::experiments;
use stm_harness::runner::RunOptions;
use stm_harness::shapes;
use stm_harness::snapshot::{self, BenchSnapshot, GateTolerances};
use stm_harness::table::Table;

fn print_tables(tables: &[Table]) {
    for table in tables {
        println!("{table}");
    }
}

fn run_experiment(name: &str, options: &RunOptions, with_contention: bool) -> Result<(), String> {
    match name {
        "fig2" => print_tables(&experiments::figure2(options)),
        "fig3" => print_tables(&experiments::figure3(options)),
        "fig4" => print_tables(&experiments::figure4(options)),
        "fig5" => print_tables(&[experiments::figure5(options)]),
        "fig7" => print_tables(&[experiments::figure7(options)]),
        "fig8" => print_tables(&[experiments::figure8(options)]),
        "fig9" => {
            print_tables(&[experiments::figure9(options)]);
            if with_contention {
                print_tables(&[contention::figure9_contention(options)]);
            }
        }
        "fig10" => {
            print_tables(&[experiments::figure10(options)]);
            if with_contention {
                print_tables(&[contention::figure10_contention(options)]);
            }
        }
        "fig11" => print_tables(&[experiments::figure11(options)]),
        "fig12" => print_tables(&[experiments::figure12(options)]),
        "fig13" => print_tables(&[experiments::figure13(options)]),
        "table1" => print_tables(&[experiments::table1(options)]),
        "table2" => print_tables(&[experiments::table2(options)]),
        "contention" => print_tables(&contention::profile(options)),
        "sharing" => print_tables(&experiments::sharing(options)),
        "bench7-ops" => print_tables(&bench7_ops::bench7_ops(options)),
        "all" => {
            for experiment in [
                "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "table1", "table2",
            ] {
                run_experiment(experiment, options, with_contention)?;
            }
            if with_contention {
                run_experiment("contention", options, with_contention)?;
            }
        }
        other => return Err(format!("unknown experiment '{other}'")),
    }
    Ok(())
}

struct RunArgs {
    experiment: String,
    options: RunOptions,
    check_shapes: bool,
    contention: bool,
    snapshot_path: Option<String>,
    bench_timings_path: Option<String>,
}

struct DiffArgs {
    old_path: String,
    new_path: String,
    tolerances: GateTolerances,
}

enum Command {
    Run(RunArgs),
    BenchDiff(DiffArgs),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let first = args.next().ok_or_else(usage)?;
    if first == "bench-diff" {
        return parse_bench_diff_args(args).map(Command::BenchDiff);
    }
    let experiment = first;
    // The profile flag selects the base options; --threads/--millis/--seed
    // override on top of it regardless of their position on the command
    // line, so `repro all --seed 7 --full` keeps the seed.
    let mut base: fn() -> RunOptions = RunOptions::quick;
    let mut max_threads = None;
    let mut point_duration = None;
    let mut seed = None;
    let mut clock = None;
    let mut table_layout = None;
    let mut pin = None;
    let mut check_shapes = false;
    let mut contention = false;
    let mut snapshot_path = None;
    let mut bench_timings_path = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => base = RunOptions::full,
            "--huge" => base = RunOptions::huge,
            "--check-shapes" => check_shapes = true,
            "--contention" => contention = true,
            "--threads" => {
                max_threads = Some(next_value(&mut args, "--threads")?);
            }
            "--millis" => {
                let millis: u64 = next_value(&mut args, "--millis")?;
                point_duration = Some(Duration::from_millis(millis));
            }
            "--seed" => {
                seed = Some(next_value(&mut args, "--seed")?);
            }
            "--clock" => {
                clock = Some(next_value(&mut args, "--clock")?);
            }
            "--table-layout" => {
                table_layout = Some(next_value(&mut args, "--table-layout")?);
            }
            "--pin" => {
                pin = Some(next_value(&mut args, "--pin")?);
            }
            "--snapshot" => {
                snapshot_path = Some(
                    args.next()
                        .ok_or_else(|| "--snapshot requires a path".to_string())?,
                );
            }
            "--bench-timings" => {
                bench_timings_path = Some(
                    args.next()
                        .ok_or_else(|| "--bench-timings requires a path".to_string())?,
                );
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if bench_timings_path.is_some() && snapshot_path.is_none() {
        return Err(
            "--bench-timings requires --snapshot (timings are stored in the \
                    snapshot file)"
                .to_string(),
        );
    }
    let mut options = base();
    if let Some(threads) = max_threads {
        options.max_threads = threads;
    }
    if let Some(duration) = point_duration {
        options.point_duration = duration;
    }
    if let Some(seed) = seed {
        options.seed = seed;
    }
    if let Some(clock) = clock {
        options.clock = clock;
    }
    if let Some(layout) = table_layout {
        options.table_layout = layout;
    }
    if let Some(pin) = pin {
        options.pin = pin;
    }
    Ok(Command::Run(RunArgs {
        experiment,
        options,
        check_shapes,
        contention,
        snapshot_path,
        bench_timings_path,
    }))
}

fn parse_bench_diff_args(mut args: impl Iterator<Item = String>) -> Result<DiffArgs, String> {
    let old_path = args
        .next()
        .ok_or("bench-diff requires two snapshot paths: <old.json> <new.json>")?;
    let new_path = args
        .next()
        .ok_or("bench-diff requires two snapshot paths: <old.json> <new.json>")?;
    let mut tolerances = GateTolerances::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--throughput-tolerance" => {
                let tolerance: f64 = next_value(&mut args, "--throughput-tolerance")?;
                if !(0.0..=1.0).contains(&tolerance) {
                    return Err(
                        "--throughput-tolerance must be within 0.0..=1.0 (fraction of \
                         baseline throughput the current run must reach)"
                            .to_string(),
                    );
                }
                tolerances = tolerances.with_throughput(tolerance);
            }
            other => return Err(format!("unknown bench-diff flag '{other}'\n{}", usage())),
        }
    }
    Ok(DiffArgs {
        old_path,
        new_path,
        tolerances,
    })
}

fn next_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|_| format!("invalid value for {flag}"))
}

fn usage() -> String {
    "usage: repro <fig2|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|fig12|fig13|table1|table2\
     |contention|sharing|bench7-ops|all> [--full|--huge] [--threads N] [--millis M] [--seed S] \
     [--clock strict|deferred] [--table-layout flat|mixed|padded|padded-mixed] \
     [--pin none|compact|scatter] [--check-shapes] [--contention] \
     [--snapshot BENCH_<label>.json] [--bench-timings <timings.tsv>]\n\
     \x20      repro bench-diff <old.json> <new.json> [--throughput-tolerance X]"
        .to_string()
}

/// The snapshot label of a `--snapshot` path: file stem without the
/// conventional `BENCH_` prefix (`out/BENCH_baseline.json` → `baseline`).
fn snapshot_label(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    stem.strip_prefix("BENCH_").unwrap_or(stem).to_string()
}

fn write_snapshot(cli: &RunArgs, path: &str) -> Result<(), String> {
    let points = snapshot::take_recorded();
    let mut snap = BenchSnapshot::new(snapshot_label(path), points);
    if let Some(timings_path) = &cli.bench_timings_path {
        let text = std::fs::read_to_string(timings_path)
            .map_err(|e| format!("cannot read bench timings '{timings_path}': {e}"))?;
        snap.bench = snapshot::parse_bench_timings(&text)?;
    }
    std::fs::write(path, snap.to_json_string())
        .map_err(|e| format!("cannot write snapshot '{path}': {e}"))?;
    println!(
        "# wrote perf snapshot '{path}' ({} points, {} bench timings)",
        snap.points.len(),
        snap.bench.len()
    );
    Ok(())
}

fn run_main(cli: RunArgs) -> ExitCode {
    // The flag is redundant (not wrong) on the dedicated
    // `contention` experiment, so no note there.
    if cli.contention
        && !matches!(
            cli.experiment.as_str(),
            "fig9" | "fig10" | "all" | "contention"
        )
    {
        eprintln!(
            "note: --contention adds tables to fig9, fig10 and all only; \
             use `repro contention` for the dedicated profile"
        );
    }
    println!(
        "# SwissTM reproduction harness — experiment '{}' ({} threads max, {:?}/point, {} profile, \
         clock={}, table={}, pin={})",
        cli.experiment,
        cli.options.max_threads,
        cli.options.point_duration,
        cli.options.profile.label(),
        cli.options.clock.label(),
        cli.options.table_layout.label(),
        cli.options.pin.label()
    );
    if cli.snapshot_path.is_some() {
        snapshot::arm_recorder();
    }
    match run_experiment(&cli.experiment, &cli.options, cli.contention) {
        Ok(()) => {
            let mut failed = false;
            if cli.check_shapes {
                let mut report = shapes::run_shape_checks(&cli.options);
                report.record(shapes::check_polka_contention_cost(&cli.options));
                report.record(shapes::check_naive_anchor_cost(&cli.options));
                print!("{report}");
                failed |= !report.passed();
            }
            // The snapshot is written even when shape checks fail: the
            // points were measured either way and the artifact helps
            // diagnose the failure.
            if let Some(path) = &cli.snapshot_path {
                if let Err(message) = write_snapshot(&cli, path) {
                    eprintln!("error: {message}");
                    failed = true;
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn diff_main(cli: DiffArgs) -> ExitCode {
    let load = |path: &str| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot '{path}': {e}"))?;
        BenchSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(&cli.old_path) {
        Ok(snap) => snap,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let current = match load(&cli.new_path) {
        Ok(snap) => snap,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let report = snapshot::diff_snapshots(&baseline, &current, &cli.tolerances);
    print!("{report}");
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(cli)) => run_main(cli),
        Ok(Command::BenchDiff(cli)) => diff_main(cli),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::{ClockMode, TableLayout};
    use stm_workloads::placement::PlacementPolicy;

    fn parse(words: &[&str]) -> Result<Command, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_run_command_with_snapshot_flags() {
        let Ok(Command::Run(cli)) = parse(&[
            "all",
            "--full",
            "--threads",
            "2",
            "--seed",
            "99",
            "--clock",
            "deferred",
            "--table-layout",
            "padded-mixed",
            "--pin",
            "compact",
            "--snapshot",
            "out/BENCH_baseline.json",
            "--bench-timings",
            "timings.tsv",
        ]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.experiment, "all");
        assert_eq!(cli.options.max_threads, 2);
        assert_eq!(cli.options.seed, 99);
        assert_eq!(cli.options.clock, ClockMode::Deferred);
        assert_eq!(cli.options.table_layout, TableLayout::PaddedMixed);
        assert_eq!(cli.options.pin, PlacementPolicy::Compact);
        assert_eq!(
            cli.snapshot_path.as_deref(),
            Some("out/BENCH_baseline.json")
        );
        assert_eq!(cli.bench_timings_path.as_deref(), Some("timings.tsv"));
    }

    #[test]
    fn parses_bench7_ops_with_a_point_duration() {
        let Ok(Command::Run(cli)) = parse(&["bench7-ops", "--millis", "50", "--seed", "4"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.experiment, "bench7-ops");
        assert_eq!(cli.options.point_duration, Duration::from_millis(50));
        assert_eq!(cli.options.seed, 4);
        assert!(usage().contains("bench7-ops"));
    }

    #[test]
    fn bench_timings_without_snapshot_is_rejected() {
        let message = parse(&["all", "--bench-timings", "t.tsv"]).err().unwrap();
        assert!(
            message.contains("--bench-timings requires --snapshot"),
            "{message}"
        );
    }

    #[test]
    fn parses_bench_diff_command() {
        let Ok(Command::BenchDiff(cli)) = parse(&[
            "bench-diff",
            "BENCH_baseline.json",
            "BENCH_ci.json",
            "--throughput-tolerance",
            "0.5",
        ]) else {
            panic!("expected a bench-diff command");
        };
        assert_eq!(cli.old_path, "BENCH_baseline.json");
        assert_eq!(cli.new_path, "BENCH_ci.json");
        assert_eq!(cli.tolerances.throughput, 0.5);
        // Only the throughput knob is exposed; the rest keep defaults.
        assert_eq!(
            cli.tolerances.wait_share_slack,
            GateTolerances::default().wait_share_slack
        );
    }

    #[test]
    fn bench_diff_rejects_missing_paths_and_bad_tolerance() {
        assert!(parse(&["bench-diff"]).is_err());
        assert!(parse(&["bench-diff", "only-one.json"]).is_err());
        assert!(parse(&[
            "bench-diff",
            "a.json",
            "b.json",
            "--throughput-tolerance",
            "1.5"
        ])
        .is_err());
        assert!(parse(&["bench-diff", "a.json", "b.json", "--bogus"]).is_err());
    }

    #[test]
    fn snapshot_label_strips_prefix_and_extension() {
        assert_eq!(snapshot_label("out/BENCH_baseline.json"), "baseline");
        assert_eq!(
            snapshot_label("BENCH_sweep-deferred.json"),
            "sweep-deferred"
        );
        assert_eq!(snapshot_label("custom.json"), "custom");
    }

    #[test]
    fn unknown_flags_and_missing_experiment_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["fig5", "--wat"]).is_err());
        assert!(parse(&["fig5", "--snapshot"]).is_err());
    }
}
