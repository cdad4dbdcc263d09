//! `repro` — regenerate the figures and tables of the SwissTM paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--full|--huge] [--threads N] [--millis M] [--seed S]
//!      [--clock strict|deferred] [--table-layout flat|mixed|padded|padded-mixed]
//!      [--check-shapes]
//! repro bench7-ops [--mix read|write] [--millis M] [--seed S] ...
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
//! inverted. The `contention` experiment prints the contention-telemetry
//! tables — the wait/back-off time shares and inflicted/received
//! remote-abort counts next to throughput, for every contention manager —
//! of the Figure 9 and Figure 10 sweeps, then of the high-contention
//! profile (small red-black tree, write-dominated STMBench7, Lee main
//! board). The `sharing` experiment runs the red-black tree on two threads
//! that share nothing (two STM instances), only the instance (a tree per
//! thread) or the tree, which separates the cost of the shared
//! infrastructure from data conflicts. The `bench7-ops` experiment times
//! every STMBench7 operation kind on one thread — ns/op, reads/op,
//! writes/op, ns per access and share of the mix's time — on the four
//! STMs, the global lock and a lock-free sequential reference, whose row is
//! the workload's own cost; `--mix` picks the write-dominated mix (the
//! default) or the read-dominated one.
//!
//! `--clock` selects the commit-clock mode (strict `fetch_add` counter vs
//! the deferred GV5-style clock) and `--table-layout` the lock-table memory
//! layout (cache-line-padded entries and/or index mixing). `--threads` and
//! `--millis` must be positive.

use std::process::ExitCode;
use std::time::Duration;

use stm_harness::bench7_ops::{self, Mix};
use stm_harness::contention;
use stm_harness::experiments;
use stm_harness::runner::RunOptions;
use stm_harness::shapes;
use stm_harness::table::Table;

fn print_tables(tables: &[Table]) {
    for table in tables {
        println!("{table}");
    }
}

fn run_experiment(name: &str, options: &RunOptions, mix: Mix) -> Result<(), String> {
    match name {
        "fig2" => print_tables(&experiments::figure2(options)),
        "fig3" => print_tables(&experiments::figure3(options)),
        "fig4" => print_tables(&experiments::figure4(options)),
        "fig5" => print_tables(&[experiments::figure5(options)]),
        "fig7" => print_tables(&[experiments::figure7(options)]),
        "fig8" => print_tables(&[experiments::figure8(options)]),
        "fig9" => print_tables(&[experiments::figure9(options)]),
        "fig10" => print_tables(&[experiments::figure10(options)]),
        "fig11" => print_tables(&[experiments::figure11(options)]),
        "fig12" => print_tables(&[experiments::figure12(options)]),
        "fig13" => print_tables(&[experiments::figure13(options)]),
        "table1" => print_tables(&[experiments::table1(options)]),
        "table2" => print_tables(&[experiments::table2(options)]),
        "contention" => {
            print_tables(&[
                contention::figure9_contention(options),
                contention::figure10_contention(options),
            ]);
            print_tables(&contention::profile(options));
        }
        "sharing" => print_tables(&experiments::sharing(options)),
        "bench7-ops" => print_tables(&bench7_ops::bench7_ops(options, mix)),
        "all" => {
            for experiment in [
                "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "table1", "table2",
            ] {
                run_experiment(experiment, options, mix)?;
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
    mix: Mix,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let experiment = args.next().ok_or_else(usage)?;
    // The profile flag selects the base options; --threads/--millis/--seed
    // override on top of it regardless of their position on the command
    // line, so `repro all --seed 7 --full` keeps the seed.
    let mut base: fn() -> RunOptions = RunOptions::quick;
    let mut max_threads = None;
    let mut point_duration = None;
    let mut seed = None;
    let mut clock = None;
    let mut table_layout = None;
    let mut check_shapes = false;
    let mut mix = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => base = RunOptions::full,
            "--huge" => base = RunOptions::huge,
            "--check-shapes" => check_shapes = true,
            "--threads" => {
                max_threads = Some(next_positive(&mut args, "--threads")?);
            }
            "--millis" => {
                let millis = next_positive(&mut args, "--millis")?;
                point_duration = Some(Duration::from_millis(millis as u64));
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
            "--mix" => {
                mix = Some(next_value(&mut args, "--mix")?);
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if mix.is_some() && experiment != "bench7-ops" {
        return Err(format!("--mix applies to bench7-ops only\n{}", usage()));
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
    Ok(RunArgs {
        experiment,
        options,
        check_shapes,
        mix: mix.unwrap_or_default(),
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

/// A `--threads`/`--millis` value: a sweep of no threads or a data point of
/// no time measures nothing, so zero is an error too.
fn next_positive(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    match next_value(args, flag)? {
        0 => Err(format!("{flag} must be at least 1")),
        value => Ok(value),
    }
}

fn usage() -> String {
    "usage: repro <fig2|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|fig12|fig13|table1|table2\
     |contention|sharing|bench7-ops|all> [--full|--huge] [--threads N] [--millis M] [--seed S] \
     [--clock strict|deferred] [--table-layout flat|mixed|padded|padded-mixed] \
     [--check-shapes] [--mix read|write (bench7-ops)]"
        .to_string()
}

fn run_main(cli: RunArgs) -> ExitCode {
    println!(
        "# SwissTM reproduction harness — experiment '{}' ({} threads max, {:?}/point, {} profile, \
         clock={}, table={})",
        cli.experiment,
        cli.options.max_threads,
        cli.options.point_duration,
        cli.options.profile.label(),
        cli.options.clock.label(),
        cli.options.table_layout.label()
    );
    match run_experiment(&cli.experiment, &cli.options, cli.mix) {
        Ok(()) => {
            if cli.check_shapes {
                let mut report = shapes::run_shape_checks(&cli.options);
                report.record(shapes::check_polka_contention_cost(&cli.options));
                report.record(shapes::check_naive_anchor_cost(&cli.options));
                print!("{report}");
                if !report.passed() {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(cli) => run_main(cli),
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

    fn parse(words: &[&str]) -> Result<RunArgs, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_run_command_with_profile_flags() {
        let Ok(cli) = parse(&[
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
        ]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.experiment, "all");
        assert_eq!(cli.options.max_threads, 2);
        assert_eq!(cli.options.seed, 99);
        assert_eq!(cli.options.clock, ClockMode::Deferred);
        assert_eq!(cli.options.table_layout, TableLayout::PaddedMixed);
    }

    #[test]
    fn parses_bench7_ops_with_a_point_duration() {
        let Ok(cli) = parse(&["bench7-ops", "--millis", "50", "--seed", "4"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.experiment, "bench7-ops");
        assert_eq!(cli.options.point_duration, Duration::from_millis(50));
        assert_eq!(cli.options.seed, 4);
        assert!(usage().contains("bench7-ops"));
    }

    #[test]
    fn bench7_ops_takes_a_mix_that_defaults_to_write() {
        let Ok(cli) = parse(&["bench7-ops", "--mix", "read"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.mix, Mix::Read);
        let Ok(cli) = parse(&["bench7-ops"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.mix, Mix::Write);
        let message = parse(&["bench7-ops", "--mix", "both"]).err().unwrap();
        assert!(message.contains("invalid value for --mix"), "{message}");
        let message = parse(&["fig5", "--mix", "read"]).err().unwrap();
        assert!(message.contains("bench7-ops only"), "{message}");
    }

    #[test]
    fn unknown_flags_and_missing_experiment_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["fig5", "--wat"]).is_err());
        for flag in ["--threads", "--millis"] {
            let message = parse(&["fig5", flag, "0"]).err().unwrap();
            assert!(message.contains(flag), "{message}");
        }
        assert!(parse(&["bench7-ops", "--millis", "0"]).is_err());
    }

    #[test]
    fn profile_flags_pick_the_base_and_overrides_hold_wherever_they_stand() {
        let Ok(cli) = parse(&["fig5"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.options.profile, RunOptions::quick().profile);
        assert_eq!(cli.options.max_threads, RunOptions::quick().max_threads);
        // The overrides come before the profile flag and still win.
        let Ok(cli) = parse(&["fig5", "--seed", "7", "--millis", "30", "--full"]) else {
            panic!("expected a run command");
        };
        let full = RunOptions::full();
        assert_eq!(cli.options.profile, full.profile);
        assert_eq!(cli.options.max_threads, full.max_threads);
        assert_eq!(cli.options.heap_words, full.heap_words);
        assert_eq!(cli.options.seed, 7);
        assert_eq!(cli.options.point_duration, Duration::from_millis(30));
    }

    #[test]
    fn the_last_profile_flag_wins() {
        let Ok(cli) = parse(&["fig3", "--full", "--huge"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.options.profile, RunOptions::huge().profile);
        let Ok(cli) = parse(&["fig3", "--huge", "--full"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.options.profile, RunOptions::full().profile);
    }

    #[test]
    fn a_flag_without_its_value_is_named_in_the_error() {
        for flag in [
            "--threads",
            "--millis",
            "--seed",
            "--clock",
            "--table-layout",
        ] {
            let message = parse(&["fig5", flag]).err().unwrap();
            assert_eq!(message, format!("{flag} requires a value"));
        }
        let message = parse(&["bench7-ops", "--mix"]).err().unwrap();
        assert_eq!(message, "--mix requires a value");
    }

    #[test]
    fn counts_that_are_not_whole_numbers_are_invalid_values() {
        for flag in ["--threads", "--millis", "--seed"] {
            for value in ["two", "-1", "1.5", ""] {
                let message = parse(&["fig5", flag, value]).err().unwrap();
                assert_eq!(message, format!("invalid value for {flag}"), "{value:?}");
            }
        }
        // Zero is a valid seed, only counts must be positive.
        let Ok(cli) = parse(&["fig5", "--seed", "0"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.options.seed, 0);
    }

    #[test]
    fn unknown_clock_and_table_layout_names_are_rejected() {
        let message = parse(&["fig5", "--clock", "lazy"]).err().unwrap();
        assert_eq!(message, "invalid value for --clock");
        let message = parse(&["fig5", "--table-layout", "sparse"]).err().unwrap();
        assert_eq!(message, "invalid value for --table-layout");
        let Ok(cli) = parse(&["fig5", "--clock", "sloppy", "--table-layout", "mixed"]) else {
            panic!("expected a run command");
        };
        assert_eq!(cli.options.clock, ClockMode::Deferred);
        assert_eq!(cli.options.table_layout, TableLayout::Mixed);
    }

    #[test]
    fn check_shapes_is_off_unless_given() {
        let Ok(cli) = parse(&["fig9"]) else {
            panic!("expected a run command");
        };
        assert!(!cli.check_shapes);
        let Ok(cli) = parse(&["fig9", "--check-shapes"]) else {
            panic!("expected a run command");
        };
        assert!(cli.check_shapes);
        // The contention tables are the `contention` experiment's, not a
        // flag's.
        let message = parse(&["fig9", "--contention"]).err().unwrap();
        assert!(
            message.starts_with("unknown flag '--contention'"),
            "{message}"
        );
    }

    #[test]
    fn an_unknown_experiment_is_an_error_that_names_it() {
        // The name is only checked when the experiment runs, so parsing
        // accepts it and `run_experiment` refuses it before measuring.
        let Ok(cli) = parse(&["fig6"]) else {
            panic!("expected a run command");
        };
        let message = run_experiment(&cli.experiment, &cli.options, cli.mix)
            .err()
            .unwrap();
        assert_eq!(message, "unknown experiment 'fig6'");
    }
}
