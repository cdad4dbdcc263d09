//! `stm-benchmark`: the repo benchmark. See `benchmark/README.md`.
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1` — one workload,
//!   the form `BENCHMARK.json`'s command takes; last stdout line is the
//!   result object.
//! * `run --seed N --out FILE [--smoke]` — every workload, untraced then
//!   traced, every metric printed by name and written to `FILE`.
//! * `compare A.json B.json` — applies the bounds of `BENCHMARK.json`.
//! * `trial …` — one trial in this process; what the parent spawns.

mod anatomy;
mod compare;
mod json;
mod report;
mod runner;
mod spec;
mod traced;
mod trial;

use std::process::ExitCode;

/// `--name value` pairs after the subcommand, plus bare words.
struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut bare = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.push(("smoke".to_string(), "1".to_string())),
                Some(name) => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => bare.push(arg.clone()),
            }
        }
        Ok(Args { flags, bare })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn number(&self, name: &str) -> Result<u64, String> {
        self.required(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    }
}

const USAGE: &str = "usage: stm-benchmark bench --workload W --seed N --seconds S --trace 0|1 [--inject hang|check-fail:SUBJECT]
       stm-benchmark run --seed N --out FILE [--smoke] [--inject …]
       stm-benchmark compare A.json B.json [--spec BENCHMARK.json]
workloads: rbtree-1t rbtree-2t bench7-read-1t bench7-write-2t";

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = Args::parse(rest)?;
    match command.as_str() {
        "trial" => runner::trial_main(&args),
        "bench" => runner::bench_main(&args),
        "run" => runner::run_main(&args),
        "compare" => compare::main(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("stm-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
