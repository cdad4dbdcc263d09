//! `compare A.json B.json`: B against A under the bounds of
//! `BENCHMARK.json`, one row per workload.

use std::process::ExitCode;

use crate::anatomy::median;
use crate::json::{self, Value};
use crate::Args;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn names_of(spec: &Value, section: &str) -> Vec<String> {
    let metrics = spec.get(section).map(Value::arr).unwrap_or_default();
    metrics
        .iter()
        .filter_map(|m| m.get("name")?.str().map(str::to_string))
        .collect()
}

/// The `end_to_end` and `per_layer` metric names `BENCHMARK.json` declares.
pub fn declared_names(spec_path: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let spec = load(spec_path)?;
    Ok((names_of(&spec, "end_to_end"), names_of(&spec, "per_layer")))
}

/// How far the mean of `samples` is expected to wander: the distance between
/// their first and third quartile as a share of their median (quartiles as
/// Python's `statistics.quantiles(values, n=4)` gives them), over the square
/// root of their number. `None` below two samples.
fn spread(samples: &[f64]) -> Option<f64> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let between_trials = (quartile(3) - quartile(1)) / median(&mut sorted);
    Some(between_trials / (m as f64).sqrt())
}

fn samples_of(metric: &Value) -> Vec<f64> {
    let samples = metric.get("samples").map(Value::arr).unwrap_or_default();
    samples.iter().filter_map(Value::num).collect()
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.bare.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load(args.get("spec").unwrap_or("BENCHMARK.json"))?;
    let bounds = spec.get("end_to_end").map(Value::arr).unwrap_or_default();
    let workloads = a.get("workloads").ok_or("no workloads in the first file")?;

    let mut any_worse = false;
    for (workload, a_passes) in workloads.fields() {
        let end_to_end = |passes: Option<&Value>| -> Value {
            passes
                .and_then(|p| p.get("end_to_end"))
                .cloned()
                .unwrap_or(Value::Null)
        };
        let a_pass = end_to_end(Some(a_passes));
        let b_pass = end_to_end(b.get("workloads").and_then(|w| w.get(workload)));
        let mut cells = Vec::new();
        for declared in bounds {
            let name = declared.get("name").and_then(Value::str).unwrap_or("?");
            let bound = declared.num_at("bound");
            let higher_is_better = declared.get("better").and_then(Value::str) == Some("higher");
            let metric = |pass: &Value| pass.get("metrics").and_then(|m| m.get(name)).cloned();
            let (Some(ma), Some(mb)) = (metric(&a_pass), metric(&b_pass)) else {
                cells.push(format!("{name}=missing"));
                any_worse = true;
                continue;
            };
            let (va, vb) = (ma.num_at("value"), mb.num_at("value"));
            let worse_by = if higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let widest = [spread(&samples_of(&ma)), spread(&samples_of(&mb))]
                .into_iter()
                .flatten()
                .fold(0.0, f64::max);
            let verdict = if widest > bound {
                "unresolved"
            } else if worse_by > bound {
                any_worse = true;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            cells.push(format!("{name}={verdict}({:+.1}%)", -100.0 * worse_by));
        }
        // Failed operations have a bound of zero, absolute.
        let (fa, fb) = (
            a_pass.num_at("failed_op_share"),
            b_pass.num_at("failed_op_share"),
        );
        let verdict = if fb > fa {
            any_worse = true;
            "worse"
        } else if fb < fa {
            "better"
        } else {
            "same"
        };
        cells.push(format!("failed_op_share={verdict}({fa}->{fb})"));
        println!("{workload:<16} {}", cells.join("  "));
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
