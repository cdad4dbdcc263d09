//! Metrics as the benchmark reports them, and the shapes it prints them in.

use crate::json::{obj, Value};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The per-trial values `value` is the median of (empty for metrics
    /// that are not medians over trials); `compare` takes spreads from it.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: Vec::new(),
        }
    }
}

/// What one pass (untraced or traced) over one workload produced.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Every check passed on every trial that finished.
    pub correct: bool,
    /// A child crashed or printed nothing parseable: the benchmark's own
    /// error, as opposed to a counted failure of the program.
    pub errored: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Watchdog kills per subject, in `SUBJECTS` order.
    pub hung_trials: [u64; 5],
    /// Stalled transactions the trials aborted from outside, per subject.
    pub zombie_rescues: [u64; 5],
    pub metrics: Vec<Metric>,
    /// Failed checks and other findings, for the human reader.
    pub notes: Vec<String>,
}

impl PassResult {
    pub fn failed_op_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's result object, printed as the last stdout line; with
    /// `for_file`, the same plus what `compare` needs: each metric's samples
    /// and the failed share.
    pub fn to_value(&self, for_file: bool) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Value::from(m.value)),
                ("unit", Value::from(m.unit)),
            ];
            if for_file {
                let samples = m.samples.iter().map(|&s| Value::from(s)).collect();
                fields.push(("samples", Value::Arr(samples)));
            }
            (m.name.clone(), obj(fields))
        });
        let mut fields = vec![
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
        ];
        if for_file {
            fields.push(("failed_op_share", Value::from(self.failed_op_share())));
        }
        fields.push(("metrics", obj(metrics)));
        obj(fields)
    }

    /// Every metric by name, with unit; then the failure accounting.
    pub fn print_table(&self, workload: &str) {
        for m in &self.metrics {
            println!("{workload:<16} {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "{workload:<16} {:<34} {:>16.6} ratio  ({} of {} ops; per subject: hung trials {:?}, zombie rescues {:?})",
            "failed_op_share",
            self.failed_op_share(),
            self.failed,
            self.attempted,
            self.hung_trials,
            self.zombie_rescues
        );
        for note in &self.notes {
            println!("{workload:<16} note: {note}");
        }
    }
}
