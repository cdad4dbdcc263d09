//! Per-thread and aggregated transaction statistics.
//!
//! Every [`crate::tm::ThreadContext`] keeps a [`TxStats`] record; the
//! benchmark driver merges the workers' records into one to report
//! throughput, abort ratios and abort-reason breakdowns, which is what the
//! paper's figures are built from.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::AbortReason;
use crate::telemetry::{ContentionCounters, ContentionTelemetry};

/// Number of buckets in a [`RetryHistogram`].
pub const RETRY_BUCKETS: usize = 6;

/// Labels of the [`RetryHistogram`] buckets (attempts per committed
/// transaction).
pub const RETRY_BUCKET_LABELS: [&str; RETRY_BUCKETS] = ["1", "2", "3-4", "5-8", "9-16", "17+"];

/// Histogram of attempts-per-committed-transaction (retry depth).
///
/// One committed transaction that needed `a` attempts (1 = first try)
/// increments one fixed bucket, so recording is allocation-free and O(1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryHistogram {
    buckets: [u64; RETRY_BUCKETS],
}

impl RetryHistogram {
    /// Records one committed transaction that needed `attempts` attempts
    /// (at least 1).
    pub fn record(&mut self, attempts: u64) {
        let bucket = match attempts {
            0 | 1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        };
        self.buckets[bucket] = self.buckets[bucket].saturating_add(1);
    }

    /// The bucket counts, ordered as [`RETRY_BUCKET_LABELS`].
    pub fn buckets(&self) -> &[u64; RETRY_BUCKETS] {
        &self.buckets
    }

    /// Total number of recorded commits.
    pub fn total(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// Merges another histogram into this one, saturating on overflow.
    pub fn merge_saturating(&mut self, other: &RetryHistogram) {
        for (bucket, other_bucket) in self.buckets.iter_mut().zip(&other.buckets) {
            *bucket = bucket.saturating_add(*other_bucket);
        }
    }
}

impl fmt::Display for RetryHistogram {
    /// Compact `label:count` pairs, skipping empty buckets (`-` when the
    /// histogram is empty) — the form the harness tables print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (label, count) in RETRY_BUCKET_LABELS.iter().zip(&self.buckets) {
            if *count == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{label}:{count}")?;
            first = false;
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// Statistics of a single thread's transactional activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Number of committed transactions.
    pub commits: u64,
    /// Number of committed read-only transactions (subset of `commits`).
    pub read_only_commits: u64,
    /// Read-only commits of log-free attempts whose every read found the
    /// commit clock unchanged since a quiescent begin, and so sampled no
    /// stripe (subset of `read_only_commits`; see
    /// [`DescriptorCore::quiet`](crate::tm::DescriptorCore::quiet)).
    pub quiet_commits: u64,
    /// Number of aborted transaction attempts.
    pub aborts: u64,
    /// Aborts broken down by reason.
    pub aborts_by_reason: BTreeMap<&'static str, u64>,
    /// Number of transactional read operations (across all attempts).
    pub reads: u64,
    /// Number of transactional write operations (across all attempts).
    pub writes: u64,
    /// Number of read-set validations performed.
    pub validations: u64,
    /// Number of read-set extension attempts that succeeded.
    pub extensions: u64,
    /// Contention telemetry: CM resolutions per conflict site, wait/back-off
    /// time and the inflicted/received remote-abort pair.
    pub contention: ContentionCounters,
    /// Retry depth (attempts per committed transaction).
    pub retries: RetryHistogram,
}

impl TxStats {
    /// Creates an all-zero record.
    pub fn new() -> Self {
        TxStats::default()
    }

    /// Records a committed transaction.
    pub fn record_commit(&mut self, read_only: bool) {
        self.commits += 1;
        if read_only {
            self.read_only_commits += 1;
        }
    }

    /// Records an aborted attempt with its reason.
    pub fn record_abort(&mut self, reason: AbortReason) {
        self.aborts += 1;
        *self.aborts_by_reason.entry(reason.label()).or_insert(0) += 1;
        if reason == AbortReason::RemoteAbort {
            self.contention.remote_aborts_received =
                self.contention.remote_aborts_received.saturating_add(1);
        }
    }

    /// Drains the live contention telemetry counters of `telemetry` into
    /// this record (the counters are reset in the process).
    pub fn absorb_telemetry(&mut self, telemetry: &ContentionTelemetry) {
        telemetry.drain_into(&mut self.contention);
    }

    /// Total attempts (commits + aborts).
    pub fn attempts(&self) -> u64 {
        self.commits + self.aborts
    }

    /// Aborted attempts with `reason`.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.aborts_by_reason
            .get(reason.label())
            .copied()
            .unwrap_or(0)
    }

    /// Fraction of attempts that aborted, in `[0, 1]`; zero when no attempt
    /// was made.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Merges another record into this one. All counters saturate instead
    /// of wrapping, so adversarial inputs (or very long runs) cannot make an
    /// aggregate silently wrap around zero.
    pub fn merge(&mut self, other: &TxStats) {
        self.commits = self.commits.saturating_add(other.commits);
        self.read_only_commits = self
            .read_only_commits
            .saturating_add(other.read_only_commits);
        self.quiet_commits = self.quiet_commits.saturating_add(other.quiet_commits);
        self.aborts = self.aborts.saturating_add(other.aborts);
        self.reads = self.reads.saturating_add(other.reads);
        self.writes = self.writes.saturating_add(other.writes);
        self.validations = self.validations.saturating_add(other.validations);
        self.extensions = self.extensions.saturating_add(other.extensions);
        for (reason, count) in &other.aborts_by_reason {
            let entry = self.aborts_by_reason.entry(reason).or_insert(0);
            *entry = entry.saturating_add(*count);
        }
        self.contention.merge_saturating(&other.contention);
        self.retries.merge_saturating(&other.retries);
    }
}

impl fmt::Display for TxStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commits={} (ro={} quiet={}) aborts={} abort-ratio={:.3} reads={} writes={}",
            self.commits,
            self.read_only_commits,
            self.quiet_commits,
            self.aborts,
            self.abort_ratio(),
            self.reads,
            self.writes
        )?;
        for (reason, count) in &self.aborts_by_reason {
            write!(f, " {reason}={count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_abort_counters() {
        let mut s = TxStats::new();
        s.record_commit(true);
        s.record_commit(false);
        s.record_abort(AbortReason::WriteConflict);
        assert_eq!(s.commits, 2);
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.attempts(), 3);
        assert!((s.abort_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.aborts_by_reason.get("write-conflict"), Some(&1));
    }

    #[test]
    fn upgrades_are_a_reason_like_any_other() {
        let mut s = TxStats::new();
        s.record_commit(true);
        s.record_abort(AbortReason::Upgrade);
        s.record_abort(AbortReason::Upgrade);
        s.record_abort(AbortReason::Explicit);
        assert_eq!(s.aborts_for(AbortReason::Upgrade), 2);
        assert_eq!(s.aborts_for(AbortReason::RemoteAbort), 0);
        let shown = s.to_string();
        assert!(shown.ends_with(" explicit=1 upgrade=2"), "{shown}");
    }

    #[test]
    fn quiet_commits_are_merged_shown_and_shared() {
        let mut a = TxStats::new();
        a.record_commit(true);
        a.quiet_commits = 1;
        let mut b = TxStats::new();
        b.record_commit(false);
        a.merge(&b);
        assert_eq!((a.commits, a.read_only_commits, a.quiet_commits), (2, 1, 1));
        let shown = a.to_string();
        assert!(shown.starts_with("commits=2 (ro=1 quiet=1) "), "{shown}");
    }

    #[test]
    fn abort_ratio_of_empty_stats_is_zero() {
        assert_eq!(TxStats::new().abort_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = TxStats::new();
        a.record_commit(false);
        a.reads = 10;
        a.record_abort(AbortReason::ReadValidation);
        let mut b = TxStats::new();
        b.record_commit(true);
        b.reads = 5;
        b.writes = 3;
        b.record_abort(AbortReason::ReadValidation);
        b.record_abort(AbortReason::WriteConflict);
        a.merge(&b);
        assert_eq!(a.commits, 2);
        assert_eq!(a.reads, 15);
        assert_eq!(a.writes, 3);
        assert_eq!(a.aborts, 3);
        assert_eq!(a.aborts_by_reason.get("read-validation"), Some(&2));
    }

    #[test]
    fn merge_with_non_overlapping_and_overlapping_reason_keys() {
        let mut a = TxStats::new();
        a.record_abort(AbortReason::ReadValidation);
        a.record_abort(AbortReason::Explicit);
        let mut b = TxStats::new();
        b.record_abort(AbortReason::ReadValidation); // overlapping key
        b.record_abort(AbortReason::WriteConflict); // non-overlapping key
        b.record_abort(AbortReason::RemoteAbort); // non-overlapping key
        a.merge(&b);
        assert_eq!(a.aborts, 5);
        assert_eq!(a.aborts_by_reason.get("read-validation"), Some(&2));
        assert_eq!(a.aborts_by_reason.get("explicit"), Some(&1));
        assert_eq!(a.aborts_by_reason.get("write-conflict"), Some(&1));
        assert_eq!(a.aborts_by_reason.get("remote-abort"), Some(&1));
        // aborts stays the sum over the reason breakdown.
        let by_reason: u64 = a.aborts_by_reason.values().sum();
        assert_eq!(a.aborts, by_reason);
        // The remote abort was mirrored into the contention counters.
        assert_eq!(a.contention.remote_aborts_received, 1);
    }

    #[test]
    fn merge_saturates_on_adversarial_inputs() {
        let mut a = TxStats::new();
        a.commits = u64::MAX;
        a.aborts = u64::MAX - 1;
        a.aborts_by_reason.insert("write-conflict", u64::MAX);
        a.contention.cm_wait_nanos = u64::MAX;
        a.contention.remote_aborts_inflicted = u64::MAX;
        a.retries.record(1);
        let mut b = TxStats::new();
        b.commits = 5;
        b.aborts = 5;
        b.aborts_by_reason.insert("write-conflict", 5);
        b.contention.cm_wait_nanos = 5;
        b.contention.backoff_spins = 5;
        b.contention.remote_aborts_inflicted = 5;
        let mut big = RetryHistogram::default();
        for _ in 0..3 {
            big.record(2);
        }
        b.retries = big;
        a.merge(&b);
        assert_eq!(a.commits, u64::MAX, "commits must saturate, not wrap");
        assert_eq!(a.aborts, u64::MAX);
        assert_eq!(a.aborts_by_reason.get("write-conflict"), Some(&u64::MAX));
        assert_eq!(a.contention.cm_wait_nanos, u64::MAX);
        assert_eq!(a.contention.backoff_spins, 5);
        assert_eq!(a.contention.remote_aborts_inflicted, u64::MAX);
        assert_eq!(a.retries.total(), 4);
    }

    #[test]
    fn retry_histogram_buckets_and_total() {
        let mut h = RetryHistogram::default();
        for attempts in [1, 1, 2, 3, 4, 5, 8, 9, 16, 17, 1000] {
            h.record(attempts);
        }
        assert_eq!(h.buckets(), &[2, 1, 2, 2, 2, 2]);
        assert_eq!(h.total(), 11);
        let display = h.to_string();
        assert!(display.contains("3-4:2"), "{display}");
        assert!(display.contains("17+:2"), "{display}");
        // A zero attempt count (defensive) lands in the first bucket.
        h.record(0);
        assert_eq!(h.buckets()[0], 3);
    }

    #[test]
    fn retry_histogram_display_skips_empty_buckets() {
        let mut h = RetryHistogram::default();
        assert_eq!(h.to_string(), "-");
        h.record(1);
        h.record(1);
        h.record(1);
        h.record(3);
        assert_eq!(h.to_string(), "1:3 3-4:1");
    }

    #[test]
    fn absorb_telemetry_folds_and_resets_the_live_counters() {
        use crate::cm::Resolution;
        use crate::telemetry::{ConflictSite, ContentionTelemetry};
        use std::time::Duration;
        let telemetry = ContentionTelemetry::default();
        telemetry.record_resolution(ConflictSite::Write, Resolution::AbortSelf);
        telemetry.record_backoff(3, Duration::from_nanos(30));
        let mut stats = TxStats::new();
        stats.absorb_telemetry(&telemetry);
        assert_eq!(
            stats
                .contention
                .resolved(ConflictSite::Write, Resolution::AbortSelf),
            1
        );
        assert_eq!(stats.contention.backoff_spins, 3);
        // Draining twice does not double-count.
        stats.absorb_telemetry(&telemetry);
        assert_eq!(stats.contention.backoff_spins, 3);
    }

    #[test]
    fn display_impls_are_nonempty() {
        let mut s = TxStats::new();
        s.record_commit(false);
        assert!(!s.to_string().is_empty());
    }
}
