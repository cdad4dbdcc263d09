//! Error and abort types shared by all STM implementations.

use std::error::Error;
use std::fmt;

/// Why a transaction was rolled back.
///
/// The reason is carried by [`Abort`] and recorded in the per-thread
/// statistics so that experiments can break aborts down by cause (the
/// paper's discussion of read/write vs write/write conflicts relies on
/// this distinction).
///
/// The discriminant is a full word so that `TxResult<Word>` is a (tag,
/// word) pair the ABI returns in two registers: with a one-byte reason the
/// pair becomes an aggregate returned through memory, and every
/// transactional read that is not inlined — and every merge of an inlined
/// read with its out-of-line slow paths — goes through a stack slot on the
/// pointer-chasing critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum AbortReason {
    /// Read-set validation failed (a read/write conflict materialised).
    ReadValidation,
    /// A write/write conflict was resolved against this transaction.
    WriteConflict,
    /// A read observed a location locked by a committing writer and the
    /// contention policy chose to abort the reader.
    ReadLocked,
    /// Another transaction requested this transaction's abort (Greedy-style
    /// victim abort).
    RemoteAbort,
    /// The user program requested an explicit retry/abort.
    Explicit,
    /// The transactional allocator ran out of heap space.
    OutOfMemory,
    /// A log-free attempt (see [`crate::tm::ThreadContext::atomically_read_only`])
    /// met what it cannot do without a read log — a read its snapshot does
    /// not cover, a write or an allocation — and the transaction re-runs
    /// logged.
    Upgrade,
}

impl AbortReason {
    /// Short machine-friendly label used in statistics tables.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::ReadValidation => "read-validation",
            AbortReason::WriteConflict => "write-conflict",
            AbortReason::ReadLocked => "read-locked",
            AbortReason::RemoteAbort => "remote-abort",
            AbortReason::Explicit => "explicit",
            AbortReason::OutOfMemory => "out-of-memory",
            AbortReason::Upgrade => "upgrade",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Control-flow token signalling that the current transaction attempt must
/// be rolled back and retried.
///
/// `Abort` is not a fatal error: the [`crate::tm::ThreadContext::atomically`]
/// driver catches it, rolls the attempt back, consults the contention
/// manager's back-off policy and retries. User code inside a transaction
/// simply propagates it with `?`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    /// The reason for the rollback.
    pub reason: AbortReason,
}

impl Abort {
    /// Creates an abort with the given reason.
    pub const fn new(reason: AbortReason) -> Self {
        Abort { reason }
    }

    /// Abort caused by failed read-set validation.
    pub const READ_VALIDATION: Abort = Abort::new(AbortReason::ReadValidation);
    /// Abort caused by a write/write conflict.
    pub const WRITE_CONFLICT: Abort = Abort::new(AbortReason::WriteConflict);
    /// Abort caused by reading a locked location.
    pub const READ_LOCKED: Abort = Abort::new(AbortReason::ReadLocked);
    /// Abort requested by another transaction.
    pub const REMOTE: Abort = Abort::new(AbortReason::RemoteAbort);
    /// Abort requested by the user program.
    pub const EXPLICIT: Abort = Abort::new(AbortReason::Explicit);
    /// Abort caused by allocator exhaustion.
    pub const OOM: Abort = Abort::new(AbortReason::OutOfMemory);
    /// Abort of a log-free attempt that has to re-run logged.
    pub const UPGRADE: Abort = Abort::new(AbortReason::Upgrade);
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted ({})", self.reason)
    }
}

impl Error for Abort {}

/// Result type used by transactional operations.
pub type TxResult<T> = Result<T, Abort>;

/// Errors surfaced outside of the transactional retry loop.
#[derive(Debug)]
pub enum StmError {
    /// The transactional heap has no room left for an allocation request.
    OutOfMemory {
        /// Number of words that were requested.
        requested: usize,
        /// Number of words still available.
        available: usize,
    },
    /// More threads registered than the configured maximum.
    TooManyThreads {
        /// The configured maximum number of thread slots.
        max: usize,
    },
    /// A transaction exceeded the configured retry budget.
    RetryBudgetExhausted {
        /// Number of attempts performed before giving up.
        attempts: u64,
    },
}

impl fmt::Display for StmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "transactional heap exhausted: requested {requested} words, {available} available"
            ),
            StmError::TooManyThreads { max } => {
                write!(f, "too many threads registered (maximum {max})")
            }
            StmError::RetryBudgetExhausted { attempts } => {
                write!(
                    f,
                    "transaction retry budget exhausted after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for StmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_display_mentions_reason() {
        let msg = Abort::WRITE_CONFLICT.to_string();
        assert!(msg.contains("write-conflict"), "{msg}");
    }

    #[test]
    fn reasons_have_distinct_labels() {
        let all = [
            AbortReason::ReadValidation,
            AbortReason::WriteConflict,
            AbortReason::ReadLocked,
            AbortReason::RemoteAbort,
            AbortReason::Explicit,
            AbortReason::OutOfMemory,
            AbortReason::Upgrade,
        ];
        let mut labels: Vec<_> = all.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn stm_error_messages_are_informative() {
        let e = StmError::OutOfMemory {
            requested: 10,
            available: 2,
        };
        assert!(e.to_string().contains("10"));
        let e = StmError::TooManyThreads { max: 64 };
        assert!(e.to_string().contains("64"));
        let e = StmError::RetryBudgetExhausted { attempts: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn abort_is_error_trait_object_compatible() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&Abort::EXPLICIT);
        takes_error(&StmError::TooManyThreads { max: 1 });
    }
}
