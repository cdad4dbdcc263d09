//! # SwissTM
//!
//! A Rust reproduction of **SwissTM** — the lock- and word-based software
//! transactional memory of Dragojević, Guerraoui and Kapałka,
//! *Stretching Transactional Memory*, PLDI 2009.
//!
//! The algorithm's two distinctive features (paper §1, §3):
//!
//! 1. **Mixed invalidation conflict detection.** Write/write conflicts are
//!    detected *eagerly*: a writer acquires the write lock of a memory
//!    stripe at its first write, so two writers of the same stripe collide
//!    immediately and no work is wasted on a transaction doomed to abort.
//!    Read/write conflicts are detected *lazily*: reads are invisible and
//!    validated against a global commit counter (with timestamp extension),
//!    so readers can run concurrently with a writer of the same stripe and
//!    only revalidate when the writer actually commits.
//! 2. **Two-phase contention management.** Transactions are "timid" (abort
//!    themselves on conflict) until they have performed `Wn = 10` writes;
//!    beyond that they enter a Greedy phase with a unique timestamp in which
//!    older (longer-running) transactions win, guaranteeing progress of
//!    long transactions without imposing any bookkeeping on short ones.
//!    Aborted transactions back off for a random duration proportional to
//!    their number of successive aborts.
//!
//! Each stripe of the lock table carries **two** locks (paper §3.3): a
//! `w-lock` acquired eagerly by writers, and an `r-lock` that holds the
//! stripe's version number and is locked only for the short duration of a
//! writer's commit.
//!
//! Everything else — the descriptor, the read path, validation and
//! extension, and the contention-managed acquisition loop — is the shared
//! [`stm_core::engine`], whose default operations are SwissTM's. What this
//! crate decides is its policy on the paper's axes: it acquires the w-lock
//! at the first write, a read passes a w-lock and waits only while the
//! owner commits, the snapshot is extended, and the lock word is the
//! [`StripeEntry`] pair, whose r-locks commit locks before the stamp.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stm_core::prelude::*;
//! use swisstm::SwissTm;
//!
//! let stm = Arc::new(SwissTm::with_config(stm_core::config::StmConfig::small()));
//! let counter = stm.heap().alloc_zeroed(1).unwrap();
//!
//! let mut ctx = ThreadContext::register(Arc::clone(&stm));
//! ctx.atomically(|tx| {
//!     let v = tx.read(counter)?;
//!     tx.write(counter, v + 1)
//! }).unwrap();
//! assert_eq!(ctx.read_word(counter).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod entry;

pub use algorithm::{SwissDescriptor, SwissTm, SwissTmBuilder};
pub use entry::{ReadLockState, StripeEntry};
