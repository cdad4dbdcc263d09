//! Configuration types for the transactional heap, lock tables, and the
//! commit clock.

use std::str::FromStr;

/// How the global commit clock hands out timestamps
/// ([`crate::clock::TxClock`]).
///
/// `Strict` is the paper's `increment&get`: every update commit CASes the
/// shared counter, which serialises all committers on one cache line.
/// `Deferred` is a TL2/GV5-style "sloppy" clock: committers *read* the
/// clock and stamp `read + 1` without advancing it; the counter only moves
/// when a reader observes a version ahead of its snapshot. The trade-off
/// (documented in detail on [`crate::clock::TxClock`]) is that timestamps
/// are no longer unique, so commit-time validation can never be skipped —
/// the clock abstraction encodes this in [`crate::clock::CommitStamp`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// One CAS per update commit; unique timestamps (the paper's scheme).
    #[default]
    Strict,
    /// GV5-style deferred clock: no CAS on the commit fast path; duplicate
    /// timestamps allowed, commit validation always runs.
    Deferred,
}

impl ClockMode {
    /// All modes, for conformance sweeps.
    pub const ALL: [ClockMode; 2] = [ClockMode::Strict, ClockMode::Deferred];

    /// Short machine-friendly label used in tables and CLI flags.
    pub const fn label(self) -> &'static str {
        match self {
            ClockMode::Strict => "strict",
            ClockMode::Deferred => "deferred",
        }
    }
}

impl FromStr for ClockMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(ClockMode::Strict),
            "deferred" | "sloppy" => Ok(ClockMode::Deferred),
            other => Err(format!(
                "unknown clock mode '{other}' (expected strict|deferred)"
            )),
        }
    }
}

/// Memory layout of the lock table ([`crate::locktable::LockTable`]).
///
/// `Flat` is the paper's layout: entries packed back to back, so with
/// 8-byte entries eight adjacent stripes share one 64-byte cache line and
/// writers of *neighbouring* stripes ping-pong that line. `Padded` gives
/// every entry its own line (at 4–8× the table's memory). `Mixed` keeps the
/// packed layout but scrambles which entry a stripe maps to, so stripes
/// that are adjacent in the heap land on distant cache lines; `PaddedMixed`
/// combines both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TableLayout {
    /// Packed entries, identity stripe→entry mapping (the paper's layout).
    #[default]
    Flat,
    /// Packed entries, index-mixed stripe→entry mapping.
    Mixed,
    /// One cache line per entry, identity mapping.
    Padded,
    /// One cache line per entry *and* index mixing.
    PaddedMixed,
}

impl TableLayout {
    /// All layouts, for conformance sweeps.
    pub const ALL: [TableLayout; 4] = [
        TableLayout::Flat,
        TableLayout::Mixed,
        TableLayout::Padded,
        TableLayout::PaddedMixed,
    ];

    /// Whether entries are cache-line padded.
    pub const fn padded(self) -> bool {
        matches!(self, TableLayout::Padded | TableLayout::PaddedMixed)
    }

    /// Whether the stripe index is mixed before indexing the table.
    pub const fn mixed(self) -> bool {
        matches!(self, TableLayout::Mixed | TableLayout::PaddedMixed)
    }

    /// Short machine-friendly label used in tables and CLI flags.
    pub const fn label(self) -> &'static str {
        match self {
            TableLayout::Flat => "flat",
            TableLayout::Mixed => "mixed",
            TableLayout::Padded => "padded",
            TableLayout::PaddedMixed => "padded-mixed",
        }
    }
}

impl FromStr for TableLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flat" => Ok(TableLayout::Flat),
            "mixed" => Ok(TableLayout::Mixed),
            "padded" => Ok(TableLayout::Padded),
            "padded-mixed" => Ok(TableLayout::PaddedMixed),
            other => Err(format!(
                "unknown table layout '{other}' (expected flat|mixed|padded|padded-mixed)"
            )),
        }
    }
}

/// Configuration of the shared transactional heap.
///
/// The heap is a fixed-size slab allocated up front; the paper's C++
/// implementation works directly on process memory, here the heap plays the
/// role of that address space (DESIGN.md §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapConfig {
    /// Total number of 64-bit words in the heap (word 0 is reserved for
    /// [`crate::word::Addr::NULL`]).
    pub words: usize,
}

impl HeapConfig {
    /// A small heap (64 Ki words = 512 KiB) suitable for unit tests.
    pub fn small() -> Self {
        HeapConfig { words: 1 << 16 }
    }

    /// A medium heap (4 Mi words = 32 MiB) suitable for microbenchmarks.
    pub fn medium() -> Self {
        HeapConfig { words: 1 << 22 }
    }

    /// A large heap (16 Mi words = 128 MiB) used by STMBench7 and STAMP
    /// style workloads.
    pub fn large() -> Self {
        HeapConfig { words: 1 << 24 }
    }

    /// A heap with an explicit word count.
    pub fn with_words(words: usize) -> Self {
        HeapConfig { words }
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig::medium()
    }
}

/// Configuration of a lock table (the paper's Figure 1 mapping).
///
/// Each stripe of `2^grain_shift` consecutive heap words maps to one lock
/// table entry; the table has `2^log2_entries` entries and the mapping is
/// `(addr >> grain_shift) & (2^log2_entries - 1)`.
///
/// The paper (Section 3.3 and Figure 13) works with 32-bit words and finds
/// a 16-byte stripe (4 words, shift-by-4 on byte addresses) optimal. Our
/// heap words are 64-bit, so the equivalent default is `grain_shift = 1`
/// (2 × 8-byte words = 16 bytes per stripe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockTableConfig {
    /// log2 of the number of lock-table entries.
    pub log2_entries: u32,
    /// log2 of the number of heap words covered by one entry.
    pub grain_shift: u32,
    /// Memory layout of the table (padding and index mixing).
    pub layout: TableLayout,
}

impl LockTableConfig {
    /// The paper's default: 2^22 entries, 16-byte stripes, flat layout.
    pub fn paper_default() -> Self {
        LockTableConfig {
            log2_entries: 22,
            grain_shift: 1,
            layout: TableLayout::Flat,
        }
    }

    /// A small table for unit tests (2^12 entries) keeping the default
    /// stripe size.
    pub fn small() -> Self {
        LockTableConfig {
            log2_entries: 12,
            grain_shift: 1,
            layout: TableLayout::Flat,
        }
    }

    /// Overrides the stripe granularity (log2 words per stripe). Used by the
    /// Figure 13 / Table 2 granularity sweeps.
    pub fn with_grain_shift(mut self, grain_shift: u32) -> Self {
        self.grain_shift = grain_shift;
        self
    }

    /// Overrides the number of entries.
    pub fn with_log2_entries(mut self, log2_entries: u32) -> Self {
        self.log2_entries = log2_entries;
        self
    }

    /// Overrides the memory layout.
    pub fn with_layout(mut self, layout: TableLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Number of entries in the table.
    pub fn entries(&self) -> usize {
        1usize << self.log2_entries
    }

    /// Number of heap words covered by one entry.
    pub fn words_per_stripe(&self) -> usize {
        1usize << self.grain_shift
    }

    /// Stripe size in bytes (for reporting against the paper's byte-based
    /// granularity axis).
    pub fn stripe_bytes(&self) -> usize {
        self.words_per_stripe() * std::mem::size_of::<u64>()
    }
}

impl Default for LockTableConfig {
    fn default() -> Self {
        LockTableConfig::paper_default()
    }
}

/// Combined configuration used by STM constructors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StmConfig {
    /// Heap configuration.
    pub heap: HeapConfig,
    /// Lock-table configuration.
    pub lock_table: LockTableConfig,
    /// Commit-clock mode.
    pub clock: ClockMode,
}

impl StmConfig {
    /// Configuration for unit tests: small heap, small lock table.
    pub fn small() -> Self {
        StmConfig {
            heap: HeapConfig::small(),
            lock_table: LockTableConfig::small(),
            clock: ClockMode::Strict,
        }
    }

    /// Configuration used by benchmark harnesses: large heap, paper-default
    /// lock table.
    pub fn benchmark() -> Self {
        StmConfig {
            heap: HeapConfig::large(),
            lock_table: LockTableConfig::paper_default(),
            clock: ClockMode::Strict,
        }
    }

    /// Sets the heap configuration.
    pub fn with_heap(mut self, heap: HeapConfig) -> Self {
        self.heap = heap;
        self
    }

    /// Sets the lock-table configuration.
    pub fn with_lock_table(mut self, lock_table: LockTableConfig) -> Self {
        self.lock_table = lock_table;
        self
    }

    /// Sets the commit-clock mode.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the lock-table layout, keeping the other table parameters.
    pub fn with_table_layout(mut self, layout: TableLayout) -> Self {
        self.lock_table.layout = layout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lock_table_matches_paper() {
        let c = LockTableConfig::paper_default();
        assert_eq!(c.entries(), 1 << 22);
        assert_eq!(c.stripe_bytes(), 16);
    }

    #[test]
    fn grain_shift_override() {
        let c = LockTableConfig::small().with_grain_shift(3);
        assert_eq!(c.words_per_stripe(), 8);
        assert_eq!(c.stripe_bytes(), 64);
    }

    #[test]
    fn heap_presets_are_ordered() {
        assert!(HeapConfig::small().words < HeapConfig::medium().words);
        assert!(HeapConfig::medium().words < HeapConfig::large().words);
    }

    #[test]
    fn stm_config_builders() {
        let c = StmConfig::small()
            .with_heap(HeapConfig::with_words(1234))
            .with_lock_table(LockTableConfig::small().with_log2_entries(8))
            .with_clock(ClockMode::Deferred)
            .with_table_layout(TableLayout::PaddedMixed);
        assert_eq!(c.heap.words, 1234);
        assert_eq!(c.lock_table.entries(), 256);
        assert_eq!(c.clock, ClockMode::Deferred);
        assert_eq!(c.lock_table.layout, TableLayout::PaddedMixed);
    }

    #[test]
    fn defaults_match_the_paper() {
        assert_eq!(StmConfig::default().clock, ClockMode::Strict);
        assert_eq!(StmConfig::default().lock_table.layout, TableLayout::Flat);
        assert_eq!(StmConfig::benchmark().clock, ClockMode::Strict);
    }

    #[test]
    fn clock_mode_labels_round_trip() {
        for mode in ClockMode::ALL {
            assert_eq!(mode.label().parse::<ClockMode>().unwrap(), mode);
        }
        assert_eq!("sloppy".parse::<ClockMode>().unwrap(), ClockMode::Deferred);
        assert!("gv9".parse::<ClockMode>().is_err());
    }

    #[test]
    fn table_layout_labels_round_trip() {
        for layout in TableLayout::ALL {
            assert_eq!(layout.label().parse::<TableLayout>().unwrap(), layout);
        }
        assert!(TableLayout::PaddedMixed.padded());
        assert!(TableLayout::PaddedMixed.mixed());
        assert!(!TableLayout::Flat.padded() && !TableLayout::Flat.mixed());
        assert!(TableLayout::Mixed.mixed() && !TableLayout::Mixed.padded());
        assert!(TableLayout::Padded.padded() && !TableLayout::Padded.mixed());
        assert!("sparse".parse::<TableLayout>().is_err());
    }

    #[test]
    fn unknown_names_are_errors_that_list_the_choices() {
        let message = "gv9".parse::<ClockMode>().unwrap_err();
        assert_eq!(
            message,
            "unknown clock mode 'gv9' (expected strict|deferred)"
        );
        let message = "Flat".parse::<TableLayout>().unwrap_err();
        assert_eq!(
            message,
            "unknown table layout 'Flat' (expected flat|mixed|padded|padded-mixed)"
        );
    }
}
