//! STMBench7 operations and workload mixes.
//!
//! The operation families mirror the original benchmark:
//!
//! * **Short read-only** — index lookups, short graph traversals, date
//!   queries (the `Q`/`ST` operations).
//! * **Long read-only** — a full traversal of the assembly hierarchy down
//!   to the atomic parts (`T1`).
//! * **Short read-write** — updating a single atomic part or a composite's
//!   document (`OP`-style operations).
//! * **Long read-write** — the full traversal that also swaps the `x`/`y`
//!   coordinates of every atomic part it visits (`T2`).
//! * **Structural modifications** — creating and deleting atomic parts,
//!   updating the indices (`SM1`/`SM2`).
//!
//! The three standard workload mixes select between these families with the
//! paper's read-only ratios: read-dominated (90 %), read-write (60 %) and
//! write-dominated (10 %).

use std::collections::VecDeque;

use stm_core::backoff::FastRng;
use stm_core::error::{StmError, TxResult};
use stm_core::tm::{ThreadContext, TmAlgorithm, Tx};
use stm_core::word::{Addr, Word};

use super::model::*;
use super::visited::VisitedSet;
use crate::driver::Workload;
use crate::structures::SortedList;

/// The operation families of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// Look up a handful of atomic parts by id and read their fields.
    ShortReadPartById,
    /// Look up a composite part and read its document.
    ShortReadComposite,
    /// Breadth-first traversal of one composite's atomic-part graph.
    ShortTraversal,
    /// Read the build dates of several atomic parts (date query).
    DateQuery,
    /// Full read-only traversal of the assembly hierarchy (long).
    LongTraversalRead,
    /// Update one atomic part (swap coordinates, bump the build date).
    ShortUpdatePart,
    /// Update a composite's build date and document title.
    ShortUpdateComposite,
    /// Full traversal that updates every atomic part it visits (long).
    LongTraversalUpdate,
    /// Create a new atomic part and link it into a composite (SM1).
    StructuralAdd,
    /// Remove an atomic part from a composite (SM2).
    StructuralRemove,
}

impl OperationKind {
    /// Every operation kind, read-only kinds first.
    pub const ALL: [OperationKind; 10] = [
        OperationKind::ShortReadPartById,
        OperationKind::ShortReadComposite,
        OperationKind::ShortTraversal,
        OperationKind::DateQuery,
        OperationKind::LongTraversalRead,
        OperationKind::ShortUpdatePart,
        OperationKind::ShortUpdateComposite,
        OperationKind::LongTraversalUpdate,
        OperationKind::StructuralAdd,
        OperationKind::StructuralRemove,
    ];

    /// `true` for operations that never write.
    pub fn is_read_only(self) -> bool {
        matches!(
            self,
            OperationKind::ShortReadPartById
                | OperationKind::ShortReadComposite
                | OperationKind::ShortTraversal
                | OperationKind::DateQuery
                | OperationKind::LongTraversalRead
        )
    }
}

/// A workload mix: how often each operation family runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadMix {
    /// Percentage of operations that are read-only.
    pub read_only_percent: u64,
    /// Percentage of *read-only* operations that are long traversals.
    pub long_read_percent: u64,
    /// Percentage of *update* operations that are long traversals.
    pub long_write_percent: u64,
    /// Percentage of *update* operations that are structural modifications.
    pub structural_percent: u64,
    /// Human-readable mix name.
    pub name: &'static str,
}

impl WorkloadMix {
    /// The paper's read-dominated workload (90 % read-only operations).
    pub fn read_dominated() -> Self {
        WorkloadMix {
            read_only_percent: 90,
            long_read_percent: 10,
            long_write_percent: 10,
            structural_percent: 20,
            name: "read-dominated",
        }
    }

    /// The paper's read-write workload (60 % read-only operations).
    pub fn read_write() -> Self {
        WorkloadMix {
            read_only_percent: 60,
            long_read_percent: 10,
            long_write_percent: 10,
            structural_percent: 20,
            name: "read-write",
        }
    }

    /// The paper's write-dominated workload (10 % read-only operations).
    pub fn write_dominated() -> Self {
        WorkloadMix {
            read_only_percent: 10,
            long_read_percent: 10,
            long_write_percent: 10,
            structural_percent: 20,
            name: "write-dominated",
        }
    }

    /// Chooses the next operation.
    pub fn pick(&self, rng: &mut FastRng) -> OperationKind {
        if rng.chance_percent(self.read_only_percent) {
            if rng.chance_percent(self.long_read_percent) {
                OperationKind::LongTraversalRead
            } else {
                match rng.next_below(4) {
                    0 => OperationKind::ShortReadPartById,
                    1 => OperationKind::ShortReadComposite,
                    2 => OperationKind::ShortTraversal,
                    _ => OperationKind::DateQuery,
                }
            }
        } else if rng.chance_percent(self.long_write_percent) {
            OperationKind::LongTraversalUpdate
        } else if rng.chance_percent(self.structural_percent) {
            if rng.chance_percent(50) {
                OperationKind::StructuralAdd
            } else {
                OperationKind::StructuralRemove
            }
        } else if rng.chance_percent(50) {
            OperationKind::ShortUpdatePart
        } else {
            OperationKind::ShortUpdateComposite
        }
    }
}

/// The breadth-first search state of one operation's composite traversals:
/// the parts reached so far and, of those, the ones not yet read. A part
/// enters both when an edge first leads to it, so the queue holds every part
/// once. An operation owns one `Traversal` and every composite it traverses
/// reuses it: a long traversal allocates once, and starting on the next
/// composite costs a stamp increment.
#[derive(Debug)]
struct Traversal {
    reached: VisitedSet,
    queue: VecDeque<Addr>,
}

impl Traversal {
    /// Sized for one composite of `config` (structural additions may grow a
    /// composite past it; both containers grow on demand).
    fn new(config: Bench7Config) -> Self {
        let parts = config.parts_per_composite;
        Traversal {
            reached: VisitedSet::for_members(parts),
            queue: VecDeque::with_capacity(parts),
        }
    }

    /// Queues `part` unless it is null or was reached before.
    #[inline]
    fn reach(&mut self, part: Addr) {
        if !part.is_null() && self.reached.insert(part) {
            self.queue.push_back(part);
        }
    }
}

/// The STMBench7 workload: the shared structure plus an operation mix.
#[derive(Clone, Debug)]
pub struct Bench7Workload {
    data: Bench7Data,
    mix: WorkloadMix,
}

impl Bench7Workload {
    /// Combines a built structure with a workload mix.
    pub fn new(data: Bench7Data, mix: WorkloadMix) -> Self {
        Bench7Workload { data, mix }
    }

    /// The underlying structure.
    pub fn data(&self) -> &Bench7Data {
        &self.data
    }

    /// The configured mix.
    pub fn mix(&self) -> WorkloadMix {
        self.mix
    }

    fn random_part_id(&self, rng: &mut FastRng) -> Word {
        1 + rng.next_below(self.data.config().total_parts() as u64)
    }

    fn random_composite(&self, rng: &mut FastRng) -> Addr {
        let composites = self.data.composites();
        composites[rng.next_below(composites.len() as u64) as usize]
    }

    // --- read-only operations -------------------------------------------

    fn op_read_part_by_id<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let mut sum = 0;
        for _ in 0..4 {
            let id = self.random_part_id(rng);
            if let Some(part) = self.data.part_index().get(tx, id)? {
                let part = Addr::from_word(part);
                sum += tx.read_field(part, AP_X)? + tx.read_field(part, AP_Y)?;
            }
        }
        Ok(sum)
    }

    fn op_read_composite<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let composite = self.random_composite(rng);
        let document = Addr::from_word(tx.read_field(composite, CP_DOCUMENT)?);
        let title = tx.read_field(document, DOC_TITLE)?;
        let date = tx.read_field(composite, CP_DATE)?;
        Ok(title ^ date)
    }

    fn op_short_traversal<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let composite = self.random_composite(rng);
        let mut bfs = Traversal::new(self.data.config());
        self.traverse_composite(tx, &mut bfs, composite, false)
    }

    fn op_date_query<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let mut newest = 0;
        for _ in 0..8 {
            let id = self.random_part_id(rng);
            if let Some(part) = self.data.part_index().get(tx, id)? {
                let date = tx.read_field(Addr::from_word(part), AP_DATE)?;
                newest = newest.max(date);
            }
        }
        Ok(newest)
    }

    fn op_long_traversal<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        update: bool,
    ) -> TxResult<Word> {
        let root = Addr::from_word(tx.read_field(self.data.module(), MOD_DESIGN_ROOT)?);
        let config = self.data.config();
        let mut bfs = Traversal::new(config);
        self.traverse_assembly(tx, &mut bfs, root, config.assembly_levels, update)
    }

    // --- update operations ----------------------------------------------

    fn op_update_part<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let id = self.random_part_id(rng);
        if let Some(part) = self.data.part_index().get(tx, id)? {
            let part = Addr::from_word(part);
            let x = tx.read_field(part, AP_X)?;
            let y = tx.read_field(part, AP_Y)?;
            tx.write_field(part, AP_X, y)?;
            tx.write_field(part, AP_Y, x)?;
            let date = tx.read_field(part, AP_DATE)?;
            tx.write_field(part, AP_DATE, date + 1)?;
            return Ok(1);
        }
        Ok(0)
    }

    fn op_update_composite<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let composite = self.random_composite(rng);
        let date = tx.read_field(composite, CP_DATE)?;
        tx.write_field(composite, CP_DATE, date + 1)?;
        let document = Addr::from_word(tx.read_field(composite, CP_DOCUMENT)?);
        let title = tx.read_field(document, DOC_TITLE)?;
        tx.write_field(document, DOC_TITLE, title.wrapping_add(1))?;
        Ok(1)
    }

    fn op_structural_add<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let composite = self.random_composite(rng);
        let new_id = tx.read(self.data.id_counter())? + 1;
        tx.write(self.data.id_counter(), new_id)?;

        let part = tx.alloc(AP_WORDS)?;
        tx.write_field(part, AP_ID, new_id)?;
        tx.write_field(part, AP_X, rng.next_below(1000))?;
        tx.write_field(part, AP_Y, rng.next_below(1000))?;
        tx.write_field(part, AP_DATE, 3000 + new_id % 500)?;
        tx.write_field(part, AP_PART_OF, composite.to_word())?;
        // Connect the new part to the composite's root part (both ways if
        // the root still has a free slot).
        let root = Addr::from_word(tx.read_field(composite, CP_ROOT_PART)?);
        tx.write_field(part, AP_CONN_COUNT, 1)?;
        tx.write_field(part, AP_CONN_BASE, root.to_word())?;
        let root_conns = tx.read_field(root, AP_CONN_COUNT)? as usize;
        if root_conns < AP_MAX_CONN {
            tx.write_field(root, AP_CONN_BASE + root_conns, part.to_word())?;
            tx.write_field(root, AP_CONN_COUNT, (root_conns + 1) as Word)?;
        }

        let parts_list =
            SortedList::from_header(Addr::from_word(tx.read_field(composite, CP_PARTS_LIST)?));
        parts_list.insert(tx, new_id, part.to_word())?;
        self.data.part_index().insert(tx, new_id, part.to_word())?;
        let date = tx.read_field(part, AP_DATE)?;
        self.data
            .date_index()
            .insert(tx, (date << 20) | new_id, part.to_word())?;
        Ok(new_id)
    }

    fn op_structural_remove<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        rng: &mut FastRng,
    ) -> TxResult<Word> {
        let id = self.random_part_id(rng);
        let Some(part) = self.data.part_index().get(tx, id)? else {
            return Ok(0);
        };
        let part = Addr::from_word(part);
        let composite = Addr::from_word(tx.read_field(part, AP_PART_OF)?);
        let root = Addr::from_word(tx.read_field(composite, CP_ROOT_PART)?);
        if root == part {
            // Never remove the designated root part; it anchors traversals.
            return Ok(0);
        }
        let parts_list =
            SortedList::from_header(Addr::from_word(tx.read_field(composite, CP_PARTS_LIST)?));
        parts_list.remove(tx, id)?;
        self.data.part_index().remove(tx, id)?;
        let date = tx.read_field(part, AP_DATE)?;
        self.data.date_index().remove(tx, (date << 20) | id)?;
        // The part record itself stays allocated: other parts may still hold
        // connections to it (the original benchmark relies on garbage
        // collection here; leaking the node is the conservative equivalent).
        Ok(1)
    }

    // --- traversal helpers ------------------------------------------------

    fn traverse_composite<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        bfs: &mut Traversal,
        composite: Addr,
        update: bool,
    ) -> TxResult<Word> {
        let root = Addr::from_word(tx.read_field(composite, CP_ROOT_PART)?);
        // Both are cleared here, not where the loop ends: an attempt that
        // aborts mid-traversal leaves through a `?` with the queue half full.
        bfs.reached.clear();
        bfs.queue.clear();
        bfs.reach(root);
        let mut sum = 0;
        while let Some(part) = bfs.queue.pop_front() {
            let x = tx.read_field(part, AP_X)?;
            sum += x;
            if update {
                let y = tx.read_field(part, AP_Y)?;
                tx.write_field(part, AP_X, y)?;
                tx.write_field(part, AP_Y, x)?;
            }
            let conn_count = tx.read_field(part, AP_CONN_COUNT)? as usize;
            for i in 0..conn_count.min(AP_MAX_CONN) {
                bfs.reach(Addr::from_word(tx.read_field(part, AP_CONN_BASE + i)?));
            }
        }
        Ok(sum)
    }

    fn traverse_assembly<A: TmAlgorithm>(
        &self,
        tx: &mut Tx<'_, A>,
        bfs: &mut Traversal,
        assembly: Addr,
        level: u32,
        update: bool,
    ) -> TxResult<Word> {
        if assembly.is_null() {
            return Ok(0);
        }
        let mut sum = 0;
        if level <= LEVEL_BASE as u32 {
            let comp_count = tx.read_field(assembly, BA_COMP_COUNT)? as usize;
            let comp_base = Addr::from_word(tx.read_field(assembly, BA_COMP_BASE)?);
            for i in 0..comp_count {
                let composite = Addr::from_word(tx.read(comp_base.offset(i))?);
                sum += self.traverse_composite(tx, bfs, composite, update)?;
            }
        } else {
            let sub_count = tx.read_field(assembly, CA_SUB_COUNT)? as usize;
            let sub_base = Addr::from_word(tx.read_field(assembly, CA_SUB_BASE)?);
            for i in 0..sub_count {
                let child = Addr::from_word(tx.read(sub_base.offset(i))?);
                sum += self.traverse_assembly(tx, bfs, child, level - 1, update)?;
            }
        }
        Ok(sum)
    }

    /// Executes a specific operation kind once (used by tests and the design
    /// dissection experiments that need per-operation control).
    pub fn run_operation<A: TmAlgorithm>(
        &self,
        ctx: &mut ThreadContext<A>,
        rng: &mut FastRng,
        kind: OperationKind,
    ) {
        use OperationKind::*;
        let result = match kind {
            ShortReadPartById => transact(ctx, kind, |tx| self.op_read_part_by_id(tx, rng)),
            ShortReadComposite => transact(ctx, kind, |tx| self.op_read_composite(tx, rng)),
            ShortTraversal => transact(ctx, kind, |tx| self.op_short_traversal(tx, rng)),
            DateQuery => transact(ctx, kind, |tx| self.op_date_query(tx, rng)),
            LongTraversalRead => transact(ctx, kind, |tx| self.op_long_traversal(tx, false)),
            ShortUpdatePart => transact(ctx, kind, |tx| self.op_update_part(tx, rng)),
            ShortUpdateComposite => transact(ctx, kind, |tx| self.op_update_composite(tx, rng)),
            LongTraversalUpdate => transact(ctx, kind, |tx| self.op_long_traversal(tx, true)),
            StructuralAdd => transact(ctx, kind, |tx| self.op_structural_add(tx, rng)),
            StructuralRemove => transact(ctx, kind, |tx| self.op_structural_remove(tx, rng)),
        };
        result.expect("STMBench7 operation must eventually commit");
    }
}

/// Runs one operation of `kind` as a transaction, declared read-only when
/// the kind is ([`OperationKind::is_read_only`]), which lets the STM run it
/// log-free. Inlined with a constant `kind`, so each arm of
/// [`Bench7Workload::run_operation`] calls one entry point.
#[inline(always)]
fn transact<A: TmAlgorithm>(
    ctx: &mut ThreadContext<A>,
    kind: OperationKind,
    body: impl FnMut(&mut Tx<'_, A>) -> TxResult<Word>,
) -> Result<Word, StmError> {
    if kind.is_read_only() {
        ctx.atomically_read_only(body)
    } else {
        ctx.atomically(body)
    }
}

impl<A: TmAlgorithm> Workload<A> for Bench7Workload {
    fn execute(&self, ctx: &mut ThreadContext<A>, rng: &mut FastRng, _op_index: u64) {
        let kind = self.mix.pick(rng);
        self.run_operation(ctx, rng, kind);
    }

    fn name(&self) -> String {
        format!("stmbench7({})", self.mix.name)
    }

    fn check(&self, ctx: &mut ThreadContext<A>) -> bool {
        self.data.check(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm_core::config::{HeapConfig, LockTableConfig, StmConfig};
    use swisstm::SwissTm;

    /// Reads of one long read-only traversal of `setup()`'s structure.
    const PINNED_LONG_TRAVERSAL_READS: u64 = 145;

    fn setup() -> (Arc<SwissTm>, Bench7Workload) {
        let stm = Arc::new(SwissTm::with_config(StmConfig {
            heap: HeapConfig::with_words(1 << 20),
            lock_table: LockTableConfig::small(),
            clock: stm_core::config::ClockMode::Strict,
        }));
        let data = Bench7Data::build(&stm, Bench7Config::tiny(), 17);
        (
            stm.clone(),
            Bench7Workload::new(data, WorkloadMix::read_write()),
        )
    }

    #[test]
    fn every_operation_kind_commits() {
        let (stm, workload) = setup();
        let mut ctx = ThreadContext::register(stm);
        let mut rng = FastRng::new(77);
        for kind in OperationKind::ALL {
            workload.run_operation(&mut ctx, &mut rng, kind);
        }
        assert_eq!(ctx.stats().commits, OperationKind::ALL.len() as u64);
        assert!(workload.data().check(&mut ctx));
    }

    #[test]
    fn long_traversal_touches_many_parts() {
        let (stm, workload) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| workload.op_long_traversal(tx, false))
            .unwrap();
        let stats = ctx.stats();
        assert!(
            stats.reads > Bench7Config::tiny().total_parts() as u64,
            "long traversal should read every atomic part at least once (reads = {})",
            stats.reads
        );
    }

    #[test]
    fn long_read_traversal_performs_a_pinned_number_of_reads() {
        // The count the `Vec` + `contains` traversal performed on this
        // structure (seed 17): the visited set changes how membership is
        // answered, not which parts are visited or in which order.
        let (stm, workload) = setup();
        let mut ctx = ThreadContext::register(stm);
        ctx.atomically(|tx| workload.op_long_traversal(tx, false))
            .unwrap();
        assert_eq!(ctx.stats().reads, PINNED_LONG_TRAVERSAL_READS);
    }

    #[test]
    fn short_traversal_of_a_cyclic_graph_visits_every_part_once() {
        let (stm, workload) = setup();
        let heap = stm.heap();
        let composite = workload.data().composites()[0];
        let root = Addr::from_word(heap.load(composite.offset(CP_ROOT_PART)));

        // Reference walk over the raw heap: the parts reachable from the
        // root, the reads a traversal owes them, and whether the walk ever
        // came back to a part it had seen (the ring guarantees it does).
        let mut reachable = vec![root];
        let mut expected_reads = 1; // the composite's root pointer
        let mut revisits = 0;
        let mut next = 0;
        while next < reachable.len() {
            let part = reachable[next];
            next += 1;
            let conns = (heap.load(part.offset(AP_CONN_COUNT)) as usize).min(AP_MAX_CONN);
            expected_reads += 2 + conns as u64; // x, connection count, connections
            for i in 0..conns {
                let target = Addr::from_word(heap.load(part.offset(AP_CONN_BASE + i)));
                if reachable.contains(&target) {
                    revisits += 1;
                } else {
                    reachable.push(target);
                }
            }
        }
        assert!(revisits > 0, "the connection graph must have a cycle");
        assert_eq!(
            reachable.len(),
            Bench7Config::tiny().parts_per_composite,
            "the ring connects every part of the composite"
        );
        // One bit per part: the sum is all ones iff each x was added once.
        for (bit, part) in reachable.iter().enumerate() {
            heap.store(part.offset(AP_X), 1 << bit);
        }

        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let sum = ctx
            .atomically(|tx| {
                let mut bfs = Traversal::new(workload.data().config());
                workload.traverse_composite(tx, &mut bfs, composite, false)
            })
            .unwrap();
        assert_eq!(sum, (1 << reachable.len()) - 1);
        assert_eq!(ctx.stats().reads, expected_reads);
    }

    #[test]
    fn a_composite_grown_past_the_visited_set_is_still_traversed_once_per_part() {
        let (stm, workload) = setup();
        let heap = stm.heap();
        let config = workload.data().config();
        let composite = workload.data().composites()[0];
        let root = Addr::from_word(heap.load(composite.offset(CP_ROOT_PART)));

        // More additions than the set was built with slots. `StructuralAdd`
        // hangs every new part off the root, which has room for
        // `AP_MAX_CONN - connections_per_part` of them; here they form a
        // chain instead (root -> new[0] -> new[1] -> ... -> root), so all
        // of them are reachable.
        let additions = 4 * config.parts_per_composite + 3;
        let chain: Vec<Addr> = (0..additions)
            .map(|_| heap.alloc_zeroed(AP_WORDS).unwrap())
            .collect();
        for (i, &part) in chain.iter().enumerate() {
            let next = chain.get(i + 1).copied().unwrap_or(root);
            heap.store(part.offset(AP_CONN_COUNT), 1);
            heap.store(part.offset(AP_CONN_BASE), next.to_word());
        }
        let root_conns = heap.load(root.offset(AP_CONN_COUNT)) as usize;
        assert!(root_conns < AP_MAX_CONN, "the root has a free slot");
        heap.store(root.offset(AP_CONN_BASE + root_conns), chain[0].to_word());
        heap.store(root.offset(AP_CONN_COUNT), root_conns as Word + 1);

        // Reference walk over the raw heap; part k (in walk order) gets
        // x = k + 1, so a part read twice or not at all changes the sum.
        let mut reachable = vec![root];
        let mut seen: std::collections::HashSet<Addr> = reachable.iter().copied().collect();
        let mut expected_reads = 1; // the composite's root pointer
        let mut next = 0;
        while next < reachable.len() {
            let part = reachable[next];
            next += 1;
            heap.store(part.offset(AP_X), next as Word);
            let conns = (heap.load(part.offset(AP_CONN_COUNT)) as usize).min(AP_MAX_CONN);
            expected_reads += 2 + conns as u64; // x, connection count, connections
            for i in 0..conns {
                let target = Addr::from_word(heap.load(part.offset(AP_CONN_BASE + i)));
                if seen.insert(target) {
                    reachable.push(target);
                }
            }
        }
        let parts = (config.parts_per_composite + additions) as Word;
        assert_eq!(reachable.len() as Word, parts);

        let mut ctx = ThreadContext::register(Arc::clone(&stm));
        let sum = ctx
            .atomically(|tx| {
                let mut bfs = Traversal::new(config);
                workload.traverse_composite(tx, &mut bfs, composite, false)
            })
            .unwrap();
        assert_eq!(sum, parts * (parts + 1) / 2);
        assert_eq!(ctx.stats().reads, expected_reads);
    }

    #[test]
    fn structural_add_makes_part_visible() {
        let (stm, workload) = setup();
        let mut ctx = ThreadContext::register(stm);
        let mut rng = FastRng::new(5);
        let new_id = ctx
            .atomically(|tx| workload.op_structural_add(tx, &mut rng))
            .unwrap();
        assert!(new_id > Bench7Config::tiny().total_parts() as u64);
        let found = ctx
            .atomically(|tx| workload.data().part_index().get(tx, new_id))
            .unwrap();
        assert!(found.is_some());
    }

    #[test]
    fn structural_remove_deletes_from_index() {
        let (stm, workload) = setup();
        let mut ctx = ThreadContext::register(stm);
        // Find an id that is not a composite root (roots are skipped).
        let mut removed_id = None;
        let mut rng = FastRng::new(9);
        for _ in 0..50 {
            let result = ctx
                .atomically(|tx| workload.op_structural_remove(tx, &mut rng))
                .unwrap();
            if result == 1 {
                removed_id = Some(result);
                break;
            }
        }
        assert!(removed_id.is_some(), "no removable part found in 50 tries");
    }

    #[test]
    fn mix_pick_respects_read_only_ratio_roughly() {
        let mix = WorkloadMix::read_dominated();
        let mut rng = FastRng::new(3);
        let trials = 4000;
        let read_only = (0..trials)
            .filter(|_| mix.pick(&mut rng).is_read_only())
            .count();
        let ratio = read_only as f64 / trials as f64;
        assert!(
            (0.85..=0.95).contains(&ratio),
            "read-only ratio {ratio} out of expected band"
        );
    }

    #[test]
    fn operation_kinds_classify_read_only_correctly() {
        assert!(OperationKind::LongTraversalRead.is_read_only());
        assert!(!OperationKind::LongTraversalUpdate.is_read_only());
        assert!(!OperationKind::StructuralAdd.is_read_only());
    }
}
