//! Functions: the unit of compilation and simulation.
//!
//! ## Block versions
//!
//! Every block slot carries a `u64` version ([`Function::block_version`]).
//! Each mutable access to a slot — [`Function::block_mut`],
//! [`Function::add_block`], [`Function::remove_block`] — draws a fresh
//! version, never zero and unique across all functions and threads.
//! [`Function::restore_blocks`] reinstates the versions it saved together
//! with the content, and `Clone` copies them. No API sets a version
//! directly, which gives the invariant incremental analyses rely on:
//! **equal versions of one slot, in a function or any of its clones, mean
//! equal content** (a removed slot included). The converse does not hold:
//! a mutable borrow that changes nothing still moves the version, so
//! callers should borrow mutably only to change something.

use crate::block::Block;
use crate::ids::{BlockId, Reg};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Next unclaimed chunk start of the global version counter. Starts at 1 so
/// no slot ever has version 0, which analyses use for "never seen".
static NEXT_VERSION_CHUNK: AtomicU64 = AtomicU64::new(1);

/// Versions a thread claims from the global counter at a time.
const VERSION_CHUNK: u64 = 1 << 12;

thread_local! {
    /// This thread's claimed range of versions: `(next, end)`.
    static VERSIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A fresh block version: unique across every function and thread, never 0.
fn fresh_version() -> u64 {
    VERSIONS.with(|range| {
        let (mut next, mut end) = range.get();
        if next == end {
            // Relaxed: the counter publishes no other data, and atomicity
            // alone keeps the claimed chunks disjoint.
            next = NEXT_VERSION_CHUNK.fetch_add(VERSION_CHUNK, Ordering::Relaxed);
            end = next + VERSION_CHUNK;
        }
        range.set((next + 1, end));
        next
    })
}

/// A function: a control-flow graph of [`Block`]s with a distinguished entry.
///
/// Registers `r0..r{params}` hold the arguments on entry. Blocks are stored
/// in a slot vector so [`BlockId`]s remain stable when blocks are removed.
/// Each slot has a version (see the module docs).
#[derive(Clone)]
pub struct Function {
    /// Function name (used in diagnostics and workload tables).
    pub name: String,
    blocks: Vec<Option<Block>>,
    /// Per-slot versions, parallel to `blocks`.
    versions: Vec<u64>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of parameters (passed in `r0..params`).
    pub params: u32,
    nregs: u32,
}

/// Versions are left out: they differ from run to run, and the printed
/// state must not.
impl std::fmt::Debug for Function {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.debug_struct("Function")
            .field("name", &self.name)
            .field("blocks", &self.blocks)
            .field("entry", &self.entry)
            .field("params", &self.params)
            .field("nregs", &self.nregs)
            .finish()
    }
}

/// Equal when the blocks, registers and signature are; versions are left
/// out, as in `Debug`.
impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.entry == other.entry
            && self.params == other.params
            && self.nregs == other.nregs
            && self.blocks == other.blocks
    }
}

impl Function {
    /// Create an empty function with `params` parameters and a fresh, empty
    /// entry block.
    pub fn new(name: impl Into<String>, params: u32) -> Self {
        let mut f = Function {
            name: name.into(),
            blocks: Vec::new(),
            versions: Vec::new(),
            entry: BlockId(0),
            params,
            nregs: params,
        };
        let entry = f.add_block(Block::new());
        f.entry = entry;
        f
    }

    /// Allocate a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.nregs);
        self.nregs += 1;
        r
    }

    /// Number of virtual registers allocated so far.
    pub fn reg_count(&self) -> u32 {
        self.nregs
    }

    /// Record that registers up to `n` exist (used when splicing in code
    /// that was built against a larger register space).
    pub fn ensure_regs(&mut self, n: u32) {
        self.nregs = self.nregs.max(n);
    }

    /// Add a block, returning its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Some(block));
        self.versions.push(fresh_version());
        id
    }

    /// Remove a block. Its id becomes a hole; edges into it become dangling
    /// (the caller must have retargeted them).
    ///
    /// # Panics
    /// Panics if `id` is the entry block or already removed.
    pub fn remove_block(&mut self, id: BlockId) {
        assert_ne!(id, self.entry, "cannot remove the entry block");
        let slot = &mut self.blocks[id.index()];
        assert!(slot.is_some(), "block {id} already removed");
        *slot = None;
        self.versions[id.index()] = fresh_version();
    }

    /// Whether `id` refers to a live (not removed) block.
    pub fn contains_block(&self, id: BlockId) -> bool {
        self.blocks
            .get(id.index())
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// Borrow a block.
    ///
    /// # Panics
    /// Panics if the block was removed or never existed.
    pub fn block(&self, id: BlockId) -> &Block {
        self.blocks[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("block {id} does not exist"))
    }

    /// Mutably borrow a block. Gives the slot a fresh version, whether or
    /// not the caller changes anything.
    ///
    /// # Panics
    /// Panics if the block was removed or never existed.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        let blk = self.blocks[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("block {id} does not exist"));
        self.versions[id.index()] = fresh_version();
        blk
    }

    /// The version of slot `id` (a live block or a hole): equal versions
    /// of one slot mean equal content. See the module docs.
    ///
    /// # Panics
    /// Panics if `id` is not below [`Function::block_slots`].
    pub fn block_version(&self, id: BlockId) -> u64 {
        self.versions[id.index()]
    }

    /// The versions of all slots, indexed by [`BlockId::index`].
    pub fn block_versions(&self) -> &[u64] {
        &self.versions
    }

    /// Borrow a block if it exists.
    pub fn try_block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Iterate over live block ids in id order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Iterate over `(id, block)` pairs in id order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|b| (BlockId(i as u32), b)))
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.iter().filter(|s| s.is_some()).count()
    }

    /// Number of block *slots* (live blocks plus holes): one more than the
    /// largest id ever allocated. Dense per-slot side tables (liveness,
    /// dominators) index by `BlockId::index()` bounded by this.
    pub fn block_slots(&self) -> usize {
        self.blocks.len()
    }

    /// Total static instruction count (including exits, which occupy branch
    /// slots on TRIPS).
    pub fn static_size(&self) -> usize {
        self.blocks().map(|(_, b)| b.size()).sum()
    }

    /// Duplicate block `id`, returning the id of the copy. The copy shares
    /// registers with the original (no SSA); callers performing tail or head
    /// duplication rely on only one copy executing per dynamic path, or on
    /// sequential in-block ordering for unrolled copies.
    pub fn duplicate_block(&mut self, id: BlockId) -> BlockId {
        let mut copy = self.block(id).clone();
        if let Some(n) = &copy.name {
            copy.name = Some(format!("{n}'"));
        }
        copy.freq = 0.0;
        self.add_block(copy)
    }

    /// Capture a block-scoped snapshot sufficient to undo a transformation
    /// that (a) mutates or removes only the listed blocks, (b) appends new
    /// blocks, and (c) allocates fresh registers. Used by the convergent
    /// formation loop to run merge trials *in place* instead of cloning the
    /// whole function per trial; see [`Function::restore_blocks`].
    ///
    /// Duplicate ids in `ids` are saved once.
    pub fn snapshot_blocks<I>(&self, ids: I) -> BlocksSnapshot
    where
        I: IntoIterator<Item = BlockId>,
    {
        let mut saved: Vec<(BlockId, Option<Block>, u64)> = Vec::new();
        for id in ids {
            if saved.iter().any(|(i, ..)| *i == id) {
                continue;
            }
            saved.push((
                id,
                self.blocks[id.index()].clone(),
                self.versions[id.index()],
            ));
        }
        BlocksSnapshot {
            saved,
            len: self.blocks.len(),
            nregs: self.nregs,
        }
    }

    /// Roll back to a snapshot taken by [`Function::snapshot_blocks`]:
    /// blocks added since the snapshot are dropped, the saved blocks are
    /// restored verbatim (including removal state and version, so analyses
    /// keyed by version see them as unchanged), and the register count
    /// is rewound so register numbering in later trials is unaffected by
    /// rolled-back ones.
    ///
    /// The caller guarantees that no block *outside* the snapshot was
    /// mutated since the snapshot was taken; this is what makes the restore
    /// an exact inverse.
    pub fn restore_blocks(&mut self, snap: BlocksSnapshot) {
        debug_assert!(
            self.blocks.len() >= snap.len,
            "snapshot outlived a structural change it cannot undo"
        );
        self.blocks.truncate(snap.len);
        self.versions.truncate(snap.len);
        for (id, blk, version) in snap.saved {
            self.blocks[id.index()] = blk;
            self.versions[id.index()] = version;
        }
        self.nregs = snap.nregs;
    }
}

/// An undo record for a block-scoped trial transformation; created by
/// [`Function::snapshot_blocks`], consumed by [`Function::restore_blocks`].
#[derive(Clone, Debug)]
pub struct BlocksSnapshot {
    /// Saved `(id, slot, version)` triples — `None` marks a block that was
    /// already removed when the snapshot was taken.
    saved: Vec<(BlockId, Option<Block>, u64)>,
    /// Length of the block slot vector at snapshot time; later additions
    /// are truncated away on restore.
    len: usize,
    /// Register count at snapshot time.
    nregs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Exit;
    use crate::instr::{Instr, Operand};

    #[test]
    fn new_function_has_entry() {
        let f = Function::new("f", 2);
        assert_eq!(f.block_count(), 1);
        assert!(f.contains_block(f.entry));
        assert_eq!(f.reg_count(), 2);
    }

    #[test]
    fn register_allocation_is_monotonic() {
        let mut f = Function::new("f", 1);
        let a = f.new_reg();
        let b = f.new_reg();
        assert!(a < b);
        assert_eq!(f.reg_count(), 3);
        f.ensure_regs(10);
        assert_eq!(f.reg_count(), 10);
        f.ensure_regs(5);
        assert_eq!(f.reg_count(), 10);
    }

    #[test]
    fn remove_leaves_stable_ids() {
        let mut f = Function::new("f", 0);
        let b1 = f.add_block(Block::new());
        let b2 = f.add_block(Block::new());
        f.remove_block(b1);
        assert!(!f.contains_block(b1));
        assert!(f.contains_block(b2));
        assert_eq!(f.block_ids().collect::<Vec<_>>(), vec![f.entry, b2]);
    }

    #[test]
    #[should_panic(expected = "cannot remove the entry block")]
    fn removing_entry_panics() {
        let mut f = Function::new("f", 0);
        let entry = f.entry;
        f.remove_block(entry);
    }

    #[test]
    fn duplicate_block_copies_contents() {
        let mut f = Function::new("f", 0);
        let r = f.new_reg();
        let b = f.add_block(Block::new());
        f.block_mut(b).name = Some("L".into());
        f.block_mut(b).insts.push(Instr::mov(r, Operand::Imm(3)));
        f.block_mut(b).exits.push(Exit::ret(None));
        let c = f.duplicate_block(b);
        assert_eq!(f.block(c).insts, f.block(b).insts);
        assert_eq!(f.block(c).name.as_deref(), Some("L'"));
        assert_eq!(f.block(c).freq, 0.0);
    }

    #[test]
    fn snapshot_restores_mutation_removal_addition_and_regs() {
        let mut f = Function::new("f", 1);
        let e = f.entry;
        let b = f.add_block(Block::new());
        f.block_mut(b).exits.push(Exit::ret(None));
        let r = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(r, Operand::Imm(1)));
        let before = format!("{f:?}");
        let nregs = f.reg_count();

        let snap = f.snapshot_blocks([e, b, b]); // duplicate id: saved once
                                                 // Mutate e, remove b, add a block, allocate registers.
        let r2 = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(r2, Operand::Imm(2)));
        f.remove_block(b);
        let added = f.add_block(Block::new());
        assert!(f.contains_block(added));

        f.restore_blocks(snap);
        assert_eq!(format!("{f:?}"), before);
        assert_eq!(f.reg_count(), nregs);
        assert!(f.contains_block(b));
        assert!(!f.contains_block(added));
    }

    #[test]
    fn snapshot_restore_is_noop_without_changes() {
        let mut f = Function::new("f", 2);
        let e = f.entry;
        f.block_mut(e).exits.push(Exit::ret(None));
        let before = format!("{f:?}");
        let snap = f.snapshot_blocks([e]);
        f.restore_blocks(snap);
        assert_eq!(format!("{f:?}"), before);
    }

    #[test]
    fn mutable_access_changes_the_version() {
        let mut f = Function::new("f", 0);
        let e = f.entry;
        let v0 = f.block_version(e);
        assert_ne!(v0, 0);
        let _ = f.block(e);
        assert_eq!(f.block_version(e), v0, "a shared borrow keeps the version");
        let _ = f.block_mut(e);
        let v1 = f.block_version(e);
        assert_ne!(v1, v0, "block_mut draws a fresh version");

        let b = f.add_block(Block::new());
        let vb = f.block_version(b);
        assert!(vb != 0 && vb != v0 && vb != v1);
        f.remove_block(b);
        assert!(
            ![0, vb].contains(&f.block_version(b)),
            "a hole gets its own version"
        );
        assert_eq!(f.block_version(e), v1);
    }

    #[test]
    fn a_clone_keeps_versions_and_diverges_on_mutation() {
        let mut f = Function::new("f", 0);
        let b = f.add_block(Block::new());
        let g = f.clone();
        for id in [f.entry, b] {
            assert_eq!(f.block_version(id), g.block_version(id));
        }
        let _ = f.block_mut(b);
        assert_ne!(f.block_version(b), g.block_version(b));
    }

    #[test]
    fn restore_reinstates_versions() {
        let mut f = Function::new("f", 0);
        let e = f.entry;
        let b = f.add_block(Block::new());
        f.block_mut(b).exits.push(Exit::ret(None));
        let before = f.block_versions().to_vec();
        let snap = f.snapshot_blocks([e, b]);
        f.block_mut(e)
            .insts
            .push(Instr::mov(Reg(0), Operand::Imm(1)));
        f.remove_block(b);
        f.add_block(Block::new());
        f.restore_blocks(snap);
        assert_eq!(f.block_versions(), before);
        // The next mutation still draws a version never seen before.
        let _ = f.block_mut(e);
        assert!(!before.contains(&f.block_version(e)));
    }

    #[test]
    fn versions_drawn_on_two_threads_never_collide() {
        // Both threads start drawing together, and each draws more than one
        // chunk, so their chunk claims interleave.
        let start = std::sync::Barrier::new(2);
        let draw = || {
            start.wait();
            let mut f = Function::new("f", 0);
            let e = f.entry;
            (0..3 * VERSION_CHUNK)
                .map(|_| {
                    let _ = f.block_mut(e);
                    f.block_version(e)
                })
                .collect::<Vec<u64>>()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(draw);
            let b = s.spawn(draw);
            (a.join().unwrap(), b.join().unwrap())
        });
        let mut all: Vec<u64> = a.into_iter().chain(b).collect();
        assert!(!all.contains(&0));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, 6 * VERSION_CHUNK);
    }

    #[test]
    fn static_size_sums_blocks() {
        let mut f = Function::new("f", 0);
        let e = f.entry;
        f.block_mut(e).exits.push(Exit::ret(None));
        let r = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(r, Operand::Imm(1)));
        assert_eq!(f.static_size(), 2);
    }
}
