//! Liveness analysis.
//!
//! Used for two purposes: dead-code elimination (`chf-opt`) and computing the
//! TRIPS block register-interface counts — how many registers a block reads
//! from the register file (live-in uses) and writes to it (defs that are
//! live-out), which the structural constraints bound per bank (paper §2).
//!
//! Predicated definitions are *may*-defs: they do not kill liveness, because
//! on a falsely-predicated path the previous value remains live.
//!
//! ## Representation
//!
//! Convergent formation needs liveness on every merge trial (for the
//! speculation-safety set, the trial optimizer's DCE and the
//! structural-constraint check), so this is one of the hottest paths in the
//! compiler. The solver therefore works on dense register bitsets — one
//! `u64` word per 64 registers — and the transfer function is three
//! word-wide bit operations per word instead of per-register hash probes.
//! The solution is *kept* in that form: accessors hand out [`RegSet`] views
//! over the rows (and [`RegMeet`] views of the read/write intersections)
//! rather than materializing hash sets nobody asked for. Iteration order
//! over a [`RegSet`] is ascending register number, which is deterministic
//! across runs and platforms.
//!
//! Rows are looked up by block *slot* ([`BlockId::index`]). Each live slot
//! points at an entry of five rows (upward-exposed uses, kills, defs,
//! live-in, live-out) in one allocation; every hole points at entry 0,
//! which is all zero. Formed functions have many more holes than live
//! blocks, so a hole costs one index, not five rows. Entries a slot gives
//! up (its block removed or truncated) are reused.
//!
//! ## Incremental refresh
//!
//! A solution records the [version](crate::function::Function::block_version)
//! of every slot it summarised. [`Liveness::refresh`] brings it up to date
//! with a function whose blocks have since changed: it re-summarises only
//! the slots whose version differs (removed slots and slots truncated by a
//! rollback included), then resets to empty and solves again exactly the
//! blocks from which a changed slot is reachable; an edge to a hole counts
//! as an edge. Every other block reaches only unchanged blocks, so its old
//! rows are still the least fixpoint and are kept. Solving the region from
//! empty rather than from its old values matters: liveness is the *least*
//! fixpoint, and old values would keep a loop-carried register live after
//! its last use is deleted. A change in the row width (the register count
//! crossing a multiple of 64) solves everything.
//!
//! [`Liveness::compute`] is a refresh of an empty solution, so there is one
//! solver: the same function state always gives the same solution.

use crate::block::{Block, ExitTarget};
use crate::function::Function;
use crate::fxhash::FxHashSet;
use crate::ids::{BlockId, Reg};

/// Iterate the registers encoded in a word slice, in ascending order.
fn iter_words(words: &[u64]) -> impl Iterator<Item = Reg> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            Some(Reg((w * 64 + bit as usize) as u32))
        })
    })
}

/// A borrowed view of one liveness row (a set of registers).
///
/// Supports the operations the clients actually need — membership, count,
/// deterministic ascending iteration, and conversion to a hash set for
/// callers that go on to mutate the set. Two views are equal when they
/// hold the same registers over the same row width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegSet<'a> {
    words: &'a [u64],
}

impl<'a> RegSet<'a> {
    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(&self, r: &Reg) -> bool {
        let i = r.index();
        match self.words.get(i / 64) {
            Some(w) => w >> (i % 64) & 1 != 0,
            None => false,
        }
    }

    /// Iterate the members in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + 'a {
        iter_words(self.words)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Materialize into a hash set (for callers that mutate the result).
    pub fn to_set(&self) -> FxHashSet<Reg> {
        self.iter().collect()
    }
}

/// A borrowed view of the registers in both of two liveness rows, as
/// returned by [`Liveness::register_reads`] and
/// [`Liveness::register_writes`]: the intersection is read word by word,
/// never stored.
#[derive(Clone, Copy, Debug)]
pub struct RegMeet<'a> {
    a: &'a [u64],
    b: &'a [u64],
}

impl<'a> RegMeet<'a> {
    fn words(&self) -> impl Iterator<Item = u64> + 'a {
        self.a.iter().zip(self.b).map(|(x, y)| x & y)
    }

    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(&self, r: &Reg) -> bool {
        let i = r.index();
        match (self.a.get(i / 64), self.b.get(i / 64)) {
            (Some(x), Some(y)) => (x & y) >> (i % 64) & 1 != 0,
            _ => false,
        }
    }

    /// Iterate the members in ascending register order.
    pub fn iter(&self) -> RegMeetIter<'a> {
        RegMeetIter {
            meet: *self,
            next_word: 0,
            rest: 0,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().all(|w| w == 0)
    }

    /// Materialize into a hash set (for callers that mutate the result).
    pub fn to_set(&self) -> FxHashSet<Reg> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for RegMeet<'a> {
    type Item = Reg;
    type IntoIter = RegMeetIter<'a>;
    fn into_iter(self) -> RegMeetIter<'a> {
        self.iter()
    }
}

/// Ascending-order iterator over a [`RegMeet`].
#[derive(Clone, Debug)]
pub struct RegMeetIter<'a> {
    meet: RegMeet<'a>,
    /// The word after the one `rest` came from.
    next_word: usize,
    /// The members of word `next_word - 1` not yet returned.
    rest: u64,
}

impl Iterator for RegMeetIter<'_> {
    type Item = Reg;
    fn next(&mut self) -> Option<Reg> {
        while self.rest == 0 {
            let w = self.next_word;
            self.rest = self.meet.a.get(w)? & self.meet.b.get(w)?;
            self.next_word += 1;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(Reg(((self.next_word - 1) * 64 + bit) as u32))
    }
}

/// An owned register set, for callers that edit a set as they go (DCE's
/// running live set).
#[derive(Clone, Debug, Default)]
pub struct RegSetBuf {
    words: Vec<u64>,
}

impl RegSetBuf {
    /// Make this set a copy of `s`, reusing the allocation.
    pub fn assign(&mut self, s: RegSet<'_>) {
        self.words.clear();
        self.words.extend_from_slice(s.words);
    }

    /// A borrowed view of this set.
    pub fn as_set(&self) -> RegSet<'_> {
        RegSet { words: &self.words }
    }

    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(&self, r: &Reg) -> bool {
        self.as_set().contains(r)
    }

    /// Add `r`, which must be below the function's `reg_count()`.
    #[inline]
    pub fn insert(&mut self, r: Reg) {
        bit_set(&mut self.words, r);
    }

    /// Remove `r`, which must be below the function's `reg_count()`.
    #[inline]
    pub fn remove(&mut self, r: Reg) {
        let i = r.index();
        self.words[i / 64] &= !(1u64 << (i % 64));
    }
}

#[inline]
fn bit_set(row: &mut [u64], reg: Reg) {
    let i = reg.index();
    row[i / 64] |= 1u64 << (i % 64);
}

/// Add `r` to `gens` unless `kills` holds it: a use is upward-exposed
/// unless an unconditional def came first.
#[inline]
fn gen_use(gens: &mut [u64], kills: &[u64], r: Reg) {
    let i = r.index();
    gens[i / 64] |= (1u64 << (i % 64)) & !kills[i / 64];
}

/// Per-block `(upward-exposed uses, unconditional kills, all defs)` of
/// `blk`, written into the given (zeroed) bit rows.
fn block_summary(blk: &Block, gens: &mut [u64], kills: &mut [u64], defs: &mut [u64]) {
    for inst in &blk.insts {
        for u in inst.uses() {
            gen_use(gens, kills, u);
        }
        if let Some(d) = inst.def() {
            bit_set(defs, d);
            if inst.pred.is_none() {
                bit_set(kills, d);
            }
        }
    }
    for e in &blk.exits {
        if let Some(p) = e.pred {
            gen_use(gens, kills, p.reg);
        }
        if let ExitTarget::Return(Some(op)) = e.target {
            if let Some(r) = op.as_reg() {
                gen_use(gens, kills, r);
            }
        }
    }
}

// Sections of one block's entry in the bit buffer: five rows of `words` u64s.
const SEC_GENS: usize = 0;
const SEC_KILLS: usize = 1;
const SEC_DEFS: usize = 2;
const SEC_IN: usize = 3;
const SEC_OUT: usize = 4;
const SECTIONS: usize = 5;

/// The buffers of one [`Liveness::refresh`]. Each thread keeps one set
/// between calls, so a refresh allocates only when a function outgrows
/// every earlier one.
#[derive(Debug, Default)]
struct Scratch {
    /// Slots whose version changed since the last refresh, ascending;
    /// slots added or truncated since then included.
    changed: Vec<u32>,
    /// Per slot (truncated ones included): a changed slot is reachable
    /// from it.
    region: Vec<bool>,
    /// Successor lists of the live slots, flat: slot `s` owns
    /// `succ[succ_off[s]..succ_off[s + 1]]`.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// Predecessor lists in the same layout, built from `succ`.
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    /// Work list of the reachability walk, then the live slots to solve.
    work: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

impl Scratch {
    /// Mark in `region` every slot from which a changed slot is reachable,
    /// walking predecessors built from `succ`. Edges to holes are kept: a
    /// removed or truncated slot is a change its predecessors must see.
    fn mark_region(&mut self, slots: usize, span: usize) {
        self.region.resize(span, false);
        for &s in &self.changed {
            self.region[s as usize] = true;
        }
        self.pred_off.resize(span + 2, 0);
        for &t in &self.succ {
            if (t as usize) < span {
                self.pred_off[t as usize + 2] += 1;
            }
        }
        for t in 2..self.pred_off.len() {
            self.pred_off[t] += self.pred_off[t - 1];
        }
        // `pred_off[t + 1]` is now the start of `t`'s list; filling advances
        // it to the end, which is `pred_off[t + 1]` of the finished layout.
        self.pred.resize(self.succ.len(), 0);
        for s in 0..slots {
            for i in self.succ_off[s]..self.succ_off[s + 1] {
                let t = self.succ[i as usize] as usize;
                if t < span {
                    let at = &mut self.pred_off[t + 1];
                    self.pred[*at as usize] = s as u32;
                    *at += 1;
                }
            }
        }
        self.work.extend_from_slice(&self.changed);
        while let Some(t) = self.work.pop() {
            let t = t as usize;
            for i in self.pred_off[t]..self.pred_off[t + 1] {
                let p = self.pred[i as usize] as usize;
                if !self.region[p] {
                    self.region[p] = true;
                    self.work.push(p as u32);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.changed.clear();
        self.region.clear();
        self.succ_off.clear();
        self.succ.clear();
        self.pred_off.clear();
        self.pred.clear();
        self.work.clear();
    }
}

/// Per-block liveness sets.
///
/// All five per-block bit rows (upward-exposed uses, kills, defs, live-in,
/// live-out) live in **one** allocation; see the module docs for
/// [`Liveness::refresh`].
///
/// `PartialEq` compares the versions and every slot's rows, not where the
/// entries sit, so a caller that holds a refreshed solution can check it
/// against a fresh [`Liveness::compute`] of the same function.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// Words per row.
    words: usize,
    /// Per slot: the version summarised into its rows (0: none yet).
    versions: Vec<u64>,
    /// Per slot: its entry in `bits`. Every hole points at entry 0, which
    /// stays all zero.
    entry: Vec<u32>,
    /// Entries of `SECTIONS` rows each: entry `e`, row `k` starts at
    /// `(e * SECTIONS + k) * words`.
    bits: Vec<u64>,
    /// Entries no slot points at, for reuse.
    free: Vec<u32>,
}

impl PartialEq for Liveness {
    fn eq(&self, other: &Self) -> bool {
        let size = SECTIONS * self.words;
        self.words == other.words
            && self.versions == other.versions
            && self.entry.iter().zip(&other.entry).all(|(&a, &b)| {
                let (a, b) = (a as usize * size, b as usize * size);
                self.bits[a..a + size] == other.bits[b..b + size]
            })
    }
}

impl Liveness {
    /// Compute liveness for all live blocks of `f`: a refresh of an empty
    /// solution.
    pub fn compute(f: &Function) -> Liveness {
        let mut lv = Liveness::default();
        lv.refresh(f);
        lv
    }

    /// Bring the solution up to date with `f`, re-summarising the slots
    /// whose version changed since the last refresh and solving again only
    /// the blocks that reach one of them (see the module docs). Afterwards
    /// the solution equals [`Liveness::compute`] of `f`.
    pub fn refresh(&mut self, f: &Function) {
        let words = (f.reg_count() as usize).max(1).div_ceil(64);
        if words != self.words {
            self.words = words;
            self.versions.clear();
            self.entry.clear();
            self.free.clear();
            self.bits.clear();
        }
        let now = f.block_versions();
        SCRATCH.with_borrow_mut(|sc| {
            for (s, (n, o)) in now.iter().zip(&self.versions).enumerate() {
                if n != o {
                    sc.changed.push(s as u32);
                }
            }
            let common = now.len().min(self.versions.len());
            sc.changed
                .extend(common as u32..now.len().max(self.versions.len()) as u32);
            if !sc.changed.is_empty() {
                self.solve(f, sc);
            }
            sc.clear();
        });
    }

    /// The body of [`Liveness::refresh`] once some slot is known changed.
    fn solve(&mut self, f: &Function, sc: &mut Scratch) {
        let words = self.words;
        let size = SECTIONS * words;
        let slots = f.block_slots();
        let span = slots.max(self.versions.len());
        if self.bits.is_empty() {
            // Entry 0, then room for one entry per live block.
            self.bits.reserve(size * (1 + f.block_count()));
            self.bits.resize(size, 0);
        }
        // Truncated slots give their entries back.
        for &e in self.entry.iter().skip(slots) {
            if e != 0 {
                self.free.push(e);
            }
        }
        self.entry.resize(slots, 0);
        self.versions.clear();
        self.versions.extend_from_slice(f.block_versions());

        // Re-summarise the changed slots; a removed one gives its entry back.
        let live_changed = sc.changed.partition_point(|&s| (s as usize) < slots);
        for &s in &sc.changed[..live_changed] {
            let s = s as usize;
            let Some(blk) = f.try_block(BlockId(s as u32)) else {
                if self.entry[s] != 0 {
                    self.free.push(self.entry[s]);
                    self.entry[s] = 0;
                }
                continue;
            };
            if self.entry[s] == 0 {
                self.entry[s] = match self.free.pop() {
                    Some(e) => e,
                    None => {
                        self.bits.resize(self.bits.len() + size, 0);
                        (self.bits.len() / size - 1) as u32
                    }
                };
            }
            let e = self.entry[s] as usize;
            let rows = &mut self.bits[e * size..(e + 1) * size];
            rows.fill(0);
            let (gens, rest) = rows.split_at_mut(words);
            let (kills, rest) = rest.split_at_mut(words);
            block_summary(blk, gens, kills, &mut rest[..words]);
        }

        // Successors of every live slot. When every slot changed, as in
        // `compute`, every live block is solved again.
        let all = live_changed == slots;
        sc.succ_off.push(0);
        for (id, blk) in f.blocks() {
            sc.succ_off.resize(id.index() + 1, sc.succ.len() as u32);
            sc.succ.extend(blk.successors().map(|t| t.0));
            sc.succ_off.push(sc.succ.len() as u32);
            if all {
                sc.work.push(id.0);
            }
        }
        sc.succ_off.resize(slots + 1, sc.succ.len() as u32);

        // Otherwise the region: every slot from which a changed slot is
        // reachable. Reset its live blocks to empty; rows outside it are
        // fixed inputs.
        if !all {
            sc.mark_region(slots, span);
            for s in 0..slots {
                if sc.region[s] && f.contains_block(BlockId(s as u32)) {
                    sc.work.push(s as u32);
                    let base = self.entry[s] as usize * size;
                    self.bits[base + SEC_IN * words..base + size].fill(0);
                }
            }
        }
        // Live-out depends only on the successors' live-in, so a pass that
        // changes no live-in is the last one: its live-outs are final.
        let mut changed = true;
        while changed {
            changed = false;
            // Backward problem: iterate in reverse slot order as a heuristic.
            for &s in sc.work.iter().rev() {
                let base = self.entry[s as usize] as usize * size;
                let out = base + SEC_OUT * words;
                self.bits[out..out + words].fill(0);
                for &t in
                    &sc.succ[sc.succ_off[s as usize] as usize..sc.succ_off[s as usize + 1] as usize]
                {
                    // A hole's entry is all zero; a truncated slot has none.
                    if let Some(&e) = self.entry.get(t as usize) {
                        let from = e as usize * size + SEC_IN * words;
                        for w in 0..words {
                            self.bits[out + w] |= self.bits[from + w];
                        }
                    }
                }
                // in = gen | (out & !kill)
                let rows = &mut self.bits[base..base + size];
                for w in 0..words {
                    let in_w = rows[SEC_GENS * words + w]
                        | (rows[SEC_OUT * words + w] & !rows[SEC_KILLS * words + w]);
                    if rows[SEC_IN * words + w] != in_w {
                        rows[SEC_IN * words + w] = in_w;
                        changed = true;
                    }
                }
            }
        }
    }

    #[inline]
    fn row(&self, section: usize, b: BlockId) -> &[u64] {
        let base = (self.entry[b.index()] as usize * SECTIONS + section) * self.words;
        &self.bits[base..base + self.words]
    }

    /// Registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> RegSet<'_> {
        RegSet {
            words: self.row(SEC_IN, b),
        }
    }

    /// Registers live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> RegSet<'_> {
        RegSet {
            words: self.row(SEC_OUT, b),
        }
    }

    /// Register-file *reads* of block `b`: upward-exposed register uses.
    /// These are the values the block must fetch through TRIPS read
    /// instructions.
    pub fn register_reads(&self, b: BlockId) -> RegMeet<'_> {
        RegMeet {
            a: self.row(SEC_GENS, b),
            b: self.row(SEC_IN, b),
        }
    }

    /// Register-file *writes* of block `b`: defs that are live past the
    /// block. These are the values the block must commit through TRIPS write
    /// instructions.
    pub fn register_writes(&self, b: BlockId) -> RegMeet<'_> {
        RegMeet {
            a: self.row(SEC_DEFS, b),
            b: self.row(SEC_OUT, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{Instr, Operand, Pred};

    #[test]
    fn straight_line_reads_and_writes() {
        // entry: x = p0 + 1; jump b. b: return x
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let b = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        fb.jump(b);
        fb.switch_to(b);
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        let lv = Liveness::compute(&f);
        assert!(lv.live_in(e).contains(&Reg(0)));
        assert!(lv.live_out(e).contains(&x));
        assert_eq!(
            lv.register_reads(e).to_set(),
            [Reg(0)].into_iter().collect()
        );
        assert_eq!(lv.register_writes(e).to_set(), [x].into_iter().collect());
        assert_eq!(lv.register_reads(b).to_set(), [x].into_iter().collect());
        assert!(lv.register_writes(b).is_empty());
    }

    #[test]
    fn loop_carried_value_is_live_around() {
        // e: i=0; jump h. h: i=i+1; c = i<10; branch c h x. x: ret i
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        let h = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        fb.mov_to(i, Operand::Imm(1)); // placeholder, replaced after build
        let c = fb.cmp_lt(Operand::Reg(i), Operand::Imm(10));
        fb.branch(c, h, x);
        fb.switch_to(x);
        fb.ret(Some(Operand::Reg(i)));
        let mut f = fb.build().unwrap();
        // Rewrite h's first instruction to a real increment.
        f.block_mut(h).insts[0] = Instr::add(i, Operand::Reg(i), Operand::Imm(1));
        let lv = Liveness::compute(&f);
        assert!(lv.live_in(h).contains(&i));
        assert!(lv.live_out(h).contains(&i));
        assert!(lv.register_reads(h).contains(&i));
        assert!(lv.register_writes(h).contains(&i));
    }

    #[test]
    fn predicated_def_does_not_kill() {
        // entry: [p] x = 1; return x  — x is still live-in (may read old x)
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.param(0);
        let p = fb.param(1);
        fb.push(Instr::mov(x, Operand::Imm(1)).predicated(Pred::on_true(p)));
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        let lv = Liveness::compute(&f);
        assert!(lv.live_in(e).contains(&x));
        assert!(lv.live_in(e).contains(&p));
    }

    #[test]
    fn unconditional_def_kills() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.param(0);
        fb.mov_to(x, Operand::Imm(1));
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        let lv = Liveness::compute(&f);
        assert!(!lv.live_in(e).contains(&x));
    }

    #[test]
    fn exit_predicate_is_a_use() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let a = fb.create_block();
        let b = fb.create_block();
        fb.switch_to(e);
        fb.branch(fb.param(0), a, b);
        fb.switch_to(a);
        fb.ret(None);
        fb.switch_to(b);
        fb.ret(None);
        let f = fb.build().unwrap();
        let lv = Liveness::compute(&f);
        assert!(lv.live_in(e).contains(&Reg(0)));
    }

    #[test]
    fn regset_iteration_is_ascending_and_counts_match() {
        let mut fb = FunctionBuilder::new("f", 3);
        let e = fb.create_block();
        fb.switch_to(e);
        let s = fb.add(Operand::Reg(fb.param(0)), Operand::Reg(fb.param(1)));
        let t = fb.add(Operand::Reg(s), Operand::Reg(fb.param(2)));
        fb.ret(Some(Operand::Reg(t)));
        let f = fb.build().unwrap();
        let lv = Liveness::compute(&f);
        let reads: Vec<Reg> = lv.register_reads(e).into_iter().collect();
        assert_eq!(reads, vec![Reg(0), Reg(1), Reg(2)]);
        assert_eq!(lv.register_reads(e).len(), 3);
        let mut sorted = reads.clone();
        sorted.sort();
        assert_eq!(reads, sorted);
    }
}
