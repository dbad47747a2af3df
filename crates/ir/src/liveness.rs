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
//! Convergent formation calls [`Liveness::compute`] on every merge trial
//! (for the speculation-safety set and in the trial optimizer's DCE, whose
//! last solution the structural-constraint check reuses when DCE removed
//! nothing), so this is one of the hottest paths in the compiler. The solver
//! therefore works on dense per-block register bitsets — one `u64` word per
//! 64 registers — and the transfer function is three word-wide bit
//! operations per word instead of per-register hash probes. The solution is
//! *kept* in that form: accessors hand out [`RegSet`] views over the rows
//! (and [`RegSetBuf`] for the read/write intersections) rather than
//! materializing hash sets nobody asked for. Iteration order over a
//! [`RegSet`] is ascending register number, which is deterministic across
//! runs and platforms.

use crate::block::ExitTarget;
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
/// callers that go on to mutate the set.
#[derive(Clone, Copy, Debug)]
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

    /// Copy into an owned bitset (for callers that mutate the result).
    pub fn to_buf(&self) -> RegSetBuf {
        RegSetBuf {
            words: self.words.to_vec(),
        }
    }
}

/// An owned register set, as returned by the intersection accessors
/// ([`Liveness::register_reads`] / [`Liveness::register_writes`]).
#[derive(Clone, Debug)]
pub struct RegSetBuf {
    words: Vec<u64>,
}

impl RegSetBuf {
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

    /// Iterate the members in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        iter_words(&self.words)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_set().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_set().is_empty()
    }

    /// Materialize into a hash set.
    pub fn to_set(&self) -> FxHashSet<Reg> {
        self.iter().collect()
    }
}

/// Owning ascending-order iterator over a [`RegSetBuf`].
pub struct RegSetIntoIter {
    words: Vec<u64>,
    w: usize,
}

impl Iterator for RegSetIntoIter {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        while self.w < self.words.len() {
            let word = self.words[self.w];
            if word == 0 {
                self.w += 1;
                continue;
            }
            let bit = word.trailing_zeros();
            self.words[self.w] = word & (word - 1);
            return Some(Reg((self.w * 64 + bit as usize) as u32));
        }
        None
    }
}

impl IntoIterator for RegSetBuf {
    type Item = Reg;
    type IntoIter = RegSetIntoIter;

    fn into_iter(self) -> RegSetIntoIter {
        RegSetIntoIter {
            words: self.words,
            w: 0,
        }
    }
}

#[inline]
fn bit_set(row: &mut [u64], reg: Reg) {
    let i = reg.index();
    row[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_get(row: &[u64], reg: Reg) -> bool {
    let i = reg.index();
    row[i / 64] >> (i % 64) & 1 != 0
}

/// Per-block `(upward-exposed uses, unconditional kills, all defs)` of
/// block `b`, written into the given bit rows.
fn block_summary(f: &Function, b: BlockId, gens: &mut [u64], kills: &mut [u64], defs: &mut [u64]) {
    let blk = f.block(b);
    for inst in &blk.insts {
        for u in inst.uses() {
            if !bit_get(kills, u) {
                bit_set(gens, u);
            }
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
            if !bit_get(kills, p.reg) {
                bit_set(gens, p.reg);
            }
        }
        if let ExitTarget::Return(Some(op)) = e.target {
            if let Some(r) = op.as_reg() {
                if !bit_get(kills, r) {
                    bit_set(gens, r);
                }
            }
        }
    }
}

/// Sentinel for "no dense row" (hole or unknown block) in [`Liveness::index`].
const NO_ROW: u32 = u32::MAX;

// Section indices into the single bit buffer: `bits` holds five dense
// row-major matrices back to back, each `rows × words` u64s.
const SEC_GENS: usize = 0;
const SEC_KILLS: usize = 1;
const SEC_DEFS: usize = 2;
const SEC_IN: usize = 3;
const SEC_OUT: usize = 4;
const SECTIONS: usize = 5;

/// Per-block liveness sets.
///
/// All five per-block bit matrices (upward-exposed uses, kills, defs,
/// live-in, live-out) live in **one** allocation; formation computes a
/// `Liveness` per merge trial, so allocator traffic matters as much as the
/// solve itself.
///
/// `PartialEq` lets a caller that holds a solution check it against a fresh
/// [`Liveness::compute`] of the same function.
#[derive(Clone, Debug, PartialEq)]
pub struct Liveness {
    /// Dense row index keyed by `BlockId::index()`; `NO_ROW` marks holes.
    index: Vec<u32>,
    words: usize,
    rows: usize,
    bits: Vec<u64>,
}

impl Liveness {
    /// Compute liveness for all live blocks of `f`.
    pub fn compute(f: &Function) -> Liveness {
        let nregs = f.reg_count() as usize;
        let words = nregs.max(1).div_ceil(64);
        let mut index = vec![NO_ROW; f.block_slots()];
        let ids: Vec<BlockId> = f.block_ids().collect();
        let n = ids.len();
        for (i, &b) in ids.iter().enumerate() {
            index[b.index()] = i as u32;
        }
        // Flat successor lists: rows `succ_off[i]..succ_off[i+1]` of `succ_flat`.
        let mut succ_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut succ_flat: Vec<u32> = Vec::new();
        succ_off.push(0);
        for &b in &ids {
            for s in f.block(b).successors() {
                if let Some(&row) = index.get(s.index()) {
                    if row != NO_ROW {
                        succ_flat.push(row);
                    }
                }
            }
            succ_off.push(succ_flat.len() as u32);
        }

        let sec = n * words;
        let mut bits = vec![0u64; SECTIONS * sec];
        {
            // Summaries fill the gens/kills/defs sections.
            let (gens, rest) = bits.split_at_mut(sec);
            let (kills, rest) = rest.split_at_mut(sec);
            let defs = &mut rest[..sec];
            for (i, &b) in ids.iter().enumerate() {
                let r = i * words..(i + 1) * words;
                block_summary(
                    f,
                    b,
                    &mut gens[r.clone()],
                    &mut kills[r.clone()],
                    &mut defs[r],
                );
            }
        }

        let mut out_buf = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            // Backward problem: iterate in reverse id order as a heuristic.
            for i in (0..n).rev() {
                out_buf.fill(0);
                for &s in &succ_flat[succ_off[i] as usize..succ_off[i + 1] as usize] {
                    let sb = SEC_IN * sec + s as usize * words;
                    for (w, o) in out_buf.iter_mut().enumerate() {
                        *o |= bits[sb + w];
                    }
                }
                // in = gen | (out & !kill); both updates in one word sweep.
                let base = i * words;
                for (w, &out_w) in out_buf.iter().enumerate() {
                    if bits[SEC_OUT * sec + base + w] != out_w {
                        bits[SEC_OUT * sec + base + w] = out_w;
                        changed = true;
                    }
                    let in_w = bits[SEC_GENS * sec + base + w]
                        | (out_w & !bits[SEC_KILLS * sec + base + w]);
                    if bits[SEC_IN * sec + base + w] != in_w {
                        bits[SEC_IN * sec + base + w] = in_w;
                        changed = true;
                    }
                }
            }
        }

        Liveness {
            index,
            words,
            rows: n,
            bits,
        }
    }

    #[inline]
    fn row(&self, section: usize, b: BlockId) -> &[u64] {
        let i = self.index[b.index()];
        debug_assert_ne!(i, NO_ROW, "no liveness row for {b}");
        let base = (section * self.rows + i as usize) * self.words;
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
    pub fn register_reads(&self, b: BlockId) -> RegSetBuf {
        let ue = self.row(SEC_GENS, b);
        let li = self.row(SEC_IN, b);
        RegSetBuf {
            words: ue.iter().zip(li).map(|(a, b)| a & b).collect(),
        }
    }

    /// Register-file *writes* of block `b`: defs that are live past the
    /// block. These are the values the block must commit through TRIPS write
    /// instructions.
    pub fn register_writes(&self, b: BlockId) -> RegSetBuf {
        let d = self.row(SEC_DEFS, b);
        let lo = self.row(SEC_OUT, b);
        RegSetBuf {
            words: d.iter().zip(lo).map(|(a, b)| a & b).collect(),
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
