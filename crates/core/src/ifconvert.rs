//! If-conversion: the `Combine` step of `MergeBlocks` (paper §4.1–4.2).
//!
//! [`combine`] merges a successor block `S` into a hyperblock `HB` by
//! converting the control dependence `HB → S` into a data dependence:
//!
//! 1. A *guard* predicate `g` is materialized in `HB`, true exactly when the
//!    original control flow would have entered `S` (the exit to `S` fires:
//!    its own predicate holds and every higher-priority exit's predicate
//!    fails).
//! 2. `S`'s instructions are appended, predicated on `g`; instructions that
//!    were already predicated (from earlier merges) get a conjoined
//!    predicate `g ∧ q`, materialized inline so nested predication composes,
//!    as in dataflow predication (the paper's reference \[25\]).
//! 3. `S`'s exits replace the `HB → S` exit in place, preserving the
//!    priority ordering of the remaining exits. Exit predicates are
//!    conjoined with `g` (skipped when the replaced exit was the default:
//!    reaching that priority slot already implies `g`).
//!
//! The guard is always snapshotted into a fresh register before `S`'s code
//! runs, so `S` redefining the branch condition (as the unrolled copy of a
//! loop body always does) cannot corrupt the guard.

use chf_ir::block::{Exit, ExitTarget};
use chf_ir::function::Function;
use chf_ir::fxhash::{FxHashMap, FxHashSet};
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::{Instr, Opcode, Operand, Pred};
use std::fmt;

/// Why a combine was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CombineError {
    /// `HB` has no exit targeting `S`.
    NoEdge,
    /// More than one exit of `HB` targets `S`; the merge would need a
    /// disjunctive guard, which we (like the paper) simply do not attempt.
    MultipleEdges,
    /// `S` writes a register that one of `HB`'s remaining exits reads
    /// (predicate or return operand); merging would corrupt that exit.
    ClobbersRemainingExit,
    /// `S` is the function entry or `HB` itself.
    IllegalTarget,
}

impl fmt::Display for CombineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineError::NoEdge => write!(f, "no edge from hyperblock to successor"),
            CombineError::MultipleEdges => {
                write!(f, "multiple exits target the successor")
            }
            CombineError::ClobbersRemainingExit => {
                write!(f, "successor writes a register a remaining exit reads")
            }
            CombineError::IllegalTarget => write!(f, "successor may not be merged"),
        }
    }
}

impl std::error::Error for CombineError {}

/// Tracks which registers currently hold a boolean (0/1) value, so that
/// predicate normalization can reuse comparison outputs directly instead of
/// re-normalizing them — TRIPS test instructions produce predicates
/// natively, and modeling an extra `ne r, 0` per guard would serialize
/// unrolled iterations through spurious instructions.
#[derive(Default)]
struct BoolTracker {
    boolean: FxHashSet<Reg>,
    /// Registers whose last def is a *predicated* comparison: boolean
    /// whenever their guard fired, arbitrary otherwise. `cond_bool[r] = g`
    /// means `[g] r = <compare>` was the last def of `r`.
    cond_bool: FxHashMap<Reg, Reg>,
}

impl BoolTracker {
    fn from_block(blk: &chf_ir::block::Block) -> Self {
        let mut t = BoolTracker::default();
        for inst in &blk.insts {
            t.observe(inst);
        }
        t
    }

    /// Update tracking for a (to-be-)appended instruction.
    fn observe(&mut self, inst: &Instr) {
        let Some(d) = inst.def() else { return };
        // Any redefinition invalidates conditional-boolean facts about d,
        // and defs of a guard register invalidate facts conditioned on it.
        self.cond_bool.remove(&d);
        self.cond_bool.retain(|_, g| *g != d);
        // `and g, x` where x is a comparison guarded on g: if g fired, x is
        // a fresh boolean; if not, the result is 0 — boolean either way.
        let and_cond_bool = inst.op == Opcode::And
            && match (inst.a, inst.b) {
                (Some(Operand::Reg(a)), Some(Operand::Reg(b))) => {
                    (self.boolean.contains(&a) && self.cond_bool.get(&b) == Some(&a))
                        || (self.boolean.contains(&b) && self.cond_bool.get(&a) == Some(&b))
                }
                _ => false,
            };
        let op_is_bool = inst.op.is_compare()
            || (matches!(inst.op, Opcode::And | Opcode::Or | Opcode::Xor)
                && self.operand_is_bool(inst.a)
                && self.operand_is_bool(inst.b))
            || and_cond_bool
            || (inst.op == Opcode::Mov && self.operand_is_bool(inst.a));
        // A predicated def may leave the old (arbitrary) value behind.
        if op_is_bool && inst.pred.is_none() {
            self.boolean.insert(d);
        } else {
            self.boolean.remove(&d);
            if inst.op.is_compare() {
                if let Some(p) = inst.pred {
                    if p.if_true {
                        self.cond_bool.insert(d, p.reg);
                    }
                }
            }
        }
    }

    fn operand_is_bool(&self, o: Option<Operand>) -> bool {
        match o {
            Some(Operand::Reg(r)) => self.boolean.contains(&r),
            Some(Operand::Imm(v)) => v == 0 || v == 1,
            None => false,
        }
    }

    /// A register holding `1` iff `pred` fires: reuses the register when it
    /// is already boolean with positive polarity (and not in `forbidden`,
    /// the set of registers the merged code will redefine), otherwise emits
    /// one normalization instruction into `out`.
    fn normalize(
        &mut self,
        f: &mut Function,
        pred: Pred,
        out: &mut Vec<Instr>,
        forbidden: &FxHashSet<Reg>,
    ) -> Reg {
        if pred.if_true && self.boolean.contains(&pred.reg) && !forbidden.contains(&pred.reg) {
            return pred.reg;
        }
        let dst = f.new_reg();
        let op = if pred.if_true {
            Opcode::CmpNe
        } else {
            Opcode::CmpEq
        };
        let inst = Instr::binary(op, dst, Operand::Reg(pred.reg), Operand::Imm(0));
        self.observe(&inst);
        out.push(inst);
        dst
    }

    /// A register for the conjunction of `a` (boolean) and `pred`.
    ///
    /// When `pred`'s register was last defined by a comparison *guarded on
    /// `a` itself* (`[a] r = <compare>`), the raw register is conjoined
    /// directly: if `a` fired the value is a fresh boolean, and if `a` did
    /// not fire the conjunction is 0 regardless of the stale bits. This is
    /// the common shape of unrolled iterations (each test guarded by the
    /// previous iteration's guard) and avoids a normalization instruction
    /// per iteration.
    fn conjoin(
        &mut self,
        f: &mut Function,
        a: Reg,
        pred: Pred,
        out: &mut Vec<Instr>,
        forbidden: &FxHashSet<Reg>,
    ) -> Reg {
        let qn = if pred.if_true && self.cond_bool.get(&pred.reg) == Some(&a) {
            pred.reg
        } else {
            self.normalize(f, pred, out, forbidden)
        };
        let dst = f.new_reg();
        let inst = Instr::binary(Opcode::And, dst, Operand::Reg(a), Operand::Reg(qn));
        self.observe(&inst);
        out.push(inst);
        dst
    }
}

/// Build the guard for entering `S` through exit `k` of `HB`: the
/// conjunction of the negations of all earlier exit predicates with exit
/// `k`'s own predicate. Returns `None` when the exit is unconditional and
/// first (no guard needed), otherwise the guard register; any instructions
/// needed are appended to `out`.
fn build_guard(
    f: &mut Function,
    bools: &mut BoolTracker,
    exits: &[Exit],
    k: usize,
    out: &mut Vec<Instr>,
    forbidden: &FxHashSet<Reg>,
) -> Option<Reg> {
    let mut components: Vec<Pred> = exits[..k]
        .iter()
        .map(|e| e.pred.expect("non-last exits are predicated").negate())
        .collect();
    if let Some(p) = exits[k].pred {
        components.push(p);
    }
    let mut acc: Option<Reg> = None;
    for c in components {
        acc = Some(match acc {
            None => bools.normalize(f, c, out, forbidden),
            Some(prev) => bools.conjoin(f, prev, c, out, forbidden),
        });
    }
    acc
}

/// Merge block `s` into `hb`, removing `s` from the function.
///
/// `s` must have `hb` as its only predecessor (callers establish this with
/// tail/head duplication first — see [`crate::duplication`]).
///
/// # Errors
/// Returns a [`CombineError`] and leaves `f` untouched if the merge is
/// structurally impossible.
pub fn combine(f: &mut Function, hb: BlockId, s: BlockId) -> Result<(), CombineError> {
    combine_with(f, hb, s, true)
}

/// [`combine`] with speculation optionally disabled (every merged
/// instruction keeps a guard). Used by the speculation ablation; real
/// hyperblock compilers always speculate.
pub fn combine_with(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    speculation: bool,
) -> Result<(), CombineError> {
    combine_with_liveness(f, hb, s, speculation, None)
}

/// [`combine_with`] with an optionally pre-computed liveness solution for
/// the *current* state of `f`. The convergent formation driver passes its
/// trial's solution, refreshed after any duplication; `None` computes
/// liveness here.
pub(crate) fn combine_with_liveness(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    speculation: bool,
    cached_liveness: Option<&chf_ir::liveness::Liveness>,
) -> Result<(), CombineError> {
    if s == f.entry || s == hb {
        return Err(CombineError::IllegalTarget);
    }
    let edges: Vec<usize> = f
        .block(hb)
        .exits
        .iter()
        .enumerate()
        .filter(|(_, e)| e.target == ExitTarget::Block(s))
        .map(|(i, _)| i)
        .collect();
    let k = match edges.as_slice() {
        [] => return Err(CombineError::NoEdge),
        [k] => *k,
        _ => return Err(CombineError::MultipleEdges),
    };

    // Hazard: S must not write registers read by exits of *higher priority*
    // than the merged edge. (Those exits fire exactly when the guard is
    // false in the pre-S state — but a guarded write by S could flip their
    // predicate before the merged block evaluates them.) Exits *after* the
    // merged edge are only ever evaluated when the guard was false, i.e.
    // when every write in S was nullified, so they are safe.
    let s_defs: FxHashSet<Reg> = f.block(s).insts.iter().filter_map(|i| i.def()).collect();
    for e in &f.block(hb).exits[..k] {
        if let Some(p) = e.pred {
            if s_defs.contains(&p.reg) {
                return Err(CombineError::ClobbersRemainingExit);
            }
        }
        if let ExitTarget::Return(Some(Operand::Reg(r))) = e.target {
            if s_defs.contains(&r) {
                return Err(CombineError::ClobbersRemainingExit);
            }
        }
    }

    let hb_exits = f.block(hb).exits.clone();
    let s_block = f.block(s).clone();
    let k_is_default = k == hb_exits.len() - 1;

    // Speculation (predicate promotion): an instruction from S only needs a
    // guard if executing it when the guard is false could corrupt a value
    // some *other* path reads — i.e. its destination's old value is
    // consumed when control leaves through one of HB's remaining exits.
    // Everything else (address arithmetic, loads, tests, dead-on-exit
    // temporaries) executes speculatively, as in classical hyperblock
    // compilers: "unpredicated instructions within the block execute when
    // they receive operands" (§4.1). Stores always keep their guard.
    let protected: FxHashSet<Reg> = {
        let computed;
        let liveness = match cached_liveness {
            Some(lv) => lv,
            None => {
                computed = chf_ir::liveness::Liveness::compute(f);
                &computed
            }
        };
        let mut set = FxHashSet::default();
        for (i, e) in f.block(hb).exits.iter().enumerate() {
            if i == k {
                continue;
            }
            if let Some(p) = e.pred {
                set.insert(p.reg);
            }
            match e.target {
                ExitTarget::Block(t) => set.extend(liveness.live_in(t).iter()),
                ExitTarget::Return(Some(Operand::Reg(r))) => {
                    set.insert(r);
                }
                ExitTarget::Return(_) => {}
            }
        }
        set
    };

    // 1. Guard. Boolean-valued predicate sources (comparison outputs) are
    // reused directly, as TRIPS test instructions produce predicates
    // natively; registers S redefines cannot be reused (the guard must be a
    // stable snapshot of the entry condition).
    let mut bools = BoolTracker::from_block(f.block(hb));
    let mut merged_insts: Vec<Instr> = Vec::new();
    let guard_reg = build_guard(f, &mut bools, &hb_exits, k, &mut merged_insts, &s_defs);
    let guard_pred = guard_reg.map(Pred::on_true);
    let no_forbid = FxHashSet::default();

    // 2. Predicate S's instructions.
    // Cache of (pred reg, polarity) → conjoined guard register, invalidated
    // when S redefines the predicate register.
    let mut conj_cache: Vec<(Pred, Reg)> = Vec::new();
    for inst in &s_block.insts {
        let mut inst = inst.clone();
        // Speculate when safe: skip guarding entirely.
        let speculate = speculation
            && !inst.has_side_effect()
            && inst.def().map(|d| !protected.contains(&d)).unwrap_or(false);
        if speculate {
            if let Some(d) = inst.def() {
                conj_cache.retain(|(p, _)| p.reg != d);
            }
            bools.observe(&inst);
            merged_insts.push(inst);
            continue;
        }
        match (guard_pred, inst.pred) {
            (None, _) => {}
            (Some(g), None) => inst.pred = Some(g),
            (Some(g), Some(q)) => {
                let cached = conj_cache.iter().find(|(p, _)| *p == q).map(|(_, r)| *r);
                let gq = match cached {
                    Some(r) => r,
                    None => {
                        let dst = bools.conjoin(f, g.reg, q, &mut merged_insts, &no_forbid);
                        conj_cache.push((q, dst));
                        dst
                    }
                };
                inst.pred = Some(Pred::on_true(gq));
            }
        }
        if let Some(d) = inst.def() {
            conj_cache.retain(|(p, _)| p.reg != d);
        }
        bools.observe(&inst);
        merged_insts.push(inst);
    }

    // 3. Rewrite S's exits. When exit k was HB's default, reaching its
    // priority slot already implies the guard, so S's exits keep their own
    // predicates. Otherwise conjoin with the guard, evaluated after S's
    // instructions (exit-time values).
    let mut s_exits: Vec<Exit> = Vec::with_capacity(s_block.exits.len());
    if let (false, Some(g)) = (k_is_default, guard_pred) {
        for e in &s_block.exits {
            let mut e = *e;
            e.pred = Some(match e.pred {
                None => g,
                Some(q) => {
                    let dst = bools.conjoin(f, g.reg, q, &mut merged_insts, &no_forbid);
                    Pred::on_true(dst)
                }
            });
            s_exits.push(e);
        }
    } else {
        s_exits.extend(s_block.exits.iter().copied());
    }

    // 4. Splice.
    let mut new_exits = Vec::with_capacity(hb_exits.len() - 1 + s_exits.len());
    new_exits.extend(hb_exits[..k].iter().copied());
    new_exits.extend(s_exits);
    new_exits.extend(hb_exits[k + 1..].iter().copied());

    {
        let hb_blk = f.block_mut(hb);
        hb_blk.insts.extend(merged_insts);
        hb_blk.exits = new_exits;
        if let Some(sn) = &s_block.name {
            let base = hb_blk.name.clone().unwrap_or_default();
            hb_blk.name = Some(if base.is_empty() {
                sn.clone()
            } else {
                format!("{base}+{sn}")
            });
        }
    }
    f.remove_block(s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::verify::verify;

    fn reg(r: Reg) -> Operand {
        Operand::Reg(r)
    }

    /// entry: c = p0 < 10; branch c then els; then: ... ret; els: ... ret
    fn diamond_arm() -> (Function, BlockId, BlockId, BlockId) {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let t = fb.create_block();
        let z = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(10));
        fb.branch(c, t, z);
        fb.switch_to(t);
        let a = fb.add(reg(fb.param(0)), Operand::Imm(1));
        fb.ret(Some(reg(a)));
        fb.switch_to(z);
        let b = fb.mul(reg(fb.param(0)), Operand::Imm(2));
        fb.ret(Some(reg(b)));
        (fb.build().unwrap(), e, t, z)
    }

    fn behaviour(f: &Function, arg: i64) -> (Option<i64>, Vec<(i64, i64)>) {
        chf_sim::functional::run(f, &[arg], &[], &chf_sim::functional::RunConfig::default())
            .unwrap()
            .digest()
    }

    #[test]
    fn merge_taken_arm() {
        let (mut f, e, t, _z) = diamond_arm();
        let orig = f.clone();
        combine(&mut f, e, t).unwrap();
        verify(&f).unwrap();
        assert!(!f.contains_block(t));
        for arg in [0, 5, 10, 50] {
            assert_eq!(behaviour(&f, arg), behaviour(&orig, arg), "arg {arg}");
        }
        // Merged instructions are predicated.
        assert!(f.block(e).is_predicated());
    }

    #[test]
    fn merge_default_arm() {
        let (mut f, e, _t, z) = diamond_arm();
        let orig = f.clone();
        combine(&mut f, e, z).unwrap();
        verify(&f).unwrap();
        for arg in [0, 9, 10, 50] {
            assert_eq!(behaviour(&f, arg), behaviour(&orig, arg), "arg {arg}");
        }
    }

    #[test]
    fn merge_both_arms_sequentially() {
        let (mut f, e, t, z) = diamond_arm();
        let orig = f.clone();
        combine(&mut f, e, t).unwrap();
        combine(&mut f, e, z).unwrap();
        verify(&f).unwrap();
        assert_eq!(f.block_count(), 1);
        for arg in [0, 9, 10, 50, -3] {
            assert_eq!(behaviour(&f, arg), behaviour(&orig, arg), "arg {arg}");
        }
    }

    #[test]
    fn straight_line_concatenation_needs_no_guard() {
        let mut fb = FunctionBuilder::new("f", 1);
        let a = fb.create_block();
        let b = fb.create_block();
        fb.switch_to(a);
        let x = fb.add(reg(fb.param(0)), Operand::Imm(1));
        fb.jump(b);
        fb.switch_to(b);
        let y = fb.mul(reg(x), Operand::Imm(3));
        fb.ret(Some(reg(y)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();
        combine(&mut f, a, b).unwrap();
        verify(&f).unwrap();
        assert_eq!(f.block_count(), 1);
        assert!(!f.block(a).is_predicated(), "no predication needed");
        assert_eq!(behaviour(&f, 7), behaviour(&orig, 7));
    }

    #[test]
    fn nested_merge_composes_predicates() {
        // entry -> (t -> (t2 | ret) | ret): merge t then t2; t2's code must
        // be predicated on the conjunction of both conditions.
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        let t = fb.create_block();
        let t2 = fb.create_block();
        let out = fb.create_block();
        fb.switch_to(e);
        let c1 = fb.cmp_gt(reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c1, t, out);
        fb.switch_to(t);
        let c2 = fb.cmp_gt(reg(fb.param(1)), Operand::Imm(0));
        fb.branch(c2, t2, out);
        fb.switch_to(t2);
        fb.store(Operand::Imm(0), Operand::Imm(99));
        fb.jump(out);
        fb.switch_to(out);
        fb.ret(Some(Operand::Imm(0)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();
        combine(&mut f, e, t).unwrap();
        combine(&mut f, e, t2).unwrap();
        verify(&f).unwrap();
        let run = |f: &Function, a: i64, b: i64| {
            chf_sim::functional::run(f, &[a, b], &[], &Default::default())
                .unwrap()
                .digest()
        };
        for (a, b) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
            assert_eq!(run(&f, a, b), run(&orig, a, b), "({a},{b})");
        }
    }

    #[test]
    fn self_loop_unroll_style_merge() {
        // B: i += 1; c = i < n; [c] -> B' ; -> exit — merging the duplicated
        // body B' into B must keep loop semantics.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(body);
        fb.switch_to(body);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, body, exit);
        fb.switch_to(exit);
        fb.ret(Some(reg(i)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();

        // Duplicate body -> copy, retarget back edge to copy (Figure 4).
        let copy = f.duplicate_block(body);
        f.block_mut(body).retarget_exits(body, copy);
        verify(&f).unwrap();
        combine(&mut f, body, copy).unwrap();
        verify(&f).unwrap();
        for arg in [0, 1, 2, 7, 8] {
            assert_eq!(behaviour(&f, arg), behaviour(&orig, arg), "arg {arg}");
        }
    }

    #[test]
    fn rejects_multiple_edges() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let s = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c, s, s);
        fb.switch_to(s);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        assert_eq!(combine(&mut f, e, s), Err(CombineError::MultipleEdges));
    }

    #[test]
    fn rejects_entry_and_self() {
        let (mut f, e, t, _) = diamond_arm();
        assert_eq!(combine(&mut f, t, e), Err(CombineError::IllegalTarget));
        assert_eq!(combine(&mut f, e, e), Err(CombineError::IllegalTarget));
    }

    #[test]
    fn rejects_clobbering_higher_priority_exit() {
        // entry has three exits: [c1] -> x, [c2] -> s, -> y.
        // s writes c1, the predicate of a *higher-priority* exit, which the
        // merged block evaluates after s's (guarded) code — refused.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let s = fb.create_block();
        let x = fb.create_block();
        let y = fb.create_block();
        fb.switch_to(e);
        let c1 = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(0));
        let c2 = fb.cmp_gt(reg(fb.param(0)), Operand::Imm(10));
        fb.jump(y); // placeholder default; rewritten below
        fb.switch_to(s);
        fb.mov_to(c1, Operand::Imm(1));
        fb.ret(None);
        fb.switch_to(x);
        fb.ret(None);
        fb.switch_to(y);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        f.block_mut(e).exits = vec![
            Exit::when(Pred::on_true(c1), x),
            Exit::when(Pred::on_true(c2), s),
            Exit::jump(y),
        ];
        assert_eq!(
            combine(&mut f, e, s),
            Err(CombineError::ClobbersRemainingExit)
        );
    }

    #[test]
    fn allows_clobbering_lower_priority_exit() {
        // s (merged via the first exit) rewrites the register that the
        // *later* ret exit returns. That exit only fires when the guard was
        // false, i.e. when s's write was nullified — legal, and behaviour
        // must be preserved.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let s = fb.create_block();
        fb.switch_to(e);
        let acc = fb.mov(Operand::Imm(5));
        let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(0));
        let dummy = fb.create_block();
        fb.branch(c, s, dummy);
        fb.switch_to(dummy);
        fb.ret(Some(reg(acc)));
        fb.switch_to(s);
        let acc2 = fb.add(reg(acc), Operand::Imm(100));
        fb.mov_to(acc, reg(acc2));
        fb.ret(Some(reg(acc)));
        let mut f = fb.build().unwrap();
        // Inline dummy's ret into entry so the later exit reads acc directly.
        combine(&mut f, e, dummy).unwrap();
        let orig = f.clone();
        combine(&mut f, e, s).unwrap();
        verify(&f).unwrap();
        for arg in [-4, 0, 4] {
            assert_eq!(behaviour(&f, arg), behaviour(&orig, arg), "arg {arg}");
        }
    }

    #[test]
    fn guard_snapshot_tolerates_condition_clobber() {
        // s rewrites the very condition that guards it; the snapshot taken
        // before s's code keeps behaviour intact (no remaining exit reads c).
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let s = fb.create_block();
        let other = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c, s, other);
        fb.switch_to(s);
        fb.mov_to(c, Operand::Imm(0));
        fb.ret(Some(Operand::Imm(1)));
        fb.switch_to(other);
        fb.ret(Some(Operand::Imm(2)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();
        combine(&mut f, e, s).unwrap();
        verify(&f).unwrap();
        for arg in [-5, 0, 5] {
            assert_eq!(behaviour(&f, arg), behaviour(&orig, arg), "arg {arg}");
        }
    }
}
