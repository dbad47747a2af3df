//! Value numbering.
//!
//! Two cooperating redundancy eliminations:
//!
//! * **Local value numbering** — within a block, predicate- and
//!   memory-aware. This is where hyperblock formation gets its payoff: after
//!   if-conversion and head duplication, the redundancy created by merging
//!   duplicated code is *intra-block*, exactly what the paper's iterative
//!   `Optimize` step targets. Loads are value-numbered against a memory
//!   epoch that stores advance.
//!
//! * **Dominator-scoped GVN over invariant expressions** — an expression
//!   whose value provably never changes during execution (operands are
//!   parameters or single-def registers defined outside all loops, computed
//!   unpredicated) is reused in any block dominated by its definition. This
//!   is the classical dominator-based global value numbering the paper cites,
//!   restricted to the cases that are sound without SSA.

use crate::clean::Kernel;
use crate::{CleanBlocks, Pass};
use chf_ir::block::Block;
use chf_ir::dom::DomTree;
use chf_ir::function::Function;
use chf_ir::fxhash::FxHashMap;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::{Instr, Opcode, Operand, Pred};
use chf_ir::loops::blocks_in_loops;
use chf_ir::regtable::RegTable;
use std::cell::RefCell;

/// The value-numbering pass.
#[derive(Debug, Default)]
pub struct Gvn;

/// A value number: either a known constant or an opaque id.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Vn {
    Imm(i64),
    Id(u32),
}

/// Normalized predicate component of an expression key.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct PredKey {
    vn: Vn,
    polarity: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ExprKey {
    op: Opcode,
    a: Vn,
    b: Option<Vn>,
    /// Memory epoch, for loads only.
    epoch: u64,
    pred: Option<PredKey>,
}

/// The state of local value numbering, one per thread and reused across
/// calls. [`LocalVn::reset`] bumps the register table's epoch and clears
/// the expression map, which keeps its capacity.
struct LocalVn {
    reg_vn: RegTable<Option<Vn>>,
    exprs: FxHashMap<ExprKey, (Reg, Vn)>,
    next_id: u32,
    epoch: u64,
}

thread_local! {
    static LOCAL_VN: RefCell<LocalVn> = RefCell::new(LocalVn {
        reg_vn: RegTable::new(),
        exprs: FxHashMap::default(),
        next_id: 0,
        epoch: 0,
    });
}

impl LocalVn {
    fn reset(&mut self) {
        self.reg_vn.clear();
        self.exprs.clear();
        self.next_id = 0;
        self.epoch = 0;
    }

    fn fresh(&mut self) -> Vn {
        let id = self.next_id;
        self.next_id += 1;
        Vn::Id(id)
    }

    fn reg(&mut self, r: Reg) -> Vn {
        if let Some(v) = self.reg_vn.get(r) {
            v
        } else {
            let v = self.fresh();
            self.reg_vn.set(r, Some(v));
            v
        }
    }

    fn operand(&mut self, o: Operand) -> Vn {
        match o {
            Operand::Imm(v) => Vn::Imm(v),
            Operand::Reg(r) => self.reg(r),
        }
    }

    fn pred_key(&mut self, p: Option<Pred>) -> Option<PredKey> {
        p.map(|p| PredKey {
            vn: self.reg(p.reg),
            polarity: p.if_true,
        })
    }
}

fn normalize(op: Opcode, a: Vn, b: Option<Vn>) -> (Vn, Option<Vn>) {
    if let Some(bv) = b {
        if op.is_commutative() {
            // Canonical operand order for commutative ops.
            let (x, y) = match (a, bv) {
                (Vn::Imm(i), Vn::Id(j)) => (Vn::Id(j), Vn::Imm(i)),
                (Vn::Id(i), Vn::Id(j)) if j < i => (Vn::Id(j), Vn::Id(i)),
                (Vn::Imm(i), Vn::Imm(j)) if j < i => (Vn::Imm(j), Vn::Imm(i)),
                other => other,
            };
            return (x, Some(y));
        }
    }
    (a, b)
}

/// Run local value numbering over one block (the block-scoped entry point
/// used by formation's trial optimizer).
///
/// Linear in the block: value numbers of registers live in a per-thread
/// [`RegTable`], and the expression table is one per-thread map, cleared
/// and reused, so a call allocates nothing once the tables have grown.
/// Value ids follow first appearance in the block, not register numbers,
/// so renaming a block's registers renames the result and changes nothing
/// else.
pub fn value_number_block(blk: &mut Block) -> bool {
    LOCAL_VN.with_borrow_mut(|vn| {
        vn.reset();
        value_number(blk, vn)
    })
}

fn value_number(blk: &mut Block, vn: &mut LocalVn) -> bool {
    let mut changed = false;

    for inst in &mut blk.insts {
        match inst.op {
            Opcode::Store => {
                // Conservative: any store invalidates all prior loads.
                vn.epoch += 1;
                continue;
            }
            Opcode::Mov => {
                let d = inst.dst.expect("mov dst");
                let src_vn = vn.operand(inst.a.expect("mov src"));
                let new_vn = if inst.pred.is_none() {
                    src_vn
                } else {
                    vn.fresh()
                };
                vn.reg_vn.set(d, Some(new_vn));
                continue;
            }
            _ => {}
        }

        let d = inst.dst.expect("pure ops have a dst");
        let a = vn.operand(inst.a.expect("operand a"));
        let b = inst.b.map(|o| vn.operand(o));
        let (a, b) = normalize(inst.op, a, b);
        let pk = vn.pred_key(inst.pred);
        let epoch = if inst.op == Opcode::Load { vn.epoch } else { 0 };

        // Try the exact key, then (for predicated instructions) an
        // unpredicated computation of the same expression, which is always
        // available.
        let mut found: Option<(Reg, Vn)> = None;
        for key in [
            Some(ExprKey {
                op: inst.op,
                a,
                b,
                epoch,
                pred: pk,
            }),
            pk.map(|_| ExprKey {
                op: inst.op,
                a,
                b,
                epoch,
                pred: None,
            }),
        ]
        .into_iter()
        .flatten()
        {
            if let Some(&(r_prev, res_vn)) = vn.exprs.get(&key) {
                // The holder register must still carry that value.
                if vn.reg_vn.get(r_prev) == Some(res_vn) && r_prev != d {
                    found = Some((r_prev, res_vn));
                    break;
                }
            }
        }

        if let Some((r_prev, res_vn)) = found {
            let mut new = Instr::mov(d, Operand::Reg(r_prev));
            new.pred = inst.pred;
            *inst = new;
            changed = true;
            let new_vn = if inst.pred.is_none() {
                res_vn
            } else {
                vn.fresh()
            };
            vn.reg_vn.set(d, Some(new_vn));
        } else {
            let res_vn = vn.fresh();
            let key = ExprKey {
                op: inst.op,
                a,
                b,
                epoch,
                pred: pk,
            };
            vn.exprs.insert(key, (d, res_vn));
            let new_vn = if inst.pred.is_none() {
                res_vn
            } else {
                vn.fresh()
            };
            vn.reg_vn.set(d, Some(new_vn));
        }
    }
    changed
}

/// The per-register tables of the invariant analysis, one per thread and
/// reused across rounds, so a round pays nothing for register numbers.
struct Invariants {
    /// Definitions per register.
    defs: RegTable<u32>,
    /// Whether the register's value is fixed for the whole execution.
    invariant: RegTable<bool>,
}

thread_local! {
    static INVARIANTS: RefCell<Invariants> = const {
        RefCell::new(Invariants {
            defs: RegTable::new(),
            invariant: RegTable::new(),
        })
    };
}

impl Invariants {
    /// Find the registers whose value is fixed for the whole execution:
    /// never-redefined parameters, and single-def unpredicated non-memory
    /// defs outside all loops whose operands are themselves invariant.
    fn compute(&mut self, f: &Function, in_loop: &[bool]) {
        let Invariants { defs, invariant } = self;
        defs.clear();
        invariant.clear();
        for (_, blk) in f.blocks() {
            for inst in &blk.insts {
                if let Some(d) = inst.def() {
                    *defs.get_mut(d) += 1;
                }
            }
        }
        // A parameter's implicit entry definition counts as a def: a
        // parameter that is also written by an instruction is not
        // single-def.
        for p in (0..f.params).map(Reg) {
            *defs.get_mut(p) += 1;
            invariant.set(p, defs.get(p) == 1);
        }

        // Fixpoint over the def chain.
        let mut changed = true;
        while changed {
            changed = false;
            for (b, blk) in f.blocks() {
                if in_loop[b.index()] {
                    continue; // defs inside loops may execute repeatedly
                }
                for inst in &blk.insts {
                    let Some(d) = inst.def() else { continue };
                    if invariant.get(d)
                        || inst.pred.is_some()
                        || inst.op == Opcode::Load
                        || defs.get(d) != 1
                    {
                        continue;
                    }
                    if inst.uses().all(|u| invariant.get(u)) {
                        invariant.set(d, true);
                        changed = true;
                    }
                }
            }
        }
    }
}

/// Dominator-scoped GVN over invariant expressions, on a fresh dominator
/// tree.
fn run_global(f: &mut Function) -> bool {
    let dom = DomTree::compute(f);
    run_global_with(f, None, &dom, &blocks_in_loops(&dom))
}

/// Dominator-scoped GVN over invariant expressions, restricted to rewrites
/// *landing in* `scope` (when given): the dominator and invariant analyses
/// still look at the whole function, but only instructions of the scoped
/// block are rewritten. This is what the block-scoped trial optimizer
/// needs — global facts, local edits.
///
/// `dom` is the dominator tree of `f` and `in_loops` its
/// [`blocks_in_loops`], as a [`DomCache`](chf_ir::dom::DomCache) gives
/// them; the rewrites visit blocks in `dom`'s reverse postorder.
pub fn run_global_with(
    f: &mut Function,
    scope: Option<BlockId>,
    dom: &DomTree,
    in_loops: &[bool],
) -> bool {
    let rewrites = INVARIANTS.with_borrow_mut(|inv| {
        inv.compute(f, in_loops);
        global_rewrites(f, scope, dom, &inv.invariant)
    });
    let changed = !rewrites.is_empty();
    for (b, i, pr) in rewrites {
        let inst = &mut f.block_mut(b).insts[i];
        let d = inst.dst.expect("dst");
        *inst = Instr::mov(d, Operand::Reg(pr));
    }
    changed
}

/// The rewrites of [`run_global_with`]: `(block, index, pr)` turns the
/// instruction at `index` of `block` into `mov d, pr`.
fn global_rewrites(
    f: &Function,
    scope: Option<BlockId>,
    dom: &DomTree,
    invariant: &RegTable<bool>,
) -> Vec<(BlockId, usize, Reg)> {
    let is_inv_operand = |o: Operand| match o {
        Operand::Imm(_) => true,
        Operand::Reg(r) => invariant.get(r),
    };

    // Collect invariant expressions keyed syntactically.
    #[derive(PartialEq, Eq, Hash)]
    struct Key(Opcode, Operand, Option<Operand>);
    let mut table: FxHashMap<Key, (BlockId, usize, Reg)> = FxHashMap::default();
    let mut rewrites: Vec<(BlockId, usize, Reg)> = Vec::new();

    for &b in dom.rpo() {
        let blk = f.block(b);
        for (i, inst) in blk.insts.iter().enumerate() {
            let Some(d) = inst.def() else { continue };
            if !invariant.get(d) || inst.op == Opcode::Mov {
                continue;
            }
            if !(inst.a.map(is_inv_operand).unwrap_or(true)
                && inst.b.map(is_inv_operand).unwrap_or(true))
            {
                continue;
            }
            let key = Key(inst.op, inst.a.expect("operand"), inst.b);
            match table.get(&key) {
                Some(&(pb, pi, pr)) if dom.strictly_dominates(pb, b) || (pb == b && pi < i) => {
                    if pr != d && scope.map(|s| s == b).unwrap_or(true) {
                        rewrites.push((b, i, pr));
                    }
                }
                _ => {
                    table.insert(key, (b, i, d));
                }
            }
        }
    }
    rewrites
}

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        Kernel::Gvn.each_block(f) | run_global(f)
    }

    /// The local half skips the blocks the memo knows are clean; the
    /// global half reads facts from other blocks, so it visits every block,
    /// on the memo's cached dominator tree and loop membership.
    fn run_cached(&mut self, f: &mut Function, clean: &mut CleanBlocks) -> bool {
        let local = clean.run(f, Kernel::Gvn);
        let (dom, in_loops) = clean.doms().tree_and_loops(f);
        local | run_global_with(f, None, dom, in_loops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;

    #[test]
    fn local_redundancy_eliminated() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = Operand::Reg(fb.param(0));
        let b = Operand::Reg(fb.param(1));
        let x = fb.add(a, b);
        let y = fb.add(a, b); // redundant
        let s = fb.mul(Operand::Reg(x), Operand::Reg(y));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        assert!(Gvn.run(&mut f));
        assert_eq!(f.block(f.entry).insts[1], Instr::mov(y, Operand::Reg(x)));
    }

    #[test]
    fn commutative_operands_normalized() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = Operand::Reg(fb.param(0));
        let b = Operand::Reg(fb.param(1));
        let x = fb.add(a, b);
        let y = fb.add(b, a); // commuted duplicate
        let s = fb.sub(Operand::Reg(x), Operand::Reg(y));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        assert!(Gvn.run(&mut f));
        assert_eq!(f.block(f.entry).insts[1].op, Opcode::Mov);
    }

    #[test]
    fn redefinition_blocks_reuse() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p0 = fb.param(0);
        let x = fb.add(Operand::Reg(p0), Operand::Imm(1));
        fb.mov_to(p0, Operand::Imm(5)); // p0 changes
        let y = fb.add(Operand::Reg(p0), Operand::Imm(1)); // NOT redundant
        let s = fb.mul(Operand::Reg(x), Operand::Reg(y));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        Gvn.run(&mut f);
        assert_eq!(f.block(f.entry).insts[2].op, Opcode::Add);
    }

    #[test]
    fn loads_separated_by_store_not_merged() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = fb.load(Operand::Imm(0));
        fb.store(Operand::Imm(0), Operand::Imm(9));
        let b = fb.load(Operand::Imm(0)); // must re-load
        let s = fb.add(Operand::Reg(a), Operand::Reg(b));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        Gvn.run(&mut f);
        assert_eq!(f.block(f.entry).insts[2].op, Opcode::Load);
    }

    #[test]
    fn repeated_loads_merged() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = fb.load(Operand::Imm(0));
        let b = fb.load(Operand::Imm(0)); // same epoch: redundant
        let s = fb.add(Operand::Reg(a), Operand::Reg(b));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        assert!(Gvn.run(&mut f));
        assert_eq!(f.block(f.entry).insts[1].op, Opcode::Mov);
    }

    #[test]
    fn predicated_reuses_unpredicated_value() {
        use chf_ir::instr::Pred;
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = Operand::Reg(fb.param(0));
        let x = fb.add(a, Operand::Imm(3));
        let p = fb.cmp_ne(Operand::Reg(fb.param(1)), Operand::Imm(0));
        let y = fb.fresh_reg();
        fb.push(Instr::add(y, a, Operand::Imm(3)).predicated(Pred::on_true(p)));
        let s = fb.add(Operand::Reg(x), Operand::Reg(y));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        assert!(Gvn.run(&mut f));
        let inst = &f.block(f.entry).insts[2];
        assert_eq!(inst.op, Opcode::Mov);
        assert!(inst.pred.is_some(), "guard must be preserved");
    }

    #[test]
    fn global_invariant_reused_across_blocks() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        let next = fb.create_block();
        fb.switch_to(e);
        let a = Operand::Reg(fb.param(0));
        let b = Operand::Reg(fb.param(1));
        let x = fb.mul(a, b);
        fb.jump(next);
        fb.switch_to(next);
        let y = fb.mul(a, b); // invariant, dominated by def of x
        let s = fb.add(Operand::Reg(x), Operand::Reg(y));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        assert!(Gvn.run(&mut f));
        assert_eq!(f.block(BlockId(1)).insts[0], Instr::mov(y, Operand::Reg(x)));
    }

    #[test]
    fn loop_variant_not_merged_globally() {
        // i changes per iteration: add inside loop must not reuse the one
        // outside.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        let pre = fb.add(Operand::Reg(i), Operand::Imm(1));
        let _ = pre;
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(Operand::Reg(i), Operand::Reg(fb.param(0)));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.add(Operand::Reg(i), Operand::Imm(1)); // variant!
        fb.mov_to(i, Operand::Reg(i2));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Reg(i)));
        let mut f = fb.build().unwrap();
        Gvn.run(&mut f);
        assert_eq!(f.block(body).insts[0].op, Opcode::Add);
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                Gvn.run(f);
            },
            0..60,
        );
    }
}
