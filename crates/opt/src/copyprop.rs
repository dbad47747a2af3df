//! Predicate-aware copy propagation (within blocks).
//!
//! Forwards the source of `mov` instructions into later uses. A copy made
//! under a predicate may only feed instructions guarded by the *same*
//! predicate (they execute together or not at all); unpredicated copies feed
//! anything. Entries are invalidated when their destination, source, or
//! predicate register is redefined.

use crate::clean::Kernel;
use crate::{CleanBlocks, Pass};
use chf_ir::block::{Block, ExitTarget};
use chf_ir::function::Function;
use chf_ir::ids::Reg;
use chf_ir::instr::{Opcode, Operand, Pred};
use chf_ir::regtable::RegTable;
use std::cell::RefCell;

/// A copy `dst = src` made under `pred`, with the definition counts of
/// the source and predicate registers when it was made: it is stale once
/// either is defined again.
#[derive(Copy, Clone, Debug)]
struct CopyInfo {
    src: Operand,
    pred: Option<Pred>,
    src_defs: u32,
    pred_defs: u32,
}

/// What the pass knows of one register: how often the block has defined
/// it so far, and the copy its last definition made, if it was a `mov`.
#[derive(Copy, Clone, Debug, Default)]
struct RegInfo {
    defs: u32,
    copy: Option<CopyInfo>,
}

thread_local! {
    static REGS: RefCell<RegTable<RegInfo>> = const { RefCell::new(RegTable::new()) };
}

/// The copy-propagation pass.
#[derive(Debug, Default)]
pub struct CopyProp;

fn usable(info: &CopyInfo, use_pred: Option<Pred>) -> bool {
    match info.pred {
        None => true,
        Some(p) => use_pred == Some(p),
    }
}

/// The live copy into `r`: made by `r`'s last definition, with neither its
/// source nor its predicate register defined since.
fn copy_of(regs: &RegTable<RegInfo>, r: Reg) -> Option<CopyInfo> {
    let info = regs.get(r).copy?;
    let current = |o: Option<Reg>, defs: u32| o.is_none_or(|x| regs.get(x).defs == defs);
    (current(info.src.as_reg(), info.src_defs) && current(info.pred.map(|p| p.reg), info.pred_defs))
        .then_some(info)
}

/// Run copy propagation over one block (the block-scoped entry point used
/// by formation's trial optimizer — the pass is intra-block anyway).
///
/// Linear in the block: a redefinition invalidates the copies that read
/// the register by bumping its definition count, not by scanning them, and
/// the per-register table is per-thread scratch that is never zeroed (see
/// [`RegTable`]).
pub fn propagate_block(blk: &mut Block) -> bool {
    REGS.with_borrow_mut(|regs| {
        regs.clear();
        propagate(blk, regs)
    })
}

fn propagate(blk: &mut Block, regs: &mut RegTable<RegInfo>) -> bool {
    let mut changed = false;

    for inst in &mut blk.insts {
        // 1. Rewrite source operands.
        let use_pred = inst.pred;
        for o in [inst.a.as_mut(), inst.b.as_mut()].into_iter().flatten() {
            if let Operand::Reg(r) = *o {
                if let Some(info) = copy_of(regs, r) {
                    if usable(&info, use_pred) {
                        *o = info.src;
                        changed = true;
                    }
                }
            }
        }
        // Rewrite the predicate register through unpredicated reg-to-reg
        // copies only (a predicate operand must stay a register and must be
        // valid whenever the instruction is evaluated).
        if let Some(p) = inst.pred.as_mut() {
            if let Some(info) = copy_of(regs, p.reg) {
                if info.pred.is_none() {
                    if let Operand::Reg(src) = info.src {
                        p.reg = src;
                        changed = true;
                    }
                }
            }
        }

        // 2. Process the definition.
        if let Some(d) = inst.def() {
            let slot = regs.get_mut(d);
            slot.defs += 1;
            slot.copy = None;
            if inst.op == Opcode::Mov {
                let src = inst.a.expect("mov has a source");
                // Self-copies carry no information.
                if src != Operand::Reg(d) {
                    let defs = |r: Option<Reg>| r.map_or(0, |r| regs.get(r).defs);
                    let copy = CopyInfo {
                        src,
                        pred: inst.pred,
                        src_defs: defs(src.as_reg()),
                        pred_defs: defs(inst.pred.map(|p| p.reg)),
                    };
                    regs.get_mut(d).copy = Some(copy);
                }
            }
        }
    }

    // 3. Rewrite exits through unpredicated copies.
    for e in &mut blk.exits {
        if let Some(p) = e.pred.as_mut() {
            if let Some(info) = copy_of(regs, p.reg) {
                if info.pred.is_none() {
                    if let Operand::Reg(src) = info.src {
                        p.reg = src;
                        changed = true;
                    }
                }
            }
        }
        if let ExitTarget::Return(Some(op)) = &mut e.target {
            if let Operand::Reg(r) = *op {
                if let Some(info) = copy_of(regs, r) {
                    if info.pred.is_none() {
                        *op = info.src;
                        changed = true;
                    }
                }
            }
        }
    }

    changed
}

impl Pass for CopyProp {
    fn name(&self) -> &'static str {
        "copyprop"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        Kernel::CopyProp.each_block(f)
    }

    fn run_cached(&mut self, f: &mut Function, clean: &mut CleanBlocks) -> bool {
        clean.run(f, Kernel::CopyProp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Instr;

    #[test]
    fn propagates_simple_copy() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.mov(Operand::Reg(fb.param(0)));
        let y = fb.add(Operand::Reg(x), Operand::Imm(1));
        fb.ret(Some(Operand::Reg(y)));
        let mut f = fb.build().unwrap();
        assert!(CopyProp.run(&mut f));
        // The add now reads the parameter directly.
        assert_eq!(f.block(f.entry).insts[1].a, Some(Operand::Reg(Reg(0))));
    }

    #[test]
    fn redefinition_invalidates() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p0 = fb.param(0);
        let x = fb.mov(Operand::Reg(p0)); // x = p0
        fb.mov_to(p0, Operand::Imm(99)); // p0 redefined: copy is stale
        let y = fb.add(Operand::Reg(x), Operand::Imm(1));
        fb.ret(Some(Operand::Reg(y)));
        let mut f = fb.build().unwrap();
        CopyProp.run(&mut f);
        // y must still read x, not p0.
        assert_eq!(f.block(f.entry).insts[2].a, Some(Operand::Reg(x)));
    }

    #[test]
    fn predicated_copy_feeds_same_predicate_only() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p = fb.cmp_ne(Operand::Reg(fb.param(1)), Operand::Imm(0));
        let x = fb.fresh_reg();
        let src = fb.param(0);
        fb.push(Instr::mov(x, Operand::Reg(src)).predicated(Pred::on_true(p)));
        // Same predicate: may forward.
        let y = fb.fresh_reg();
        fb.push(Instr::add(y, Operand::Reg(x), Operand::Imm(1)).predicated(Pred::on_true(p)));
        // Different predicate: must not forward.
        let z = fb.fresh_reg();
        fb.push(Instr::add(z, Operand::Reg(x), Operand::Imm(2)).predicated(Pred::on_false(p)));
        let s = fb.add(Operand::Reg(y), Operand::Reg(z));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        CopyProp.run(&mut f);
        let insts = &f.block(f.entry).insts;
        assert_eq!(
            insts[2].a,
            Some(Operand::Reg(src)),
            "same-pred use forwarded"
        );
        assert_eq!(
            insts[3].a,
            Some(Operand::Reg(x)),
            "other-pred use untouched"
        );
    }

    #[test]
    fn return_operand_rewritten() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.mov(Operand::Imm(42));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        CopyProp.run(&mut f);
        let last = &f.block(f.entry).exits[0];
        assert_eq!(
            last.target,
            chf_ir::block::ExitTarget::Return(Some(Operand::Imm(42)))
        );
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                CopyProp.run(f);
            },
            0..40,
        );
    }
}
