//! Liveness-based dead-code elimination.
//!
//! Removes instructions whose destination is dead and that have no side
//! effect. Predicated definitions are *may*-defs: they never make the
//! previous value dead, so a live destination keeps both the predicated def
//! and whatever defined the register before it.

use crate::Pass;
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::liveness::Liveness;

/// The dead-code-elimination pass.
#[derive(Debug, Default)]
pub struct Dce;

/// Remove dead instructions from block `b`, given `live`, the function-wide
/// liveness solution. Mutates only `b`.
fn sweep_block(f: &mut Function, b: BlockId, live: &Liveness) -> bool {
    // Live set at the end of the instruction list: successors'
    // needs plus this block's own exit uses.
    let mut alive = live.live_out(b).to_buf();
    let blk = f.block_mut(b);
    for e in &blk.exits {
        if let Some(p) = e.pred {
            alive.insert(p.reg);
        }
        if let ExitTarget::Return(Some(op)) = e.target {
            if let Some(r) = op.as_reg() {
                alive.insert(r);
            }
        }
    }

    // Backward sweep. Most sweeps remove nothing, so the keep mask is
    // allocated at the first dead instruction.
    let mut keep: Option<Vec<bool>> = None;
    for (i, inst) in blk.insts.iter().enumerate().rev() {
        if inst.has_side_effect() {
            for u in inst.uses() {
                alive.insert(u);
            }
            continue;
        }
        let d = inst.def().expect("non-store ops define a register");
        if !alive.contains(&d) {
            keep.get_or_insert_with(|| vec![true; blk.insts.len()])[i] = false;
            continue;
        }
        if inst.pred.is_none() {
            alive.remove(d);
        }
        for u in inst.uses() {
            alive.insert(u);
        }
    }

    let Some(keep) = keep else { return false };
    let mut idx = 0;
    blk.insts.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    true
}

/// Run dead-code elimination on a single block, using a fresh function-wide
/// liveness solution (dataflow must stay global — the block's `live_out`
/// depends on its successors). Block-scoped entry point for formation's
/// trial optimizer; mutates only `b`.
///
/// Returns whether `b` changed, and the solution the sweep used. When
/// nothing was removed, `f` is exactly the state that solution describes.
pub fn eliminate_in_block(f: &mut Function, b: BlockId) -> (bool, Liveness) {
    let live = Liveness::compute(f);
    (sweep_block(f, b, &live), live)
}

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        let live = Liveness::compute(f);
        let mut changed = false;
        let ids: Vec<_> = f.block_ids().collect();
        for b in ids {
            changed |= sweep_block(f, b, &live);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::{Instr, Operand, Pred};

    #[test]
    fn removes_unused_computation() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let dead = fb.mul(Operand::Reg(fb.param(0)), Operand::Imm(3));
        let _ = dead;
        let x = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        assert!(Dce.run(&mut f));
        assert_eq!(f.block(f.entry).insts.len(), 1);
    }

    #[test]
    fn keeps_stores() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        fb.store(Operand::Imm(0), Operand::Reg(fb.param(0)));
        fb.ret(None);
        let mut f = fb.build().unwrap();
        assert!(!Dce.run(&mut f));
        assert_eq!(f.block(f.entry).insts.len(), 1);
    }

    #[test]
    fn removes_transitively_dead_chains() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        let b = fb.mul(Operand::Reg(a), Operand::Imm(2));
        let _ = b;
        fb.ret(Some(Operand::Imm(0)));
        let mut f = fb.build().unwrap();
        assert!(Dce.run(&mut f));
        assert!(f.block(f.entry).insts.is_empty());
    }

    #[test]
    fn predicated_def_keeps_earlier_def_alive() {
        // out = 0; [p] out = 1; return out — both defs must survive.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let out = fb.mov(Operand::Imm(0));
        let p = fb.cmp_gt(Operand::Reg(fb.param(0)), Operand::Imm(5));
        fb.push(Instr::mov(out, Operand::Imm(1)).predicated(Pred::on_true(p)));
        fb.ret(Some(Operand::Reg(out)));
        let mut f = fb.build().unwrap();
        assert!(!Dce.run(&mut f));
        assert_eq!(f.block(f.entry).insts.len(), 3);
    }

    #[test]
    fn value_live_across_blocks_kept() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let next = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        fb.jump(next);
        fb.switch_to(next);
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        assert!(!Dce.run(&mut f));
    }

    #[test]
    fn dead_predicated_def_removed() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p = fb.cmp_ne(Operand::Reg(fb.param(1)), Operand::Imm(0));
        let dead = fb.fresh_reg();
        fb.push(Instr::mov(dead, Operand::Imm(1)).predicated(Pred::on_true(p)));
        fb.ret(Some(Operand::Reg(fb.param(0))));
        let mut f = fb.build().unwrap();
        assert!(Dce.run(&mut f));
        // The predicate computation also dies in the same sweep.
        assert!(f.block(f.entry).insts.is_empty());
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                Dce.run(f);
            },
            0..40,
        );
    }
}
