//! Constant folding and algebraic simplification.

use crate::clean::Kernel;
use crate::{CleanBlocks, Pass};
use chf_ir::block::Block;
use chf_ir::function::Function;
use chf_ir::ids::Reg;
use chf_ir::instr::{Instr, Opcode, Operand};
use chf_ir::regtable::RegTable;
use std::cell::RefCell;

/// Folds instructions whose operands are immediates and applies safe
/// algebraic identities (`x+0`, `x*1`, `x*0`, `x-x`, …), rewriting them to
/// `mov`s that later passes propagate and eliminate.
#[derive(Debug, Default)]
pub struct ConstFold;

fn fold_constants(op: Opcode, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Opcode::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl((b & 63) as u32),
        Opcode::Shr => a.wrapping_shr((b & 63) as u32),
        Opcode::CmpEq => (a == b) as i64,
        Opcode::CmpNe => (a != b) as i64,
        Opcode::CmpLt => (a < b) as i64,
        Opcode::CmpLe => (a <= b) as i64,
        Opcode::CmpGt => (a > b) as i64,
        Opcode::CmpGe => (a >= b) as i64,
        _ => return None,
    })
}

fn fold_unary(op: Opcode, a: i64) -> Option<i64> {
    Some(match op {
        Opcode::Not => !a,
        Opcode::Neg => a.wrapping_neg(),
        Opcode::Mov => a,
        _ => return None,
    })
}

/// Try to simplify one instruction. Returns the replacement if simplified.
fn simplify(inst: &Instr) -> Option<Instr> {
    let dst = inst.dst?;
    let rebuild = |src: Operand| {
        let mut i = Instr::mov(dst, src);
        i.pred = inst.pred;
        i
    };

    match (inst.op.arity(), inst.a, inst.b) {
        (1, Some(Operand::Imm(a)), _) if inst.op != Opcode::Load => {
            let v = fold_unary(inst.op, a)?;
            // mov of the same imm is not progress
            if inst.op == Opcode::Mov {
                return None;
            }
            Some(rebuild(Operand::Imm(v)))
        }
        (2, Some(Operand::Imm(a)), Some(Operand::Imm(b))) => {
            let v = fold_constants(inst.op, a, b)?;
            Some(rebuild(Operand::Imm(v)))
        }
        (2, Some(a), Some(b)) => {
            // Algebraic identities with one immediate operand.
            match (inst.op, a, b) {
                (Opcode::Add, x, Operand::Imm(0)) | (Opcode::Add, Operand::Imm(0), x) => {
                    Some(rebuild(x))
                }
                (Opcode::Sub, x, Operand::Imm(0)) => Some(rebuild(x)),
                (Opcode::Mul, x, Operand::Imm(1)) | (Opcode::Mul, Operand::Imm(1), x) => {
                    Some(rebuild(x))
                }
                (Opcode::Mul, _, Operand::Imm(0)) | (Opcode::Mul, Operand::Imm(0), _) => {
                    Some(rebuild(Operand::Imm(0)))
                }
                (Opcode::Div, x, Operand::Imm(1)) => Some(rebuild(x)),
                (Opcode::And, _, Operand::Imm(0)) | (Opcode::And, Operand::Imm(0), _) => {
                    Some(rebuild(Operand::Imm(0)))
                }
                (Opcode::Or, x, Operand::Imm(0)) | (Opcode::Or, Operand::Imm(0), x) => {
                    Some(rebuild(x))
                }
                (Opcode::Xor, x, Operand::Imm(0)) | (Opcode::Xor, Operand::Imm(0), x) => {
                    Some(rebuild(x))
                }
                (Opcode::Shl, x, Operand::Imm(0)) | (Opcode::Shr, x, Operand::Imm(0)) => {
                    Some(rebuild(x))
                }
                (Opcode::Sub, Operand::Reg(x), Operand::Reg(y)) if x == y => {
                    Some(rebuild(Operand::Imm(0)))
                }
                (Opcode::Xor, Operand::Reg(x), Operand::Reg(y)) if x == y => {
                    Some(rebuild(Operand::Imm(0)))
                }
                (Opcode::CmpEq, Operand::Reg(x), Operand::Reg(y)) if x == y => {
                    Some(rebuild(Operand::Imm(1)))
                }
                (Opcode::CmpNe, Operand::Reg(x), Operand::Reg(y))
                | (Opcode::CmpLt, Operand::Reg(x), Operand::Reg(y))
                | (Opcode::CmpGt, Operand::Reg(x), Operand::Reg(y))
                    if x == y =>
                {
                    Some(rebuild(Operand::Imm(0)))
                }
                (Opcode::CmpLe, Operand::Reg(x), Operand::Reg(y))
                | (Opcode::CmpGe, Operand::Reg(x), Operand::Reg(y))
                    if x == y =>
                {
                    Some(rebuild(Operand::Imm(1)))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// What boolean simplification knows of one register: how often the block
/// has defined it so far, whether it holds 0 or 1, and the guard `g` (with
/// `g`'s definition count at that point) of a comparison `[g]` that last
/// defined it, which is stale once `g` is defined again.
#[derive(Copy, Clone, Debug, Default)]
struct BoolInfo {
    defs: u32,
    is_bool: bool,
    cond: Option<(Reg, u32)>,
}

thread_local! {
    static BOOLS: RefCell<RegTable<BoolInfo>> = const { RefCell::new(RegTable::new()) };
}

/// Per-block boolean-value tracking: a register is *boolean* after an
/// unpredicated comparison, a logical op over booleans, or a copy of a
/// boolean. Guard chains built by if-conversion are boolean throughout, so
/// `ne g, #0` and `and g, #1` collapse to copies. Linear in the block: the
/// facts live in a per-thread [`RegTable`], and a redefinition invalidates
/// the facts that name the register by bumping its definition count.
fn simplify_booleans(blk: &mut Block) -> bool {
    BOOLS.with_borrow_mut(|regs| {
        regs.clear();
        simplify_booleans_with(blk, regs)
    })
}

fn simplify_booleans_with(blk: &mut Block, regs: &mut RegTable<BoolInfo>) -> bool {
    let mut changed = false;
    let is_bool = |regs: &RegTable<BoolInfo>, o: Option<Operand>| match o {
        Some(Operand::Reg(r)) => regs.get(r).is_bool,
        Some(Operand::Imm(v)) => v == 0 || v == 1,
        None => false,
    };
    // `cond_bool(r) == Some(g)`: r's last def is a comparison predicated
    // on `[g]` — boolean whenever g fired, so `and g, r` is boolean.
    let cond_bool = |regs: &RegTable<BoolInfo>, r: Reg| {
        regs.get(r)
            .cond
            .filter(|&(g, defs)| regs.get(g).defs == defs)
            .map(|(g, _)| g)
    };
    for inst in &mut blk.insts {
        // Rewrite using the *pre-instruction* boolean state.
        let rebuild = |inst: &Instr, src: Operand| {
            let mut i = Instr::mov(inst.dst.expect("dst"), src);
            i.pred = inst.pred;
            i
        };
        let new = match (inst.op, inst.a, inst.b) {
            (Opcode::CmpNe, Some(a @ Operand::Reg(_)), Some(Operand::Imm(0)))
                if is_bool(regs, Some(a)) =>
            {
                Some(rebuild(inst, a))
            }
            (Opcode::And, Some(a @ Operand::Reg(_)), Some(Operand::Imm(1)))
                if is_bool(regs, Some(a)) =>
            {
                Some(rebuild(inst, a))
            }
            (Opcode::And, Some(Operand::Imm(1)), Some(b @ Operand::Reg(_)))
                if is_bool(regs, Some(b)) =>
            {
                Some(rebuild(inst, b))
            }
            (Opcode::And, Some(a @ Operand::Reg(x)), Some(Operand::Reg(y)))
                if x == y && is_bool(regs, Some(a)) =>
            {
                Some(rebuild(inst, a))
            }
            _ => None,
        };
        if let Some(n) = new {
            *inst = n;
            changed = true;
        }
        // Update tracking.
        if let Some(d) = inst.def() {
            let slot = regs.get_mut(d);
            slot.defs += 1;
            slot.cond = None;
            let and_cond_bool = inst.op == Opcode::And
                && match (inst.a, inst.b) {
                    (Some(Operand::Reg(a)), Some(Operand::Reg(b))) => {
                        (regs.get(a).is_bool && cond_bool(regs, b) == Some(a))
                            || (regs.get(b).is_bool && cond_bool(regs, a) == Some(b))
                    }
                    _ => false,
                };
            let op_is_bool = inst.op.is_compare()
                || (matches!(inst.op, Opcode::And | Opcode::Or | Opcode::Xor)
                    && is_bool(regs, inst.a)
                    && is_bool(regs, inst.b))
                || and_cond_bool
                || (inst.op == Opcode::Mov && is_bool(regs, inst.a));
            let is_bool = op_is_bool && inst.pred.is_none();
            let cond = match inst.pred {
                Some(p) if !is_bool && inst.op.is_compare() && p.if_true => {
                    Some((p.reg, regs.get(p.reg).defs))
                }
                _ => None,
            };
            let slot = regs.get_mut(d);
            slot.is_bool = is_bool;
            slot.cond = cond;
        }
    }
    changed
}

/// Run constant folding and boolean simplification over a single block.
/// Block-scoped entry point for the trial optimizer of convergent
/// formation, which only needs the merged block cleaned up.
///
/// Two passes over the block, each linear in it: folding looks at one
/// instruction at a time, and boolean simplification keeps its facts in a
/// per-thread [`RegTable`] that is never zeroed, so a call costs nothing
/// in the register numbers the block uses.
pub fn fold_block(blk: &mut Block) -> bool {
    let mut changed = false;
    for inst in &mut blk.insts {
        if let Some(new) = simplify(inst) {
            *inst = new;
            changed = true;
        }
    }
    changed |= simplify_booleans(blk);
    changed
}

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        Kernel::ConstFold.each_block(f)
    }

    fn run_cached(&mut self, f: &mut Function, clean: &mut CleanBlocks) -> bool {
        clean.run(f, Kernel::ConstFold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::ids::Reg;
    use chf_ir::instr::Pred;

    fn fold_one(inst: Instr) -> Option<Instr> {
        simplify(&inst)
    }

    #[test]
    fn folds_constant_binary() {
        let i = Instr::add(Reg(0), Operand::Imm(2), Operand::Imm(3));
        let s = fold_one(i).unwrap();
        assert_eq!(s, Instr::mov(Reg(0), Operand::Imm(5)));
    }

    #[test]
    fn folds_identities() {
        let x = Operand::Reg(Reg(1));
        assert_eq!(
            fold_one(Instr::add(Reg(0), x, Operand::Imm(0))).unwrap(),
            Instr::mov(Reg(0), x)
        );
        assert_eq!(
            fold_one(Instr::mul(Reg(0), x, Operand::Imm(0))).unwrap(),
            Instr::mov(Reg(0), Operand::Imm(0))
        );
        assert_eq!(
            fold_one(Instr::sub(Reg(0), x, x)).unwrap(),
            Instr::mov(Reg(0), Operand::Imm(0))
        );
        assert_eq!(
            fold_one(Instr::binary(Opcode::CmpLe, Reg(0), x, x)).unwrap(),
            Instr::mov(Reg(0), Operand::Imm(1))
        );
    }

    #[test]
    fn preserves_predicate() {
        let i =
            Instr::add(Reg(0), Operand::Imm(1), Operand::Imm(1)).predicated(Pred::on_false(Reg(3)));
        let s = fold_one(i).unwrap();
        assert_eq!(s.pred, Some(Pred::on_false(Reg(3))));
        assert_eq!(s.a, Some(Operand::Imm(2)));
    }

    #[test]
    fn does_not_touch_loads() {
        let i = Instr::load(Reg(0), Operand::Imm(5));
        assert!(fold_one(i).is_none());
    }

    #[test]
    fn division_by_zero_folds_to_zero() {
        let i = Instr::binary(Opcode::Div, Reg(0), Operand::Imm(9), Operand::Imm(0));
        assert_eq!(fold_one(i).unwrap(), Instr::mov(Reg(0), Operand::Imm(0)));
    }

    #[test]
    fn pass_reports_change() {
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(Operand::Imm(1), Operand::Imm(2));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        assert!(ConstFold.run(&mut f));
        assert!(!ConstFold.run(&mut f));
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                ConstFold.run(f);
            },
            0..40,
        );
    }
}
