//! Strength reduction: replace expensive operations with cheaper
//! equivalents. On TRIPS the win is latency (multiply is 3 cycles, divide
//! 12, shifts and masks 1), which directly shortens the dependence chains
//! that bound dataflow block execution.
//!
//! Rules (for non-negative or sign-safe cases only — the IR uses signed
//! 64-bit arithmetic, so `div`/`rem` by powers of two round differently
//! than shifts for negative operands and are rewritten only when the
//! operand is provably non-negative):
//!
//! * `x * 2^k` → `x << k` (always valid: two's-complement wrapping agrees);
//! * `x / 2^k` → `x >> k` when `x` is provably non-negative;
//! * `x % 2^k` → `x & (2^k − 1)` when `x` is provably non-negative.

use crate::clean::Kernel;
use crate::{CleanBlocks, Pass};
use chf_ir::block::Block;
use chf_ir::function::Function;
use chf_ir::instr::{Instr, Opcode, Operand};
use chf_ir::regtable::RegTable;
use std::cell::RefCell;

thread_local! {
    /// Per register: whether it provably holds a non-negative value.
    static NON_NEGATIVE: RefCell<RegTable<bool>> = const { RefCell::new(RegTable::new()) };
}

/// The strength-reduction pass.
#[derive(Debug, Default)]
pub struct Strength;

fn power_of_two(v: i64) -> Option<u32> {
    if v > 0 && (v & (v - 1)) == 0 {
        Some(v.trailing_zeros())
    } else {
        None
    }
}

/// Run strength reduction over one block (the block-scoped entry point used
/// by formation's trial optimizer).
///
/// Per-block tracking of registers that provably hold non-negative values:
/// comparison results (0/1), `and` with a non-negative immediate, shifts of
/// non-negative values, and copies/additions of non-negative values with
/// small enough magnitude to not overflow (we only accept compare outputs,
/// masks, and unsigned-style counters built from them — conservative).
///
/// Linear in the block: the facts live in a per-thread [`RegTable`] that
/// is never zeroed.
pub fn reduce_block(blk: &mut Block) -> bool {
    NON_NEGATIVE.with_borrow_mut(|non_negative| {
        non_negative.clear();
        reduce(blk, non_negative)
    })
}

fn reduce(blk: &mut Block, non_negative: &mut RegTable<bool>) -> bool {
    let mut changed = false;

    let operand_non_negative = |set: &RegTable<bool>, o: Option<Operand>| match o {
        Some(Operand::Imm(v)) => v >= 0,
        Some(Operand::Reg(r)) => set.get(r),
        None => false,
    };

    for inst in &mut blk.insts {
        // Rewrite using the *pre-instruction* facts.
        if let (Some(a), Some(Operand::Imm(c))) = (inst.a, inst.b) {
            if let Some(k) = power_of_two(c) {
                let rewritten = match inst.op {
                    Opcode::Mul => Some(Instr {
                        op: Opcode::Shl,
                        b: Some(Operand::Imm(k as i64)),
                        ..inst.clone()
                    }),
                    Opcode::Div if operand_non_negative(non_negative, Some(a)) => Some(Instr {
                        op: Opcode::Shr,
                        b: Some(Operand::Imm(k as i64)),
                        ..inst.clone()
                    }),
                    Opcode::Rem if operand_non_negative(non_negative, Some(a)) => Some(Instr {
                        op: Opcode::And,
                        b: Some(Operand::Imm(c - 1)),
                        ..inst.clone()
                    }),
                    _ => None,
                };
                if let Some(new) = rewritten {
                    *inst = new;
                    changed = true;
                }
            }
        }

        // Update non-negativity facts (unpredicated defs only: a predicated
        // def may leave an arbitrary old value).
        if let Some(d) = inst.def() {
            let fact = inst.pred.is_none()
                && match inst.op {
                    op if op.is_compare() => true,
                    Opcode::And => {
                        // Non-negative if either side is a non-negative
                        // immediate (masking clears the sign bit) or both
                        // operands are non-negative.
                        matches!(inst.a, Some(Operand::Imm(v)) if v >= 0)
                            || matches!(inst.b, Some(Operand::Imm(v)) if v >= 0)
                            || (operand_non_negative(non_negative, inst.a)
                                && operand_non_negative(non_negative, inst.b))
                    }
                    Opcode::Shr => operand_non_negative(non_negative, inst.a),
                    Opcode::Mov => operand_non_negative(non_negative, inst.a),
                    Opcode::Rem => {
                        // x % m has the sign of x.
                        operand_non_negative(non_negative, inst.a)
                    }
                    _ => false,
                };
            non_negative.set(d, fact);
        }
    }
    changed
}

impl Pass for Strength {
    fn name(&self) -> &'static str {
        "strength"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        Kernel::Strength.each_block(f)
    }

    fn run_cached(&mut self, f: &mut Function, clean: &mut CleanBlocks) -> bool {
        clean.run(f, Kernel::Strength)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;

    #[test]
    fn multiply_by_power_of_two_becomes_shift() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.mul(Operand::Reg(fb.param(0)), Operand::Imm(8));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        assert!(Strength.run(&mut f));
        let inst = &f.block(f.entry).insts[0];
        assert_eq!(inst.op, Opcode::Shl);
        assert_eq!(inst.b, Some(Operand::Imm(3)));
    }

    #[test]
    fn signed_division_not_rewritten_blindly() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.div(Operand::Reg(fb.param(0)), Operand::Imm(4));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        // The parameter's sign is unknown: no rewrite.
        assert!(!Strength.run(&mut f));
        assert_eq!(f.block(f.entry).insts[0].op, Opcode::Div);
    }

    #[test]
    fn masked_value_divides_via_shift() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let m = fb.and(Operand::Reg(fb.param(0)), Operand::Imm(1023)); // non-negative
        let d = fb.div(Operand::Reg(m), Operand::Imm(4));
        let r = fb.rem(Operand::Reg(m), Operand::Imm(16));
        let s = fb.add(Operand::Reg(d), Operand::Reg(r));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        assert!(Strength.run(&mut f));
        assert_eq!(f.block(f.entry).insts[1].op, Opcode::Shr);
        assert_eq!(f.block(f.entry).insts[2].op, Opcode::And);
        assert_eq!(f.block(f.entry).insts[2].b, Some(Operand::Imm(15)));
    }

    #[test]
    fn non_power_of_two_untouched() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.mul(Operand::Reg(fb.param(0)), Operand::Imm(6));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();
        assert!(!Strength.run(&mut f));
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                Strength.run(f);
            },
            0..60,
        );
    }

    #[test]
    fn negative_inputs_exercised_directly() {
        use chf_sim::functional::{run, RunConfig};
        // mul by power of two must agree for negatives (wrapping shl).
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.mul(Operand::Reg(fb.param(0)), Operand::Imm(16));
        fb.ret(Some(Operand::Reg(x)));
        let f0 = fb.build().unwrap();
        let mut f1 = f0.clone();
        Strength.run(&mut f1);
        for v in [-5, -1, 0, 3, i64::MAX / 8] {
            let a = run(&f0, &[v], &[], &RunConfig::default()).unwrap().ret;
            let b = run(&f1, &[v], &[], &RunConfig::default()).unwrap().ret;
            assert_eq!(a, b, "v = {v}");
        }
    }
}
