//! A memo of blocks the block-local kernels have already left unchanged.
//!
//! Five kernels — [`constfold::fold_block`](crate::constfold::fold_block),
//! [`strength::reduce_block`](crate::strength::reduce_block),
//! [`copyprop::propagate_block`](crate::copyprop::propagate_block),
//! [`gvn::value_number_block`](crate::gvn::value_number_block) and
//! [`predopt::optimize_block`](crate::predopt::optimize_block) — read and
//! rewrite one block and nothing else. A kernel that returned `false` (no
//! change) on some block content returns `false` on equal content again, so
//! it need not run. Convergent formation optimizes the whole function after
//! every committed merge while a merge touches only a few blocks; the memo
//! lets the untouched ones be skipped, with a byte-identical result.
//!
//! Entries compare the full block with `==`: no hash, so no collision can
//! skip a block that changed.

use chf_ir::block::Block;
use chf_ir::function::Function;

/// One of the block-local kernels the memo can skip.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kernel {
    ConstFold,
    Strength,
    CopyProp,
    Gvn,
    PredOpt,
}

impl Kernel {
    fn apply(self, blk: &mut Block) -> bool {
        match self {
            Kernel::ConstFold => crate::constfold::fold_block(blk),
            Kernel::Strength => crate::strength::reduce_block(blk),
            Kernel::CopyProp => crate::copyprop::propagate_block(blk),
            Kernel::Gvn => crate::gvn::value_number_block(blk),
            Kernel::PredOpt => crate::predopt::optimize_block(blk),
        }
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Run the kernel over every block of `f`, without a memo.
    pub(crate) fn each_block(self, f: &mut Function) -> bool {
        let mut changed = false;
        let ids: Vec<_> = f.block_ids().collect();
        for b in ids {
            changed |= self.apply(f.block_mut(b));
        }
        changed
    }
}

/// Per block: a copy of its content, and a bitmask of the kernels that last
/// returned `false` on exactly that content.
///
/// Pass one memo to [`Pass::run_cached`](crate::Pass::run_cached) for as
/// long as it is useful; it stays sound whatever happens to the function in
/// between, because a block whose content differs from its copy is simply
/// run again.
#[derive(Debug, Default)]
pub struct CleanBlocks {
    seen: Vec<Option<(Block, u8)>>,
}

impl CleanBlocks {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `kernel` over every block of `f`, skipping the blocks it is
    /// known to leave unchanged. Returns whether any block changed, exactly
    /// as running the kernel on every block would.
    pub(crate) fn run(&mut self, f: &mut Function, kernel: Kernel) -> bool {
        let bit = kernel.bit();
        let mut changed = false;
        let ids: Vec<_> = f.block_ids().collect();
        for b in ids {
            if b.index() >= self.seen.len() {
                self.seen.resize_with(b.index() + 1, || None);
            }
            let slot = &mut self.seen[b.index()];
            let blk = f.block_mut(b);
            let known = match slot {
                Some((copy, mask)) if copy == blk => Some(mask),
                _ => None,
            };
            if known.as_ref().is_some_and(|mask| **mask & bit != 0) {
                continue;
            }
            let before = cfg!(debug_assertions).then(|| blk.clone());
            if kernel.apply(blk) {
                changed = true;
                continue;
            }
            debug_assert!(
                before.is_none_or(|b| b == *blk),
                "{kernel:?} rewrote a block but reported no change"
            );
            match known {
                Some(mask) => *mask |= bit,
                None => *slot = Some((blk.clone(), bit)),
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::{Instr, Opcode, Operand};

    #[test]
    fn a_clean_block_that_is_edited_is_optimized_again() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let a = Operand::Reg(fb.param(0));
        let b = Operand::Reg(fb.param(1));
        let x = fb.add(a, b);
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();

        let mut clean = CleanBlocks::new();
        assert!(!clean.run(&mut f, Kernel::Gvn));
        assert!(!clean.run(&mut f, Kernel::Gvn), "clean");

        // A redundant `add` makes the block dirty again.
        let y = f.new_reg();
        f.block_mut(e).insts.push(Instr::add(y, a, b));
        assert!(clean.run(&mut f, Kernel::Gvn));
        assert_eq!(f.block(e).insts[1], Instr::mov(y, Operand::Reg(x)));
    }

    #[test]
    fn a_kernel_is_skipped_only_on_the_content_it_left_clean() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.mul(Operand::Reg(fb.param(0)), Operand::Imm(3));
        fb.ret(Some(Operand::Reg(x)));
        let mut f = fb.build().unwrap();

        let mut clean = CleanBlocks::new();
        assert!(!clean.run(&mut f, Kernel::Strength));
        assert_eq!(
            clean.seen[e.index()].as_ref().unwrap().1,
            Kernel::Strength.bit()
        );
        // Another kernel on the same content adds its bit to the entry.
        assert!(!clean.run(&mut f, Kernel::ConstFold));
        let both = Kernel::Strength.bit() | Kernel::ConstFold.bit();
        assert_eq!(clean.seen[e.index()].as_ref().unwrap().1, both);

        // `mul x, 3` → `mul x, 8`: strength reduction applies again.
        f.block_mut(e).insts[0].b = Some(Operand::Imm(8));
        assert!(clean.run(&mut f, Kernel::Strength));
        assert_eq!(f.block(e).insts[0].op, Opcode::Shl);
    }
}
