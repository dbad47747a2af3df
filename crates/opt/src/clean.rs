//! A memo of blocks the block-local kernels have already left unchanged,
//! and the analyses commit-time optimization carries from run to run.
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
//! Content is the key. Each entry also records the block's
//! [version](chf_ir::function::Function::block_version), and equal versions
//! mean equal content, so the full `==` comparison runs only when the
//! version moved. No hash is involved, so no collision can skip a block
//! that changed.
//!
//! The memo also owns a [`Liveness`] solution, which
//! [`Dce`](crate::dce::Dce) refreshes instead of recomputing and formation
//! trials clone, and the DCE sweeps that removed nothing.

use chf_ir::block::Block;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::liveness::{Liveness, RegSetBuf};

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

/// A block content the kernels in `mask` last left unchanged, and the
/// version of the slot when it was last seen with that content.
#[derive(Debug)]
struct Seen {
    version: u64,
    block: Block,
    mask: u8,
}

/// Per block: a copy of its content, and a bitmask of the kernels that last
/// returned `false` on exactly that content. Also the liveness solution
/// and DCE sweep memo of [`Dce::run_cached`](crate::Pass::run_cached).
///
/// Pass one memo to [`Pass::run_cached`](crate::Pass::run_cached) for as
/// long as it is useful; it stays sound whatever happens to the function in
/// between, because a block whose content differs from its copy is simply
/// run again.
#[derive(Debug, Default)]
pub struct CleanBlocks {
    seen: Vec<Option<Seen>>,
    liveness: Liveness,
    /// Per slot: the version and `live_out` of the block's last DCE sweep
    /// that removed nothing; version 0 (never a block's) when there is none.
    swept: Vec<(u64, RegSetBuf)>,
}

impl CleanBlocks {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memo's liveness solution, [refreshed](Liveness::refresh) to
    /// describe `f`.
    pub fn liveness(&mut self, f: &Function) -> &Liveness {
        self.liveness.refresh(f);
        &self.liveness
    }

    /// The refreshed liveness solution and the sweep memo, for DCE.
    pub(crate) fn dce_state(&mut self, f: &Function) -> (&Liveness, &mut Vec<(u64, RegSetBuf)>) {
        self.liveness.refresh(f);
        (&self.liveness, &mut self.swept)
    }

    /// Run `kernel` over every block of `f`, skipping the blocks it is
    /// known to leave unchanged. Returns whether any block changed, exactly
    /// as running the kernel on every block would. Borrows a block mutably
    /// only to run the kernel on it.
    pub(crate) fn run(&mut self, f: &mut Function, kernel: Kernel) -> bool {
        let bit = kernel.bit();
        let mut changed = false;
        for i in 0..f.block_slots() {
            let b = BlockId(i as u32);
            let Some(blk) = f.try_block(b) else { continue };
            if i >= self.seen.len() {
                self.seen.resize_with(i + 1, || None);
            }
            let slot = &mut self.seen[i];
            let version = f.block_version(b);
            let known = match slot {
                Some(seen) if seen.version == version => {
                    debug_assert!(seen.block == *blk, "{b} changed but kept its version");
                    true
                }
                Some(seen) if seen.block == *blk => {
                    seen.version = version;
                    true
                }
                _ => false,
            };
            if known && slot.as_ref().is_some_and(|seen| seen.mask & bit != 0) {
                continue;
            }
            let blk = f.block_mut(b);
            let before = cfg!(debug_assertions).then(|| blk.clone());
            if kernel.apply(blk) {
                changed = true;
                continue;
            }
            debug_assert!(
                before.is_none_or(|b| b == *blk),
                "{kernel:?} rewrote a block but reported no change"
            );
            let version = f.block_version(b);
            match slot {
                Some(seen) if known => {
                    seen.version = version;
                    seen.mask |= bit;
                }
                _ => {
                    *slot = Some(Seen {
                        version,
                        block: f.block(b).clone(),
                        mask: bit,
                    })
                }
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
            clean.seen[e.index()].as_ref().unwrap().mask,
            Kernel::Strength.bit()
        );
        // Another kernel on the same content adds its bit to the entry.
        assert!(!clean.run(&mut f, Kernel::ConstFold));
        let both = Kernel::Strength.bit() | Kernel::ConstFold.bit();
        assert_eq!(clean.seen[e.index()].as_ref().unwrap().mask, both);

        // `mul x, 3` → `mul x, 8`: strength reduction applies again.
        f.block_mut(e).insts[0].b = Some(Operand::Imm(8));
        assert!(clean.run(&mut f, Kernel::Strength));
        assert_eq!(f.block(e).insts[0].op, Opcode::Shl);
    }
}
