//! Structural IR verifier.
//!
//! Run after every transformation in debug builds and throughout the test
//! suite. Catches dangling edges, malformed exit sets, register-space
//! violations and instructions missing a required operand — the classes of
//! bugs CFG surgery (tail/head duplication) is most prone to. Both
//! simulators run [`verify`] when they decode a function and refuse one
//! that fails it.

use crate::block::{Block, ExitTarget};
use crate::function::Function;
use crate::ids::BlockId;
use crate::instr::Opcode;
use std::fmt;

/// A structural invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A block has no exits at all.
    NoExits(BlockId),
    /// The final exit of a block is predicated, so the exit set may not be
    /// total.
    NoDefaultExit(BlockId),
    /// A predicated exit appears after the unpredicated default.
    ExitAfterDefault(BlockId),
    /// An exit targets a removed or never-created block.
    DanglingEdge(BlockId, BlockId),
    /// An instruction or exit references a register beyond the function's
    /// allocated register space.
    RegisterOutOfRange(BlockId, u32),
    /// An instruction lacks a required slot: the address or value of a
    /// store, or the first operand or destination of any other opcode.
    MissingOperand(BlockId),
    /// The entry block has been removed.
    MissingEntry,
    /// A block is not reachable from the entry (only reported by
    /// [`verify_full`]; mid-formation IR legitimately carries unreachable
    /// blocks until the final `remove_unreachable` sweep).
    UnreachableBlock(BlockId),
    /// A predicate register is consumed (by a predicated instruction or
    /// exit) before any definition: it is not a parameter, is not defined
    /// earlier in the same block, and has no definition in any other block.
    /// Only reported by [`verify_full`].
    PredicateUseBeforeDef(BlockId, u32),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NoExits(b) => write!(f, "block {b} has no exits"),
            VerifyError::NoDefaultExit(b) => {
                write!(f, "block {b} has no unpredicated default exit")
            }
            VerifyError::ExitAfterDefault(b) => {
                write!(f, "block {b} has exits after the default exit")
            }
            VerifyError::DanglingEdge(b, t) => {
                write!(f, "block {b} targets nonexistent block {t}")
            }
            VerifyError::RegisterOutOfRange(b, r) => {
                write!(f, "block {b} references unallocated register r{r}")
            }
            VerifyError::MissingOperand(b) => {
                write!(f, "block {b} has an instruction missing a required operand")
            }
            VerifyError::MissingEntry => write!(f, "entry block does not exist"),
            VerifyError::UnreachableBlock(b) => {
                write!(f, "block {b} is unreachable from the entry")
            }
            VerifyError::PredicateUseBeforeDef(b, r) => {
                write!(
                    f,
                    "block {b} consumes predicate register r{r} before any definition"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check all structural invariants of `f`.
///
/// # Errors
/// Returns the first violation found, in block-id order.
pub fn verify(f: &Function) -> Result<(), VerifyError> {
    if !f.contains_block(f.entry) {
        return Err(VerifyError::MissingEntry);
    }
    for (id, blk) in f.blocks() {
        check_block(f, id, blk)?;
    }
    Ok(())
}

/// The checks of [`verify`] on one block.
fn check_block(f: &Function, id: BlockId, blk: &Block) -> Result<(), VerifyError> {
    let nregs = f.reg_count();
    if blk.exits.is_empty() {
        return Err(VerifyError::NoExits(id));
    }
    let last = blk.exits.len() - 1;
    if blk.exits[last].pred.is_some() {
        return Err(VerifyError::NoDefaultExit(id));
    }
    for (i, e) in blk.exits.iter().enumerate() {
        if e.pred.is_none() && i != last {
            return Err(VerifyError::ExitAfterDefault(id));
        }
        if let ExitTarget::Block(t) = e.target {
            if !f.contains_block(t) {
                return Err(VerifyError::DanglingEdge(id, t));
            }
        }
        if let Some(p) = e.pred {
            if p.reg.0 >= nregs {
                return Err(VerifyError::RegisterOutOfRange(id, p.reg.0));
            }
        }
        if let ExitTarget::Return(Some(op)) = e.target {
            if let Some(r) = op.as_reg() {
                if r.0 >= nregs {
                    return Err(VerifyError::RegisterOutOfRange(id, r.0));
                }
            }
        }
    }
    for inst in &blk.insts {
        let complete = match inst.op {
            Opcode::Store => inst.a.is_some() && inst.b.is_some(),
            _ => inst.a.is_some() && inst.dst.is_some(),
        };
        if !complete {
            return Err(VerifyError::MissingOperand(id));
        }
        for r in inst.uses().chain(inst.def()) {
            if r.0 >= nregs {
                return Err(VerifyError::RegisterOutOfRange(id, r.0));
            }
        }
    }
    Ok(())
}

/// What [`verify_changed`] knows of the last function state it saw pass.
#[derive(Clone, Debug, Default)]
pub struct VerifyMemo {
    /// Per slot, its version then.
    versions: Vec<u64>,
    /// Per slot: whether it held a block then.
    live: Vec<bool>,
    /// The register count then.
    nregs: u32,
}

/// [`verify`], checking again only what changed since the last state of
/// `f` (or of any function sharing its block versions) that `memo` saw
/// pass. Returns exactly what `verify(f)` returns.
///
/// `verify` is a check of the entry plus one check per block, and a
/// block's check reads only its own content, the register count and
/// whether its targets are live. A block whose version did not move since
/// the memo's state passed then, so it passes now unless the register count
/// fell or one of its targets went from a block to a hole. So this checks:
/// * every block whose version moved;
/// * every exit, for a dangling edge, when some slot went from a block to
///   a hole (or was truncated away);
/// * every block, when the register count fell below the memo's.
///
/// On any finding it returns `verify(f)`, which reports the first
/// violation in block order, and leaves the memo as it was. On success the
/// memo records `f`.
pub fn verify_changed(f: &Function, memo: &mut VerifyMemo) -> Result<(), VerifyError> {
    let result = verify_changed_unchecked(f, memo);
    debug_assert_eq!(result, verify(f), "verify_changed disagrees with verify");
    result
}

fn verify_changed_unchecked(f: &Function, memo: &mut VerifyMemo) -> Result<(), VerifyError> {
    if !f.contains_block(f.entry) {
        return Err(VerifyError::MissingEntry);
    }
    let now = f.block_versions();
    let every = f.reg_count() < memo.nregs;
    let mut lost = memo
        .live
        .get(now.len()..)
        .is_some_and(|gone| gone.contains(&true));
    for (i, &version) in now.iter().enumerate() {
        if !every && memo.versions.get(i) == Some(&version) {
            continue;
        }
        let id = BlockId(i as u32);
        match f.try_block(id) {
            Some(blk) if check_block(f, id, blk).is_err() => return verify(f),
            Some(_) => {}
            None => lost |= memo.live.get(i) == Some(&true),
        }
    }
    if lost
        && f.blocks()
            .any(|(_, blk)| blk.successors().any(|t| !f.contains_block(t)))
    {
        return verify(f);
    }
    memo.versions.clear();
    memo.versions.extend_from_slice(now);
    memo.live.clear();
    memo.live
        .extend((0..now.len()).map(|i| f.contains_block(BlockId(i as u32))));
    memo.nregs = f.reg_count();
    Ok(())
}

/// Check all structural invariants plus the whole-function properties that
/// only hold on *finished* IR: every block reachable from the entry, and
/// every predicate register defined before use.
///
/// Mid-formation IR is exempt from both — merging legitimately strands the
/// merged successor until the final `remove_unreachable` sweep — so
/// transformation passes assert [`verify`] while the chaos campaign, the
/// differential oracle, and end-of-pipeline checks assert `verify_full`.
///
/// # Errors
/// Returns the first violation found: structural errors first (in block-id
/// order), then unreachable blocks, then predicate use-before-def.
pub fn verify_full(f: &Function) -> Result<(), VerifyError> {
    verify(f)?;
    let live = crate::cfg::reachable(f);
    for id in f.block_ids() {
        if !live.contains(&id) {
            return Err(VerifyError::UnreachableBlock(id));
        }
    }
    // A predicate register use is flagged only when no definition can
    // possibly precede it: it is not a parameter, no earlier instruction in
    // the same block defines it, and no other block defines it at all (a def
    // in another block might dominate the use; the structural verifier does
    // not do full dataflow, so cross-block defs get the benefit of the
    // doubt — as does an in-block def from a previous loop iteration when
    // the register is also defined elsewhere).
    for (id, blk) in f.blocks() {
        let mut defined_here: Vec<u32> = Vec::new();
        let check = |reg: u32, defined_here: &[u32]| -> Result<(), VerifyError> {
            if reg < f.params || defined_here.contains(&reg) || defined_in_other_block(f, id, reg) {
                Ok(())
            } else {
                Err(VerifyError::PredicateUseBeforeDef(id, reg))
            }
        };
        for inst in &blk.insts {
            if let Some(p) = inst.pred {
                check(p.reg.0, &defined_here)?;
            }
            if let Some(d) = inst.def() {
                defined_here.push(d.0);
            }
        }
        for e in &blk.exits {
            if let Some(p) = e.pred {
                check(p.reg.0, &defined_here)?;
            }
        }
    }
    Ok(())
}

/// Does `reg` have a definition in any block other than `excluded`?
fn defined_in_other_block(f: &Function, excluded: BlockId, reg: u32) -> bool {
    f.blocks().any(|(id, blk)| {
        id != excluded
            && blk
                .insts
                .iter()
                .any(|i| i.def().is_some_and(|r| r.0 == reg))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, Exit};
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;
    use crate::instr::{Instr, Operand, Pred};

    fn valid_fn() -> Function {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        fb.jump(x);
        fb.switch_to(x);
        fb.ret(Some(Operand::Reg(fb.param(0))));
        fb.build_unverified()
    }

    #[test]
    fn accepts_valid_function() {
        assert_eq!(verify(&valid_fn()), Ok(()));
    }

    #[test]
    fn rejects_empty_exits() {
        let mut f = valid_fn();
        let b = f.add_block(Block::new());
        // make reachable not required by verifier; unreachable blocks are
        // still checked
        assert_eq!(verify(&f), Err(VerifyError::NoExits(b)));
    }

    #[test]
    fn rejects_missing_default() {
        let mut f = valid_fn();
        let e = f.entry;
        let t = f.block(e).exits[0].target;
        f.block_mut(e).exits[0] = Exit {
            pred: Some(Pred::on_true(Reg(0))),
            target: t,
            count: 0.0,
        };
        assert_eq!(verify(&f), Err(VerifyError::NoDefaultExit(e)));
    }

    #[test]
    fn rejects_exit_after_default() {
        let mut f = valid_fn();
        let e = f.entry;
        let existing = f.block(e).exits[0];
        f.block_mut(e).exits.push(existing);
        assert_eq!(verify(&f), Err(VerifyError::ExitAfterDefault(e)));
    }

    #[test]
    fn rejects_dangling_edge() {
        let mut f = valid_fn();
        let ghost = BlockId(99);
        f.block_mut(f.entry).retarget_exits(BlockId(1), ghost);
        let entry = f.entry;
        assert_eq!(verify(&f), Err(VerifyError::DanglingEdge(entry, ghost)));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut f = valid_fn();
        let entry = f.entry;
        f.block_mut(entry)
            .insts
            .push(Instr::mov(Reg(500), Operand::Imm(1)));
        assert_eq!(verify(&f), Err(VerifyError::RegisterOutOfRange(entry, 500)));
    }

    #[test]
    fn rejects_missing_operand_or_destination() {
        let mut f = valid_fn();
        let entry = f.entry;
        f.block_mut(entry)
            .insts
            .push(Instr::add(Reg(0), Operand::Imm(1), Operand::Imm(2)));
        assert_eq!(verify(&f), Ok(()));
        f.block_mut(entry).insts[0].dst = None;
        assert_eq!(verify(&f), Err(VerifyError::MissingOperand(entry)));
        f.block_mut(entry).insts[0] = Instr::store(Operand::Imm(1), Operand::Imm(2));
        assert_eq!(verify(&f), Ok(()));
        f.block_mut(entry).insts[0].b = None;
        assert_eq!(verify(&f), Err(VerifyError::MissingOperand(entry)));
    }

    #[test]
    fn rejects_missing_entry() {
        let mut f = valid_fn();
        // `remove_block` refuses to drop the entry, so simulate the
        // corruption directly: point the entry at a never-created slot.
        f.entry = BlockId(99);
        assert_eq!(verify(&f), Err(VerifyError::MissingEntry));
    }

    #[test]
    fn rejects_predicated_return_register_out_of_range() {
        let mut f = valid_fn();
        let e = f.entry;
        let t = f.block(e).exits[0].target;
        f.block_mut(e).exits.insert(
            0,
            Exit {
                pred: Some(Pred::on_true(Reg(700))),
                target: t,
                count: 0.0,
            },
        );
        assert_eq!(verify(&f), Err(VerifyError::RegisterOutOfRange(e, 700)));
    }

    #[test]
    fn full_accepts_valid_function() {
        assert_eq!(verify_full(&valid_fn()), Ok(()));
    }

    #[test]
    fn full_rejects_unreachable_block() {
        let mut f = valid_fn();
        // A structurally well-formed block (has a default exit) that nothing
        // jumps to: plain verify accepts it, verify_full does not.
        let mut blk = Block::new();
        blk.exits.push(Exit {
            pred: None,
            target: ExitTarget::Return(None),
            count: 0.0,
        });
        let b = f.add_block(blk);
        assert_eq!(verify(&f), Ok(()));
        assert_eq!(verify_full(&f), Err(VerifyError::UnreachableBlock(b)));
    }

    #[test]
    fn full_rejects_predicate_use_before_def() {
        let mut f = valid_fn();
        let e = f.entry;
        // Predicate the entry's jump on a register that is neither a
        // parameter nor defined anywhere; append a default so the exit set
        // stays total.
        let t = f.block(e).exits[0].target;
        let ghost = f.new_reg();
        f.block_mut(e).exits.insert(
            0,
            Exit {
                pred: Some(Pred::on_true(ghost)),
                target: t,
                count: 0.0,
            },
        );
        assert_eq!(verify(&f), Ok(()));
        assert_eq!(
            verify_full(&f),
            Err(VerifyError::PredicateUseBeforeDef(e, ghost.0))
        );
    }

    #[test]
    fn full_rejects_predicated_inst_before_def() {
        let mut f = valid_fn();
        let e = f.entry;
        let p = f.new_reg();
        let dst = f.new_reg();
        // use p (predicated mov) before its only def, with no def elsewhere
        let mut guarded = Instr::mov(dst, Operand::Imm(1));
        guarded.pred = Some(Pred::on_true(p));
        f.block_mut(e).insts.push(guarded);
        f.block_mut(e).insts.push(Instr::mov(p, Operand::Imm(0)));
        assert_eq!(
            verify_full(&f),
            Err(VerifyError::PredicateUseBeforeDef(e, p.0))
        );
    }

    #[test]
    fn full_accepts_cross_block_predicate_def() {
        let mut f = valid_fn();
        let e = f.entry;
        let p = f.new_reg();
        // def in the entry, predicated use in the successor: fine.
        f.block_mut(e).insts.push(Instr::mov(p, Operand::Imm(1)));
        let succ = BlockId(1);
        let dst = f.new_reg();
        let mut guarded = Instr::mov(dst, Operand::Imm(2));
        guarded.pred = Some(Pred::on_true(p));
        f.block_mut(succ).insts.insert(0, guarded);
        assert_eq!(verify_full(&f), Ok(()));
    }

    #[test]
    fn full_accepts_in_block_def_before_use() {
        let mut f = valid_fn();
        let e = f.entry;
        let p = f.new_reg();
        f.block_mut(e).insts.push(Instr::mov(p, Operand::Imm(1)));
        let t = f.block(e).exits[0].target;
        f.block_mut(e).exits.insert(
            0,
            Exit {
                pred: Some(Pred::on_true(p)),
                target: t,
                count: 0.0,
            },
        );
        assert_eq!(verify_full(&f), Ok(()));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = VerifyError::DanglingEdge(BlockId(1), BlockId(9));
        assert!(e.to_string().contains("B1"));
        assert!(e.to_string().contains("B9"));
        let u = VerifyError::UnreachableBlock(BlockId(4));
        assert!(u.to_string().contains("B4"));
        assert!(u.to_string().contains("unreachable"));
        let p = VerifyError::PredicateUseBeforeDef(BlockId(2), 7);
        assert!(p.to_string().contains("B2"));
        assert!(p.to_string().contains("r7"));
    }

    #[test]
    fn changed_only_check_reports_an_untouched_block_whose_target_went() {
        let mut f = valid_fn();
        let x = BlockId(1);
        let mut blk = Block::new();
        blk.exits.push(Exit::jump(x));
        let y = f.add_block(blk);
        let mut memo = VerifyMemo::default();
        assert_eq!(verify_changed(&f, &mut memo), Ok(()));
        assert_eq!(verify_changed(&f, &mut memo), Ok(()));
        // `y` keeps its version, but its target becomes a hole.
        let e = f.entry;
        f.block_mut(e).exits[0] = Exit::ret(None);
        f.remove_block(x);
        assert_eq!(
            verify_changed(&f, &mut memo),
            Err(VerifyError::DanglingEdge(y, x))
        );
        // A failure leaves the memo as it was.
        f.block_mut(y).exits[0] = Exit::ret(None);
        assert_eq!(verify_changed(&f, &mut memo), Ok(()));
    }

    #[test]
    fn changed_only_check_sees_a_register_count_rewound_under_an_untouched_block() {
        let mut f = valid_fn();
        let x = BlockId(1);
        let snap = f.snapshot_blocks([f.entry]);
        let r = f.new_reg();
        // Against the snapshot's contract, a block outside it names the
        // register the restore takes back.
        f.block_mut(x).insts.push(Instr::mov(r, Operand::Imm(1)));
        let mut memo = VerifyMemo::default();
        assert_eq!(verify_changed(&f, &mut memo), Ok(()));
        f.restore_blocks(snap);
        assert_eq!(
            verify_changed(&f, &mut memo),
            Err(VerifyError::RegisterOutOfRange(x, r.0))
        );
    }

    #[test]
    fn changed_only_check_reports_a_removed_entry() {
        let mut f = valid_fn();
        let mut memo = VerifyMemo::default();
        assert_eq!(verify_changed(&f, &mut memo), Ok(()));
        let (e, x) = (f.entry, BlockId(1));
        f.entry = x;
        f.remove_block(e);
        f.entry = e;
        assert_eq!(
            verify_changed(&f, &mut memo),
            Err(VerifyError::MissingEntry)
        );
    }
}
