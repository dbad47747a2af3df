//! Fanout insertion (paper §6).
//!
//! TRIPS instructions name their consumers directly (target form), and each
//! instruction encodes a small fixed number of targets. A value with more
//! consumers than targets needs a tree of `mov` (fanout) instructions to
//! replicate it. Scale inserts these after register allocation, which is
//! why hyperblock formation must leave size headroom
//! ([`crate::constraints::BlockConstraints::headroom_percent`]).
//!
//! [`insert_fanout`] rewrites each block so no value feeds more than
//! `max_targets` in-block consumers, building forwarding chains of `mov`s,
//! and returns how many instructions were added — validating the headroom
//! estimate.

use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::Reg;
use chf_ir::instr::{Instr, Operand};

/// Fanout statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// `mov` instructions inserted.
    pub movs_inserted: usize,
    /// Maximum consumer count observed for a single definition.
    pub max_fanout: usize,
}

/// Number of uses of `r` by one instruction (operands and predicate).
fn uses_of(inst: &Instr, r: Reg) -> usize {
    inst.uses().filter(|u| *u == r).count()
}

/// Consumers of the value defined at `idx` (register `d`): the instruction
/// indices using it before any redefinition, plus the number of *tail*
/// consumers (exit predicates, return operands, and — if no redefinition
/// shadows it — one register-write slot for a potentially live-out value).
/// `live_out`: whether `d` is live out of the block (it then also occupies
/// one register-file write target that cannot be rerouted to a copy).
fn consumers_of(
    blk: &chf_ir::block::Block,
    idx: usize,
    d: Reg,
    live_out: bool,
) -> (Vec<usize>, usize, usize) {
    let mut inst_uses = Vec::new();
    let mut shadowed = false;
    for (j, inst) in blk.insts.iter().enumerate().skip(idx + 1) {
        for _ in 0..uses_of(inst, d) {
            inst_uses.push(j);
        }
        if inst.def() == Some(d) {
            shadowed = true;
            break;
        }
    }
    let mut exit_uses = 0;
    let mut write_slot = 0;
    if !shadowed {
        for e in &blk.exits {
            if e.pred.map(|p| p.reg == d).unwrap_or(false) {
                exit_uses += 1;
            }
            if matches!(e.target, ExitTarget::Return(Some(Operand::Reg(x))) if x == d) {
                exit_uses += 1;
            }
        }
        if live_out {
            write_slot = 1;
        }
    }
    (inst_uses, exit_uses, write_slot)
}

/// Rewrite uses of `from` to `to` in instructions `range` (stopping at a
/// redefinition of `from`) and in the exits if reached, leaving the first
/// `skip_exit_uses` exit reads on the original register.
fn retarget_uses(
    blk: &mut chf_ir::block::Block,
    start: usize,
    from: Reg,
    to: Reg,
    skip_exit_uses: usize,
) {
    let mut hit_redef = false;
    for inst in blk.insts[start..].iter_mut() {
        // Remap *uses* only — a redefinition keeps its destination (and its
        // operands still read the old value being forwarded).
        for o in [inst.a.as_mut(), inst.b.as_mut()].into_iter().flatten() {
            if let Operand::Reg(r) = o {
                if *r == from {
                    *r = to;
                }
            }
        }
        if let Some(p) = inst.pred.as_mut() {
            if p.reg == from {
                p.reg = to;
            }
        }
        if inst.def() == Some(from) {
            hit_redef = true;
            break;
        }
    }
    if !hit_redef {
        let mut skipped = 0;
        for e in blk.exits.iter_mut() {
            if let Some(p) = e.pred.as_mut() {
                if p.reg == from {
                    if skipped < skip_exit_uses {
                        skipped += 1;
                    } else {
                        p.reg = to;
                    }
                }
            }
            if let ExitTarget::Return(Some(Operand::Reg(x))) = &mut e.target {
                if *x == from {
                    if skipped < skip_exit_uses {
                        skipped += 1;
                    } else {
                        *x = to;
                    }
                }
            }
        }
    }
}

/// Insert fanout chains so that no definition feeds more than `max_targets`
/// consumers within its block. Returns statistics; behaviour is preserved
/// (pure copies).
///
/// # Panics
/// Panics if `max_targets < 2` (a chain node must forward at least one
/// consumer besides the link to the next node).
pub fn insert_fanout(f: &mut Function, max_targets: usize) -> FanoutStats {
    assert!(max_targets >= 2, "fanout chains need at least two targets");
    let mut stats = FanoutStats::default();
    let liveness = chf_ir::liveness::Liveness::compute(f);
    let ids: Vec<_> = f.block_ids().collect();

    for b in ids {
        // Pre-pass: an instruction reading the same register several times
        // (e.g. `sub r4, r4`, or a predicate matching an operand) forms an
        // atomic consumer group the forwarding chain cannot split; route
        // the extra reads through copies first so every instruction
        // consumes each value at most once.
        let mut j = 0;
        while j < f.block(b).insts.len() {
            let multi: Vec<Reg> = {
                let inst = &f.block(b).insts[j];
                let mut seen = chf_ir::fxhash::FxHashSet::default();
                let mut dup = Vec::new();
                for u in inst.uses() {
                    if !seen.insert(u) && !dup.contains(&u) {
                        dup.push(u);
                    }
                }
                dup
            };
            for r in multi {
                while uses_of(&f.block(b).insts[j], r) > 1 {
                    let copy = f.new_reg();
                    {
                        let inst = &mut f.block_mut(b).insts[j];
                        // Replace one occurrence: prefer the predicate,
                        // then the second operand.
                        if inst.pred.map(|p| p.reg == r).unwrap_or(false) {
                            inst.pred.as_mut().expect("checked").reg = copy;
                        } else if inst.b == Some(Operand::Reg(r)) {
                            inst.b = Some(Operand::Reg(copy));
                        } else {
                            inst.a = Some(Operand::Reg(copy));
                        }
                    }
                    f.block_mut(b)
                        .insts
                        .insert(j, Instr::mov(copy, Operand::Reg(r)));
                    stats.movs_inserted += 1;
                    j += 1; // the instruction moved one slot down
                }
            }
            j += 1;
        }

        // Fresh copies are block-local, so only the pre-existing live-out
        // set matters; it is not changed by inserting movs of fresh regs.
        let live_out = liveness.live_out(b);
        let mut idx = 0;
        while idx < f.block(b).insts.len() {
            let Some(d) = f.block(b).insts[idx].def() else {
                idx += 1;
                continue;
            };
            let (inst_uses, exit_uses, write_slot) =
                consumers_of(f.block(b), idx, d, live_out.contains(&d));
            let total = inst_uses.len() + exit_uses + write_slot;
            stats.max_fanout = stats.max_fanout.max(total);

            if total > max_targets {
                // d keeps its (unreroutable) write slot, the link to the
                // copy, and as many leading uses as fit; the copy serves
                // the rest (the outer loop splits it again if needed).
                let keep = max_targets - 1 - write_slot;
                let copy = f.new_reg();
                let blk = f.block_mut(b);
                // When all instruction uses fit, d additionally keeps its
                // first few exit reads up to the budget; the rest move.
                let (split_pos, insert_at, skip_exits) = if keep < inst_uses.len() {
                    (inst_uses[keep], inst_uses[keep], 0)
                } else {
                    (blk.insts.len(), blk.insts.len(), keep - inst_uses.len())
                };
                retarget_uses(blk, split_pos, d, copy, skip_exits);
                blk.insts
                    .insert(insert_at, Instr::mov(copy, Operand::Reg(d)));
                stats.movs_inserted += 1;
            }
            idx += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::verify::verify;
    use chf_sim::functional::{run, RunConfig};

    fn digest(f: &Function, args: &[i64]) -> (Option<i64>, Vec<(i64, i64)>) {
        run(f, args, &[], &RunConfig::default()).unwrap().digest()
    }

    fn wide_consumer(n: usize) -> Function {
        let mut fb = FunctionBuilder::new("wide", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let v = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        let mut acc = fb.mov(Operand::Imm(0));
        for _ in 0..n {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(v));
        }
        fb.ret(Some(Operand::Reg(acc)));
        fb.build().unwrap()
    }

    /// Re-count the worst in-block fanout (instruction uses + exits + the
    /// register-write slot) after insertion.
    fn worst_fanout(f: &Function) -> usize {
        let liveness = chf_ir::liveness::Liveness::compute(f);
        let mut worst = 0;
        for (b, blk) in f.blocks() {
            let live_out = liveness.live_out(b);
            for (idx, inst) in blk.insts.iter().enumerate() {
                if let Some(d) = inst.def() {
                    let (uses, exits, slot) =
                        consumers_of(f.block(b), idx, d, live_out.contains(&d));
                    worst = worst.max(uses.len() + exits + slot);
                }
            }
        }
        worst
    }

    #[test]
    fn no_fanout_needed_for_narrow_use() {
        let mut f = wide_consumer(2);
        let stats = insert_fanout(&mut f, 5);
        assert_eq!(stats.movs_inserted, 0);
    }

    #[test]
    fn fanout_bounds_consumer_counts() {
        let mut f = wide_consumer(10);
        let orig = f.clone();
        let stats = insert_fanout(&mut f, 3);
        assert!(stats.movs_inserted >= 3, "{stats:?}");
        assert!(stats.max_fanout >= 10);
        verify(&f).unwrap();
        for a in [0, 5, -3] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
        assert!(
            worst_fanout(&f) <= 3,
            "residual fanout {}",
            worst_fanout(&f)
        );
    }

    #[test]
    fn fanout_converges_with_live_out_values() {
        // The value is consumed by instructions AND returned: the chain must
        // still terminate and bound the count.
        let mut fb = FunctionBuilder::new("lv", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let v = fb.add(Operand::Reg(fb.param(0)), Operand::Imm(1));
        let mut acc = fb.mov(Operand::Imm(0));
        for _ in 0..6 {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(v));
        }
        let s = fb.add(Operand::Reg(acc), Operand::Reg(v));
        fb.ret(Some(Operand::Reg(s)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();
        insert_fanout(&mut f, 2);
        verify(&f).unwrap();
        assert!(worst_fanout(&f) <= 2);
        for a in [1, -4] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]));
        }
    }

    #[test]
    fn fanout_preserves_behaviour_on_generated_programs() {
        use chf_ir::testgen::{generate, GenConfig};
        for seed in 0..25 {
            let f0 = generate(seed, &GenConfig::default());
            let mut f1 = f0.clone();
            insert_fanout(&mut f1, 2);
            verify(&f1).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(worst_fanout(&f1) <= 2, "seed {seed}");
            for args in [[3, 7], [0, 0], [-5, 2]] {
                let a = run(&f0, &args, &[], &RunConfig::default()).unwrap();
                let b = run(&f1, &args, &[], &RunConfig::default()).unwrap();
                assert_eq!(a.digest(), b.digest(), "seed {seed} args {args:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two targets")]
    fn rejects_single_target() {
        let mut f = wide_consumer(3);
        insert_fanout(&mut f, 1);
    }
}
