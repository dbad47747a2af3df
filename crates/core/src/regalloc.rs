//! Register allocation (paper §6).
//!
//! The Scale flow runs register allocation after hyperblock formation; if
//! spill code pushes a block over the structural constraints, the compiler
//! reverse-if-converts the block and repeats. TRIPS has 128 architectural
//! registers in 4 banks, and "Scale rarely needs to split blocks in this
//! manner, both because TRIPS has a large number of architectural registers
//! and because the compiler attempts to avoid inserting spill code in
//! nearly full hyperblocks."
//!
//! This module models that stage faithfully at the IR level: it measures
//! register pressure (the maximum number of simultaneously live *cross-block*
//! values), and when pressure exceeds the register file, it spills the
//! longest-lived values to a dedicated spill area in memory — a store after
//! every definition and a load before each block's first use. Block-local
//! values never need architectural registers on TRIPS (direct instruction
//! communication), so only values live across block boundaries count
//! against the register file.

use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::fxhash::{FxHashMap, FxHashSet};
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::{Instr, Operand};
use chf_ir::liveness::Liveness;

/// Register-file shape of the target.
#[derive(Clone, Debug)]
pub struct RegFileSpec {
    /// Total architectural registers (TRIPS: 128).
    pub num_regs: usize,
    /// Base address of the compiler-reserved spill area. Negative by
    /// convention so it cannot collide with workload data.
    pub spill_base: i64,
}

impl RegFileSpec {
    /// The TRIPS register file: 128 registers.
    pub fn trips() -> Self {
        RegFileSpec {
            num_regs: 128,
            spill_base: -1_000_000,
        }
    }
}

/// What allocation did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Maximum cross-block register pressure before spilling.
    pub max_pressure: usize,
    /// Virtual registers spilled to memory.
    pub spilled: usize,
    /// Spill store/load instructions inserted.
    pub spill_code: usize,
}

/// Cross-block register pressure: for each block boundary, the number of
/// live values. Returns the maximum and, for spill-candidate selection, the
/// number of boundaries at which each register is live.
fn pressure(f: &Function, lv: &Liveness) -> (usize, FxHashMap<Reg, usize>) {
    let mut max_pressure = 0;
    let mut liveness_span: FxHashMap<Reg, usize> = FxHashMap::default();
    for b in f.block_ids() {
        let out = lv.live_out(b);
        max_pressure = max_pressure.max(out.len());
        for r in out.iter() {
            *liveness_span.entry(r).or_insert(0) += 1;
        }
    }
    (max_pressure, liveness_span)
}

/// Spill register `r` of `f` to `slot`: store `r` after every unpredicated
/// or predicated definition, and reload it at the top of every block that
/// has `r` live-in and uses it. Parameters are additionally stored at the
/// function entry.
fn spill_register(f: &mut Function, r: Reg, slot: i64, lv: &Liveness) -> usize {
    let mut inserted = 0;
    let ids: Vec<BlockId> = f.block_ids().collect();
    let is_param = r.0 < f.params;
    for b in &ids {
        let needs_reload = lv.live_in(*b).contains(&r)
            && f.block(*b).insts.iter().any(|i| i.uses().any(|u| u == r))
            || f.block(*b).exits.iter().any(|e| {
                e.pred.map(|p| p.reg == r).unwrap_or(false)
                    || matches!(e.target, ExitTarget::Return(Some(Operand::Reg(x))) if x == r)
            }) && lv.live_in(*b).contains(&r);
        let blk = f.block_mut(*b);
        let mut new_insts = Vec::with_capacity(blk.insts.len() + 4);
        if needs_reload {
            new_insts.push(Instr::load(r, Operand::Imm(slot)));
            inserted += 1;
        }
        for inst in blk.insts.drain(..) {
            let defines = inst.def() == Some(r);
            let pred = inst.pred;
            new_insts.push(inst);
            if defines {
                // The spill store executes under the same predicate as the
                // definition: a nullified def must not overwrite the slot.
                let mut st = Instr::store(Operand::Imm(slot), Operand::Reg(r));
                st.pred = pred;
                new_insts.push(st);
                inserted += 1;
            }
        }
        blk.insts = new_insts;
    }
    if is_param {
        let entry = f.entry;
        f.block_mut(entry)
            .insts
            .insert(0, Instr::store(Operand::Imm(slot), Operand::Reg(r)));
        inserted += 1;
    }
    inserted
}

/// Run the allocation stage: measure pressure and spill until the
/// cross-block live set fits in `spec.num_regs` everywhere.
///
/// Returns the statistics; the function is modified in place. Spilling
/// preserves observable behaviour (enforced by this crate's tests).
pub fn allocate_registers(f: &mut Function, spec: &RegFileSpec) -> AllocStats {
    let mut stats = AllocStats::default();
    let mut next_slot = spec.spill_base;
    let mut spilled: FxHashSet<Reg> = FxHashSet::default();

    loop {
        let lv = Liveness::compute(f);
        let (max_pressure, spans) = pressure(f, &lv);
        if stats.spilled == 0 {
            stats.max_pressure = max_pressure;
        }
        if max_pressure <= spec.num_regs {
            return stats;
        }
        // Spill the widest-span register not yet spilled (classic
        // furthest-use approximation at block granularity).
        let Some((victim, _)) = spans
            .into_iter()
            .filter(|(r, _)| !spilled.contains(r))
            .max_by_key(|(r, span)| (*span, std::cmp::Reverse(r.0)))
        else {
            return stats; // nothing left to spill
        };
        let lv = Liveness::compute(f);
        stats.spill_code += spill_register(f, victim, next_slot, &lv);
        stats.spilled += 1;
        spilled.insert(victim);
        next_slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::verify::verify;
    use chf_sim::functional::{run, RunConfig};

    fn digest(f: &Function, args: &[i64]) -> (Option<i64>, Vec<(i64, i64)>) {
        let r = run(f, args, &[], &RunConfig::default()).unwrap();
        // Exclude the spill area from the digest: it is compiler-private.
        let (ret, mem) = r.digest();
        (ret, mem.into_iter().filter(|(a, _)| *a >= 0).collect())
    }

    /// A function with `n` values all live across a block boundary.
    fn high_pressure(n: usize) -> Function {
        let mut fb = FunctionBuilder::new("hp", 1);
        let e = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let vals: Vec<_> = (0..n)
            .map(|k| fb.add(Operand::Reg(fb.param(0)), Operand::Imm(k as i64)))
            .collect();
        fb.jump(x);
        fb.switch_to(x);
        let mut acc = fb.mov(Operand::Imm(0));
        for v in vals {
            acc = fb.xor(Operand::Reg(acc), Operand::Reg(v));
        }
        fb.ret(Some(Operand::Reg(acc)));
        fb.build().unwrap()
    }

    #[test]
    fn no_spills_under_pressure_limit() {
        let mut f = high_pressure(10);
        let stats = allocate_registers(&mut f, &RegFileSpec::trips());
        assert_eq!(stats.spilled, 0);
        assert!(stats.max_pressure >= 10);
    }

    #[test]
    fn spills_when_pressure_exceeds_registers() {
        let mut f = high_pressure(20);
        let orig = f.clone();
        let spec = RegFileSpec {
            num_regs: 12,
            spill_base: -1_000_000,
        };
        let stats = allocate_registers(&mut f, &spec);
        assert!(stats.spilled > 0, "{stats:?}");
        assert!(stats.spill_code >= stats.spilled * 2);
        verify(&f).unwrap();
        for a in [0, 3, -9] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
        // Post-allocation pressure fits.
        let lv = Liveness::compute(&f);
        let (p, _) = pressure(&f, &lv);
        assert!(p <= spec.num_regs, "residual pressure {p}");
    }

    #[test]
    fn spilling_predicated_defs_preserves_behaviour() {
        use chf_ir::instr::Pred;
        // A predicated def live across blocks: the spill store must carry
        // the same predicate.
        let mut fb = FunctionBuilder::new("pred", 2);
        let e = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let v = fb.mov(Operand::Imm(100));
        let c = fb.cmp_gt(Operand::Reg(fb.param(0)), Operand::Imm(0));
        fb.push(Instr::mov(v, Operand::Imm(200)).predicated(Pred::on_true(c)));
        // Lots of other live values to force v's spill.
        let vals: Vec<_> = (0..16)
            .map(|k| fb.add(Operand::Reg(fb.param(1)), Operand::Imm(k)))
            .collect();
        fb.jump(x);
        fb.switch_to(x);
        let mut acc = fb.mov(Operand::Reg(v));
        for w in vals {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(w));
        }
        fb.ret(Some(Operand::Reg(acc)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();
        let spec = RegFileSpec {
            num_regs: 8,
            spill_base: -1_000_000,
        };
        let stats = allocate_registers(&mut f, &spec);
        assert!(stats.spilled > 0);
        verify(&f).unwrap();
        for args in [[1, 2], [-1, 2]] {
            assert_eq!(digest(&f, &args), digest(&orig, &args), "{args:?}");
        }
    }

    #[test]
    fn formed_workloads_fit_trips_register_file() {
        // The paper's observation: with 128 registers, spills are rare.
        for w in chf_workloads_smoke() {
            let mut f = w;
            let stats = allocate_registers(&mut f, &RegFileSpec::trips());
            assert_eq!(stats.spilled, 0, "unexpected spill");
        }
    }

    /// A couple of small, formed functions standing in for real workloads
    /// (the full-suite check lives in the workspace integration tests).
    fn chf_workloads_smoke() -> Vec<Function> {
        use chf_ir::testgen::{generate, GenConfig};
        (0..5).map(|s| generate(s, &GenConfig::default())).collect()
    }
}
