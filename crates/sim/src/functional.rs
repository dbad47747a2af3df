//! Functional simulator: executes IR, profiles it, and checks invariants.
//!
//! Semantics:
//!
//! * Registers are 64-bit signed integers; `r0..params` hold the arguments,
//!   all other registers start at 0 (reads of never-written registers can be
//!   flagged with [`RunConfig::check_uninit`]).
//! * Memory is a sparse word-addressed array of `i64`.
//! * Within a block, instructions execute in program order; a predicated
//!   instruction executes only if its predicate register's truth value
//!   matches the required polarity *at that point*.
//! * After the instructions, the exits are evaluated in order; the first
//!   whose predicate holds fires. The verifier guarantees the last exit is
//!   unpredicated, so some exit always fires.
//!
//! Division and remainder by zero produce 0, and all arithmetic wraps, so
//! execution is total: the only runtime errors are resource exhaustion and
//! (optionally) uninitialized reads.
//!
//! # Dispatch over the lowered form
//!
//! The interpreter executes the pre-decoded [`LoweredProgram`]: operands are
//! flat register indices with immediates pre-substituted, profile counters
//! are dense arrays indexed by block/exit position (converted to the sparse
//! [`ProfileData`] maps once at the end), and loop trip tracking walks the
//! precomputed dense loop bitsets instead of hash sets. The uninitialized-
//! read check is a const-generic parameter, so the default no-check path
//! compiles with zero residue of it. Decoding verifies the function once,
//! so the dispatch loop runs only verified IR: it never bounds-checks a
//! register, never meets a missing operand, and always finds a firing exit
//! (a malformed function is refused with [`SimError::Malformed`] before
//! its first block).
//!
//! [`run`] lowers internally per call; callers that execute the same
//! function repeatedly should lower once and use [`run_lowered`].

use crate::lower::{LExitKind, LKind, LoweredProgram, TripInfo, NONE};
use chf_ir::function::Function;
use chf_ir::fxhash::FxHashMap;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::Opcode;
use chf_ir::profile::ProfileData;
use chf_ir::verify::VerifyError;
use std::fmt;

/// Configuration for a functional run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Maximum number of blocks to execute before aborting.
    pub max_blocks: u64,
    /// Error on reads of registers that were never written (and are not
    /// parameters). Catches compiler bugs that reorder defs past uses.
    pub check_uninit: bool,
    /// Collect loop trip-count histograms (requires a loop analysis pass on
    /// entry, so slightly slower).
    pub collect_trip_counts: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_blocks: 20_000_000,
            check_uninit: false,
            collect_trip_counts: true,
        }
    }
}

impl RunConfig {
    /// Strict configuration used by the test suite: uninitialized reads are
    /// errors.
    pub fn strict() -> Self {
        RunConfig {
            check_uninit: true,
            ..RunConfig::default()
        }
    }
}

/// Runtime error during simulation (functional or timing).
///
/// The first two variants are *input* errors — legal programs that merely
/// run too long or read uninitialized state — and the only errors execution
/// can raise. The simulators run verified IR only: a function that fails
/// [`chf_ir::verify::verify`] is refused with [`SimError::Malformed`] when
/// it is decoded, before any block executes, so broken input surfaces as an
/// `Err` the caller can classify, never as a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The block budget was exhausted (probable infinite loop).
    OutOfFuel {
        /// Number of blocks that had executed when the budget ran out.
        executed: u64,
    },
    /// A register was read before any write (only with
    /// [`RunConfig::check_uninit`]).
    UninitializedRead {
        /// The block in which the read occurred.
        block: BlockId,
        /// The offending register.
        reg: Reg,
    },
    /// The function failed verification; nothing was executed.
    Malformed(VerifyError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfFuel { executed } => {
                write!(f, "out of fuel after executing {executed} blocks")
            }
            SimError::UninitializedRead { block, reg } => {
                write!(f, "uninitialized read of {reg} in block {block}")
            }
            SimError::Malformed(e) => write!(f, "malformed IR: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

/// The observable outcome and metrics of one functional run.
#[derive(Clone, Debug)]
pub struct FuncResult {
    /// Value returned by the fired `Return` exit, if it carried one.
    pub ret: Option<i64>,
    /// Number of dynamic block executions (the paper's Table 3 metric).
    pub blocks_executed: u64,
    /// Instructions whose predicate held and that therefore executed.
    pub insts_executed: u64,
    /// All instruction slots fetched, including falsely-predicated ones and
    /// exits (branch slots).
    pub insts_fetched: u64,
    /// Final memory image (sparse).
    pub memory: FxHashMap<i64, i64>,
    /// Profile gathered during the run.
    pub profile: ProfileData,
}

impl FuncResult {
    /// A digest of observable behaviour: return value plus sorted non-zero
    /// memory. Two runs are *observably equivalent* iff their digests match.
    pub fn digest(&self) -> (Option<i64>, Vec<(i64, i64)>) {
        let mut mem: Vec<(i64, i64)> = self
            .memory
            .iter()
            .filter(|(_, v)| **v != 0)
            .map(|(k, v)| (*k, *v))
            .collect();
        mem.sort_unstable();
        (self.ret, mem)
    }
}

#[inline]
pub(crate) fn eval(op: Opcode, a: i64, b: i64) -> i64 {
    match op {
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
        Opcode::Not => !a,
        Opcode::Neg => a.wrapping_neg(),
        Opcode::Mov => a,
        Opcode::CmpEq => (a == b) as i64,
        Opcode::CmpNe => (a != b) as i64,
        Opcode::CmpLt => (a < b) as i64,
        Opcode::CmpLe => (a <= b) as i64,
        Opcode::CmpGt => (a > b) as i64,
        Opcode::CmpGe => (a >= b) as i64,
        Opcode::Load | Opcode::Store => unreachable!("memory ops handled separately"),
    }
}

pub(crate) struct Machine {
    pub(crate) regs: Vec<i64>,
    pub(crate) written: Vec<bool>,
    pub(crate) mem: FxHashMap<i64, i64>,
}

impl Machine {
    pub(crate) fn with_layout(
        nregs: usize,
        params: u32,
        args: &[i64],
        mem_init: &[(i64, i64)],
    ) -> Machine {
        let mut regs = vec![0i64; nregs];
        let mut written = vec![false; nregs];
        for (i, a) in args.iter().enumerate().take(params as usize) {
            regs[i] = *a;
            written[i] = true;
        }
        let mem = mem_init.iter().copied().collect();
        Machine { regs, written, mem }
    }
}

/// Tracks trip counts of active loop visits over the dense [`TripInfo`]
/// bitsets: a vector of per-loop consecutive-iteration counts plus the
/// (small) list of currently active loops.
struct TripState<'a> {
    ti: &'a TripInfo,
    /// Per loop: current consecutive iteration count; `0` = inactive.
    count: Vec<u64>,
    /// Indices of loops with `count > 0`.
    active: Vec<u32>,
}

impl<'a> TripState<'a> {
    fn new(ti: &'a TripInfo) -> TripState<'a> {
        TripState {
            ti,
            count: vec![0; ti.n_loops],
            active: Vec::new(),
        }
    }

    #[inline]
    fn on_block(&mut self, b: usize, profile: &mut ProfileData) {
        // Close visits of loops we've left.
        let mut i = 0;
        while i < self.active.len() {
            let li = self.active[i];
            if !self.ti.contains(li, b) {
                let trips = std::mem::take(&mut self.count[li as usize]);
                profile
                    .trip_histograms
                    .entry(self.ti.headers[li as usize])
                    .or_default()
                    .record(trips);
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Count an iteration when control reaches a header.
        let hl = self.ti.header_loop[b];
        if hl != NONE {
            if self.count[hl as usize] == 0 {
                self.active.push(hl);
            }
            self.count[hl as usize] += 1;
        }
    }

    fn finish(&mut self, profile: &mut ProfileData) {
        for li in self.active.drain(..) {
            profile
                .trip_histograms
                .entry(self.ti.headers[li as usize])
                .or_default()
                .record(self.count[li as usize]);
        }
    }
}

/// Execute `f` with the given arguments and initial memory (lowering it
/// internally; see [`run_lowered`] to amortize the decode over many runs).
///
/// # Errors
/// Returns [`SimError::Malformed`] if `f` does not verify,
/// [`SimError::OutOfFuel`] if `config.max_blocks` dynamic blocks execute
/// without returning, or [`SimError::UninitializedRead`] in strict mode.
pub fn run(
    f: &Function,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &RunConfig,
) -> Result<FuncResult, SimError> {
    let p = LoweredProgram::lower(f);
    run_lowered(&p, args, mem_init, config)
}

/// Execute an already-lowered program.
///
/// # Errors
/// As [`run`].
pub fn run_lowered(
    p: &LoweredProgram,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &RunConfig,
) -> Result<FuncResult, SimError> {
    p.check()?;
    if config.check_uninit {
        run_lowered_impl::<true>(p, args, mem_init, config)
    } else {
        run_lowered_impl::<false>(p, args, mem_init, config)
    }
}

fn run_lowered_impl<const CHECK: bool>(
    p: &LoweredProgram,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &RunConfig,
) -> Result<FuncResult, SimError> {
    let mut m = Machine::with_layout(p.nregs, p.params, args, mem_init);
    let mut profile = ProfileData::default();
    // Dense counters; folded into `profile`'s sparse maps at the end.
    let mut block_counts = vec![0u64; p.n_blocks()];
    let mut exit_counts = vec![0u64; p.n_exits()];
    let mut trips = if config.collect_trip_counts {
        Some(TripState::new(p.trip_info()))
    } else {
        None
    };

    let mut blocks_executed = 0u64;
    let mut insts_executed = 0u64;
    let mut insts_fetched = 0u64;

    let mut cur = p.entry;
    let ret = loop {
        if blocks_executed >= config.max_blocks {
            return Err(SimError::OutOfFuel {
                executed: blocks_executed,
            });
        }
        blocks_executed += 1;
        block_counts[cur as usize] += 1;
        if let Some(t) = trips.as_mut() {
            t.on_block(cur as usize, &mut profile);
        }

        let lb = &p.blocks[cur as usize];
        insts_fetched += lb.size as u64;

        for inst in &p.insts[lb.inst_start as usize..lb.inst_end as usize] {
            if inst.pred_reg != NONE {
                let pi = inst.pred_reg as usize;
                if CHECK && !m.written[pi] {
                    return Err(SimError::UninitializedRead {
                        block: lb.id,
                        reg: Reg(inst.pred_reg),
                    });
                }
                if (m.regs[pi] != 0) != inst.pred_if_true {
                    continue;
                }
            }
            insts_executed += 1;
            match inst.kind {
                LKind::Alu => {
                    let a = if inst.a_reg != NONE {
                        let ai = inst.a_reg as usize;
                        if CHECK && !m.written[ai] {
                            return Err(SimError::UninitializedRead {
                                block: lb.id,
                                reg: Reg(inst.a_reg),
                            });
                        }
                        m.regs[ai]
                    } else {
                        inst.a_imm
                    };
                    let b = if inst.b_reg != NONE {
                        let bi = inst.b_reg as usize;
                        if CHECK && !m.written[bi] {
                            return Err(SimError::UninitializedRead {
                                block: lb.id,
                                reg: Reg(inst.b_reg),
                            });
                        }
                        m.regs[bi]
                    } else {
                        inst.b_imm
                    };
                    let di = inst.dst as usize;
                    m.regs[di] = eval(inst.op, a, b);
                    if CHECK {
                        m.written[di] = true;
                    }
                }
                LKind::Load => {
                    // The interpreter reads only the address operand for a
                    // load (a present-but-unused `b` is never touched).
                    let addr = if inst.a_reg != NONE {
                        let ai = inst.a_reg as usize;
                        if CHECK && !m.written[ai] {
                            return Err(SimError::UninitializedRead {
                                block: lb.id,
                                reg: Reg(inst.a_reg),
                            });
                        }
                        m.regs[ai]
                    } else {
                        inst.a_imm
                    };
                    let di = inst.dst as usize;
                    m.regs[di] = m.mem.get(&addr).copied().unwrap_or(0);
                    if CHECK {
                        m.written[di] = true;
                    }
                }
                LKind::Store => {
                    let addr = if inst.a_reg != NONE {
                        let ai = inst.a_reg as usize;
                        if CHECK && !m.written[ai] {
                            return Err(SimError::UninitializedRead {
                                block: lb.id,
                                reg: Reg(inst.a_reg),
                            });
                        }
                        m.regs[ai]
                    } else {
                        inst.a_imm
                    };
                    let v = if inst.b_reg != NONE {
                        let bi = inst.b_reg as usize;
                        if CHECK && !m.written[bi] {
                            return Err(SimError::UninitializedRead {
                                block: lb.id,
                                reg: Reg(inst.b_reg),
                            });
                        }
                        m.regs[bi]
                    } else {
                        inst.b_imm
                    };
                    m.mem.insert(addr, v);
                }
            }
        }

        // The first exit whose predicate holds fires; verified IR ends
        // every block in an unpredicated default, so the scan stops there.
        let mut j = lb.exit_start as usize;
        let e = loop {
            let e = &p.exits[j];
            if e.pred_reg == NONE {
                break e;
            }
            let pi = e.pred_reg as usize;
            if CHECK && !m.written[pi] {
                return Err(SimError::UninitializedRead {
                    block: lb.id,
                    reg: Reg(e.pred_reg),
                });
            }
            if (m.regs[pi] != 0) == e.pred_if_true {
                break e;
            }
            j += 1;
        };
        exit_counts[j] += 1;
        match e.kind {
            LExitKind::Goto(next) => cur = next,
            LExitKind::RetNone => break None,
            LExitKind::RetImm(v) => break Some(v),
            LExitKind::RetReg(r) => {
                let ri = r as usize;
                if CHECK && !m.written[ri] {
                    return Err(SimError::UninitializedRead {
                        block: lb.id,
                        reg: Reg(r),
                    });
                }
                break Some(m.regs[ri]);
            }
        }
    };

    if let Some(t) = trips.as_mut() {
        t.finish(&mut profile);
    }
    // Fold the dense counters into the sparse profile maps (only touched
    // entries, matching the legacy entry-on-first-increment behaviour).
    for (bi, &c) in block_counts.iter().enumerate() {
        if c != 0 {
            profile.block_counts.insert(p.blocks[bi].id, c);
        }
    }
    for lb in &p.blocks {
        for (j, idx) in (lb.exit_start..lb.exit_end).enumerate() {
            let c = exit_counts[idx as usize];
            if c != 0 {
                profile.exit_counts.insert((lb.id, j), c);
            }
        }
    }

    Ok(FuncResult {
        ret,
        blocks_executed,
        insts_executed,
        insts_fetched,
        memory: m.mem,
        profile,
    })
}

/// Run `f` on the given inputs and return its profile, for stamping onto the
/// function with [`ProfileData::apply`]. Convenience wrapper used by
/// workload constructors.
///
/// # Errors
/// Propagates any [`SimError`] from the underlying run.
pub fn profile_run(
    f: &Function,
    args: &[i64],
    mem_init: &[(i64, i64)],
) -> Result<ProfileData, SimError> {
    Ok(run(f, args, mem_init, &RunConfig::default())?.profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::{Instr, Operand, Pred};

    fn reg(r: Reg) -> Operand {
        Operand::Reg(r)
    }

    /// sum of 0..n via a while loop
    fn sum_loop() -> Function {
        let mut fb = FunctionBuilder::new("sum", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(reg(i), reg(Reg(0)));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let acc2 = fb.add(reg(acc), reg(i));
        fb.mov_to(acc, reg(acc2));
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(reg(acc)));
        fb.build().unwrap()
    }

    #[test]
    fn computes_loop_sum() {
        let f = sum_loop();
        let r = run(&f, &[10], &[], &RunConfig::strict()).unwrap();
        assert_eq!(r.ret, Some(45));
        // entry + 11 header + 10 body + exit
        assert_eq!(r.blocks_executed, 23);
    }

    #[test]
    fn profile_counts_blocks_and_exits() {
        let f = sum_loop();
        let r = run(&f, &[4], &[], &RunConfig::default()).unwrap();
        let h = BlockId(1);
        assert_eq!(r.profile.block_counts[&h], 5);
        assert_eq!(r.profile.exit_counts[&(h, 0)], 4); // taken into body
        assert_eq!(r.profile.exit_counts[&(h, 1)], 1); // loop exit
    }

    #[test]
    fn trip_histogram_recorded() {
        let f = sum_loop();
        let r = run(&f, &[7], &[], &RunConfig::default()).unwrap();
        let hist = r.profile.trip_histograms.get(&BlockId(1)).unwrap();
        // header visited 8 times in one visit (7 body iterations + exit test)
        assert_eq!(hist.visits(), 1);
        assert_eq!(hist.mode(), Some(8));
    }

    #[test]
    fn memory_semantics() {
        let mut fb = FunctionBuilder::new("memtest", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        let v = fb.load(Operand::Imm(100));
        let v2 = fb.add(reg(v), Operand::Imm(5));
        fb.store(Operand::Imm(101), reg(v2));
        fb.ret(Some(reg(v2)));
        let f = fb.build().unwrap();
        let r = run(&f, &[], &[(100, 37)], &RunConfig::default()).unwrap();
        assert_eq!(r.ret, Some(42));
        assert_eq!(r.memory[&101], 42);
        assert_eq!(r.digest().1, vec![(100, 37), (101, 42)]);
    }

    #[test]
    fn predicated_instruction_skipped() {
        let mut fb = FunctionBuilder::new("predtest", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let out = fb.mov(Operand::Imm(0));
        let p = fb.cmp_gt(reg(Reg(0)), Operand::Imm(5));
        fb.push(Instr::mov(out, Operand::Imm(1)).predicated(Pred::on_true(p)));
        fb.push(Instr::mov(out, Operand::Imm(2)).predicated(Pred::on_false(p)));
        fb.ret(Some(reg(out)));
        let f = fb.build().unwrap();
        assert_eq!(
            run(&f, &[9], &[], &RunConfig::strict()).unwrap().ret,
            Some(1)
        );
        assert_eq!(
            run(&f, &[3], &[], &RunConfig::strict()).unwrap().ret,
            Some(2)
        );
    }

    #[test]
    fn out_of_fuel_detected() {
        let mut fb = FunctionBuilder::new("spin", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        fb.jump(e);
        let f = fb.build().unwrap();
        let cfg = RunConfig {
            max_blocks: 100,
            ..RunConfig::default()
        };
        assert_eq!(
            run(&f, &[], &[], &cfg).unwrap_err(),
            SimError::OutOfFuel { executed: 100 }
        );
    }

    #[test]
    fn uninitialized_read_detected_in_strict_mode() {
        let mut fb = FunctionBuilder::new("uninit", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        let ghost = fb.fresh_reg();
        let x = fb.add(reg(ghost), Operand::Imm(1));
        fb.ret(Some(reg(x)));
        let f = fb.build().unwrap();
        assert!(matches!(
            run(&f, &[], &[], &RunConfig::strict()),
            Err(SimError::UninitializedRead { .. })
        ));
        // Non-strict mode reads 0.
        assert_eq!(
            run(&f, &[], &[], &RunConfig::default()).unwrap().ret,
            Some(1)
        );
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut fb = FunctionBuilder::new("divz", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let d = fb.div(Operand::Imm(10), reg(Reg(0)));
        let r = fb.rem(Operand::Imm(10), reg(Reg(0)));
        let s = fb.add(reg(d), reg(r));
        fb.ret(Some(reg(s)));
        let f = fb.build().unwrap();
        assert_eq!(
            run(&f, &[0], &[], &RunConfig::default()).unwrap().ret,
            Some(0)
        );
        assert_eq!(
            run(&f, &[3], &[], &RunConfig::default()).unwrap().ret,
            Some(4)
        );
    }

    #[test]
    fn fetched_counts_include_false_predicates_and_exits() {
        let f = sum_loop();
        let r = run(&f, &[1], &[], &RunConfig::default()).unwrap();
        assert!(r.insts_fetched > r.insts_executed);
    }

    #[test]
    fn lowered_handle_reuse_matches_per_call_lowering() {
        let f = sum_loop();
        let p = LoweredProgram::lower(&f);
        let a = run_lowered(&p, &[9], &[], &RunConfig::default()).unwrap();
        let b = run(&f, &[9], &[], &RunConfig::default()).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.blocks_executed, b.blocks_executed);
        assert_eq!(a.profile.block_counts, b.profile.block_counts);
        assert_eq!(a.profile.exit_counts, b.profile.exit_counts);
    }

    #[test]
    fn broken_ir_is_refused_before_execution() {
        // A malformed instruction errs whether or not control would reach
        // it: decoding refuses the function before its first block.
        let mut fb = FunctionBuilder::new("cold_fault", 1);
        let e = fb.create_block();
        let cold = fb.create_block();
        let hot = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_gt(reg(Reg(0)), Operand::Imm(10));
        fb.branch(c, cold, hot);
        fb.switch_to(cold);
        let x = fb.add(reg(Reg(0)), Operand::Imm(1));
        fb.ret(Some(reg(x)));
        fb.switch_to(hot);
        fb.ret(Some(Operand::Imm(7)));
        let mut f = fb.build().unwrap();
        // Corrupt the cold block: missing operand.
        f.block_mut(BlockId(1)).insts[0].a = None;
        let refused = SimError::Malformed(VerifyError::MissingOperand(BlockId(1)));
        for arg in [0, 99] {
            assert_eq!(
                run(&f, &[arg], &[], &RunConfig::default()).unwrap_err(),
                refused
            );
        }
    }
}
