//! Pre-decoded (lowered) program representation shared by both simulators.
//!
//! The interpreters used to walk `chf_ir` structures directly: every dynamic
//! instruction re-matched `Option<Operand>` slots, re-bounds-checked register
//! numbers through `Machine::read`, and the timing model probed a hash map
//! per issued instruction. [`LoweredProgram`] decodes a [`Function`] **once**
//! into a dense, cache-friendly form in the spirit of a CFG-machine lowering
//! (Garbuzov et al., *Structural Operational Semantics for CFG Machines*):
//!
//! * blocks are renumbered densely (slot holes disappear), instructions and
//!   exits live in flat arenas with per-block ranges;
//! * operands are resolved to flat register indices (`u32::MAX` = absent /
//!   immediate) with immediates pre-substituted, so the execution loops index
//!   arrays instead of matching enums;
//! * per-block metadata is precomputed: instruction-slot counts, the static
//!   next-block prediction fallback, store ordinals and earlier-store counts
//!   for the LSQ, and the per-instruction *def-is-live-out* bit the timing
//!   model's commit rule needs (this replaces a `Liveness::compute` +
//!   hash-set probe per simulated block commit);
//! * loop structure for trip-count profiling is derived lazily from the
//!   lowered CFG (`TripInfo`), so a pure timing simulation never pays for
//!   a dominator analysis.
//!
//! # Malformed IR
//!
//! Decoding runs [`chf_ir::verify::verify`] once. A function that fails it
//! decodes to an empty program carrying the first violation, and both
//! simulators (and the legacy cores) return it as [`SimError::Malformed`]
//! before executing a block. Every decoded program is therefore verified
//! IR: registers are in range, required operands are present, exits
//! target live blocks, and every block ends in an unpredicated default
//! exit. The only errors left to execution are [`SimError::OutOfFuel`]
//! and [`SimError::UninitializedRead`].

use crate::functional::SimError;
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::instr::{Opcode, Operand};
use chf_ir::verify::{verify, VerifyError};
use std::sync::OnceLock;

/// Sentinel for "no register in this slot" in the packed fields.
pub(crate) const NONE: u32 = u32::MAX;

/// How a lowered instruction executes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum LKind {
    /// Register-writing ALU/compare/move op: `regs[dst] = eval(op, a, b)`.
    Alu,
    /// `regs[dst] = mem[a]` (subject to the LSQ discipline in timing).
    Load,
    /// `mem[a] = b`.
    Store,
}

/// One pre-decoded instruction. All register fields are flat indices,
/// guaranteed in-bounds.
#[derive(Clone, Debug)]
pub(crate) struct LInst {
    /// Original opcode (drives `eval` and the latency charge).
    pub op: Opcode,
    pub kind: LKind,
    /// Destination register or [`NONE`].
    pub dst: u32,
    /// First operand register, or [`NONE`] to use `a_imm`.
    pub a_reg: u32,
    pub a_imm: i64,
    /// Second operand register, or [`NONE`] to use `b_imm` (absent operands
    /// lower to immediate 0, matching the interpreter's `None => 0`).
    pub b_reg: u32,
    pub b_imm: i64,
    /// Predicate register or [`NONE`] for unpredicated.
    pub pred_reg: u32,
    /// Required predicate polarity.
    pub pred_if_true: bool,
    /// Precomputed `op.latency()` (single-digit cycle counts; narrow so
    /// the decoded instruction stays within 48 bytes).
    pub latency: u8,
    /// Whether `dst` is in this block's live-out set — the timing model's
    /// commit rule only waits for live-out register writes.
    pub def_live_out: bool,
    /// Number of stores earlier in this block (LSQ fast-skip: a load with
    /// `stores_before == 0` can never conflict). Blocks hold at most a few
    /// hundred slots, so `u16` cannot saturate.
    pub stores_before: u16,
}

/// Lowered control transfer of an exit.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum LExitKind {
    /// Jump to a dense block index.
    Goto(u32),
    /// `return` with no value.
    RetNone,
    /// `return #imm`.
    RetImm(i64),
    /// `return r`.
    RetReg(u32),
}

/// One pre-decoded exit.
#[derive(Copy, Clone, Debug)]
pub(crate) struct LExit {
    /// Predicate register or [`NONE`]; guaranteed in range.
    pub pred_reg: u32,
    pub pred_if_true: bool,
    pub kind: LExitKind,
    /// The original target, kept for the next-block predictor so its hashed
    /// history and table keys are bit-identical to the legacy model's.
    pub orig: ExitTarget,
    /// The target's cached [`ExitPredictor::history_tag`]
    /// (`crate::predictor::ExitPredictor::history_tag`): the predictor's
    /// global-history hash is precomputed at decode so the per-block hot
    /// path never runs a hasher.
    pub hist_tag: u8,
}

/// Per-block metadata.
#[derive(Clone, Debug)]
pub(crate) struct LBlock {
    /// Original block id (diagnostics, profiles, predictor keys).
    pub id: BlockId,
    pub inst_start: u32,
    pub inst_end: u32,
    /// Exits `exit_start..exit_end`; never empty, and the last one is
    /// unpredicated.
    pub exit_start: u32,
    pub exit_end: u32,
    /// `Block::size()`: instruction slots incl. exits (fetch accounting).
    pub size: u32,
    /// Static next-block prediction: the first exit's target.
    pub fallback: ExitTarget,
    /// The block ends in exactly one exit, which is therefore its
    /// unpredicated default: the timing model's exit scan degenerates to
    /// "exit 0 fires at `dispatch + 1`", so it can be resolved in one
    /// batched step with no predicate reads.
    pub single_uncond_exit: bool,
}

/// A [`Function`] decoded once for repeated simulation.
///
/// Build with [`LoweredProgram::lower`]; both simulators accept it directly
/// ([`crate::functional::run_lowered`], [`crate::timing::simulate_timing_lowered`]),
/// so callers that simulate the same function many times — the differential
/// oracle, the benchmark harness, whole-program runs — decode once and share
/// the handle. The convenience entry points [`crate::functional::run`] and
/// [`crate::timing::simulate_timing`] lower internally per call.
#[derive(Debug)]
pub struct LoweredProgram {
    pub(crate) blocks: Vec<LBlock>,
    pub(crate) insts: Vec<LInst>,
    pub(crate) exits: Vec<LExit>,
    /// Dense index of the entry block.
    pub(crate) entry: u32,
    /// Register-space size; all register fields are `< nregs`.
    pub(crate) nregs: usize,
    pub(crate) params: u32,
    /// The source function's first verifier violation. A malformed program
    /// decodes to no blocks, and the simulators refuse to run it.
    malformed: Option<VerifyError>,
    /// `BlockId::index() → dense index` (or [`NONE`] for holes).
    pub(crate) block_index: Vec<u32>,
    trip_info: OnceLock<TripInfo>,
}

impl LoweredProgram {
    /// Decode `f` into the dense representation. Total: a function that
    /// fails [`verify`] decodes to an empty program that both simulators
    /// refuse with [`SimError::Malformed`].
    pub fn lower(f: &Function) -> LoweredProgram {
        let mut p = LoweredProgram {
            blocks: Vec::new(),
            insts: Vec::new(),
            exits: Vec::new(),
            entry: 0,
            nregs: f.reg_count() as usize,
            params: f.params,
            malformed: None,
            block_index: Vec::new(),
            trip_info: OnceLock::new(),
        };
        if let Err(e) = verify(f) {
            p.malformed = Some(e);
            return p;
        }
        let liveness = chf_ir::liveness::Liveness::compute(f);

        // Pass 1: dense renumbering.
        p.block_index = vec![NONE; f.block_slots()];
        let mut ids = Vec::new();
        for id in f.block_ids() {
            p.block_index[id.index()] = ids.len() as u32;
            ids.push(id);
        }
        p.entry = p.block_index[f.entry.index()];
        p.blocks.reserve(ids.len());

        // Pass 2: decode blocks in id order.
        for &id in &ids {
            let blk = f.block(id);
            let live_out = liveness.live_out(id);
            let inst_start = p.insts.len() as u32;
            let mut stores = 0u16;
            for inst in &blk.insts {
                let kind = match inst.op {
                    Opcode::Load => LKind::Load,
                    Opcode::Store => LKind::Store,
                    _ => LKind::Alu,
                };
                let (a_reg, a_imm) = lower_operand(inst.a);
                let (b_reg, b_imm) = lower_operand(inst.b);
                let (pred_reg, pred_if_true) = match inst.pred {
                    Some(pr) => (pr.reg.0, pr.if_true),
                    None => (NONE, true),
                };
                p.insts.push(LInst {
                    op: inst.op,
                    kind,
                    dst: inst.dst.map(|d| d.0).unwrap_or(NONE),
                    a_reg,
                    a_imm,
                    b_reg,
                    b_imm,
                    pred_reg,
                    pred_if_true,
                    latency: inst.op.latency() as u8,
                    def_live_out: inst.def().is_some_and(|d| live_out.contains(&d)),
                    stores_before: stores,
                });
                if inst.op == Opcode::Store {
                    stores += 1;
                }
            }
            let exit_start = p.exits.len() as u32;
            for e in &blk.exits {
                let (pred_reg, pred_if_true) = match e.pred {
                    Some(pr) => (pr.reg.0, pr.if_true),
                    None => (NONE, true),
                };
                let kind = match e.target {
                    ExitTarget::Block(t) => LExitKind::Goto(p.block_index[t.index()]),
                    ExitTarget::Return(None) => LExitKind::RetNone,
                    ExitTarget::Return(Some(Operand::Imm(v))) => LExitKind::RetImm(v),
                    ExitTarget::Return(Some(Operand::Reg(r))) => LExitKind::RetReg(r.0),
                };
                p.exits.push(LExit {
                    pred_reg,
                    pred_if_true,
                    kind,
                    orig: e.target,
                    hist_tag: crate::predictor::ExitPredictor::history_tag(&e.target),
                });
            }
            let exit_end = p.exits.len() as u32;
            p.blocks.push(LBlock {
                id,
                inst_start,
                inst_end: p.insts.len() as u32,
                exit_start,
                exit_end,
                size: blk.size() as u32,
                fallback: blk.exits[0].target,
                single_uncond_exit: exit_end == exit_start + 1,
            });
        }
        p
    }

    /// Refuse a program whose source function failed verification.
    ///
    /// # Errors
    /// [`SimError::Malformed`] with the first violation.
    pub(crate) fn check(&self) -> Result<(), SimError> {
        match &self.malformed {
            Some(e) => Err(SimError::Malformed(e.clone())),
            None => Ok(()),
        }
    }

    /// Number of (live) blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of decoded exits.
    pub fn n_exits(&self) -> usize {
        self.exits.len()
    }

    /// Loop structure for trip-count profiling, computed on first use from
    /// the lowered CFG (dominator bitsets over dense blocks — no dependence
    /// on the original [`Function`]).
    pub(crate) fn trip_info(&self) -> &TripInfo {
        self.trip_info.get_or_init(|| TripInfo::compute(self))
    }
}

/// Split an optional operand into `(reg_or_NONE, imm)`; absent operands
/// become immediate 0 (the interpreter substitutes 0 for a missing second
/// operand).
fn lower_operand(o: Option<Operand>) -> (u32, i64) {
    match o {
        Some(Operand::Reg(r)) => (r.0, 0),
        Some(Operand::Imm(v)) => (NONE, v),
        None => (NONE, 0),
    }
}

/// Natural-loop structure over the dense CFG, for trip-count profiling.
///
/// Derived from the lowered `Goto` edges with the textbook definitions the
/// IR-level `LoopForest` uses — back edges `u → v` where `v` dominates `u`,
/// loops merged by header, bodies by reverse reachability from the latches —
/// so the resulting trip histograms are identical. Membership is stored as
/// one bitset row per block (loops are few), and each block records the loop
/// it heads, which is what the execution-time tracker consults per block.
#[derive(Debug)]
pub(crate) struct TripInfo {
    /// Number of loops.
    pub n_loops: usize,
    /// Words per membership row.
    words: usize,
    /// `block × loop` membership bitsets, row-major.
    member: Vec<u64>,
    /// Per block: index of the loop it heads, or [`NONE`].
    pub header_loop: Vec<u32>,
    /// Per loop: original header block id (the histogram key).
    pub headers: Vec<BlockId>,
}

impl TripInfo {
    /// Whether dense block `b` is inside loop `li`.
    #[inline]
    pub fn contains(&self, li: u32, b: usize) -> bool {
        let w = self.member[b * self.words + li as usize / 64];
        w >> (li % 64) & 1 != 0
    }

    fn compute(p: &LoweredProgram) -> TripInfo {
        let n = p.blocks.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (bi, lb) in p.blocks.iter().enumerate() {
            for e in &p.exits[lb.exit_start as usize..lb.exit_end as usize] {
                if let LExitKind::Goto(t) = e.kind {
                    succs[bi].push(t);
                    preds[t as usize].push(bi as u32);
                }
            }
        }
        // Reachability from the entry.
        let mut reach = vec![false; n];
        reach[p.entry as usize] = true;
        let mut stack = vec![p.entry];
        while let Some(b) = stack.pop() {
            for &s in &succs[b as usize] {
                if !reach[s as usize] {
                    reach[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        // Iterative bitset dominators: dom(entry) = {entry}; for reachable
        // b ≠ entry, dom(b) = {b} ∪ ⋂ dom(reachable preds).
        let bw = n.div_ceil(64).max(1);
        let mut dom = vec![!0u64; n * bw];
        let set_single = |dom: &mut [u64], b: usize| {
            for w in 0..bw {
                dom[b * bw + w] = 0;
            }
            dom[b * bw + b / 64] = 1u64 << (b % 64);
        };
        set_single(&mut dom, p.entry as usize);
        let mut changed = true;
        let mut scratch = vec![0u64; bw];
        while changed {
            changed = false;
            for b in 0..n {
                if !reach[b] || b == p.entry as usize {
                    continue;
                }
                scratch.copy_from_slice(&vec![!0u64; bw]);
                for &q in &preds[b] {
                    if !reach[q as usize] {
                        continue;
                    }
                    for w in 0..bw {
                        scratch[w] &= dom[q as usize * bw + w];
                    }
                }
                scratch[b / 64] |= 1u64 << (b % 64);
                if dom[b * bw..b * bw + bw] != scratch[..] {
                    dom[b * bw..b * bw + bw].copy_from_slice(&scratch);
                    changed = true;
                }
            }
        }
        let dominates = |dom: &[u64], v: usize, u: usize| dom[u * bw + v / 64] >> (v % 64) & 1 != 0;
        // Back edges and loops merged by header (headers ascending).
        let mut header_loop = vec![NONE; n];
        let mut headers: Vec<u32> = Vec::new();
        let mut latches: Vec<Vec<u32>> = Vec::new();
        for u in 0..n {
            if !reach[u] {
                continue;
            }
            for &v in &succs[u] {
                if reach[v as usize] && dominates(&dom, v as usize, u) {
                    let li = if header_loop[v as usize] == NONE {
                        header_loop[v as usize] = headers.len() as u32;
                        headers.push(v);
                        latches.push(Vec::new());
                        headers.len() as u32 - 1
                    } else {
                        header_loop[v as usize]
                    };
                    latches[li as usize].push(u as u32);
                }
            }
        }
        // Loop bodies: reverse walk from each latch, not crossing the header.
        let n_loops = headers.len();
        let words = n_loops.div_ceil(64).max(1);
        let mut member = vec![0u64; n * words];
        for (li, (&h, ls)) in headers.iter().zip(&latches).enumerate() {
            let bit = |member: &mut [u64], b: usize| {
                member[b * words + li / 64] |= 1u64 << (li % 64);
            };
            let in_body =
                |member: &[u64], b: usize| member[b * words + li / 64] >> (li % 64) & 1 != 0;
            bit(&mut member, h as usize);
            let mut stack: Vec<u32> = ls.clone();
            while let Some(b) = stack.pop() {
                if b == h {
                    continue;
                }
                if in_body(&member, b as usize) {
                    continue;
                }
                bit(&mut member, b as usize);
                for &q in &preds[b as usize] {
                    if reach[q as usize] {
                        stack.push(q);
                    }
                }
            }
        }
        TripInfo {
            n_loops,
            words,
            member,
            header_loop,
            headers: headers
                .into_iter()
                .map(|d| p.blocks[d as usize].id)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::ids::Reg;
    use chf_ir::loops::LoopForest;
    use chf_ir::testgen::{generate, GenConfig};

    fn reg(r: Reg) -> Operand {
        Operand::Reg(r)
    }

    #[test]
    fn lowering_is_dense_and_regular_on_wellformed_ir() {
        let f = generate(11, &GenConfig::default());
        let p = LoweredProgram::lower(&f);
        assert_eq!(p.n_blocks(), f.block_count());
        assert_eq!(p.check(), Ok(()));
        // Every register field in bounds.
        for i in &p.insts {
            for r in [i.dst, i.a_reg, i.b_reg, i.pred_reg] {
                assert!(r == NONE || (r as usize) < p.nregs);
            }
        }
        // Sizes match.
        let total: u32 = p.blocks.iter().map(|b| b.size).sum();
        assert_eq!(total as usize, f.static_size());
    }

    #[test]
    fn malformed_ir_decodes_to_its_first_violation() {
        let mut fb = FunctionBuilder::new("broken", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(reg(Reg(0)), Operand::Imm(1));
        fb.ret(Some(reg(x)));
        let mut f = fb.build().unwrap();
        // Corrupt: an out-of-range operand and a dangling exit target. The
        // verifier checks a block's exits before its instructions.
        let entry = f.entry;
        f.block_mut(entry).insts[0].a = Some(Operand::Reg(Reg(999)));
        f.block_mut(entry).exits[0].target = ExitTarget::Block(BlockId(77));
        let p = LoweredProgram::lower(&f);
        assert_eq!(
            p.check(),
            Err(SimError::Malformed(VerifyError::DanglingEdge(
                entry,
                BlockId(77)
            )))
        );
        assert_eq!((p.n_blocks(), p.n_exits()), (0, 0));
        f.block_mut(entry).exits[0].target = ExitTarget::Return(None);
        assert_eq!(
            LoweredProgram::lower(&f).check(),
            Err(SimError::Malformed(VerifyError::RegisterOutOfRange(
                entry, 999
            )))
        );
    }

    /// The lazily-computed dense loop structure must agree with the IR-level
    /// `LoopForest` — headers, membership, and who-heads-what — since trip
    /// histograms feed formation decisions and must not drift.
    #[test]
    fn trip_info_matches_loop_forest() {
        for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
            let f = generate(seed, &GenConfig::default());
            let p = LoweredProgram::lower(&f);
            let ti = p.trip_info();
            let forest = LoopForest::of(&f);
            assert_eq!(ti.n_loops, forest.loops.len(), "seed {seed}");
            for l in &forest.loops {
                let hd = p.block_index[l.header.index()] as usize;
                let li = ti.header_loop[hd];
                assert_ne!(li, NONE, "seed {seed}: header {:?} unheaded", l.header);
                assert_eq!(ti.headers[li as usize], l.header);
                for (bi, lb) in p.blocks.iter().enumerate() {
                    assert_eq!(
                        ti.contains(li, bi),
                        l.body.contains(&lb.id),
                        "seed {seed}: membership of {:?} in loop {:?}",
                        lb.id,
                        l.header
                    );
                }
            }
        }
    }
}
