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
//! * the timing model's eager register-range sweep is folded into decoding
//!   (`LoweredProgram::timing_reject`), preserving its exact scan order;
//! * loop structure for trip-count profiling is derived lazily from the
//!   lowered CFG (`TripInfo`), so a pure timing simulation never pays for
//!   a dominator analysis.
//!
//! # Degenerate IR and lazy error semantics
//!
//! The simulators are deliberately total over *broken* IR (the chaos
//! harness feeds them corrupted functions), and the functional interpreter's
//! errors are **lazy**: a malformed instruction only errs when control
//! reaches it with a true predicate. Lowering must not make those errors
//! eager, so any instruction that statically cannot take the fast path — a
//! missing required operand or an out-of-range register anywhere in it — is
//! lowered to `LKind::Slow`, an index into a side table holding the
//! original [`Instr`]. The slow path replays the legacy per-instruction
//! semantics (including predication and error order) exactly; well-formed
//! programs never contain a slow instruction. Exits get the same treatment
//! via `LExitKind::Dangling` / `LExit::pred_oor` / out-of-range return
//! registers.

use crate::functional::SimError;
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::instr::{Instr, Opcode, Operand};
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
    /// Irregular instruction (missing operand or out-of-range register):
    /// index into [`LoweredProgram::slow`], replayed via the legacy
    /// per-instruction semantics.
    Slow(u32),
}

/// One pre-decoded instruction. All register fields are flat indices,
/// guaranteed in-bounds unless `kind` is [`LKind::Slow`].
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

/// Side-table entry for an irregular instruction. (The corresponding
/// [`LInst`] still carries the packed predicate/def/liveness fields the
/// timing model needs; the slow table holds only the original instruction
/// for the functional replay.)
#[derive(Clone, Debug)]
pub(crate) struct SlowInst {
    /// The original instruction, replayed by the slow path.
    pub inst: Instr,
}

/// Lowered control transfer of an exit.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum LExitKind {
    /// Jump to a dense block index.
    Goto(u32),
    /// Jump to a removed/never-created block: taking this exit raises
    /// [`SimError::DanglingTarget`] (after the next block's fuel check,
    /// matching the interpreter's error point).
    Dangling(BlockId),
    /// `return` with no value.
    RetNone,
    /// `return #imm`.
    RetImm(i64),
    /// `return r` with an in-range register.
    RetReg(u32),
    /// `return r` with an out-of-range register: firing raises
    /// [`SimError::RegisterOutOfRange`] after the exit is counted.
    RetRegOor(u32),
}

/// One pre-decoded exit.
#[derive(Copy, Clone, Debug)]
pub(crate) struct LExit {
    /// Predicate register or [`NONE`]; guaranteed in range.
    pub pred_reg: u32,
    pub pred_if_true: bool,
    /// Set when the predicate register is out of range: evaluating this exit
    /// raises [`SimError::RegisterOutOfRange`] (the read comes first).
    pub pred_oor: Option<u32>,
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
    pub exit_start: u32,
    pub exit_end: u32,
    /// `Block::size()`: instruction slots incl. exits (fetch accounting).
    pub size: u32,
    /// Static next-block prediction: the first exit's target (`None` iff
    /// the block has no exits, in which case `NoFiringExit` fires first).
    pub fallback: Option<ExitTarget>,
    /// The block ends in exactly one exit, unpredicated and with an
    /// in-range (or absent) predicate register: the timing model's exit
    /// scan degenerates to "exit 0 fires at `dispatch + 1`", so it can be
    /// resolved in one batched step with no predicate reads.
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
    pub(crate) slow: Vec<SlowInst>,
    /// Dense index of the entry block.
    pub(crate) entry: u32,
    /// Register-space size; all fast-path register fields are `< nregs`.
    pub(crate) nregs: usize,
    pub(crate) params: u32,
    /// The timing model's eager out-of-range sweep result, computed in the
    /// legacy scan order (blocks ascending; per instruction uses then def;
    /// per exit predicate then return register). `Some` makes
    /// `simulate_timing` fail immediately, exactly as before.
    pub(crate) timing_reject: Option<SimError>,
    /// `BlockId::index() → dense index` (or [`NONE`] for holes).
    pub(crate) block_index: Vec<u32>,
    trip_info: OnceLock<TripInfo>,
}

impl LoweredProgram {
    /// Decode `f` into the dense representation. Total: broken IR lowers to
    /// slow instructions / dangling exits whose errors surface lazily at
    /// execution, never here.
    pub fn lower(f: &Function) -> LoweredProgram {
        let nregs = f.reg_count();
        // The timing model's eager out-of-range sweep, in its exact legacy
        // scan order (blocks ascending; per instruction uses then def; per
        // exit predicate then return register). Run it *before* liveness:
        // the liveness bit-matrix indexes by register number and is only
        // safe — and only needed — on register-clean programs (the timing
        // model rejects dirty ones before simulating, and the functional
        // interpreter never reads `def_live_out`).
        let mut timing_reject = None;
        'sweep: for (id, blk) in f.blocks() {
            for inst in &blk.insts {
                for r in inst.uses().chain(inst.def()) {
                    if r.index() >= nregs as usize {
                        timing_reject = Some(SimError::RegisterOutOfRange {
                            block: id,
                            reg: r.0,
                        });
                        break 'sweep;
                    }
                }
            }
            for e in &blk.exits {
                if let Some(pr) = e.pred {
                    if pr.reg.index() >= nregs as usize {
                        timing_reject = Some(SimError::RegisterOutOfRange {
                            block: id,
                            reg: pr.reg.0,
                        });
                        break 'sweep;
                    }
                }
                if let ExitTarget::Return(Some(Operand::Reg(r))) = e.target {
                    if r.index() >= nregs as usize {
                        timing_reject = Some(SimError::RegisterOutOfRange {
                            block: id,
                            reg: r.0,
                        });
                        break 'sweep;
                    }
                }
            }
        }
        let liveness = if timing_reject.is_none() {
            Some(chf_ir::liveness::Liveness::compute(f))
        } else {
            None
        };

        // Pass 1: dense renumbering.
        let mut block_index = vec![NONE; f.block_slots()];
        let mut ids = Vec::new();
        for id in f.block_ids() {
            block_index[id.index()] = ids.len() as u32;
            ids.push(id);
        }

        let mut p = LoweredProgram {
            blocks: Vec::with_capacity(ids.len()),
            insts: Vec::new(),
            exits: Vec::new(),
            slow: Vec::new(),
            entry: block_index[f.entry.index()],
            nregs: nregs as usize,
            params: f.params,
            timing_reject,
            block_index,
            trip_info: OnceLock::new(),
        };

        // Pass 2: decode blocks in id order (the timing sweep's order).
        for &id in &ids {
            let blk = f.block(id);
            let live_out = liveness.as_ref().map(|lv| lv.live_out(id));
            let inst_start = p.insts.len() as u32;
            let mut stores = 0u16;
            for inst in &blk.insts {
                let def_live_out = match (&live_out, inst.def()) {
                    (Some(lo), Some(d)) => lo.contains(&d),
                    _ => false,
                };
                let kind = if irregular(inst, nregs) {
                    p.slow.push(SlowInst { inst: inst.clone() });
                    LKind::Slow(p.slow.len() as u32 - 1)
                } else {
                    match inst.op {
                        Opcode::Load => LKind::Load,
                        Opcode::Store => LKind::Store,
                        _ => LKind::Alu,
                    }
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
                    def_live_out,
                    stores_before: stores,
                });
                if inst.op == Opcode::Store {
                    stores += 1;
                }
            }
            let exit_start = p.exits.len() as u32;
            for e in &blk.exits {
                let (pred_reg, pred_if_true, pred_oor) = match e.pred {
                    None => (NONE, true, None),
                    Some(pr) if pr.reg.index() >= nregs as usize => {
                        (NONE, pr.if_true, Some(pr.reg.0))
                    }
                    Some(pr) => (pr.reg.0, pr.if_true, None),
                };
                let kind = match e.target {
                    ExitTarget::Block(t) => match p.block_index.get(t.index()) {
                        Some(&d) if d != NONE => LExitKind::Goto(d),
                        _ => LExitKind::Dangling(t),
                    },
                    ExitTarget::Return(None) => LExitKind::RetNone,
                    ExitTarget::Return(Some(Operand::Imm(v))) => LExitKind::RetImm(v),
                    ExitTarget::Return(Some(Operand::Reg(r))) => {
                        if r.index() >= nregs as usize {
                            LExitKind::RetRegOor(r.0)
                        } else {
                            LExitKind::RetReg(r.0)
                        }
                    }
                };
                p.exits.push(LExit {
                    pred_reg,
                    pred_if_true,
                    pred_oor,
                    kind,
                    orig: e.target,
                    hist_tag: crate::predictor::ExitPredictor::history_tag(&e.target),
                });
            }
            let exit_end = p.exits.len() as u32;
            let single_uncond_exit = exit_end == exit_start + 1 && {
                let e = &p.exits[exit_start as usize];
                e.pred_reg == NONE && e.pred_oor.is_none()
            };
            p.blocks.push(LBlock {
                id,
                inst_start,
                inst_end: p.insts.len() as u32,
                exit_start,
                exit_end,
                size: blk.size() as u32,
                fallback: blk.exits.first().map(|e| e.target),
                single_uncond_exit,
            });
        }
        p
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

/// Whether `inst` must take the slow path: any out-of-range register, or a
/// missing *required* operand (`a`/`dst` for value ops, `a`/`b` for stores).
/// A missing `b` on a value op is regular (reads as 0); a present-but-unused
/// operand (e.g. `b` on a `mov`) is regular too — the fast paths read it
/// exactly where the interpreter would.
fn irregular(inst: &Instr, nregs: u32) -> bool {
    if inst.uses().chain(inst.def()).any(|r| r.0 >= nregs) {
        return true;
    }
    match inst.op {
        Opcode::Store => inst.a.is_none() || inst.b.is_none(),
        _ => inst.a.is_none() || inst.dst.is_none(),
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
        assert!(p.slow.is_empty(), "well-formed IR has no slow instructions");
        assert!(p.timing_reject.is_none());
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
    fn broken_references_lower_to_slow_and_dangling() {
        let mut fb = FunctionBuilder::new("broken", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let x = fb.add(reg(Reg(0)), Operand::Imm(1));
        fb.ret(Some(reg(x)));
        let mut f = fb.build().unwrap();
        // Corrupt: out-of-range operand and a dangling exit target.
        let entry = f.entry;
        f.block_mut(entry).insts[0].a = Some(Operand::Reg(Reg(999)));
        f.block_mut(entry)
            .exits
            .push(chf_ir::block::Exit::jump(BlockId(77)));
        let p = LoweredProgram::lower(&f);
        assert_eq!(p.slow.len(), 1);
        assert!(matches!(
            p.timing_reject,
            Some(SimError::RegisterOutOfRange { reg: 999, .. })
        ));
        assert!(p
            .exits
            .iter()
            .any(|e| matches!(e.kind, LExitKind::Dangling(BlockId(77)))));
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
