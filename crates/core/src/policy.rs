//! Block-selection policies (paper §5).
//!
//! `ExpandBlock` asks a [`Policy`] which candidate successor to try merging
//! next. Three policies from the paper:
//!
//! * **Breadth-first** (the best EDGE heuristic in Table 2): merge
//!   candidates in discovery order, so both arms of a branch are merged
//!   before anything deeper. This removes conditional branches (better
//!   next-block prediction) and limits tail duplication, at the cost of
//!   including some useless instructions.
//! * **Depth-first**: follow the most frequent path as deep as possible
//!   first, then come back for the rest if space remains. Includes more
//!   useful instructions but risks mispredictions and extra tail
//!   duplication.
//! * **VLIW** (Mahlke et al.): a prepass computes per-block dependence
//!   heights; selection prioritizes frequent, short-dependence-height
//!   blocks and *excludes* rarely-taken or high-dependence-height blocks —
//!   correct for a statically-scheduled VLIW, but on an EDGE machine the
//!   exclusions force tail duplication and predicated induction-variable
//!   updates (the bzip2_3 and parser_1 pathologies of §7.2).

use chf_ir::function::Function;
use chf_ir::fxhash::FxHashMap;
use chf_ir::ids::BlockId;
use chf_ir::instr::Operand;

/// A candidate successor for merging, annotated by the driver.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The block to merge.
    pub block: BlockId,
    /// Discovery sequence number (0 = first discovered).
    pub order: usize,
    /// Number of merges that had happened when this was discovered — a
    /// proxy for path depth from the seed block.
    pub depth: usize,
    /// Estimated probability that a dynamic execution of the hyperblock
    /// reaches this candidate.
    pub prob: f64,
}

/// A block-selection heuristic.
pub trait Policy {
    /// Diagnostic name.
    fn name(&self) -> &'static str;

    /// Prepass analysis over the original CFG (before any merging).
    fn prepare(&mut self, _f: &Function) {}

    /// Index of the candidate to try next, or `None` to stop expanding.
    ///
    /// Takes `&self`: selection is a pure function of the function, the
    /// hyperblock, the candidates and what [`Policy::prepare`] computed. A
    /// formation run relies on it when it charges a budget fork's skipped
    /// frontier with the run's own policy
    /// ([`crate::convergent::form_hyperblocks_forked`]).
    fn select(&self, f: &Function, hb: BlockId, candidates: &[Candidate]) -> Option<usize>;
}

/// Breadth-first selection: strict discovery order.
#[derive(Debug, Default)]
pub struct BreadthFirst;

impl Policy for BreadthFirst {
    fn name(&self) -> &'static str {
        "breadth-first"
    }

    fn select(&self, _f: &Function, _hb: BlockId, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.depth, c.order))
            .map(|(i, _)| i)
    }
}

/// Depth-first selection: deepest first, hottest arm first.
#[derive(Debug, Default)]
pub struct DepthFirst;

impl Policy for DepthFirst {
    fn name(&self) -> &'static str {
        "depth-first"
    }

    fn select(&self, _f: &Function, _hb: BlockId, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                (a.depth, a.prob, a.order)
                    .partial_cmp(&(b.depth, b.prob, b.order))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }
}

/// VLIW heuristic: candidates below this reach-probability are excluded
/// outright.
const VLIW_MIN_PROB: f64 = 0.08;
/// VLIW heuristic: candidates below this probability are also excluded when
/// their dependence height exceeds [`VLIW_HEIGHT_RATIO`] × the mean height.
const VLIW_COLD_PROB: f64 = 0.5;
/// VLIW heuristic: height-exclusion ratio for cold blocks.
const VLIW_HEIGHT_RATIO: f64 = 2.0;

/// The VLIW (Mahlke-style) path-based heuristic.
#[derive(Debug, Default)]
pub struct Vliw {
    heights: FxHashMap<BlockId, u64>,
    mean_height: f64,
}

impl Vliw {
    fn height(&self, b: BlockId) -> f64 {
        self.heights
            .get(&b)
            .copied()
            .map(|h| h as f64)
            .unwrap_or(self.mean_height)
    }
}

/// Dependence height of a block: the longest latency-weighted chain through
/// its instructions under sequential register dependences.
pub fn dependence_height(f: &Function, b: BlockId) -> u64 {
    let mut done: FxHashMap<chf_ir::ids::Reg, u64> = FxHashMap::default();
    let mut height = 0u64;
    for inst in &f.block(b).insts {
        let mut ready = 0u64;
        for o in [inst.a, inst.b].into_iter().flatten() {
            if let Operand::Reg(r) = o {
                ready = ready.max(done.get(&r).copied().unwrap_or(0));
            }
        }
        if let Some(p) = inst.pred {
            ready = ready.max(done.get(&p.reg).copied().unwrap_or(0));
        }
        let t = ready + inst.op.latency();
        if let Some(d) = inst.def() {
            done.insert(d, t);
        }
        height = height.max(t);
    }
    height
}

impl Policy for Vliw {
    fn name(&self) -> &'static str {
        "vliw"
    }

    fn prepare(&mut self, f: &Function) {
        self.heights.clear();
        for (b, _) in f.blocks() {
            self.heights.insert(b, dependence_height(f, b));
        }
        let n = self.heights.len().max(1);
        self.mean_height = self.heights.values().sum::<u64>() as f64 / n as f64;
    }

    fn select(&self, _f: &Function, _hb: BlockId, candidates: &[Candidate]) -> Option<usize> {
        let mean = self.mean_height.max(1.0);
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                if c.prob < VLIW_MIN_PROB {
                    return false;
                }
                if c.prob < VLIW_COLD_PROB && self.height(c.block) > VLIW_HEIGHT_RATIO * mean {
                    return false;
                }
                true
            })
            .max_by(|(_, a), (_, b)| {
                let score = |c: &Candidate| c.prob * mean / (mean + self.height(c.block));
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.order.cmp(&a.order))
            })
            .map(|(i, _)| i)
    }
}

/// Profile-guided selection: hottest candidate first.
///
/// Orders candidates by **profiled reach probability × successor edge
/// weight** — `prob` is the driver's estimate that a dynamic execution of
/// the hyperblock reaches the candidate, and the edge weight is the
/// profiled taken count summed over the hyperblock's current exits into
/// the candidate ([`chf_ir::block::Block::edge_weight_to`]). The product
/// concentrates a constrained trial budget
/// ([`crate::convergent::FormationConfig::trial_budget`]) on the merges
/// the training run actually executed, instead of burning it in CFG
/// discovery order the way [`BreadthFirst`] does.
///
/// Determinism: ties (including the all-zero scores of an unprofiled or
/// edge-uniform CFG) break on `(depth, order)` ascending — exactly the
/// breadth-first rule — so with no differential profile signal `HotFirst`
/// selects *identically* to [`BreadthFirst`] and output stays byte-stable
/// (property-tested in `crates/core/tests/policy_props.rs`).
#[derive(Debug, Default)]
pub struct HotFirst;

impl HotFirst {
    /// The selection score: reach probability × profiled weight of the
    /// hyperblock's current edges into the candidate. A candidate whose
    /// block has been merged away (or an absent hyperblock) scores 0 and
    /// loses to any live profiled candidate.
    fn score(f: &Function, hb: BlockId, c: &Candidate) -> f64 {
        if !f.contains_block(hb) || !f.contains_block(c.block) {
            return 0.0;
        }
        c.prob * f.block(hb).edge_weight_to(c.block)
    }
}

impl Policy for HotFirst {
    fn name(&self) -> &'static str {
        "hot-first"
    }

    fn select(&self, f: &Function, hb: BlockId, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (sa, sb) = (Self::score(f, hb, a), Self::score(f, hb, b));
                sb.partial_cmp(&sa)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (a.depth, a.order).cmp(&(b.depth, b.order)))
            })
            .map(|(i, _)| i)
    }
}

/// Which policy to instantiate, for configuration tables.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// [`BreadthFirst`].
    BreadthFirst,
    /// [`DepthFirst`].
    DepthFirst,
    /// [`Vliw`].
    Vliw,
    /// [`HotFirst`]: profile-guided merge ordering.
    HotFirst,
}

impl PolicyKind {
    /// Create the policy object.
    pub fn instantiate(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::BreadthFirst => Box::new(BreadthFirst),
            PolicyKind::DepthFirst => Box::new(DepthFirst),
            PolicyKind::Vliw => Box::new(Vliw::default()),
            PolicyKind::HotFirst => Box::new(HotFirst),
        }
    }

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::BreadthFirst => "BF",
            PolicyKind::DepthFirst => "DF",
            PolicyKind::Vliw => "VLIW",
            PolicyKind::HotFirst => "HF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;

    fn cand(block: u32, order: usize, depth: usize, prob: f64) -> Candidate {
        Candidate {
            block: BlockId(block),
            order,
            depth,
            prob,
        }
    }

    fn dummy_fn() -> Function {
        let mut fb = FunctionBuilder::new("d", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        fb.ret(None);
        fb.build().unwrap()
    }

    #[test]
    fn breadth_first_is_fifo() {
        let f = dummy_fn();
        let cs = vec![cand(1, 2, 1, 0.9), cand(2, 0, 0, 0.1), cand(3, 1, 0, 0.8)];
        assert_eq!(BreadthFirst.select(&f, BlockId(0), &cs), Some(1));
    }

    #[test]
    fn depth_first_prefers_deep_then_hot() {
        let f = dummy_fn();
        let cs = vec![cand(1, 0, 0, 0.9), cand(2, 1, 2, 0.3), cand(3, 2, 2, 0.6)];
        assert_eq!(DepthFirst.select(&f, BlockId(0), &cs), Some(2));
    }

    #[test]
    fn vliw_excludes_cold_paths() {
        let f = dummy_fn();
        let mut v = Vliw::default();
        v.prepare(&f);
        let cs = vec![cand(1, 0, 0, 0.02), cand(2, 1, 0, 0.9)];
        assert_eq!(v.select(&f, BlockId(0), &cs), Some(1));
        let only_cold = vec![cand(1, 0, 0, 0.02)];
        assert_eq!(v.select(&f, BlockId(0), &only_cold), None);
    }

    #[test]
    fn vliw_excludes_tall_cold_blocks() {
        // Two candidate blocks: one short, one with a long dependence chain,
        // both moderately cold.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let short = fb.create_block();
        let tall = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c, short, tall);
        fb.switch_to(short);
        fb.ret(None);
        fb.switch_to(tall);
        let mut x = fb.param(0);
        for _ in 0..30 {
            x = fb.mul(Operand::Reg(x), Operand::Imm(3));
        }
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        let mut v = Vliw::default();
        v.prepare(&f);
        let cs = vec![cand(2, 0, 0, 0.3), cand(1, 1, 0, 0.3)];
        // The tall block (id 2) is excluded; the short one picked.
        assert_eq!(v.select(&f, f.entry, &cs), Some(1));
    }

    #[test]
    fn dependence_height_tracks_chains() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let mut x = fb.param(0);
        for _ in 0..4 {
            x = fb.add(Operand::Reg(x), Operand::Imm(1));
        }
        // An independent instruction does not add height.
        let _y = fb.add(Operand::Imm(1), Operand::Imm(2));
        fb.ret(Some(Operand::Reg(x)));
        let f = fb.build().unwrap();
        assert_eq!(dependence_height(&f, f.entry), 4);
    }

    #[test]
    fn policy_kind_instantiates() {
        for kind in [
            PolicyKind::BreadthFirst,
            PolicyKind::DepthFirst,
            PolicyKind::Vliw,
            PolicyKind::HotFirst,
        ] {
            let p = kind.instantiate();
            assert!(!p.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    /// A diamond whose hot arm carries almost all of the profiled flow.
    fn profiled_diamond(hot_count: f64, cold_count: f64) -> (Function, BlockId, BlockId, BlockId) {
        let mut fb = FunctionBuilder::new("hot", 1);
        let e = fb.create_block();
        let hot = fb.create_block();
        let cold = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c, hot, cold);
        fb.switch_to(hot);
        fb.ret(None);
        fb.switch_to(cold);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        f.block_mut(e).exits[0].count = hot_count;
        f.block_mut(e).exits[1].count = cold_count;
        (f, e, hot, cold)
    }

    #[test]
    fn hot_first_prefers_hot_edges_regardless_of_discovery_order() {
        let (f, e, hot, cold) = profiled_diamond(900.0, 100.0);
        // The cold arm was discovered first; BF would take it, HotFirst
        // must jump to the hot one.
        let cs = vec![cand(cold.0, 0, 0, 0.1), cand(hot.0, 1, 0, 0.9)];
        assert_eq!(BreadthFirst.select(&f, e, &cs), Some(0));
        assert_eq!(HotFirst.select(&f, e, &cs), Some(1));
    }

    #[test]
    fn hot_first_falls_back_to_breadth_first_without_profile_signal() {
        // Zero edge weights (unprofiled CFG): every score is 0, so the
        // (depth, order) tie-break must reproduce breadth-first exactly.
        let (f, e, hot, cold) = profiled_diamond(0.0, 0.0);
        let cs = vec![
            cand(hot.0, 2, 1, 0.9),
            cand(cold.0, 0, 0, 0.1),
            cand(hot.0, 1, 0, 0.8),
        ];
        assert_eq!(HotFirst.select(&f, e, &cs), BreadthFirst.select(&f, e, &cs));
    }

    #[test]
    fn hot_first_scores_dead_candidates_zero() {
        let (f, e, hot, _) = profiled_diamond(900.0, 100.0);
        // A candidate whose block no longer exists must lose to a live one
        // even with a huge reach probability.
        let cs = vec![cand(4242, 0, 0, 1.0), cand(hot.0, 1, 0, 0.2)];
        assert_eq!(HotFirst.select(&f, e, &cs), Some(1));
    }
}
