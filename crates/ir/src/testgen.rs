//! Random structured-program generation for property-based testing, plus
//! the coverage-guided workload layer built on top of it.
//!
//! Every compiler transformation in this workspace is tested for *observable
//! equivalence*: a generated program must return the same value and produce
//! the same memory image before and after the transformation. This module
//! generates arbitrarily-shaped but always-terminating programs: nested
//! bounded loops, branches on computed values, arithmetic over a small
//! variable pool, and memory traffic in a small address window.
//!
//! The generator is deterministic in its seed and dependency-free (it embeds
//! a SplitMix64 PRNG) so failures shrink to a reproducible seed.
//!
//! On top of the grammar sit three pieces the trace-corpus fuzzer
//! (`chf-corpus`) consumes:
//!
//! * [`GenPlan`] — a `(seed, knobs)` pair that fully determines a generated
//!   program, round-trippable through a one-line description so corpus
//!   manifests can record exactly how an entry was produced;
//! * the [`mutate`] operators — CFG-level perturbations (splice blocks from
//!   a donor, insert or retarget branches, perturb edge profiles) and
//!   plan-level ones (grow the loop-nest grammar) that move a program to a
//!   structural neighborhood the grammar alone rarely reaches;
//! * [`CoverageMap`] — a deterministic set of `(category, cell)` pairs over
//!   merge outcomes, CFG-shape fingerprints, and oracle verdicts, used to
//!   decide which mutants earn a corpus slot.

use crate::builder::FunctionBuilder;
use crate::function::Function;
use crate::ids::Reg;
use crate::instr::{Opcode, Operand};
use std::collections::BTreeSet;

/// Tunable knobs for [`generate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum nesting depth of loops/branches.
    pub max_depth: u32,
    /// Maximum statements per sequence.
    pub max_stmts: u32,
    /// Maximum loop trip count (loops always terminate).
    pub max_trips: u64,
    /// Number of mutable variables in the pool.
    pub num_vars: u32,
    /// Whether to emit loads/stores.
    pub memory_ops: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 3,
            max_stmts: 6,
            max_trips: 5,
            num_vars: 6,
            memory_ops: true,
        }
    }
}

/// The SplitMix64 generator the grammar draws from — the workspace's only
/// one, public so the corpus fuzzer's mutation operators, the chaos fault
/// streams and the differential oracle's argument draws all share it.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, never None
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    /// Bernoulli draw: true with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

type Rng = SplitMix64;

struct Gen<'a> {
    rng: Rng,
    cfg: &'a GenConfig,
    vars: Vec<Reg>,
}

impl Gen<'_> {
    fn var(&mut self) -> Reg {
        self.vars[self.rng.below(self.vars.len() as u64) as usize]
    }

    fn operand(&mut self) -> Operand {
        if self.rng.chance(30) {
            Operand::Imm(self.rng.below(21) as i64 - 10)
        } else {
            Operand::Reg(self.var())
        }
    }

    fn binop(&mut self) -> Opcode {
        const OPS: &[Opcode] = &[
            Opcode::Add,
            Opcode::Sub,
            Opcode::Mul,
            Opcode::Div,
            Opcode::Rem,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::CmpEq,
            Opcode::CmpNe,
            Opcode::CmpLt,
            Opcode::CmpLe,
            Opcode::CmpGt,
            Opcode::CmpGe,
        ];
        OPS[self.rng.below(OPS.len() as u64) as usize]
    }

    /// Emit a sequence of statements into the current block; returns with
    /// the builder positioned in the block where control continues.
    fn sequence(&mut self, b: &mut FunctionBuilder, depth: u32) {
        let n = 1 + self.rng.below(self.cfg.max_stmts as u64) as u32;
        for _ in 0..n {
            let choice = self.rng.below(100);
            if depth < self.cfg.max_depth && choice < 18 {
                self.if_else(b, depth + 1);
            } else if depth < self.cfg.max_depth && choice < 30 {
                self.bounded_loop(b, depth + 1);
            } else if self.cfg.memory_ops && choice < 45 {
                self.memory_stmt(b);
            } else {
                self.arith_stmt(b);
            }
        }
    }

    fn arith_stmt(&mut self, b: &mut FunctionBuilder) {
        let op = self.binop();
        let a = self.operand();
        let c = self.operand();
        let tmp = b.emit(op, a, c);
        let dst = self.var();
        b.mov_to(dst, Operand::Reg(tmp));
    }

    fn memory_stmt(&mut self, b: &mut FunctionBuilder) {
        // Keep addresses in a small window so loads observe stores.
        let v = self.var();
        let masked = b.and(Operand::Reg(v), Operand::Imm(15));
        if self.rng.chance(50) {
            let val = self.operand();
            b.store(Operand::Reg(masked), val);
        } else {
            let x = b.load(Operand::Reg(masked));
            let dst = self.var();
            b.mov_to(dst, Operand::Reg(x));
        }
    }

    fn if_else(&mut self, b: &mut FunctionBuilder, depth: u32) {
        let cond_src = self.operand();
        let cond = b.cmp_ne(cond_src, Operand::Imm(0));
        let then_b = b.create_block();
        let else_b = b.create_block();
        let join = b.create_block();
        b.branch(cond, then_b, else_b);
        b.switch_to(then_b);
        self.sequence(b, depth);
        b.jump(join);
        b.switch_to(else_b);
        if self.rng.chance(70) {
            self.sequence(b, depth);
        }
        b.jump(join);
        b.switch_to(join);
    }

    fn bounded_loop(&mut self, b: &mut FunctionBuilder, depth: u32) {
        let trips = self.rng.below(self.cfg.max_trips + 1) as i64;
        let i = b.mov(Operand::Imm(0));
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let c = b.cmp_lt(Operand::Reg(i), Operand::Imm(trips));
        b.branch(c, body, exit);
        b.switch_to(body);
        self.sequence(b, depth);
        let i2 = b.add(Operand::Reg(i), Operand::Imm(1));
        b.mov_to(i, Operand::Reg(i2));
        b.jump(header);
        b.switch_to(exit);
    }
}

/// Generate a random, always-terminating function with 2 parameters.
///
/// The same `(seed, config)` pair always yields the same program. The
/// function returns a hash of the variable pool, so optimizations that
/// corrupt any variable change the observable result.
pub fn generate(seed: u64, config: &GenConfig) -> Function {
    let mut b = FunctionBuilder::new(format!("gen_{seed:016x}"), 2);
    let entry = b.create_block();
    b.switch_to(entry);

    let mut g = Gen {
        rng: SplitMix64::new(seed),
        cfg: config,
        vars: Vec::new(),
    };

    // Initialize the variable pool from parameters and constants.
    for k in 0..config.num_vars {
        let init = match k % 3 {
            0 => Operand::Reg(b.param(0)),
            1 => Operand::Reg(b.param(1)),
            _ => Operand::Imm(g.rng.below(100) as i64),
        };
        let v = b.mov(init);
        g.vars.push(v);
    }

    g.sequence(&mut b, 0);

    // Fold all variables (and a memory probe) into one return value.
    let mut acc = b.mov(Operand::Imm(0));
    let vars = g.vars.clone();
    for v in vars {
        let x = b.mul(Operand::Reg(acc), Operand::Imm(31));
        let y = b.add(Operand::Reg(x), Operand::Reg(v));
        acc = y;
    }
    b.ret(Some(Operand::Reg(acc)));
    b.build().expect("generated program must verify")
}

/// A fully-reproducible generation recipe: the seed plus every grammar
/// knob. Corpus manifests record a plan's [`GenPlan::describe`] line so any
/// checked-in entry can be traced back to (and regenerated from) the exact
/// generator call that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenPlan {
    /// Generator seed.
    pub seed: u64,
    /// Grammar knobs.
    pub cfg: GenConfig,
}

impl GenPlan {
    /// A plan with the default knobs.
    pub fn new(seed: u64) -> Self {
        GenPlan {
            seed,
            cfg: GenConfig::default(),
        }
    }

    /// Run the grammar: [`generate`] with this plan's seed and knobs.
    pub fn generate(&self) -> Function {
        generate(self.seed, &self.cfg)
    }

    /// One-line, order-stable description, e.g.
    /// `seed=7 depth=3 stmts=6 trips=5 vars=6 mem=1`.
    pub fn describe(&self) -> String {
        format!(
            "seed={} depth={} stmts={} trips={} vars={} mem={}",
            self.seed,
            self.cfg.max_depth,
            self.cfg.max_stmts,
            self.cfg.max_trips,
            self.cfg.num_vars,
            self.cfg.memory_ops as u8
        )
    }

    /// Parse a [`GenPlan::describe`] line back into a plan. Unknown keys
    /// are rejected so manifest typos surface as load errors, not silent
    /// knob defaults.
    pub fn from_describe(s: &str) -> Option<GenPlan> {
        let mut plan = GenPlan::new(0);
        for tok in s.split_whitespace() {
            let (key, value) = tok.split_once('=')?;
            let n: u64 = value.parse().ok()?;
            match key {
                "seed" => plan.seed = n,
                "depth" => plan.cfg.max_depth = u32::try_from(n).ok()?,
                "stmts" => plan.cfg.max_stmts = u32::try_from(n).ok()?,
                "trips" => plan.cfg.max_trips = n,
                "vars" => plan.cfg.num_vars = u32::try_from(n).ok()?,
                "mem" => plan.cfg.memory_ops = n != 0,
                _ => return None,
            }
        }
        Some(plan)
    }

    /// Plan-level mutation: reseed and nudge the grammar knobs, biased
    /// toward *growing* loop nests and statement counts — the structural
    /// directions the default knobs under-sample. Always changes the seed
    /// so the mutant is a genuinely different program.
    pub fn mutate(&self, rng: &mut SplitMix64) -> GenPlan {
        let mut m = self.clone();
        m.seed = rng.next();
        match rng.below(5) {
            0 => m.cfg.max_depth = (m.cfg.max_depth + 1).min(6), // grow loop nests
            1 => m.cfg.max_stmts = (m.cfg.max_stmts + 1 + rng.below(4) as u32).min(16),
            2 => m.cfg.max_trips = (m.cfg.max_trips + 1 + rng.below(6)).min(24),
            3 => m.cfg.num_vars = (2 + rng.below(10) as u32).max(2),
            _ => m.cfg.memory_ops = !m.cfg.memory_ops,
        }
        m
    }
}

/// CFG-level mutation operators over already-built functions.
///
/// Each operator takes the seeded stream and returns whether it changed
/// anything. Operators promise *well-formed output only under the plain
/// structural rules they can see locally* (exit ordering, register ranges);
/// global invariants — reachability, predicate defs, termination — are the
/// admission filter's job: the corpus fuzzer runs [`crate::verify::verify_full`]
/// and a fueled baseline execution on every mutant and classifies rejects
/// instead of admitting them.
pub mod mutate {
    use super::SplitMix64;
    use crate::block::{Exit, ExitTarget};
    use crate::function::Function;
    use crate::ids::{BlockId, Reg};
    use crate::instr::Pred;
    use crate::profile::ProfileData;

    /// Which operator produced a mutant — recorded in corpus manifests as
    /// provenance.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum MutationKind {
        /// Instructions from a donor block spliced into a block.
        Splice,
        /// A fresh predicated branch inserted between existing blocks.
        InsertBranch,
        /// An existing branch retargeted at a different block.
        RetargetBranch,
        /// Edge/block profile counts rescaled.
        PerturbProfile,
        /// Plan-level reseed/knob growth ([`super::GenPlan::mutate`]).
        GrowPlan,
    }

    impl MutationKind {
        /// Every operator, in a stable order the fuzzer draws from.
        pub const ALL: [MutationKind; 5] = [
            MutationKind::Splice,
            MutationKind::InsertBranch,
            MutationKind::RetargetBranch,
            MutationKind::PerturbProfile,
            MutationKind::GrowPlan,
        ];

        /// Stable short label for manifests and summaries.
        pub fn label(self) -> &'static str {
            match self {
                MutationKind::Splice => "splice",
                MutationKind::InsertBranch => "insert-branch",
                MutationKind::RetargetBranch => "retarget-branch",
                MutationKind::PerturbProfile => "perturb-profile",
                MutationKind::GrowPlan => "grow-plan",
            }
        }
    }

    fn pick(ids: &[BlockId], rng: &mut SplitMix64) -> Option<BlockId> {
        if ids.is_empty() {
            None
        } else {
            Some(ids[rng.below(ids.len() as u64) as usize])
        }
    }

    /// Retarget one in-function branch at another existing block. The
    /// mutant may orphan a region or wrap a loop back on itself — both are
    /// shapes the grammar cannot produce, which is the point.
    pub fn retarget_branch(f: &mut Function, rng: &mut SplitMix64) -> bool {
        let ids: Vec<BlockId> = f.block_ids().collect();
        let with_branch: Vec<BlockId> = ids
            .iter()
            .copied()
            .filter(|b| {
                f.block(*b)
                    .exits
                    .iter()
                    .any(|e| matches!(e.target, ExitTarget::Block(_)))
            })
            .collect();
        let (Some(b), Some(new_target)) = (pick(&with_branch, rng), pick(&ids, rng)) else {
            return false;
        };
        let blk = f.block_mut(b);
        let branches: Vec<usize> = blk
            .exits
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.target, ExitTarget::Block(_)))
            .map(|(i, _)| i)
            .collect();
        let i = branches[rng.below(branches.len() as u64) as usize];
        if blk.exits[i].target == ExitTarget::Block(new_target) {
            return false;
        }
        blk.exits[i].target = ExitTarget::Block(new_target);
        true
    }

    /// Insert a fresh predicated branch (on a register some instruction in
    /// the function defines, so predicate-def checking stays satisfiable)
    /// from one existing block to another, ahead of the existing exits.
    pub fn insert_branch(f: &mut Function, rng: &mut SplitMix64) -> bool {
        let ids: Vec<BlockId> = f.block_ids().collect();
        let defined: Vec<Reg> = ids
            .iter()
            .flat_map(|b| f.block(*b).insts.iter().filter_map(|i| i.dst))
            .collect();
        let (Some(from), Some(to)) = (pick(&ids, rng), pick(&ids, rng)) else {
            return false;
        };
        let reg = if defined.is_empty() {
            if f.params == 0 {
                return false;
            }
            Reg(rng.below(f.params as u64) as u32)
        } else {
            defined[rng.below(defined.len() as u64) as usize]
        };
        let pred = Pred {
            reg,
            if_true: rng.chance(50),
        };
        f.block_mut(from).exits.insert(0, Exit::when(pred, to));
        true
    }

    /// Splice up to eight instructions from a donor function's block into a
    /// block of `f`, remapping registers into `f`'s register space and
    /// stripping predicates (the donor's predicate defs don't travel).
    pub fn splice(f: &mut Function, donor: &Function, rng: &mut SplitMix64) -> bool {
        let donor_ids: Vec<BlockId> = donor.block_ids().collect();
        let ids: Vec<BlockId> = f.block_ids().collect();
        let (Some(src), Some(dst)) = (pick(&donor_ids, rng), pick(&ids, rng)) else {
            return false;
        };
        let regs = f.reg_count().max(1);
        let take = (1 + rng.below(8)) as usize;
        let spliced: Vec<_> = donor
            .block(src)
            .insts
            .iter()
            .take(take)
            .map(|inst| {
                let mut i = inst.clone();
                i.pred = None;
                let remap = |r: Reg| Reg(r.0 % regs);
                i.dst = i.dst.map(remap);
                let remap_op = |o: crate::instr::Operand| match o {
                    crate::instr::Operand::Reg(r) => crate::instr::Operand::Reg(remap(r)),
                    imm => imm,
                };
                i.a = i.a.map(remap_op);
                i.b = i.b.map(remap_op);
                i
            })
            .collect();
        if spliced.is_empty() {
            return false;
        }
        let blk = f.block_mut(dst);
        let at = rng.below(blk.insts.len() as u64 + 1) as usize;
        blk.insts.splice(at..at, spliced);
        true
    }

    /// Rescale a seeded subset of edge and block counts by extreme factors
    /// — the adversarial-training-data shape the profile-guided orderings
    /// consume. The IR is untouched.
    pub fn perturb_profile(p: &mut ProfileData, rng: &mut SplitMix64) -> bool {
        let mut changed = false;
        let mut edges: Vec<(BlockId, usize)> = p.exit_counts.keys().copied().collect();
        edges.sort_unstable();
        for k in edges {
            if rng.chance(40) {
                let n = p.exit_counts.get_mut(&k).expect("key from iteration");
                *n = match rng.below(3) {
                    0 => 0,
                    1 => n.saturating_mul(1 + rng.below(1_000_000)),
                    _ => *n / (1 + rng.below(1_000)),
                };
                changed = true;
            }
        }
        let mut blocks: Vec<BlockId> = p.block_counts.keys().copied().collect();
        blocks.sort_unstable();
        for b in blocks {
            if rng.chance(25) {
                let n = p.block_counts.get_mut(&b).expect("key from iteration");
                *n = n.saturating_mul(1 + rng.below(10_000));
                changed = true;
            }
        }
        changed
    }
}

/// The coverage dimensions the corpus fuzzer tracks. Every dimension is a
/// small label over a 64-bit cell key; what the key *means* is the
/// caller's contract (the corpus crate hashes merge-outcome buckets, shape
/// fingerprints, and oracle verdicts into it).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoverageCategory {
    /// Bucketed committed-transformation counts (`m/t/u/p`).
    MergeOutcome,
    /// CFG-shape fingerprint ([`crate::fingerprint::CfgShape`]).
    Shape,
    /// Differential-oracle verdict.
    OracleVerdict,
}

impl CoverageCategory {
    /// Every category, in reporting order.
    pub const ALL: [CoverageCategory; 3] = [
        CoverageCategory::MergeOutcome,
        CoverageCategory::Shape,
        CoverageCategory::OracleVerdict,
    ];

    /// Stable key for JSON summaries.
    pub fn label(self) -> &'static str {
        match self {
            CoverageCategory::MergeOutcome => "outcome",
            CoverageCategory::Shape => "shape",
            CoverageCategory::OracleVerdict => "verdict",
        }
    }
}

/// A deterministic set of covered `(category, cell)` pairs.
///
/// Backed by a `BTreeSet` so iteration, counts, and the derived JSON are
/// byte-stable regardless of insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageMap {
    cells: BTreeSet<(CoverageCategory, u64)>,
}

impl CoverageMap {
    /// Record a cell; `true` when it was not already covered.
    pub fn insert(&mut self, category: CoverageCategory, cell: u64) -> bool {
        self.cells.insert((category, cell))
    }

    /// Whether a cell is covered.
    pub fn contains(&self, category: CoverageCategory, cell: u64) -> bool {
        self.cells.contains(&(category, cell))
    }

    /// Covered cells in one category.
    pub fn count(&self, category: CoverageCategory) -> usize {
        self.cells.iter().filter(|(c, _)| *c == category).count()
    }

    /// Per-category counts as a stable JSON fragment, e.g.
    /// `"outcome":12,"shape":9,"verdict":2`.
    pub fn json_counts(&self) -> String {
        CoverageCategory::ALL
            .iter()
            .map(|c| format!("\"{}\":{}", c.label(), self.count(*c)))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;

    #[test]
    fn deterministic_in_seed() {
        let cfg = GenConfig::default();
        let a = generate(42, &cfg);
        let b = generate(42, &cfg);
        assert_eq!(a.to_string(), b.to_string());
        let c = generate(43, &cfg);
        assert_ne!(a.to_string(), c.to_string());
    }

    #[test]
    fn generated_programs_verify() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let f = generate(seed, &cfg);
            assert_eq!(verify(&f), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn generates_interesting_shapes() {
        let cfg = GenConfig {
            max_depth: 3,
            max_stmts: 8,
            ..GenConfig::default()
        };
        let mut saw_multi_block = false;
        let mut saw_loop = false;
        for seed in 0..30 {
            let f = generate(seed, &cfg);
            if f.block_count() > 3 {
                saw_multi_block = true;
            }
            if !crate::loops::LoopForest::of(&f).loops.is_empty() {
                saw_loop = true;
            }
        }
        assert!(saw_multi_block);
        assert!(saw_loop);
    }

    #[test]
    fn plan_describe_round_trips() {
        let mut rng = SplitMix64::new(11);
        let mut plan = GenPlan::new(7);
        for _ in 0..20 {
            plan = plan.mutate(&mut rng);
            let text = plan.describe();
            assert_eq!(GenPlan::from_describe(&text), Some(plan.clone()), "{text}");
        }
        assert_eq!(GenPlan::from_describe("seed=1 bogus=2"), None);
        assert_eq!(GenPlan::from_describe("seed"), None);
    }

    #[test]
    fn plan_mutation_changes_the_program() {
        let mut rng = SplitMix64::new(3);
        let base = GenPlan::new(5);
        let mutant = base.mutate(&mut rng);
        assert_ne!(base.generate().to_string(), mutant.generate().to_string());
    }

    #[test]
    fn cfg_mutators_change_programs_and_stay_parseable() {
        let cfg = GenConfig::default();
        let donor = generate(99, &cfg);
        let mut changed = [0usize; 3];
        for seed in 0..24u64 {
            let mut rng = SplitMix64::new(seed);
            let mut f = generate(seed, &cfg);
            let before = f.to_string();
            let did = match seed % 3 {
                0 => mutate::retarget_branch(&mut f, &mut rng),
                1 => mutate::insert_branch(&mut f, &mut rng),
                _ => mutate::splice(&mut f, &donor, &mut rng),
            };
            if did {
                changed[(seed % 3) as usize] += 1;
                assert_ne!(f.to_string(), before, "seed {seed} claimed a change");
                // Mutants must stay structurally sound enough to print and
                // reparse — the corpus stores them as `.til` text.
                assert_eq!(crate::verify::verify(&f), Ok(()), "seed {seed}:\n{f}");
                crate::parse::parse_function(&f.to_string()).expect("mutant must reparse");
            }
        }
        assert!(changed.iter().all(|&n| n > 0), "every operator must fire");
    }

    #[test]
    fn profile_perturbation_is_seed_deterministic() {
        use crate::profile::ProfileData;
        let f = generate(4, &GenConfig::default());
        let mut p = ProfileData::default();
        for id in f.block_ids() {
            p.block_counts.insert(id, 10);
            p.exit_counts.insert((id, 0), 5);
        }
        let (mut a, mut b) = (p.clone(), p.clone());
        assert!(mutate::perturb_profile(&mut a, &mut SplitMix64::new(8)));
        assert!(mutate::perturb_profile(&mut b, &mut SplitMix64::new(8)));
        assert_eq!(a.block_counts, b.block_counts);
        assert_eq!(a.exit_counts, b.exit_counts);
    }

    #[test]
    fn coverage_map_dedups_and_counts() {
        let mut m = CoverageMap::default();
        assert!(m.insert(CoverageCategory::Shape, 1));
        assert!(!m.insert(CoverageCategory::Shape, 1));
        assert!(m.insert(CoverageCategory::OracleVerdict, 1));
        assert!(m.insert(CoverageCategory::OracleVerdict, 9));
        assert!(m.contains(CoverageCategory::Shape, 1));
        assert!(!m.contains(CoverageCategory::MergeOutcome, 1));
        assert_eq!(m.count(CoverageCategory::Shape), 1);
        assert_eq!(m.json_counts(), "\"outcome\":0,\"shape\":1,\"verdict\":2");
    }
}
