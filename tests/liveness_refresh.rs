//! Liveness against an independent reference, and incremental refresh
//! against a solve from scratch.
//!
//! The reference is deliberately naive: per-register hash sets per block,
//! iterated to a fixpoint over the whole function. `Liveness::compute`
//! must equal it everywhere; `Liveness::refresh` must equal both after
//! any sequence of edits, because it re-solves only what the edits reach.

use chf::core::pipeline::{try_compile, CompileConfig};
use chf::ir::block::{Block, ExitTarget};
use chf::ir::builder::FunctionBuilder;
use chf::ir::function::Function;
use chf::ir::fxhash::{FxHashMap, FxHashSet};
use chf::ir::ids::{BlockId, Reg};
use chf::ir::instr::{Instr, Operand};
use chf::ir::liveness::Liveness;
use chf::ir::testgen::{generate, GenConfig, SplitMix64};
use chf::sim::functional::{run, RunConfig};

/// Per block: `(live_in, live_out, reads, writes)`.
type Sets = (
    FxHashSet<Reg>,
    FxHashSet<Reg>,
    FxHashSet<Reg>,
    FxHashSet<Reg>,
);

/// Upward-exposed uses, unconditional kills and all defs of `blk`.
fn summary(blk: &Block) -> (FxHashSet<Reg>, FxHashSet<Reg>, FxHashSet<Reg>) {
    let mut gen = FxHashSet::default();
    let mut kill = FxHashSet::default();
    let mut defs = FxHashSet::default();
    let use_reg = |r: Reg, gen: &mut FxHashSet<Reg>, kill: &FxHashSet<Reg>| {
        if !kill.contains(&r) {
            gen.insert(r);
        }
    };
    for inst in &blk.insts {
        for u in inst.uses() {
            use_reg(u, &mut gen, &kill);
        }
        if let Some(d) = inst.def() {
            defs.insert(d);
            if inst.pred.is_none() {
                kill.insert(d);
            }
        }
    }
    for e in &blk.exits {
        if let Some(p) = e.pred {
            use_reg(p.reg, &mut gen, &kill);
        }
        if let ExitTarget::Return(Some(Operand::Reg(r))) = e.target {
            use_reg(r, &mut gen, &kill);
        }
    }
    (gen, kill, defs)
}

/// The reference solver. An edge to a block that does not exist
/// contributes nothing.
fn naive(f: &Function) -> FxHashMap<BlockId, Sets> {
    let ids: Vec<BlockId> = f.block_ids().collect();
    let sums: FxHashMap<BlockId, _> = ids.iter().map(|&b| (b, summary(f.block(b)))).collect();
    let mut live_in: FxHashMap<BlockId, FxHashSet<Reg>> = FxHashMap::default();
    let mut live_out: FxHashMap<BlockId, FxHashSet<Reg>> = FxHashMap::default();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &ids {
            let mut out = FxHashSet::default();
            for s in f.block(b).successors() {
                if let Some(li) = live_in.get(&s) {
                    out.extend(li.iter().copied());
                }
            }
            let (gen, kill, _) = &sums[&b];
            let mut inn: FxHashSet<Reg> = out.difference(kill).copied().collect();
            inn.extend(gen.iter().copied());
            if live_out.get(&b) != Some(&out) || live_in.get(&b) != Some(&inn) {
                changed = true;
                live_out.insert(b, out);
                live_in.insert(b, inn);
            }
        }
    }
    ids.iter()
        .map(|&b| {
            let (gen, _, defs) = &sums[&b];
            let (li, lo) = (live_in[&b].clone(), live_out[&b].clone());
            let reads = gen.intersection(&li).copied().collect();
            let writes = defs.intersection(&lo).copied().collect();
            (b, (li, lo, reads, writes))
        })
        .collect()
}

/// `lv` describes `f` exactly: it equals a solve from scratch and the
/// reference on every block.
fn assert_exact(lv: &Liveness, f: &Function, what: &str) {
    let fresh = Liveness::compute(f);
    assert!(
        *lv == fresh,
        "{what}: refreshed solution differs from compute\n{f}"
    );
    for (b, (li, lo, reads, writes)) in naive(f) {
        assert_eq!(lv.live_in(b).to_set(), li, "{what}: live_in({b})\n{f}");
        assert_eq!(lv.live_out(b).to_set(), lo, "{what}: live_out({b})\n{f}");
        assert_eq!(lv.register_reads(b).to_set(), reads, "{what}: reads({b})");
        assert_eq!(
            lv.register_writes(b).to_set(),
            writes,
            "{what}: writes({b})"
        );
    }
}

fn generated(seeds: std::ops::Range<u64>, max_depth: u32) -> impl Iterator<Item = (u64, Function)> {
    let cfg = GenConfig {
        max_depth,
        ..GenConfig::default()
    };
    seeds.map(move |seed| (seed, generate(seed, &cfg)))
}

#[test]
fn compute_matches_the_reference_on_generated_programs() {
    let default_depth = GenConfig::default().max_depth;
    for (seed, f) in generated(0..120, default_depth).chain(generated(1000..1040, 4)) {
        assert_exact(&Liveness::compute(&f), &f, &format!("seed {seed}"));
    }
}

#[test]
fn compute_matches_the_reference_on_every_workload() {
    let suite: Vec<_> = chf::workloads::microbenchmarks()
        .into_iter()
        .chain(chf::workloads::spec_suite())
        .collect();
    assert_eq!(suite.len(), 43);
    for w in suite {
        assert_exact(&Liveness::compute(&w.function), &w.function, &w.name);
    }
}

/// `e: x = p0; i = 0 → h`, `h: t = x + i; store t → l`,
/// `l: i = i + 1; i < 10 ? h : out`, `out: ret i`. `x` is carried around
/// the two-block loop and `t = x + i` is its only use.
fn loop_with_carried_register() -> (Function, Reg, BlockId, BlockId) {
    let mut fb = FunctionBuilder::new("carried", 1);
    // The latch gets the lower id: the solver visits blocks in descending
    // id order, so `h` reads the latch's rows before the latch is redone.
    let (e, l, h, out) = (
        fb.create_block(),
        fb.create_block(),
        fb.create_block(),
        fb.create_block(),
    );
    fb.switch_to(e);
    let x = fb.mov(Operand::Reg(fb.param(0)));
    let i = fb.mov(Operand::Imm(0));
    fb.jump(h);
    fb.switch_to(h);
    let t = fb.add(Operand::Reg(x), Operand::Reg(i));
    fb.store(Operand::Imm(0), Operand::Reg(t));
    fb.jump(l);
    fb.switch_to(l);
    fb.push(Instr::add(i, Operand::Reg(i), Operand::Imm(1)));
    let c = fb.cmp_lt(Operand::Reg(i), Operand::Imm(10));
    fb.branch(c, h, out);
    fb.switch_to(out);
    fb.ret(Some(Operand::Reg(i)));
    (fb.build().unwrap(), x, h, l)
}

#[test]
fn deleting_the_only_use_of_a_loop_carried_register_frees_it() {
    let (mut f, x, h, l) = loop_with_carried_register();
    let mut lv = Liveness::compute(&f);
    assert!(lv.live_in(h).contains(&x) && lv.live_in(l).contains(&x));
    // Drop `t = x + i` and the store of `t`. The latch `l` is unchanged,
    // but its old rows must not keep `x` alive around the loop.
    f.block_mut(h).insts.clear();
    lv.refresh(&f);
    assert_exact(&lv, &f, "use deleted");
    for b in [f.entry, h, l] {
        assert!(
            !lv.live_out(b).contains(&x),
            "x outlived its last use in {b}"
        );
    }
}

/// One random edit of `f`. Returns a label for failure messages.
fn random_edit(f: &mut Function, rng: &mut SplitMix64) -> &'static str {
    let ids: Vec<BlockId> = f.block_ids().collect();
    let pick = |rng: &mut SplitMix64, from: &[BlockId]| from[rng.below(from.len() as u64) as usize];
    let any_reg =
        |rng: &mut SplitMix64, f: &Function| Reg(rng.below(f.reg_count().max(1) as u64) as u32);
    match rng.below(7) {
        0 => {
            // Delete an instruction: often the only use of some register.
            let b = pick(rng, &ids);
            let n = f.block(b).insts.len();
            if n == 0 {
                return "delete (empty block)";
            }
            f.block_mut(b).insts.remove(rng.below(n as u64) as usize);
            "delete instruction"
        }
        1 => {
            // Add a use, sometimes as a predicated (non-killing) def.
            let b = pick(rng, &ids);
            let (u, d) = (any_reg(rng, f), any_reg(rng, f));
            let inst = if rng.chance(50) {
                Instr::store(Operand::Imm(8), Operand::Reg(u))
            } else {
                Instr::add(d, Operand::Reg(u), Operand::Imm(1))
                    .predicated(chf::ir::instr::Pred::on_true(any_reg(rng, f)))
            };
            let at = rng.below(f.block(b).insts.len() as u64 + 1) as usize;
            f.block_mut(b).insts.insert(at, inst);
            "add use"
        }
        2 => {
            // Retarget one exit to another block.
            let b = pick(rng, &ids);
            let exits: Vec<usize> = (0..f.block(b).exits.len())
                .filter(|&i| f.block(b).exits[i].target.block().is_some())
                .collect();
            if exits.is_empty() {
                return "retarget (no block exit)";
            }
            let e = exits[rng.below(exits.len() as u64) as usize];
            let to = pick(rng, &ids);
            f.block_mut(b).exits[e].target = ExitTarget::Block(to);
            "retarget exit"
        }
        3 => {
            // Duplicate a block and send one predecessor's edge to the copy.
            let b = pick(rng, &ids);
            let copy = f.duplicate_block(b);
            let p = pick(rng, &ids);
            f.block_mut(p).retarget_exits(b, copy);
            "duplicate block"
        }
        4 => {
            // Remove a block; its predecessors keep their (dangling) edges
            // half of the time.
            let b = pick(rng, &ids);
            if b == f.entry {
                return "remove (entry)";
            }
            f.remove_block(b);
            if rng.chance(50) {
                let to = f.entry;
                for p in f.block_ids().collect::<Vec<_>>() {
                    if f.block(p).successors().any(|s| s == b) {
                        f.block_mut(p).retarget_exits(b, to);
                    }
                }
            }
            "remove block"
        }
        5 => {
            // Grow the register file past the next multiple of 64 and use
            // the newest register.
            let target = (f.reg_count() / 64 + 1) * 64 + 1;
            while f.reg_count() < target {
                f.new_reg();
            }
            let r = Reg(f.reg_count() - 1);
            let b = pick(rng, &ids);
            f.block_mut(b)
                .insts
                .insert(0, Instr::store(Operand::Imm(16), Operand::Reg(r)));
            "new_reg across a word"
        }
        _ => {
            // Mutable borrow without a change.
            let b = pick(rng, &ids);
            let _ = f.block_mut(b);
            "touch"
        }
    }
}

#[test]
fn refresh_matches_compute_after_random_edits() {
    let default_depth = GenConfig::default().max_depth;
    for (seed, mut f) in generated(0..40, default_depth).chain(generated(2000..2010, 4)) {
        let mut rng = SplitMix64::new(seed ^ 0x11fe);
        let mut lv = Liveness::compute(&f);
        for step in 0..24 {
            let what = random_edit(&mut f, &mut rng);
            // Refresh after most edits, so some refreshes see several.
            if rng.chance(70) {
                lv.refresh(&f);
                assert_exact(&lv, &f, &format!("seed {seed} step {step}: {what}"));
            }
        }
        lv.refresh(&f);
        assert_exact(&lv, &f, &format!("seed {seed}: final"));
    }
}

#[test]
fn refresh_matches_compute_across_snapshot_and_restore() {
    for (seed, mut f) in generated(100..140, 4) {
        let mut rng = SplitMix64::new(seed);
        let mut lv = Liveness::compute(&f);
        for round in 0..6 {
            let ids: Vec<BlockId> = f.block_ids().collect();
            let hb = ids[rng.below(ids.len() as u64) as usize];
            let s = ids[rng.below(ids.len() as u64) as usize];
            let before = f.to_string();
            let snap = f.snapshot_blocks([hb, s]);
            // A trial-shaped edit: change the snapshot's blocks, append a
            // copy, allocate registers (sometimes across a word).
            let copy = f.duplicate_block(s);
            f.block_mut(hb).retarget_exits(s, copy);
            f.block_mut(hb).insts.clear();
            for _ in 0..rng.below(80) {
                f.new_reg();
            }
            if s != f.entry && s != hb && rng.chance(50) {
                f.remove_block(s);
            }
            lv.refresh(&f);
            assert_exact(&lv, &f, &format!("seed {seed} round {round}: trial"));
            f.restore_blocks(snap);
            assert_eq!(f.to_string(), before);
            lv.refresh(&f);
            assert_exact(&lv, &f, &format!("seed {seed} round {round}: restored"));
            // Commit something now and then, so rounds start from new states.
            if rng.chance(50) {
                random_edit(&mut f, &mut rng);
            }
        }
    }
}

#[test]
fn refresh_matches_compute_after_returning_to_an_older_clone() {
    for (seed, mut f) in generated(200..230, GenConfig::default().max_depth) {
        let mut rng = SplitMix64::new(seed);
        let mut lv = Liveness::compute(&f);
        let mut history = vec![f.clone()];
        for step in 0..16 {
            if step % 5 == 4 {
                f = history[rng.below(history.len() as u64) as usize].clone();
            } else {
                random_edit(&mut f, &mut rng);
                history.push(f.clone());
            }
            lv.refresh(&f);
            assert_exact(&lv, &f, &format!("seed {seed} step {step}"));
        }
    }
}

/// Formation at `service-mix` size with debug assertions on: every trial
/// checks its refreshed liveness against a solve from scratch, and the
/// clean-block memo checks the block versions it trusts.
#[test]
fn formation_guards_hold_on_larger_generated_programs() {
    let config = CompileConfig::convergent();
    for (seed, f) in generated(0x5e41_1ce0_0000..0x5e41_1ce0_0010, 4) {
        let args: Vec<i64> = (0..f.params as i64).map(|i| 3 * i - 2).collect();
        let base = run(&f, &args, &[], &RunConfig::default()).unwrap();
        let compiled = try_compile(&f, &base.profile, &config)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let after = run(&compiled.function, &args, &[], &RunConfig::default()).unwrap();
        assert_eq!(after.digest(), base.digest(), "seed {seed:#x}");
    }
}
