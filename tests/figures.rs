//! Integration tests reproducing the paper's illustrative figures (1–4)
//! as executable transformations.

use chf::core::duplication::{classify, duplicate_for_merge, DuplicationKind};
use chf::core::ifconvert::combine;
use chf::core::pipeline::{compile, CompileConfig, PhaseOrdering};
use chf::ir::builder::FunctionBuilder;
use chf::ir::dom::DomTree;
use chf::ir::function::Function;
use chf::ir::ids::{BlockId, Reg};
use chf::ir::instr::Operand;
use chf::ir::loops::LoopForest;
use chf::ir::verify::verify;
use chf::sim::functional::{profile_run, run, RunConfig};

fn reg(r: Reg) -> Operand {
    Operand::Reg(r)
}

fn digest(f: &Function, args: &[i64]) -> (Option<i64>, Vec<(i64, i64)>) {
    run(f, args, &[], &RunConfig::default()).unwrap().digest()
}

/// Figure 2: A branches to B or D; B falls into D (merge point).
fn fig2() -> (Function, BlockId, BlockId, BlockId) {
    let mut fb = FunctionBuilder::new("fig2", 1);
    let a = fb.create_named_block("A");
    let b = fb.create_named_block("B");
    let d = fb.create_named_block("D");
    fb.switch_to(a);
    let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(5));
    fb.branch(c, b, d);
    fb.switch_to(b);
    fb.store(Operand::Imm(0), Operand::Imm(1));
    fb.jump(d);
    fb.switch_to(d);
    let x = fb.load(Operand::Imm(0));
    let y = fb.add(reg(x), reg(fb.param(0)));
    fb.ret(Some(reg(y)));
    (fb.build().unwrap(), a, b, d)
}

/// Figures 3/4: A enters self-loop B; B exits to C.
fn fig34() -> (Function, BlockId, BlockId, BlockId) {
    let mut fb = FunctionBuilder::new("fig34", 1);
    let a = fb.create_named_block("A");
    let b = fb.create_named_block("B");
    let c = fb.create_named_block("C");
    fb.switch_to(a);
    let i = fb.mov(Operand::Imm(0));
    fb.jump(b);
    fb.switch_to(b);
    let i2 = fb.add(reg(i), Operand::Imm(1));
    fb.mov_to(i, reg(i2));
    let t = fb.cmp_lt(reg(i), reg(fb.param(0)));
    fb.branch(t, b, c);
    fb.switch_to(c);
    fb.ret(Some(reg(i)));
    (fb.build().unwrap(), a, b, c)
}

#[test]
fn figure2_tail_duplication_sequence() {
    // (a) original CFG: D has two predecessors.
    let (mut f, a, b, d) = fig2();
    let orig = f.clone();
    assert_eq!(chf::ir::cfg::predecessor_count(&f, d), 2);
    let dom = DomTree::compute(&f);
    assert_eq!(classify(&f, &dom, a, d), DuplicationKind::Tail);

    // (c) code duplication + (d) CFG transformation.
    let d2 = duplicate_for_merge(&mut f, a, d);
    verify(&f).unwrap();
    assert_eq!(chf::ir::cfg::predecessor_count(&f, d2), 1);
    assert_eq!(chf::ir::cfg::predecessor_count(&f, d), 1);
    assert!(f.block(b).successors().any(|s| s == d), "B still reaches D");

    // (e) if-conversion of the copy into A.
    combine(&mut f, a, d2).unwrap();
    verify(&f).unwrap();
    assert!(f.block(a).is_predicated());
    for x in [0, 4, 5, 10] {
        assert_eq!(digest(&f, &[x]), digest(&orig, &[x]), "arg {x}");
    }
}

#[test]
fn figure3_head_duplication_peels() {
    let (mut f, a, b, _c) = fig34();
    let orig = f.clone();
    let dom = DomTree::compute(&f);
    assert_eq!(classify(&f, &dom, a, b), DuplicationKind::Peel);

    // (b) copy B to B'; (c) A -> B', B' -> B (loop entrance), B' -> C.
    let b2 = duplicate_for_merge(&mut f, a, b);
    verify(&f).unwrap();
    assert!(f.block(a).successors().any(|s| s == b2));
    assert!(f.block(b2).successors().any(|s| s == b), "B' -> B entrance");
    // B is still a loop header.
    let forest = LoopForest::of(&f);
    assert!(forest.is_header(b));

    // (d) if-convert B' into A: one iteration peeled.
    combine(&mut f, a, b2).unwrap();
    verify(&f).unwrap();
    for x in [0, 1, 2, 6] {
        assert_eq!(digest(&f, &[x]), digest(&orig, &[x]), "arg {x}");
    }
}

#[test]
fn figure4_head_duplication_unrolls() {
    let (mut f, _a, b, c) = fig34();
    let orig = f.clone();
    let dom = DomTree::compute(&f);
    assert_eq!(classify(&f, &dom, b, b), DuplicationKind::Unroll);

    // (b)/(c): B -> B' replaces the self edge; B' -> B is the new back edge;
    // B' -> C exists.
    let b2 = duplicate_for_merge(&mut f, b, b);
    verify(&f).unwrap();
    assert!(f.block(b).successors().any(|s| s == b2));
    assert!(
        !f.block(b).successors().any(|s| s == b),
        "self edge removed"
    );
    assert!(f.block(b2).successors().any(|s| s == b), "new back edge");
    assert!(f.block(b2).successors().any(|s| s == c));

    // (d): if-convert B' into B — two iterations per block, loop restored.
    combine(&mut f, b, b2).unwrap();
    verify(&f).unwrap();
    assert!(f.block(b).successors().any(|s| s == b), "loop back on B");
    for x in [0, 1, 2, 5, 6] {
        assert_eq!(digest(&f, &[x]), digest(&orig, &[x]), "arg {x}");
    }
    // Two iterations per block: dynamic block count of the loop halves.
    let before = run(&orig, &[20], &[], &RunConfig::default()).unwrap();
    let after = run(&f, &[20], &[], &RunConfig::default()).unwrap();
    assert!(after.blocks_executed < before.blocks_executed);
}

/// Figure 1: outer loop with two low-trip inner while loops. Convergent
/// formation must fold iterations of the inner loops into enclosing blocks
/// (the 1d shape), reducing dynamic block counts far below the original.
#[test]
fn figure1_convergence_on_nested_while_loops() {
    let mut fb = FunctionBuilder::new("fig1", 0);
    let entry = fb.create_block();
    fb.switch_to(entry);
    let acc = fb.mov(Operand::Imm(0));
    let i = fb.mov(Operand::Imm(0));
    let oh = fb.create_block();
    let ob = fb.create_block();
    let out = fb.create_block();
    fb.jump(oh);
    fb.switch_to(oh);
    let oc = fb.cmp_lt(reg(i), Operand::Imm(20));
    fb.branch(oc, ob, out);
    fb.switch_to(ob);
    // inner while loop, three trips typical
    let t0 = fb.rem(reg(i), Operand::Imm(2));
    let t = fb.add(reg(t0), Operand::Imm(2)); // 2 or 3
    let x = fb.mov(reg(t));
    let ih = fb.create_block();
    let ib = fb.create_block();
    let ix = fb.create_block();
    fb.jump(ih);
    fb.switch_to(ih);
    let icond = fb.cmp_gt(reg(x), Operand::Imm(0));
    fb.branch(icond, ib, ix);
    fb.switch_to(ib);
    let a2 = fb.add(reg(acc), reg(x));
    fb.mov_to(acc, reg(a2));
    let x2 = fb.sub(reg(x), Operand::Imm(1));
    fb.mov_to(x, reg(x2));
    fb.jump(ih);
    fb.switch_to(ix);
    let i2 = fb.add(reg(i), Operand::Imm(1));
    fb.mov_to(i, reg(i2));
    fb.jump(oh);
    fb.switch_to(out);
    fb.ret(Some(reg(acc)));
    let f = fb.build().unwrap();

    let profile = profile_run(&f, &[], &[]).unwrap();
    let base = run(&f, &[], &[], &RunConfig::default()).unwrap();

    let compiled = compile(&f, &profile, &CompileConfig::convergent());
    verify(&compiled.function).unwrap();
    let after = run(&compiled.function, &[], &[], &RunConfig::default()).unwrap();
    assert_eq!(after.digest(), base.digest());
    assert!(
        after.blocks_executed * 2 < base.blocks_executed,
        "convergent formation should at least halve dynamic blocks: {} vs {}",
        after.blocks_executed,
        base.blocks_executed
    );
    // Head duplication must have fired (peeling or unrolling the inner
    // while loop).
    assert!(compiled.stats.unrolls + compiled.stats.peels > 0);

    // The discrete orderings also compile this shape correctly; individual
    // programs may favour either side (as in the paper's Table 1), but no
    // discrete ordering may be dramatically better here.
    for ordering in [PhaseOrdering::Upio, PhaseOrdering::Iupo] {
        let c = compile(&f, &profile, &CompileConfig::with_ordering(ordering));
        let r = run(&c.function, &[], &[], &RunConfig::default()).unwrap();
        assert_eq!(r.digest(), base.digest());
        assert!(
            after.blocks_executed <= r.blocks_executed * 2,
            "{} dominates convergent on Figure 1 ({} vs {})",
            ordering.label(),
            r.blocks_executed,
            after.blocks_executed
        );
    }
}
