//! The paper's Figures 2–4, executed: classical tail duplication, head
//! duplication as peeling, and head duplication as unrolling, each shown as
//! CFG before → after.
//!
//! Run with `cargo run --example duplication_gallery`.

use chf::core::duplication::{classify, duplicate_for_merge, DuplicationKind};
use chf::core::ifconvert::combine;
use chf::ir::builder::FunctionBuilder;
use chf::ir::dom::DomTree;
use chf::ir::function::Function;
use chf::ir::ids::BlockId;
use chf::ir::instr::Operand;

fn reg(r: chf::ir::ids::Reg) -> Operand {
    Operand::Reg(r)
}

/// Figure 2's CFG: `A -> {B, D}; B -> D` — `D` is a merge point with a side
/// entrance.
fn figure2() -> (Function, BlockId, BlockId) {
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
    fb.ret(Some(reg(x)));
    (fb.build().unwrap(), a, d)
}

/// Figures 3/4's CFG: `A -> B; B -> B | C` — `B` is a self-loop header.
fn figure34() -> (Function, BlockId, BlockId) {
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
    (fb.build().unwrap(), a, b)
}

fn show(title: &str, f: &Function) {
    println!("--- {title} ---\n{f}");
}

fn main() {
    // Figure 2: classical tail duplication.
    let (mut f, a, d) = figure2();
    let dom = DomTree::compute(&f);
    assert_eq!(classify(&f, &dom, a, d), DuplicationKind::Tail);
    show("Figure 2a: original CFG (D is a merge point)", &f);
    let d_copy = duplicate_for_merge(&mut f, a, d);
    show("Figure 2c/2d: D duplicated to D', A retargeted", &f);
    combine(&mut f, a, d_copy).unwrap();
    show("Figure 2e: D' if-converted into A", &f);

    // Figure 3: head duplication implements peeling.
    let (mut f, a, b) = figure34();
    let dom = DomTree::compute(&f);
    assert_eq!(classify(&f, &dom, a, b), DuplicationKind::Peel);
    show("Figure 3a: original CFG (B is a loop header)", &f);
    let b_copy = duplicate_for_merge(&mut f, a, b);
    show(
        "Figure 3b/3c: B peeled to B' (B' -> B is a loop entrance)",
        &f,
    );
    combine(&mut f, a, b_copy).unwrap();
    show("Figure 3d: peeled iteration if-converted into A", &f);

    // Figure 4: head duplication implements unrolling.
    let (mut f, _a, b) = figure34();
    let dom = DomTree::compute(&f);
    assert_eq!(classify(&f, &dom, b, b), DuplicationKind::Unroll);
    show("Figure 4a: original CFG (B's back edge targets itself)", &f);
    let b_copy = duplicate_for_merge(&mut f, b, b);
    show(
        "Figure 4b/4c: body copied, back edge rewired through B'",
        &f,
    );
    combine(&mut f, b, b_copy).unwrap();
    show("Figure 4d: unrolled iteration if-converted into B", &f);

    println!("All three transformations use the same duplication mechanism —");
    println!("the paper's central observation (§4.1).");
}
