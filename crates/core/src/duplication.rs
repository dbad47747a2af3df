//! Head and tail duplication (paper §4.1, Figures 2–4).
//!
//! The paper's central observation is that tail duplication, loop peeling,
//! and loop unrolling are *one* CFG transformation applied in three
//! situations. To merge a successor `S` that has side entrances (other
//! predecessors, possibly including a loop back edge), the compiler:
//!
//! 1. copies `S` to `S'`;
//! 2. redirects the hyperblock's edge `HB → S` to `S'`;
//! 3. leaves `S'`'s exits pointing wherever `S`'s pointed.
//!
//! If `S` was an ordinary merge point, the result is classical **tail
//! duplication** (Figure 2). If `S` is a loop header reached by a loop-entry
//! edge, step 3 makes `S' → S` a loop entrance and the copy is a **peeled
//! iteration** (Figure 3). If `HB` *is* the loop (`HB → S` is its own back
//! edge), step 3 yields a fresh back edge `S' → S` and the copy is an
//! **unrolled iteration** (Figure 4) — and because the transformation
//! "saves the original loop body and appends one additional iteration at a
//! time", unrolling is not restricted to powers of two.
//!
//! After duplication, `S'` has exactly one predecessor and
//! [`crate::ifconvert::combine`] can fold it into `HB`.

use chf_ir::block::ExitTarget;
use chf_ir::dom::DomTree;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;

/// How a duplication is classified, for the paper's `m/t/u/p` statistics
/// and for policies that limit tail duplication.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DuplicationKind {
    /// `S` had one predecessor; no copy was needed.
    None,
    /// `HB → S` is a back edge of the loop headed by `S` — the copy is an
    /// unrolled iteration (Figure 4).
    Unroll,
    /// `S` heads a loop and `HB → S` enters it — the copy is a peeled
    /// iteration (Figure 3).
    Peel,
    /// Classical tail duplication of a merge point (Figure 2).
    Tail,
}

/// Classify what merging `s` into `hb` requires, per Figure 5 lines 7–15.
///
/// `dom` is the dominator tree of `f`. Its two loop questions are the
/// natural-loop definitions themselves, so no loop forest is built:
/// * `hb → s` is a back edge when `hb` is reachable, the edge exists, and
///   `s` dominates `hb`;
/// * `s` heads a loop when it dominates one of its (reachable)
///   predecessors: that edge is a back edge into `s`.
pub fn classify(f: &Function, dom: &DomTree, hb: BlockId, s: BlockId) -> DuplicationKind {
    let back_edge =
        dom.is_reachable(hb) && f.block(hb).successors().any(|t| t == s) && dom.dominates(s, hb);
    if back_edge {
        // Figure 5 line 10 names the self-loop case (`HB == S`); after prior
        // merges a multi-block loop body has collapsed into its header, so
        // any back edge from the hyperblock reaching a header it belongs to
        // is an unroll.
        return DuplicationKind::Unroll;
    }
    if chf_ir::cfg::predecessor_count(f, s) == 1 {
        return DuplicationKind::None;
    }
    if dom.preds(s).iter().any(|&p| dom.dominates(s, p)) {
        return DuplicationKind::Peel;
    }
    DuplicationKind::Tail
}

/// Duplicate `s` so that `hb` gets a private copy: copy `s`, retarget every
/// `hb → s` exit to the copy, and rescale the profile so the copy carries
/// the flow that entered through `hb`.
///
/// Returns the id of the copy.
///
/// # Panics
/// Panics if `hb` has no exit targeting `s`.
pub fn duplicate_for_merge(f: &mut Function, hb: BlockId, s: BlockId) -> BlockId {
    let copy = f.duplicate_block(s);

    // Flow into the copy = profile flow along hb -> s.
    let inflow: f64 = f
        .block(hb)
        .exits
        .iter()
        .filter(|e| e.target == ExitTarget::Block(s))
        .map(|e| e.count)
        .sum();

    let retargeted = f.block_mut(hb).retarget_exits(s, copy);
    assert!(retargeted > 0, "no edge {hb} -> {s} to retarget");

    // Rescale profiles: the original keeps the remaining flow, the copy gets
    // the diverted flow, with exit counts split proportionally.
    let s_freq = f.block(s).freq;
    let share = if s_freq > 0.0 {
        (inflow / s_freq).min(1.0)
    } else {
        0.0
    };
    {
        let blk = f.block_mut(s);
        blk.freq = (blk.freq - inflow).max(0.0);
        for e in &mut blk.exits {
            e.count *= 1.0 - share;
        }
    }
    {
        let blk = f.block_mut(copy);
        blk.freq = inflow;
        for e in &mut blk.exits {
            e.count *= share;
        }
    }
    copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_ir::verify::verify;

    fn reg(r: chf_ir::ids::Reg) -> Operand {
        Operand::Reg(r)
    }

    /// Figure 2 shape: A -> {B, D}; B -> D; D -> ret   (D is a merge point)
    fn fig2() -> (Function, BlockId, BlockId, BlockId) {
        let mut fb = FunctionBuilder::new("fig2", 1);
        let a = fb.create_named_block("A");
        let b = fb.create_named_block("B");
        let d = fb.create_named_block("D");
        fb.switch_to(a);
        let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(5));
        fb.branch(c, b, d);
        fb.switch_to(b);
        fb.store(Operand::Imm(1), Operand::Imm(11));
        fb.jump(d);
        fb.switch_to(d);
        let x = fb.load(Operand::Imm(1));
        fb.ret(Some(reg(x)));
        (fb.build().unwrap(), a, b, d)
    }

    /// Figure 3/4 shape: E -> B; B -> B | C; C -> ret   (B self-loop header)
    fn self_loop() -> (Function, BlockId, BlockId, BlockId) {
        let mut fb = FunctionBuilder::new("selfloop", 1);
        let e = fb.create_named_block("E");
        let b = fb.create_named_block("B");
        let c = fb.create_named_block("C");
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(b);
        fb.switch_to(b);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let t = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(t, b, c);
        fb.switch_to(c);
        fb.ret(Some(reg(i)));
        (fb.build().unwrap(), e, b, c)
    }

    #[test]
    fn classify_merge_point_as_tail() {
        let (f, a, b, d) = fig2();
        let dom = DomTree::compute(&f);
        assert_eq!(classify(&f, &dom, a, b), DuplicationKind::None);
        assert_eq!(classify(&f, &dom, a, d), DuplicationKind::Tail);
        assert_eq!(classify(&f, &dom, b, d), DuplicationKind::Tail);
    }

    #[test]
    fn classify_loop_cases() {
        let (f, e, b, c) = self_loop();
        let dom = DomTree::compute(&f);
        // Entering the loop header from outside = peel.
        assert_eq!(classify(&f, &dom, e, b), DuplicationKind::Peel);
        // The self back edge = unroll.
        assert_eq!(classify(&f, &dom, b, b), DuplicationKind::Unroll);
        // The loop exit has one predecessor and is no header.
        assert_eq!(classify(&f, &dom, b, c), DuplicationKind::None);
    }

    #[test]
    fn tail_duplication_preserves_behaviour() {
        let (mut f, a, _b, d) = fig2();
        let orig = f.clone();
        let copy = duplicate_for_merge(&mut f, a, d);
        verify(&f).unwrap();
        assert_eq!(chf_ir::cfg::predecessor_count(&f, copy), 1);
        // Original d still reachable from b.
        assert!(f.block(BlockId(1)).successors().any(|s| s == d));
        let run = |f: &Function, x: i64| {
            chf_sim::functional::run(f, &[x], &[], &Default::default())
                .unwrap()
                .digest()
        };
        for x in [0, 4, 5, 9] {
            assert_eq!(run(&f, x), run(&orig, x));
        }
    }

    #[test]
    fn peel_creates_loop_entrance() {
        let (mut f, e, b, _c) = self_loop();
        let orig = f.clone();
        let copy = duplicate_for_merge(&mut f, e, b);
        verify(&f).unwrap();
        // The copy's back edge targets the original header: a loop entrance.
        assert!(f.block(copy).successors().any(|s| s == b));
        assert!(f.block(e).successors().any(|s| s == copy));
        let run = |f: &Function, x: i64| {
            chf_sim::functional::run(f, &[x], &[], &Default::default())
                .unwrap()
                .digest()
        };
        for x in [0, 1, 3, 10] {
            assert_eq!(run(&f, x), run(&orig, x));
        }
    }

    #[test]
    fn unroll_creates_new_back_edge() {
        let (mut f, _e, b, _c) = self_loop();
        let orig = f.clone();
        let copy = duplicate_for_merge(&mut f, b, b);
        verify(&f).unwrap();
        // B -> B' and B' -> B: the loop now alternates between the two.
        assert!(f.block(b).successors().any(|s| s == copy));
        assert!(f.block(copy).successors().any(|s| s == b));
        let run = |f: &Function, x: i64| {
            chf_sim::functional::run(f, &[x], &[], &Default::default())
                .unwrap()
                .digest()
        };
        for x in [0, 1, 2, 5, 6] {
            assert_eq!(run(&f, x), run(&orig, x));
        }
    }

    #[test]
    fn profile_split_on_duplication() {
        let (mut f, a, _b, d) = fig2();
        // Stamp a profile: a executed 100 times, 30 go directly a->d,
        // 70 via b; d executed 100 times.
        f.block_mut(a).freq = 100.0;
        f.block_mut(a).exits[0].count = 70.0;
        f.block_mut(a).exits[1].count = 30.0;
        f.block_mut(d).freq = 100.0;
        f.block_mut(d).exits[0].count = 100.0;
        let copy = duplicate_for_merge(&mut f, a, d);
        assert!((f.block(copy).freq - 30.0).abs() < 1e-9);
        assert!((f.block(d).freq - 70.0).abs() < 1e-9);
        assert!((f.block(copy).exits[0].count - 30.0).abs() < 1e-9);
        assert!((f.block(d).exits[0].count - 70.0).abs() < 1e-9);
    }
}
