//! Differential oracle for the event-driven rewrite: the new engines must
//! agree with the retained legacy cores *exactly* — cycle-for-cycle on the
//! timing side, bit-for-bit on the functional side — over generated
//! programs, all memory orderings, and fuel exhaustion; and every engine
//! must refuse corrupted IR with the same verifier error.
//!
//! This suite is the contract that lets `legacy-sim` be dropped after one
//! release: any divergence here is a bug in the rewrite, never a "new
//! behaviour".
#![cfg(feature = "legacy-sim")]

use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::{Operand, Pred};
use chf_ir::testgen::{generate, GenConfig};
use chf_ir::verify::{verify, VerifyError};
use chf_sim::functional::{run, run_lowered, RunConfig, SimError};
use chf_sim::timing::{simulate_timing, simulate_timing_lowered, MemoryOrdering, TimingConfig};
use chf_sim::timing_legacy::{run_legacy, simulate_timing_legacy};
use chf_sim::LoweredProgram;
use proptest::prelude::*;

const ORDERINGS: [MemoryOrdering; 3] = [
    MemoryOrdering::Exact,
    MemoryOrdering::Conservative,
    MemoryOrdering::Oracle,
];

/// Assert every observable field of two timing results is identical.
fn assert_timing_eq(
    f: &Function,
    ordering: MemoryOrdering,
    ev: &chf_sim::timing::TimingResult,
    lg: &chf_sim::timing::TimingResult,
) {
    let ctx = format!("fn {:?}, ordering {ordering:?}", f.name);
    assert_eq!(ev.cycles, lg.cycles, "cycles diverged: {ctx}");
    assert_eq!(ev.blocks_executed, lg.blocks_executed, "blocks: {ctx}");
    assert_eq!(ev.predictions, lg.predictions, "predictions: {ctx}");
    assert_eq!(
        ev.mispredictions, lg.mispredictions,
        "mispredictions: {ctx}"
    );
    assert_eq!(ev.insts_executed, lg.insts_executed, "executed: {ctx}");
    assert_eq!(ev.insts_nullified, lg.insts_nullified, "nullified: {ctx}");
    assert_eq!(ev.insts_fetched, lg.insts_fetched, "fetched: {ctx}");
    assert_eq!(ev.ret, lg.ret, "ret: {ctx}");
    assert_eq!(ev.digest(), lg.digest(), "memory digest: {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Event-driven timing is cycle-identical to the legacy core on every
    /// generated program, under all three memory-ordering models.
    #[test]
    fn timing_event_matches_legacy(
        seed in any::<u64>(),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let f = generate(seed, &GenConfig::default());
        for ordering in ORDERINGS {
            let cfg = TimingConfig { memory_ordering: ordering, ..TimingConfig::trips() };
            let ev = simulate_timing(&f, &[a, b], &[], &cfg);
            let lg = simulate_timing_legacy(&f, &[a, b], &[], &cfg);
            match (ev, lg) {
                (Ok(ev), Ok(lg)) => assert_timing_eq(&f, ordering, &ev, &lg),
                (ev, lg) => prop_assert_eq!(ev.err(), lg.err()),
            }
        }
    }

    /// The lowered functional interpreter reproduces the legacy run loop
    /// bit-for-bit, including the full execution profile.
    #[test]
    fn functional_event_matches_legacy(
        seed in any::<u64>(),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let cfg = RunConfig::default();
        let f = generate(seed, &GenConfig::default());
        let ev = run(&f, &[a, b], &[], &cfg).unwrap();
        let lg = run_legacy(&f, &[a, b], &[], &cfg).unwrap();
        prop_assert_eq!(ev.digest(), lg.digest());
        prop_assert_eq!(ev.blocks_executed, lg.blocks_executed);
        prop_assert_eq!(ev.insts_executed, lg.insts_executed);
        prop_assert_eq!(ev.insts_fetched, lg.insts_fetched);
        // ProfileData has no PartialEq; compare each map.
        prop_assert_eq!(&ev.profile.block_counts, &lg.profile.block_counts);
        prop_assert_eq!(&ev.profile.exit_counts, &lg.profile.exit_counts);
        prop_assert_eq!(&ev.profile.trip_histograms, &lg.profile.trip_histograms);
    }

    /// Fuel exhaustion carries the same payload through both engines.
    #[test]
    fn fuel_exhaustion_agrees(seed in any::<u64>()) {
        let full = {
            let f = generate(seed, &GenConfig::default());
            run(&f, &[3, 7], &[], &RunConfig::default()).unwrap()
        };
        if full.blocks_executed < 4 {
            return Ok(());
        }
        let budget = full.blocks_executed / 2;
        let f = generate(seed, &GenConfig::default());
        let rc = RunConfig { max_blocks: budget, ..RunConfig::default() };
        let tc = TimingConfig { max_blocks: budget, ..TimingConfig::trips() };
        prop_assert_eq!(
            run(&f, &[3, 7], &[], &rc).err(),
            run_legacy(&f, &[3, 7], &[], &rc).err()
        );
        prop_assert_eq!(
            simulate_timing(&f, &[3, 7], &[], &tc).err(),
            simulate_timing_legacy(&f, &[3, 7], &[], &tc).err()
        );
    }
}

/// A small program with a data-dependent loop, for the corruption cases:
/// `i = r0; do { mem[i] = i; i -= 1 } while i > 0; return r0`.
fn looped() -> Function {
    use chf_ir::builder::FunctionBuilder;
    let mut fb = FunctionBuilder::new("diff-loop", 2);
    let entry = fb.create_block();
    let body = fb.create_block();
    let done = fb.create_block();
    fb.switch_to(entry);
    let i = fb.add(Operand::Reg(Reg(0)), Operand::Imm(0));
    fb.jump(body);
    fb.switch_to(body);
    fb.store(Operand::Reg(i), Operand::Reg(i));
    let t = fb.sub(Operand::Reg(i), Operand::Imm(1));
    fb.mov_to(i, Operand::Reg(t));
    let z = fb.cmp_le(Operand::Reg(i), Operand::Imm(0));
    fb.branch(z, done, body);
    fb.switch_to(done);
    fb.ret(Some(Operand::Reg(Reg(0))));
    fb.build().unwrap()
}

/// Corrupted programs (the chaos suite's bread and butter) are refused by
/// every engine, old and new, with the same verifier error and without a
/// panic.
#[test]
fn every_engine_refuses_malformed_ir_alike() {
    type Corrupt = fn(&mut Function);
    let body = BlockId(1);
    let cases: [(Corrupt, VerifyError); 11] = [
        (
            |f| f.block_mut(BlockId(1)).insts[0].a = Some(Operand::Reg(Reg(999))),
            VerifyError::RegisterOutOfRange(body, 999),
        ),
        (
            |f| f.block_mut(BlockId(1)).insts[1].dst = Some(Reg(998)),
            VerifyError::RegisterOutOfRange(body, 998),
        ),
        (
            |f| f.block_mut(BlockId(1)).insts[0].pred = Some(Pred::on_true(Reg(997))),
            VerifyError::RegisterOutOfRange(body, 997),
        ),
        (
            |f| f.block_mut(BlockId(1)).exits[0].pred = Some(Pred::on_true(Reg(996))),
            VerifyError::RegisterOutOfRange(body, 996),
        ),
        (
            |f| {
                f.block_mut(BlockId(2)).exits[0].target =
                    ExitTarget::Return(Some(Operand::Reg(Reg(4444))))
            },
            VerifyError::RegisterOutOfRange(BlockId(2), 4444),
        ),
        (
            |f| f.block_mut(BlockId(1)).insts[0].b = None,
            VerifyError::MissingOperand(body),
        ),
        (
            |f| f.block_mut(BlockId(1)).insts[1].dst = None,
            VerifyError::MissingOperand(body),
        ),
        (
            |f| f.block_mut(BlockId(1)).exits[1].target = ExitTarget::Block(BlockId(77)),
            VerifyError::DanglingEdge(body, BlockId(77)),
        ),
        (
            |f| f.block_mut(BlockId(1)).exits[1].pred = Some(Pred::on_true(Reg(0))),
            VerifyError::NoDefaultExit(body),
        ),
        (
            |f| f.block_mut(BlockId(1)).exits.clear(),
            VerifyError::NoExits(body),
        ),
        (|f| f.entry = BlockId(9999), VerifyError::MissingEntry),
    ];
    let base = looped();
    assert_eq!(verify(&base), Ok(()));
    assert_eq!(
        (base.block(body).insts.len(), base.block(body).exits.len()),
        (4, 2),
        "the corruptions index `looped`'s loop body"
    );
    let (args, rc, tc) = ([5, 0], RunConfig::default(), TimingConfig::trips());
    for (corrupt, expected) in cases {
        let mut f = base.clone();
        corrupt(&mut f);
        let p = LoweredProgram::lower(&f);
        let answers = [
            ("run", run(&f, &args, &[], &rc).err()),
            ("run_lowered", run_lowered(&p, &args, &[], &rc).err()),
            ("run_legacy", run_legacy(&f, &args, &[], &rc).err()),
            (
                "simulate_timing",
                simulate_timing(&f, &args, &[], &tc).err(),
            ),
            (
                "simulate_timing_lowered",
                simulate_timing_lowered(&p, &args, &[], &tc).err(),
            ),
            (
                "simulate_timing_legacy",
                simulate_timing_legacy(&f, &args, &[], &tc).err(),
            ),
        ];
        for (engine, answer) in answers {
            assert_eq!(
                answer,
                Some(SimError::Malformed(expected.clone())),
                "{engine}"
            );
        }
    }
}

/// Errors discard all state: only the error value is observable, and it
/// matches across engines for a program that runs out of fuel mid-loop.
#[test]
fn out_of_fuel_payload_matches() {
    let f = looped();
    let rc = RunConfig {
        max_blocks: 3,
        ..RunConfig::default()
    };
    let tc = TimingConfig {
        max_blocks: 3,
        ..TimingConfig::trips()
    };
    let ev = run(&f, &[100, 0], &[], &rc).unwrap_err();
    let lg = run_legacy(&f, &[100, 0], &[], &rc).unwrap_err();
    assert_eq!(ev, lg);
    assert!(matches!(ev, SimError::OutOfFuel { executed: 3 }));
    assert_eq!(
        simulate_timing(&f, &[100, 0], &[], &tc).unwrap_err(),
        simulate_timing_legacy(&f, &[100, 0], &[], &tc).unwrap_err()
    );
}
