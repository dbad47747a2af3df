//! Differential oracle for committed merges.
//!
//! The verifier ([`chf_ir::verify`](mod@chf_ir::verify)) catches *structural* damage; it cannot
//! catch a merge that produces well-formed IR computing the wrong answer
//! (a mis-predicated speculated instruction, a dropped side effect). The
//! oracle closes that gap: after each committed merge, the transformed
//! function is re-executed on a deterministic set of seeded inputs against
//! its pre-merge self. On any divergence the merge is undone from the
//! pre-merge clone — formation degrades gracefully instead of emitting a
//! miscompile — and a greedy reducer shrinks the offending function to a
//! minimal `.til` reproducer under `results/repros/`.
//!
//! The oracle re-runs the functional simulator once per committed merge, so
//! it is a hardening/debugging tool (chaos campaigns, bug triage), not a
//! production default: [`crate::FormationConfig::oracle`] is `None` unless
//! explicitly enabled.
//!
//! # Repro workflow
//!
//! A repro file is a self-describing textual IR function: `#`-comment
//! headers record the failing merge (`hb <- s`), the diverging arguments
//! and the oracle seed, followed by the reduced pre-merge function, which
//! [`chf_ir::parse::parse_function`] reads back directly (the parser skips
//! comments). Re-running the named merge on the parsed function, in a
//! fresh [`FormationCtx`], and comparing executions reproduces the
//! divergence.

use crate::convergent::{merge_blocks, FormationConfig, FormationCtx, Reject};
use crate::error::ChfError;
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::testgen::SplitMix64;
use chf_sim::functional::{run, run_lowered, RunConfig};
use chf_sim::LoweredProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Configuration of the differential oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleConfig {
    /// Seed for the deterministic input generator.
    pub seed: u64,
    /// Number of seeded inputs to replay per committed merge.
    pub inputs: usize,
    /// Fuel per replay (dynamic block executions) — bounds the cost of
    /// oracling a function whose merge introduced an infinite loop.
    pub max_blocks: u64,
    /// Where to write minimized `.til` reproducers; `None` disables repro
    /// writing (the mismatch is still reported and rolled back).
    pub repro_dir: Option<PathBuf>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            seed: 0x0C0FFEE,
            inputs: 4,
            max_blocks: 500_000,
            repro_dir: None,
        }
    }
}

impl OracleConfig {
    /// The simulator configuration used for oracle replays.
    fn run_config(&self) -> RunConfig {
        RunConfig {
            max_blocks: self.max_blocks,
            check_uninit: false,
            collect_trip_counts: false,
        }
    }

    /// The deterministic argument vector for replay number `i` of a
    /// function with `params` parameters. Small signed values (−4..20):
    /// enough to drive testgen loops both ways without overflowing fuel.
    fn args_for(&self, rng: &mut SplitMix64, params: u32) -> Vec<i64> {
        (0..params).map(|_| rng.below(24) as i64 - 4).collect()
    }
}

/// Replay `orig` and `new` on the oracle's seeded inputs; return the first
/// argument vector on which they disagree, or `None` if all replays match.
///
/// Inputs on which *`orig` itself* fails to execute (out of fuel, malformed)
/// are skipped — the oracle judges the transformation, not the program.
/// `new` failing where `orig` succeeded *is* a divergence.
///
/// Each function is lowered **once** and the pre-decoded handle replayed
/// across all seeded inputs; decoding is the fixed cost, replay the
/// marginal one (this is the hot path of chaos campaigns, which oracle
/// every committed merge).
pub fn first_mismatch(orig: &Function, new: &Function, cfg: &OracleConfig) -> Option<Vec<i64>> {
    let run_cfg = cfg.run_config();
    let lowered_orig = LoweredProgram::lower(orig);
    let lowered_new = LoweredProgram::lower(new);
    let mut rng = SplitMix64::new(cfg.seed);
    for _ in 0..cfg.inputs {
        let args = cfg.args_for(&mut rng, orig.params);
        let Ok(a) = run_lowered(&lowered_orig, &args, &[], &run_cfg) else {
            continue;
        };
        match run_lowered(&lowered_new, &args, &[], &run_cfg) {
            Ok(b) if b.digest() == a.digest() => {}
            _ => return Some(args),
        }
    }
    None
}

/// Post-commit hook called from the formation loop after a merge of `s`
/// into `hb` committed: replay the function against its pre-merge self.
///
/// On divergence: `f` is restored from `orig` (undoing the commit), a
/// minimized reproducer is written if configured, and the mismatch is
/// returned for the caller to surface as a skipped trial.
///
/// # Errors
/// [`ChfError::OracleMismatch`] when a seeded input diverges.
pub fn post_commit_check(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
    orig: &Function,
) -> Result<(), ChfError> {
    let cfg = config.oracle.as_ref().expect("caller enables the oracle");
    let Some(args) = first_mismatch(orig, f, cfg) else {
        return Ok(());
    };
    // Undo the commit: the pre-merge clone is the authoritative state.
    *f = orig.clone();
    let repro = cfg.repro_dir.as_ref().and_then(|dir| {
        let reduced = reduce_merge_mismatch(orig.clone(), hb, s, config, &args, cfg);
        write_repro(dir, &reduced, hb, s, &args, cfg.seed)
    });
    Err(ChfError::OracleMismatch {
        function: f.name.clone(),
        args,
        repro,
    })
}

/// Whether re-attempting the merge `hb <- s` on `h` still exhibits a
/// divergence on `args` (or panics — a crash reproducer is equally useful).
///
/// The merge re-runs under a *stripped* configuration (no oracle, no chaos)
/// so reduction cannot recurse into the oracle or re-inject faults, and in
/// a fresh context, since a merge that panics may leave its context
/// half-updated. Its trial is still verified: a reduced case whose merge
/// the verifier refuses is rolled back and so does not reproduce, which
/// keeps the reducer on the behaviour change it was given.
fn reproduces(
    h: &Function,
    hb: BlockId,
    s: BlockId,
    plain: &FormationConfig,
    args: &[i64],
    run_cfg: &RunConfig,
) -> bool {
    let mut merged = h.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = FormationCtx::default();
        merge_blocks(&mut merged, hb, s, plain, None, &mut ctx)
    }));
    match outcome {
        Err(_) => return true, // the reduced case crashes the merge: keep it
        Ok(Ok(_) | Err(Reject::Vanished)) => {}
        // Every other rejection leaves the function as it was found.
        Ok(Err(_)) => return false,
    }
    match (run(h, args, &[], run_cfg), run(&merged, args, &[], run_cfg)) {
        (Ok(a), Ok(b)) => a.digest() != b.digest(),
        (Ok(_), Err(_)) => true,
        (Err(_), _) => false, // baseline no longer executes: over-reduced
    }
}

/// Remove block `b` from `f`, dropping predicated exits that target it and
/// turning unpredicated ones into bare returns, so the CFG stays total.
fn detach_block(f: &mut Function, b: BlockId) {
    let ids: Vec<BlockId> = f.block_ids().collect();
    for id in ids {
        if id == b {
            continue;
        }
        let blk = f.block_mut(id);
        blk.exits
            .retain(|e| e.pred.is_none() || e.target != ExitTarget::Block(b));
        for e in &mut blk.exits {
            if e.target == ExitTarget::Block(b) {
                e.target = ExitTarget::Return(None);
            }
        }
    }
    f.remove_block(b);
}

/// Greedy property-preserving reducer: repeatedly try to (1) delete whole
/// blocks, (2) delete instructions, (3) delete predicated exits — keeping
/// each deletion only while `keeps` still accepts the candidate. Runs to a
/// fixpoint (bounded sweeps). Blocks in `pinned` are never deleted (the
/// entry is always pinned).
///
/// The oracle drives this with "still verifies and the failing merge still
/// diverges"; the trace-corpus fuzzer reuses it with "still lands in the
/// same coverage cell" to shrink admitted entries.
pub fn greedy_reduce(
    mut h: Function,
    pinned: &[BlockId],
    keeps: &dyn Fn(&Function) -> bool,
) -> Function {
    const MAX_SWEEPS: usize = 8;
    for _ in 0..MAX_SWEEPS {
        let mut changed = false;
        // Pass 1: whole blocks (entry and pinned blocks are load-bearing).
        for b in h.block_ids().collect::<Vec<_>>() {
            if b == h.entry || pinned.contains(&b) {
                continue;
            }
            let mut cand = h.clone();
            detach_block(&mut cand, b);
            if keeps(&cand) {
                h = cand;
                changed = true;
            }
        }
        // Pass 2: individual instructions.
        for b in h.block_ids().collect::<Vec<_>>() {
            let mut i = 0;
            while h.contains_block(b) && i < h.block(b).insts.len() {
                let mut cand = h.clone();
                cand.block_mut(b).insts.remove(i);
                if keeps(&cand) {
                    h = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        // Pass 3: predicated exits (the final unpredicated default stays).
        for b in h.block_ids().collect::<Vec<_>>() {
            let mut i = 0;
            while h.contains_block(b) && i < h.block(b).exits.len() {
                if h.block(b).exits[i].pred.is_none() {
                    i += 1;
                    continue;
                }
                let mut cand = h.clone();
                cand.block_mut(b).exits.remove(i);
                if keeps(&cand) {
                    h = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        if !changed {
            break;
        }
    }
    h
}

/// Divergence-preserving reduction of an oracle mismatch: [`greedy_reduce`]
/// with "the function still verifies and the merge `hb <- s` still
/// diverges on `args`" as the keep predicate, and the merge pair pinned.
fn reduce_merge_mismatch(
    h: Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
    args: &[i64],
    cfg: &OracleConfig,
) -> Function {
    let plain = FormationConfig {
        oracle: None,
        chaos: None,
        ..config.clone()
    };
    let run_cfg = cfg.run_config();
    let keeps = move |cand: &Function| {
        chf_ir::verify::verify(cand).is_ok() && reproduces(cand, hb, s, &plain, args, &run_cfg)
    };
    greedy_reduce(h, &[hb, s], &keeps)
}

/// Write `contents` to `dir/stem.til` without ever clobbering a different
/// repro: an existing file with identical contents is reused (the write is
/// a no-op dedup), while a *different* existing file — a stem collision —
/// pushes the new repro to `stem-2.til`, `stem-3.til`, … instead of
/// silently overwriting it. Returns `None` on I/O failure.
pub fn write_unique_til(dir: &Path, stem: &str, contents: &str) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    for k in 1..=1000u32 {
        let name = if k == 1 {
            format!("{stem}.til")
        } else {
            format!("{stem}-{k}.til")
        };
        let path = dir.join(name);
        match std::fs::read_to_string(&path) {
            Ok(existing) if existing == contents => return Some(path),
            Ok(_) => continue, // occupied by a different repro: keep looking
            Err(_) => {
                std::fs::write(&path, contents).ok()?;
                return Some(path);
            }
        }
    }
    None
}

/// Write a self-describing `.til` reproducer to `dir`. Returns `None` (and
/// stays silent) on any I/O failure — repro writing must never be able to
/// fail a compilation.
///
/// The filename carries the full 64-bit hash of the reduced body and the
/// diverging arguments, and [`write_unique_til`] resolves any residual
/// collision by suffixing rather than overwriting, so two distinct repros
/// can never silently alias one file.
fn write_repro(
    dir: &Path,
    f: &Function,
    hb: BlockId,
    s: BlockId,
    args: &[i64],
    seed: u64,
) -> Option<PathBuf> {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write as _;
    use std::hash::{Hash, Hasher};

    let body = f.to_string();
    let mut hasher = DefaultHasher::new();
    body.hash(&mut hasher);
    args.hash(&mut hasher);
    let stem = format!("{}-{:016x}", f.name, hasher.finish());

    let mut text = String::new();
    let _ = writeln!(
        text,
        "# differential-oracle repro: merging {s} into {hb} changes behaviour"
    );
    let _ = writeln!(text, "# diverging args: {args:?} (oracle seed {seed})");
    let _ = writeln!(
        text,
        "# to reproduce: parse this function as `f`, run \
         merge_blocks(&mut f, {hb}, {s}, &config, None, &mut FormationCtx::default()) \
         with the oracle and chaos off, compare runs"
    );
    text.push_str(&body);
    write_unique_til(dir, &stem, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::testgen::{generate, GenConfig};

    #[test]
    fn identical_functions_never_mismatch() {
        let f = generate(7, &GenConfig::default());
        let cfg = OracleConfig::default();
        assert_eq!(first_mismatch(&f, &f, &cfg), None);
    }

    #[test]
    fn detects_a_behaviour_change() {
        let f = generate(7, &GenConfig::default());
        let mut g = f.clone();
        // Sabotage: make the entry return immediately.
        let entry = g.entry;
        g.block_mut(entry).insts.clear();
        g.block_mut(entry).exits = vec![chf_ir::block::Exit::ret(Some(
            chf_ir::instr::Operand::Imm(12345),
        ))];
        let cfg = OracleConfig::default();
        assert!(
            first_mismatch(&f, &g, &cfg).is_some(),
            "early-return sabotage must be observable"
        );
    }

    #[test]
    fn unique_til_never_clobbers_and_dedups() {
        let dir = std::env::temp_dir().join(format!("chf_til_unique_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = write_unique_til(&dir, "repro", "contents A\n").unwrap();
        assert_eq!(a.file_name().unwrap(), "repro.til");
        // Same contents: dedup to the same file, no new file.
        let a2 = write_unique_til(&dir, "repro", "contents A\n").unwrap();
        assert_eq!(a, a2);
        // Different contents under the same stem: must NOT overwrite.
        let b = write_unique_til(&dir, "repro", "contents B\n").unwrap();
        assert_ne!(a, b);
        assert_eq!(std::fs::read_to_string(&a).unwrap(), "contents A\n");
        assert_eq!(std::fs::read_to_string(&b).unwrap(), "contents B\n");
        // And the collision chain dedups too.
        let b2 = write_unique_til(&dir, "repro", "contents B\n").unwrap();
        assert_eq!(b, b2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn greedy_reduce_shrinks_while_preserving_property() {
        let f = generate(5, &GenConfig::default());
        let blocks_before = f.block_count();
        let insts_before: usize = f.blocks().map(|(_, b)| b.insts.len()).sum();
        // Property: still verifies and still has at least 2 blocks.
        let keeps =
            |cand: &Function| chf_ir::verify::verify(cand).is_ok() && cand.block_count() >= 2;
        let reduced = greedy_reduce(f, &[], &keeps);
        assert!(chf_ir::verify::verify(&reduced).is_ok());
        assert!(reduced.block_count() >= 2);
        let insts_after: usize = reduced.blocks().map(|(_, b)| b.insts.len()).sum();
        assert!(
            reduced.block_count() < blocks_before || insts_after < insts_before,
            "reducer removed nothing from a generated program"
        );
    }

    /// `B0` branches on the sign of its argument to `B1` or `B2`, which
    /// return different constants.
    fn branch() -> Function {
        chf_ir::parse::parse_function(
            "fn branch(params: 1, regs: 2)\n\
             B0:\n    r1 = lt r0, #0\n  exits:\n    [r1] -> B1\n    -> B2\n\
             B1:\n  exits:\n    -> ret #1\n\
             B2:\n  exits:\n    -> ret #2\n",
        )
        .unwrap()
    }

    #[test]
    fn a_refused_or_faithful_merge_does_not_reproduce() {
        let plain = FormationConfig::default();
        let run_cfg = OracleConfig::default().run_config();
        let (b0, b1) = (BlockId(0), BlockId(1));
        // The merge commits and keeps the behaviour.
        assert!(!reproduces(&branch(), b0, b1, &plain, &[-3], &run_cfg));
        // A reduction deleted the `B0 -> B1` exit, so the merge is refused
        // (a panic would count as reproducing).
        let mut h = branch();
        h.block_mut(b0).exits.remove(0);
        assert!(!reproduces(&h, b0, b1, &plain, &[-3], &run_cfg));
    }

    #[test]
    fn mismatch_skips_inputs_where_baseline_fails() {
        let f = generate(7, &GenConfig::default());
        let cfg = OracleConfig {
            max_blocks: 0, // baseline runs out of fuel instantly
            ..OracleConfig::default()
        };
        assert_eq!(first_mismatch(&f, &f, &cfg), None);
    }
}
