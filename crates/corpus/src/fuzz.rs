//! The coverage-guided fuzzing campaign.
//!
//! One seeded, sequential loop drives four candidate sources — fresh
//! generator plans, grown plans, CFG-level mutants of corpus entries
//! (splice / insert-branch / retarget-branch), and profile perturbations —
//! and keeps only candidates that light up an unseen coverage cell. Kept
//! candidates are shrunk with the oracle's greedy reducer under a
//! cell-preserving predicate, re-measured in full, and admitted to the
//! corpus with their manifest.
//!
//! Everything is derived from [`FuzzConfig::seed`]: the same seed over the
//! same corpus produces the same report, byte for byte.

use crate::manifest::{Expect, Manifest};
use crate::measure::{cheap_cell_fueled, fxh_str, measure, outcome_key, MEASURE_FUEL};
use crate::store::{admit, load_corpus, Class, CorpusEntry};
use chf_core::oracle::greedy_reduce;
use chf_ir::function::Function;
use chf_ir::testgen::{mutate, CoverageCategory, CoverageMap, GenPlan, SplitMix64};
use chf_ir::verify::{verify_full, VerifyError};
use std::path::{Path, PathBuf};

/// Stable coverage label for a verifier refusal (variant only — the
/// offending block/register would make equivalent refusals distinct cells).
fn verify_class(e: &VerifyError) -> &'static str {
    match e {
        VerifyError::NoExits(_) => "no-exits",
        VerifyError::NoDefaultExit(_) => "no-default-exit",
        VerifyError::ExitAfterDefault(_) => "exit-after-default",
        VerifyError::DanglingEdge(..) => "dangling-edge",
        VerifyError::RegisterOutOfRange(..) => "register-out-of-range",
        VerifyError::MissingEntry => "missing-entry",
        VerifyError::UnreachableBlock(_) => "unreachable-block",
        VerifyError::PredicateUseBeforeDef(..) => "predicate-use-before-def",
    }
}

/// Largest candidate (in CFG blocks) the guided loop will measure.
pub const MAX_CANDIDATE_BLOCKS: usize = 40;

/// Campaign knobs.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed for generation and mutation.
    pub seed: u64,
    /// Coverage-guided candidates to evaluate.
    pub iters: usize,
    /// The `tests/corpus` directory.
    pub corpus_root: PathBuf,
    /// Whether to write newly-covered entries into the corpus. Campaigns
    /// report identically with this off (CI summary-only runs).
    pub admit_new: bool,
    /// Cap on rejected-class admissions per run (verifier-refusal cells are
    /// plentiful early on; the corpus needs a pin per class, not hundreds).
    pub max_rejected: usize,
    /// Cap on formed/diverging admissions per run, bounding how fast the
    /// corpus (and therefore the replay gate) can grow. Coverage is still
    /// tracked past the cap; only the writes stop.
    pub max_admit: usize,
}

impl FuzzConfig {
    /// The CI-blocking smoke profile: a short guided loop.
    pub fn smoke(corpus_root: PathBuf, seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            iters: 120,
            corpus_root,
            admit_new: true,
            max_rejected: 2,
            max_admit: 12,
        }
    }

    /// The nightly profile: `iters` guided iterations.
    pub fn long(corpus_root: PathBuf, seed: u64, iters: usize) -> FuzzConfig {
        FuzzConfig {
            seed,
            iters,
            corpus_root,
            admit_new: true,
            max_rejected: 4,
            max_admit: 50,
        }
    }
}

/// What a campaign did.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Candidates evaluated by the guided loop.
    pub evaluated: usize,
    /// Candidates filtered before coverage (baseline failure, no mutation
    /// applied, duplicate cell).
    pub filtered: usize,
    /// The full coverage map (corpus seed + guided loop).
    pub coverage: CoverageMap,
    /// Cells first reached by this run's guided loop.
    pub new_cells: usize,
    /// Corpus-relative paths of entries admitted this run.
    pub admitted: Vec<String>,
}

impl FuzzReport {
    /// The fuzz fragment of the campaign JSON summary (no braces). Every
    /// field is a pure function of (seed, corpus contents).
    pub fn json_fragment(&self) -> String {
        format!(
            "\"evaluated\":{},\"filtered\":{},\"cells\":{{{}}},\"new_cells\":{},\"admitted\":{}",
            self.evaluated,
            self.filtered,
            self.coverage.json_counts(),
            self.new_cells,
            self.admitted.len()
        )
    }
}

/// Parse a manifest `m/t/u/p` string back into the bucketed outcome key.
/// The `skipped` bit is not recoverable from `mtup` (by design — see
/// `FormationStats::mtup`), so corpus seeding treats it as clear; the
/// combined `cell` field still dedups exactly.
fn outcome_key_of_mtup(mtup: &str) -> Option<u64> {
    let mut parts = mtup.split('/').map(|p| p.parse::<u64>().ok());
    let mut next = || parts.next().flatten();
    let (m, t, u, p) = (next()?, next()?, next()?, next()?);
    let b = |n: u64| n.min(3);
    Some(b(m) | b(t) << 2 | b(u) << 4 | b(p) << 6)
}

/// Seed the coverage map and dedup set from the existing corpus.
fn seed_coverage(entries: &[CorpusEntry], coverage: &mut CoverageMap, cells: &mut Vec<u64>) {
    for e in entries {
        match e.manifest.expect {
            Expect::Rejected => {
                if let Err(err) = verify_full(&e.function) {
                    coverage.insert(CoverageCategory::OracleVerdict, fxh_str(verify_class(&err)));
                }
            }
            expect => {
                if let Some(m) = &e.manifest.measured {
                    coverage.insert(CoverageCategory::Shape, m.shape);
                    if let Some(k) = outcome_key_of_mtup(&m.mtup) {
                        coverage.insert(CoverageCategory::MergeOutcome, k);
                    }
                    coverage.insert(
                        CoverageCategory::OracleVerdict,
                        (expect == Expect::Diverges) as u64,
                    );
                    cells.push(m.cell);
                }
            }
        }
    }
}

/// One candidate: a function plus everything needed to measure and pin it.
struct Candidate {
    f: Function,
    train: Vec<i64>,
    plan: Option<GenPlan>,
    profile_mut: Option<u64>,
    provenance: String,
    stem: String,
}

/// Draw the next candidate from the seeded stream: a fresh/grown plan or a
/// CFG-level mutant of a corpus entry. Returns `None` when the drawn
/// mutation did not apply (e.g. retarget on a single-exit pool entry).
fn draw(
    rng: &mut SplitMix64,
    pool: &[(Function, Vec<i64>, Option<GenPlan>)],
    i: usize,
) -> Option<Candidate> {
    let fresh_train =
        |rng: &mut SplitMix64| vec![rng.below(17) as i64 - 8, rng.below(17) as i64 - 8];
    if pool.is_empty() || rng.chance(30) {
        // Fresh plan, randomly grown a step or two.
        let mut plan = GenPlan::new(rng.next());
        if rng.chance(50) {
            plan = plan.mutate(rng);
        }
        return Some(Candidate {
            f: plan.generate(),
            train: fresh_train(rng),
            plan: Some(plan.clone()),
            profile_mut: None,
            provenance: format!("fresh-seed plan={}", plan.describe()),
            stem: format!("gen-{:016x}", plan.seed),
        });
    }
    let (base, train, plan) = &pool[rng.below(pool.len() as u64) as usize];
    let kind =
        mutate::MutationKind::ALL[rng.below(mutate::MutationKind::ALL.len() as u64) as usize];
    let mut f = base.clone();
    let applied = match kind {
        mutate::MutationKind::Splice => {
            let donor = GenPlan::new(rng.next()).generate();
            mutate::splice(&mut f, &donor, rng)
        }
        mutate::MutationKind::InsertBranch => mutate::insert_branch(&mut f, rng),
        mutate::MutationKind::RetargetBranch => mutate::retarget_branch(&mut f, rng),
        mutate::MutationKind::PerturbProfile => {
            return Some(Candidate {
                f,
                train: train.clone(),
                plan: plan.clone(),
                profile_mut: Some(rng.next()),
                provenance: format!("mutated:{} of {}", kind.label(), base.name),
                stem: format!("mut-{}-{i}", kind.label()),
            });
        }
        mutate::MutationKind::GrowPlan => {
            let Some(p) = plan else { return None };
            let grown = p.mutate(rng);
            f = grown.generate();
            return Some(Candidate {
                f,
                train: train.clone(),
                plan: Some(grown.clone()),
                profile_mut: None,
                provenance: format!("mutated:{} plan={}", kind.label(), grown.describe()),
                stem: format!("gen-{:016x}", grown.seed),
            });
        }
    };
    if !applied {
        return None;
    }
    Some(Candidate {
        f,
        train: train.clone(),
        plan: plan.clone(),
        profile_mut: None,
        provenance: format!("mutated:{} of {}", kind.label(), base.name),
        stem: format!("mut-{}-{i}", kind.label()),
    })
}

/// Run one campaign. See the module docs for the loop structure.
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let entries = load_corpus(&config.corpus_root)?;
    let mut report = FuzzReport::default();
    let mut seen_cells: Vec<u64> = Vec::new();
    seed_coverage(&entries, &mut report.coverage, &mut seen_cells);

    // Mutation pool: every passing entry, plus its plan when recorded.
    let pool: Vec<(Function, Vec<i64>, Option<GenPlan>)> = entries
        .iter()
        .filter(|e| e.class == Class::Passing)
        .map(|e| {
            (
                e.function.clone(),
                e.manifest.train.clone(),
                e.manifest.plan.clone(),
            )
        })
        .collect();

    let mut rng = SplitMix64::new(config.seed);
    let mut admitted_rejected = 0usize;
    for i in 0..config.iters {
        let Some(cand) = draw(&mut rng, &pool, i) else {
            report.filtered += 1;
            continue;
        };
        // Size gate: formation, the tournament, and every reduction probe
        // all scale with block count, and a sprawling candidate pins the
        // same coverage cells a compact one does. Keep the corpus cheap to
        // replay forever.
        if cand.f.block_ids().count() > MAX_CANDIDATE_BLOCKS {
            report.filtered += 1;
            continue;
        }
        report.evaluated += 1;

        // Verifier-refused candidates pin detection classes in `failing/`.
        if let Err(err) = verify_full(&cand.f) {
            let class = verify_class(&err);
            if !report
                .coverage
                .insert(CoverageCategory::OracleVerdict, fxh_str(class))
            {
                report.filtered += 1;
                continue;
            }
            report.new_cells += 1;
            if config.admit_new && admitted_rejected < config.max_rejected {
                admitted_rejected += 1;
                let keeps =
                    |g: &Function| verify_full(g).err().map(|e| verify_class(&e)) == Some(class);
                let reduced = greedy_reduce(cand.f.clone(), &[], &keeps);
                // Pin the refusal replay will actually see: the canonical
                // (parsed round-trip) form, which renumbers block ids.
                let til = reduced.to_string();
                let refusal = chf_ir::parse::parse_function(&til)
                    .ok()
                    .and_then(|g| verify_full(&g).err());
                let Some(refusal) = refusal else {
                    report.filtered += 1;
                    continue;
                };
                let manifest = Manifest {
                    expect: Expect::Rejected,
                    provenance: cand.provenance.clone(),
                    plan: cand.plan.clone(),
                    train: cand.train.clone(),
                    profile_mut: None,
                    policy: "BF".into(),
                    measured: None,
                    reason: Some(refusal.to_string()),
                };
                let path = admit(
                    &config.corpus_root,
                    &format!("rej-{class}"),
                    &til,
                    &manifest,
                )?;
                report.admitted.push(rel(&config.corpus_root, &path));
            }
            continue;
        }

        // Structural triage: is the (outcome, shape) pair new?
        let Some((outcome, shape, blocks)) =
            cheap_cell_fueled(&cand.f, &cand.train, cand.profile_mut, MEASURE_FUEL)
        else {
            report.filtered += 1;
            continue;
        };
        let new_outcome = !report
            .coverage
            .contains(CoverageCategory::MergeOutcome, outcome);
        let new_shape = !report.coverage.contains(CoverageCategory::Shape, shape);
        if !new_outcome && !new_shape {
            report.filtered += 1;
            continue;
        }

        // Shrink under a cell-preserving predicate, then measure in full.
        // Probes run with fuel near the candidate's own baseline: a
        // deletion that un-bounds a loop fails the probe immediately
        // instead of burning the full measurement budget.
        let probe_fuel = (blocks.saturating_mul(4).saturating_add(1_000)).min(MEASURE_FUEL);
        let keeps = |g: &Function| {
            cheap_cell_fueled(g, &cand.train, cand.profile_mut, probe_fuel).map(|(o, s, _)| (o, s))
                == Some((outcome, shape))
        };
        let reduced = greedy_reduce(cand.f.clone(), &[], &keeps);

        // Measure exactly what replay will load: parsing renumbers block
        // ids, and the reducer leaves sparse ids behind, so a measurement
        // taken on the in-memory function can skew against the stored
        // `.til` (most directly through `profile_mut`, whose perturbation
        // is keyed by block id). Canonicalize through the text form first.
        let til = reduced.to_string();
        let Ok(canonical) = chf_ir::parse::parse_function(&til) else {
            report.filtered += 1;
            continue;
        };
        let Ok(got) = measure(&canonical, &cand.train, cand.profile_mut) else {
            report.filtered += 1;
            continue;
        };
        // Coverage is credited from the canonical measurement — the cells
        // the corpus will actually pin — not the pre-reduction candidate.
        report.new_cells += report
            .coverage
            .insert(CoverageCategory::MergeOutcome, outcome_key(&got.stats))
            as usize;
        report.new_cells += report
            .coverage
            .insert(CoverageCategory::Shape, got.measured.shape)
            as usize;
        report.new_cells += report
            .coverage
            .insert(CoverageCategory::OracleVerdict, got.diverged as u64)
            as usize;

        if seen_cells.contains(&got.measured.cell) {
            continue;
        }
        seen_cells.push(got.measured.cell);
        if config.admit_new && report.admitted.len() < config.max_admit + admitted_rejected {
            let manifest = Manifest {
                expect: if got.diverged {
                    Expect::Diverges
                } else {
                    Expect::Formed
                },
                provenance: cand.provenance,
                plan: cand.plan,
                train: cand.train,
                profile_mut: cand.profile_mut,
                policy: "BF".into(),
                measured: Some(got.measured),
                reason: None,
            };
            let path = admit(&config.corpus_root, &cand.stem, &til, &manifest)?;
            report.admitted.push(rel(&config.corpus_root, &path));
        }
    }
    Ok(report)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_corpus;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("chf-corpus-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fresh_campaign_admits_and_replays_clean() {
        let root = tmpdir("fresh");
        let config = FuzzConfig {
            iters: 8,
            max_rejected: 1,
            ..FuzzConfig::smoke(root.clone(), 0xF00D)
        };
        let report = run_fuzz(&config).unwrap();
        assert!(report.evaluated > 0);
        assert!(
            !report.admitted.is_empty(),
            "a fresh campaign over an empty corpus must admit something"
        );
        assert!(report.new_cells > 0);

        // Everything it admitted must replay with zero drift.
        let replay = replay_corpus(&root, 2).unwrap();
        assert!(replay.is_clean(), "{:?}", replay.drifts);
        assert_eq!(replay.entries, report.admitted.len());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_is_deterministic_and_cells_stay_unique() {
        let root_a = tmpdir("det-a");
        let root_b = tmpdir("det-b");
        let mk = |root: &Path| FuzzConfig {
            iters: 8,
            max_rejected: 1,
            ..FuzzConfig::smoke(root.to_path_buf(), 0xBEEF)
        };
        let a = run_fuzz(&mk(&root_a)).unwrap();
        let b = run_fuzz(&mk(&root_b)).unwrap();
        assert_eq!(a.json_fragment(), b.json_fragment());
        assert_eq!(a.admitted, b.admitted);

        // A second run over the now-populated corpus may legitimately find
        // more coverage (its mutation pool grew), but the dedup key must
        // hold: every formed entry's combined cell stays unique.
        // Regression: admission must measure the canonical (parsed) form.
        // The second run draws CFG/profile mutants of run 1's entries;
        // before canonicalization, a perturb-profile mutant admitted here
        // would drift on its very next replay (the perturbation is keyed
        // by block id, which parsing renumbers).
        let _ = run_fuzz(&mk(&root_a)).unwrap();
        let replayed = crate::replay::replay_corpus(&root_a, 1).unwrap();
        assert!(replayed.is_clean(), "{:?}", replayed.drifts);
        let cells: Vec<u64> = load_corpus(&root_a)
            .unwrap()
            .iter()
            .filter_map(|e| e.manifest.measured.as_ref().map(|m| m.cell))
            .collect();
        let mut unique = cells.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), cells.len(), "duplicate cells admitted");
        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }

    #[test]
    fn summary_off_mode_reports_without_writing() {
        let root = tmpdir("dry");
        let config = FuzzConfig {
            iters: 6,
            admit_new: false,
            max_rejected: 0,
            ..FuzzConfig::smoke(root.clone(), 0xF00D)
        };
        let report = run_fuzz(&config).unwrap();
        assert!(report.admitted.is_empty());
        assert!(load_corpus(&root).unwrap().is_empty());
        assert!(report.new_cells > 0, "dry runs still track coverage");
        let _ = std::fs::remove_dir_all(&root);
    }
}
