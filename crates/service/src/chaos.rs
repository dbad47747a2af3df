//! The live compile service as a chaos campaign target.
//!
//! The formation target ([`chf_core::chaos::FormationTarget`]) pressures
//! the formation pipeline in isolation. [`ServiceTarget`] pressures the
//! whole service stack around it — queueing, worker isolation, retries,
//! deadlines, and the formation cache — by submitting seeded faulty
//! requests through the same campaign engine
//! ([`chf_core::chaos::run_campaign`]) from several concurrent client
//! threads and checking that every request gets the *specified*
//! answer:
//!
//! * corrupted IR is `Failed` with a typed verifier error, never compiled;
//! * corrupted profiles still compile to behaviourally correct output;
//! * mid-trial corruption is contained exactly as in the formation target,
//!   now end-to-end through a service request;
//! * a corrupted cache entry is detected by integrity revalidation and
//!   degraded to a cold compile whose result is **byte-identical** to the
//!   original — never served corrupt;
//! * an injected worker panic is retried once and the request still
//!   completes.
//!
//! Below 100 `fault_percent`, the fault seeds that fall outside the fault
//! share become clean compiles drawn from a small hot set of programs, so
//! the formation cache, the worker pool, and the containment paths are all
//! exercised *together* — the traffic shape a long-lived daemon sees.
//!
//! The pass criterion is absolute: zero aborts, zero miscompiles, zero hung
//! requests, and the service's own accounting closed. Everything is seeded
//! (`CHF_FAULT_SEED` replays a CI failure locally), and per-kind tallies
//! are deterministic even under concurrency because each fault's outcome
//! depends only on its own seed.

use crate::stats::ServiceStats;
use crate::{CompileRequest, CompileService, RequestStatus, ServiceConfig};
use chf_core::chaos::{self, ChaosSpec, FaultKind, Outcome, Target};
use chf_core::policy::PolicyKind;
use chf_ir::testgen::{generate, GenConfig, SplitMix64};
use chf_sim::functional::{profile_run, run, RunConfig};
use std::cell::Cell;
use std::fmt;
use std::time::Duration;

/// A fault injectable against the live service: every core pipeline fault,
/// plus the two that only exist at the service layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServiceFaultKind {
    /// One of the core registry's faults ([`FaultKind::ALL`]), delivered
    /// through a service request instead of a direct formation call.
    Core(FaultKind),
    /// A cached formation result is corrupted in place (digest left stale);
    /// the next identical submission must detect it and compile cold.
    CorruptedCacheEntry,
    /// The worker thread panics mid-compile (via the request's
    /// `inject_panics` hook); the containment + retry path must still
    /// produce a correct `Done`.
    WorkerPanic,
}

impl ServiceFaultKind {
    /// Every service-injectable fault, for seeded selection and reporting.
    pub const ALL: [ServiceFaultKind; 10] = [
        ServiceFaultKind::Core(FaultKind::DanglingExit),
        ServiceFaultKind::Core(FaultKind::PredicatedDefault),
        ServiceFaultKind::Core(FaultKind::RegisterOutOfRange),
        ServiceFaultKind::Core(FaultKind::ZeroTripCount),
        ServiceFaultKind::Core(FaultKind::OverflowedTripCount),
        ServiceFaultKind::Core(FaultKind::TruncatedEdgeProfile),
        ServiceFaultKind::Core(FaultKind::ScrambledEdgeProfile),
        ServiceFaultKind::Core(FaultKind::MidTrial),
        ServiceFaultKind::CorruptedCacheEntry,
        ServiceFaultKind::WorkerPanic,
    ];

    /// Position of this kind in [`ServiceFaultKind::ALL`].
    pub fn index(self) -> usize {
        ServiceFaultKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is in ALL")
    }
}

impl fmt::Display for ServiceFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceFaultKind::Core(k) => k.fmt(f),
            ServiceFaultKind::CorruptedCacheEntry => f.write_str("corrupted-cache-entry"),
            ServiceFaultKind::WorkerPanic => f.write_str("worker-panic"),
        }
    }
}

/// A request never terminating within this bound counts as hung. Far above
/// any legitimate compile of a testgen-sized program, so a trip means a
/// lost wake-up or deadlocked worker, not a slow machine.
const HUNG_AFTER: Duration = Duration::from_secs(120);

/// Submit `req`, wait for a terminal response, map "never terminates" to
/// [`Outcome::Hung`].
fn settle(svc: &CompileService, req: CompileRequest) -> Result<crate::CompileResponse, Outcome> {
    let id = svc.submit(req);
    svc.wait_timeout(id, HUNG_AFTER).ok_or(Outcome::Hung)
}

/// Whether `compiled` behaves identically to `reference` on `args`. A
/// reference that doesn't execute under default fuel yields `None` (no
/// behavioural claim either way).
fn behaviour_matches(
    reference: &chf_ir::function::Function,
    compiled: &chf_ir::function::Function,
    args: &[i64],
) -> Option<bool> {
    let base = run(reference, args, &[], &RunConfig::default()).ok()?;
    match run(compiled, args, &[], &RunConfig::default()) {
        Ok(r) => Some(r.digest() == base.digest()),
        Err(_) => Some(false),
    }
}

/// Run one seeded fault end to end against the live service, publishing
/// its kind's row as soon as it is drawn.
fn run_one_service_fault(
    svc: &CompileService,
    fault_seed: u64,
    kind_out: &Cell<Option<usize>>,
) -> Outcome {
    let mut rng = SplitMix64::new(fault_seed);
    let kind = ServiceFaultKind::ALL[rng.below(ServiceFaultKind::ALL.len() as u64) as usize];
    kind_out.set(Some(kind.index()));
    let prog_seed = rng.next();
    let mut f = generate(prog_seed, &GenConfig::default());
    let train: Vec<i64> = (0..f.params).map(|_| rng.below(24) as i64 - 4).collect();
    let mut profile = profile_run(&f, &train, &[]).unwrap_or_default();

    match kind {
        ServiceFaultKind::Core(core_kind) => {
            if core_kind != FaultKind::MidTrial {
                chaos::inject(&mut f, &mut profile, core_kind, &mut rng);
            }
            let mut req = CompileRequest::ir(f.clone(), profile.clone());
            if core_kind == FaultKind::MidTrial {
                req.config.chaos = Some(ChaosSpec {
                    seed: fault_seed,
                    period: 2,
                });
            } else if core_kind == FaultKind::ScrambledEdgeProfile {
                // Scrambled ordering signals only matter to the policy
                // that consumes them.
                req.config.policy = PolicyKind::HotFirst;
            }
            let ir_fault = matches!(
                core_kind,
                FaultKind::DanglingExit
                    | FaultKind::PredicatedDefault
                    | FaultKind::RegisterOutOfRange
            );
            match settle(svc, req) {
                Err(hung) => hung,
                Ok(resp) if ir_fault => {
                    // Structurally invalid IR must be refused at the
                    // service door with a typed verifier error.
                    match (resp.status, &resp.error) {
                        (RequestStatus::Failed, Some(chf_core::ChfError::Verify { .. })) => {
                            Outcome::Detected
                        }
                        _ => Outcome::Miscompiled,
                    }
                }
                Ok(resp) => {
                    if resp.status != RequestStatus::Done {
                        return Outcome::Miscompiled;
                    }
                    let compiled = resp.compiled.expect("Done carries the artifact");
                    match behaviour_matches(&f, &compiled.function, &train) {
                        Some(false) => Outcome::Miscompiled,
                        // The mid-trial net reports containment through
                        // the skip counter.
                        _ if core_kind == FaultKind::MidTrial && compiled.stats.skipped > 0 => {
                            Outcome::RolledBack
                        }
                        _ => Outcome::Survived,
                    }
                }
            }
        }
        ServiceFaultKind::CorruptedCacheEntry => {
            // Compile cold, corrupt the cached entry, resubmit: the reply
            // must be a *non-hit* byte-identical recompile.
            let req = CompileRequest::ir(f.clone(), profile.clone());
            match settle(svc, req.clone()) {
                Err(hung) => hung,
                Ok(first) if first.status != RequestStatus::Done => Outcome::Miscompiled,
                Ok(first) => {
                    let first_fn = first
                        .compiled
                        .as_ref()
                        .expect("Done carries the artifact")
                        .function
                        .to_string();
                    let corrupted = svc.corrupt_cached(&req, rng.next());
                    match settle(svc, req) {
                        Err(hung) => hung,
                        Ok(second) => {
                            let second_fn = second
                                .compiled
                                .as_ref()
                                .map(|c| c.function.to_string())
                                .unwrap_or_default();
                            if second.status != RequestStatus::Done || second_fn != first_fn {
                                Outcome::Miscompiled
                            } else if corrupted {
                                if second.cache_hit {
                                    // Revalidation served the mutation.
                                    Outcome::Miscompiled
                                } else {
                                    Outcome::Detected
                                }
                            } else {
                                // The entry was already evicted (cache
                                // churn under load): nothing was corrupted,
                                // the identical reply is simply correct.
                                Outcome::Survived
                            }
                        }
                    }
                }
            }
        }
        ServiceFaultKind::WorkerPanic => {
            let mut req = CompileRequest::ir(f.clone(), profile.clone());
            req.options.inject_panics = 1;
            match settle(svc, req) {
                Err(hung) => hung,
                Ok(resp) => {
                    if resp.status != RequestStatus::Done || resp.retries == 0 {
                        Outcome::Miscompiled
                    } else {
                        let compiled = resp.compiled.expect("Done carries the artifact");
                        match behaviour_matches(&f, &compiled.function, &train) {
                            Some(false) => Outcome::Miscompiled,
                            _ => Outcome::RolledBack,
                        }
                    }
                }
            }
        }
    }
}

/// Distinct programs in the clean-traffic hot set: small enough that
/// repeats (and therefore cache hits) are guaranteed for any non-trivial
/// run, large enough to keep all workers busy cold.
const HOT_SET: u64 = 12;

/// A clean compile of a hot-set program; only `Done` is correct.
fn run_clean_request(svc: &CompileService, seed: u64) -> Outcome {
    let f = generate(SplitMix64::new(seed).below(HOT_SET), &GenConfig::default());
    let args: Vec<i64> = (0..f.params).map(|i| i as i64 + 3).collect();
    let profile = profile_run(&f, &args, &[]).unwrap_or_default();
    match settle(svc, CompileRequest::ir(f, profile)) {
        Err(hung) => hung,
        Ok(resp) if resp.status == RequestStatus::Done => Outcome::Survived,
        Ok(_) => Outcome::Miscompiled,
    }
}

/// One live service under campaign. Rows follow [`ServiceFaultKind::ALL`],
/// then a `clean` row for the clean requests of a partial-fault run.
pub struct ServiceTarget {
    svc: CompileService,
    fault_percent: u64,
}

impl ServiceTarget {
    /// A fresh service sized for `requests` campaign requests, of which
    /// roughly `fault_percent`% carry a fault. A fault seed with
    /// `seed % 100 >= fault_percent` becomes a clean request instead; the
    /// choice consumes no draw, so at 100% the fault stream is exactly that
    /// of a pure fault campaign.
    pub fn new(requests: usize, fault_percent: u32) -> ServiceTarget {
        let svc = CompileService::new(ServiceConfig {
            // Deep enough that backpressure never rejects a campaign
            // request — rejection under deliberate overload is tested
            // separately; here every request must reach a worker.
            queue_capacity: requests + 16,
            cache_capacity: requests.max(64) * 2,
            ..ServiceConfig::default()
        });
        ServiceTarget {
            svc,
            fault_percent: u64::from(fault_percent),
        }
    }

    /// The service's health counters now.
    pub fn stats(&self) -> ServiceStats {
        self.svc.stats()
    }
}

impl Target for ServiceTarget {
    fn name(&self) -> &'static str {
        "service"
    }

    fn kinds(&self) -> Vec<String> {
        let faults = ServiceFaultKind::ALL.iter().map(ToString::to_string);
        faults.chain(["clean".to_string()]).collect()
    }

    fn run_fault(&self, fault_seed: u64, kind: &Cell<Option<usize>>) -> Outcome {
        if fault_seed % 100 >= self.fault_percent {
            kind.set(Some(ServiceFaultKind::ALL.len()));
            return run_clean_request(&self.svc, fault_seed);
        }
        run_one_service_fault(&self.svc, fault_seed, kind)
    }

    fn stats_json(&self) -> Option<String> {
        Some(self.stats().json())
    }

    fn accounting_closed(&self) -> bool {
        let stats = self.stats();
        stats.terminal() == stats.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_core::chaos::{run_campaign, CampaignReport};

    fn campaign(seed: u64, faults: usize, clients: usize) -> CampaignReport {
        run_campaign(seed, faults, clients, &ServiceTarget::new(faults, 100))
    }

    #[test]
    fn small_campaign_through_the_service_is_clean() {
        let r = campaign(0x5E2C, 22, 4);
        assert!(r.ok(), "service campaign failed: {r}");
        assert_eq!(r.unattributed_aborts, 0);
        let attributed: usize = r.by_kind.iter().map(|t| t.injected).sum();
        assert_eq!(attributed, r.total);
        assert_eq!(r.by_kind[ServiceFaultKind::ALL.len()].injected, 0);
    }

    #[test]
    fn campaign_tallies_are_seed_deterministic() {
        let a = campaign(0xD00D, 16, 4);
        let b = campaign(0xD00D, 16, 2);
        assert!(a.ok(), "{a}");
        // Outcomes depend only on each fault's seed, so tallies are stable
        // across runs and across client counts.
        assert_eq!(a.by_kind, b.by_kind);
    }

    #[test]
    fn a_campaign_does_the_same_formation_work_on_every_run() {
        // Every fault is built from its seed alone, profile faults
        // included, so two runs compile the same requests with the same
        // trials, whatever the thread timing.
        let run = || {
            let target = ServiceTarget::new(48, 100);
            let r = run_campaign(0x7E57, 48, 4, &target);
            assert!(r.ok(), "{r}");
            let s = target.stats();
            (r.by_kind, s.trials, s.compiles, s.done, s.failed, s.retries)
        };
        let (a, b) = (run(), run());
        assert!(a.1 > 0, "the campaign ran no trial");
        assert_eq!(a, b);
    }

    #[test]
    fn json_embeds_stats_and_kind_breakdown() {
        let r = campaign(3, 12, 4);
        let j = r.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(!j.contains('\n'));
        assert!(j.contains("\"campaign\":\"service\""), "{j}");
        assert!(j.contains("\"by_kind\""), "{j}");
        assert!(j.contains("\"stats\":{"), "{j}");
        assert!(j.contains("\"ok\":true"), "{j}");
    }

    #[test]
    fn mostly_clean_run_settles_every_request_and_hits_the_cache() {
        let target = ServiceTarget::new(60, 5);
        let r = run_campaign(0xBEEF, 60, 4, &target);
        assert!(r.ok(), "5% run failed: {r}");
        let stats = target.stats();
        assert_eq!(stats.terminal(), stats.submitted);
        // Clean traffic repeats a small hot set, so memoization must show.
        assert!(stats.cache_hits > 0, "the run never hit the cache");
        let clean = r.by_kind[ServiceFaultKind::ALL.len()];
        assert!(clean.injected > r.total / 2, "{r}");
        assert!(r.json().contains("\"clean\":{"));
    }

    #[test]
    fn every_kind_appears_in_a_moderate_campaign() {
        let r = campaign(0xA11, 64, 4);
        assert!(r.ok(), "{r}");
        for (kind, t) in ServiceFaultKind::ALL.iter().zip(&r.by_kind) {
            assert!(t.injected > 0, "kind {kind} never drawn in 64 faults");
        }
    }
}
