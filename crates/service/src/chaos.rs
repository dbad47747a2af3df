//! Chaos campaign against the *live* service.
//!
//! The core campaign ([`chf_core::chaos::campaign`]) pressures the
//! formation pipeline in isolation. This module pressures the whole
//! service stack around it — queueing, worker isolation, retries,
//! deadlines, and the formation cache — by submitting seeded faulty
//! requests from several concurrent client threads and checking that every
//! request reaches the *specified* terminal state:
//!
//! * corrupted IR is `Failed` with a typed verifier error, never compiled;
//! * corrupted profiles still compile to behaviourally correct output;
//! * mid-trial corruption is contained exactly as in the core campaign,
//!   now end-to-end through a service request;
//! * a corrupted cache entry is detected by integrity revalidation and
//!   degraded to a cold compile whose result is **byte-identical** to the
//!   original — never served corrupt;
//! * an injected worker panic is retried and the request still completes.
//!
//! The pass criterion is absolute: zero aborts, zero miscompiles, zero
//! hung requests. Everything is seeded (`CHF_FAULT_SEED` replays a CI
//! failure locally), and per-kind tallies are deterministic even under
//! concurrency because each fault's outcome depends only on its own seed.

use crate::stats::ServiceStats;
use crate::{CompileRequest, CompileService, RequestStatus, ServiceConfig};
use chf_core::chaos::{self, ChaosRng, ChaosSpec, FaultKind};
use chf_core::policy::PolicyKind;
use chf_ir::testgen::{generate, GenConfig};
use chf_sim::functional::{profile_run, run, RunConfig};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// How one service-level fault resolved.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ServiceOutcome {
    /// Refused or caught by a checking layer (verifier at the service
    /// door, cache integrity revalidation).
    Detected,
    /// Contained by a recovery mechanism (mid-trial rollback, worker-panic
    /// retry) and still correct.
    RolledBack,
    /// The fault had no effect the service had to defend against; output
    /// correct.
    Survived,
    /// A wrong answer escaped — behaviour divergence, a corrupt cache
    /// entry served, or an unexpected terminal state. Campaign failure.
    Miscompiled,
    /// The request never reached a terminal state within the campaign's
    /// generous timeout. Campaign failure.
    Hung,
}

/// Outcome counts for one [`ServiceFaultKind`] within a campaign.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceKindTally {
    /// Faults of this kind injected.
    pub injected: usize,
    /// Refused/caught by a checking layer.
    pub detected: usize,
    /// Contained by a recovery mechanism.
    pub rolled_back: usize,
    /// No defence needed; output correct.
    pub survived: usize,
    /// Client-side panics that escaped to the campaign's isolation. Must
    /// be 0 (the service itself contains worker panics; this counts bugs
    /// in the service *API*).
    pub aborts: usize,
    /// Wrong answers escaped. Must be 0.
    pub miscompiles: usize,
    /// Requests that never terminated. Must be 0.
    pub hung: usize,
}

/// Aggregate result of a [`service_campaign`] run.
#[derive(Clone, Debug, Default)]
pub struct ServiceCampaignReport {
    /// Faults injected.
    pub total: usize,
    /// Faults refused/caught by a checking layer.
    pub detected: usize,
    /// Faults contained by a recovery mechanism.
    pub rolled_back: usize,
    /// Faults that needed no defence (output still correct).
    pub survived: usize,
    /// Client-side panic escapes. Must be 0.
    pub aborts: usize,
    /// Wrong answers escaped. Must be 0.
    pub miscompiles: usize,
    /// Requests that never terminated. Must be 0.
    pub hung: usize,
    /// Per-kind breakdown, indexed like [`ServiceFaultKind::ALL`].
    pub by_kind: Vec<ServiceKindTally>,
    /// The service's own health counters at campaign end.
    pub stats: ServiceStats,
}

impl ServiceCampaignReport {
    /// The campaign's pass criterion: no aborts, no miscompiles, no hung
    /// requests, and every fault accounted for.
    pub fn ok(&self) -> bool {
        self.aborts == 0
            && self.miscompiles == 0
            && self.hung == 0
            && self.detected + self.rolled_back + self.survived == self.total
    }

    /// One-line machine-readable summary (stable keys, no trailing
    /// newline). Kinds that were never injected are omitted; the service's
    /// stats snapshot is embedded under `"stats"`.
    pub fn json(&self) -> String {
        use std::fmt::Write;
        let mut kinds = String::new();
        for (kind, t) in ServiceFaultKind::ALL.iter().zip(&self.by_kind) {
            if t.injected == 0 {
                continue;
            }
            if !kinds.is_empty() {
                kinds.push(',');
            }
            let _ = write!(
                kinds,
                "\"{kind}\":{{\"injected\":{},\"detected\":{},\"rolled_back\":{},\
                 \"survived\":{},\"aborts\":{},\"miscompiles\":{},\"hung\":{}}}",
                t.injected, t.detected, t.rolled_back, t.survived, t.aborts, t.miscompiles, t.hung
            );
        }
        format!(
            "{{\"campaign\":\"service\",\"faults\":{},\"detected\":{},\
             \"rolled_back\":{},\"survived\":{},\"contained\":{},\"aborts\":{},\
             \"miscompiles\":{},\"hung\":{},\"ok\":{},\"by_kind\":{{{kinds}}},\
             \"stats\":{}}}",
            self.total,
            self.detected,
            self.rolled_back,
            self.survived,
            self.detected + self.rolled_back + self.survived,
            self.aborts,
            self.miscompiles,
            self.hung,
            self.ok(),
            self.stats.json(),
        )
    }
}

impl fmt::Display for ServiceCampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults: {} detected, {} rolled back, {} survived, \
             {} aborts, {} miscompiles, {} hung",
            self.total,
            self.detected,
            self.rolled_back,
            self.survived,
            self.aborts,
            self.miscompiles,
            self.hung
        )
    }
}

/// A request never terminating within this bound counts as hung. Far above
/// any legitimate compile of a testgen-sized program, so a trip means a
/// lost wake-up or deadlocked worker, not a slow machine.
const HUNG_AFTER: Duration = Duration::from_secs(120);

/// Submit `req`, wait for a terminal response, map "never terminates" to
/// [`ServiceOutcome::Hung`].
fn settle(
    svc: &CompileService,
    req: CompileRequest,
) -> Result<crate::CompileResponse, ServiceOutcome> {
    let id = svc.submit(req);
    svc.wait_timeout(id, HUNG_AFTER).ok_or(ServiceOutcome::Hung)
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

/// Run one seeded fault end to end against the live service.
fn run_one_service_fault(
    svc: &CompileService,
    fault_seed: u64,
) -> (ServiceFaultKind, ServiceOutcome) {
    let mut rng = ChaosRng::new(fault_seed);
    let kind = ServiceFaultKind::ALL[rng.next_range(ServiceFaultKind::ALL.len() as u64) as usize];
    let prog_seed = rng.next_u64();
    let mut f = generate(prog_seed, &GenConfig::default());
    let train: Vec<i64> = (0..f.params)
        .map(|_| rng.next_range(24) as i64 - 4)
        .collect();
    let mut profile = profile_run(&f, &train, &[]).unwrap_or_default();

    let outcome = match kind {
        ServiceFaultKind::Core(core_kind) => {
            let mut req_template = CompileRequest::ir(f.clone(), profile.clone());
            match core_kind {
                FaultKind::MidTrial => {
                    req_template.config.chaos = Some(ChaosSpec {
                        seed: fault_seed,
                        period: 2,
                    });
                }
                _ => {
                    chaos::inject(&mut f, &mut profile, core_kind, &mut rng);
                    if core_kind == FaultKind::ScrambledEdgeProfile {
                        // Scrambled ordering signals only matter to the
                        // policy that consumes them.
                        req_template.config.policy = PolicyKind::HotFirst;
                    }
                    req_template = CompileRequest {
                        program: crate::Program::Ir(f.clone()),
                        profile: profile.clone(),
                        ..req_template
                    };
                }
            }
            let ir_fault = matches!(
                core_kind,
                FaultKind::DanglingExit
                    | FaultKind::PredicatedDefault
                    | FaultKind::RegisterOutOfRange
            );
            match settle(svc, req_template) {
                Err(hung) => hung,
                Ok(resp) if ir_fault => {
                    // Structurally invalid IR must be refused at the
                    // service door with a typed verifier error.
                    match (resp.status, &resp.error) {
                        (RequestStatus::Failed, Some(chf_core::ChfError::Verify { .. })) => {
                            ServiceOutcome::Detected
                        }
                        _ => ServiceOutcome::Miscompiled,
                    }
                }
                Ok(resp) => {
                    if resp.status != RequestStatus::Done {
                        return (kind, ServiceOutcome::Miscompiled);
                    }
                    let compiled = resp.compiled.expect("Done carries the artifact");
                    match behaviour_matches(&f, &compiled.function, &train) {
                        Some(false) => ServiceOutcome::Miscompiled,
                        // The mid-trial net reports containment through
                        // the skip counter.
                        _ if core_kind == FaultKind::MidTrial && compiled.stats.skipped > 0 => {
                            ServiceOutcome::RolledBack
                        }
                        _ => ServiceOutcome::Survived,
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
                Ok(first) if first.status != RequestStatus::Done => ServiceOutcome::Miscompiled,
                Ok(first) => {
                    let first_fn = first
                        .compiled
                        .as_ref()
                        .expect("Done carries the artifact")
                        .function
                        .to_string();
                    let corrupted = svc.corrupt_cached(&req, rng.next_u64());
                    match settle(svc, req) {
                        Err(hung) => hung,
                        Ok(second) => {
                            let second_fn = second
                                .compiled
                                .as_ref()
                                .map(|c| c.function.to_string())
                                .unwrap_or_default();
                            if second.status != RequestStatus::Done || second_fn != first_fn {
                                ServiceOutcome::Miscompiled
                            } else if corrupted {
                                if second.cache_hit {
                                    // Revalidation served the mutation.
                                    ServiceOutcome::Miscompiled
                                } else {
                                    ServiceOutcome::Detected
                                }
                            } else {
                                // The entry was already evicted (cache
                                // churn under load): nothing was corrupted,
                                // the identical reply is simply correct.
                                ServiceOutcome::Survived
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
                        ServiceOutcome::Miscompiled
                    } else {
                        let compiled = resp.compiled.expect("Done carries the artifact");
                        match behaviour_matches(&f, &compiled.function, &train) {
                            Some(false) => ServiceOutcome::Miscompiled,
                            _ => ServiceOutcome::RolledBack,
                        }
                    }
                }
            }
        }
    };
    (kind, outcome)
}

/// Run a seeded campaign of `faults` injections against one live service,
/// submitted from `clients` concurrent client threads. Each fault is
/// isolated in its own `catch_unwind` scope on the client side; escapes are
/// tallied as aborts (which fail [`ServiceCampaignReport::ok`]).
pub fn service_campaign(seed: u64, faults: usize, clients: usize) -> ServiceCampaignReport {
    let svc = CompileService::new(ServiceConfig {
        // Deep enough that backpressure never rejects a campaign request —
        // rejection under deliberate overload is tested separately; here
        // every fault must reach a worker.
        queue_capacity: faults + 16,
        cache_capacity: faults.max(64) * 2,
        ..ServiceConfig::default()
    });
    let mut master = ChaosRng::new(seed);
    let seeds: Vec<u64> = (0..faults).map(|_| master.next_u64()).collect();
    let clients = clients.max(1);
    let chunk = faults.div_ceil(clients).max(1);

    let mut report = ServiceCampaignReport {
        total: faults,
        by_kind: vec![ServiceKindTally::default(); ServiceFaultKind::ALL.len()],
        ..ServiceCampaignReport::default()
    };
    let tallies: Vec<Vec<ServiceKindTally>> = std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|chunk_seeds| {
                s.spawn(move || {
                    let mut local = vec![ServiceKindTally::default(); ServiceFaultKind::ALL.len()];
                    for &fs in chunk_seeds {
                        match catch_unwind(AssertUnwindSafe(|| run_one_service_fault(svc, fs))) {
                            Ok((kind, outcome)) => {
                                let t = &mut local[kind.index()];
                                t.injected += 1;
                                match outcome {
                                    ServiceOutcome::Detected => t.detected += 1,
                                    ServiceOutcome::RolledBack => t.rolled_back += 1,
                                    ServiceOutcome::Survived => t.survived += 1,
                                    ServiceOutcome::Miscompiled => t.miscompiles += 1,
                                    ServiceOutcome::Hung => t.hung += 1,
                                }
                            }
                            Err(_) => {
                                // The kind wasn't recoverable from the
                                // panic; attribute the abort to the first
                                // slot so totals still reconcile.
                                local[0].injected += 1;
                                local[0].aborts += 1;
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign client thread panicked"))
            .collect()
    });
    for local in tallies {
        for (agg, t) in report.by_kind.iter_mut().zip(local) {
            agg.injected += t.injected;
            agg.detected += t.detected;
            agg.rolled_back += t.rolled_back;
            agg.survived += t.survived;
            agg.aborts += t.aborts;
            agg.miscompiles += t.miscompiles;
            agg.hung += t.hung;
        }
    }
    for t in &report.by_kind {
        report.detected += t.detected;
        report.rolled_back += t.rolled_back;
        report.survived += t.survived;
        report.aborts += t.aborts;
        report.miscompiles += t.miscompiles;
        report.hung += t.hung;
    }
    report.stats = svc.stats();
    report
}

/// Result of a [`soak`] run: mostly-clean traffic with a small injected
/// fault fraction, the shape of the `verify.sh service` CI gate.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Requests submitted.
    pub requests: usize,
    /// How many of them carried an injected fault.
    pub faults: usize,
    /// Requests that never reached a terminal state. Must be 0.
    pub hung: usize,
    /// Requests that terminated wrongly (clean traffic not `Done`, a
    /// faulty request miscompiling, or a client-side panic). Must be 0.
    pub wrong: usize,
    /// The service's health counters at soak end.
    pub stats: ServiceStats,
}

impl SoakReport {
    /// Pass criterion: every request terminal, none hung, none wrong, and
    /// the service's own accounting closed (terminal count = submissions).
    pub fn ok(&self) -> bool {
        self.hung == 0 && self.wrong == 0 && self.stats.terminal() == self.stats.submitted
    }

    /// One-line machine-readable summary (stable keys, no trailing
    /// newline) with the service stats embedded under `"stats"`.
    pub fn json(&self) -> String {
        format!(
            "{{\"campaign\":\"service-soak\",\"requests\":{},\"faults\":{},\
             \"hung\":{},\"wrong\":{},\"ok\":{},\"stats\":{}}}",
            self.requests,
            self.faults,
            self.hung,
            self.wrong,
            self.ok(),
            self.stats.json(),
        )
    }
}

/// Soak the service with `requests` submissions from `clients` concurrent
/// threads, roughly `fault_percent`% of them carrying a seeded fault (the
/// full [`ServiceFaultKind`] registry) and the rest clean compiles drawn
/// from a small hot set of programs — so the formation cache, the worker
/// pool, and the fault-containment paths are all exercised *together*, the
/// traffic shape a long-lived daemon actually sees.
pub fn soak(seed: u64, requests: usize, clients: usize, fault_percent: u32) -> SoakReport {
    /// Distinct programs in the clean-traffic hot set: small enough that
    /// repeats (and therefore cache hits) are guaranteed for any
    /// non-trivial soak, large enough to keep all workers busy cold.
    const HOT_SET: u64 = 12;

    let svc = CompileService::new(ServiceConfig {
        queue_capacity: requests + 16,
        ..ServiceConfig::default()
    });
    let mut master = ChaosRng::new(seed);
    let plan: Vec<(u64, bool)> = (0..requests)
        .map(|_| {
            let s = master.next_u64();
            let faulty = master.next_range(100) < u64::from(fault_percent);
            (s, faulty)
        })
        .collect();
    let clients = clients.max(1);
    let chunk = requests.div_ceil(clients).max(1);

    let (hung, wrong) = std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = plan
            .chunks(chunk)
            .map(|chunk_plan| {
                s.spawn(move || {
                    let (mut hung, mut wrong) = (0usize, 0usize);
                    for &(rs, faulty) in chunk_plan {
                        if faulty {
                            match catch_unwind(AssertUnwindSafe(|| run_one_service_fault(svc, rs)))
                            {
                                Ok((_, ServiceOutcome::Hung)) => hung += 1,
                                Ok((_, ServiceOutcome::Miscompiled)) => wrong += 1,
                                Ok(_) => {}
                                Err(_) => wrong += 1,
                            }
                            continue;
                        }
                        let mut rng = ChaosRng::new(rs);
                        let f = generate(rng.next_range(HOT_SET), &GenConfig::default());
                        let args: Vec<i64> = (0..f.params).map(|i| i as i64 + 3).collect();
                        let profile = profile_run(&f, &args, &[]).unwrap_or_default();
                        match settle(svc, CompileRequest::ir(f, profile)) {
                            Err(ServiceOutcome::Hung) => hung += 1,
                            Err(_) => wrong += 1,
                            Ok(resp) if resp.status == RequestStatus::Done => {}
                            Ok(_) => wrong += 1,
                        }
                    }
                    (hung, wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client thread panicked"))
            .fold((0, 0), |(h, w), (dh, dw)| (h + dh, w + dw))
    });
    SoakReport {
        requests,
        faults: plan.iter().filter(|(_, f)| *f).count(),
        hung,
        wrong,
        stats: svc.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_service_campaign_is_clean() {
        let r = service_campaign(0x5E2C, 22, 4);
        assert!(r.ok(), "service campaign failed: {r}");
        assert_eq!(r.aborts, 0);
        assert_eq!(r.miscompiles, 0);
        assert_eq!(r.hung, 0);
        let attributed: usize = r.by_kind.iter().map(|t| t.injected).sum();
        assert_eq!(attributed, r.total);
    }

    #[test]
    fn campaign_tallies_are_seed_deterministic() {
        let a = service_campaign(0xD00D, 16, 4);
        let b = service_campaign(0xD00D, 16, 2);
        assert!(a.ok(), "{a}");
        // Outcomes depend only on each fault's seed, so tallies are stable
        // across runs and across client counts.
        assert_eq!(a.by_kind, b.by_kind);
    }

    #[test]
    fn json_embeds_stats_and_kind_breakdown() {
        let r = service_campaign(3, 12, 4);
        let j = r.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(!j.contains('\n'));
        assert!(j.contains("\"campaign\":\"service\""), "{j}");
        assert!(j.contains("\"by_kind\""), "{j}");
        assert!(j.contains("\"stats\":{"), "{j}");
        assert!(j.contains("\"ok\":true"), "{j}");
    }

    #[test]
    fn soak_settles_every_request_and_hits_the_cache() {
        let r = soak(0xBEEF, 60, 4, 5);
        assert!(r.ok(), "soak failed: hung={}, wrong={}", r.hung, r.wrong);
        assert_eq!(r.stats.terminal(), r.stats.submitted);
        // Clean traffic repeats a small hot set, so memoization must show.
        assert!(r.stats.cache_hits > 0, "soak never hit the cache");
        let j = r.json();
        assert!(j.contains("\"campaign\":\"service-soak\""), "{j}");
        assert!(j.contains("\"ok\":true"), "{j}");
    }

    #[test]
    fn every_kind_appears_in_a_moderate_campaign() {
        let r = service_campaign(0xA11, 64, 4);
        assert!(r.ok(), "{r}");
        for (kind, t) in ServiceFaultKind::ALL.iter().zip(&r.by_kind) {
            assert!(t.injected > 0, "kind {kind} never drawn in 64 faults");
        }
    }
}
