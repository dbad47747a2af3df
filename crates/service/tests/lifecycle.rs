//! Lifecycle edge cases of the compile service: backpressure at zero
//! capacity, degraded-by-deadline responses, the one retry of a panicked
//! compile, typed failures for unusable constraints, and the determinism
//! guarantees of the formation cache (byte-identical hits, worker-count
//! independence).

use chf_core::ChfError;
use chf_ir::testgen::{generate, GenConfig};
use chf_service::{CompileRequest, CompileService, RequestStatus, ServiceConfig};
use chf_sim::functional::{profile_run, run, RunConfig};
use std::time::Duration;

/// A generated workload whose convergent compile performs real merge
/// trials (so a deadline has something to cut short).
fn busy_request(seed: u64) -> (CompileRequest, Vec<i64>) {
    let f = generate(seed, &GenConfig::default());
    let args: Vec<i64> = (0..f.params).map(|i| i as i64 + 3).collect();
    let profile = profile_run(&f, &args, &[]).unwrap_or_default();
    (CompileRequest::ir(f, profile), args)
}

#[test]
fn zero_capacity_queue_rejects_everything() {
    let svc = CompileService::new(ServiceConfig {
        queue_capacity: 0,
        ..ServiceConfig::default()
    });
    let (req, _) = busy_request(1);
    let id = svc.submit(req);
    let resp = svc.wait(id);
    assert_eq!(resp.status, RequestStatus::Rejected);
    assert!(resp.compiled.is_none());
    assert_eq!(svc.stats().rejected, 1);
    // Rejection is load shedding, not an error: no error payload.
    assert!(resp.error.is_none());
}

#[test]
fn expired_deadline_degrades_with_partial_blocks() {
    let svc = CompileService::new(ServiceConfig::default());
    let (mut req, args) = busy_request(5);
    req.options.deadline = Some(Duration::ZERO);
    let original = match &req.program {
        chf_service::Program::Ir(f) => f.clone(),
        _ => unreachable!(),
    };
    let id = svc.submit(req);
    let resp = svc.wait(id);
    assert_eq!(resp.status, RequestStatus::Degraded);
    let compiled = resp.compiled.expect("degraded carries the anytime result");
    assert!(compiled.stats.deadline_hit);
    assert!(
        compiled.stats.budget_skipped > 0,
        "an already-expired deadline must have dropped candidates"
    );
    // The partial result is still behaviour-preserving.
    let base = run(&original, &args, &[], &RunConfig::default()).unwrap();
    let got = run(&compiled.function, &args, &[], &RunConfig::default()).unwrap();
    assert_eq!(base.digest(), got.digest());
    assert_eq!(svc.stats().degraded, 1);
}

#[test]
fn partial_results_are_never_cached() {
    let svc = CompileService::new(ServiceConfig::default());
    let (mut req, _) = busy_request(5);
    req.options.deadline = Some(Duration::ZERO);
    let degraded = svc.wait(svc.submit(req.clone()));
    assert_eq!(degraded.status, RequestStatus::Degraded);
    assert_eq!(svc.cache_len(), 0, "a degraded result must not be memoized");
    // The same submission without a deadline compiles fully — and must be
    // a cold compile, not a replay of the partial result.
    req.options.deadline = None;
    let full = svc.wait(svc.submit(req));
    assert_eq!(full.status, RequestStatus::Done);
    assert!(!full.cache_hit);
    assert!(!full.compiled.unwrap().stats.deadline_hit);
    assert_eq!(svc.cache_len(), 1);
}

#[test]
fn retry_gives_up_after_the_cap() {
    let svc = CompileService::new(ServiceConfig::default());
    for inject_panics in [2, 10] {
        let (mut req, _) = busy_request(9);
        // Panic on the retry too: the request must end as a contained
        // failure, not retry forever.
        req.options.inject_panics = inject_panics;
        let resp = svc.wait(svc.submit(req));
        assert_eq!(resp.status, RequestStatus::Failed);
        assert_eq!(resp.retries, 1, "exactly one re-attempt");
        match resp.error {
            Some(ChfError::Panicked { context, .. }) => assert_eq!(context, "service worker"),
            other => panic!("expected a Panicked error, got {other:?}"),
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.failed, 2);
}

#[test]
fn transient_panics_recover_within_the_cap() {
    let svc = CompileService::new(ServiceConfig::default());
    let (mut req, _) = busy_request(9);
    req.options.inject_panics = 1;
    let resp = svc.wait(svc.submit(req));
    assert_eq!(resp.status, RequestStatus::Done);
    assert_eq!(resp.retries, 1);
    assert!(resp.compiled.is_some());
}

#[test]
fn identical_submissions_hit_the_cache_byte_identically() {
    // One generated function and the 24 profiled microbenchmarks, all
    // submitted cold, then all again: every second submission must hit.
    let reqs: Vec<CompileRequest> = std::iter::once(busy_request(13).0)
        .chain(
            chf_workloads::microbenchmarks()
                .into_iter()
                .map(|w| CompileRequest::ir(w.function, w.profile)),
        )
        .collect();
    let svc = CompileService::new(ServiceConfig::default());
    let pass = |hit: bool| -> Vec<_> {
        reqs.iter()
            .map(|req| {
                let resp = svc.wait(svc.submit(req.clone()));
                assert_eq!(resp.status, RequestStatus::Done);
                assert_eq!(resp.cache_hit, hit, "second identical submission must hit");
                resp.compiled.unwrap()
            })
            .collect()
    };
    let cold = pass(false);
    let hot = pass(true);
    for (c, h) in cold.iter().zip(&hot) {
        assert_eq!(
            c.function.to_string(),
            h.function.to_string(),
            "cached function must be byte-identical to the cold compile"
        );
        assert_eq!(c.stats, h.stats, "FormationStats must replay exactly");
    }
    let n = reqs.len() as u64;
    let stats = svc.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (n, n));
    assert_eq!(stats.cache_hit_rate(), 0.5);
}

#[test]
fn results_are_independent_of_worker_count() {
    // The same request compiled by services with 1, 2, and 8 workers must
    // produce byte-identical functions and statistics: concurrency is a
    // throughput knob, never an output knob.
    let mut outputs: Vec<(String, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        let svc = CompileService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        // A few requests in flight at once so multi-worker services
        // actually interleave.
        let reqs: Vec<_> = (0..4u64).map(|s| busy_request(40 + s).0).collect();
        let ids: Vec<_> = reqs.into_iter().map(|r| svc.submit(r)).collect();
        let mut fns = String::new();
        let mut stats = String::new();
        for id in ids {
            let resp = svc.wait(id);
            assert_eq!(resp.status, RequestStatus::Done, "workers={workers}");
            let c = resp.compiled.unwrap();
            fns.push_str(&c.function.to_string());
            stats.push_str(&format!("{:?}\n", c.stats));
        }
        outputs.push((fns, stats));
    }
    for w in &outputs[1..] {
        assert_eq!(outputs[0].0, w.0, "functions differ across worker counts");
        assert_eq!(outputs[0].1, w.1, "stats differ across worker counts");
    }
}

#[test]
fn statuses_progress_to_terminal() {
    let svc = CompileService::new(ServiceConfig::default());
    let (req, _) = busy_request(2);
    let id = svc.submit(req);
    let resp = svc
        .wait_timeout(id, Duration::from_secs(60))
        .expect("request must be answered");
    assert_eq!(resp.status, RequestStatus::Done);
    assert_eq!(svc.stats().terminal(), 1);
}

#[test]
fn unusable_constraints_fail_typed_without_a_retry() {
    use chf_core::constraints::InvalidConstraints;
    let svc = CompileService::new(ServiceConfig::default());
    for (reg_banks, headroom_percent, expected) in [
        (0, 10, InvalidConstraints::NoRegisterBanks),
        (4, 150, InvalidConstraints::HeadroomOver100 { percent: 150 }),
    ] {
        let (mut req, _) = busy_request(3);
        req.config.constraints.reg_banks = reg_banks;
        req.config.constraints.headroom_percent = headroom_percent;
        let resp = svc.wait(svc.submit(req));
        assert_eq!(resp.status, RequestStatus::Failed);
        assert_eq!(resp.retries, 0, "a typed error is not retried");
        assert!(resp.compiled.is_none());
        assert_eq!(resp.error, Some(ChfError::Constraints { error: expected }));
    }
    let stats = svc.stats();
    assert_eq!((stats.failed, stats.retries), (2, 0));
}

#[test]
fn hostile_register_counts_fail_as_parse_errors() {
    let svc = CompileService::new(ServiceConfig::default());
    for header in ["params: 1, regs: 4294967295", "params: 4294967295, regs: 1"] {
        let text = format!("fn f({header})\nB0 (freq 1):\n  exits:\n    -> ret r0\n");
        let resp = svc.wait(svc.submit(CompileRequest::source(text)));
        assert_eq!(resp.status, RequestStatus::Failed, "{header}");
        assert!(resp.compiled.is_none());
        match resp.error {
            Some(ChfError::Parse { error }) => assert_eq!(error.line, 1, "{header}"),
            other => panic!("{header}: expected a parse error, got {other:?}"),
        }
    }
    let max = chf_ir::parse::MAX_REGS;
    let text =
        format!("fn f(params: 1, regs: 2)\nB0:\n    r{max} = mov r0\n  exits:\n    -> ret r1\n");
    let resp = svc.wait(svc.submit(CompileRequest::source(text)));
    assert!(
        matches!(resp.error, Some(ChfError::Parse { .. })),
        "{resp:?}"
    );
    assert_eq!(svc.stats().failed, 3);
}
