//! Parallel evaluation harness.
//!
//! Every cell of the evaluation matrix — (workload × configuration) for
//! Tables 1–3, Figure 7 and the ablation study — is an independent
//! compile-and-simulate job: compilation is deterministic and shares no
//! state across workloads. [`par_map`] fans those jobs across a scoped
//! thread pool using a shared atomic work index (no work-stealing deps, no
//! channels), then reassembles results **in input order**, so the rendered
//! tables and archived CSVs are byte-identical to a sequential run no matter
//! how the scheduler interleaves the workers.
//!
//! # Panic isolation and retry
//!
//! A panic inside a `par_map` job unwinds its worker thread and poisons the
//! whole run — one bad workload kills a table that took minutes to build.
//! [`par_map_isolated`] prevents that: each job runs under
//! `std::panic::catch_unwind`, and a panicked job is retried **once**,
//! immediately (`retry_once`, the rule the compile service's workers
//! share). Compilation and simulation are deterministic, so a genuine bug
//! panics again and the job is reported as poisoned; the retry recovers a
//! job whose panic did not come from its input, such as an injected fault.
//! The returned `Result<R, String>` carries the panic payload's message so
//! the caller can degrade to a marked table row / CSV sentinel instead of
//! dying. Input order (and therefore byte-determinism of the rendered
//! output for non-poisoned rows) is preserved exactly as with [`par_map`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parse a raw `CHF_JOBS`-style setting into a worker count clamped to
/// `[1, cap]`. This is the single place the repo interprets a job-count
/// string: unset or unparseable input means "use everything" (`cap`), `0`
/// clamps up to `1` (forcing sequential execution), and oversubscription
/// clamps down to `cap` — oversubscribing compile-and-simulate jobs only
/// thrashes caches and, under cgroup CPU quotas, can stall the run. A
/// `cap` of `0` (a pathological caller) is treated as `1`.
pub fn clamp_jobs(raw: Option<&str>, cap: usize) -> usize {
    let cap = cap.max(1);
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) => n.clamp(1, cap),
        None => cap,
    }
}

/// Number of worker threads to use: the `CHF_JOBS` environment variable
/// interpreted by [`clamp_jobs`] with the machine's available parallelism
/// as the cap (a value of `1` forces sequential execution).
pub fn workers() -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    clamp_jobs(std::env::var("CHF_JOBS").ok().as_deref(), avail)
}

/// Render a `catch_unwind` payload as a human-readable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `work` over `items` on `workers` threads, returning results in input
/// order.
///
/// Threads pull indices from a shared atomic counter, so long-running items
/// don't serialize behind a static partition. With `workers <= 1` (or a
/// single item) the map runs inline on the caller's thread — the sequential
/// path stays trivially identical.
pub fn par_map<T, R, F>(items: &[T], workers: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let threads = workers.min(items.len());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Batch each worker's results and merge once at the end:
                // the lock is taken `workers` times, not `items` times.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, work(&items[i])));
                }
                done.lock().expect("worker panicked").extend(local);
            });
        }
    });
    let mut tagged = done.into_inner().expect("worker panicked");
    debug_assert_eq!(tagged.len(), items.len());
    // Deterministic output order: sort by input index.
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Run `work` under `catch_unwind`, retrying it once, immediately, if it
/// panics. `work` gets the attempt number (1, then 2). Returns its result,
/// or the first panic's message when both attempts panicked, and the
/// retries spent (0 or 1).
pub(crate) fn retry_once<R>(work: impl Fn(u32) -> R) -> (Result<R, String>, u32) {
    match catch_unwind(AssertUnwindSafe(|| work(1))) {
        Ok(r) => (Ok(r), 0),
        Err(first) => {
            let second = catch_unwind(AssertUnwindSafe(|| work(2)));
            (second.map_err(|_| panic_message(first.as_ref())), 1)
        }
    }
}

/// [`par_map`] with per-job panic isolation: a job that panics is retried
/// once; a second panic yields `Err(message)` in that job's slot instead of
/// tearing down the run. See the module docs for the retry rationale.
pub fn par_map_isolated<T, R, F>(items: &[T], workers: usize, work: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map(items, workers, |item| retry_once(|_| work(item)).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, 8, |&i| i * 3);
        assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..37).map(|i| i * 7 + 1).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for workers in [1, 2, 3, 16] {
            let par = par_map(&items, workers, |&x| x.wrapping_mul(x));
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[42], 4, |&x| x + 1), vec![43]);
    }

    #[test]
    fn workers_is_at_least_one() {
        assert!(workers() >= 1);
    }

    #[test]
    fn clamp_jobs_handles_zero_garbage_and_huge() {
        // 0 forces sequential, never "use everything".
        assert_eq!(clamp_jobs(Some("0"), 8), 1);
        // Garbage and unset fall back to the cap.
        assert_eq!(clamp_jobs(Some("garbage"), 8), 8);
        assert_eq!(clamp_jobs(Some(""), 8), 8);
        assert_eq!(clamp_jobs(Some("-3"), 8), 8);
        assert_eq!(clamp_jobs(None, 8), 8);
        // Oversubscription clamps down to the cap.
        assert_eq!(clamp_jobs(Some("4096"), 8), 8);
        assert_eq!(clamp_jobs(Some(&usize::MAX.to_string()), 3), 3);
        // In-range values pass through (whitespace tolerated).
        assert_eq!(clamp_jobs(Some(" 3 "), 8), 3);
        assert_eq!(clamp_jobs(Some("1"), 8), 1);
        // A pathological cap of 0 still yields a usable count.
        assert_eq!(clamp_jobs(Some("5"), 0), 1);
        assert_eq!(clamp_jobs(None, 0), 1);
    }

    /// Serializes the tests that swap the process-global panic hook.
    static HOOK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn isolated_map_contains_panics() {
        let _guard = HOOK_LOCK.lock().unwrap();
        // Suppress the expected panic backtraces for this test only.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<i32> = (0..20).collect();
        let out = par_map_isolated(&items, 4, |&i| {
            assert!(i != 7 && i != 13, "poisoned item {i}");
            i * 2
        });
        std::panic::set_hook(prev);
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i == 7 || i == 13 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("poisoned item"), "unexpected message {msg:?}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as i32) * 2);
            }
        }
    }

    #[test]
    fn isolated_map_matches_plain_map_when_clean() {
        let items: Vec<u64> = (0..33).collect();
        let plain = par_map(&items, 4, |&x| x + 1);
        let isolated: Vec<u64> = par_map_isolated(&items, 4, |&x| x + 1)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(plain, isolated);
    }

    #[test]
    fn isolated_retry_recovers_transient_failures() {
        use std::collections::BTreeSet;
        let _guard = HOOK_LOCK.lock().unwrap();
        // Fail each item exactly once: the retry must recover every job.
        let failed_once: Mutex<BTreeSet<i32>> = Mutex::new(BTreeSet::new());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<i32> = (0..8).collect();
        let out = par_map_isolated(&items, 2, |&i| {
            if failed_once.lock().unwrap().insert(i) {
                panic!("transient failure on {i}");
            }
            i
        });
        std::panic::set_hook(prev);
        assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
    }
}
