//! In-memory span and counter recorder for the `--trace` run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer's public functions; the program under test is not instrumented.
//! Each thread records into its own buffer, which [`take`] hands back when
//! the thread's work is done. Nothing is recorded unless [`set_enabled`]
//! turned tracing on, so the untraced runs pay one relaxed atomic load per
//! would-be span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`core.form`, `sim.timing`, …).
    pub name: &'static str,
    /// Start, as an offset from the thread buffer's epoch.
    pub start: Duration,
    /// End, as an offset from the same epoch.
    pub end: Duration,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Workload item the span worked for.
    pub item: u64,
}

/// Everything one thread recorded.
#[derive(Debug)]
pub struct ThreadTrace {
    /// Spans in opening order.
    pub spans: Vec<Span>,
    /// Named counters.
    pub counters: BTreeMap<&'static str, f64>,
    /// Traced wall time: from the buffer's epoch to [`stop_clock`], or to
    /// [`take`] when the clock was not stopped.
    pub wall: Duration,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    item: u64,
    counters: BTreeMap<&'static str, f64>,
    stopped: Option<Duration>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            item: 0,
            counters: BTreeMap::new(),
            stopped: None,
        }
    }

    fn push(&mut self, name: &'static str, start: Duration, end: Duration) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied(),
            item: self.item,
        });
        self.spans.len() - 1
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Turn recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed();
        let idx = r.push(name, now, now);
        r.stack.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[idx].end = r.epoch.elapsed();
        r.stack.pop();
    });
    out
}

/// Record a span whose interval was measured outside [`span`], such as
/// one rebuilt from durations the service reports. Returns its index for
/// [`replay`].
pub fn record(name: &'static str, start: Instant, end: Instant) -> Option<usize> {
    if !enabled() {
        return None;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let (start, end) = (
            start.saturating_duration_since(r.epoch),
            end.saturating_duration_since(r.epoch),
        );
        Some(r.push(name, start, end))
    })
}

/// Re-run work that happened inside the opaque span `parent` so its layers
/// show as `parent`'s children. Replays belong after [`stop_clock`]: they
/// are not part of the traced wall time.
pub fn replay<R>(parent: Option<usize>, f: impl FnOnce() -> R) -> R {
    let Some(parent) = parent else {
        return f();
    };
    REC.with(|r| r.borrow_mut().stack.push(parent));
    let out = f();
    REC.with(|r| r.borrow_mut().stack.pop());
    out
}

/// End this thread's traced wall time now; spans recorded later (replays)
/// still count, but their time does not.
pub fn stop_clock() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stopped = Some(r.epoch.elapsed());
    });
}

/// Tag subsequent spans with workload item `id`.
pub fn set_item(id: u64) {
    if enabled() {
        REC.with(|r| r.borrow_mut().item = id);
    }
}

/// Add `v` to counter `name`.
pub fn add(name: &'static str, v: f64) {
    if enabled() {
        REC.with(|r| *r.borrow_mut().counters.entry(name).or_insert(0.0) += v);
    }
}

/// Start this thread's buffer afresh: its epoch (and so its wall time)
/// begins now.
pub fn reset() {
    REC.with(|r| *r.borrow_mut() = Recorder::new());
}

/// Hand back and clear this thread's buffer.
pub fn take() -> ThreadTrace {
    REC.with(|r| {
        let r = std::mem::replace(&mut *r.borrow_mut(), Recorder::new());
        ThreadTrace {
            wall: r.stopped.unwrap_or_else(|| r.epoch.elapsed()),
            spans: r.spans,
            counters: r.counters,
        }
    })
}

/// Per-name totals over a set of thread buffers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Self time per span name.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed counters.
    pub counters: BTreeMap<&'static str, f64>,
    /// Summed traced wall time of every thread.
    pub traced: Duration,
}

/// Fold thread buffers into per-name totals. A name's self time is the
/// summed durations of its spans minus the summed durations of their
/// children, floored at zero. Durations, not intervals, because replayed
/// children run after their parent's interval; and the floor applies to
/// the total, not per span, because a replay's noise against the duration
/// it decomposes goes both ways.
pub fn totals(threads: &[ThreadTrace]) -> Totals {
    let mut t = Totals::default();
    let mut own: BTreeMap<&'static str, i128> = BTreeMap::new();
    let nanos = |s: &Span| s.end.saturating_sub(s.start).as_nanos() as i128;
    for th in threads {
        for s in &th.spans {
            *own.entry(s.name).or_default() += nanos(s);
            *t.calls.entry(s.name).or_default() += 1;
            if let Some(p) = s.parent {
                *own.entry(th.spans[p].name).or_default() -= nanos(s);
            }
        }
        for (k, v) in &th.counters {
            *t.counters.entry(k).or_insert(0.0) += v;
        }
        t.traced += th.wall;
    }
    for (name, ns) in own {
        t.self_time
            .insert(name, Duration::from_nanos(ns.max(0) as u64));
    }
    t
}

/// Write every span, one per line: thread, index, parent (`-` for a root),
/// item, name, start and end in nanoseconds from the thread's epoch.
///
/// # Errors
/// Any I/O error creating or writing `path`.
pub fn write_spans(path: &std::path::Path, threads: &[ThreadTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("thread\tspan\tparent\titem\tname\tstart_ns\tend_ns\n");
    for (ti, th) in threads.iter().enumerate() {
        for (si, s) in th.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{ti}\t{si}\t{parent}\t{}\t{}\t{}\t{}",
                s.item,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    // One test owns the global switch, so parallel tests cannot flip it.
    #[test]
    fn self_time_subtracts_children_and_replays() {
        set_enabled(true);
        reset();
        set_item(7);
        span("outer", || {
            sleep(Duration::from_millis(4));
            span("inner", || sleep(Duration::from_millis(6)));
        });
        let now = Instant::now();
        // Both within the 10 ms this thread has recorded so far.
        let short = record("opaque", now - Duration::from_millis(2), now);
        let long = record("opaque", now - Duration::from_millis(8), now);
        stop_clock();
        replay(short, || span("part", || sleep(Duration::from_millis(6))));
        replay(long, || span("part", || sleep(Duration::from_millis(1))));
        add("n", 2.0);
        add("n", 1.0);
        let th = take();
        set_enabled(false);
        span("ignored", || ());

        assert_eq!(th.spans.len(), 6);
        assert_eq!(th.spans[1].parent, Some(0));
        assert_eq!(th.spans[4].parent, Some(2));
        assert_eq!(th.spans[5].parent, Some(3));
        assert!(th.spans.iter().all(|s| s.item == 7));
        assert!(
            th.wall < Duration::from_millis(15),
            "replay time is off the clock"
        );

        let t = totals(&[th]);
        let ms = |n: &str| t.self_time[n].as_secs_f64() * 1e3;
        assert!((3.9..6.0).contains(&ms("outer")), "outer {}", ms("outer"));
        assert!(ms("inner") >= 5.9);
        // (2 + 8) - (6 + 1): replay noise cancels across spans.
        assert!(
            (1.5..3.01).contains(&ms("opaque")),
            "opaque {}",
            ms("opaque")
        );
        assert_eq!(t.calls["part"], 2);
        assert_eq!(t.counters["n"], 3.0);
        assert!(!t.calls.contains_key("ignored"));
    }
}
