#![warn(missing_docs)]
//! # chf-service — resilient compile-as-a-service
//!
//! A long-lived, in-process compile service wrapping the hyperblock
//! formation pipeline (see `chf-core`). It exists because the convergent
//! trial loop is exactly the kind of unbounded, occasionally-pathological
//! work that must never take a daemon down with it: every failure mode has
//! a *specified* terminal state, and the chaos harness (`chaos --service`)
//! tests that specification rather than trusting it.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit ──► Queued ──► Running ──► Done       (full result, cacheable)
//!    │                     │  ├───► Degraded   (deadline hit mid-formation:
//!    │                     │  │                 the anytime partial result)
//!    │                     │  ├───► TimedOut   (deadline hit, fail-fast
//!    │                     │  │                 semantics requested)
//!    │                     │  └───► Failed     (contained permanent error)
//!    │                     └─retry─┐           (transient failures only,
//!    │                     ▲───────┘            capped exponential backoff)
//!    └────────────────────────────► Rejected   (queue full: load shed
//!                                               immediately, never blocks)
//! ```
//!
//! * **Backpressure**: the queue is bounded; a submit that finds it full is
//!   `Rejected` synchronously. The service never blocks a client or grows
//!   without bound.
//! * **Fault containment**: every compile runs under `catch_unwind`. A
//!   panic becomes [`ChfError::Panicked`] — transient by definition — and
//!   is retried with capped exponential backoff before being reported.
//! * **Deadlines**: a per-request wall-clock deadline is plumbed into the
//!   formation loop's trial-budget checkpoint
//!   ([`FormationConfig::deadline`](chf_core::convergent::FormationConfig)),
//!   so expiry is graceful: the blocks formed so far are finished through
//!   the backend and returned as `Degraded` — the paper's anytime
//!   convergent loop, surfaced as a service guarantee.
//! * **Memoization**: results of fully successful compiles are stored in a
//!   content-addressed, integrity-revalidated cache ([`cache`]); repeated
//!   submissions — the million-user traffic pattern — are served
//!   byte-identically without recompiling.
//!
//! ## Quickstart
//!
//! ```
//! use chf_service::{CompileRequest, CompileService, RequestStatus};
//!
//! let svc = CompileService::new(Default::default());
//! let id = svc.submit(CompileRequest::source(
//!     "fn id(params: 1, regs: 2)\nB0 \"entry\" (freq 1):\n  exits:\n    -> ret r0\n",
//! ));
//! assert_eq!(svc.wait(id).status, RequestStatus::Done);
//! ```

pub mod cache;
pub mod chaos;
mod fifo;
pub mod parallel;
pub mod shape;
pub mod stats;

use cache::{cache_key, CacheKey, FormationCache, Lookup};
use chf_core::pipeline::{try_compile_budgets, CompileConfig, Compiled};
use chf_core::tournament::{
    baseline, crown, entrant_label, improvement_permille, score, BehaviourDigest, TournamentConfig,
};
use chf_core::{ChfError, PolicyKind};
use chf_ir::function::Function;
use chf_ir::fxhash::{FxHashMap, FxHasher};
use chf_ir::profile::ProfileData;
use shape::{ShapeCache, ShapeEntry};
use stats::{ServiceStats, StatsCollector};
use std::collections::VecDeque;
use std::hash::Hasher as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one submitted request for status polling.
pub type RequestId = u64;

/// Shape-cache guard band, in permille of baseline improvement: a hot
/// (cached-winner) compile whose improvement falls more than this far below
/// the cached improvement triggers a full tournament instead of trusting the
/// stale winner.
const GUARD_BAND_PERMILLE: i64 = 20;

/// Retry policy for *transient* failures ([`ChfError::is_transient`]):
/// capped exponential backoff. Permanent errors are never retried — they
/// are deterministic in the input.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): `base * 2^(retry-1)`,
    /// capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

/// Static configuration of a [`CompileService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. Interpreted exactly like
    /// `CHF_JOBS` (via [`parallel::clamp_jobs`]): clamped to
    /// `[1, available_parallelism]`.
    pub workers: usize,
    /// Bound on queued (not yet running) requests. A submit that finds the
    /// queue full is `Rejected` immediately; 0 rejects everything — useful
    /// as a drain mode.
    pub queue_capacity: usize,
    /// Formation-cache capacity in entries; 0 disables memoization.
    pub cache_capacity: usize,
    /// CFG-shape → tournament-winner cache capacity in shapes; 0 disables
    /// shape specialization (every tournament runs the full portfolio).
    pub shape_cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: usize::MAX, // clamped to available parallelism
            queue_capacity: 256,
            cache_capacity: 1024,
            shape_cache_capacity: 1024,
            default_deadline: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Per-request options.
#[derive(Clone, Debug, Default)]
pub struct RequestOptions {
    /// Wall-clock budget for the compile, measured from the moment a worker
    /// starts it (queue wait is governed by backpressure, not deadlines).
    /// Overrides [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Report deadline expiry as `TimedOut` (no artifact) instead of the
    /// default graceful `Degraded` (anytime partial artifact).
    pub fail_on_deadline: bool,
    /// Fault-injection hook: panic inside the worker on the first N compile
    /// attempts of this request. Exercises the containment + retry path
    /// deterministically; 0 (the default) injects nothing.
    pub inject_panics: u32,
}

/// The program payload of a request.
#[derive(Clone, Debug)]
pub enum Program {
    /// Textual `.til` IR, parsed (and verified) by the service.
    Source(String),
    /// Already-built IR.
    Ir(Function),
}

/// One compile request: a program, its training profile, a configuration,
/// and per-request options.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// The program to compile.
    pub program: Program,
    /// Training profile (frequencies, trip histograms). An empty default
    /// compiles unprofiled.
    pub profile: ProfileData,
    /// Compiler configuration. `deadline` is overwritten per attempt from
    /// [`RequestOptions::deadline`]; setting `chaos` opts the request out
    /// of the cache (chaos alters committed merges by poisoning trial
    /// candidates, so memoizing it would alias distinct results).
    pub config: CompileConfig,
    /// Lifecycle options.
    pub options: RequestOptions,
}

impl CompileRequest {
    /// A request compiling `.til` text under the paper's best
    /// configuration.
    pub fn source(text: impl Into<String>) -> Self {
        CompileRequest {
            program: Program::Source(text.into()),
            profile: ProfileData::default(),
            config: CompileConfig::convergent(),
            options: RequestOptions::default(),
        }
    }

    /// A request compiling built IR with a training profile.
    pub fn ir(function: Function, profile: ProfileData) -> Self {
        CompileRequest {
            program: Program::Ir(function),
            profile,
            config: CompileConfig::convergent(),
            options: RequestOptions::default(),
        }
    }
}

/// Lifecycle states. `Queued` and `Running` are transient; the rest are
/// terminal.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RequestStatus {
    /// Accepted; waiting for a worker.
    Queued,
    /// A worker is compiling it (possibly on a retry attempt).
    Running,
    /// Compiled fully.
    Done,
    /// Deadline expired mid-formation; the response carries the anytime
    /// partial result (valid, verified, behaviour-preserving — just fewer
    /// merges than an unbounded run).
    Degraded,
    /// Deadline expired and the request asked for fail-fast semantics.
    TimedOut,
    /// Shed at submission: the bounded queue was full.
    Rejected,
    /// Contained permanent error (verifier rejection, parse failure, or a
    /// transient failure that exhausted its retries).
    Failed,
}

impl RequestStatus {
    /// Whether this state ends the lifecycle.
    pub fn is_terminal(self) -> bool {
        !matches!(self, RequestStatus::Queued | RequestStatus::Running)
    }
}

/// Terminal outcome of a request.
#[derive(Clone, Debug)]
pub struct CompileResponse {
    /// The request this answers.
    pub id: RequestId,
    /// Terminal status.
    pub status: RequestStatus,
    /// The compiled artifact (`Done` always; `Degraded` carries the partial
    /// result).
    pub compiled: Option<Compiled>,
    /// The contained error (`Failed` only).
    pub error: Option<ChfError>,
    /// Whether the artifact was served from the formation cache.
    pub cache_hit: bool,
    /// Compile attempts beyond the first.
    pub retries: u32,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Wall time of the (final) compile attempt, zero for cache hits and
    /// rejections.
    pub compile_time: Duration,
}

/// One policy-tournament request: the program and profile to compile, the
/// training input to score entrants on, and the portfolio.
#[derive(Clone, Debug)]
pub struct TournamentRequest {
    /// The program, in basic-block form.
    pub function: Function,
    /// Training profile (also the shape fingerprint's skew input).
    pub profile: ProfileData,
    /// Arguments of the scoring run.
    pub args: Vec<i64>,
    /// Initial memory of the scoring run.
    pub memory: Vec<(i64, i64)>,
    /// Portfolio, metric, and base configuration.
    pub config: TournamentConfig,
}

/// Terminal outcome of a service-side tournament.
#[derive(Clone, Debug)]
pub struct TournamentOutcome {
    /// The winning artifact; `stats.tournament_entrants` records how many
    /// entrants were scored to pick it (1 = shape-cache hot path). One
    /// policy's budget entrants share a formation run, so that is more than
    /// the runs it took ([`ServiceStats::formations`]).
    pub compiled: Compiled,
    /// Winning policy.
    pub policy: PolicyKind,
    /// Winning trial budget.
    pub budget: Option<usize>,
    /// Winning entrant's label (`HF@16`, …).
    pub label: String,
    /// Winning score (lower is better).
    pub score: u64,
    /// Baseline score of the uncompiled input on the same metric.
    pub baseline: u64,
    /// CFG-shape key this tournament was cached under.
    pub shape: u64,
    /// Whether the shape cache answered (hot path: one policy compile).
    pub shape_hit: bool,
    /// Whether a shape hit regressed past the guard band and fell back to
    /// the full portfolio.
    pub guard_fallback: bool,
    /// Entrants scored for this tournament (the formation runs behind them
    /// are counted in [`ServiceStats::formations`]).
    pub entrants_run: usize,
}

enum State {
    Queued,
    Running,
    Terminal(Box<CompileResponse>),
}

/// One queued unit of work: a program compiled once per member's trial
/// budget, by one formation run.
struct Job {
    members: Vec<Member>,
    function: Function,
    profile: ProfileData,
    /// The members' shared configuration; each member's budget replaces
    /// `trial_budget`.
    config: CompileConfig,
    options: RequestOptions,
    enqueued: Instant,
}

/// One request carried by a [`Job`].
struct Member {
    id: RequestId,
    budget: Option<usize>,
    key: Option<CacheKey>,
}

struct Inner {
    retry: RetryPolicy,
    default_deadline: Option<Duration>,
    queue_capacity: usize,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    states: Mutex<FxHashMap<RequestId, State>>,
    states_cv: Condvar,
    cache: FormationCache,
    shapes: ShapeCache,
    stats: StatsCollector,
    shutdown: AtomicBool,
    next_id: AtomicU64,
}

/// The long-lived compile service. Dropping it shuts the worker pool down
/// (draining nothing: queued jobs are abandoned, which is safe because
/// every client API is on this same object).
pub struct CompileService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// Start a service with `config.workers` worker threads.
    pub fn new(config: ServiceConfig) -> Self {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = parallel::clamp_jobs(Some(&config.workers.to_string()), avail);
        let inner = Arc::new(Inner {
            retry: config.retry,
            default_deadline: config.default_deadline,
            queue_capacity: config.queue_capacity,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            states: Mutex::new(FxHashMap::default()),
            states_cv: Condvar::new(),
            cache: FormationCache::new(config.cache_capacity),
            shapes: ShapeCache::new(config.shape_cache_capacity),
            stats: StatsCollector::default(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        CompileService {
            inner,
            workers: handles,
        }
    }

    /// Submit a request. Always returns an id whose lifecycle terminates:
    /// parse failures terminate as `Failed`, a full queue as `Rejected`
    /// (both synchronously), cache hits as `Done` without queueing.
    ///
    /// The one-budget case of [`CompileService::submit_budgets`].
    pub fn submit(&self, req: CompileRequest) -> RequestId {
        let budget = req.config.trial_budget;
        self.submit_budgets(req, &[budget])[0]
    }

    /// Submit `req` once per trial budget in `budgets` (its own
    /// `config.trial_budget` is ignored) and return one id per budget, in
    /// order. Each id terminates as a [`CompileService::submit`] of `req`
    /// with that budget would.
    ///
    /// The members not answered by the cache share one queued job: it takes
    /// one queue slot (a shed job rejects every member), and one worker
    /// compiles them all with one formation run
    /// ([`chf_core::try_compile_budgets`]) under one deadline. Each id
    /// still gets its own response, status and formation-cache entry.
    pub fn submit_budgets(&self, req: CompileRequest, budgets: &[Option<usize>]) -> Vec<RequestId> {
        let inner = &self.inner;
        let ids: Vec<RequestId> = budgets
            .iter()
            .map(|_| {
                StatsCollector::bump(&inner.stats.submitted);
                inner.next_id.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        // The response of a request answered without a worker.
        let unqueued = |id, status| CompileResponse {
            id,
            status,
            compiled: None,
            error: None,
            cache_hit: false,
            retries: 0,
            queue_wait: Duration::ZERO,
            compile_time: Duration::ZERO,
        };

        // Parse (and therefore size-check) up front, on the client's
        // thread: garbage text never occupies a queue slot.
        let function = match req.program {
            Program::Ir(f) => f,
            Program::Source(text) => match chf_ir::parse::parse_function(&text) {
                Ok(f) => f,
                Err(error) => {
                    for &id in &ids {
                        StatsCollector::bump(&inner.stats.failed);
                        self.finish(CompileResponse {
                            error: Some(ChfError::Parse {
                                error: error.clone(),
                            }),
                            ..unqueued(id, RequestStatus::Failed)
                        });
                    }
                    return ids;
                }
            },
        };

        // Cache fast path. Chaos-instrumented and panic-injected requests
        // bypass it: the former compile to different (trial-poisoned)
        // results, the latter exist to exercise the worker path.
        let cacheable = req.config.chaos.is_none() && req.options.inject_panics == 0;
        let mut config = req.config;
        let mut members = Vec::with_capacity(ids.len());
        for (&id, &budget) in ids.iter().zip(budgets) {
            config.trial_budget = budget;
            let key = cacheable.then(|| cache_key(&function, &config, &req.profile));
            if let Some(k) = &key {
                match inner.cache.get(k) {
                    Lookup::Hit(compiled) => {
                        StatsCollector::bump(&inner.stats.cache_hits);
                        StatsCollector::bump(&inner.stats.done);
                        self.finish(CompileResponse {
                            compiled: Some(*compiled),
                            cache_hit: true,
                            ..unqueued(id, RequestStatus::Done)
                        });
                        continue;
                    }
                    Lookup::Corrupt => {
                        // Revalidation failed: the entry is already dropped;
                        // fall through to a cold compile.
                        StatsCollector::bump(&inner.stats.cache_corrupt_dropped);
                    }
                    Lookup::Miss => StatsCollector::bump(&inner.stats.cache_misses),
                }
            }
            members.push(Member { id, budget, key });
        }
        if members.is_empty() {
            return ids;
        }

        // Bounded queue with load shedding: beyond capacity we answer
        // `Rejected` now — we never block the client and never buffer
        // unboundedly.
        {
            let mut q = inner.queue.lock().expect("queue lock");
            if q.len() >= inner.queue_capacity {
                drop(q);
                for m in &members {
                    StatsCollector::bump(&inner.stats.rejected);
                    self.finish(unqueued(m.id, RequestStatus::Rejected));
                }
                return ids;
            }
            let mut states = inner.states.lock().expect("states lock");
            for m in &members {
                states.insert(m.id, State::Queued);
            }
            drop(states);
            q.push_back(Job {
                members,
                function,
                profile: req.profile,
                config,
                options: req.options,
                enqueued: Instant::now(),
            });
        }
        inner.queue_cv.notify_one();
        ids
    }

    fn finish(&self, resp: CompileResponse) {
        finish(&self.inner, resp);
    }

    /// Current lifecycle state, or `None` for an unknown id.
    pub fn status(&self, id: RequestId) -> Option<RequestStatus> {
        let states = self.inner.states.lock().expect("states lock");
        states.get(&id).map(|s| match s {
            State::Queued => RequestStatus::Queued,
            State::Running => RequestStatus::Running,
            State::Terminal(r) => r.status,
        })
    }

    /// Block until `id` reaches a terminal state and return its response.
    ///
    /// # Panics
    /// Panics on an id this service never issued.
    pub fn wait(&self, id: RequestId) -> CompileResponse {
        self.wait_deadline(id, None)
            .expect("deadline-free wait always terminates")
    }

    /// [`CompileService::wait`] bounded by `timeout`; `None` when the
    /// request is still in flight at expiry.
    pub fn wait_timeout(&self, id: RequestId, timeout: Duration) -> Option<CompileResponse> {
        self.wait_deadline(id, Some(Instant::now() + timeout))
    }

    fn wait_deadline(&self, id: RequestId, until: Option<Instant>) -> Option<CompileResponse> {
        let mut states = self.inner.states.lock().expect("states lock");
        loop {
            match states.get(&id) {
                Some(State::Terminal(r)) => return Some((**r).clone()),
                Some(_) => {}
                None => panic!("unknown request id {id}"),
            }
            match until {
                None => {
                    states = self
                        .inner
                        .states_cv
                        .wait(states)
                        .expect("states lock poisoned");
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _timeout) = self
                        .inner
                        .states_cv
                        .wait_timeout(states, d - now)
                        .expect("states lock poisoned");
                    states = guard;
                }
            }
        }
    }

    /// Point-in-time service health snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats.snapshot()
    }

    /// Entries currently memoized.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Shapes currently cached in the tournament winner cache.
    pub fn shape_cache_len(&self) -> usize {
        self.inner.shapes.len()
    }

    /// Fault-injection / test hook: plant a winner entry for the shape
    /// `req` would hit, with an arbitrary (possibly inflated) cached
    /// improvement. An inflated score makes the next
    /// [`CompileService::compile_tournament`] hot path regress past the
    /// guard band and exercise the fallback. Returns the shape key.
    pub fn override_shape_winner(
        &self,
        req: &TournamentRequest,
        policy: PolicyKind,
        budget: Option<usize>,
        improvement_permille: i64,
    ) -> u64 {
        let shape = shape_key(&req.function, &req.profile, &req.config);
        self.inner.shapes.insert(
            shape,
            ShapeEntry {
                policy,
                budget,
                improvement_permille,
            },
        );
        shape
    }

    /// Run a per-function policy tournament through the service.
    ///
    /// Cold path (shape miss): each policy's budget entrants are submitted
    /// as one job ([`CompileService::submit_budgets`]: one formation run
    /// serves them all), every entrant is scored on the training input in
    /// deterministic portfolio order, and the winner (ties to the earlier
    /// entrant) is cached under the function's CFG-shape fingerprint —
    /// unless an entrant was cut by the deadline.
    ///
    /// Hot path (shape hit): a *single* compile with the cached winning
    /// policy. The fresh artifact is re-scored; if its improvement over
    /// baseline regresses more than the 20‰ guard band below the
    /// cached improvement, the entry is distrusted and the full tournament
    /// runs instead (refreshing the cache). A stale entry therefore costs
    /// one extra compile, never a worse artifact.
    ///
    /// Deterministic at any worker count: parallelism only changes when
    /// entrants finish, not how they score or tie-break.
    ///
    /// # Errors
    /// [`ChfError`] when the baseline cannot be established or every
    /// portfolio entrant fails (compile error, shed, or miscompile).
    pub fn compile_tournament(
        &self,
        req: &TournamentRequest,
    ) -> Result<TournamentOutcome, ChfError> {
        let stats = &self.inner.stats;
        StatsCollector::bump(&stats.tournaments);
        let shape = shape_key(&req.function, &req.profile, &req.config);
        let (digest, base_score) =
            baseline(&req.function, &req.args, &req.memory, req.config.metric)
                .map_err(|message| ChfError::Tournament { message })?;

        if let Some(entry) = self.inner.shapes.get(shape) {
            StatsCollector::bump(&stats.shape_hits);
            StatsCollector::bump(&stats.tournament_entrants);
            let mut config = req.config.base.clone();
            config.policy = entry.policy;
            config.trial_budget = entry.budget;
            let resp = self.wait(self.submit(CompileRequest {
                program: Program::Ir(req.function.clone()),
                profile: req.profile.clone(),
                config,
                options: RequestOptions::default(),
            }));
            let hot = resp.compiled.and_then(|compiled| {
                score(
                    &compiled.function,
                    &req.args,
                    &req.memory,
                    req.config.metric,
                    &digest,
                )
                .ok()
                .map(|s| (compiled, s))
            });
            if let Some((mut compiled, s)) = hot {
                let improvement = improvement_permille(base_score, s);
                if improvement + GUARD_BAND_PERMILLE >= entry.improvement_permille {
                    compiled.stats.tournament_entrants = 1;
                    return Ok(TournamentOutcome {
                        compiled,
                        policy: entry.policy,
                        budget: entry.budget,
                        label: entrant_label(entry.policy, entry.budget),
                        score: s,
                        baseline: base_score,
                        shape,
                        shape_hit: true,
                        guard_fallback: false,
                        entrants_run: 1,
                    });
                }
            }
            // Cached policy failed outright or regressed past the guard
            // band: distrust the entry, run the full portfolio.
            StatsCollector::bump(&stats.guard_fallbacks);
            let mut outcome = self.run_portfolio(req, shape, &digest, base_score)?;
            outcome.shape_hit = true;
            outcome.guard_fallback = true;
            outcome.entrants_run += 1; // the distrusted hot compile
            return Ok(outcome);
        }

        StatsCollector::bump(&stats.shape_misses);
        self.run_portfolio(req, shape, &digest, base_score)
    }

    /// Cold tournament: submit each policy's budget entrants as one job
    /// ([`CompileService::submit_budgets`]), crown the winner with
    /// [`crown`] as the groups finish, and cache it unless an artifact was
    /// cut by the deadline.
    fn run_portfolio(
        &self,
        req: &TournamentRequest,
        shape: u64,
        digest: &BehaviourDigest,
        base_score: u64,
    ) -> Result<TournamentOutcome, ChfError> {
        let config = &req.config;
        let entrants = config.policies.len() * config.budgets.len();
        self.inner
            .stats
            .tournament_entrants
            .fetch_add(entrants as u64, Ordering::Relaxed);
        // Every group is queued before any is awaited, so the workers
        // compile them in parallel.
        let groups: Vec<Vec<RequestId>> = config
            .policies
            .iter()
            .map(|&policy| {
                let request = CompileRequest {
                    program: Program::Ir(req.function.clone()),
                    profile: req.profile.clone(),
                    config: CompileConfig {
                        policy,
                        ..config.base.clone()
                    },
                    options: RequestOptions::default(),
                };
                self.submit_budgets(request, &config.budgets)
            })
            .collect();
        // Shed, failed, or timed-out members have no artifact.
        let mut partial = false;
        let awaited = groups.into_iter().map(|ids| {
            ids.into_iter()
                .map(|id| {
                    let compiled = self.wait(id).compiled;
                    partial |= compiled.as_ref().is_some_and(|c| c.stats.deadline_hit);
                    compiled
                })
                .collect()
        });
        let won = crown(config, digest, base_score, &req.args, &req.memory, awaited)?;
        // A winner crowned among partial artifacts may not be the winner:
        // like the formation cache, the shape cache never stores one.
        if !partial {
            self.inner.shapes.insert(
                shape,
                ShapeEntry {
                    policy: won.policy,
                    budget: won.budget,
                    improvement_permille: improvement_permille(base_score, won.score),
                },
            );
        }
        Ok(TournamentOutcome {
            compiled: won.winner,
            policy: won.policy,
            budget: won.budget,
            label: won.label,
            score: won.score,
            baseline: base_score,
            shape,
            shape_hit: false,
            guard_fallback: false,
            entrants_run: entrants,
        })
    }

    /// Fault-injection hook (the `corrupted-cache-entry` chaos kind):
    /// corrupt the cached entry that `req` would hit, leaving its integrity
    /// digest stale. Returns `false` when the request has no cacheable key
    /// or no entry is present. See [`cache::FormationCache::corrupt_entry`].
    pub fn corrupt_cached(&self, req: &CompileRequest, seed: u64) -> bool {
        let function = match &req.program {
            Program::Ir(f) => f.clone(),
            Program::Source(text) => match chf_ir::parse::parse_function(text) {
                Ok(f) => f,
                Err(_) => return false,
            },
        };
        let key = cache_key(&function, &req.config, &req.profile);
        self.inner.cache.corrupt_entry(&key, seed)
    }

    /// Stop the workers and join them. Queued-but-unstarted jobs are marked
    /// `Rejected` so no waiter hangs.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        {
            // Under the queue lock, so a worker that has just found the
            // flag clear is already waiting when the notification comes.
            let _queue = self.inner.queue.lock().expect("queue lock");
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Terminate anything still queued: a shut-down service must leave
        // no request in a non-terminal state.
        let drained: Vec<Job> = {
            let mut q = self.inner.queue.lock().expect("queue lock");
            q.drain(..).collect()
        };
        for job in drained {
            for m in &job.members {
                StatsCollector::bump(&self.inner.stats.rejected);
                finish(
                    &self.inner,
                    CompileResponse {
                        id: m.id,
                        status: RequestStatus::Rejected,
                        compiled: None,
                        error: None,
                        cache_hit: false,
                        retries: 0,
                        queue_wait: job.enqueued.elapsed(),
                        compile_time: Duration::ZERO,
                    },
                );
            }
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Key of the shape→winner cache: the function's CFG-shape fingerprint
/// (stable under value renaming and block-label permutation — see
/// [`chf_ir::fingerprint`]) combined with everything that changes which
/// winner is valid: the base configuration (with the entrant-overridden
/// `policy`/`trial_budget` canonicalized out), the portfolio itself, and
/// the scoring metric. Two tournaments with different portfolios never
/// alias.
fn shape_key(f: &Function, profile: &ProfileData, config: &TournamentConfig) -> u64 {
    let mut base = config.base.clone();
    base.policy = PolicyKind::BreadthFirst;
    base.trial_budget = None;
    let mut h = FxHasher::default();
    h.write_u64(chf_ir::fingerprint::shape_fingerprint(f, profile));
    h.write_u64(cache::config_fingerprint(&base));
    for (label, _) in config.entrants() {
        h.write(label.as_bytes());
    }
    h.write_u8(config.metric as u8);
    h.finish()
}

fn finish(inner: &Inner, resp: CompileResponse) {
    let mut states = inner.states.lock().expect("states lock");
    states.insert(resp.id, State::Terminal(Box::new(resp)));
    drop(states);
    inner.states_cv.notify_all();
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.queue_cv.wait(q).expect("queue lock poisoned");
            }
        };
        let mut states = inner.states.lock().expect("states lock");
        for m in &job.members {
            states.insert(m.id, State::Running);
        }
        drop(states);
        for resp in run_job(inner, &job) {
            finish(inner, resp);
        }
    }
}

/// Run one job to a terminal response per member: input verification, the
/// contained compile with deadline, and the transient-failure retry loop.
fn run_job(inner: &Inner, job: &Job) -> Vec<CompileResponse> {
    let start = Instant::now();
    let queue_wait = start - job.enqueued;
    let respond = |id, status, compiled, error, retries, compile_time| CompileResponse {
        id,
        status,
        compiled,
        error,
        cache_hit: false,
        retries,
        queue_wait,
        compile_time,
    };

    // Front-end gate: a compile service is entitled to refuse structurally
    // invalid input outright — deterministically, without burning a retry.
    if let Err(error) = chf_ir::verify::verify_full(&job.function) {
        let error = ChfError::Verify {
            context: "service input",
            error,
        };
        return job
            .members
            .iter()
            .map(|m| {
                StatsCollector::bump(&inner.stats.failed);
                let error = Some(error.clone());
                respond(m.id, RequestStatus::Failed, None, error, 0, Duration::ZERO)
            })
            .collect();
    }

    // One deadline governs every member.
    let deadline = job
        .options
        .deadline
        .or(inner.default_deadline)
        .map(|d| start + d);
    let mut config = job.config.clone();
    config.deadline = deadline;
    let budgets: Vec<Option<usize>> = job.members.iter().map(|m| m.budget).collect();

    let mut retries = 0u32;
    loop {
        let attempt_no = retries + 1;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if job.options.inject_panics >= attempt_no {
                panic!("chf-service injected worker fault (attempt {attempt_no})");
            }
            StatsCollector::bump(&inner.stats.formations);
            try_compile_budgets(&job.function, &job.profile, &config, &budgets)
        }));
        let results = attempt.unwrap_or_else(|payload| {
            let error = ChfError::Panicked {
                context: "service worker",
                message: parallel::panic_message(payload.as_ref()),
            };
            vec![Err(error); budgets.len()]
        });
        let transient = results
            .iter()
            .any(|r| r.as_ref().is_err_and(ChfError::is_transient));
        if transient && retries < inner.retry.max_retries {
            retries += 1;
            for _ in &job.members {
                StatsCollector::bump(&inner.stats.retries);
            }
            std::thread::sleep(inner.retry.backoff(retries));
            continue;
        }
        let elapsed = start.elapsed();
        return job
            .members
            .iter()
            .zip(results)
            .map(|(m, result)| {
                let compiled = match result {
                    Ok(compiled) => compiled,
                    Err(error) => {
                        StatsCollector::bump(&inner.stats.failed);
                        let error = Some(error);
                        return respond(m.id, RequestStatus::Failed, None, error, retries, elapsed);
                    }
                };
                inner.stats.record_compile(elapsed, compiled.stats.trials);
                if compiled.stats.deadline_hit {
                    // Poison-safety: partial results are never cached.
                    if job.options.fail_on_deadline {
                        StatsCollector::bump(&inner.stats.timed_out);
                        respond(m.id, RequestStatus::TimedOut, None, None, retries, elapsed)
                    } else {
                        StatsCollector::bump(&inner.stats.degraded);
                        let compiled = Some(compiled);
                        respond(
                            m.id,
                            RequestStatus::Degraded,
                            compiled,
                            None,
                            retries,
                            elapsed,
                        )
                    }
                } else {
                    if let Some(key) = m.key {
                        inner.cache.insert(key, &compiled);
                    }
                    StatsCollector::bump(&inner.stats.done);
                    respond(
                        m.id,
                        RequestStatus::Done,
                        Some(compiled),
                        None,
                        retries,
                        elapsed,
                    )
                }
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::testgen::{generate, GenConfig};
    use chf_sim::functional::profile_run;

    fn request_for(seed: u64) -> (CompileRequest, Vec<i64>) {
        let f = generate(seed, &GenConfig::default());
        let args: Vec<i64> = (0..f.params).map(|i| i as i64 + 3).collect();
        let profile = profile_run(&f, &args, &[]).unwrap_or_default();
        (CompileRequest::ir(f, profile), args)
    }

    #[test]
    fn submit_wait_roundtrip_is_done_and_correct() {
        let svc = CompileService::new(ServiceConfig::default());
        let (req, args) = request_for(5);
        let Program::Ir(original) = req.program.clone() else {
            unreachable!()
        };
        let id = svc.submit(req);
        let resp = svc.wait(id);
        assert_eq!(resp.status, RequestStatus::Done);
        let compiled = resp.compiled.expect("done carries the artifact");
        let base = chf_sim::functional::run(
            &original,
            &args,
            &[],
            &chf_sim::functional::RunConfig::default(),
        )
        .unwrap();
        let got = chf_sim::functional::run(
            &compiled.function,
            &args,
            &[],
            &chf_sim::functional::RunConfig::default(),
        )
        .unwrap();
        assert_eq!(base.digest(), got.digest());
        assert_eq!(svc.stats().done, 1);
    }

    #[test]
    fn source_submission_parses_and_parse_errors_fail_typed() {
        let svc = CompileService::new(ServiceConfig::default());
        let ok = svc.submit(CompileRequest::source(
            "fn id(params: 1, regs: 2)\nB0 \"entry\" (freq 1):\n  exits:\n    -> ret r0\n",
        ));
        assert_eq!(svc.wait(ok).status, RequestStatus::Done);

        let bad = svc.submit(CompileRequest::source("fn broken(\n"));
        let resp = svc.wait(bad);
        assert_eq!(resp.status, RequestStatus::Failed);
        assert!(matches!(resp.error, Some(ChfError::Parse { .. })));
    }

    #[test]
    fn invalid_ir_is_refused_not_retried() {
        let svc = CompileService::new(ServiceConfig::default());
        let mut f = generate(8, &GenConfig::default());
        // Dangling edge: verify_full must refuse it at the service door.
        let entry = f.entry;
        let bogus = chf_ir::ids::BlockId(u32::MAX - 3);
        f.block_mut(entry).exits[0].target = chf_ir::block::ExitTarget::Block(bogus);
        let id = svc.submit(CompileRequest::ir(f, ProfileData::default()));
        let resp = svc.wait(id);
        assert_eq!(resp.status, RequestStatus::Failed);
        assert_eq!(resp.retries, 0);
        assert!(matches!(resp.error, Some(ChfError::Verify { .. })));
    }

    #[test]
    fn shutdown_terminates_queued_requests() {
        // One worker, deep queue, every job panics once to slow the drain;
        // shutdown must leave nothing in a non-terminal state.
        let svc = CompileService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            ..ServiceConfig::default()
        });
        let ids: Vec<RequestId> = (0..6)
            .map(|i| {
                let (mut req, _) = request_for(20 + i);
                req.options.inject_panics = 1;
                svc.submit(req)
            })
            .collect();
        let inner = Arc::clone(&svc.inner);
        svc.shutdown();
        let states = inner.states.lock().unwrap();
        for id in ids {
            match states.get(&id) {
                Some(State::Terminal(_)) => {}
                other => panic!(
                    "request {id} not terminal after shutdown: {:?}",
                    other.map(|_| "non-terminal")
                ),
            }
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        assert_eq!(r.backoff(1), Duration::from_millis(1));
        assert_eq!(r.backoff(2), Duration::from_millis(2));
        assert_eq!(r.backoff(3), Duration::from_millis(4));
        assert_eq!(r.backoff(4), Duration::from_millis(4));
    }
}
