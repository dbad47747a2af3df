//! TRIPS-like cycle-level timing model, event-driven over the pre-decoded
//! [`LoweredProgram`] representation.
//!
//! The model executes the program functionally (so it is exact on control
//! flow and data) while charging cycles for the microarchitectural effects
//! the paper's evaluation depends on:
//!
//! * **Per-block overhead** — each dynamic block pays a fixed map/commit
//!   cost plus fetch-bandwidth-limited mapping of its instruction slots.
//!   This is the `blocks × overhead` term of the paper's §7.3 first-order
//!   model, and the reason block-count reduction correlates with cycle
//!   reduction (Figure 7).
//! * **Dataflow issue** — instructions become ready when their operands
//!   (including the predicate) arrive and contend for a 16-wide issue
//!   window; operands within a block forward at no extra cost. A long
//!   falsely-predicated path does *not* delay block completion, matching
//!   EDGE dynamic issue; but a predicated instruction does wait for its
//!   predicate, which is exactly the tail-duplication penalty of §5
//!   ("Limiting tail duplication").
//! * **Nullification forwarding** — when a predicate is false, the guarded
//!   definition forwards the *old* value, but not before the predicate
//!   resolves. A duplicated merge point containing an induction-variable
//!   update therefore serializes on the exit test (the bzip2_3 effect).
//! * **Next-block prediction** — a predicted exit lets the next block fetch
//!   immediately; a misprediction stalls fetch until the exit resolves and
//!   adds a flush penalty (the parser_1 effect).
//! * **In-flight window** — at most `window_blocks` blocks in flight; blocks
//!   commit in order.
//!
//! # The event-driven core
//!
//! The engine processes three kinds of events, all in cycle order:
//!
//! * **Operand wake-up.** Each instruction is enqueued for issue at the
//!   cycle its *last* operand or predicate arrives (`ready`, the max of the
//!   producing availability times). Wake-ups are inserted into a calendar
//!   **bucket queue** keyed by cycle (`IssueRing`, a power-of-two ring of
//!   per-cycle slot counters whose base rotates forward with block
//!   dispatch); claiming an issue slot is a forward probe from the wake-up
//!   bucket, O(1) amortized, replacing the legacy per-instruction hash-map
//!   probe. Within a cycle, slots are granted in program order — exactly
//!   the order the legacy first-fit scan granted them — so issue times are
//!   identical by construction.
//! * **Block fetch/dispatch.** The next block's dispatch event fires at
//!   `fetch_ready`, delayed by the window-slot release event (the oldest
//!   in-flight block's commit) when the 8-block window is full, and by the
//!   flush event (`resolve + mispredict_penalty`) after a misprediction.
//! * **Commit.** In-order: a block's commit event fires once its stores,
//!   live-out register writes, and branch decision have all resolved, no
//!   earlier than the previous commit plus the commit overhead.
//!
//! Because every event time is the max of already-known event times, the
//! calendar never needs to revisit a bucket: the simulation advances
//! monotonically, one pass over the dynamic instruction stream. On verified
//! IR the result is **cycle-for-cycle identical** to the legacy model
//! ([`crate::timing_legacy::simulate_timing_legacy`], behind the
//! `legacy-sim` feature), which `tests/differential.rs` and the table-1
//! golden cycle snapshot enforce; both refuse unverified IR with the same
//! [`SimError::Malformed`] before simulating.
//!
//! Callers that simulate the same function many times should lower once
//! via [`LoweredProgram::lower`] and call [`simulate_timing_lowered`];
//! [`simulate_timing`] lowers internally per call.

use crate::functional::{eval, SimError};
use crate::lower::{LExitKind, LKind, LoweredProgram, NONE};
use crate::predictor::{ExitPredictor, PredictorConfig};
use chf_ir::function::Function;
use chf_ir::fxhash::FxHashMap;
use std::collections::VecDeque;

/// How the load-store queue orders memory operations within a block.
///
/// TRIPS assigns every memory instruction a load/store ID and the LSQ
/// enforces program order between conflicting accesses; the variants model
/// different amounts of memory-dependence speculation.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MemoryOrdering {
    /// Perfect memory-dependence prediction: loads never wait for stores
    /// (upper bound).
    Oracle,
    /// Loads wait only for earlier same-address stores in the block
    /// (ideal conflict detection; the default). Implemented with a
    /// per-address last-store map — O(1) per load, not a rescan of the
    /// block's earlier stores.
    #[default]
    Exact,
    /// Loads wait for *all* earlier stores in the block (no speculation).
    Conservative,
}

/// Microarchitectural parameters of the timing model.
#[derive(Clone, Debug)]
pub struct TimingConfig {
    /// Instructions that may begin execution per cycle (TRIPS: 16).
    pub issue_width: u32,
    /// Maximum blocks in flight (TRIPS: 8).
    pub window_blocks: usize,
    /// Instruction slots mapped onto the array per cycle (TRIPS: 16).
    pub fetch_bandwidth: u32,
    /// Fixed per-block map/dispatch cost in cycles.
    pub block_overhead: u64,
    /// Additional latency for values that cross blocks through the register
    /// file.
    pub register_latency: u64,
    /// Pipeline-flush penalty on a next-block misprediction.
    pub mispredict_penalty: u64,
    /// Minimum cycles between consecutive in-order block commits.
    pub commit_overhead: u64,
    /// Next-block predictor parameters.
    pub predictor: PredictorConfig,
    /// In-block load/store ordering discipline.
    pub memory_ordering: MemoryOrdering,
    /// Block budget, as in the functional simulator.
    pub max_blocks: u64,
}

impl TimingConfig {
    /// Parameters approximating the TRIPS prototype (16-wide, 8 blocks in
    /// flight, 128-instruction blocks).
    pub fn trips() -> Self {
        TimingConfig {
            issue_width: 16,
            window_blocks: 8,
            fetch_bandwidth: 16,
            block_overhead: 2,
            register_latency: 2,
            mispredict_penalty: 12,
            commit_overhead: 1,
            predictor: PredictorConfig::default(),
            memory_ordering: MemoryOrdering::default(),
            max_blocks: 20_000_000,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::trips()
    }
}

/// Outcome and metrics of a timing simulation.
#[derive(Clone, Debug)]
pub struct TimingResult {
    /// Total cycles until the final block committed.
    pub cycles: u64,
    /// Dynamic block executions.
    pub blocks_executed: u64,
    /// Next-block predictions made (one per executed block).
    pub predictions: u64,
    /// Mispredictions (each costs a flush).
    pub mispredictions: u64,
    /// Instructions that executed (predicate held).
    pub insts_executed: u64,
    /// Predicated instructions that were nullified (predicate false).
    pub insts_nullified: u64,
    /// Instruction slots fetched (block sizes summed over dynamic blocks).
    pub insts_fetched: u64,
    /// Return value of the program.
    pub ret: Option<i64>,
    /// Final memory image, for equivalence checking against the functional
    /// simulator.
    pub memory: FxHashMap<i64, i64>,
}

impl TimingResult {
    /// Misprediction rate in `[0, 1]`.
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Observable-behaviour digest (return value + sorted non-zero memory),
    /// comparable with [`crate::functional::FuncResult::digest`].
    pub fn digest(&self) -> (Option<i64>, Vec<(i64, i64)>) {
        let mut mem: Vec<(i64, i64)> = self
            .memory
            .iter()
            .filter(|(_, v)| **v != 0)
            .map(|(k, v)| (*k, *v))
            .collect();
        mem.sort_unstable();
        (self.ret, mem)
    }
}

/// A register's current value together with the cycle it becomes
/// available. Keeping both in one slot means each operand read performs a
/// single (bounds-checked) array access and pulls value + timestamp in the
/// same cache line.
#[derive(Copy, Clone)]
struct RegSlot {
    val: i64,
    t: u64,
}

thread_local! {
    /// Recycled register-file backing: the benchmark harness simulates
    /// thousands of short programs per thread, and the register file is
    /// the one per-call allocation left on that path. Reused like
    /// [`MEM_SCRATCH`]/[`LSQ_SCRATCH`]; slots are re-zeroed on take, so
    /// recycling is never observable.
    static RF_SCRATCH: std::cell::RefCell<Option<Vec<RegSlot>>> =
        const { std::cell::RefCell::new(None) };
}

/// A zeroed register file of `n` slots, recycled when possible.
fn take_rf(n: usize) -> Vec<RegSlot> {
    let mut rf = RF_SCRATCH
        .with(|s| s.borrow_mut().take())
        .unwrap_or_default();
    rf.clear();
    rf.resize(n, RegSlot { val: 0, t: 0 });
    rf
}

/// Return a register file to the scratch pool.
fn recycle_rf(rf: Vec<RegSlot>) {
    RF_SCRATCH.with(|s| *s.borrow_mut() = Some(rf));
}

/// Calendar bucket queue of issue-slot occupancy: one counter per cycle in
/// a power-of-two ring whose `base` rotates forward with block dispatch.
///
/// Every wake-up is enqueued at a cycle ≥ the current dispatch (readiness
/// is clamped to `dispatch + 1`), and dispatch is monotone, so buckets
/// behind `base` can never be probed again. Each bucket is *cycle-stamped*
/// — the claimed-slot count packs with the cycle it belongs to, and a
/// stamp mismatch reads as an empty bucket — so rotating the window
/// forward is O(1): stale buckets are never cleared, merely reinterpreted.
/// `issue_at` is the wake-up insertion: probe forward from the ready
/// bucket for the first cycle with a free slot and claim it.
struct IssueRing {
    /// `(cycle << 8) | claimed` per bucket; the stamp makes stale buckets
    /// self-invalidating. Valid for `claimed < 256` (issue widths are far
    /// narrower) and cycles below 2^56.
    slots: Vec<u64>,
    mask: u64,
    /// First cycle probeable; buckets logically cover
    /// `[base, base + slots.len())`.
    base: u64,
    width: u64,
}

impl IssueRing {
    fn new(width: u32) -> Self {
        IssueRing {
            slots: vec![0; 1024],
            mask: 1023,
            base: 0,
            // Clamp into the packed-count range; issue widths are single
            // digits to low tens in practice.
            width: u64::from(width).min(255),
        }
    }

    /// Rotate the window forward so it starts at `floor`. Stale buckets
    /// invalidate themselves via their stamps, so this is O(1).
    #[inline]
    fn advance_to(&mut self, floor: u64) {
        if floor > self.base {
            self.base = floor;
        }
    }

    /// Double the ring until cycle `t` fits, re-placing live buckets (the
    /// ones stamped within the current window).
    #[cold]
    fn grow_to(&mut self, t: u64) {
        while t - self.base > self.mask {
            let doubled = vec![0; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.mask = self.mask * 2 + 1;
            for s in old {
                let c = s >> 8;
                if c >= self.base {
                    self.slots[(c & self.mask) as usize] = s;
                }
            }
        }
    }

    /// First cycle ≥ `ready` with a free slot; claims it.
    #[inline]
    fn issue_at(&mut self, ready: u64) -> u64 {
        let mut t = ready.max(self.base);
        loop {
            if t - self.base > self.mask {
                self.grow_to(t);
            }
            // Masking with `len - 1` (the ring is a power of two) keeps
            // the index provably in bounds.
            let m = self.slots.len() - 1;
            let s = &mut self.slots[(t as usize) & m];
            // A stamp from another cycle means the bucket is logically
            // empty. Within the window the stamp can only equal `t` or
            // belong to a rotated-out past cycle, never a future one.
            let claimed = if *s >> 8 == t { *s & 0xff } else { 0 };
            if claimed < self.width {
                *s = (t << 8) | (claimed + 1);
                return t;
            }
            t += 1;
        }
    }
}

/// One dynamic block execution, as recorded by
/// [`simulate_timing_traced`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockEvent {
    /// Which block executed.
    pub block: chf_ir::ids::BlockId,
    /// Cycle at which the block was dispatched onto the array.
    pub dispatch: u64,
    /// Cycle at which its branch decision resolved.
    pub resolve: u64,
    /// Cycle at which it committed (in order).
    pub commit: u64,
    /// Whether the next-block prediction made *from* this block was correct.
    pub predicted: bool,
    /// Instructions that executed in this instance.
    pub executed: u32,
    /// Instructions nullified in this instance.
    pub nullified: u32,
}

/// Per-block event trace of a timing simulation.
#[derive(Clone, Debug, Default)]
pub struct TimingTrace {
    /// Events in execution order.
    pub events: Vec<BlockEvent>,
}

impl TimingTrace {
    /// Check internal consistency: dispatches and commits are monotone, and
    /// every event has `dispatch ≤ resolve ≤ commit`-compatible ordering.
    pub fn check(&self) -> Result<(), String> {
        let mut last_commit = 0;
        let mut last_dispatch = 0;
        for (i, e) in self.events.iter().enumerate() {
            if e.dispatch < last_dispatch {
                return Err(format!("event {i}: dispatch went backwards"));
            }
            if e.commit < last_commit {
                return Err(format!("event {i}: commit went backwards"));
            }
            if e.commit < e.dispatch {
                return Err(format!("event {i}: committed before dispatch"));
            }
            last_commit = e.commit;
            last_dispatch = e.dispatch;
        }
        Ok(())
    }
}

/// Simulate `f` on the TRIPS-like timing model (lowering it internally;
/// see [`simulate_timing_lowered`] to amortize the decode over many runs).
///
/// # Errors
/// Returns [`SimError::Malformed`] if `f` does not verify, or
/// [`SimError::OutOfFuel`] if the block budget is exhausted.
pub fn simulate_timing(
    f: &Function,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &TimingConfig,
) -> Result<TimingResult, SimError> {
    let p = LoweredProgram::lower(f);
    simulate_timing_lowered(&p, args, mem_init, config)
}

/// Like [`simulate_timing`], additionally recording a per-block
/// [`TimingTrace`] (dispatch/resolve/commit cycles, prediction outcomes).
///
/// # Errors
/// As [`simulate_timing`].
pub fn simulate_timing_traced(
    f: &Function,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &TimingConfig,
) -> Result<(TimingResult, TimingTrace), SimError> {
    let p = LoweredProgram::lower(f);
    simulate_timing_lowered_traced(&p, args, mem_init, config)
}

/// Simulate an already-lowered program on the timing model.
///
/// # Errors
/// As [`simulate_timing`].
pub fn simulate_timing_lowered(
    p: &LoweredProgram,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &TimingConfig,
) -> Result<TimingResult, SimError> {
    simulate_lowered_impl(p, args, mem_init, config, None)
}

/// [`simulate_timing_lowered`] with a per-block [`TimingTrace`].
///
/// # Errors
/// As [`simulate_timing`].
pub fn simulate_timing_lowered_traced(
    p: &LoweredProgram,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &TimingConfig,
) -> Result<(TimingResult, TimingTrace), SimError> {
    let mut trace = TimingTrace::default();
    let r = simulate_lowered_impl(p, args, mem_init, config, Some(&mut trace))?;
    Ok((r, trace))
}

/// Number of words in [`SimMemory`]'s dense window. Sized to cover the
/// address ranges the workloads actually touch (data segments at
/// 1000/2000/3000 plus up to a few hundred words each).
const DENSE_WORDS: usize = 1 << 12;

/// Words per [`SimMemory`] touched-bitmap entry array.
const TOUCHED_WORDS: usize = DENSE_WORDS / 64;

/// Recycled [`SimMemory`] backing: dense window + touched bitmap.
type MemScratch = (Box<[i64; DENSE_WORDS]>, Box<[u64; TOUCHED_WORDS]>);

thread_local! {
    /// Reusable [`SimMemory`] backing buffers. The dense window is *not*
    /// zeroed between runs — the touched bitmap gates every read, so only
    /// the bitmap (64 words) is cleared per simulation. Fixed-size boxed
    /// arrays so dense indexing after the window range check is provably
    /// in bounds.
    static MEM_SCRATCH: std::cell::RefCell<Option<MemScratch>> =
        const { std::cell::RefCell::new(None) };
}

/// A zeroed fixed-size boxed array, heap-constructed (no large stack
/// temporary).
fn boxed_zeroed<T: Copy + Default, const N: usize>() -> Box<[T; N]> {
    vec![T::default(); N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("length matches"))
}

/// Simulated data memory: a dense window over small non-negative addresses
/// (the layout the workload generators and testgen programs overwhelmingly
/// use) backed by a hash-map spill for everything else. Behaviourally
/// identical to a plain map — unwritten cells read as zero and
/// [`SimMemory::to_map`] reports exactly the written cells, including
/// written zeros. Dense cells are only valid under their touched bit, so
/// the buffers can be recycled across runs (see [`MEM_SCRATCH`]) without
/// zeroing the window.
struct SimMemory {
    dense: Box<[i64; DENSE_WORDS]>,
    /// Bitmap of dense cells written (or initialized) *this run*: the
    /// final memory image distinguishes "wrote 0" from "never wrote", and
    /// stale values from a recycled buffer are never observable.
    touched: Box<[u64; TOUCHED_WORDS]>,
    spill: FxHashMap<i64, i64>,
}

impl SimMemory {
    fn new(init: &[(i64, i64)]) -> Self {
        let (dense, mut touched) = MEM_SCRATCH
            .with(|s| s.borrow_mut().take())
            .unwrap_or_else(|| (boxed_zeroed(), boxed_zeroed()));
        touched.iter_mut().for_each(|w| *w = 0);
        let mut m = SimMemory {
            dense,
            touched,
            spill: FxHashMap::default(),
        };
        for &(a, v) in init {
            m.store(a, v);
        }
        m
    }

    /// Read `addr` (zero when unwritten). The `as u64` compare folds the
    /// negative-address case into the spill path.
    #[inline]
    fn load(&self, addr: i64) -> i64 {
        if (addr as u64) < DENSE_WORDS as u64 {
            let a = addr as usize;
            if self.touched[a >> 6] & (1u64 << (a & 63)) != 0 {
                self.dense[a]
            } else {
                0
            }
        } else {
            self.spill.get(&addr).copied().unwrap_or(0)
        }
    }

    #[inline]
    fn store(&mut self, addr: i64, v: i64) {
        if (addr as u64) < DENSE_WORDS as u64 {
            let a = addr as usize;
            self.dense[a] = v;
            self.touched[a >> 6] |= 1u64 << (a & 63);
        } else {
            self.spill.insert(addr, v);
        }
    }

    /// The final memory image, exactly as a map-backed simulation would
    /// have produced it. Sized up front (popcount of the touched bitmap)
    /// so the build never rehashes.
    fn to_map(&self) -> FxHashMap<i64, i64> {
        let dense_cells: usize = self.touched.iter().map(|w| w.count_ones() as usize).sum();
        let mut out =
            FxHashMap::with_capacity_and_hasher(dense_cells + self.spill.len(), Default::default());
        out.extend(self.spill.iter().map(|(&a, &v)| (a, v)));
        for (w, &word) in self.touched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let a = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.insert(a as i64, self.dense[a]);
            }
        }
        out
    }

    /// Return the backing buffers to the thread-local scratch pool. Called
    /// on the successful simulation path; error paths simply drop (and the
    /// next run allocates fresh zeroed buffers — rare, and a fresh zeroed
    /// buffer is always valid).
    fn recycle(self) {
        let SimMemory { dense, touched, .. } = self;
        MEM_SCRATCH.with(|s| *s.borrow_mut() = Some((dense, touched)));
    }
}

/// Recycled [`Lsq`] backing: stamp array, done array, next free epoch.
type LsqScratch = (Box<[u64; DENSE_WORDS]>, Box<[u64; DENSE_WORDS]>, u64);

thread_local! {
    /// Reusable [`Lsq`] backing buffers plus the next free epoch token.
    /// Tokens increase strictly across recycled runs, so a recycled stamp
    /// array never needs clearing: stale stamps can never equal a live
    /// token.
    static LSQ_SCRATCH: std::cell::RefCell<Option<LsqScratch>> =
        const { std::cell::RefCell::new(None) };
}

/// Per-address completion times of the current block's executed stores —
/// the exact-LSQ wait discipline. A dense window over the same address
/// range as [`SimMemory`] (epoch-stamped per dynamic block, so neither
/// block transitions nor run boundaries ever clear it) with a hash-map
/// spill for out-of-window addresses.
struct Lsq {
    stamp: Box<[u64; DENSE_WORDS]>,
    done: Box<[u64; DENSE_WORDS]>,
    spill: FxHashMap<i64, (u64, u64)>,
    /// Token base for this run; block `gen` uses token `base + gen`.
    base: u64,
    /// Highest token handed out (sets the next run's `base`).
    hi: u64,
}

impl Lsq {
    fn new() -> Self {
        let (stamp, done, base) = LSQ_SCRATCH
            .with(|s| s.borrow_mut().take())
            .unwrap_or_else(|| (boxed_zeroed(), boxed_zeroed(), 0));
        Lsq {
            stamp,
            done,
            spill: FxHashMap::default(),
            base,
            hi: base,
        }
    }

    /// The epoch token for dynamic block number `gen` (`gen >= 1`).
    #[inline]
    fn token(&mut self, gen: u64) -> u64 {
        let tok = self.base + gen;
        self.hi = self.hi.max(tok);
        tok
    }

    /// Record a store to `addr` completing at `done` under block token
    /// `tok`; same-address stores within a block keep the latest time.
    #[inline]
    fn record(&mut self, addr: i64, tok: u64, done: u64) {
        if (addr as u64) < DENSE_WORDS as u64 {
            let a = addr as usize;
            if self.stamp[a] == tok {
                self.done[a] = self.done[a].max(done);
            } else {
                self.stamp[a] = tok;
                self.done[a] = done;
            }
        } else {
            let e = self.spill.entry(addr).or_insert((0, 0));
            if e.0 == tok {
                e.1 = e.1.max(done);
            } else {
                *e = (tok, done);
            }
        }
    }

    /// Completion time of this block's last store to `addr`, if any.
    #[inline]
    fn wait_for(&self, addr: i64, tok: u64) -> Option<u64> {
        if (addr as u64) < DENSE_WORDS as u64 {
            let a = addr as usize;
            if self.stamp[a] == tok {
                Some(self.done[a])
            } else {
                None
            }
        } else {
            match self.spill.get(&addr) {
                Some(&(g, t)) if g == tok => Some(t),
                _ => None,
            }
        }
    }
}

impl Lsq {
    /// As [`SimMemory::recycle`]: return the buffers (and the next free
    /// epoch) to the scratch pool on the successful path. A dropped `Lsq`
    /// (error path) costs the next run a fresh zeroed allocation, which
    /// restarts the epoch space consistently (zero stamps never match a
    /// token, since tokens start at `base + 1`).
    fn recycle(self) {
        let Lsq {
            stamp, done, hi, ..
        } = self;
        LSQ_SCRATCH.with(|s| *s.borrow_mut() = Some((stamp, done, hi + 1)));
    }
}

/// Tag bit marking a `written` entry as a live-out definition. Register
/// indices are always well below 2^31 (they are bounded by `nregs`), so the
/// top bit is free to carry the commit-rule flag and each write event packs
/// into a single word.
const LIVE_OUT_BIT: u32 = 1 << 31;

/// Outcome of one [`Engine::step`].
enum EngineStep {
    /// The block committed and control transferred to `engine.cur`.
    Continue,
    /// The block committed by returning from the program.
    Done(Option<i64>),
}

/// The event-driven timing core, reified as a steppable engine.
///
/// [`simulate_timing_lowered`] drives it from program entry to return.
struct Engine<'p> {
    p: &'p LoweredProgram,
    config: &'p TimingConfig,
    rf: Vec<RegSlot>,
    mem: SimMemory,
    predictor: ExitPredictor,
    ring: IssueRing,
    /// Pending commit events of in-flight blocks (in order).
    inflight: VecDeque<u64>,
    last_commit: u64,
    fetch_ready: u64,
    blocks_executed: u64,
    insts_executed: u64,
    insts_nullified: u64,
    insts_fetched: u64,
    /// Registers written (or null-forwarded) this block, each packed with
    /// its def-is-live-out bit ([`LIVE_OUT_BIT`]) for the commit rule.
    written: Vec<u32>,
    /// Per-address completion time of the current block's executed stores,
    /// epoch-stamped with the dynamic block number so it never needs
    /// clearing between blocks (or runs).
    lsq: Lsq,
    exact: bool,
    /// Per-block fetch/map latency, precomputed so the block loop never
    /// divides.
    map_cycles: Vec<u64>,
    /// Dense index of the next block to execute.
    cur: u32,
}

impl<'p> Engine<'p> {
    /// An engine at program entry: `args` in the parameter registers,
    /// `mem_init` applied in order, and a fresh predictor.
    fn new(
        p: &'p LoweredProgram,
        config: &'p TimingConfig,
        args: &[i64],
        mem_init: &[(i64, i64)],
    ) -> Self {
        // One slot per architectural register holding both the current
        // value and the cycle it becomes available: every operand read
        // touches (and bounds-checks) a single array instead of parallel
        // `regs`/`avail` vectors. Padded to at least one slot so the
        // clamped (branchless) operand reads always have a valid index to
        // land on, even for register-free functions.
        let mut rf = take_rf(p.nregs.max(1));
        for (i, a) in args.iter().enumerate().take(p.params as usize) {
            rf[i].val = *a;
        }
        let map_cycles = p
            .blocks
            .iter()
            .map(|b| {
                config.block_overhead + (b.size as u64).div_ceil(config.fetch_bandwidth as u64)
            })
            .collect();
        Engine {
            p,
            config,
            rf,
            mem: SimMemory::new(mem_init),
            predictor: ExitPredictor::new(&config.predictor),
            ring: IssueRing::new(config.issue_width),
            inflight: VecDeque::with_capacity(config.window_blocks + 1),
            last_commit: 0,
            fetch_ready: 0,
            blocks_executed: 0,
            insts_executed: 0,
            insts_nullified: 0,
            insts_fetched: 0,
            written: Vec::new(),
            lsq: Lsq::new(),
            exact: config.memory_ordering == MemoryOrdering::Exact,
            map_cycles,
            cur: p.entry,
        }
    }

    /// Execute one dynamic block: dispatch, operand wake-up, exit
    /// resolution, prediction, and in-order commit.
    fn step(&mut self, trace: Option<&mut TimingTrace>) -> Result<EngineStep, SimError> {
        if self.blocks_executed >= self.config.max_blocks {
            return Err(SimError::OutOfFuel {
                executed: self.blocks_executed,
            });
        }
        self.blocks_executed += 1;
        let tok = self.lsq.token(self.blocks_executed);
        let (exec_before, null_before) = (self.insts_executed, self.insts_nullified);
        let p = self.p;

        let lb = &p.blocks[self.cur as usize];
        self.insts_fetched += lb.size as u64;

        // --- Dispatch event: fetch-ready, delayed by the window-slot
        // release (oldest in-flight commit) when the window is full. ---
        let mut dispatch = self.fetch_ready;
        if self.inflight.len() >= self.config.window_blocks {
            if let Some(oldest) = self.inflight.pop_front() {
                dispatch = dispatch.max(oldest);
            }
        }
        self.ring.advance_to(dispatch);

        // Fetch/map of the *next* block is serialized behind this one.
        self.fetch_ready = dispatch + self.map_cycles[self.cur as usize];

        // --- Operand wake-up: one pass in program order, enqueueing each
        // instruction at its last-operand-arrival cycle and claiming its
        // issue slot from the calendar. ---
        let rf = &mut self.rf;
        let ring = &mut self.ring;
        let written = &mut self.written;
        written.clear();
        let mut any_store_done = 0;
        let mut outputs_done = dispatch;
        // `rf` is never resized, so the clamp bound is loop-invariant.
        let last = rf.len() - 1;
        for inst in &p.insts[lb.inst_start as usize..lb.inst_end as usize] {
            // Resolve the predicate functionally and find its ready time.
            // As with the operand reads below, the slot access is clamped
            // to a valid index (lowering guarantees in-range registers, so
            // the clamp is an identity) — the bounds check disappears and
            // the unpredicated case becomes a select.
            let sp = rf[(inst.pred_reg as usize).min(last)];
            let (executes, pred_ready) = if inst.pred_reg == NONE {
                (true, dispatch)
            } else {
                ((sp.val != 0) == inst.pred_if_true, sp.t.max(dispatch))
            };

            if !executes {
                self.insts_nullified += 1;
                // Null token: the old value of dst forwards once the
                // predicate resolves.
                if inst.dst != NONE {
                    let s = &mut rf[(inst.dst as usize).min(last)];
                    if s.t < pred_ready {
                        s.t = pred_ready;
                        written.push(inst.dst | (u32::from(inst.def_live_out) << 31));
                    }
                }
                continue;
            }

            self.insts_executed += 1;
            // Both operands' values and arrival times in one read each;
            // immediates arrive at cycle 0 (never the max). The slot read
            // is unconditional (clamped to a valid index) so the
            // reg-vs-immediate selects lower to branchless moves instead of
            // a data-dependent branch per operand.
            let sa = rf[(inst.a_reg as usize).min(last)];
            let (a, ta) = if inst.a_reg != NONE {
                (sa.val, sa.t)
            } else {
                (inst.a_imm, 0)
            };
            let sb = rf[(inst.b_reg as usize).min(last)];
            let (b, tb) = if inst.b_reg != NONE {
                (sb.val, sb.t)
            } else {
                (inst.b_imm, 0)
            };
            let mut ready = pred_ready.max(dispatch + 1).max(ta).max(tb);

            match inst.kind {
                LKind::Alu => {
                    let done = ring.issue_at(ready) + u64::from(inst.latency);
                    rf[(inst.dst as usize).min(last)] = RegSlot {
                        val: eval(inst.op, a, b),
                        t: done,
                    };
                    written.push(inst.dst | (u32::from(inst.def_live_out) << 31));
                }
                LKind::Load => {
                    // LSQ wait event, per the configured discipline (`a` is
                    // the effective address).
                    match self.config.memory_ordering {
                        MemoryOrdering::Oracle => {}
                        MemoryOrdering::Exact => {
                            if inst.stores_before > 0 {
                                if let Some(t) = self.lsq.wait_for(a, tok) {
                                    ready = ready.max(t);
                                }
                            }
                        }
                        MemoryOrdering::Conservative => {
                            ready = ready.max(any_store_done);
                        }
                    }
                    let done = ring.issue_at(ready) + u64::from(inst.latency);
                    rf[(inst.dst as usize).min(last)] = RegSlot {
                        val: self.mem.load(a),
                        t: done,
                    };
                    written.push(inst.dst | (u32::from(inst.def_live_out) << 31));
                }
                LKind::Store => {
                    let done = ring.issue_at(ready) + u64::from(inst.latency);
                    outputs_done = outputs_done.max(done);
                    self.mem.store(a, b);
                    if self.exact {
                        self.lsq.record(a, tok, done);
                    }
                    any_store_done = any_store_done.max(done);
                }
            }
        }

        // --- Resolve exits: find the fired exit and its resolve time. ---
        let exits = &p.exits[lb.exit_start as usize..lb.exit_end as usize];
        let mut resolve = dispatch + 1;
        let fe = if lb.single_uncond_exit {
            // Batched fast path: a lone unpredicated exit fires
            // unconditionally and resolves at `dispatch + 1` — no predicate
            // scan, no per-exit branch. Lowering only sets the flag when
            // the scan below would reach the same exit with `resolve`
            // untouched.
            exits[0]
        } else {
            // The first exit whose predicate holds fires; verified IR ends
            // every block in an unpredicated default, so the scan stops
            // there.
            let mut j = 0;
            loop {
                let e = &exits[j];
                if e.pred_reg == NONE {
                    break *e;
                }
                let s = rf[e.pred_reg as usize];
                resolve = resolve.max(s.t);
                if (s.val != 0) == e.pred_if_true {
                    break *e;
                }
                j += 1;
            }
        };
        // A returned value is a block output.
        if let LExitKind::RetReg(r) = fe.kind {
            outputs_done = outputs_done.max(rf[r as usize].t);
        }

        // --- Prediction: next-block target (static fallback: the first
        // exit's target, the compiler's most-likely-first ordering). ---
        let correct = self
            .predictor
            .update_tagged(lb.id, lb.fallback, fe.orig, fe.hist_tag);
        if !correct {
            // Flush event: the next block cannot even begin fetching until
            // the exit resolves, plus the flush penalty.
            self.fetch_ready = self
                .fetch_ready
                .max(resolve + self.config.mispredict_penalty);
        }

        // --- Commit event (in order): branch decision, stores, and
        // live-out register writes must all have resolved. ---
        for &w in written.iter() {
            if w & LIVE_OUT_BIT != 0 {
                outputs_done = outputs_done.max(rf[((w & !LIVE_OUT_BIT) as usize).min(last)].t);
            }
        }
        let block_done = outputs_done.max(resolve);
        let commit = block_done.max(self.last_commit + self.config.commit_overhead);
        self.last_commit = commit;
        self.inflight.push_back(commit);

        // Cross-block register communication pays register-file latency
        // (once per write event, as in the legacy model).
        let register_latency = self.config.register_latency;
        for w in written.drain(..) {
            let s = &mut rf[((w & !LIVE_OUT_BIT) as usize).min(last)];
            s.t += register_latency;
        }

        if let Some(t) = trace {
            t.events.push(BlockEvent {
                block: lb.id,
                dispatch,
                resolve,
                commit,
                predicted: correct,
                executed: (self.insts_executed - exec_before) as u32,
                nullified: (self.insts_nullified - null_before) as u32,
            });
        }

        match fe.kind {
            LExitKind::Goto(next) => {
                self.cur = next;
                Ok(EngineStep::Continue)
            }
            LExitKind::RetNone => Ok(EngineStep::Done(None)),
            LExitKind::RetImm(v) => Ok(EngineStep::Done(Some(v))),
            LExitKind::RetReg(r) => Ok(EngineStep::Done(Some(rf[r as usize].val))),
        }
    }

    /// Finish a run: build the [`TimingResult`] and return the scratch
    /// buffers to their pools.
    fn into_result(self, ret: Option<i64>) -> TimingResult {
        let Engine {
            rf,
            mem,
            lsq,
            predictor,
            last_commit,
            blocks_executed,
            insts_executed,
            insts_nullified,
            insts_fetched,
            ..
        } = self;
        let memory = mem.to_map();
        mem.recycle();
        lsq.recycle();
        recycle_rf(rf);
        TimingResult {
            cycles: last_commit,
            blocks_executed,
            predictions: predictor.predictions(),
            mispredictions: predictor.mispredictions(),
            insts_executed,
            insts_nullified,
            insts_fetched,
            ret,
            memory,
        }
    }
}

fn simulate_lowered_impl(
    p: &LoweredProgram,
    args: &[i64],
    mem_init: &[(i64, i64)],
    config: &TimingConfig,
    mut trace: Option<&mut TimingTrace>,
) -> Result<TimingResult, SimError> {
    p.check()?;
    let mut eng = Engine::new(p, config, args, mem_init);
    let ret = loop {
        match eng.step(trace.as_deref_mut())? {
            EngineStep::Continue => {}
            EngineStep::Done(r) => break r,
        }
    };
    Ok(eng.into_result(ret))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{run, RunConfig};
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::ids::Reg;
    use chf_ir::instr::{Instr, Operand, Pred};

    fn reg(r: Reg) -> Operand {
        Operand::Reg(r)
    }

    fn sum_loop() -> Function {
        let mut fb = FunctionBuilder::new("sum", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(reg(i), reg(Reg(0)));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let acc2 = fb.add(reg(acc), reg(i));
        fb.mov_to(acc, reg(acc2));
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(reg(acc)));
        fb.build().unwrap()
    }

    #[test]
    fn matches_functional_observables() {
        let f = sum_loop();
        let fr = run(&f, &[25], &[], &RunConfig::default()).unwrap();
        let tr = simulate_timing(&f, &[25], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(fr.digest(), tr.digest());
        assert_eq!(fr.blocks_executed, tr.blocks_executed);
        assert_eq!(fr.insts_executed, tr.insts_executed);
    }

    #[test]
    fn cycles_grow_with_work() {
        let f = sum_loop();
        let short = simulate_timing(&f, &[5], &[], &TimingConfig::trips()).unwrap();
        let long = simulate_timing(&f, &[50], &[], &TimingConfig::trips()).unwrap();
        assert!(long.cycles > short.cycles);
        assert!(short.cycles > 0);
    }

    #[test]
    fn fewer_blocks_means_fewer_cycles_for_same_work() {
        // Same computation as two chained blocks vs one fused block: the
        // fused version must not be slower (per-block overhead dominates).
        let mut fb = FunctionBuilder::new("two", 1);
        let a = fb.create_block();
        let b = fb.create_block();
        fb.switch_to(a);
        let x = fb.add(reg(Reg(0)), Operand::Imm(1));
        fb.jump(b);
        fb.switch_to(b);
        let y = fb.mul(reg(x), Operand::Imm(3));
        fb.ret(Some(reg(y)));
        let two = fb.build().unwrap();

        let mut fb = FunctionBuilder::new("one", 1);
        let a = fb.create_block();
        fb.switch_to(a);
        let x = fb.add(reg(Reg(0)), Operand::Imm(1));
        let y = fb.mul(reg(x), Operand::Imm(3));
        fb.ret(Some(reg(y)));
        let one = fb.build().unwrap();

        let t2 = simulate_timing(&two, &[4], &[], &TimingConfig::trips()).unwrap();
        let t1 = simulate_timing(&one, &[4], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(t1.ret, t2.ret);
        assert!(t1.cycles < t2.cycles, "{} !< {}", t1.cycles, t2.cycles);
    }

    #[test]
    fn unpredictable_branches_cost_cycles() {
        // Loop whose branch alternates pseudo-randomly vs one that is
        // monotone; same block counts, different cycle counts.
        fn branchy(seed_mul: i64) -> Function {
            let mut fb = FunctionBuilder::new("branchy", 1);
            let e = fb.create_block();
            let h = fb.create_block();
            let t = fb.create_block();
            let z = fb.create_block();
            let latch = fb.create_block();
            let exit = fb.create_block();
            fb.switch_to(e);
            let i = fb.mov(Operand::Imm(0));
            let acc = fb.mov(Operand::Imm(0));
            let x = fb.mov(Operand::Imm(12345));
            fb.jump(h);
            fb.switch_to(h);
            // x = x * seed_mul + 1; c = (x >> 4) & 1
            let x2 = fb.mul(reg(x), Operand::Imm(seed_mul));
            let x3 = fb.add(reg(x2), Operand::Imm(1));
            fb.mov_to(x, reg(x3));
            let sh = fb.shr(reg(x), Operand::Imm(4));
            let c = fb.and(reg(sh), Operand::Imm(1));
            fb.branch(c, t, z);
            fb.switch_to(t);
            let a1 = fb.add(reg(acc), Operand::Imm(3));
            fb.mov_to(acc, reg(a1));
            fb.jump(latch);
            fb.switch_to(z);
            let a2 = fb.add(reg(acc), Operand::Imm(5));
            fb.mov_to(acc, reg(a2));
            fb.jump(latch);
            fb.switch_to(latch);
            let i2 = fb.add(reg(i), Operand::Imm(1));
            fb.mov_to(i, reg(i2));
            let lc = fb.cmp_lt(reg(i), Operand::Imm(200));
            fb.branch(lc, h, exit);
            fb.switch_to(exit);
            fb.ret(Some(reg(acc)));
            fb.build().unwrap()
        }
        // seed_mul = 1 makes x monotone (+1 each time) so the branch bit
        // alternates slowly and predictably; a large odd multiplier makes it
        // effectively random.
        let predictable = branchy(1);
        let random = branchy(6364136223846793_i64);
        let tp = simulate_timing(&predictable, &[0], &[], &TimingConfig::trips()).unwrap();
        let tr = simulate_timing(&random, &[0], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(tp.blocks_executed, tr.blocks_executed);
        assert!(tr.mispredictions > tp.mispredictions);
        assert!(tr.cycles > tp.cycles);
    }

    #[test]
    fn predicated_dependence_serializes() {
        // A predicated chain must wait for its predicate; an unpredicated
        // one need not.
        fn chain(predicated: bool) -> Function {
            let mut fb = FunctionBuilder::new("chain", 2);
            let e = fb.create_block();
            fb.switch_to(e);
            // Slow predicate: a chain of multiplies.
            let mut p = fb.param(1);
            for _ in 0..6 {
                p = fb.mul(reg(p), Operand::Imm(3));
            }
            let cond = fb.cmp_ne(reg(p), Operand::Imm(0));
            let out = fb.fresh_reg();
            let mut inst = Instr::add(out, reg(Reg(0)), Operand::Imm(7));
            if predicated {
                inst = inst.predicated(Pred::on_true(cond));
            }
            fb.push(inst);
            fb.ret(Some(reg(out)));
            fb.build().unwrap()
        }
        let cfgs = TimingConfig::trips();
        let with = simulate_timing(&chain(true), &[1, 1], &[], &cfgs).unwrap();
        let without = simulate_timing(&chain(false), &[1, 1], &[], &cfgs).unwrap();
        assert_eq!(with.ret, without.ret);
        assert!(with.cycles > without.cycles);
    }

    #[test]
    fn nullified_instructions_counted() {
        let mut fb = FunctionBuilder::new("nullify", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let out = fb.mov(Operand::Imm(0));
        let c = fb.cmp_gt(reg(Reg(0)), Operand::Imm(100));
        fb.push(Instr::mov(out, Operand::Imm(1)).predicated(Pred::on_true(c)));
        fb.ret(Some(reg(out)));
        let f = fb.build().unwrap();
        let t = simulate_timing(&f, &[1], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(t.insts_nullified, 1);
        assert_eq!(t.ret, Some(0));
    }

    #[test]
    fn trace_records_every_block_with_consistent_times() {
        let f = sum_loop();
        let (r, trace) = simulate_timing_traced(&f, &[12], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(trace.events.len() as u64, r.blocks_executed);
        trace.check().unwrap();
        // Per-event counters sum to the totals.
        let exec: u64 = trace.events.iter().map(|e| e.executed as u64).sum();
        assert_eq!(exec, r.insts_executed);
        let mispredicted = trace.events.iter().filter(|e| !e.predicted).count() as u64;
        assert_eq!(mispredicted, r.mispredictions);
        // The last commit is the cycle count.
        assert_eq!(trace.events.last().unwrap().commit, r.cycles);
    }

    #[test]
    fn traced_and_untraced_agree() {
        let f = sum_loop();
        let a = simulate_timing(&f, &[20], &[], &TimingConfig::trips()).unwrap();
        let (b, _) = simulate_timing_traced(&f, &[20], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn memory_ordering_disciplines_are_ordered() {
        // A block with a store feeding a later same-address load: Oracle
        // lets the load fly, Exact makes it wait for that store, and
        // Conservative additionally serializes unrelated loads.
        let mut fb = FunctionBuilder::new("mem", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        // Slow value: chain of multiplies.
        let mut v = fb.param(0);
        for _ in 0..6 {
            v = fb.mul(reg(v), Operand::Imm(3));
        }
        fb.store(Operand::Imm(100), reg(v)); // slow store
        let same = fb.load(Operand::Imm(100)); // conflicts
        let other = fb.load(Operand::Imm(200)); // unrelated
        let s = fb.add(reg(same), reg(other));
        fb.ret(Some(reg(s)));
        let f = fb.build().unwrap();

        let cycles = |ord: MemoryOrdering| {
            simulate_timing(
                &f,
                &[3],
                &[(200, 9)],
                &TimingConfig {
                    memory_ordering: ord,
                    ..TimingConfig::trips()
                },
            )
            .unwrap()
            .cycles
        };
        let oracle = cycles(MemoryOrdering::Oracle);
        let exact = cycles(MemoryOrdering::Exact);
        let conservative = cycles(MemoryOrdering::Conservative);
        assert!(oracle < exact, "{oracle} !< {exact}");
        assert!(exact <= conservative, "{exact} !<= {conservative}");
        // All disciplines compute the same result (timing-only knob).
        for ord in [
            MemoryOrdering::Oracle,
            MemoryOrdering::Exact,
            MemoryOrdering::Conservative,
        ] {
            let r = simulate_timing(
                &f,
                &[3],
                &[(200, 9)],
                &TimingConfig {
                    memory_ordering: ord,
                    ..TimingConfig::trips()
                },
            )
            .unwrap();
            assert_eq!(r.ret, Some(3 * 729 + 9));
        }
    }

    #[test]
    fn out_of_fuel() {
        let mut fb = FunctionBuilder::new("spin", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        fb.jump(e);
        let f = fb.build().unwrap();
        let cfg = TimingConfig {
            max_blocks: 50,
            ..TimingConfig::trips()
        };
        assert!(matches!(
            simulate_timing(&f, &[], &[], &cfg),
            Err(SimError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn lowered_handle_is_reusable_and_deterministic() {
        let f = sum_loop();
        let p = LoweredProgram::lower(&f);
        let a = simulate_timing_lowered(&p, &[30], &[], &TimingConfig::trips()).unwrap();
        let b = simulate_timing_lowered(&p, &[30], &[], &TimingConfig::trips()).unwrap();
        let c = simulate_timing(&f, &[30], &[], &TimingConfig::trips()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.cycles, c.cycles);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn issue_ring_matches_first_fit_semantics() {
        // Saturate a cycle and confirm spill to the next; then grow far
        // beyond the initial capacity and confirm claims survive.
        let mut ring = IssueRing::new(2);
        assert_eq!(ring.issue_at(5), 5);
        assert_eq!(ring.issue_at(5), 5);
        assert_eq!(ring.issue_at(5), 6);
        assert_eq!(ring.issue_at(3), 3);
        // Far-future claim forces growth; earlier claims must persist.
        assert_eq!(ring.issue_at(5000), 5000);
        assert_eq!(ring.issue_at(5), 6, "cycle 5/6 claims survived the grow");
        assert_eq!(ring.issue_at(5), 7, "cycle 6 is now saturated too");
        ring.advance_to(5000);
        assert_eq!(ring.issue_at(5000), 5000, "bucket 5000 kept one claim");
        assert_eq!(ring.issue_at(5000), 5001);
    }
}
