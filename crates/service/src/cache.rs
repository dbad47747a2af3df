//! Content-addressed, poison-safe formation cache.
//!
//! The million-user traffic pattern the service exists for is *repeated*
//! submission: the same function, the same configuration, the same training
//! profile. Formation is deterministic in that triple, so its result can be
//! memoized under a content-addressed key —
//! `(function hash, config hash, profile hash)` — computed from the inputs
//! themselves, never from client-supplied names.
//!
//! Two properties keep the cache from becoming a new failure mode:
//!
//! * **Poison-safety**: only fully successful (`Done`) compilations are
//!   inserted. Degraded, timed-out, errored, and chaos-instrumented results
//!   never enter the cache, so a transient failure cannot be replayed to
//!   every future client of the same key.
//! * **Integrity revalidation**: every entry carries a digest over the
//!   compiled function's printed form and its formation statistics,
//!   recomputed on each lookup. An entry that no longer matches its digest
//!   (bit rot, a bug scribbling over the store, an injected
//!   corrupted-cache-entry fault) is dropped and the lookup reports
//!   [`Lookup::Corrupt`] — the caller degrades to a cold compile instead of
//!   serving a miscompile.
//!
//! Eviction is FIFO at a fixed capacity: the service's workload is
//! dominated by a small hot set, and FIFO keeps the structure free of
//! per-hit bookkeeping on the fast path.

use crate::fifo::FifoMap;
use chf_core::pipeline::{CompileConfig, Compiled};
use chf_ir::function::Function;
use chf_ir::fxhash::FxHasher;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::SplitMix64;
use std::hash::Hasher;
use std::sync::Mutex;

/// The content-addressed key: independent fingerprints of the three inputs
/// formation is deterministic in.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the submitted function (printed form + signature).
    pub function: u64,
    /// Fingerprint of the compile configuration.
    pub config: u64,
    /// Fingerprint of the training profile.
    pub profile: u64,
}

fn hash_str(h: &mut FxHasher, s: &str) {
    h.write(s.as_bytes());
}

/// Fingerprint of a function: its printed `.til` form (which covers blocks,
/// instructions, exits, and frequencies) plus the signature fields the
/// printer already embeds. Printing is the repo's canonical serialization —
/// `parse(print(f))` is structurally identical to `f` — so two functions
/// fingerprint equal exactly when a client could not tell them apart.
pub fn function_fingerprint(f: &Function) -> u64 {
    let mut h = FxHasher::default();
    hash_str(&mut h, &f.to_string());
    h.finish()
}

/// Fingerprint of the compile configuration. Uses the `Debug` rendering of
/// the semantically relevant fields — stable within a build of the service,
/// which is the lifetime of the in-process cache. The `deadline` and
/// `chaos` fields are deliberately excluded: a compile that *completes*
/// under a deadline is byte-identical to an unbounded one (expiry is the
/// only observable, and expired compiles are never cached), and
/// chaos-instrumented compiles bypass the cache entirely.
pub fn config_fingerprint(c: &CompileConfig) -> u64 {
    let mut h = FxHasher::default();
    hash_str(&mut h, c.ordering.label());
    hash_str(
        &mut h,
        &format!(
            "{:?}/{:?}/{:?}/{}/{}/{:?}",
            c.policy, c.constraints, c.unroll, c.backend, c.fanout_targets, c.trial_budget
        ),
    );
    h.finish()
}

/// Fingerprint of a training profile: entries hashed in sorted key order so
/// the map's iteration order cannot leak into the key.
pub fn profile_fingerprint(p: &ProfileData) -> u64 {
    let mut h = FxHasher::default();
    let mut blocks: Vec<_> = p.block_counts.iter().map(|(b, n)| (b.0, *n)).collect();
    blocks.sort_unstable();
    for (b, n) in blocks {
        h.write_u32(b);
        h.write_u64(n);
    }
    let mut exits: Vec<_> = p
        .exit_counts
        .iter()
        .map(|((b, i), n)| (b.0, *i, *n))
        .collect();
    exits.sort_unstable();
    for (b, i, n) in exits {
        h.write_u32(b);
        h.write_usize(i);
        h.write_u64(n);
    }
    let mut trips: Vec<_> = p.trip_histograms.iter().collect();
    trips.sort_unstable_by_key(|(b, _)| b.0);
    for (b, hist) in trips {
        h.write_u32(b.0);
        let mut counts: Vec<_> = hist.counts.iter().map(|(t, n)| (*t, *n)).collect();
        counts.sort_unstable();
        for (t, n) in counts {
            h.write_u64(t);
            h.write_u64(n);
        }
    }
    h.finish()
}

/// Compose the full key for a `(function, config, profile)` submission.
pub fn cache_key(f: &Function, config: &CompileConfig, profile: &ProfileData) -> CacheKey {
    CacheKey {
        function: function_fingerprint(f),
        config: config_fingerprint(config),
        profile: profile_fingerprint(profile),
    }
}

/// Integrity digest of a stored result: the compiled function's printed
/// form plus every formation-statistics field. Anything a response exposes
/// is covered, so any corruption that could change a response also changes
/// the digest.
fn entry_digest(c: &Compiled) -> u64 {
    let mut h = FxHasher::default();
    hash_str(&mut h, &c.function.to_string());
    let s = &c.stats;
    for v in [
        s.merges,
        s.tail_dups,
        s.unrolls,
        s.peels,
        s.failures,
        s.skipped,
        s.trials,
        s.budget_skipped,
        s.tournament_entrants,
    ] {
        h.write_usize(v);
    }
    for v in [
        s.util_insts_permille,
        s.util_mem_permille,
        s.util_bank_permille,
    ] {
        h.write_u32(v);
    }
    h.write_u8(s.deadline_hit as u8);
    h.finish()
}

struct Entry {
    compiled: Compiled,
    digest: u64,
}

/// Result of a cache lookup.
pub enum Lookup {
    /// Entry present and its digest revalidated: a clone of the memoized
    /// result, byte-identical to the cold compile that produced it.
    Hit(Box<Compiled>),
    /// Entry present but failed revalidation; it has been dropped. The
    /// caller must compile cold.
    Corrupt,
    /// No entry under this key.
    Miss,
}

/// The thread-safe formation cache. Capacity 0 disables it (every lookup
/// misses, every insert is dropped).
pub struct FormationCache {
    store: Mutex<FifoMap<CacheKey, Entry>>,
}

impl FormationCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        FormationCache {
            store: Mutex::new(FifoMap::new(capacity)),
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.store.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`, revalidating the entry's integrity digest before
    /// returning it. A corrupt entry is removed so the subsequent cold
    /// compile can repopulate the slot.
    pub fn get(&self, key: &CacheKey) -> Lookup {
        let mut store = self.store.lock().expect("cache lock");
        let Some(e) = store.get(key) else {
            return Lookup::Miss;
        };
        if entry_digest(&e.compiled) != e.digest {
            store.remove(key);
            return Lookup::Corrupt;
        }
        Lookup::Hit(Box::new(e.compiled.clone()))
    }

    /// Insert a *successful* compilation. The caller enforces
    /// poison-safety (never inserting degraded/errored results); this
    /// method only enforces capacity.
    pub fn insert(&self, key: CacheKey, compiled: &Compiled) {
        let entry = Entry {
            compiled: compiled.clone(),
            digest: entry_digest(compiled),
        };
        self.store.lock().expect("cache lock").insert(key, entry);
    }

    /// Fault-injection hook (the `corrupted-cache-entry` chaos kind):
    /// corrupt the entry under `key` — without touching its stored digest —
    /// by mutating whichever field the seeded stream picks. Returns `false`
    /// if the key is absent. A subsequent [`FormationCache::get`] must
    /// report [`Lookup::Corrupt`], never serve the mutation.
    pub fn corrupt_entry(&self, key: &CacheKey, seed: u64) -> bool {
        let mut rng = SplitMix64::new(seed);
        let mut store = self.store.lock().expect("cache lock");
        let Some(e) = store.get_mut(key) else {
            return false;
        };
        match rng.below(3) {
            0 => e.compiled.stats.merges = e.compiled.stats.merges.wrapping_add(1),
            1 => {
                // Retarget an exit of some block — the kind of scribble a
                // buggy store would produce. Falls back to a stats tweak on
                // an exit-free function (there are none; every block has a
                // default exit).
                let f = &mut e.compiled.function;
                let ids: Vec<_> = f.block_ids().collect();
                let b = ids[rng.below(ids.len() as u64) as usize];
                let blk = f.block_mut(b);
                if let Some(exit) = blk.exits.last_mut() {
                    exit.target = chf_ir::block::ExitTarget::Return(None);
                } else {
                    e.compiled.stats.trials = e.compiled.stats.trials.wrapping_add(7);
                }
            }
            _ => e.compiled.stats.deadline_hit = !e.compiled.stats.deadline_hit,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_core::pipeline::try_compile;
    use chf_ir::testgen::{generate, GenConfig};
    use chf_sim::functional::profile_run;

    fn compiled_pair() -> (Function, ProfileData, Compiled) {
        let f = generate(11, &GenConfig::default());
        let args: Vec<i64> = (0..f.params).map(|i| i as i64 + 2).collect();
        let profile = profile_run(&f, &args, &[]).unwrap_or_default();
        let c = try_compile(&f, &profile, &CompileConfig::convergent()).unwrap();
        (f, profile, c)
    }

    #[test]
    fn fingerprints_are_input_sensitive() {
        let a = generate(1, &GenConfig::default());
        let b = generate(2, &GenConfig::default());
        assert_eq!(function_fingerprint(&a), function_fingerprint(&a));
        assert_ne!(function_fingerprint(&a), function_fingerprint(&b));

        let conv = CompileConfig::convergent();
        let mut other = CompileConfig::convergent();
        other.trial_budget = Some(4);
        assert_eq!(config_fingerprint(&conv), config_fingerprint(&conv));
        assert_ne!(config_fingerprint(&conv), config_fingerprint(&other));

        // Deadline/chaos are excluded by design.
        let mut with_deadline = CompileConfig::convergent();
        with_deadline.deadline = Some(std::time::Instant::now());
        assert_eq!(
            config_fingerprint(&conv),
            config_fingerprint(&with_deadline)
        );
    }

    #[test]
    fn profile_fingerprint_ignores_map_order_but_not_content() {
        let f = generate(3, &GenConfig::default());
        let args: Vec<i64> = (0..f.params).map(|_| 3).collect();
        let p = profile_run(&f, &args, &[]).unwrap();
        let q = p.clone();
        assert_eq!(profile_fingerprint(&p), profile_fingerprint(&q));
        let mut r = p.clone();
        if let Some(n) = r.block_counts.values_mut().next() {
            *n = n.wrapping_add(1);
        }
        assert_ne!(profile_fingerprint(&p), profile_fingerprint(&r));
    }

    #[test]
    fn hit_returns_identical_result() {
        let (f, profile, c) = compiled_pair();
        let cache = FormationCache::new(8);
        let key = cache_key(&f, &CompileConfig::convergent(), &profile);
        assert!(matches!(cache.get(&key), Lookup::Miss));
        cache.insert(key, &c);
        match cache.get(&key) {
            Lookup::Hit(h) => {
                assert_eq!(h.function.to_string(), c.function.to_string());
                assert_eq!(h.stats, c.stats);
            }
            _ => panic!("expected a hit"),
        }
    }

    #[test]
    fn corrupt_entries_are_detected_and_dropped() {
        let (f, profile, c) = compiled_pair();
        let cache = FormationCache::new(8);
        let key = cache_key(&f, &CompileConfig::convergent(), &profile);
        cache.insert(key, &c);
        for seed in 0..12 {
            cache.insert(key, &c);
            assert!(cache.corrupt_entry(&key, seed));
            assert!(
                matches!(cache.get(&key), Lookup::Corrupt),
                "seed {seed}: corruption escaped revalidation"
            );
            // The poisoned entry is gone; the next lookup is a cold miss.
            assert!(matches!(cache.get(&key), Lookup::Miss));
        }
    }

    #[test]
    fn capacity_zero_disables_and_fifo_evicts() {
        let (f, profile, c) = compiled_pair();
        let off = FormationCache::new(0);
        let key = cache_key(&f, &CompileConfig::convergent(), &profile);
        off.insert(key, &c);
        assert!(matches!(off.get(&key), Lookup::Miss));

        let small = FormationCache::new(2);
        for i in 0..4u64 {
            small.insert(
                CacheKey {
                    function: i,
                    config: 0,
                    profile: 0,
                },
                &c,
            );
        }
        assert_eq!(small.len(), 2);
        // The first two inserted keys were evicted.
        assert!(matches!(
            small.get(&CacheKey {
                function: 0,
                config: 0,
                profile: 0
            }),
            Lookup::Miss
        ));
        assert!(matches!(
            small.get(&CacheKey {
                function: 3,
                config: 0,
                profile: 0
            }),
            Lookup::Hit(_)
        ));
    }
}
