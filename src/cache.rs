//! The sharded, bounded, single-flight memoization cache behind
//! [`Session`](crate::Session).
//!
//! The PR-1 cache was one `Mutex<HashMap>` with a global `Condvar`: every
//! hit took the same lock, and every single-flight wakeup broadcast to
//! every waiter in the whole session. This module replaces it with a
//! lock-striped design:
//!
//! * **Sharding** — keys are distributed over `N` independent shards by
//!   hash, so concurrent hits on different keys take different locks and
//!   the hot hit path scales with threads instead of serializing.
//! * **Per-shard single-flight** — when several threads miss on the same
//!   key at once, exactly one runs the builder; the rest wait on *their
//!   shard's* condvar and receive the finished value as a hit. A failed
//!   build releases the key so the next waiter retries. Waiters on other
//!   shards are never woken.
//! * **Bounded capacity with LRU eviction** — each shard holds at most
//!   `ceil(capacity / shards)` entries; inserting past the bound evicts
//!   the least-recently-used entry of that shard. `capacity == 0`
//!   disables caching entirely (every request builds, nothing is stored).
//! * **A probe that never waits** — the session's enqueue step looks a
//!   key up with `probe` before deciding whether a request becomes a
//!   pool job: a resident key is a counted hit; an absent key, or one
//!   whose build is in flight, is a miss that counts nothing until
//!   `get_or_build` runs it.
//! * **Per-shard stats** — hits, misses, evictions and in-flight waits
//!   are counted per shard and aggregated in [`CacheStats`].
//! * **One lock per shard, one path** — every hit, miss, insert,
//!   eviction and stats read goes through the shard's mutex. A counter
//!   changes in the same critical section as the entry it counts, so a
//!   `stats()` call racing concurrent traffic (the `GET /v1/stats`
//!   endpoint of `cnfet-serve` polls exactly this) always observes a
//!   per-shard-coherent view: every resident entry is accounted by a
//!   counted miss (`misses >= entries + evictions`), and a reported
//!   hit's value was resident when counted. Cross-shard skew remains
//!   possible — the snapshot locks shards one at a time — but each
//!   shard's line adds up.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Default total entry bound of a session cache.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Default shard count of a session cache (rounded up to a power of two).
pub const DEFAULT_SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries currently resident in the shard.
    pub entries: usize,
    /// Requests answered from this shard (including single-flight waits
    /// that received a concurrent build's value).
    pub hits: u64,
    /// Requests that ran the builder on this shard.
    pub misses: u64,
    /// Entries evicted from this shard to respect the capacity bound.
    pub evictions: u64,
    /// Times a request blocked on this shard waiting for an in-flight
    /// build of its key.
    pub inflight_waits: u64,
    /// Builds currently in flight on this shard (claimed by a builder
    /// thread but not yet inserted or abandoned).
    pub in_flight: usize,
}

/// A point-in-time snapshot of a whole cache: aggregate counters plus the
/// per-shard breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total entry bound across all shards (`0` = caching disabled).
    pub capacity: usize,
    /// Entry bound of each shard.
    pub shard_capacity: usize,
    /// Entries currently resident across all shards.
    pub entries: usize,
    /// Aggregate hits.
    pub hits: u64,
    /// Aggregate misses.
    pub misses: u64,
    /// Aggregate evictions.
    pub evictions: u64,
    /// Aggregate in-flight waits.
    pub inflight_waits: u64,
    /// Aggregate builds currently in flight.
    pub in_flight: usize,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

struct Stored<V> {
    value: V,
    /// Monotone per-shard use tick; smallest tick = least recently used.
    last_used: u64,
}

/// Everything a shard owns, guarded by its one mutex.
struct ShardState<K, V> {
    /// The resident entries. A [`CacheKey`](crate::CacheKey) carries
    /// its hash, computed once when the key is built, so a probe hashes
    /// one `u64` and then compares keys.
    entries: HashMap<K, Stored<V>>,
    /// Monotone use tick behind [`Stored::last_used`].
    tick: u64,
    /// Hashes with a build in flight. Keyed by hash, not key: a 64-bit
    /// collision merely serializes two unrelated builds, it never
    /// produces a wrong value (waiters re-check their own key on wake).
    in_flight: HashSet<u64>,
    /// Threads parked on the shard's condvar right now: a released claim
    /// wakes them only when there is someone to wake.
    waiters: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    inflight_waits: u64,
}

impl<K: Eq + Hash, V> ShardState<K, V> {
    /// The resident value of `key`, refreshing its recency and counting
    /// the hit.
    fn hit(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let stored = self.entries.get_mut(key)?;
        self.tick += 1;
        stored.last_used = self.tick;
        self.hits += 1;
        Some(stored.value.clone())
    }

    /// Inserts a key that is not resident, counts its miss, and evicts
    /// the least-recently-used entry past `capacity` (at least 1). The
    /// miss and the entry land in one critical section, so a stats
    /// snapshot never sees one without the other:
    /// `misses >= entries + evictions` holds at every instant.
    fn insert(&mut self, key: K, value: V, capacity: usize) {
        self.tick += 1;
        let stored = Stored {
            value,
            last_used: self.tick,
        };
        self.entries.insert(key, stored);
        self.misses += 1;
        if self.entries.len() > capacity {
            // Ticks are unique within a shard, so the minimum names
            // exactly one entry and no key is cloned to remove it. Two
            // linear scans, on over-capacity inserts only, never on hits.
            let lru = self.entries.values().map(|s| s.last_used).min();
            self.entries
                .retain(|_, stored| Some(stored.last_used) != lru);
            self.evictions += 1;
        }
    }
}

struct Shard<K, V> {
    state: Mutex<ShardState<K, V>>,
    ready: Condvar,
}

impl<K, V> Shard<K, V> {
    fn new() -> Shard<K, V> {
        Shard {
            state: Mutex::new(ShardState {
                entries: HashMap::new(),
                tick: 0,
                in_flight: HashSet::new(),
                waiters: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                inflight_waits: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardState<K, V>> {
        self.state.lock().expect("cache shard lock")
    }
}

/// A claimed single-flight build: releases the hash from the shard's
/// `in_flight` set and wakes the shard's waiters when dropped. Running
/// the release on `Drop` makes the claim panic-safe — a builder that
/// unwinds (and is caught upstream, e.g. by a pool worker) can never
/// leave its key permanently claimed with waiters parked forever.
struct InFlightClaim<'a, K, V> {
    shard: &'a Shard<K, V>,
    hash: u64,
}

impl<K, V> Drop for InFlightClaim<'_, K, V> {
    fn drop(&mut self) {
        // Tolerate a poisoned lock: this drop may run during a panic
        // unwind, where a second panic would abort the process.
        let mut state = match self.shard.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.in_flight.remove(&self.hash);
        let parked = state.waiters > 0;
        drop(state);
        if parked {
            self.shard.ready.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// A lock-striped memoizing map with per-shard single-flight builds and
/// LRU-bounded capacity. See the [module docs](self) for the design.
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    /// Per-shard entry bound; `0` disables caching.
    shard_capacity: usize,
    /// Total bound as configured (kept for stats; the enforced bound is
    /// `shard_capacity` per shard).
    capacity: usize,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<K: Clone + Eq + Hash, V: Clone> ShardedCache<K, V> {
    /// A cache bounded to `capacity` entries striped over `shards` locks.
    /// The shard count is clamped to `[1, 256]` and rounded up to a power
    /// of two; `capacity == 0` disables caching.
    pub(crate) fn new(capacity: usize, shards: usize) -> ShardedCache<K, V> {
        let shards = shards.clamp(1, 256).next_power_of_two();
        // Never stripe wider than the capacity: one entry per shard is
        // the useful minimum, and fewer shards keep LRU order exact for
        // small caches.
        let shards = if capacity == 0 {
            1
        } else {
            shards.min(capacity.next_power_of_two())
        };
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_capacity,
            capacity,
            mask: shards - 1,
        }
    }

    /// Hashes the key once; the result selects the shard and names the
    /// key's in-flight claim.
    fn shard_of(&self, key: &K) -> (u64, &Shard<K, V>) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        (hash, &self.shards[(hash as usize) & self.mask])
    }

    /// Returns `(value, was_cached)`; `was_cached` is true whenever the
    /// value came from another build (earlier or concurrent), so a miss
    /// is reported exactly once per cached entry. With caching disabled
    /// (`capacity == 0`) every call builds and `was_cached` is false.
    ///
    /// The builder runs outside the shard lock, single-flight per key:
    /// misses on different keys build in parallel while duplicates wait
    /// on their shard's condvar instead of regenerating. A failed — or
    /// panicking — build releases the key so the next waiter retries; an
    /// error is propagated to the caller that ran the builder, a panic
    /// unwinds through it (the claim is released by a drop guard, so a
    /// panic-catching caller such as a pool worker never leaves the key
    /// permanently claimed).
    pub(crate) fn get_or_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let (hash, shard) = self.shard_of(key);
        if self.shard_capacity == 0 {
            let value = build()?;
            shard.lock().misses += 1;
            return Ok((value, false));
        }

        let mut state = shard.lock();
        loop {
            if let Some(value) = state.hit(key) {
                return Ok((value, true));
            }
            if !state.in_flight.contains(&hash) {
                break;
            }
            state.inflight_waits += 1;
            state.waiters += 1;
            state = shard.ready.wait(state).expect("cache shard lock");
            state.waiters -= 1;
        }
        state.in_flight.insert(hash);
        drop(state);
        // From here the claim is owned by the guard: however the build
        // ends — value, error, or panic — the hash is released and the
        // shard's waiters are woken, exactly once.
        let claim = InFlightClaim { shard, hash };

        // The key cannot become resident meanwhile: its hash is held in
        // `in_flight`, so every same-hash requester waits and re-checks.
        // On an error, waiters re-check and the next one retries.
        let value = build()?;
        shard
            .lock()
            .insert(key.clone(), value.clone(), self.shard_capacity);
        drop(claim);
        Ok((value, false))
    }

    /// The resident value of `key`, counting one hit; `None`, counting
    /// nothing, when the key is absent, its build is in flight, or
    /// caching is disabled. Never waits on the shard's condvar: the
    /// caller treats `None` as a miss and hands the key to
    /// [`get_or_build`](Self::get_or_build), which counts the hit or miss
    /// and joins a build in flight.
    pub(crate) fn probe(&self, key: &K) -> Option<V> {
        if self.shard_capacity == 0 {
            return None;
        }
        let (_, shard) = self.shard_of(key);
        shard.lock().hit(key)
    }

    /// Clones every resident `(key, value)` pair, shard by shard — the
    /// export half of cache snapshotting ([`crate::snapshot`]). Each
    /// shard is locked once; builds in flight when their shard is
    /// visited are simply not included. Order is shard-major and
    /// arbitrary within a shard.
    pub(crate) fn export(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let state = shard.lock();
            for (key, stored) in &state.entries {
                out.push((key.clone(), stored.value.clone()));
            }
        }
        out
    }

    /// Inserts one entry directly, bypassing the builder — the import
    /// half of cache snapshotting (warm boot). The insert is counted as
    /// a miss, preserving the per-shard invariant
    /// `misses >= entries + evictions` (the miss was paid by whoever
    /// built the snapshotted value, in a previous process). A key that
    /// is already resident is left untouched (no hit or miss counted),
    /// capacity is enforced with the usual LRU eviction, and a disabled
    /// cache (`capacity == 0`) ignores the seed entirely.
    pub(crate) fn seed(&self, key: K, value: V) {
        if self.shard_capacity == 0 {
            return;
        }
        let (_, shard) = self.shard_of(&key);
        let mut state = shard.lock();
        if !state.entries.contains_key(&key) {
            state.insert(key, value, self.shard_capacity);
        }
    }

    /// Entries currently resident across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Drops every resident entry; counters are kept, and so are the
    /// in-flight claims: a build racing with the clear completes, inserts
    /// its (post-clear) value, and releases its claim normally, so
    /// waiters are never stranded and `in_flight` accounting returns to
    /// zero on its own.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().entries.clear();
        }
    }

    /// A snapshot of the aggregate and per-shard counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut out = CacheStats {
            capacity: self.capacity,
            shard_capacity: self.shard_capacity,
            shards: Vec::with_capacity(self.shards.len()),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            // One critical section per shard: each shard's snapshot is
            // internally coherent (see module docs).
            let s = {
                let state = shard.lock();
                ShardStats {
                    entries: state.entries.len(),
                    hits: state.hits,
                    misses: state.misses,
                    evictions: state.evictions,
                    inflight_waits: state.inflight_waits,
                    in_flight: state.in_flight.len(),
                }
            };
            out.entries += s.entries;
            out.hits += s.hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.inflight_waits += s.inflight_waits;
            out.in_flight += s.in_flight;
            out.shards.push(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn ok(v: u32) -> impl FnOnce() -> Result<u32, Infallible> {
        move || Ok(v)
    }

    #[test]
    fn hits_after_first_build() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(64, 4);
        assert_eq!(cache.get_or_build(&1, ok(10)).unwrap(), (10, false));
        assert_eq!(cache.get_or_build(&1, ok(99)).unwrap(), (10, true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        cache.get_or_build(&1, ok(1)).unwrap();
        cache.get_or_build(&2, ok(2)).unwrap();
        // Touch 1 so 2 becomes the LRU entry, then insert 3.
        assert!(cache.get_or_build(&1, ok(0)).unwrap().1);
        cache.get_or_build(&3, ok(3)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_or_build(&1, ok(0)).unwrap().1, "1 survives");
        assert!(!cache.get_or_build(&2, ok(2)).unwrap().1, "2 was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(0, 8);
        assert_eq!(cache.get_or_build(&1, ok(10)).unwrap(), (10, false));
        assert_eq!(cache.get_or_build(&1, ok(11)).unwrap(), (11, false));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 64);
        assert_eq!(cache.stats().shards.len(), 2);
        let unbounded: ShardedCache<u32, u32> = ShardedCache::new(4096, 6);
        assert_eq!(unbounded.stats().shards.len(), 8, "rounded to power of two");
    }

    #[test]
    fn failed_build_releases_the_key() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        assert!(cache.get_or_build(&7, || Err::<u32, &str>("boom")).is_err());
        assert_eq!(cache.get_or_build(&7, ok(42)).unwrap(), (42, false));
    }

    #[test]
    fn panicking_build_releases_the_key() {
        // A pool worker catches request panics, so a panicking builder
        // must not leave its in-flight claim behind — later requests for
        // the same key would otherwise wait forever.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&7, || -> Result<u32, &str> { panic!("builder blew up") })
        }));
        assert!(unwound.is_err(), "panic propagates to the builder's caller");
        assert_eq!(cache.stats().in_flight, 0, "claim released by the guard");
        assert_eq!(cache.get_or_build(&7, ok(42)).unwrap(), (42, false));
    }

    #[test]
    fn clear_during_inflight_build_keeps_accounting_consistent() {
        use std::sync::atomic::AtomicBool;
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache
                    .get_or_build(&1, || {
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        Ok::<_, Infallible>(7)
                    })
                    .unwrap();
            });
            // Wait until the builder has claimed the key, then clear.
            while cache.stats().in_flight == 0 {
                std::thread::yield_now();
            }
            cache.clear();
            assert_eq!(
                cache.stats().in_flight,
                1,
                "clearing must not revoke an in-flight claim"
            );
            release.store(true, Ordering::Release);
        });
        let stats = cache.stats();
        assert_eq!(stats.in_flight, 0, "claim released after the build");
        assert_eq!(stats.entries, 1, "the racing build landed post-clear");
        assert_eq!(cache.get_or_build(&1, ok(9)).unwrap(), (7, true));
    }

    #[test]
    fn stats_snapshots_stay_coherent_under_concurrent_traffic() {
        // Regression test for the counter ordering: inserts count their
        // miss and hits count themselves *under the shard lock*, so a
        // concurrent stats() poll (the serve stats endpoint) must always
        // observe `misses >= entries + evictions` and `hits + misses`
        // never exceeding the operations issued so far, per shard.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(8, 4);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2u32)
                .map(|t| {
                    let cache = &cache;
                    scope.spawn(move || {
                        for i in 0..4000u32 {
                            let key = (i % 23) * 2 + t;
                            cache.get_or_build(&key, ok(key)).unwrap();
                        }
                    })
                })
                .collect();
            let poller = scope.spawn(|| {
                let mut polls = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for s in cache.stats().shards {
                        assert!(
                            s.misses >= (s.entries as u64 + s.evictions),
                            "incoherent shard snapshot: {s:?}"
                        );
                    }
                    polls += 1;
                }
                polls
            });
            for writer in writers {
                writer.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            assert!(poller.join().unwrap() > 0, "the poller actually raced");
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8000);
    }

    #[test]
    fn hot_key_reads_survive_concurrent_eviction_churn() {
        // Readers hammer one hot key while a writer churns enough
        // distinct keys through a tiny shard to force constant evictions
        // (every insert restructures the table the readers probe).
        // Values are self-checksummed so any torn read — a clone
        // overlapping a table mutation — breaks the relation.
        const MASK: u64 = 0x9e37_79b9_7f4a_7c15;
        let make = |k: u32| {
            let seed = u64::from(k) + 1;
            move || Ok::<_, Infallible>(vec![seed, seed.wrapping_mul(3), seed ^ MASK])
        };
        let check = |v: &Vec<u64>| {
            assert_eq!(v[1], v[0].wrapping_mul(3), "torn read: {v:?}");
            assert_eq!(v[2], v[0] ^ MASK, "torn read: {v:?}");
        };
        let cache: ShardedCache<u32, Vec<u64>> = ShardedCache::new(4, 1);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        let (v, _) = cache.get_or_build(&1, make(1)).unwrap();
                        check(&v);
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..10_000u32 {
                    let k = 2 + (i % 7);
                    let (v, _) = cache.get_or_build(&k, make(k)).unwrap();
                    check(&v);
                }
            });
        });
        cache.get_or_build(&1, make(1)).unwrap();
        let (v, cached) = cache.get_or_build(&1, make(1)).unwrap();
        check(&v);
        assert!(cached, "a resident hot key is a hit");
        let stats = cache.stats();
        // 40k threaded probes + 2 tail probes, each a hit or a miss.
        assert_eq!(stats.hits + stats.misses, 40_002);
        for s in stats.shards {
            assert!(
                s.misses >= s.entries as u64 + s.evictions,
                "incoherent shard accounting: {s:?}"
            );
        }
    }

    #[test]
    fn export_and_seed_round_trip() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        cache.get_or_build(&1, ok(10)).unwrap();
        cache.get_or_build(&2, ok(20)).unwrap();
        let mut entries = cache.export();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 10), (2, 20)]);

        let warm: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        for (k, v) in entries {
            warm.seed(k, v);
        }
        // Seeded entries are pure hits, and the invariant held at boot.
        assert_eq!(warm.get_or_build(&1, ok(99)).unwrap(), (10, true));
        assert_eq!(warm.get_or_build(&2, ok(99)).unwrap(), (20, true));
        let stats = warm.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 2, "each seed counts as a paid miss");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn seed_respects_capacity_residency_and_disablement() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        cache.seed(1, 1);
        cache.seed(1, 42);
        assert_eq!(cache.get_or_build(&1, ok(0)).unwrap(), (1, true));
        cache.seed(2, 2);
        cache.seed(3, 3);
        assert_eq!(cache.len(), 2, "seeding past capacity evicts LRU");
        assert_eq!(cache.stats().evictions, 1);

        let off: ShardedCache<u32, u32> = ShardedCache::new(0, 1);
        off.seed(1, 1);
        assert_eq!(off.len(), 0);
        assert_eq!(off.stats().misses, 0, "disabled cache ignores seeds");
    }

    #[test]
    fn probes_hit_resident_keys_and_never_wait() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 1);
        assert_eq!(cache.probe(&1), None, "an absent key is a miss");
        assert_eq!(cache.stats().misses, 0, "a probe counts no miss");
        cache.get_or_build(&1, ok(10)).unwrap();
        assert_eq!(cache.probe(&1), Some(10));
        assert_eq!(cache.stats().hits, 1, "a probe hit counts one hit");

        // A key whose build is in flight reads as a miss at once.
        let release = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache
                    .get_or_build(&2, || {
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        Ok::<_, Infallible>(20)
                    })
                    .unwrap();
            });
            while cache.stats().in_flight == 0 {
                std::thread::yield_now();
            }
            assert_eq!(cache.probe(&2), None, "in flight: a miss, no wait");
            release.store(true, Ordering::Release);
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inflight_waits), (1, 2, 0));

        let off: ShardedCache<u32, u32> = ShardedCache::new(0, 1);
        off.get_or_build(&1, ok(1)).unwrap();
        assert_eq!(off.probe(&1), None, "a disabled cache never hits");
    }

    #[test]
    fn parked_single_flight_waiters_are_woken() {
        // A released claim notifies only when its shard's waiter count
        // says someone is parked; a parked waiter must still wake.
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(16, 1));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let builder = {
            let (cache, release) = (cache.clone(), release.clone());
            std::thread::spawn(move || {
                cache.get_or_build(&5, || {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    Ok::<_, Infallible>(55)
                })
            })
        };
        while cache.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || tx.send(cache.get_or_build(&5, ok(0)).unwrap()))
        };
        while cache.shards[0].lock().waiters == 0 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::Release);
        assert_eq!(builder.join().unwrap().unwrap(), (55, false));
        let woken = rx.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(woken, Ok((55, true)), "the parked waiter woke and hit");
        waiter.join().unwrap().unwrap();
        assert_eq!(cache.shards[0].lock().waiters, 0);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(16, 4);
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = cache
                        .get_or_build(&5, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so waiters actually pile up.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Ok::<_, Infallible>(55)
                        })
                        .unwrap();
                    assert_eq!(v, 55);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
