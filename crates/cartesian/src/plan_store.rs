//! A process-wide, sharded, fingerprint-keyed, single-flight store of
//! compiled programs and schedules.
//!
//! A [`Program`] is **immutable** and depends on the topology only
//! through a rank's boundary class: the store key hashes what influences
//! it — neighborhood, collective kind, algorithm, block layouts and the
//! class, empty on a torus (see [`store_key`]) — and nothing else. So
//! programs are shared across ranks of a class, torus sizes, permutations,
//! communicators (two tenants, two phases of one application) and
//! threads: one warm, bounded cache per process, holding one program per
//! shape and boundary class.
//!
//! **Attribution** stays with the requester: every program lookup is
//! counted once, on the requesting rank's `Obs` (`plan_cache_hits`/
//! `plan_cache_misses`, and a `PlanCacheHit`/`PlanCacheMiss` trace
//! event), so a serving layer gets per-tenant hit/miss numbers from `Obs`
//! deltas while all tenants share the compiled bytes. The store's own
//! [`PlanStoreStats`] aggregate across the process — `misses` is the
//! number of compilations that ran.
//!
//! Sharding: keys are well-mixed 128-bit fingerprints, so the low bits
//! pick a shard and each shard is an independent mutex + MRU-first list
//! of entries. A lookup locks its shard for a short scan only.
//!
//! **Single flight:** compilation runs under the *entry's* own lock, never
//! a shard's. The ranks of a class ask for one key at once; the
//! first to take the entry's lock compiles, the others sleep on it, find
//! the program and are billed a hit. A compilation that fails, or panics,
//! takes its entry out again: whoever was waiting compiles for itself and
//! the next requester starts afresh.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cartcomm_topo::{CartTopology, RelNeighborhood};

use crate::compile::{boundary_class, Fnv, Program};
use crate::error::CartResult;
use crate::exec::ExecLayouts;
use crate::plan::{Plan, PlanKind, Schedule};

/// Shards in the global store. Power of two; keys are uniform so this
/// only bounds contention, not capacity.
const GLOBAL_SHARDS: usize = 16;

/// Per-shard compiled-program capacity of the global store (256 programs
/// process-wide — a serving process cycles through topologies × layouts,
/// and one compiled program is a few KiB to a few hundred).
const GLOBAL_SHARD_CAP: usize = 16;

fn seeded(seed: u64) -> Fnv {
    let mut h = Fnv::new();
    h.u64(seed);
    h
}

/// A compiled program's identity but for the boundary class, hashed once:
/// neighborhood, schedule and layouts. [`KeyStem::key`] adds the class.
#[derive(Clone, Copy)]
pub(crate) struct KeyStem {
    lo: Fnv,
    hi: Fnv,
}

impl KeyStem {
    /// `lay_fp` identifies the program's layouts: their
    /// [`ExecLayouts::fingerprint`], or that of the datatype description
    /// they are committed from (see `ops::Shape`).
    pub(crate) fn new(
        nb: &RelNeighborhood,
        (kind, schedule): (PlanKind, Schedule),
        lay_fp: u128,
    ) -> Self {
        let flat = nb.to_flat();
        let stem = |seed: u64| {
            let mut h = seeded(seed);
            h.words([nb.ndims(), kind.code() as usize, schedule as usize]);
            h.words(flat.iter().map(|&v| v as usize));
            h.words([lay_fp as usize, (lay_fp >> 64) as usize]);
            h
        };
        KeyStem {
            lo: stem(0x9E37_79B9_7F4A_7C15),
            hi: stem(0xC2B2_AE3D_27D4_EB4F),
        }
    }

    /// The store key of the program `rank` of `topo` runs over `nb`: the
    /// one of every rank of its boundary class.
    pub(crate) fn key(&self, topo: &CartTopology, nb: &RelNeighborhood, rank: usize) -> u128 {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for window in boundary_class(topo, nb.offsets().iter(), rank) {
            let (behind, ahead) = window.map_or((0, 0), |(b, a)| (1 + b, a));
            lo.words([behind, ahead]);
            hi.words([behind, ahead]);
        }
        ((hi.finish() as u128) << 64) | lo.finish() as u128
    }
}

/// The full identity of the program `rank` runs: everything that
/// influences the emitted spans, tags, and wire sizes. Layout shape alone
/// ([`ExecLayouts::fingerprint`]) was a sufficient key inside one
/// communicator; a process-wide store must also separate neighborhoods,
/// schedules and boundary classes — and nothing else: ranks of one class,
/// tori of any size and permuted tori share a key, and on a torus every
/// rank is of the one empty class.
pub fn store_key(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    schedule: (PlanKind, Schedule),
    lay: &ExecLayouts,
) -> u128 {
    KeyStem::new(nb, schedule, lay.fingerprint(schedule.0)).key(topo, nb, rank)
}

/// Key for a (rank-independent) schedule: neighborhood, kind and
/// algorithm only — a plan does not depend on topology or rank.
pub fn schedule_key(nb: &RelNeighborhood, (kind, schedule): (PlanKind, Schedule)) -> u128 {
    let mut parts = [0u64; 2];
    for (i, seed) in [0x5851_F42D_4C95_7F2Du64, 0x1405_7B7E_F767_814Fu64]
        .into_iter()
        .enumerate()
    {
        let mut h = seeded(seed);
        h.words([nb.ndims(), kind.code() as usize, schedule as usize]);
        h.words(nb.to_flat().into_iter().map(|v| v as usize));
        parts[i] = h.finish();
    }
    ((parts[1] as u128) << 64) | parts[0] as u128
}

/// One key's program, or — while the slot is empty and its lock held — the
/// compilation every other requester of the key waits for.
type Entry = Mutex<Option<Arc<Program>>>;

struct Shard {
    /// MRU-first compiled programs.
    compiled: Vec<(u128, Arc<Entry>)>,
    /// Schedules are tiny and few (one per neighborhood × kind); unbounded.
    schedules: Vec<(u128, Arc<Plan>)>,
}

/// A compilation in progress. Dropped before its program is stored, it
/// forgets the entry, so that a failed compilation leaves its key absent.
struct InFlight<'a> {
    store: &'a PlanStore,
    key: u128,
    entry: &'a Arc<Entry>,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Not `expect`: this may run while a panicking compilation unwinds.
        let shard = self.store.shard(self.key).lock();
        let mut shard = shard.unwrap_or_else(|e| e.into_inner());
        shard.compiled.retain(|(_, e)| !Arc::ptr_eq(e, self.entry));
    }
}

/// Aggregate telemetry of a [`PlanStore`] since creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStoreStats {
    /// Compiled-program lookups served from the store, including those
    /// that waited for another requester's compilation.
    pub hits: u64,
    /// Lookups that ran a compilation.
    pub misses: u64,
    /// Programs evicted by per-shard LRU capacity.
    pub evictions: u64,
    /// Schedule lookups served from the store.
    pub schedule_hits: u64,
    /// Schedule lookups that constructed the schedule.
    pub schedule_misses: u64,
}

/// See the [module docs](self).
pub struct PlanStore {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    schedule_hits: AtomicU64,
    schedule_misses: AtomicU64,
}

impl PlanStore {
    /// A fresh store with `shards` shards (rounded up to a power of two)
    /// holding at most `per_shard_cap` compiled programs each. Use for
    /// isolation (tests pinning exact hit/miss sequences); production
    /// code shares [`PlanStore::global`].
    pub fn new(shards: usize, per_shard_cap: usize) -> Arc<Self> {
        let n = shards.max(1).next_power_of_two();
        Arc::new(PlanStore {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        compiled: Vec::new(),
                        schedules: Vec::new(),
                    })
                })
                .collect(),
            per_shard_cap: per_shard_cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            schedule_hits: AtomicU64::new(0),
            schedule_misses: AtomicU64::new(0),
        })
    }

    /// The process-wide store every communicator uses by default.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<PlanStore>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| PlanStore::new(GLOBAL_SHARDS, GLOBAL_SHARD_CAP)))
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    /// Whether a compiled program for `key` is resident, without touching
    /// recency or counters and without waiting: a key whose compilation is
    /// still running is not.
    pub fn contains(&self, key: u128) -> bool {
        let shard = self.shard(key).lock().expect("plan store shard poisoned");
        let entry = shard.compiled.iter().find(|(k, _)| *k == key);
        entry.is_some_and(|(_, e)| e.try_lock().is_ok_and(|slot| slot.is_some()))
    }

    /// The entry of `key`, made most recently used; a fresh, empty one if
    /// the key is not resident.
    fn entry(&self, key: u128) -> Arc<Entry> {
        let mut shard = self.shard(key).lock().expect("plan store shard poisoned");
        let found = match shard.compiled.iter().position(|(k, _)| *k == key) {
            Some(pos) => shard.compiled.remove(pos),
            None => (key, Arc::default()),
        };
        let entry = Arc::clone(&found.1);
        shard.compiled.insert(0, found);
        entry
    }

    /// Look up `key`, compiling via `compile` on a miss. Returns the
    /// shared program and whether this was a hit. Single-flight: of the
    /// requesters that find a key without a program, the first compiles —
    /// holding that entry's lock and no other — and the rest wait for it
    /// and hit. A new program evicts the shard's least recently used
    /// beyond its capacity; an evicted entry still serves whoever holds it.
    pub fn get_or_compile(
        &self,
        key: u128,
        compile: impl FnOnce() -> CartResult<Arc<Program>>,
    ) -> CartResult<(Arc<Program>, bool)> {
        let entry = self.entry(key);
        // A compilation that panicked under this lock left the slot empty,
        // which is as valid a state as any: the poison is dropped.
        let mut slot = entry.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(program) = &*slot {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(program), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Until a program is in the slot, leaving — by `?` or by a panic
        // in `compile` — takes the entry out of its shard.
        let in_flight = InFlight {
            store: self,
            key,
            entry: &entry,
        };
        let program = compile()?;
        std::mem::forget(in_flight);
        *slot = Some(Arc::clone(&program));
        drop(slot);
        let mut shard = self.shard(key).lock().expect("plan store shard poisoned");
        if shard.compiled.len() > self.per_shard_cap {
            let evicted = shard.compiled.len() - self.per_shard_cap;
            shard.compiled.truncate(self.per_shard_cap);
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        Ok((program, false))
    }

    /// Look up a schedule, constructing it via `build` on a miss.
    pub fn schedule(&self, key: u128, build: impl FnOnce() -> Plan) -> Arc<Plan> {
        {
            let shard = self.shard(key).lock().expect("plan store shard poisoned");
            if let Some((_, plan)) = shard.schedules.iter().find(|(k, _)| *k == key) {
                self.schedule_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(plan);
            }
        }
        self.schedule_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        let mut shard = self.shard(key).lock().expect("plan store shard poisoned");
        if let Some((_, resident)) = shard.schedules.iter().find(|(k, _)| *k == key) {
            return Arc::clone(resident);
        }
        shard.schedules.push((key, Arc::clone(&plan)));
        plan
    }

    /// Compiled-program entries across all shards: resident programs and
    /// compilations in flight.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan store shard poisoned").compiled.len())
            .sum()
    }

    /// True when no compiled program is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters since creation.
    pub fn stats(&self) -> PlanStoreStats {
        PlanStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            schedule_hits: self.schedule_hits.load(Ordering::Relaxed),
            schedule_misses: self.schedule_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CartError;
    use crate::exec::BlockLayout;
    use crate::ops::size_temp;
    use crate::schedule::alltoall_plan;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::time::Duration;

    const A2A: (PlanKind, Schedule) = (PlanKind::Alltoall, Schedule::Combining);

    fn lay_for(nb: &RelNeighborhood, m: usize) -> ExecLayouts {
        let t = nb.len();
        let blocks: Vec<BlockLayout> = (0..t)
            .map(|i| BlockLayout::contiguous((i * m) as i64, m))
            .collect();
        ExecLayouts {
            send: blocks.clone(),
            recv: blocks,
            block_bytes: vec![m; t],
            temp_offsets: Vec::new(),
            temp_sizes: Vec::new(),
        }
    }

    fn compile_for(
        topo: &CartTopology,
        nb: &RelNeighborhood,
        rank: usize,
        m: usize,
    ) -> Arc<Program> {
        let plan = alltoall_plan(nb);
        let lay = size_temp(lay_for(nb, m), PlanKind::Alltoall, plan.temp_slots).unwrap();
        Arc::new(Program::compile(topo, rank, &plan, &lay, 0x100).unwrap())
    }

    /// A small program, for tests about the store and not about programs.
    fn any_program() -> Arc<Program> {
        let topo = CartTopology::torus(&[3]).unwrap();
        let nb = RelNeighborhood::new(1, vec![vec![1]]).unwrap();
        compile_for(&topo, &nb, 0, 4)
    }

    /// Run `body` on a thread of its own and fail unless it finishes within
    /// `limit`: a lost wake-up then fails the test instead of hanging the
    /// suite.
    fn watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            // The body panicked: pass its panic on.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("no result within {limit:?}: a waiter was never woken")
            }
        }
    }

    const LIMIT: Duration = Duration::from_secs(60);

    /// Wait until `n` requesters hold `key`'s entry (the shard's own
    /// reference not counted): those not compiling are asleep on its lock,
    /// or about to be.
    fn await_holders(store: &PlanStore, key: u128, n: usize) {
        let holders = || {
            let shard = store.shard(key).lock().unwrap();
            let entry = shard.compiled.iter().find(|(k, _)| *k == key);
            entry.map_or(0, |(_, e)| Arc::strong_count(e) - 1)
        };
        while holders() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn keys_separate_every_identity_axis() {
        let t33 = CartTopology::torus(&[3, 3]).unwrap();
        let t34 = CartTopology::torus(&[3, 4]).unwrap();
        let mesh = CartTopology::new(&[3, 3], &[false, true]).unwrap();
        let moore = RelNeighborhood::moore(2, 1).unwrap();
        let vn = RelNeighborhood::von_neumann(2, 1).unwrap();
        let lay = lay_for(&moore, 8);
        let base = store_key(&t33, &moore, 0, A2A, &lay);
        // A program does not depend on the torus's size.
        assert_eq!(base, store_key(&t34, &moore, 0, A2A, &lay));
        assert_ne!(base, store_key(&mesh, &moore, 0, A2A, &lay));
        assert_ne!(base, store_key(&t33, &vn, 0, A2A, &lay_for(&vn, 8)));
        // Every rank of a torus runs one program under one key; where a
        // neighbor lies across a non-periodic dimension, every rank of one
        // boundary class does: (0, 0) and (0, 1) lie on the open edge
        // alike, (1, 0) has a process on either side.
        assert_eq!(base, store_key(&t33, &moore, 1, A2A, &lay));
        assert_eq!(
            store_key(&mesh, &moore, 0, A2A, &lay),
            store_key(&mesh, &moore, 1, A2A, &lay)
        );
        assert_ne!(
            store_key(&mesh, &moore, 0, A2A, &lay),
            store_key(&mesh, &moore, 3, A2A, &lay)
        );
        let along = RelNeighborhood::new(2, vec![vec![0, 1], vec![0, -1]]).unwrap();
        let lay2 = lay_for(&along, 8);
        assert_eq!(
            store_key(&mesh, &along, 0, A2A, &lay2),
            store_key(&t33, &along, 1, A2A, &lay2),
            "a mesh the neighborhood never leaves is a torus to it"
        );
        let allgather = (PlanKind::Allgather, Schedule::Combining);
        assert_ne!(base, store_key(&t33, &moore, 0, allgather, &lay));
        let trivial = (PlanKind::Alltoall, Schedule::Trivial);
        assert_ne!(base, store_key(&t33, &moore, 0, trivial, &lay));
        assert_ne!(base, store_key(&t33, &moore, 0, A2A, &lay_for(&moore, 16)));
        // Same identity → same key, including across clones.
        assert_eq!(
            base,
            store_key(&t33.clone(), &moore.clone(), 0, A2A, &lay.clone())
        );
        // A permutation places the ranks, not the program.
        let permuted = CartTopology::torus(&[3, 3])
            .unwrap()
            .with_permutation((0..9).rev().collect())
            .unwrap();
        assert_eq!(base, store_key(&permuted, &moore, 0, A2A, &lay));
    }

    #[test]
    fn store_shares_across_lookups_and_counts() {
        let store = PlanStore::new(4, 8);
        let topo = CartTopology::torus(&[3, 3]).unwrap();
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let lay = lay_for(&nb, 8);
        let key = store_key(&topo, &nb, 0, A2A, &lay);
        assert!(!store.contains(key));
        let (a, hit_a) = store
            .get_or_compile(key, || Ok(compile_for(&topo, &nb, 0, 8)))
            .unwrap();
        assert!(!hit_a);
        assert!(store.contains(key));
        let (b, hit_b) = store
            .get_or_compile(key, || panic!("must not recompile"))
            .unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "one shared program");
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // `contains` affected neither counter.
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn lru_evicts_per_shard() {
        // One shard, capacity 2: the third distinct key evicts the least
        // recently used entry.
        let store = PlanStore::new(1, 2);
        let topo = CartTopology::torus(&[3, 3]).unwrap();
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let keys: Vec<u128> = [4usize, 8, 16]
            .iter()
            .map(|&m| store_key(&topo, &nb, 0, A2A, &lay_for(&nb, m)))
            .collect();
        for &m in &[4usize, 8] {
            let key = store_key(&topo, &nb, 0, A2A, &lay_for(&nb, m));
            store
                .get_or_compile(key, || Ok(compile_for(&topo, &nb, 0, m)))
                .unwrap();
        }
        // Touch key[0] so key[1] is LRU.
        store
            .get_or_compile(keys[0], || panic!("resident"))
            .unwrap();
        store
            .get_or_compile(keys[2], || Ok(compile_for(&topo, &nb, 0, 16)))
            .unwrap();
        assert!(store.contains(keys[0]));
        assert!(!store.contains(keys[1]), "LRU entry evicted");
        assert!(store.contains(keys[2]));
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn schedules_share_by_neighborhood_and_kind() {
        let store = PlanStore::new(4, 8);
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let k = schedule_key(&nb, A2A);
        let a = store.schedule(k, || alltoall_plan(&nb));
        let b = store.schedule(k, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_ne!(
            k,
            schedule_key(&nb, (PlanKind::Allgather, Schedule::Combining))
        );
        assert_ne!(
            k,
            schedule_key(&nb, (PlanKind::Alltoall, Schedule::Trivial))
        );
        let s = store.stats();
        assert_eq!((s.schedule_hits, s.schedule_misses), (1, 1));
    }

    #[test]
    fn eight_requesters_of_one_key_compile_once() {
        watchdog(LIMIT, || {
            let store = PlanStore::new(4, 8);
            let (compiled, start) = (AtomicUsize::new(0), Barrier::new(8));
            let got: Vec<(Arc<Program>, bool)> = std::thread::scope(|s| {
                let asks: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            store.get_or_compile(7, || {
                                compiled.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(20));
                                Ok(any_program())
                            })
                        })
                    })
                    .collect();
                asks.into_iter()
                    .map(|a| a.join().unwrap().unwrap())
                    .collect()
            });
            assert_eq!(compiled.load(Ordering::SeqCst), 1, "one compilation");
            let s = store.stats();
            assert_eq!((s.misses, s.hits), (1, 7), "the waiters are billed hits");
            assert_eq!(got.iter().filter(|(_, hit)| !hit).count(), 1);
            assert!(got.iter().all(|(p, _)| Arc::ptr_eq(p, &got[0].0)));
            assert!(store.contains(7) && store.len() == 1);
        });
    }

    #[test]
    fn a_failed_compilation_leaves_its_key_absent_and_retryable() {
        watchdog(LIMIT, || {
            let store = PlanStore::new(1, 8);
            let refused = store.get_or_compile(7, || Err(CartError::NotIsomorphic));
            assert_eq!(refused.err(), Some(CartError::NotIsomorphic));
            assert!(!store.contains(7) && store.is_empty());
            let (_, hit) = store.get_or_compile(7, || Ok(any_program())).unwrap();
            assert!(!hit && store.contains(7));
            assert_eq!(store.stats().misses, 2);

            // A requester waiting on a compilation that fails is not
            // handed the failure: it compiles for itself.
            let (entered, release) = (Barrier::new(2), Barrier::new(2));
            std::thread::scope(|s| {
                let failing = s.spawn(|| {
                    store.get_or_compile(9, || {
                        entered.wait();
                        release.wait();
                        Err(CartError::NotIsomorphic)
                    })
                });
                entered.wait();
                let waiting = s.spawn(|| store.get_or_compile(9, || Ok(any_program())));
                await_holders(&store, 9, 2);
                release.wait();
                assert!(failing.join().unwrap().is_err());
                assert!(!waiting.join().unwrap().unwrap().1, "the waiter compiled");
            });
        });
    }

    #[test]
    fn a_panicking_compilation_poisons_neither_its_entry_nor_its_shard() {
        watchdog(LIMIT, || {
            let store = PlanStore::new(1, 8);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                store.get_or_compile(7, || panic!("compiler bug"))
            }));
            assert!(caught.is_err());
            assert!(!store.contains(7) && store.is_empty());
            // Same key, and another key of the same (only) shard.
            for key in [7, 8] {
                let (_, hit) = store.get_or_compile(key, || Ok(any_program())).unwrap();
                assert!(!hit && store.contains(key));
            }
        });
    }

    #[test]
    fn two_keys_of_one_shard_compile_side_by_side() {
        watchdog(LIMIT, || {
            // One shard. Each compilation waits inside its closure for the
            // other to have started: were the second to wait for the
            // first, neither would finish.
            let store = PlanStore::new(1, 8);
            let both_compiling = Barrier::new(2);
            std::thread::scope(|s| {
                for key in [1, 2] {
                    let (store, both_compiling) = (&store, &both_compiling);
                    s.spawn(move || {
                        let compile = || {
                            both_compiling.wait();
                            Ok(any_program())
                        };
                        assert!(!store.get_or_compile(key, compile).unwrap().1);
                    });
                }
            });
            assert_eq!(store.stats().misses, 2);
        });
    }

    #[test]
    fn an_entry_evicted_under_its_waiters_still_serves_them() {
        watchdog(LIMIT, || {
            // One shard of one program: key 2 evicts key 1 while key 1 is
            // still compiling and has a requester waiting on it.
            let store = PlanStore::new(1, 1);
            let (entered, release) = (Barrier::new(2), Barrier::new(2));
            std::thread::scope(|s| {
                let first = s.spawn(|| {
                    store.get_or_compile(1, || {
                        entered.wait();
                        release.wait();
                        Ok(any_program())
                    })
                });
                entered.wait();
                let waiter = s.spawn(|| store.get_or_compile(1, || panic!("waits instead")));
                await_holders(&store, 1, 2);
                store.get_or_compile(2, || Ok(any_program())).unwrap();
                assert_eq!(store.stats().evictions, 1);
                assert!(!store.contains(1) && store.contains(2));
                release.wait();
                let (compiled, hit) = first.join().unwrap().unwrap();
                let (waited_for, waiter_hit) = waiter.join().unwrap().unwrap();
                assert!(!hit && waiter_hit && Arc::ptr_eq(&waited_for, &compiled));
                assert!(!store.contains(1), "evicted stays evicted");
            });
        });
    }
}
