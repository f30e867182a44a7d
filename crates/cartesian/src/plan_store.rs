//! A process-wide, sharded, fingerprint-keyed store of compiled plans
//! and schedules.
//!
//! Pre-0.3.0, every [`CartComm`](crate::CartComm) owned a private
//! 16-entry LRU of compiled programs, so two communicators over the same
//! topology, neighborhood, and layouts — two tenants of a serving
//! process, two phases of one application, two tests in one binary —
//! each paid schedule construction and compilation in full. Compiled
//! plans are **immutable and rank-resolved**: all inputs that influence
//! the program (topology dims/periods/permutation, neighborhood, rank,
//! collective kind, block layouts) are folded into the store key, and a
//! compiled program is never mutated after construction. That makes them
//! safely shareable across communicators and threads, which is what this
//! store does: one warm, bounded cache per process.
//!
//! **Attribution** stays per communicator: each `CartComm` counts its
//! own hits and misses ([`crate::cartcomm::PlanCacheStats`]), so a
//! serving layer with one communicator per tenant gets per-tenant
//! hit/miss numbers for free while all tenants share the compiled bytes.
//! The store's own [`PlanStoreStats`] aggregate across the process —
//! `misses` is the number of compilations that actually ran.
//!
//! Sharding: keys are well-mixed 128-bit fingerprints, so the low bits
//! pick a shard and each shard is an independent mutex + MRU-first list.
//! Lookups lock one shard for a short scan; compilation runs **outside**
//! the lock (two racing compilers of the same key both compile, the
//! loser adopts the winner's program — benign because programs are
//! immutable and deterministic).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cartcomm_topo::{CartTopology, RelNeighborhood};

use crate::compile::{CompiledPlan, Fnv};
use crate::error::CartResult;
use crate::exec::ExecLayouts;
use crate::plan::{Plan, PlanKind, Schedule};

/// Shards in the global store. Power of two; keys are uniform so this
/// only bounds contention, not capacity.
const GLOBAL_SHARDS: usize = 16;

/// Per-shard compiled-program capacity of the global store (256 programs
/// process-wide — a serving process cycles through topologies × layouts,
/// and one compiled program is a few KiB).
const GLOBAL_SHARD_CAP: usize = 16;

fn seeded(seed: u64) -> Fnv {
    let mut h = Fnv::new();
    h.u64(seed);
    h
}

/// The rank-independent part of a compiled program's identity, hashed
/// once. A caller resolving every rank's program (an inline universe)
/// finishes the key per rank with one short hash step each, instead of
/// re-hashing topology, neighborhood and layouts `p` times.
#[derive(Clone, Copy)]
pub(crate) struct KeyStem {
    lo: Fnv,
    hi: Fnv,
}

impl KeyStem {
    /// `lay_fp` is `lay.fingerprint(kind)` of the program's layouts.
    pub(crate) fn new(
        topo: &CartTopology,
        nb: &RelNeighborhood,
        (kind, schedule): (PlanKind, Schedule),
        lay_fp: u128,
    ) -> Self {
        let flat = nb.to_flat();
        let stem = |seed: u64| {
            let mut h = seeded(seed);
            h.u64(topo.ndims() as u64);
            for &d in topo.dims() {
                h.u64(d as u64);
            }
            for &p in topo.periods() {
                h.u64(p as u64);
            }
            match topo.permutation() {
                Some(perm) => {
                    h.u64(1);
                    for &r in perm {
                        h.u64(r as u64);
                    }
                }
                None => h.u64(0),
            }
            h.u64(match kind {
                PlanKind::Alltoall => 1,
                PlanKind::Allgather => 2,
                PlanKind::ReduceScatter => 3,
                PlanKind::Allreduce => 4,
            });
            h.u64(schedule as u64);
            for &v in &flat {
                h.u64(v as u64);
            }
            h.u64(lay_fp as u64);
            h.u64((lay_fp >> 64) as u64);
            h
        };
        KeyStem {
            lo: stem(0x9E37_79B9_7F4A_7C15),
            hi: stem(0xC2B2_AE3D_27D4_EB4F),
        }
    }

    /// The store key of `rank`'s program.
    pub(crate) fn key(&self, rank: usize) -> u128 {
        let (mut lo, mut hi) = (self.lo, self.hi);
        lo.u64(rank as u64);
        hi.u64(rank as u64);
        ((hi.finish() as u128) << 64) | lo.finish() as u128
    }
}

/// The full identity of a compiled program: everything that influences
/// the emitted spans, peers, tags, and wire sizes. Layout shape alone
/// ([`ExecLayouts::fingerprint`]) was a sufficient key inside one
/// communicator; a process-wide store must also separate topologies,
/// neighborhoods, schedules, and ranks.
pub fn store_key(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    schedule: (PlanKind, Schedule),
    lay: &ExecLayouts,
) -> u128 {
    KeyStem::new(topo, nb, schedule, lay.fingerprint(schedule.0)).key(rank)
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
        h.u64(nb.ndims() as u64);
        h.u64(match kind {
            PlanKind::Alltoall => 1,
            PlanKind::Allgather => 2,
            PlanKind::ReduceScatter => 3,
            PlanKind::Allreduce => 4,
        });
        h.u64(schedule as u64);
        for v in nb.to_flat() {
            h.u64(v as u64);
        }
        parts[i] = h.finish();
    }
    ((parts[1] as u128) << 64) | parts[0] as u128
}

struct Shard {
    /// MRU-first compiled programs.
    compiled: Vec<(u128, Arc<CompiledPlan>)>,
    /// Schedules are tiny and few (one per neighborhood × kind); unbounded.
    schedules: Vec<(u128, Arc<Plan>)>,
}

/// Aggregate telemetry of a [`PlanStore`] since creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStoreStats {
    /// Compiled-program lookups served from the store.
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
    /// recency or counters — the admission-time "will this batch compile?"
    /// probe of the serving layer.
    pub fn contains(&self, key: u128) -> bool {
        self.shard(key)
            .lock()
            .expect("plan store shard poisoned")
            .compiled
            .iter()
            .any(|(k, _)| *k == key)
    }

    /// Look up `key`, compiling via `compile` on a miss. Returns the
    /// shared program and whether this was a hit. Compilation runs
    /// outside the shard lock; a racing compile of the same key adopts
    /// the first inserted program.
    pub fn get_or_compile(
        &self,
        key: u128,
        compile: impl FnOnce() -> CartResult<Arc<CompiledPlan>>,
    ) -> CartResult<(Arc<CompiledPlan>, bool)> {
        {
            let mut shard = self.shard(key).lock().expect("plan store shard poisoned");
            if let Some(pos) = shard.compiled.iter().position(|(k, _)| *k == key) {
                let entry = shard.compiled.remove(pos);
                let cp = Arc::clone(&entry.1);
                shard.compiled.insert(0, entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((cp, true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cp = compile()?;
        let mut shard = self.shard(key).lock().expect("plan store shard poisoned");
        if let Some(pos) = shard.compiled.iter().position(|(k, _)| *k == key) {
            // Lost a compile race; share the resident program.
            let entry = shard.compiled.remove(pos);
            let cp = Arc::clone(&entry.1);
            shard.compiled.insert(0, entry);
            return Ok((cp, false));
        }
        shard.compiled.insert(0, (key, Arc::clone(&cp)));
        if shard.compiled.len() > self.per_shard_cap {
            let evicted = shard.compiled.len() - self.per_shard_cap;
            shard.compiled.truncate(self.per_shard_cap);
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        Ok((cp, false))
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

    /// Resident compiled-program count across all shards.
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
    use crate::exec::BlockLayout;
    use crate::ops::size_temp;
    use crate::schedule::alltoall_plan;

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
    ) -> Arc<CompiledPlan> {
        let plan = alltoall_plan(nb);
        let lay = size_temp(lay_for(nb, m), PlanKind::Alltoall, plan.temp_slots).unwrap();
        Arc::new(CompiledPlan::compile(topo, rank, &plan, &lay, 0x100).unwrap())
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
        assert_ne!(base, store_key(&t34, &moore, 0, A2A, &lay));
        assert_ne!(base, store_key(&mesh, &moore, 0, A2A, &lay));
        assert_ne!(base, store_key(&t33, &vn, 0, A2A, &lay_for(&vn, 8)));
        assert_ne!(base, store_key(&t33, &moore, 1, A2A, &lay));
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
        // A permutation is part of the identity.
        let permuted = CartTopology::torus(&[3, 3])
            .unwrap()
            .with_permutation((0..9).rev().collect())
            .unwrap();
        assert_ne!(base, store_key(&permuted, &moore, 0, A2A, &lay));
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
}
