//! Pooled wire buffers for the schedule hot path.
//!
//! The message-combining schedules of the paper win precisely when
//! per-round overheads are small (the cut-off `m < (α/β)·(t−C)/(V−t)`,
//! Prop. 3.2) — a fresh heap allocation per message per round is exactly
//! such an overhead, and it used to be paid three times per round: packing
//! the wire message, depositing the [`crate::envelope::Envelope`], and
//! buffering on the receive side. The [`WirePool`] removes all three:
//!
//! * Every rank owns one size-classed pool of `Vec<u8>` backing stores.
//! * A [`PooledBuf`] is an RAII handle around a `Vec<u8>` plus the pool it
//!   returns to. Wire messages travel *as* their `PooledBuf`; the fabric
//!   retargets the handle to the **receiver's** pool at deposit time, so
//!   dropping a received message recycles its bytes where the next receive
//!   will happen — buffers migrate with the traffic pattern and reach a
//!   steady state where persistent collectives allocate nothing per
//!   iteration.
//! * Telemetry ([`PoolStats`]: `hits`, `misses`, `bytes_recycled`, …) sits
//!   next to the existing fabric telemetry so reuse is measured, not
//!   assumed.
//!
//! Buffers are binned by power-of-two capacity between [`MIN_CLASS_BYTES`]
//! and [`MAX_CLASS_BYTES`]; each bin retains at most
//! [`MAX_BUFS_PER_CLASS`] free buffers, so pool residency is bounded
//! regardless of traffic (returns beyond the cap fall back to the
//! allocator and count as `dropped`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Smallest pooled capacity: smaller requests round up to this.
pub const MIN_CLASS_BYTES: usize = 64;
/// Largest pooled capacity: larger requests bypass the pool entirely.
pub const MAX_CLASS_BYTES: usize = 1 << 26; // 64 MiB
/// Free buffers retained per size class.
pub const MAX_BUFS_PER_CLASS: usize = 64;

const MIN_CLASS_LOG2: u32 = MIN_CLASS_BYTES.trailing_zeros();
const MAX_CLASS_LOG2: u32 = MAX_CLASS_BYTES.trailing_zeros();
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;

/// Counters describing one rank's pool traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a free list (no allocation).
    pub hits: u64,
    /// Acquisitions that had to allocate (cold pool, or oversize request).
    pub misses: u64,
    /// Cumulative capacity bytes returned to and accepted by the pool.
    pub bytes_recycled: u64,
    /// Returns rejected because the class was full or the buffer oversize.
    pub dropped: u64,
    /// Capacity bytes currently parked in free lists.
    pub retained_bytes: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served without allocating, in `[0, 1]`.
    /// `1.0` for an untouched pool (no acquisitions yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-rank, size-classed free list of wire buffers.
///
/// Shared behind an `Arc`: the owning rank acquires from it, and the fabric
/// retargets in-flight [`PooledBuf`]s to it so remote drops refill it.
pub struct WirePool {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_recycled: AtomicU64,
    dropped: AtomicU64,
    retained_bytes: AtomicU64,
}

impl Default for WirePool {
    fn default() -> Self {
        Self::new()
    }
}

impl WirePool {
    /// An empty pool.
    pub fn new() -> Self {
        WirePool {
            classes: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            retained_bytes: AtomicU64::new(0),
        }
    }

    /// The size-class index covering a request of `cap` bytes, or `None`
    /// when the request is too large to pool.
    fn class_of(cap: usize) -> Option<usize> {
        if cap > MAX_CLASS_BYTES {
            return None;
        }
        let rounded = cap.max(MIN_CLASS_BYTES).next_power_of_two();
        Some((rounded.trailing_zeros() - MIN_CLASS_LOG2) as usize)
    }

    /// Capacity of a size class.
    fn class_bytes(class: usize) -> usize {
        MIN_CLASS_BYTES << class
    }

    /// Acquire an **empty** buffer whose capacity is at least `cap` bytes,
    /// attached to `pool` so it returns on drop.
    pub fn take(pool: &Arc<WirePool>, cap: usize) -> PooledBuf {
        Self::take_tracked(pool, cap).0
    }

    /// [`WirePool::take`] that also reports whether the acquisition was
    /// served from a free list (`true`) or had to allocate (`false`), so
    /// callers can forward the outcome to an observability layer.
    pub fn take_tracked(pool: &Arc<WirePool>, cap: usize) -> (PooledBuf, bool) {
        let Some(class) = Self::class_of(cap) else {
            // Oversize: plain allocation, recycled nowhere.
            pool.misses.fetch_add(1, Ordering::Relaxed);
            return (
                PooledBuf {
                    data: Vec::with_capacity(cap),
                    pool: None,
                },
                false,
            );
        };
        let reused = pool.classes[class].lock().pop();
        let (data, hit) = match reused {
            Some(buf) => {
                pool.hits.fetch_add(1, Ordering::Relaxed);
                pool.retained_bytes
                    .fetch_sub(buf.capacity() as u64, Ordering::Relaxed);
                (buf, true)
            }
            None => {
                pool.misses.fetch_add(1, Ordering::Relaxed);
                (Vec::with_capacity(Self::class_bytes(class)), false)
            }
        };
        debug_assert!(data.is_empty() && data.capacity() >= cap);
        (
            PooledBuf {
                data,
                pool: Some(Arc::clone(pool)),
            },
            hit,
        )
    }

    /// Return a backing store to the pool (internal; called from
    /// [`PooledBuf::drop`]).
    ///
    /// Buffers are binned by the largest class whose size they *cover*
    /// (round **down**), so every free-list entry in class `k` has capacity
    /// `>= class_bytes(k)` — the guarantee `take` relies on — even for
    /// payloads that originated as plain `Vec<u8>` with odd capacities.
    fn put(&self, mut buf: Vec<u8>) {
        let cap = buf.capacity();
        if (MIN_CLASS_BYTES..=MAX_CLASS_BYTES).contains(&cap) {
            let class = (usize::BITS - 1 - cap.leading_zeros() - MIN_CLASS_LOG2) as usize;
            debug_assert!(cap >= Self::class_bytes(class));
            let mut list = self.classes[class].lock();
            if list.len() < MAX_BUFS_PER_CLASS {
                buf.clear();
                list.push(buf);
                drop(list);
                self.bytes_recycled.fetch_add(cap as u64, Ordering::Relaxed);
                self.retained_bytes.fetch_add(cap as u64, Ordering::Relaxed);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Pre-populate the pool so that later `take(cap)` calls for each given
    /// capacity hit a warm free list. Used by persistent collectives at
    /// `_init` time: one warm buffer per schedule round means steady-state
    /// executions allocate nothing.
    pub fn prewarm(pool: &Arc<WirePool>, caps: &[usize]) {
        let bufs: Vec<PooledBuf> = caps.iter().map(|&c| Self::take(pool, c)).collect();
        drop(bufs); // return them all: the free lists now hold |caps| buffers
    }

    /// Snapshot of the telemetry counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_recycled: self.bytes_recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            retained_bytes: self.retained_bytes.load(Ordering::Relaxed),
        }
    }

    /// Reset the traffic counters (`hits`, `misses`, `bytes_recycled`,
    /// `dropped`) without touching the cached buffers, so a measurement can
    /// scope hit rates to a region of interest.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes_recycled.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for WirePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WirePool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// An owned byte buffer that returns its backing store to a [`WirePool`]
/// when dropped.
///
/// Dereferences to `Vec<u8>`, so gather/pack code that appends into a
/// `&mut Vec<u8>` works unchanged. Buffers created with [`PooledBuf::from`]
/// a plain `Vec<u8>` are *unpooled* (their drop is a normal deallocation)
/// until the fabric retargets them.
#[derive(Debug)]
pub struct PooledBuf {
    data: Vec<u8>,
    pool: Option<Arc<WirePool>>,
}

impl PooledBuf {
    /// Redirect the return-on-drop destination, e.g. to the receiving
    /// rank's pool at deposit time.
    pub(crate) fn retarget(&mut self, pool: &Arc<WirePool>) {
        self.pool = Some(Arc::clone(pool));
    }

    /// Detach the bytes from the pool, taking plain ownership. The backing
    /// store will not be recycled.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.data)
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(data: Vec<u8>) -> Self {
        PooledBuf { data, pool: None }
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for PooledBuf {}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.data == other
    }
}

impl PartialEq<PooledBuf> for Vec<u8> {
    fn eq(&self, other: &PooledBuf) -> bool {
        self == &other.data
    }
}

impl PartialEq<[u8]> for PooledBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.data == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PooledBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.data == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<WirePool> {
        Arc::new(WirePool::new())
    }

    #[test]
    fn size_classes_round_up() {
        assert_eq!(WirePool::class_of(0), Some(0));
        assert_eq!(WirePool::class_of(64), Some(0));
        assert_eq!(WirePool::class_of(65), Some(1));
        assert_eq!(WirePool::class_of(1024), Some(4));
        assert_eq!(WirePool::class_of(MAX_CLASS_BYTES), Some(NUM_CLASSES - 1));
        assert_eq!(WirePool::class_of(MAX_CLASS_BYTES + 1), None);
    }

    #[test]
    fn take_put_take_hits() {
        let p = pool();
        let b = WirePool::take(&p, 100);
        assert!(b.capacity() >= 100);
        drop(b); // returns to pool
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.bytes_recycled, 128);
        assert_eq!(s.retained_bytes, 128);

        let b2 = WirePool::take(&p, 90); // same class -> hit
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.retained_bytes, 0);
        drop(b2);
    }

    #[test]
    fn oversize_requests_bypass_pool() {
        let p = pool();
        let b = WirePool::take(&p, MAX_CLASS_BYTES + 1);
        assert!(b.pool.is_none());
        drop(b);
        assert_eq!(p.stats().retained_bytes, 0);
    }

    #[test]
    fn class_cap_bounds_residency() {
        let p = pool();
        let bufs: Vec<PooledBuf> = (0..MAX_BUFS_PER_CLASS + 10)
            .map(|_| WirePool::take(&p, 64))
            .collect();
        drop(bufs);
        let s = p.stats();
        assert_eq!(s.retained_bytes, (MAX_BUFS_PER_CLASS * 64) as u64);
        assert_eq!(s.dropped, 10);
    }

    #[test]
    fn into_vec_detaches() {
        let p = pool();
        let mut b = WirePool::take(&p, 10);
        b.extend_from_slice(&[1, 2, 3]);
        let v = b.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(p.stats().retained_bytes, 0, "detached buffer not recycled");
    }

    #[test]
    fn retarget_moves_return_destination() {
        let p1 = pool();
        let p2 = pool();
        let mut b = WirePool::take(&p1, 64);
        b.retarget(&p2);
        drop(b);
        assert_eq!(p1.stats().retained_bytes, 0);
        assert_eq!(p2.stats().retained_bytes, 64);
    }

    #[test]
    fn unpooled_from_vec_never_recycles() {
        let b = PooledBuf::from(vec![9u8; 32]);
        assert_eq!(b, vec![9u8; 32]);
        drop(b); // must not panic or touch any pool
    }

    #[test]
    fn prewarm_makes_takes_hit() {
        let p = pool();
        WirePool::prewarm(&p, &[100, 200, 300]);
        let s0 = p.stats();
        assert_eq!(s0.misses, 3);
        let a = WirePool::take(&p, 100);
        let b = WirePool::take(&p, 200);
        let c = WirePool::take(&p, 300);
        let s = p.stats();
        assert_eq!(s.hits, 3, "prewarmed takes must all hit");
        assert_eq!(s.misses, 3);
        drop((a, b, c));
    }

    #[test]
    fn hit_rate_computation() {
        let s = PoolStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn dirty_buffer_comes_back_empty() {
        let p = pool();
        let mut b = WirePool::take(&p, 64);
        b.extend_from_slice(&[7; 40]);
        drop(b);
        let b2 = WirePool::take(&p, 64);
        assert!(b2.is_empty());
        assert!(b2.capacity() >= 64);
    }
}
