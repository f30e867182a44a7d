//! Per-tenant attribution of collective traffic — the observability side
//! of serving many clients from one resident process.
//!
//! A serving layer (`cartserve`) executes jobs from independent tenants
//! on shared rank threads. Each rank's [`MetricsRegistry`](crate::MetricsRegistry)
//! keeps counting globally; what serving adds is *attribution*: scope the
//! counters of each job execution as a [`MetricsDelta`] and fold it into
//! that tenant's [`TenantStats`] here, together with the schedule's
//! analytical predictions (`C` rounds per rank, Prop. 3.2; `V·m` wire
//! bytes per rank, Prop. 3.3). The registry then renders the
//! observed-vs-predicted C/V table per tenant — the same accounting the
//! profiler reports per run, aggregated per client instead.
//!
//! The registry is shared across rank threads and the server's control
//! plane, so it is internally synchronized; tenants are kept in first-seen
//! order for stable rendering.

use cartcomm_stats::Histogram;
use parking_lot::Mutex;

use crate::json::JsonWriter;
use crate::metrics::{MetricsDelta, MetricsSnapshot};

/// Number of serving-layer lifecycle stages with per-tenant latency
/// distributions: queue wait, coalesce delay, execute, reply.
pub const STAGE_COUNT: usize = 4;

/// Stable stage names, in stamp order — drives exporter labels.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = ["queue", "coalesce", "execute", "reply"];

/// Bins of each stage histogram (log10 of nanoseconds over `[0, 10)`,
/// i.e. 1 ns .. 10 s in half-decade steps).
pub const STAGE_HIST_BINS: usize = 20;

/// One lifecycle stage's latency distribution for one tenant: a log10-ns
/// histogram plus the exact nanosecond sum for mean/rate math.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDist {
    /// `log10(duration_ns)` histogram over `[0, 10)` with
    /// [`STAGE_HIST_BINS`] bins.
    pub hist: Histogram,
    /// Exact sum of recorded durations, ns.
    pub sum_ns: u64,
}

impl StageDist {
    fn new() -> Self {
        StageDist {
            hist: Histogram::new(0.0, 10.0, STAGE_HIST_BINS),
            sum_ns: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        self.hist.add((ns.max(1) as f64).log10());
        self.sum_ns += ns;
    }
}

impl Default for StageDist {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Default)]
struct TenantEntry {
    stats: TenantStats,
    stages: [StageDist; STAGE_COUNT],
}

/// Accumulated traffic and predictions for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Job executions recorded (rank-jobs: one collective on one rank).
    pub jobs: u64,
    /// Analytical round count summed over recorded jobs (`Σ C`).
    pub predicted_rounds: u64,
    /// Analytical wire volume summed over recorded jobs (`Σ V·m` bytes).
    pub predicted_wire_bytes: u64,
    /// Field-wise sum of the recorded per-job metric deltas.
    pub totals: MetricsSnapshot,
}

impl TenantStats {
    /// Observed rounds (`C`): completed communication rounds.
    pub fn observed_rounds(&self) -> u64 {
        self.totals.rounds_completed
    }

    /// Observed wire volume (`V·m`): payload bytes deposited on the wire.
    pub fn observed_wire_bytes(&self) -> u64 {
        self.totals.wire_bytes_sent
    }

    /// Whether observation matches prediction exactly — fault-free
    /// combining executions satisfy this; trivial or faulty runs may not.
    pub fn matches_prediction(&self) -> bool {
        self.observed_rounds() == self.predicted_rounds
            && self.observed_wire_bytes() == self.predicted_wire_bytes
    }
}

/// Named per-tenant accumulation of job deltas and schedule predictions.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    /// First-seen-ordered, so reports are stable across runs.
    tenants: Mutex<Vec<(String, TenantEntry)>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_entry<R>(&self, tenant: &str, f: impl FnOnce(&mut TenantEntry) -> R) -> R {
        let mut tenants = self.tenants.lock();
        let entry = match tenants.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, entry)) => entry,
            None => {
                tenants.push((tenant.to_string(), TenantEntry::default()));
                &mut tenants.last_mut().expect("just pushed").1
            }
        };
        f(entry)
    }

    /// Fold one job execution into `tenant`'s stats: the job's scoped
    /// counter traffic plus the schedule's analytical `C` (rounds) and
    /// `V·m` (wire bytes) for that execution. Creates the tenant on first
    /// use.
    pub fn record_job(
        &self,
        tenant: &str,
        predicted_rounds: u64,
        predicted_wire_bytes: u64,
        delta: &MetricsDelta,
    ) {
        self.with_entry(tenant, |entry| {
            entry.stats.jobs += 1;
            entry.stats.predicted_rounds += predicted_rounds;
            entry.stats.predicted_wire_bytes += predicted_wire_bytes;
            entry.stats.totals += **delta;
        });
    }

    /// Fold one job's lifecycle-stage durations (queue wait, coalesce
    /// delay, execute, reply — [`STAGE_NAMES`] order, ns) into `tenant`'s
    /// stage distributions. Creates the tenant on first use.
    pub fn record_stages(&self, tenant: &str, stage_ns: [u64; STAGE_COUNT]) {
        self.with_entry(tenant, |entry| {
            for (dist, ns) in entry.stages.iter_mut().zip(stage_ns) {
                dist.record(ns);
            }
        });
    }

    /// The stats for one tenant, if it has recorded any job.
    pub fn stats(&self, tenant: &str) -> Option<TenantStats> {
        self.tenants
            .lock()
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, entry)| entry.stats)
    }

    /// One tenant's per-stage latency distributions ([`STAGE_NAMES`]
    /// order), if the tenant exists.
    pub fn stages(&self, tenant: &str) -> Option<[StageDist; STAGE_COUNT]> {
        self.tenants
            .lock()
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, entry)| entry.stages.clone())
    }

    /// All tenants with their stats, in first-seen order.
    pub fn all(&self) -> Vec<(String, TenantStats)> {
        self.tenants
            .lock()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.stats))
            .collect()
    }

    /// All tenants with their per-stage latency distributions, in
    /// first-seen order — the exporter's histogram source.
    pub fn all_stages(&self) -> Vec<(String, [StageDist; STAGE_COUNT])> {
        self.tenants
            .lock()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.stages.clone()))
            .collect()
    }

    /// Number of tenants seen.
    pub fn len(&self) -> usize {
        self.tenants.lock().len()
    }

    /// True when no tenant has recorded a job yet.
    pub fn is_empty(&self) -> bool {
        self.tenants.lock().is_empty()
    }

    /// The observed-vs-predicted C/V table, one row per tenant:
    ///
    /// ```text
    /// tenant      jobs   C obs   C pred   V obs (B)   V pred (B)   plan hit/miss
    /// ```
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>6} {:>8} {:>8} {:>12} {:>12} {:>14}\n",
            "tenant", "jobs", "C obs", "C pred", "V obs (B)", "V pred (B)", "plan hit/miss"
        ));
        for (name, s) in self.all() {
            out.push_str(&format!(
                "{:<16} {:>6} {:>8} {:>8} {:>12} {:>12} {:>14}\n",
                name,
                s.jobs,
                s.observed_rounds(),
                s.predicted_rounds,
                s.observed_wire_bytes(),
                s.predicted_wire_bytes,
                format!(
                    "{}/{}",
                    s.totals.plan_cache_hits, s.totals.plan_cache_misses
                ),
            ));
        }
        out
    }

    /// The table as a JSON array of per-tenant objects (the wire `stats`
    /// reply of the serving layer).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.arr();
        for (name, s) in self.all() {
            w.obj().key("tenant").str(&name).key("jobs").raw(s.jobs);
            w.key("observed_rounds").raw(s.observed_rounds());
            w.key("predicted_rounds").raw(s.predicted_rounds);
            w.key("observed_wire_bytes").raw(s.observed_wire_bytes());
            w.key("predicted_wire_bytes").raw(s.predicted_wire_bytes);
            w.key("plan_cache_hits").raw(s.totals.plan_cache_hits);
            w.key("plan_cache_misses").raw(s.totals.plan_cache_misses);
            w.key("metrics").raw(s.totals.to_json()).end();
        }
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn delta_of(rounds: u64, bytes: usize, hits: u64) -> MetricsDelta {
        let m = MetricsRegistry::new();
        let before = m.snapshot();
        for _ in 0..rounds {
            m.round_started();
            m.round_completed();
        }
        m.add_wire_sent(bytes);
        for _ in 0..hits {
            m.plan_cache_hit();
        }
        m.delta_since(&before)
    }

    #[test]
    fn records_fold_per_tenant() {
        let reg = TenantRegistry::new();
        reg.record_job("a", 4, 100, &delta_of(4, 100, 0));
        reg.record_job("a", 4, 100, &delta_of(4, 100, 1));
        reg.record_job("b", 6, 64, &delta_of(7, 70, 0));
        assert_eq!(reg.len(), 2);

        let a = reg.stats("a").unwrap();
        assert_eq!(a.jobs, 2);
        assert_eq!(a.observed_rounds(), 8);
        assert_eq!(a.predicted_rounds, 8);
        assert_eq!(a.observed_wire_bytes(), 200);
        assert_eq!(a.totals.plan_cache_hits, 1);
        assert!(a.matches_prediction());

        let b = reg.stats("b").unwrap();
        assert!(!b.matches_prediction(), "b observed more than predicted");
        assert!(reg.stats("c").is_none());
    }

    #[test]
    fn stage_durations_accumulate_per_tenant() {
        let reg = TenantRegistry::new();
        reg.record_stages("a", [1_000, 10, 2_000_000, 500]);
        reg.record_stages("a", [3_000, 20, 4_000_000, 700]);
        reg.record_stages("b", [1, 1, 1, 1]);

        let a = reg.stages("a").unwrap();
        assert_eq!(a[0].hist.total(), 2);
        assert_eq!(a[0].sum_ns, 4_000);
        assert_eq!(a[2].sum_ns, 6_000_000);
        let b = reg.stages("b").unwrap();
        assert_eq!(b[3].hist.total(), 1);
        assert!(reg.stages("c").is_none());

        // Stage-only tenants exist in the registry with zero job stats.
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats("b").unwrap().jobs, 0);

        let all = reg.all_stages();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "a");
        assert_eq!(STAGE_NAMES.len(), STAGE_COUNT);
    }

    #[test]
    fn table_and_json_render_all_tenants_in_order() {
        let reg = TenantRegistry::new();
        reg.record_job("zeta", 1, 8, &delta_of(1, 8, 0));
        reg.record_job("alpha", 2, 16, &delta_of(2, 16, 0));
        let table = reg.render_table();
        let zeta_at = table.find("zeta").unwrap();
        let alpha_at = table.find("alpha").unwrap();
        assert!(zeta_at < alpha_at, "first-seen order, not alphabetical");
        assert_eq!(table.lines().count(), 3);

        let json = reg.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"tenant\":\"zeta\""));
        assert!(json.contains("\"predicted_rounds\":2"));
        assert!(json.contains("\"metrics\":{"));
    }
}
