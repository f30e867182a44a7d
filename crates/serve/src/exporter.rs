//! OpenMetrics composition for the cartserve daemon.
//!
//! [`render`] is a **pure function** over plain inputs: the same
//! [`MetricsInputs`] always yields byte-identical text. The live daemon
//! feeds it real counters (wire `METRICS` command and the `GET /metrics`
//! HTTP listener share this path); the golden-file test feeds it fixed
//! values and pins the exact document, so metric names, label sets, and
//! histogram buckets cannot drift silently — renaming a metric means
//! re-blessing the golden and owning the dashboard breakage.
//!
//! Stage histograms come from the per-tenant
//! [`StageDist`](cartcomm_obs::StageDist) log₁₀(ns) histograms; buckets
//! are re-expressed in seconds (the Prometheus convention) as
//! `10^((k+1)·w − 9)` for bin `k` with width `w = 10/STAGE_HIST_BINS`.

use cartcomm::PlanStoreStats;
use cartcomm_obs::openmetrics::OpenMetricsWriter;
use cartcomm_obs::tenant::{STAGE_HIST_BINS, STAGE_NAMES};
use cartcomm_obs::TenantRegistry;

use crate::server::ServerCounters;

/// Everything the exporter reads, as plain values — callers snapshot the
/// live daemon (or fabricate a fixture) and hand it over.
pub struct MetricsInputs<'a> {
    /// Daemon build version (`CARGO_PKG_VERSION`).
    pub version: &'a str,
    /// Seconds since daemon start.
    pub uptime_seconds: f64,
    /// Lifetime job/batch counters.
    pub counters: ServerCounters,
    /// Jobs admitted but not yet dispatched.
    pub queue_depth: usize,
    /// Whether the daemon is refusing new submissions.
    pub draining: bool,
    /// Process-wide plan-store traffic.
    pub plan_store: PlanStoreStats,
    /// Whether an attach-profiling session is live.
    pub profile_active: bool,
    /// Ring sinks currently attached to rank `Obs` handles.
    pub profile_sinks_installed: u64,
    /// Per-tenant observed-vs-predicted totals and stage histograms.
    pub tenants: &'a TenantRegistry,
}

/// The upper edge, in seconds, of log₁₀(ns) histogram bin `k`.
fn bucket_le_seconds(k: usize) -> f64 {
    let w = 10.0 / STAGE_HIST_BINS as f64;
    10f64.powf((k as f64 + 1.0) * w - 9.0)
}

/// Render the full OpenMetrics document. Families appear in a fixed
/// order; tenant rows follow registry insertion order (first job wins).
pub fn render(i: &MetricsInputs) -> String {
    let mut w = OpenMetricsWriter::new();

    w.gauge(
        "cartserve_build_info",
        "Daemon build metadata (value is always 1).",
        &[(&[("version", i.version)], 1.0)],
    );
    w.gauge(
        "cartserve_uptime_seconds",
        "Seconds since the daemon started.",
        &[(&[], i.uptime_seconds)],
    );

    let c = i.counters;
    w.counter(
        "cartserve_jobs_submitted_total",
        "Jobs admitted to the queue.",
        &[(&[], c.jobs_submitted as f64)],
    );
    w.counter(
        "cartserve_jobs_rejected_total",
        "Jobs refused with BUSY (queue full).",
        &[(&[], c.jobs_rejected as f64)],
    );
    w.counter(
        "cartserve_jobs_drained_total",
        "Jobs refused because the daemon was draining.",
        &[(&[], c.jobs_drained as f64)],
    );
    w.counter(
        "cartserve_jobs_completed_total",
        "Jobs whose result (or error) was sent.",
        &[(&[], c.jobs_completed as f64)],
    );
    w.counter(
        "cartserve_batches_executed_total",
        "Batches executed on a resident universe.",
        &[(&[], c.batches_executed as f64)],
    );
    w.counter(
        "cartserve_jobs_coalesced_total",
        "Jobs that rode an existing batch (members beyond the first).",
        &[(&[], c.jobs_coalesced as f64)],
    );

    w.gauge(
        "cartserve_queue_depth",
        "Jobs admitted but not yet dispatched.",
        &[(&[], i.queue_depth as f64)],
    );
    w.gauge(
        "cartserve_draining",
        "1 while the daemon refuses new submissions.",
        &[(&[], if i.draining { 1.0 } else { 0.0 })],
    );

    let s = i.plan_store;
    w.counter(
        "cartserve_plan_store_hits_total",
        "Compiled-program cache hits in the process-wide plan store.",
        &[(&[], s.hits as f64)],
    );
    w.counter(
        "cartserve_plan_store_misses_total",
        "Compiled-program cache misses in the process-wide plan store.",
        &[(&[], s.misses as f64)],
    );
    w.counter(
        "cartserve_plan_store_evictions_total",
        "Plan-store evictions.",
        &[(&[], s.evictions as f64)],
    );
    w.counter(
        "cartserve_plan_store_schedule_hits_total",
        "Schedule cache hits in the process-wide plan store.",
        &[(&[], s.schedule_hits as f64)],
    );
    w.counter(
        "cartserve_plan_store_schedule_misses_total",
        "Schedule cache misses in the process-wide plan store.",
        &[(&[], s.schedule_misses as f64)],
    );

    w.gauge(
        "cartserve_profile_active",
        "1 while an attach-profiling session is live.",
        &[(&[], if i.profile_active { 1.0 } else { 0.0 })],
    );
    w.gauge(
        "cartserve_profile_sinks_installed",
        "Ring sinks currently attached to rank Obs handles.",
        &[(&[], i.profile_sinks_installed as f64)],
    );

    // Per-tenant observed-vs-predicted totals: C (Prop. 3.2) and wire
    // bytes V·m (Prop. 3.3), observed next to predicted per tenant.
    let tenants = i.tenants.all();
    type TenantValue = dyn Fn(&cartcomm_obs::TenantStats) -> f64;
    let rows = |f: &TenantValue| -> Vec<(Vec<(&str, &str)>, f64)> {
        tenants
            .iter()
            .map(|(name, st)| (vec![("tenant", name.as_str())], f(st)))
            .collect()
    };
    let families: [(&str, &str, &TenantValue); 5] = [
        (
            "cartserve_tenant_jobs_total",
            "Per-rank job executions attributed to this tenant.",
            &|st| st.jobs as f64,
        ),
        (
            "cartserve_tenant_rounds_observed_total",
            "Communication rounds observed for this tenant.",
            &|st| st.observed_rounds() as f64,
        ),
        (
            "cartserve_tenant_rounds_predicted_total",
            "Analytical round count C (Prop. 3.2) summed over jobs.",
            &|st| st.predicted_rounds as f64,
        ),
        (
            "cartserve_tenant_wire_bytes_observed_total",
            "Wire bytes observed for this tenant.",
            &|st| st.observed_wire_bytes() as f64,
        ),
        (
            "cartserve_tenant_wire_bytes_predicted_total",
            "Analytical wire volume V*m (Prop. 3.3) summed over jobs.",
            &|st| st.predicted_wire_bytes as f64,
        ),
    ];
    for (name, help, f) in families {
        let owned = rows(f);
        let borrowed: Vec<(&[(&str, &str)], f64)> =
            owned.iter().map(|(l, v)| (l.as_slice(), *v)).collect();
        w.counter(name, help, &borrowed);
    }

    // Per-tenant, per-stage latency histograms in seconds.
    w.histogram_header(
        "cartserve_job_stage_seconds",
        "Request-lifecycle stage latency (queue/coalesce/execute/reply).",
    );
    for (tenant, stages) in i.tenants.all_stages() {
        for (stage_idx, dist) in stages.iter().enumerate() {
            let counts = dist.hist.counts();
            let (underflow, _overflow) = dist.hist.out_of_range();
            let mut cum = underflow as u64;
            let buckets: Vec<(f64, u64)> = counts
                .iter()
                .enumerate()
                .map(|(k, &n)| {
                    cum += n as u64;
                    (bucket_le_seconds(k), cum)
                })
                .collect();
            w.histogram_series(
                "cartserve_job_stage_seconds",
                &[
                    ("tenant", tenant.as_str()),
                    ("stage", STAGE_NAMES[stage_idx]),
                ],
                &buckets,
                dist.sum_ns as f64 / 1e9,
                dist.hist.total() as u64,
            );
        }
    }

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_span_ns_to_seconds() {
        // Bin 0 tops out at ~3.16 ns, the last bin at 10 s (log10(ns) in
        // [0, 10) over STAGE_HIST_BINS bins).
        assert!((bucket_le_seconds(0) - 10f64.powf(-8.5)).abs() < 1e-18);
        assert!((bucket_le_seconds(STAGE_HIST_BINS - 1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_deterministic_and_sealed() {
        let tenants = TenantRegistry::new();
        let inputs = MetricsInputs {
            version: "1.2.3",
            uptime_seconds: 42.0,
            counters: ServerCounters::default(),
            queue_depth: 3,
            draining: false,
            plan_store: PlanStoreStats::default(),
            profile_active: true,
            profile_sinks_installed: 4,
            tenants: &tenants,
        };
        let a = render(&inputs);
        let b = render(&inputs);
        assert_eq!(a, b);
        assert!(a.ends_with("# EOF\n"));
        assert!(a.contains("cartserve_build_info{version=\"1.2.3\"} 1\n"));
        assert!(a.contains("cartserve_queue_depth 3\n"));
        assert!(a.contains("cartserve_profile_active 1\n"));
    }
}
