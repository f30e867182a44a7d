//! Golden-file test for the cartserve OpenMetrics exporter.
//!
//! The exporter is a pure function over [`MetricsInputs`], so a fixed
//! fixture — two tenants with hand-picked counters and stage durations —
//! must render byte-for-byte the document in
//! `tests/golden/openmetrics.txt`. This pins metric *names*, label sets,
//! histogram bucket edges, and number formatting: renaming any of them is
//! a dashboard-breaking change and must show up as a golden diff.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p cartcomm-serve --test openmetrics_golden
//! ```

use cartcomm::PlanStoreStats;
use cartcomm_obs::{MetricsDelta, MetricsSnapshot, TenantRegistry};
use cartcomm_serve::exporter::{render, MetricsInputs};
use cartcomm_serve::ServerCounters;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/openmetrics.txt")
}

/// A delta whose observed rounds/bytes are exactly the prediction, so the
/// fixture tenants read as clean Prop. 3.2/3.3 matches.
fn clean_delta(rounds: u64, wire_bytes: u64) -> MetricsDelta {
    MetricsDelta(MetricsSnapshot {
        rounds_started: rounds,
        rounds_completed: rounds,
        wire_bytes_sent: wire_bytes,
        wire_bytes_recv: wire_bytes,
        ..MetricsSnapshot::default()
    })
}

fn fixture_tenants() -> TenantRegistry {
    let reg = TenantRegistry::new();
    // Tenant "acme": two jobs of C = 8, V·m = 1024 each, with stage
    // durations spanning the µs-to-ms decades of the histogram.
    reg.record_job("acme", 8, 1024, &clean_delta(8, 1024));
    reg.record_job("acme", 8, 1024, &clean_delta(8, 1024));
    reg.record_stages("acme", [1_000, 50_000, 2_000_000, 10_000]);
    reg.record_stages("acme", [2_000, 80_000, 3_000_000, 12_000]);
    // Tenant "zeta": one job, different shape.
    reg.record_job("zeta", 4, 256, &clean_delta(4, 256));
    reg.record_stages("zeta", [500, 20_000, 900_000, 5_000]);
    reg
}

#[test]
fn exporter_output_matches_golden_file() {
    let tenants = fixture_tenants();
    let inputs = MetricsInputs {
        version: "0.0.0-golden",
        uptime_seconds: 12.5,
        counters: ServerCounters {
            jobs_submitted: 5,
            jobs_rejected: 1,
            jobs_drained: 0,
            jobs_completed: 3,
            batches_executed: 2,
            jobs_coalesced: 1,
        },
        queue_depth: 2,
        draining: false,
        plan_store: PlanStoreStats {
            hits: 10,
            misses: 2,
            evictions: 1,
            schedule_hits: 7,
            schedule_misses: 3,
        },
        profile_active: true,
        profile_sinks_installed: 4,
        tenants: &tenants,
    };
    let text = render(&inputs);

    let path = golden_path();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with BLESS_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "OpenMetrics output drifted from the golden file; if intentional, \
         re-bless with BLESS_GOLDEN=1 and review the diff"
    );
}

#[test]
fn rendering_is_idempotent_over_the_fixture() {
    let tenants = fixture_tenants();
    let mk = || {
        render(&MetricsInputs {
            version: "1.0.0",
            uptime_seconds: 1.0,
            counters: ServerCounters::default(),
            queue_depth: 0,
            draining: true,
            plan_store: PlanStoreStats::default(),
            profile_active: false,
            profile_sinks_installed: 0,
            tenants: &tenants,
        })
    };
    assert_eq!(mk(), mk());
}
