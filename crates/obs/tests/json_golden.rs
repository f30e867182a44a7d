//! Golden files for the JSON documents this crate puts on a wire:
//! `MetricsSnapshot::to_json` and `TenantRegistry::to_json`, on fixed
//! inputs, byte for byte (the Perfetto export has `perfetto_golden.rs`).
//! Each golden must also read back through `cartcomm_obs::json::parse`.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p cartcomm-obs --test json_golden
//! ```

use cartcomm_obs::{MetricsDelta, MetricsSnapshot, TenantRegistry};

fn check(name: &str, rendered: &str) {
    cartcomm_obs::json::parse(rendered).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with BLESS_GOLDEN=1 to create it");
    assert_eq!(rendered, golden, "{name} drifted from its golden file");
}

fn snapshot(base: u64) -> MetricsSnapshot {
    MetricsSnapshot {
        rounds_started: base + 1,
        rounds_completed: base + 2,
        wire_bytes_sent: base + 3,
        wire_bytes_recv: base + 4,
        exchanges: base + 5,
        msgs_matched: base + 6,
        recv_parks: base + 7,
        pack_spans: base + 8,
        pack_bytes: base + 9,
        pool_hits: base + 10,
        pool_misses: base + 11,
        plan_cache_hits: base + 12,
        plan_cache_misses: base + 13,
        faults_injected: base + 14,
        retransmits: base + 15,
        dup_drops: u64::MAX,
    }
}

#[test]
fn metrics_snapshot() {
    check("metrics.json", &snapshot(100).to_json());
}

#[test]
fn tenant_registry() {
    let reg = TenantRegistry::new();
    reg.record_job("acme", 8, 1024, &MetricsDelta(snapshot(0)));
    reg.record_job("acme", 8, 1024, &MetricsDelta(snapshot(1000)));
    reg.record_job(
        "t\tab\nline\"quote\\slash",
        4,
        256,
        &MetricsDelta(snapshot(7)),
    );
    reg.record_job("zürich → 東京", 6, 0, &MetricsDelta::default());
    check("tenants.json", &reg.to_json());
    check("tenants_empty.json", &TenantRegistry::new().to_json());
}
