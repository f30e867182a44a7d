//! Golden-file test for the Perfetto (Chrome trace-event) export.
//!
//! The fixture is a hand-built two-rank trace exercising every event class
//! the exporter emits: metadata tracks, `X` slices, `s`/`f` flow arrows,
//! and cumulative pool / plan-cache counter tracks. The rendered JSON must match
//! `tests/golden/perfetto_2rank.json` byte for byte.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p cartcomm-obs --test perfetto_golden
//! ```

use cartcomm_obs::{PerfettoExport, TraceCollector, TraceEvent, TraceRecord};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/perfetto_2rank.json")
}

/// Two ranks, three wires, plus pool and
/// plan-cache traffic on rank 0. All timestamps are hand-picked so the
/// fixed-point microsecond rendering covers the sub-µs, exact-µs, and
/// multi-µs cases.
fn fixture() -> Vec<Vec<TraceRecord>> {
    let start = |phase, round, to, wire_bytes, attempt| TraceEvent::RoundStart {
        phase,
        round,
        to,
        from: to,
        wire_bytes,
        attempt,
    };
    let end = |phase, round, from, wire_bytes, attempt| TraceEvent::RoundEnd {
        phase,
        round,
        to: from,
        from,
        wire_bytes,
        attempt,
    };
    vec![
        vec![
            TraceRecord {
                t_ns: 0,
                rank: 0,
                event: TraceEvent::PlanCacheMiss {
                    fingerprint: 0xabcd,
                },
            },
            TraceRecord {
                t_ns: 500,
                rank: 0,
                event: start(0, 0, 1, 256, 0),
            },
            TraceRecord {
                t_ns: 700,
                rank: 0,
                event: TraceEvent::PoolHit { bytes: 256 },
            },
            TraceRecord {
                t_ns: 4_000,
                rank: 0,
                event: start(1, 0, 1, 64, 0),
            },
            TraceRecord {
                t_ns: 6_100,
                rank: 0,
                event: TraceEvent::PoolMiss { bytes: 64 },
            },
        ],
        vec![
            TraceRecord {
                t_ns: 100,
                rank: 1,
                event: TraceEvent::PlanCacheHit {
                    fingerprint: 0xabcd,
                },
            },
            TraceRecord {
                t_ns: 2_500,
                rank: 1,
                event: end(0, 0, 0, 256, 0),
            },
            TraceRecord {
                t_ns: 3_000,
                rank: 1,
                event: start(0, 1, 0, 128, 0),
            },
            TraceRecord {
                t_ns: 8_000,
                rank: 1,
                event: end(1, 0, 0, 64, 0),
            },
        ],
    ]
}

/// Rank 1's phase-0 round-1 wire lands on rank 0; complete the pairing so
/// the fixture has no unpaired nodes.
fn fixture_complete() -> Vec<Vec<TraceRecord>> {
    let mut recs = fixture();
    recs[0].push(TraceRecord {
        t_ns: 5_000,
        rank: 0,
        event: TraceEvent::RoundEnd {
            phase: 0,
            round: 1,
            to: 1,
            from: 1,
            wire_bytes: 128,
            attempt: 0,
        },
    });
    recs
}

fn render() -> String {
    let records = fixture_complete();
    let dag = TraceCollector::from_ranks(records.clone()).build();
    assert_eq!(dag.unpaired_starts, 0, "fixture must pair fully");
    assert_eq!(dag.unpaired_ends, 0);
    PerfettoExport::new(&dag)
        .with_counters(&records)
        .with_process_name("golden")
        .to_json()
}

#[test]
fn export_matches_golden_file() {
    let json = render();
    let path = golden_path();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        json, golden,
        "Perfetto export drifted from tests/golden/perfetto_2rank.json; \
         if intentional, re-bless with BLESS_GOLDEN=1"
    );
}

/// Structural validation against the trace-event schema, independent of
/// the golden bytes: framing, required keys per phase type, balanced
/// braces, and flow `s`/`f` pairing.
#[test]
fn export_satisfies_trace_event_schema() {
    let json = render();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"));
    assert!(json.ends_with("\n]}\n"));
    assert_eq!(
        json.chars().filter(|&c| c == '{').count(),
        json.chars().filter(|&c| c == '}').count(),
        "balanced braces"
    );

    let body = json
        .strip_prefix("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
        .unwrap()
        .strip_suffix("\n]}\n")
        .unwrap();
    let (mut slices, mut flows_s, mut flows_f) = (0usize, 0usize, 0usize);
    for line in body.lines() {
        let line = line.trim_end_matches(',');
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "one event per line"
        );
        assert!(line.contains("\"ph\":\""), "every event has a phase type");
        assert!(line.contains("\"pid\":1"), "single-process trace");
        if line.contains("\"ph\":\"M\"") {
            assert!(
                line.contains("\"name\":\"process_name\"")
                    || line.contains("\"name\":\"thread_name\"")
            );
        } else {
            assert!(
                line.contains("\"ts\":"),
                "non-metadata events are timestamped"
            );
        }
        if line.contains("\"ph\":\"X\"") {
            slices += 1;
            assert!(line.contains("\"dur\":") && line.contains("\"tid\":"));
        }
        if line.contains("\"ph\":\"s\"") {
            flows_s += 1;
            assert!(line.contains("\"id\":"));
        }
        if line.contains("\"ph\":\"f\"") {
            flows_f += 1;
            assert!(
                line.contains("\"bp\":\"e\""),
                "flow end binds to enclosing slice"
            );
        }
        if line.contains("\"ph\":\"C\"") {
            assert!(line.contains("\"hits\":") && line.contains("\"misses\":"));
        }
    }
    assert_eq!(slices, 3, "three wires in the fixture");
    assert_eq!(flows_s, flows_f, "every flow start has a flow end");
    assert_eq!(flows_s, 3, "all three wires arrived");
}
