//! The benchmark's fixed shape: the six workloads, the gated end-to-end
//! metrics and the per-layer metrics, each with its unit. `BENCHMARK.json`
//! at the repository root is generated from these tables
//! (`cartbench manifest`) and a unit test keeps the two equal.

use crate::json::Json;

/// Every workload runs on a 2×2×2 periodic torus with the 3-D Moore
/// radius-1 neighborhood: p = 8 rank threads, t = 26, C = 6, V = 54.
pub const DIMS: [usize; 3] = [2, 2, 2];
pub const RANKS: usize = 8;
pub const T: usize = 26;
pub const C: usize = 6;
pub const V: usize = 54;

/// Interior edge of the halo tile; the tile with ghosts is `(N+2)³` f64.
pub const HALO_N: usize = 64;

/// Client connections of the serve workloads.
pub const SERVE_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Persistent `alltoall_init::<i32>(m_elems, algo)`.
    A2a { m_elems: usize, trivial: bool },
    /// 27-point halo of a 66³ f64 tile through one `alltoallw_init`.
    Halo,
    /// Persistent `allreduce_init::<i32>(Sum, m_elems, Combining)`.
    Allreduce { m_elems: usize },
    /// `Alltoallv` jobs of `count` i32 per block through a live server.
    Serve { count: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "a2a_small",
        kind: Kind::A2a { m_elems: 4, trivial: false },
        why: "16 B blocks in 6 combined rounds: per-round cost (comm fabric, wake-ups, executor overhead) is everything, pack kernels almost nothing",
    },
    Workload {
        name: "a2a_trivial",
        kind: Kind::A2a { m_elems: 4, trivial: true },
        why: "same buffers in 26 single-block rounds: the same comm layer used per message, so a gain for combined rounds that taxes each message shows here",
    },
    Workload {
        name: "halo3d_w",
        kind: Kind::Halo,
        why: "27-point halo of a 66^3 f64 tile via 26 subarray datatypes: flattening, small-span kernels and temp-buffer forwarding do the work, rounds stay 6",
    },
    Workload {
        name: "allreduce_large",
        kind: Kind::Allreduce { m_elems: 8192 },
        why: "32 KiB blocks folded along the reversed tree: receives accumulate instead of assign, so it guards the reduce kernels and their executor path",
    },
    Workload {
        name: "serve_small",
        kind: Kind::Serve { count: 4 },
        why: "3.25 KiB jobs from 2 closed-loop clients through a live cartserve socket: queue, the 2 ms coalescing window, dispatch and reply dominate",
    },
    Workload {
        name: "serve_bulk",
        kind: Kind::Serve { count: 512 },
        why: "416 KiB jobs through the same socket: socket read, decode, payload slicing, pack and reply copies dominate, so zero-copy ingestion must show here",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

impl EndToEnd {
    pub fn better(&self) -> &'static str {
        if self.lower_is_better {
            "lower"
        } else {
            "higher"
        }
    }
}

/// `failed_share` is not in this table: it must stay 0 and the gate takes
/// no metric that is 0, so failures travel as the `failed` / `attempted`
/// counts of every result line and as `bench.failed_share` below.
///
/// The pipeline refuses a benchmark whose own ten-seed spread exceeds a
/// bound. On the reference box that spread reached 0.19 on the timed
/// metrics of `halo3d_w` and 0.14 on its `setup_s` with nothing changed
/// (README, *Why these bounds*), which is what keeps those three at the
/// largest bound the pipeline takes; memory repeats within 0.04.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_us_p50",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_MB",
        unit: "MB",
        lower_is_better: true,
        bound: 0.10,
    },
];

/// `(name, unit)` of every per-layer metric; the layer is the crate name
/// before the first dot (`bench` and `model` are the benchmark's own).
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("topo.build_us", "us"),
    ("cartesian.plan_alltoall_us", "us"),
    ("cartesian.plan_allreduce_us", "us"),
    ("cartesian.create_us", "us"),
    ("cartesian.init_cold_us", "us"),
    ("cartesian.init_warm_us", "us"),
    ("cartesian.rounds_per_op", "count"),
    ("cartesian.wire_bytes_per_op", "count"),
    ("cartesian.round_us_p50", "us"),
    ("cartesian.round_sum_over_op", "ratio"),
    ("types.gather_ns_per_byte_small", "ns/B"),
    ("types.gather_ns_per_byte_halo", "ns/B"),
    ("types.gather_ns_per_byte_bulk", "ns/B"),
    ("types.scatter_ns_per_byte_halo", "ns/B"),
    ("types.accumulate_ns_per_byte", "ns/B"),
    ("types.flatten_us", "us"),
    ("types.pack_spans_per_op", "count"),
    ("types.pack_bytes_per_op", "count"),
    ("types.copies_per_byte", "ratio"),
    ("types.pack_share_est", "ratio"),
    ("comm.launch_us", "us"),
    ("comm.pingpong_us_16B", "us"),
    ("comm.pingpong_us_32KiB", "us"),
    ("comm.sendrecv_us_p8", "us"),
    ("comm.barrier_us_p8", "us"),
    ("comm.msgs_per_op", "count"),
    ("comm.exchanges_per_op", "count"),
    ("comm.pool_hit_rate", "ratio"),
    ("comm.pool_take_ns", "ns"),
    ("comm.op_us_p50_shm", "us"),
    ("comm.op_us_p50_uds", "us"),
    ("comm.op_us_p50_tcp", "us"),
    ("serve.ping_rtt_us", "us"),
    ("serve.ping_rtt_us_bulk", "us"),
    ("serve.encode_ns_per_byte", "ns/B"),
    ("serve.decode_ns_per_byte", "ns/B"),
    ("serve.stage_queue_us", "us"),
    ("serve.stage_coalesce_us", "us"),
    ("serve.stage_execute_us", "us"),
    ("serve.stage_reply_us", "us"),
    ("serve.client_residual_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.coalesced_share", "fraction"),
    ("serve.busy_share", "fraction"),
    ("serve.plan_hit_share", "fraction"),
    ("serve.over_direct_ratio", "ratio"),
    ("obs.traced_over_untraced", "ratio"),
    ("obs.ring_drops", "count"),
    ("model.alpha_us", "us"),
    ("model.beta_ns_per_byte", "ns/B"),
    ("model.mstar_pred_bytes", "B"),
    ("model.crossover_obs_bytes", "B"),
    ("bench.trivial_over_combining", "ratio"),
    ("bench.op_us_mean", "us"),
    ("bench.op_us_p90", "us"),
    ("bench.op_us_p99", "us"),
    ("bench.op_us_max", "us"),
    ("bench.samples", "count"),
    ("bench.window_spread", "fraction"),
    ("bench.rank_skew_us_p50", "us"),
    ("bench.cpu_s_per_op", "s"),
    ("bench.sys_share", "fraction"),
    ("bench.ctx_switches_per_op", "count"),
    ("bench.failed_share", "fraction"),
    ("bench.untraced_op_us_p50", "us"),
    ("bench.traced_op_us_p50", "us"),
    ("serve.direct_op_us_p50", "us"),
    ("cartesian.executor_non_round_share", "fraction"),
    ("cartesian.round_pairs_outside_op", "fraction"),
];

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(per_layer_better(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: f64 = 10.0;

/// Direction of a per-layer metric: rates of useful outcomes read better
/// higher, every time, count of work and cost ratio reads better lower.
fn per_layer_better(name: &str) -> &'static str {
    const HIGHER: [&str; 5] = [
        "comm.pool_hit_rate",
        "serve.batch_size_mean",
        "serve.coalesced_share",
        "serve.plan_hit_share",
        "bench.samples",
    ];
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_and_unit_and_is_named_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (name, unit) in &PER_LAYER {
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), manifest());
        assert!(text.len() <= 64 * 1024);
    }
}
