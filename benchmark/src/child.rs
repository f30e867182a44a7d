//! The measuring side: `cartbench child ...` runs one window (or one set
//! of probes) in a fresh process and prints its metrics as one JSON line.
//! A fresh process per window means a cold process-wide `PlanStore` and an
//! honest `VmHWM` every time.

use std::collections::BTreeMap;
use std::path::Path;

use cartcomm_comm::TransportKind;

use crate::cli::Args;
use crate::host::ProcessUsage;
use crate::json::Json;
use crate::spec::{self, Kind};
use crate::stats::{mean, percentile, sorted};
use crate::{probes, serve, trace, universe};

/// Metric name → value, as a child reports it.
pub type Metrics = BTreeMap<String, f64>;

/// Where windows put sockets, fabric files and traces: inside the
/// checkout, relative to the repository root the benchmark runs from.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase.
    pub secs: f64,
    pub warmup: f64,
    /// Stop after the first verified operation: a `setup_s` sample.
    pub setup_only: bool,
    /// Span recorder and ring sinks on.
    pub traced: bool,
    /// Flip one byte of the expected buffers (`--self-test-corrupt`).
    pub corrupt: bool,
    pub transport: TransportKind,
}

/// Latency statistics of one window's samples, in µs.
pub fn latency_metrics(m: &mut Metrics, samples: &[f64]) {
    let ordered = sorted(samples);
    m.insert("op_us_p50".into(), percentile(&ordered, 0.5));
    m.insert("bench.op_us_mean".into(), mean(samples));
    m.insert("bench.op_us_p90".into(), percentile(&ordered, 0.9));
    m.insert("bench.op_us_p99".into(), percentile(&ordered, 0.99));
    m.insert("bench.op_us_max".into(), ordered[ordered.len() - 1]);
    m.insert("bench.samples".into(), samples.len() as f64);
}

/// What the process spent over the timed phase, per operation.
pub fn process_metrics(m: &mut Metrics, used: &ProcessUsage, ops: f64) {
    let cpu = used.user_s + used.system_s;
    m.insert("bench.cpu_s_per_op".into(), cpu / ops);
    let sys_share = if cpu > 0.0 { used.system_s / cpu } else { 0.0 };
    m.insert("bench.sys_share".into(), sys_share);
    m.insert("bench.ctx_switches_per_op".into(), used.switches / ops);
}

pub fn main(args: &Args) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use --release".into());
    }
    let metrics = if args.flag("probes") {
        probes::run(args.num("seed", 1.0) as u64)
    } else {
        let name = args.value("workload").ok_or("child needs --workload")?;
        let mut kind = spec::workload(name)
            .ok_or(format!("unknown workload {name}"))?
            .kind;
        // The model sweep and the transport matrix reuse the alltoall
        // window with another block size, algorithm or carrier.
        if let Kind::A2a { m_elems, trivial } = &mut kind {
            *m_elems = args.num("m-elems", *m_elems as f64) as usize;
            *trivial = args.value("algo").map_or(*trivial, |a| a == "trivial");
        }
        let opts = Opts {
            seed: args.num("seed", 1.0) as u64,
            secs: args.num("secs", 1.0),
            warmup: args.num("warmup", 0.5),
            setup_only: args.flag("setup-only"),
            traced: args.flag("traced"),
            corrupt: args.flag("corrupt"),
            transport: {
                let name = args.value("transport").unwrap_or("inproc");
                TransportKind::parse(name).ok_or(format!("unknown transport {name}"))?
            },
        };
        let (mut metrics, spans) = match kind {
            Kind::Serve { count } => serve::run(count, &opts),
            _ => universe::run(kind, &opts),
        };
        if opts.setup_only {
            // Memory is a property of whole windows.
            metrics.remove("peak_rss_MB");
        }
        if opts.traced {
            let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
            std::fs::write(&path, trace::to_json(&spans).to_string())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        metrics
    };
    println!(
        "{}",
        Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v))))
    );
    Ok(())
}
