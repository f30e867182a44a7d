//! The orchestrating side: spawns one child process per window, takes
//! medians over windows, assembles the per-layer metrics, and prints.
//! `driver` measures one workload for the pipeline, `run` all six; both
//! go through `collect` and `layers` with one `Protocol`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::{Metrics, OUT_DIR};
use crate::cli::Args;
use crate::host;
use crate::json::Json;
use crate::spec::{self, Kind, Workload, C, END_TO_END, PER_LAYER, RANKS, T, V, WORKLOADS};
use crate::stats::{fit_alpha_beta, median, observed_crossover, predicted_cutoff, Summary};

/// Windows behind every end-to-end median; a run's seconds are split
/// evenly over them.
const WINDOWS: usize = 5;
/// Set-up-only processes of a run: these plus the windows are the cold
/// processes behind every `setup_s`.
const SETUP_CHILDREN: usize = 20;
/// Block sizes of the model sweep, in i32 elements (16 B … 32 KiB).
const SWEEP_ELEMS: [usize; 4] = [4, 64, 1024, 8192];
/// Timed phase and warm-up of each window of the model sweep and of the
/// transport matrix: 11 of them must fit beside a traced run's windows.
const SHORT_WINDOW_S: f64 = 0.25;
const SHORT_WARMUP_S: &str = "0.1";
/// The pipeline gives a whole run 180 s, so a child that takes half of
/// that has already failed the run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

/// How each workload is measured. A results file records it and `compare`
/// refuses two files that differ in it.
#[derive(Clone, Copy)]
struct Protocol {
    windows: usize,
    window_s: f64,
    setups: usize,
}

impl Protocol {
    /// `seconds` of timed windows per workload: what the pipeline's
    /// `--seconds` and `run` (with `spec::RUN_SECONDS`) both use.
    fn of(seconds: f64) -> Protocol {
        Protocol {
            windows: WINDOWS,
            window_s: seconds / WINDOWS as f64,
            setups: SETUP_CHILDREN,
        }
    }

    /// `--smoke`: shows that everything runs and verifies, measures nothing.
    const SMOKE: Protocol = Protocol {
        windows: 1,
        window_s: 0.5,
        setups: 2,
    };
}

/// Metric name → one value per child that reported it.
type Samples = BTreeMap<String, Vec<f64>>;

fn add(samples: &mut Samples, metrics: Metrics) {
    for (name, value) in metrics {
        samples.entry(name).or_default().push(value);
    }
}

fn total(samples: &Samples, name: &str) -> f64 {
    samples.get(name).map_or(0.0, |v| v.iter().sum())
}

pub struct Runner {
    exe: PathBuf,
    seed: u64,
    corrupt: bool,
}

impl Runner {
    pub fn new(args: &Args) -> Result<Runner, String> {
        if cfg!(debug_assertions) {
            return Err("refusing to measure a debug build; use --release".into());
        }
        std::fs::create_dir_all(PathBuf::from(OUT_DIR).join("tmp"))
            .map_err(|e| format!("create {OUT_DIR}/tmp (run from the repository root): {e}"))?;
        Ok(Runner {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            seed: args.num("seed", 1.0) as u64,
            corrupt: args.flag("self-test-corrupt"),
        })
    }

    /// Run `cartbench child <args>` to its end and parse its result line.
    fn child(&self, args: &[String]) -> Result<Metrics, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .args(args)
            .arg("--seed")
            .arg(self.seed.to_string());
        if self.corrupt {
            cmd.arg("--corrupt");
        }
        // Fabric files and sockets of the shm/uds transports go where the
        // library puts temporary files: keep that inside the checkout.
        cmd.env("TMPDIR", PathBuf::from(OUT_DIR).join("tmp"));
        let mut running = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let deadline = Instant::now() + CHILD_TIMEOUT;
        while running.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                let _ = running.kill();
                let _ = running.wait();
                return Err(format!(
                    "child {args:?} did not end within {CHILD_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = running.wait_with_output().map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("child {args:?} ended with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().ok_or("child printed nothing")?;
        Ok(Json::parse(line)?
            .entries()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect())
    }

    fn window(&self, workload: &str, secs: f64, extra: &[&str]) -> Result<Metrics, String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.into(),
            "--secs".into(),
            secs.to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        self.child(&args)
    }

    /// The untraced windows, round-robin over `workloads` so that drift of
    /// the machine lands on all of them alike, then the set-up-only
    /// processes.
    fn collect(&self, workloads: &[&Workload], p: Protocol) -> Result<Vec<Samples>, String> {
        let mut samples = vec![Samples::new(); workloads.len()];
        for _ in 0..p.windows {
            for (w, s) in workloads.iter().zip(&mut samples) {
                add(s, self.window(w.name, p.window_s, &[])?);
            }
        }
        for _ in 0..p.setups {
            for (w, s) in workloads.iter().zip(&mut samples) {
                add(s, self.window(w.name, 0.0, &["--setup-only"])?);
            }
        }
        Ok(samples)
    }

    /// The layer numbers that do not depend on the workload: probes, the
    /// transport matrix and the α-β model sweep.
    fn shared_layers(&self) -> Result<Metrics, String> {
        let mut m = self.child(&["--probes".to_string()])?;
        let short = |extra: &[&str]| -> Result<f64, String> {
            let mut args = vec!["--warmup", SHORT_WARMUP_S];
            args.extend(extra);
            let window = self.window("a2a_small", SHORT_WINDOW_S, &args)?;
            if window.get("failed").is_some_and(|&f| f > 0.0) {
                return Err(format!(
                    "a verification failed in the layers pass {extra:?}"
                ));
            }
            window
                .get("op_us_p50")
                .copied()
                .ok_or("window without op_us_p50".into())
        };
        for transport in ["shm", "uds", "tcp"] {
            m.insert(
                format!("comm.op_us_p50_{transport}"),
                short(&["--transport", transport])?,
            );
        }
        let mut points = Vec::new();
        let (mut combining, mut trivial) = (Vec::new(), Vec::new());
        for elems in SWEEP_ELEMS {
            let bytes = (elems * 4) as f64;
            let elems = elems.to_string();
            combining.push(short(&["--m-elems", &elems, "--algo", "combining"])?);
            trivial.push(short(&["--m-elems", &elems, "--algo", "trivial"])?);
            points.push((C as f64, V as f64 * bytes, combining[combining.len() - 1]));
            points.push((T as f64, T as f64 * bytes, trivial[trivial.len() - 1]));
        }
        // The sweep's 16 B points are the configurations of `a2a_trivial`
        // and `a2a_small`: all a run of one workload has of the other.
        // `run` puts the ratio of the two gated medians in its place.
        m.insert(
            "bench.trivial_over_combining".into(),
            trivial[0] / combining[0],
        );
        if let Some((alpha_us, beta_us)) = fit_alpha_beta(&points) {
            m.insert("model.alpha_us".into(), alpha_us);
            m.insert("model.beta_ns_per_byte".into(), beta_us * 1e3);
            if alpha_us > 0.0 && beta_us > 0.0 {
                m.insert(
                    "model.mstar_pred_bytes".into(),
                    predicted_cutoff(alpha_us, beta_us, T, C, V),
                );
            }
        }
        let sizes: Vec<f64> = SWEEP_ELEMS.iter().map(|&e| (e * 4) as f64).collect();
        if let Some(bytes) = observed_crossover(&sizes, &combining, &trivial) {
            m.insert("model.crossover_obs_bytes".into(), bytes);
        }
        Ok(m)
    }

    /// The layers pass of one workload: one traced window as long as the
    /// untraced ones, joined with those and the shared numbers.
    fn layers(
        &self,
        w: &Workload,
        untraced: &Samples,
        window_s: f64,
        shared: &Metrics,
    ) -> Result<Layers, String> {
        let traced = self.window(w.name, window_s, &["--traced"])?;
        // The round spans of a whole operation all lie inside it: if some
        // do not, clocks or pairing are off and the round numbers mean
        // nothing.
        let outside = traced
            .get("cartesian.round_pairs_outside_op")
            .copied()
            .unwrap_or(0.0);
        if outside > 0.0 {
            return Err(format!(
                "{}: {outside} of the traced round spans lie outside their operation",
                w.name
            ));
        }
        Ok(Layers {
            attempted: traced.get("attempted").copied().unwrap_or(0.0),
            failed: traced.get("failed").copied().unwrap_or(0.0),
            metrics: layer_metrics(w, untraced, &traced, shared),
        })
    }
}

/// A workload's traced window: what it attempted, and every per-layer
/// metric in `PER_LAYER` order.
struct Layers {
    attempted: f64,
    failed: f64,
    metrics: Vec<(&'static str, f64)>,
}

/// Every per-layer metric of one workload, from its untraced windows, its
/// traced window and the shared numbers. A metric that does not apply to
/// the workload reads 0.
fn layer_metrics(
    w: &Workload,
    untraced: &Samples,
    traced: &Metrics,
    shared: &Metrics,
) -> Vec<(&'static str, f64)> {
    let mut all = shared.clone();
    for (name, value) in traced {
        let from_traced = [
            "cartesian.create",
            "cartesian.init",
            "cartesian.round",
            "cartesian.executor",
            "obs.",
        ];
        if from_traced.iter().any(|prefix| name.starts_with(prefix)) {
            all.insert(name.clone(), *value);
        }
    }
    for (name, values) in untraced {
        all.insert(name.clone(), median(values));
    }
    let get = |all: &Metrics, name: &str| all.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let untraced_p50 = get(&all, "op_us_p50");
    let traced_p50 = traced.get("op_us_p50").copied().unwrap_or(0.0);
    all.insert("bench.untraced_op_us_p50".into(), untraced_p50);
    all.insert("bench.traced_op_us_p50".into(), traced_p50);
    all.insert(
        "obs.traced_over_untraced".into(),
        ratio(traced_p50, untraced_p50),
    );
    let spread = untraced
        .get("op_us_p50")
        .map_or(0.0, |v| Summary::of(v).spread());
    all.insert("bench.window_spread".into(), spread);
    all.insert(
        "bench.failed_share".into(),
        ratio(total(untraced, "failed"), total(untraced, "attempted")),
    );

    // Computed, not measured: the pack kernels' share of one rank's
    // CPU time per operation, from the probe that matches the blocks.
    let kernel = match w.kind {
        Kind::A2a { .. } | Kind::Serve { count: 4 } => "types.gather_ns_per_byte_small",
        Kind::Halo => "types.gather_ns_per_byte_halo",
        Kind::Allreduce { .. } => "types.accumulate_ns_per_byte",
        Kind::Serve { .. } => "types.gather_ns_per_byte_bulk",
    };
    let pack_ns = get(&all, "types.pack_bytes_per_op") * get(&all, kernel);
    let rank_cpu_ns = get(&all, "bench.cpu_s_per_op") * 1e9 / RANKS as f64;
    all.insert("types.pack_share_est".into(), ratio(pack_ns, rank_cpu_ns));

    if let Kind::Serve { count } = w.kind {
        // ping + stages + residual = mean latency, by construction.
        let (ping, direct) = if count == 4 {
            ("serve.ping_rtt_us", "serve.direct_us_small")
        } else {
            ("serve.ping_rtt_us_bulk", "serve.direct_us_bulk")
        };
        let stages: f64 = ["queue", "coalesce", "execute", "reply"]
            .iter()
            .map(|s| get(&all, &format!("serve.stage_{s}_us")))
            .sum();
        let residual = get(&all, "bench.op_us_mean") - stages - get(&all, ping);
        all.insert("serve.client_residual_us".into(), residual);
        let direct = get(&all, direct);
        all.insert("serve.direct_op_us_p50".into(), direct);
        all.insert(
            "serve.over_direct_ratio".into(),
            ratio(untraced_p50, direct),
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, _)| (name, get(&all, name)))
        .collect()
}

/// The end-to-end summaries of one workload's samples.
fn end_to_end(samples: &Samples) -> Result<Vec<Summary>, String> {
    END_TO_END
        .iter()
        .map(|m| {
            samples
                .get(m.name)
                .map(|v| Summary::of(v))
                .ok_or(format!("no sample of {}", m.name))
        })
        .collect()
}

fn print_end_to_end(workload: &str, samples: &Samples, summaries: &[Summary]) {
    for name in ["op_us_p50", "ops_per_s"] {
        println!("{workload:<16} {name:<12} per window {:?}", samples[name]);
    }
    for (m, s) in END_TO_END.iter().zip(summaries) {
        println!(
            "{workload:<16} {:<12} {:>14.6} {:<4} q1 {:.6} q3 {:.6} spread {:.3} n {}",
            m.name,
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.spread(),
            s.n
        );
    }
}

fn print_layers<'a>(label: &str, layers: impl IntoIterator<Item = (&'a str, f64)>) {
    for (name, value) in layers {
        println!(
            "{label:<16} {name:<36} {value:>16.6} {}",
            spec::per_layer_unit(name).unwrap_or("")
        );
    }
}

fn value_and_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// `cartbench --workload W --seed S --seconds T --trace 0|1`: one
/// workload, measured for T seconds, one JSON object as last line.
pub fn driver(args: &Args) -> Result<bool, String> {
    let runner = Runner::new(args)?;
    let name = args.value("workload").ok_or("--workload is required")?;
    let w = spec::workload(name).ok_or(format!("unknown workload {name}"))?;
    let mut protocol = Protocol::of(args.num("seconds", spec::RUN_SECONDS));
    let traced = args.num("trace", 0.0) != 0.0;
    if traced {
        // They feed `setup_s` only, which a traced run does not report.
        protocol.setups = 0;
    }
    let samples = runner.collect(&[w], protocol)?.remove(0);
    let (mut attempted, mut failed) = (total(&samples, "attempted"), total(&samples, "failed"));
    let metrics: Vec<(&str, Json)> = if traced {
        let layers = runner.layers(w, &samples, protocol.window_s, &runner.shared_layers()?)?;
        attempted += layers.attempted;
        failed += layers.failed;
        print_layers(w.name, layers.metrics.iter().copied());
        let unit = |name| spec::per_layer_unit(name).unwrap_or("");
        layers
            .metrics
            .iter()
            .map(|&(name, value)| (name, value_and_unit(value, unit(name))))
            .collect()
    } else {
        let summaries = end_to_end(&samples)?;
        print_end_to_end(w.name, &samples, &summaries);
        END_TO_END
            .iter()
            .zip(&summaries)
            .map(|(m, s)| (m.name, value_and_unit(s.median, m.unit)))
            .collect()
    };
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    Ok(failed == 0.0)
}

/// `cartbench run`: what `driver` does for one workload, for all six with
/// their windows interleaved and the shared layer numbers taken once;
/// prints every metric and writes the results file `compare` reads.
pub fn run(args: &Args) -> Result<bool, String> {
    let runner = Runner::new(args)?;
    let smoke = args.flag("smoke");
    let protocol = if smoke {
        Protocol::SMOKE
    } else {
        Protocol::of(spec::RUN_SECONDS)
    };
    let host_info = host::provenance();
    let overloaded = host::load_average() > host::nproc() as f64;
    println!("host {host_info}");

    let workloads: Vec<&Workload> = WORKLOADS.iter().collect();
    let samples = runner.collect(&workloads, protocol)?;
    let mut shared = Metrics::new();
    if !smoke {
        shared = runner.shared_layers()?;
        let gated_p50 = |name: &str| {
            let at = workloads.iter().position(|w| w.name == name);
            at.map_or(0.0, |i| median(&samples[i]["op_us_p50"]))
        };
        shared.insert(
            "bench.trivial_over_combining".into(),
            gated_p50("a2a_trivial") / gated_p50("a2a_small"),
        );
        let listed = PER_LAYER
            .iter()
            .filter_map(|&(name, _)| Some((name, *shared.get(name)?)));
        print_layers("shared", listed);
    }
    let mut any_failed = false;
    let mut per_workload = Vec::new();
    for (w, samples) in workloads.iter().zip(&samples) {
        let summaries = end_to_end(samples)?;
        print_end_to_end(w.name, samples, &summaries);
        let (attempted, failed) = (total(samples, "attempted"), total(samples, "failed"));
        println!(
            "{:<16} failed_share {} ({failed} of {attempted})",
            w.name,
            failed / attempted
        );
        any_failed |= failed > 0.0;
        // The shared numbers are stored once, not under every workload.
        let mut own_layers = Vec::new();
        if !smoke {
            let layers = runner.layers(w, samples, protocol.window_s, &shared)?;
            any_failed |= layers.failed > 0.0;
            own_layers = layers.metrics;
            own_layers.retain(|(name, _)| !shared.contains_key(*name));
            print_layers(w.name, own_layers.iter().copied());
        }
        per_workload.push((
            w.name,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::obj(END_TO_END.iter().zip(&summaries).map(|(m, s)| {
                        (
                            m.name,
                            Json::obj([
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better())),
                                ("bound", Json::Num(m.bound)),
                                ("median", Json::Num(s.median)),
                                ("min", Json::Num(s.min)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                                ("max", Json::Num(s.max)),
                                ("n", Json::Num(s.n as f64)),
                            ]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(own_layers.iter().map(|&(name, value)| {
                        let unit = spec::per_layer_unit(name).unwrap_or("");
                        (name, value_and_unit(value, unit))
                    })),
                ),
            ]),
        ));
    }
    let results = Json::obj([
        ("schema", Json::str("cartbench-results-v1")),
        ("host", host_info),
        ("seed", Json::Num(runner.seed as f64)),
        ("window_s", Json::Num(protocol.window_s)),
        ("windows", Json::Num(protocol.windows as f64)),
        (
            "setup_processes",
            Json::Num((protocol.windows + protocol.setups) as f64),
        ),
        // Not to be compared against: the machine was busy at the start
        // or an output failed its check.
        ("degraded", Json::Bool(overloaded || any_failed)),
        (
            "shared",
            Json::obj(PER_LAYER.iter().filter_map(|&(name, unit)| {
                Some((name, value_and_unit(*shared.get(name)?, unit)))
            })),
        ),
        ("workloads", Json::obj(per_workload)),
    ]);
    let out = args.value("out").map_or_else(
        || PathBuf::from(OUT_DIR).join("results.json"),
        PathBuf::from,
    );
    std::fs::write(&out, results.pretty()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(!any_failed)
}
