//! `cartserve` — the multi-tenant collective daemon.
//!
//! ```text
//! cartserve [--uds PATH | --tcp ADDR] [--queue-cap N] [--max-universes N]
//!           [--metrics-http ADDR] [--smoke]
//! cartserve --watch [--uds PATH | --tcp ADDR] [--interval-ms N] [--once]
//! ```
//!
//! Without `--smoke`, binds the requested endpoint (default
//! `--uds /tmp/cartserve.sock`) and serves until a client sends the wire
//! `SHUTDOWN` command. `--metrics-http ADDR` additionally serves the
//! OpenMetrics document on plain-HTTP `GET /metrics` for standard
//! scrapers. With `--smoke`, spins up a private daemon on a temporary
//! socket, runs two tenants through it (verifying every result byte for
//! byte against the reference executor — both algorithms, a torus and an
//! open mesh — and plan sharing), prints the stats table, drains, and
//! exits — a self-contained health check for CI and packaging.
//!
//! `--watch` turns the binary into a top-like client: it polls a running
//! daemon's `METRICS` and `PING` commands and renders uptime, queue
//! depth, job counters, and the per-tenant table, refreshing in place
//! every `--interval-ms` (default 1000). `--once` prints one frame and
//! exits (useful in scripts and CI).

use std::process::ExitCode;
use std::time::Duration;

use cartcomm_obs::json::{self, Value};
use cartcomm_serve::proto::{AlgoSpec, JobSpec, OpSpec};
use cartcomm_serve::{reference, Client, ServeConfig, Server};

struct Args {
    uds: Option<String>,
    tcp: Option<String>,
    queue_cap: usize,
    max_universes: usize,
    metrics_http: Option<String>,
    smoke: bool,
    watch: bool,
    once: bool,
    interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        uds: None,
        tcp: None,
        queue_cap: 64,
        max_universes: 4,
        metrics_http: None,
        smoke: false,
        watch: false,
        once: false,
        interval_ms: 1000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--uds" => args.uds = Some(val("--uds")?),
            "--tcp" => args.tcp = Some(val("--tcp")?),
            "--queue-cap" => {
                args.queue_cap = val("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--max-universes" => {
                args.max_universes = val("--max-universes")?
                    .parse()
                    .map_err(|e| format!("--max-universes: {e}"))?
            }
            "--metrics-http" => args.metrics_http = Some(val("--metrics-http")?),
            "--smoke" => args.smoke = true,
            "--watch" => args.watch = true,
            "--once" => args.once = true,
            "--interval-ms" => {
                args.interval_ms = val("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "cartserve [--uds PATH | --tcp ADDR] [--queue-cap N] \
                     [--max-universes N] [--metrics-http ADDR] [--smoke]\n\
                     cartserve --watch [--uds PATH | --tcp ADDR] [--interval-ms N] [--once]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.uds.is_some() && args.tcp.is_some() {
        return Err("--uds and --tcp are mutually exclusive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cartserve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServeConfig {
        queue_cap: args.queue_cap,
        max_universes: args.max_universes,
        metrics_http: args.metrics_http.clone(),
        ..ServeConfig::default()
    };

    if args.watch {
        return match watch(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cartserve: watch failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.smoke {
        return match smoke(cfg) {
            Ok(()) => {
                println!("cartserve: smoke ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cartserve: smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let server = if let Some(addr) = &args.tcp {
        Server::bind_tcp(addr, cfg)
    } else {
        let path = args
            .uds
            .clone()
            .unwrap_or_else(|| "/tmp/cartserve.sock".to_string());
        Server::bind_uds(path, cfg)
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cartserve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("cartserve: listening on {:?}", server.endpoint());
    if let Some(addr) = server.metrics_endpoint() {
        println!("cartserve: metrics on http://{addr}/metrics");
    }
    // Serve until a client drains us over the wire.
    server.wait();
    println!("cartserve: drained, bye");
    ExitCode::SUCCESS
}

/// Pull one `name{labels} value` sample out of an OpenMetrics document.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| {
            l.starts_with(name) && matches!(l.as_bytes().get(name.len()), Some(b' ') | Some(b'{'))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Every `(labels, value)` pair of one metric family.
fn metric_rows<'a>(text: &'a str, name: &str) -> Vec<(&'a str, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let (labels, value) = match rest.as_bytes().first()? {
                b'{' => {
                    let end = rest.find('}')?;
                    (&rest[1..end], rest[end + 1..].trim())
                }
                b' ' => ("", rest.trim()),
                _ => return None,
            };
            Some((labels, value.parse().ok()?))
        })
        .collect()
}

/// The top-like live view: poll METRICS + PING over the wire and render
/// a compact dashboard, redrawing in place unless `--once`.
fn watch(args: &Args) -> Result<(), String> {
    let mut client = connect(args, "cartserve-watch")?;
    loop {
        let (_, uptime_ms, version) = client
            .ping_info(b"watch")
            .map_err(|e| format!("ping: {e}"))?;
        let text = client.metrics_text().map_err(|e| format!("metrics: {e}"))?;

        let gauge = |n: &str| metric(&text, n).unwrap_or(0.0);
        let mut frame = String::new();
        frame.push_str(&format!(
            "cartserve v{version}  up {:.1}s  queue {}  draining {}  profile {}\n",
            uptime_ms as f64 / 1e3,
            gauge("cartserve_queue_depth") as u64,
            gauge("cartserve_draining") as u64,
            if gauge("cartserve_profile_active") > 0.0 {
                "LIVE"
            } else {
                "off"
            },
        ));
        frame.push_str(&format!(
            "jobs: submitted {}  completed {}  coalesced {}  rejected {}  batches {}\n",
            gauge("cartserve_jobs_submitted_total") as u64,
            gauge("cartserve_jobs_completed_total") as u64,
            gauge("cartserve_jobs_coalesced_total") as u64,
            gauge("cartserve_jobs_rejected_total") as u64,
            gauge("cartserve_batches_executed_total") as u64,
        ));
        frame.push_str(&format!(
            "plan store: hits {}  misses {}  schedule hits {}  schedule misses {}\n",
            gauge("cartserve_plan_store_hits_total") as u64,
            gauge("cartserve_plan_store_misses_total") as u64,
            gauge("cartserve_plan_store_schedule_hits_total") as u64,
            gauge("cartserve_plan_store_schedule_misses_total") as u64,
        ));
        let tenants = metric_rows(&text, "cartserve_tenant_jobs_total");
        if !tenants.is_empty() {
            frame.push_str("tenants:\n");
            for (labels, jobs) in tenants {
                frame.push_str(&format!("  {labels}  jobs {}\n", jobs as u64));
            }
        }

        if args.once {
            print!("{frame}");
            return Ok(());
        }
        // Clear-and-home redraw keeps the view top-like without a TUI dep.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(50)));
    }
}

fn connect(args: &Args, tenant: &str) -> Result<Client, String> {
    if let Some(addr) = &args.tcp {
        Client::connect_tcp(addr, tenant).map_err(|e| format!("connect {addr}: {e}"))
    } else {
        let path = args
            .uds
            .clone()
            .unwrap_or_else(|| "/tmp/cartserve.sock".to_string());
        Client::connect_uds(&path, tenant).map_err(|e| format!("connect {path}: {e}"))
    }
}

/// The self-check: two tenants, same job shape, byte-identical results,
/// plan sharing visible in the per-tenant table.
fn smoke(cfg: ServeConfig) -> Result<(), String> {
    let sock = std::env::temp_dir().join(format!("cartserve-smoke-{}.sock", std::process::id()));
    let server = Server::bind_uds(&sock, cfg).map_err(|e| format!("bind: {e}"))?;

    // 2x2 periodic torus, von Neumann neighborhood, 8-byte blocks.
    let offsets: Vec<Vec<i64>> = vec![vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]];
    let t = offsets.len();
    let spec = JobSpec {
        dims: vec![2, 2],
        periods: vec![true, true],
        offsets,
        op: OpSpec::Alltoallv {
            elem_size: 1,
            sendcounts: vec![8; t],
            senddispls: (0..t).map(|i| i * 8).collect(),
            recvcounts: vec![8; t],
            recvdispls: (0..t).map(|i| i * 8).collect(),
        },
        algo: AlgoSpec::Combining,
    };
    // Every job is checked byte for byte against the daemon-free
    // reference executor.
    let check = |client: &mut Client, spec: &JobSpec, what: &str| -> Result<(), String> {
        let payload: Vec<u8> = (0..spec.ranks() * spec.send_bytes_per_rank())
            .map(|i| (i % 251) as u8)
            .collect();
        let out = client
            .submit_retrying(spec, &payload, 50)
            .map_err(|e| format!("submit ({what}): {e}"))?;
        let golden = reference::execute(spec, &payload).map_err(|e| format!("reference: {e}"))?;
        if out != golden {
            return Err(format!("{what}: result differs from the reference"));
        }
        Ok(())
    };
    for tenant in ["smoke-a", "smoke-b"] {
        let mut client = Client::connect_uds(&sock, tenant).map_err(|e| format!("connect: {e}"))?;
        client.ping(b"hello").map_err(|e| format!("ping: {e}"))?;
        check(&mut client, &spec, tenant)?;
    }
    // The same path runs the other algorithm and, boundaries resolved
    // when the schedule compiles, an open mesh.
    let mut client = Client::connect_uds(&sock, "smoke-c").map_err(|e| format!("connect: {e}"))?;
    let trivial = JobSpec {
        algo: AlgoSpec::Trivial,
        ..spec.clone()
    };
    check(&mut client, &trivial, "trivial")?;
    let mesh = JobSpec {
        periods: vec![false, false],
        ..spec.clone()
    };
    check(&mut client, &mesh, "mesh")?;

    let mut client = Client::connect_uds(&sock, "smoke-a").map_err(|e| format!("connect: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let stats = json::parse(&stats).map_err(|e| format!("stats report: {e}"))?;
    if stats.get("schema").and_then(Value::as_str) != Some("cartserve-stats-v2") {
        return Err("stats report is missing its schema tag".into());
    }
    let tenants = stats.get("tenants").and_then(Value::as_array);
    let named = |t: &Value| t.get("tenant").and_then(Value::as_str) == Some("smoke-b");
    if !tenants.is_some_and(|rows| rows.iter().any(named)) {
        return Err("stats report is missing a tenant".into());
    }
    let (_, uptime_ms, version) = client
        .ping_info(b"smoke")
        .map_err(|e| format!("ping: {e}"))?;
    if version.is_empty() {
        return Err("ping reply is missing the daemon version".into());
    }
    println!("cartserve: daemon v{version}, up {uptime_ms} ms");
    let metrics = client.metrics_text().map_err(|e| format!("metrics: {e}"))?;
    if !metrics.ends_with("# EOF\n") || !metrics.contains("cartserve_jobs_completed_total") {
        return Err("metrics document is malformed".into());
    }
    println!("{}", server.tenants().render_table());

    // Per-tenant plan traffic, as (hits, misses): one program serves the
    // whole torus, so the first tenant compiled once, and the second must
    // have ridden the store warm — one lookup for its job, a hit.
    let lookups = |tenant: &str| {
        let stats = server.tenants().stats(tenant);
        let totals = stats.ok_or(format!("no stats for {tenant}"))?.totals;
        Ok::<_, String>((totals.plan_cache_hits, totals.plan_cache_misses))
    };
    let (a, b) = (lookups("smoke-a")?, lookups("smoke-b")?);
    if a != (0, 1) || b != (1, 0) {
        return Err(format!(
            "smoke-a should compile once and smoke-b only hit: (hits, misses) {a:?}, {b:?}"
        ));
    }

    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server.wait();
    Ok(())
}
