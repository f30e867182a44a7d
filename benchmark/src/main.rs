//! cartbench — the repository's end-to-end and per-layer benchmark.
//! See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! cartbench --workload W --seed S --seconds T --trace 0|1   one workload, one JSON result line
//! cartbench [run] [--seed S] [--out FILE] [--smoke] [--self-test-corrupt]
//! cartbench compare A.json B.json
//! cartbench manifest                                         prints BENCHMARK.json
//! ```

// The benchmark may only use what the crates promise to keep.
#![deny(deprecated)]

mod child;
mod cli;
mod compare;
mod host;
mod json;
mod probes;
mod runner;
mod serve;
mod spec;
mod stats;
mod trace;
mod universe;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::Args::parse(&raw);
    let outcome = match args.positional.first().map(String::as_str) {
        Some("child") => child::main(&args).map(|()| true),
        Some("run") => runner::run(&args),
        None if !args.flag("workload") => runner::run(&args),
        Some("compare") => match &args.positional[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: cartbench compare A.json B.json".into()),
        },
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        None => runner::driver(&args),
        Some(other) => Err(format!("unknown command {other}; see benchmark/README.md")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cartbench: {message}");
            ExitCode::from(2)
        }
    }
}
