//! Inspect the communication schedules the library computes for a stencil
//! family — the "arrays of datatypes and ranks" view of §3.4.
//!
//! Usage: `cargo run -p cartcomm-bench --bin schedule_dump -- [d] [n] [f] [op]`
//! where `op` is `alltoall`, `allgather`, `both` (default), or `allreduce`.

use cartcomm::cost::CostSummary;
use cartcomm::schedule::{
    allgather_plan, allgather_plan_with_order, allreduce_plan, alltoall_plan, DimOrder,
};
use cartcomm_topo::RelNeighborhood;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let f: i64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(-1);
    let op = args.get(4).map(String::as_str).unwrap_or("both");

    let nb = match RelNeighborhood::stencil_family(d, n, f) {
        Ok(nb) => nb,
        Err(e) => {
            eprintln!("invalid stencil family: {e}");
            std::process::exit(1);
        }
    };
    let cs = CostSummary::of(&nb);
    println!(
        "stencil family d={d} n={n} f={f}: t={}, C={}, alltoall V={}, allgather V={}",
        cs.t, cs.rounds, cs.alltoall_volume, cs.allgather_volume
    );
    println!();

    if op == "alltoall" || op == "both" {
        println!("{}", alltoall_plan(&nb));
    }
    if op == "allgather" || op == "both" {
        println!("{}", allgather_plan(&nb));
        let given = allgather_plan_with_order(&nb, DimOrder::Given);
        if given.volume_blocks != cs.allgather_volume {
            println!(
                "(identity dimension order would use volume {} instead of {})",
                given.volume_blocks, cs.allgather_volume
            );
        }
    }
    if op == "allreduce" {
        println!("{}", allreduce_plan(&nb));
    }
}
