//! Interactive cost explorer: Table 1 quantities and machine-specific
//! predictions for any stencil family.
//!
//! Run with: `cargo run --example cost_explorer -- [d] [n] [f]`
//! (defaults: d=3 n=5 f=-1)
//!
//! Prints the neighborhood's `t`, `C`, alltoall/allgather volumes, the
//! cut-off ratio, and — for each of the paper's machine profiles — the
//! block size where the message-combining alltoall stops paying off and
//! the predicted times at the benchmark sizes m ∈ {1, 10, 100}.

use cartcomm::cost::CostSummary;
use cartcomm::schedule::{allgather_plan, alltoall_plan, trivial_plan};
use cartcomm::PlanKind;
use cartcomm_sim::MachineProfile;
use cartcomm_topo::RelNeighborhood;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    let f: i64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(-1);

    let nb = match RelNeighborhood::stencil_family(d, n, f) {
        Ok(nb) => nb,
        Err(e) => {
            eprintln!("invalid stencil family d={d} n={n} f={f}: {e}");
            std::process::exit(1);
        }
    };
    let cs = CostSummary::of(&nb);
    let (trivial, alltoall, allgather) = (
        trivial_plan(&nb, PlanKind::Alltoall),
        alltoall_plan(&nb),
        allgather_plan(&nb),
    );

    println!("Stencil family d={d}, n={n}, f={f}:");
    println!("  neighbors t            : {}", cs.t);
    println!(
        "  combining rounds C     : {}  (trivial uses {} rounds)",
        cs.rounds, cs.t
    );
    println!(
        "  alltoall volume V      : {} blocks (trivial: {})",
        cs.alltoall_volume, cs.t
    );
    println!(
        "  allgather volume       : {} blocks (tree edges)",
        cs.allgather_volume
    );
    println!(
        "  allreduce volume       : {} blocks (distinct partial sums; reduce-scatter: {})",
        cs.allreduce_volume, cs.reduce_scatter_volume
    );
    match cs.cutoff {
        Some(r) => println!("  cut-off ratio (t-C)/(V-t): {r:.3}"),
        None => {
            println!("  cut-off ratio          : - (no volume inflation; combining always wins)")
        }
    }
    println!();

    for profile in MachineProfile::all() {
        println!(
            "{} ({} processes, alpha {:.1} us, beta {:.3} ns/B):",
            profile.name,
            profile.processes,
            profile.net.alpha * 1e6,
            profile.net.beta * 1e9
        );
        match cs
            .cutoff
            .map(|ratio| profile.net.alpha_beta_bytes() * ratio)
        {
            Some(b) => println!(
                "  combining alltoall pays off below m = {:.0} bytes ({:.0} ints)",
                b,
                b / 4.0
            ),
            None => println!("  combining alltoall pays off at every block size"),
        }
        for m in [1usize, 10, 100] {
            let time = |plan: &cartcomm::Plan| profile.net.schedule(&plan.round_bytes(&|_| m * 4));
            let (triv, comb, ag) = (time(&trivial), time(&alltoall), time(&allgather));
            println!(
                "  m={m:>4}: trivial {:>9.1} us | combining alltoall {:>9.1} us ({:.2}x) | combining allgather {:>9.1} us",
                triv * 1e6,
                comb * 1e6,
                triv / comb,
                ag * 1e6,
            );
        }
        println!();
    }
}
