//! Regenerates Figure 6: relative performance of trivial and
//! message-combining `Cart_allgather` (top: 36 × 32 processes, Open MPI on
//! Hydra) and the irregular `Cart_alltoallv` (bottom: 1024 × 16 processes,
//! Cray MPI on Titan), both for the large d = 5, n = 5 neighborhood.
//!
//! The alltoallv block sizes follow §4.2: a neighbor with `z` non-zero
//! coordinates exchanges `m·(d−z)` units, the self block none — resembling
//! the face/edge/corner halo volumes of Figure 1.

use cartcomm::cost::CostSummary;
use cartcomm_bench::harness::{
    noise_for, print_cell, simulate_allgather_series, simulate_alltoallv_series,
};
use cartcomm_sim::MachineProfile;
use cartcomm_topo::RelNeighborhood;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quirks = args.iter().any(|a| a == "--quirks");
    let nb = RelNeighborhood::stencil_family(5, 5, -1).expect("valid stencil");
    let cs = CostSummary::of(&nb);

    println!("Figure 6 (top): Cart_allgather vs MPI_Neighbor_allgather");
    let hydra = MachineProfile::hydra_openmpi();
    println!(
        "{} processes, {}; d=5 n=5: t={}, C={}, allgather V={} (== t: combining never pays extra volume)",
        hydra.processes, hydra.library, cs.t, cs.rounds, cs.allgather_volume
    );
    let noise = noise_for(&hydra);
    for m in [1usize, 10, 100] {
        let rows = simulate_allgather_series(&hydra, &nb, m, quirks, noise, 0x616 + m as u64);
        print_cell(5, 5, m, "allgather", &rows);
    }
    println!();

    println!("Figure 6 (bottom): Cart_alltoallv vs MPI_Neighbor_alltoallv (irregular blocks)");
    let titan = MachineProfile::titan_cray();
    println!(
        "{} processes, {}; block for neighbor with z non-zero coords: m*(d-z) ints, self: 0",
        titan.processes, titan.library
    );
    let noise = noise_for(&titan);
    for m in [1usize, 10] {
        let rows = simulate_alltoallv_series(&titan, &nb, m, quirks, noise, 0x626 + m as u64);
        print_cell(5, 5, m, "alltoallv", &rows);
    }
}
