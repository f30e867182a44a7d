//! Regenerates Figure 5: relative performance of trivial and
//! message-combining `Cart_alltoall` vs `MPI_Neighbor_alltoall`,
//! 1024 × 16 processes, Cray MPI on Titan — the system whose results the
//! paper calls "more in line with our expectations" (no baseline quirks).

use cartcomm_bench::harness::run_alltoall_figure;
use cartcomm_sim::MachineProfile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Cray MPI had no observed defects; --quirks is accepted but a no-op.
    let quirks = args.iter().any(|a| a == "--quirks");
    run_alltoall_figure(&MachineProfile::titan_cray(), quirks, 0x516);
}
