//! Regenerates Figure 3: relative performance of trivial and
//! message-combining `Cart_alltoall` vs `MPI_Neighbor_alltoall`,
//! 36 × 32 processes, Open MPI 3.1.0 on Hydra.
//!
//! `--quirks` enables the Open MPI neighborhood-collective defect
//! emulation that reproduces the paper's pathological baseline numbers.

use cartcomm_bench::harness::run_alltoall_figure;
use cartcomm_sim::MachineProfile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quirks = args.iter().any(|a| a == "--quirks");
    run_alltoall_figure(&MachineProfile::hydra_openmpi(), quirks, 0x316);
}
