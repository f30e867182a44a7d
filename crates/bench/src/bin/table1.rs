//! Regenerates Table 1: communication rounds, volumes, and cut-off
//! thresholds of the message-combining algorithms for the benchmark
//! stencil families (d ∈ {2..5}, n ∈ {3,4,5}, f = −1).

use cartcomm::cost::CostSummary;
use cartcomm_topo::RelNeighborhood;

fn main() {
    println!(
        "Table 1: rounds, volumes and cut-off ratio for the (d, n) stencil families (f = -1)."
    );
    println!("t = n^d - 1 neighbors; C = message-combining rounds; trivial algorithm uses t rounds, volume t.");
    println!();
    println!(
        "{:>3} {:>3} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "d", "n", "t", "C", "Allgather V", "Allreduce V", "Alltoall V", "(t-C)/(V-t)"
    );
    for d in 2..=5usize {
        for n in 3..=5usize {
            let nb = RelNeighborhood::stencil_family(d, n, -1).expect("valid stencil");
            let cs = CostSummary::of(&nb);
            println!(
                "{:>3} {:>3} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12}",
                d,
                n,
                cs.t,
                cs.rounds,
                cs.allgather_volume,
                cs.allreduce_volume,
                cs.alltoall_volume,
                cs.cutoff.map_or("-".to_string(), |c| format!("{c:.3}"))
            );
        }
    }
    println!();
    println!("Note: for these stencils the allgather combining volume equals the trivial");
    println!("volume t while using exponentially fewer rounds, so combining allgather");
    println!("wins at every block size; alltoall combining pays V > t and wins only for");
    println!("blocks smaller than (alpha/beta) * (t-C)/(V-t) bytes (Sec. 3.1). The allgather");
    println!("must deliver t different blocks and pays V = t; the allreduce delivers one sum,");
    println!("sends every distinct partial sum once and pays V = C, the floor for C rounds");
    println!("that each move along one dimension.");
}
