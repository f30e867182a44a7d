//! Regenerates Figure 7: histograms of the run-time distribution of
//! `Cart_alltoall` (d = 3, n = 3, m = 1) on Titan at 128 × 16 and
//! 1024 × 16 processes.
//!
//! The paper's point is distributional: at 2048 ranks the measurements
//! concentrate tightly around the mean; at 16384 ranks system noise and
//! cross-cabinet traffic spread them out, sometimes bimodally — motivating
//! the Appendix-A retention policies. We reproduce it by sampling the
//! priced schedule under the calibrated rate-based noise model.

use cartcomm::schedule::alltoall_plan;
use cartcomm_bench::harness::noise_for;
use cartcomm_sim::MachineProfile;
use cartcomm_stats::{FilterPolicy, Histogram, Summary};
use cartcomm_topo::RelNeighborhood;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let nb = RelNeighborhood::stencil_family(3, 3, -1).expect("valid stencil");
    let profile = MachineProfile::titan_cray();
    let noise = noise_for(&profile);
    let plan = alltoall_plan(&nb);
    let m_bytes = 4usize; // m = 1 int
    let costs = profile.round_costs(&plan.round_bytes(&|_| m_bytes));

    println!("Figure 7: run-time distribution of Cart_alltoall, d=3 n=3 m=1, Titan (Cray MPI).");
    println!(
        "{} repetitions per panel (the paper's m=1 count for Titan).",
        300
    );
    println!();
    for (label, p) in [
        ("128 x 16 processes", 128 * 16),
        ("1024 x 16 processes", 1024 * 16),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(p as u64);
        let samples: Vec<f64> = (0..300)
            .map(|_| noise.sample_completion(&costs, p, &mut rng) * 1e6)
            .collect();
        let hist = Histogram::from_samples(&samples, 24);
        let all = Summary::of(&samples);
        let kept = Summary::of(&FilterPolicy::TITAN.apply(&samples));
        println!("(N:3, d:3, m:1) — {label}");
        print!("{}", hist.render(48, "us"));
        println!(
            "  raw mean {:.1} us (95% CI ±{:.1}); smallest-third mean {:.1} us; modes detected: {}",
            all.mean,
            all.ci95_half_width,
            kept.mean,
            hist.mode_count(0.25)
        );
        println!();
    }
    println!("Reading: the small system is tightly concentrated; the large one spreads out");
    println!("and grows a second mode — the behaviour that motivated Appendix A's filtering.");
}
