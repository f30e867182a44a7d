//! Shared pricing + measurement machinery for the figure binaries.
//!
//! A figure cell is produced exactly as in the paper's §4.1.2: run the
//! operation `reps` times (here: sample the priced completion time under
//! the machine's noise model), apply the system's Appendix-A retention
//! policy, and report the mean (with 95% CI) normalized to the blocking
//! `MPI_Neighbor_*` baseline.

use cartcomm::cost::CostSummary;
use cartcomm::schedule::{allgather_plan, alltoall_plan, trivial_plan};
use cartcomm::Plan;
use cartcomm_sim::{MachineProfile, NoiseModel};
use cartcomm_stats::{FilterPolicy, Summary};
use cartcomm_topo::RelNeighborhood;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The four measured series of the alltoall figures (and the three of the
/// allgather/alltoallv panels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Blocking library baseline (`MPI_Neighbor_*`), the normalization
    /// reference.
    NeighborBlocking,
    /// Non-blocking library baseline (`MPI_Ineighbor_*`).
    NeighborNonblocking,
    /// The trivial t-round Cartesian algorithm (Listing 4).
    CartTrivial,
    /// The message-combining Cartesian algorithm (§3).
    CartCombining,
}

impl SeriesKind {
    /// Label as used in the paper's legends.
    pub fn label(&self, op: &str) -> String {
        match self {
            SeriesKind::NeighborBlocking => format!("MPI_Neighbor_{op}"),
            SeriesKind::NeighborNonblocking => format!("MPI_Ineighbor_{op}"),
            SeriesKind::CartTrivial => format!("Cart_{op} (trivial, blocking)"),
            SeriesKind::CartCombining => format!("Cart_{op}"),
        }
    }
}

/// One bar of a figure: a series at one `(d, n, m)` cell.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Which series.
    pub kind: SeriesKind,
    /// Mean absolute time, milliseconds (printed above the bars in the
    /// paper).
    pub absolute_ms: f64,
    /// Mean relative to the blocking baseline (the bar height).
    pub relative: f64,
    /// 95% CI half width, relative units.
    pub ci95_relative: f64,
}

/// Repetition counts per block size, as in §4.1.2.
pub fn reps_for(profile: &MachineProfile, m: usize) -> usize {
    if profile.name.starts_with("titan") {
        match m {
            1 => 300,
            10 => 50,
            _ => 40,
        }
    } else {
        match m {
            1 => 100,
            10 => 30,
            _ => 10,
        }
    }
}

/// Retention policy per system (Appendix A).
pub fn policy_for(profile: &MachineProfile) -> FilterPolicy {
    if profile.name.starts_with("titan") {
        FilterPolicy::TITAN
    } else {
        FilterPolicy::HYDRA
    }
}

/// Default noise configuration per system: Hydra was comparatively quiet
/// (after disabling Intel MPI's shm device), Titan showed heavy variation
/// at scale (§4.1.2, Figure 7).
pub fn noise_for(profile: &MachineProfile) -> NoiseModel {
    if profile.name.starts_with("titan") {
        NoiseModel::Bimodal {
            events_per_rank_sec: 2.0,
            scale: 300e-6,
            mode_per_rank_run: 3e-5,
            extra: 1.5e-3,
        }
    } else {
        NoiseModel::HeavyTail {
            events_per_rank_sec: 0.2,
            scale: 50e-6,
        }
    }
}

fn measure(
    round_costs: &[f64],
    p: usize,
    noise: NoiseModel,
    reps: usize,
    policy: FilterPolicy,
    rng: &mut ChaCha8Rng,
) -> Summary {
    let samples: Vec<f64> = (0..reps)
        .map(|_| noise.sample_completion(round_costs, p, rng))
        .collect();
    Summary::of(&policy.apply(&samples))
}

/// The per-round base costs of the four series for per-neighbor block
/// sizes `sizes_b` (bytes): the library baseline twice, then the trivial
/// plan of `combining`'s collective and `combining` itself, each priced
/// over its own round bytes.
fn series_costs(
    profile: &MachineProfile,
    nb: &RelNeighborhood,
    combining: &Plan,
    sizes_b: &[usize],
    quirks: bool,
) -> [Vec<f64>; 4] {
    let rounds = |plan: &Plan| profile.round_costs(&plan.round_bytes(&|i| sizes_b[i]));
    [
        profile.baseline_rounds(sizes_b, true, quirks),
        profile.baseline_rounds(sizes_b, false, quirks),
        rounds(&trivial_plan(nb, combining.kind)),
        rounds(combining),
    ]
}

/// Price and "measure" one regular alltoall figure cell.
pub fn simulate_alltoall_series(
    profile: &MachineProfile,
    nb: &RelNeighborhood,
    m_ints: usize,
    quirks: bool,
    noise: NoiseModel,
    seed: u64,
) -> Vec<FigureRow> {
    let sizes_b = vec![m_ints * 4; nb.len()]; // MPI_INT
    let costs = series_costs(profile, nb, &alltoall_plan(nb), &sizes_b, quirks);
    finish_series(profile, &costs, m_ints, noise, seed)
}

/// Price and "measure" one regular allgather figure cell.
pub fn simulate_allgather_series(
    profile: &MachineProfile,
    nb: &RelNeighborhood,
    m_ints: usize,
    quirks: bool,
    noise: NoiseModel,
    seed: u64,
) -> Vec<FigureRow> {
    let sizes_b = vec![m_ints * 4; nb.len()];
    let costs = series_costs(profile, nb, &allgather_plan(nb), &sizes_b, quirks);
    finish_series(profile, &costs, m_ints, noise, seed)
}

/// The Figure 6 irregular block sizes: a neighbor whose offset has `z`
/// non-zero coordinates gets `m·(d−z)` elements, and the self block (z=0)
/// gets 0 — resembling faces, edges and corners of a halo exchange.
pub fn v_block_sizes(nb: &RelNeighborhood, m_ints: usize) -> Vec<usize> {
    let d = nb.ndims();
    nb.hops()
        .iter()
        .map(|&z| if z == 0 { 0 } else { m_ints * (d - z) })
        .collect()
}

/// Price and "measure" one irregular alltoallv figure cell with the
/// Figure 6 block-size rule.
pub fn simulate_alltoallv_series(
    profile: &MachineProfile,
    nb: &RelNeighborhood,
    m_ints: usize,
    quirks: bool,
    noise: NoiseModel,
    seed: u64,
) -> Vec<FigureRow> {
    let sizes_b: Vec<usize> = v_block_sizes(nb, m_ints).iter().map(|&e| e * 4).collect();
    let costs = series_costs(profile, nb, &alltoall_plan(nb), &sizes_b, quirks);
    finish_series(profile, &costs, m_ints, noise, seed)
}

fn finish_series(
    profile: &MachineProfile,
    costs: &[Vec<f64>; 4],
    m_ints: usize,
    noise: NoiseModel,
    seed: u64,
) -> Vec<FigureRow> {
    let reps = reps_for(profile, m_ints);
    let policy = policy_for(profile);
    let p = profile.processes;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let kinds = [
        SeriesKind::NeighborBlocking,
        SeriesKind::NeighborNonblocking,
        SeriesKind::CartTrivial,
        SeriesKind::CartCombining,
    ];
    let summaries: Vec<Summary> = costs
        .iter()
        .map(|c| measure(c, p, noise, reps, policy, &mut rng))
        .collect();
    let baseline = summaries[0].mean;
    kinds
        .iter()
        .zip(summaries.iter())
        .map(|(&kind, s)| FigureRow {
            kind,
            absolute_ms: s.mean * 1e3,
            relative: s.mean / baseline,
            ci95_relative: s.ci95_half_width / baseline,
        })
        .collect()
}

/// Render one figure cell as aligned text rows.
pub fn print_cell(d: usize, n: usize, m: usize, op: &str, rows: &[FigureRow]) {
    println!("d: {d}  n: {n}  m: {m}");
    for r in rows {
        println!(
            "  {:<38} abs {:>12.3} ms   rel {:>8.3}  (±{:.3})",
            r.kind.label(op),
            r.absolute_ms,
            r.relative,
            r.ci95_relative
        );
    }
}

/// Shared driver for the Figure 3/4/5 binaries.
pub fn run_alltoall_figure(profile: &MachineProfile, quirks: bool, seed: u64) {
    println!(
        "Relative performance of trivial and message-combining Cart_alltoall implementations."
    );
    println!(
        "Baseline: MPI_Neighbor_alltoall; {} processes, {} ({}){}",
        profile.processes,
        profile.library,
        profile.name,
        if quirks {
            " — library-defect emulation ON"
        } else {
            " — ideal baseline (no library defects)"
        }
    );
    println!();
    let noise = noise_for(profile);
    for (d, n) in [(3usize, 3usize), (3, 5), (5, 3), (5, 5)] {
        let nb = RelNeighborhood::stencil_family(d, n, -1).expect("valid stencil");
        let cs = CostSummary::of(&nb);
        println!(
            "--- d={d} n={n}: t={}, C={}, V={}, cutoff ratio {} ---",
            cs.t,
            cs.rounds,
            cs.alltoall_volume,
            cs.cutoff.map_or("-".to_string(), |c| format!("{c:.3}")),
        );
        for m in [1usize, 10, 100] {
            let rows =
                simulate_alltoall_series(profile, &nb, m, quirks, noise, seed ^ hash3(d, n, m));
            print_cell(d, n, m, "alltoall", &rows);
        }
        println!();
    }
}

/// Deterministic per-cell seed mixing.
pub fn hash3(a: usize, b: usize, c: usize) -> u64 {
    (a as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((b as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_add(c as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_sim::NoiseModel::Quiet;

    fn titan() -> MachineProfile {
        MachineProfile::titan_cray()
    }

    fn rel(rows: &[FigureRow], k: SeriesKind) -> f64 {
        rows.iter().find(|r| r.kind == k).unwrap().relative
    }

    fn abs_ms(rows: &[FigureRow], k: SeriesKind) -> f64 {
        rows.iter().find(|r| r.kind == k).unwrap().absolute_ms
    }

    #[test]
    fn combining_wins_small_blocks_on_clean_baseline() {
        // The Figure 5 shape: for m=1 the combining algorithm is well below
        // the baseline; the trivial one is roughly at the baseline (Titan's
        // injection overhead ≈ α).
        let nb = RelNeighborhood::stencil_family(5, 5, -1).unwrap();
        let rows = simulate_alltoall_series(&titan(), &nb, 1, false, Quiet, 7);
        assert!(
            rel(&rows, SeriesKind::CartCombining) < 0.3,
            "combining should crush the baseline at m=1: {}",
            rel(&rows, SeriesKind::CartCombining)
        );
        let tr = rel(&rows, SeriesKind::CartTrivial);
        assert!(tr > 0.8 && tr < 1.6, "trivial ~ baseline on Titan: {tr}");
        assert!((rel(&rows, SeriesKind::NeighborBlocking) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn combining_loses_to_trivial_past_cutoff() {
        // d=5 n=5: ratio 0.331, titan alpha/beta ≈ 28.6 kB → cut-over vs the
        // trivial algorithm at ≈ 9.5 kB blocks.
        let nb = RelNeighborhood::stencil_family(5, 5, -1).unwrap();
        let rows = simulate_alltoall_series(&titan(), &nb, 10_000, false, Quiet, 7);
        assert!(
            abs_ms(&rows, SeriesKind::CartCombining) > abs_ms(&rows, SeriesKind::CartTrivial),
            "combining must lose to trivial for huge blocks"
        );
        // and for tiny blocks it wins
        let rows = simulate_alltoall_series(&titan(), &nb, 1, false, Quiet, 7);
        assert!(abs_ms(&rows, SeriesKind::CartCombining) < abs_ms(&rows, SeriesKind::CartTrivial));
    }

    #[test]
    fn crossover_position_tracks_cutoff_formula() {
        let nb = RelNeighborhood::stencil_family(3, 5, -1).unwrap();
        let cs = CostSummary::of(&nb);
        let prof = titan();
        let cutoff_bytes = prof.net.alpha_beta_bytes() * cs.cutoff.unwrap();
        let below = ((cutoff_bytes * 0.5) / 4.0) as usize;
        let above = ((cutoff_bytes * 3.0) / 4.0) as usize;
        let rows_b = simulate_alltoall_series(&prof, &nb, below, false, Quiet, 3);
        let rows_a = simulate_alltoall_series(&prof, &nb, above, false, Quiet, 3);
        assert!(
            abs_ms(&rows_b, SeriesKind::CartCombining) < abs_ms(&rows_b, SeriesKind::CartTrivial)
        );
        assert!(
            abs_ms(&rows_a, SeriesKind::CartCombining) > abs_ms(&rows_a, SeriesKind::CartTrivial)
        );
    }

    #[test]
    fn quirks_blow_up_the_baseline_only() {
        let prof = MachineProfile::hydra_openmpi();
        let noise = noise_for(&prof);
        let nb = RelNeighborhood::stencil_family(5, 5, -1).unwrap();
        let clean = simulate_alltoall_series(&prof, &nb, 1, false, noise, 5);
        let quirked = simulate_alltoall_series(&prof, &nb, 1, true, noise, 5);
        // baseline inflated by ~50us * 3124 ≈ 156 ms (Figure 3's 164 ms)
        assert!(abs_ms(&quirked, SeriesKind::NeighborBlocking) > 100.0);
        assert!(abs_ms(&clean, SeriesKind::NeighborBlocking) < 50.0);
        // combining unaffected in absolute terms
        let c_clean = abs_ms(&clean, SeriesKind::CartCombining);
        let c_quirk = abs_ms(&quirked, SeriesKind::CartCombining);
        assert!((c_clean - c_quirk).abs() / c_clean < 0.2);
        // relative improvement becomes enormous, like Figure 3's d=5 n=5
        assert!(
            rel(&quirked, SeriesKind::CartCombining) < 0.02,
            "expected >50x improvement, rel = {}",
            rel(&quirked, SeriesKind::CartCombining)
        );
    }

    #[test]
    fn intel_rendezvous_cliff_only_at_m100() {
        let prof = MachineProfile::hydra_intelmpi();
        let nb = RelNeighborhood::stencil_family(5, 3, -1).unwrap();
        let m10 = simulate_alltoall_series(&prof, &nb, 10, true, Quiet, 5);
        let m100 = simulate_alltoall_series(&prof, &nb, 100, true, Quiet, 5);
        // Figure 4: modest factor at m=10, explodes (factor ~250) at m=100.
        let f10 = 1.0 / rel(&m10, SeriesKind::CartCombining);
        let f100 = 1.0 / rel(&m100, SeriesKind::CartCombining);
        assert!(f10 > 1.5 && f10 < 30.0, "m=10 factor {f10}");
        assert!(f100 > 50.0, "m=100 factor {f100}");
        // Intel MPI's non-blocking path shares the cliff (142.5 ms vs
        // 124.8 ms in Figure 4) ...
        let nb_rel = rel(&m100, SeriesKind::NeighborNonblocking);
        assert!(nb_rel > 0.8 && nb_rel < 1.4, "Ineighbor rel {nb_rel}");
        // ... while Open MPI's does not (0.47 ms in Figure 3).
        let om = MachineProfile::hydra_openmpi();
        let m100_om = simulate_alltoall_series(&om, &nb, 100, true, Quiet, 5);
        assert!(rel(&m100_om, SeriesKind::NeighborNonblocking) < 0.05);
        assert!(rel(&m100_om, SeriesKind::NeighborBlocking) >= 0.999);
    }

    #[test]
    fn allgather_combining_beats_trivial_at_all_block_sizes() {
        // §3.2/Figure 6: allgather combining volume equals trivial volume,
        // so it should win against the trivial algorithm for every m.
        let nb = RelNeighborhood::stencil_family(5, 5, -1).unwrap();
        for m in [1usize, 10, 100, 10_000] {
            let rows = simulate_allgather_series(&titan(), &nb, m, false, Quiet, 11);
            assert!(
                abs_ms(&rows, SeriesKind::CartCombining) < abs_ms(&rows, SeriesKind::CartTrivial),
                "m={m}"
            );
        }
    }

    #[test]
    fn v_block_sizes_follow_figure6_rule() {
        let nb = RelNeighborhood::stencil_family(2, 3, -1).unwrap();
        let sizes = v_block_sizes(&nb, 10);
        for (i, &z) in nb.hops().iter().enumerate() {
            assert_eq!(sizes[i], if z == 0 { 0 } else { 10 * (2 - z) });
        }
        let with_self = RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap();
        let sz = v_block_sizes(&with_self, 10);
        assert_eq!(sz[4], 0, "self block empty");
    }

    #[test]
    fn alltoallv_series_shape_on_titan() {
        // Figure 6 bottom: Cray, d=5 n=5, big combining win at m=10.
        let nb = RelNeighborhood::stencil_family(5, 5, -1).unwrap();
        let noise = noise_for(&titan());
        let rows = simulate_alltoallv_series(&titan(), &nb, 10, false, noise, 13);
        assert!(
            rel(&rows, SeriesKind::CartCombining) < 0.5,
            "expected a clear combining win, rel = {}",
            rel(&rows, SeriesKind::CartCombining)
        );
    }

    #[test]
    fn noise_widens_but_keeps_ordering_at_m1() {
        // With the calibrated Titan noise the small-block ranking persists
        // through the Appendix-A filtering.
        let nb = RelNeighborhood::stencil_family(3, 3, -1).unwrap();
        let rows = simulate_alltoall_series(&titan(), &nb, 1, false, noise_for(&titan()), 17);
        assert!(
            rel(&rows, SeriesKind::CartCombining) < 1.0,
            "combining still wins under noise: {}",
            rel(&rows, SeriesKind::CartCombining)
        );
    }

    #[test]
    fn reps_and_policy_match_paper() {
        let h = MachineProfile::hydra_openmpi();
        let t = titan();
        assert_eq!(reps_for(&h, 1), 100);
        assert_eq!(reps_for(&h, 10), 30);
        assert_eq!(reps_for(&h, 100), 10);
        assert_eq!(reps_for(&t, 1), 300);
        assert_eq!(reps_for(&t, 10), 50);
        assert_eq!(reps_for(&t, 100), 40);
        assert_eq!(policy_for(&h), FilterPolicy::HYDRA);
        assert_eq!(policy_for(&t), FilterPolicy::TITAN);
    }

    #[test]
    fn trivial_slower_than_baseline_on_hydra_but_not_titan() {
        // The o-vs-α story: Figure 3 showed the blocking sendrecv loop a
        // factor 2-3 over the library baseline on Hydra; Figure 5 showed
        // parity on Titan.
        let nb = RelNeighborhood::stencil_family(3, 3, -1).unwrap();
        let hydra =
            simulate_alltoall_series(&MachineProfile::hydra_openmpi(), &nb, 1, false, Quiet, 1);
        let titan_rows = simulate_alltoall_series(&titan(), &nb, 1, false, Quiet, 1);
        let h = rel(&hydra, SeriesKind::CartTrivial);
        let t = rel(&titan_rows, SeriesKind::CartTrivial);
        assert!(h > 1.5 && h < 4.0, "hydra trivial factor {h}");
        assert!(t > 0.9 && t < 1.3, "titan trivial factor {t}");
    }
}
