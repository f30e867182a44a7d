//! Property-based validation of the noise sampler's basic laws.

use cartcomm_sim::NoiseModel;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Noise sampling never goes below the base cost and is deterministic
    /// for a fixed seed.
    #[test]
    fn noise_laws(
        seed in any::<u64>(),
        costs in proptest::collection::vec(0.0f64..1e-3, 1..6),
        p_exp in 5u32..15,
    ) {
        let p = 1usize << p_exp;
        let noise = NoiseModel::HeavyTail { events_per_rank_sec: 2.0, scale: 1e-4 };
        let base: f64 = costs.iter().sum();
        let mut rng1 = ChaCha8Rng::seed_from_u64(seed);
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
        let a = noise.sample_completion(&costs, p, &mut rng1);
        let b = noise.sample_completion(&costs, p, &mut rng2);
        prop_assert!(a >= base - 1e-18);
        prop_assert_eq!(a, b, "same seed, same sample");
    }
}
