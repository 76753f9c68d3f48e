//! Roofline-aware dispatch: the properties the routing layer rests on.
//!
//! Three contracts, checked end to end through the public engine API:
//!
//! 1. **The ridge flip is monotone.** Sweeping the output width `c`
//!    across the device's ridge point flips the band kernel's
//!    [`venom_sim::Roofline::memory_bound`] from memory- to
//!    compute-bound *exactly once* — arithmetic intensity is strictly
//!    increasing in `c` under the band counts model, so there is one
//!    crossing, not a threshold band the router could oscillate in.
//! 2. **Winner pins.** The fig. 9 wide bound (c = 4096) stays on the
//!    Spatha `mma.sp` stream; the tall-skinny c = 8 bound routes to the
//!    band path — both as *emergent* outcomes of `plan_auto`'s cost
//!    minimisation, no hard-coded threshold anywhere.
//! 3. **Bit-exactness across the V x N:M grid.** The band replay and
//!    the swapped-operand per-call kernel agree with `spmm_ref` (and
//!    with the mma-stream plan) to the bit for every probed pattern.

use proptest::prelude::*;
use venom_runtime::{Engine, MatmulFormat, Regime, VnmConfig};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn dev() -> DeviceConfig {
    DeviceConfig::rtx3090()
}

/// A compliant V:2:M weight (keep the first two columns of each group).
fn vnm_dense(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> Matrix<venom_fp16::Half> {
    let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
    let mask = venom_format::SparsityMask::from_fn(r, k, |_, c| c % cfg.m < cfg.n);
    mask.apply_f32(&w).to_half()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweeping `c` from 1 past the ridge point flips the band kernel's
    /// regime memory -> compute exactly once: the counts model charges
    /// `B` and the output linearly in `c` against a constant stream, so
    /// intensity is strictly increasing and there is a single crossing.
    #[test]
    fn band_regime_flips_exactly_once_across_the_ridge(
        r in prop::sample::select(vec![512usize, 768, 1024, 1536]),
        k in prop::sample::select(vec![512usize, 768, 1280]),
        m in prop::sample::select(vec![8usize, 10, 16]),
        seed in 0u64..1000,
    ) {
        let nnz = r * k * 2 / m; // the 2:M density of the stream
        let _ = seed;
        let mut flips = 0usize;
        let mut prev_bound = None;
        let mut prev_intensity = 0.0f64;
        let mut c = 1usize;
        while c <= 1 << 16 {
            let counts = venom_core::build_counts_band(r, k, c, nnz);
            let roof = venom_sim::roofline::analyze(&dev(), &counts);
            prop_assert!(
                roof.intensity > prev_intensity,
                "intensity must be strictly increasing in c (c={c})"
            );
            prev_intensity = roof.intensity;
            if let Some(prev) = prev_bound {
                match (prev, roof.memory_bound) {
                    (true, false) => flips += 1,
                    (false, true) => prop_assert!(
                        false,
                        "regime flipped back to memory-bound at c={c}"
                    ),
                    _ => {}
                }
            }
            prev_bound = Some(roof.memory_bound);
            c *= 2;
        }
        prop_assert_eq!(flips, 1, "r={} k={} m={}", r, k, m);
    }
}

#[test]
fn winner_pins_hold_on_both_sides_of_the_ridge() {
    let cfg = VnmConfig::new(128, 2, 10);
    let w = vnm_dense(1024, 768, cfg, 7);

    // Left of the ridge (the acceptance shape r=1024 k=768 c=8): the
    // band path must win and report the memory regime.
    let small = Engine::new(dev()).with_b_cols_hint(8);
    let plan = small.plan_auto_hinted(&small.descriptor(1024, 768), &w, Some(cfg));
    assert_eq!(plan.format(), MatmulFormat::Vnm);
    assert_eq!(plan.path(), "band", "cost {:?}", plan.cost_ms());
    assert_eq!(plan.regime(small.device()), Some(Regime::MemoryBound));

    // Right of the ridge (fig. 9's c=4096): the mma stream must win.
    let wide = Engine::new(dev()).with_b_cols_hint(4096);
    let plan = wide.plan_auto_hinted(&wide.descriptor(1024, 768), &w, Some(cfg));
    assert_eq!(plan.format(), MatmulFormat::Vnm);
    assert_eq!(plan.path(), "vnm", "cost {:?}", plan.cost_ms());
    assert_eq!(plan.regime(wide.device()), Some(Regime::ComputeBound));
}

#[test]
fn tall_skinny_routes_to_the_band_path() {
    // r >> c with low-reuse k: the mma pipeline cannot amortize its
    // staging traffic, the band stream can.
    let cfg = VnmConfig::new(64, 2, 8);
    let w = vnm_dense(2048, 512, cfg, 9);
    let engine = Engine::new(dev()).with_b_cols_hint(8);
    let plan = engine.plan_auto_hinted(&engine.descriptor(2048, 512), &w, Some(cfg));
    assert_eq!(plan.path(), "band", "cost {:?}", plan.cost_ms());
    let b = random::normal_matrix(512, 8, 0.0, 1.0, 10).to_half();
    assert_eq!(plan.run(&b), plan.run_oneshot(&b));
}

#[test]
fn band_paths_are_bit_identical_across_the_config_grid() {
    // The conformance grid: every probed V x N:M pattern must agree to
    // the bit between spmm_ref, the band plan's staged replay, the
    // swapped-operand per-call kernel, and the mma-stream plan.
    for &v in &[16usize, 32, 64, 128] {
        for &m in &[8usize, 10, 16] {
            let cfg = VnmConfig::new(v, 2, m);
            let (r, k) = (2 * v, 10 * m);
            let w = vnm_dense(r, k, cfg, (v * m) as u64);
            let engine = Engine::new(dev()).with_b_cols_hint(24);
            let desc = engine.descriptor(r, k);
            let band = engine
                .plan_band(&desc, &w, Some(cfg))
                .expect("K fits 16-bit indices");
            let mma = engine
                .plan_with_format(MatmulFormat::Vnm, &desc, &w)
                .expect("compliant structure");
            let b = random::normal_matrix(k, 24, 0.0, 1.0, (v + m) as u64).to_half();
            let reference = mma.run_oneshot(&b);
            assert_eq!(band.run(&b), reference, "V={v} M={m}: band replay");
            assert_eq!(
                band.run_oneshot(&b),
                reference,
                "V={v} M={m}: swapped kernel"
            );
            assert_eq!(mma.run(&b), reference, "V={v} M={m}: mma stream");
        }
    }
}
