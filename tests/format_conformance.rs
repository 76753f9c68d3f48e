//! Format-conformance suite for the unified matmul surface.
//!
//! One generic harness asserts, for **every** `SparseKernel` implementor
//! (the five sparse formats plus dense), that the full
//! compress → plan → run chain is bit-identical to the format's own
//! `spmm_ref` oracle — across the V x N:M grid, including an
//! all-dense (unpruned) weight and weights with fully empty rows. The
//! same harness checks the per-call trait path and the fused (and
//! pre-staged) linear chain, so any new `SparseKernel` implementor
//! inherits the whole contract by being added to one list.

use std::sync::Arc;
use venom::format::{MatmulFormat, SparseKernel, SparsityMask};
use venom::prelude::*;
use venom::pruner::magnitude;
use venom::runtime::stage;
use venom::tensor::random;

/// The conformance grid: every supported vector length crossed with the
/// paper's most-used N:M patterns.
const GRID_V: [usize; 3] = [8, 16, 64];
const GRID_NM: [(usize, usize); 3] = [(2, 8), (2, 10), (2, 16)];

fn engine() -> Engine {
    Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(48)
}

/// Formats whose eligibility never depends on the nonzero structure
/// (given block-divisible shapes for Blocked-ELL).
const ALWAYS_ELIGIBLE: [MatmulFormat; 4] = [
    MatmulFormat::Csr,
    MatmulFormat::Cvse,
    MatmulFormat::BlockedEll,
    MatmulFormat::Dense,
];

/// The generic conformance check: plans `weights` in `format` through
/// the engine and asserts every run path against the plan's own dense
/// reconstruction oracle and per-call dispatch.
fn check_format(engine: &Engine, format: MatmulFormat, weights: &Matrix<Half>, tag: &str) {
    let desc = engine.descriptor(weights.rows(), weights.cols());
    let plan_in = |w: &Matrix<Half>| {
        engine
            .plan_with_format(format, &desc, w)
            .unwrap_or_else(|e| panic!("{tag}: {e}"))
    };
    check_plan(format, weights, plan_in, tag);
}

/// [`check_format`]'s contract for any planner: `plan_in` plans a weight
/// in `format` (it is called on `weights` and on the plan's dense
/// reconstruction).
fn check_plan(
    format: MatmulFormat,
    weights: &Matrix<Half>,
    plan_in: impl Fn(&Matrix<Half>) -> Arc<dyn MatmulPlan>,
    tag: &str,
) {
    let plan = plan_in(weights);
    assert_eq!(plan.format(), format, "{tag}");

    // compress -> plan -> run must reproduce the format's spmm_ref (the
    // per-call trait path IS the format's reference-equal staged kernel).
    let b = random::normal_matrix(weights.cols(), 19, 0.0, 1.0, 7).to_half();
    let got = plan.run(&b);
    assert_eq!(got, plan.run_oneshot(&b), "{tag}: planned vs per-call");

    // The compression is lossless over the kept entries: re-planning the
    // dense reconstruction in the same format reproduces the same bits.
    let replanned = plan_in(&plan.weight_dense());
    assert_eq!(replanned.run(&b), got, "{tag}: re-planned reconstruction");

    // Batched dispatch equals separate runs.
    let b2 = random::normal_matrix(weights.cols(), 5, 0.0, 1.0, 8).to_half();
    let batch = plan.run_batch(&[&b, &b2]);
    assert_eq!(batch[0], got, "{tag}: batch[0]");
    assert_eq!(batch[1], plan.run(&b2), "{tag}: batch[1]");

    // The fused layer chain equals the per-call layer chain.
    let x = random::activation_matrix(11, weights.cols(), 9);
    let bias: Vec<f32> = (0..weights.rows())
        .map(|i| (i as f32) * 0.01 - 0.2)
        .collect();
    let fused = plan.run_linear(&x, &bias);
    assert_eq!(
        fused,
        plan.run_linear_percall(&x, &bias),
        "{tag}: fused linear"
    );
    // And over an operand staged once for sibling layers.
    let staged = stage::stage_activations_t(&x);
    assert_eq!(
        plan.run_linear_staged(&staged, x.rows(), &bias),
        fused,
        "{tag}: staged linear"
    );
}

/// Direct trait-level oracle check for a concrete kernel value.
fn check_kernel_oracle(kernel: &dyn SparseKernel, b: &Matrix<Half>, tag: &str) {
    assert_eq!(
        kernel.spmm_parallel(b),
        kernel.spmm_ref(b),
        "{tag}: parallel vs ref"
    );
}

#[test]
fn every_format_conforms_across_the_vnm_grid() {
    let engine = engine();
    for v in GRID_V {
        for (n, m) in GRID_NM {
            let cfg = VnmConfig::new(v, n, m);
            // Partial row blocks and a partial K group; 64 rows keeps the
            // Blocked-ELL block sizes dividing (pad rows via v multiples).
            let (r, k) = (2 * v.max(16), 4 * m);
            let w = random::normal_matrix(r, k, 0.0, 1.0, v as u64 + m as u64);
            let mask = magnitude::prune_vnm(&w, cfg);
            let pruned = mask.apply_f32(&w).to_half();
            let tag = format!("V={v} {n}:{m}");

            // V:N:M itself (the compress -> plan -> run acceptance path).
            let vnm = VnmMatrix::compress(&pruned, &mask, cfg);
            let b = random::normal_matrix(k, 13, 0.0, 1.0, 3).to_half();
            check_kernel_oracle(&vnm, &b, &format!("{tag} vnm"));
            let plan = engine.plan_spmm(&vnm);
            assert_eq!(plan.run(&b), vnm.spmm_ref(&b), "{tag}: vnm plan vs oracle");
            check_plan(
                MatmulFormat::Vnm,
                &pruned,
                |w| Arc::new(engine.plan_spmm(&VnmMatrix::compress(w, &mask, cfg))),
                &format!("{tag} plan_spmm"),
            );

            for f in ALWAYS_ELIGIBLE {
                check_format(&engine, f, &pruned, &format!("{tag} {f}"));
            }
            // The unpriced dense plan a `Linear` layer holds.
            check_plan(
                MatmulFormat::Dense,
                &pruned,
                |w| Arc::new(FormatPlan::new(Arc::new(w.clone()))),
                &format!("{tag} unpriced dense"),
            );
            // The engine's vnm path re-detects the pattern from zeros —
            // only for kernel-launchable V (the probed grid starts at 16;
            // V=8 weights plan through `plan_spmm` as above).
            if v >= 16 {
                check_format(
                    &engine,
                    MatmulFormat::Vnm,
                    &pruned,
                    &format!("{tag} vnm-redetect"),
                );
            }
        }
    }
}

#[test]
fn nm_format_conforms_on_its_native_pattern() {
    // 2:4 is the one pattern the nm backend serves; check it end to end.
    let engine = engine();
    let dense = random::normal_matrix(32, 64, 0.0, 1.0, 11).to_half();
    let a = venom::format::NmCompressed::compress_magnitude(&dense, NmConfig::new(2, 4));
    let pruned = a.decompress();
    let b = random::normal_matrix(64, 9, 0.0, 1.0, 12).to_half();
    check_kernel_oracle(&a, &b, "nm 2:4");
    check_format(&engine, MatmulFormat::Nm, &pruned, "nm 2:4");
}

#[test]
fn empty_rows_conform_in_every_format() {
    // Rows 3..8 fully pruned: row_ptr runs of zero length, empty CVSE
    // vectors, empty ELL block rows.
    let engine = engine();
    let w = random::normal_matrix(16, 32, 0.0, 1.0, 13);
    let mask = SparsityMask::from_fn(16, 32, |r, c| !(3..8).contains(&r) && c % 4 < 2);
    let pruned = mask.apply_f32(&w).to_half();
    for f in ALWAYS_ELIGIBLE {
        check_format(&engine, f, &pruned, &format!("empty-rows {f}"));
    }
    // The 2:4-compliant mask also serves the nm and vnm backends.
    check_format(&engine, MatmulFormat::Nm, &pruned, "empty-rows nm");
    check_format(&engine, MatmulFormat::Vnm, &pruned, "empty-rows vnm");
}

#[test]
fn all_dense_weights_conform_where_eligible() {
    // An unpruned weight: vnm/nm are structurally ineligible (and must
    // say so); the others serve it as stored-dense.
    let engine = engine();
    let w = random::glorot_matrix(32, 32, 14).to_half();
    for f in ALWAYS_ELIGIBLE {
        check_format(&engine, f, &w, &format!("all-dense {f}"));
    }
    let desc = engine.descriptor(32, 32);
    for f in [MatmulFormat::Vnm, MatmulFormat::Nm] {
        let err = engine.plan_with_format(f, &desc, &w).unwrap_err();
        assert!(
            !err.to_string().is_empty(),
            "{f} must explain ineligibility"
        );
    }
}

#[test]
fn plan_auto_picks_csr_for_unstructured_high_sparsity() {
    // Fig. 13: above ~90% unstructured sparsity, Sputnik's CSR kernel is
    // the winning implementation (no N:M or vector structure exists for
    // the tensor-core formats, and dense pays for every zero). plan_auto
    // must land there on the paper shape.
    let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
    let w = {
        let d = random::normal_matrix(1024, 4096, 0.0, 1.0, 21);
        let mask = SparsityMask::from_fn(1024, 4096, |r, c| {
            ((r * 131 + c * 37 + 5) % 10_000) as f64 / 10_000.0 >= 0.95
        });
        mask.apply_f32(&d).to_half()
    };
    let plan = engine.plan_auto(&engine.descriptor(1024, 4096), &w);
    assert_eq!(
        plan.format(),
        MatmulFormat::Csr,
        "cost {:?}",
        plan.cost_ms()
    );
    // And it genuinely beats the dense plan's price.
    let dense = engine
        .plan_with_format(MatmulFormat::Dense, &engine.descriptor(1024, 4096), &w)
        .unwrap();
    assert!(plan.cost_ms().unwrap() < dense.cost_ms().unwrap());
}

#[test]
fn fully_empty_weight_conforms() {
    // The degenerate all-zero weight plans and produces all-zero output
    // in every always-eligible format.
    let engine = engine();
    let w = Matrix::<Half>::zeros(16, 16);
    let b = random::normal_matrix(16, 7, 0.0, 1.0, 15).to_half();
    for f in ALWAYS_ELIGIBLE {
        let plan = engine
            .plan_with_format(f, &engine.descriptor(16, 16), &w)
            .unwrap();
        let out = plan.run(&b);
        assert!(
            out.as_slice().iter().all(|&x| x == 0.0),
            "{f}: zero weight, zero output"
        );
    }
}
