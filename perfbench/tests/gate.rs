//! The benchmark's own checks: seeded inputs are reproducible, the
//! correctness gate can fail, and the benchmark-side re-compositions of
//! library calls match the library's own entry points bit for bit.
//! Shapes are shrunk so the checks run in seconds.

use perfbench::prefill::{self, PrefillSpec};
use perfbench::serve::{self, Planner, Scheme, ServeSpec};
use perfbench::{bit_equal, device, RunOpts};
use venom_dnn::{TransformerConfig, TransformerEncoder};
use venom_runtime::{AttentionMask, Engine, MatmulFormat, VnmConfig};
use venom_tensor::random;

fn mini_hot() -> ServeSpec {
    ServeSpec {
        name: "mini_hot",
        planner: Planner::Format(MatmulFormat::Vnm),
        weights: vec![(256, 160, Scheme::Vnm(128, 2, 10))],
        rate: 400.0,
        zipf: None,
        backlog: 64,
        popularity: vec![0],
        cold_keys: None,
        pool: 4,
        setup_reps: 1,
    }
}

fn mini_churn() -> ServeSpec {
    ServeSpec {
        name: "mini_churn",
        planner: Planner::Auto,
        weights: vec![
            (128, 128, Scheme::Vnm(64, 2, 8)),
            (128, 128, Scheme::TwoFour),
            (128, 128, Scheme::Unstructured(0.95)),
            (128, 128, Scheme::Block(32, 0.9)),
        ],
        rate: 200.0,
        zipf: Some(1.0),
        backlog: 64,
        popularity: vec![0, 1, 2, 3],
        cold_keys: Some(2),
        pool: 2,
        setup_reps: 2,
    }
}

fn mini_prefill() -> PrefillSpec {
    PrefillSpec {
        config: TransformerConfig::new("mini", 64, 4, 2, 128, 32),
        pattern: (16, 2, 8),
        pool: 2,
        setup_reps: 1,
        min_forwards: 3,
    }
}

#[test]
fn same_seed_same_fingerprint_other_seed_other_fingerprint() {
    for spec in [mini_hot(), mini_churn()] {
        let a = serve::generate(&spec, 7, 1.0).fingerprint;
        assert_eq!(
            a,
            serve::generate(&spec, 7, 1.0).fingerprint,
            "{}",
            spec.name
        );
        assert_ne!(
            a,
            serve::generate(&spec, 8, 1.0).fingerprint,
            "{}",
            spec.name
        );
    }
    let spec = mini_prefill();
    let a = prefill::generate(&spec, 7).fingerprint;
    assert_eq!(a, prefill::generate(&spec, 7).fingerprint);
    assert_ne!(a, prefill::generate(&spec, 8).fingerprint);
}

#[test]
fn serving_runs_pass_the_gate_and_a_planted_corruption_fails_it() {
    for spec in [mini_hot(), mini_churn()] {
        let clean = serve::run(&spec, 3, 0.4, &RunOpts::default()).expect("clean run");
        assert!(clean.correct, "{}: clean run must pass", spec.name);
        assert_eq!(clean.failed, 0, "{}", spec.name);
        assert!(clean.attempted > 0);
        // One output in the open-loop phase, one in the first drain.
        let phase_a = serve::generate(&spec, 3, 0.4).phase_a.len();
        for corrupt in [2, phase_a + 5] {
            let opts = RunOpts {
                trace: false,
                corrupt: Some(corrupt),
            };
            let bad = serve::run(&spec, 3, 0.4, &opts).expect("corrupted run");
            assert!(
                !bad.correct,
                "{}: corrupting output {corrupt} must fail",
                spec.name
            );
        }
    }
}

#[test]
fn the_binary_exits_non_zero_on_a_mismatch() {
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "serve_hot",
                "--seed",
                "2",
                "--seconds",
                "0.5",
                "--trace",
                "0",
            ])
            .args(extra)
            .output()
            .expect("run the benchmark binary")
    };
    let clean = run(&[]);
    assert_eq!(clean.status.code(), Some(0));
    let last = String::from_utf8_lossy(&clean.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let bad = run(&["--corrupt", "3"]);
    assert_eq!(bad.status.code(), Some(1));
    let last = String::from_utf8_lossy(&bad.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string();
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    assert_eq!(run(&["--workload", "nope"]).status.code(), Some(2));
}

#[test]
fn prefill_gate_fails_on_a_planted_corruption() {
    let spec = mini_prefill();
    assert!(
        prefill::run(&spec, 3, 0.1, &RunOpts::default())
            .expect("run")
            .correct
    );
    let opts = RunOpts {
        trace: false,
        corrupt: Some(1),
    };
    assert!(!prefill::run(&spec, 3, 0.1, &opts).expect("run").correct);
}

#[test]
fn traced_runs_report_layers() {
    perfbench::trace::set_enabled(true);
    let spec = mini_churn();
    let out = serve::run(
        &spec,
        5,
        0.4,
        &RunOpts {
            trace: true,
            corrupt: None,
        },
    )
    .expect("run");
    assert!(out.correct);
    assert!(out.layers.get("cache.hit_ratio").is_some());
    assert!(out.layers.get("serve.formats_served").unwrap_or(0.0) >= 1.0);
    let spec = mini_prefill();
    let out = prefill::run(
        &spec,
        5,
        0.1,
        &RunOpts {
            trace: true,
            corrupt: None,
        },
    )
    .expect("run");
    assert!(
        out.correct,
        "the block decomposition must match SparseEncoderBlock::forward"
    );
    let attn = out
        .layers
        .get("attn.attention_ms")
        .expect("attention bucket");
    assert!(attn > 0.0);
}

#[test]
fn spelled_out_setup_matches_sparsify_and_adopt() {
    let spec = mini_prefill();
    let c = spec.config;
    let dense = TransformerEncoder::new(c, 11);
    let ours = prefill::build_stack(&spec, &dense).expect("build");
    let engine = Engine::new(device());
    let mut lib = dense.sparsify(&engine, VnmConfig::new(16, 2, 8));
    lib.adopt_planned_attention(&engine, c.seq_len, &AttentionMask::Causal)
        .expect("adopt");
    let x = random::activation_matrix(c.seq_len, c.hidden, 12);
    let y = ours.forward(&x);
    assert!(bit_equal(&y, &lib.forward(&x)));
    assert!(bit_equal(&y, &prefill::forward_decomposed(&ours, &x).0));
    assert!(bit_equal(&y, &ours.forward_percall(&x)));
}
