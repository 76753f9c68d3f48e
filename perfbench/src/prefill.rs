//! The long-sequence prefill workload: a closed loop of forwards, one
//! sequence at a time, through a two-layer sparse decoder stack with
//! planned causal attention. Every forward is compared bit for bit with
//! `forward_percall`, computed outside the timed loop.

use std::sync::Arc;
use std::time::Instant;

use venom_dnn::{
    layers::gelu, ExecPath, Linear, PlanStrategy, PlannedLinear, SparseAttention,
    SparseTransformerEncoder, TransformerConfig, TransformerEncoder,
};
use venom_runtime::{AttentionMask, AttentionPlan, Engine, VnmConfig};
use venom_tensor::{random, Matrix};

use crate::gen::{Fingerprint, Rng};
use crate::stats::{self, Metrics};
use crate::trace::{self, Span};
use crate::{bit_equal, device, peak_rss_mb, Outcome, PhaseCount, RunOpts};

#[derive(Clone, Copy, Debug)]
pub struct PrefillSpec {
    pub config: TransformerConfig,
    pub pattern: (usize, usize, usize),
    /// Distinct input sequences; forwards cycle through them.
    pub pool: usize,
    pub setup_reps: usize,
    /// Forwards run at least this many times, whatever `--seconds` says.
    pub min_forwards: usize,
}

impl PrefillSpec {
    pub fn long() -> Self {
        PrefillSpec {
            config: TransformerConfig::new("decoder-2x768", 768, 12, 2, 3072, 1024),
            pattern: (64, 2, 10),
            pool: 2,
            setup_reps: 5,
            min_forwards: 3,
        }
    }

    fn vnm(&self) -> VnmConfig {
        VnmConfig::new(self.pattern.0, self.pattern.1, self.pattern.2)
    }

    fn mask(&self) -> AttentionMask {
        AttentionMask::Causal
    }
}

pub struct Inputs {
    pub dense: TransformerEncoder,
    pub seqs: Vec<Matrix<f32>>,
    pub fingerprint: u64,
}

pub fn generate(spec: &PrefillSpec, seed: u64) -> Inputs {
    let mut rng = Rng::fork(seed, 11);
    let dense = TransformerEncoder::new(spec.config, rng.seed());
    let cfg = spec.config;
    let seqs: Vec<Matrix<f32>> = (0..spec.pool)
        .map(|_| random::activation_matrix(cfg.seq_len, cfg.hidden, rng.seed()))
        .collect();
    let mut fp = Fingerprint::default();
    for s in &seqs {
        fp.f32s(s.as_slice());
    }
    for b in &dense.blocks {
        for p in b.mha.projections() {
            fp.halves(&p.plan.weight_dense());
        }
        fp.halves(b.ff1.weight());
        fp.halves(b.ff2.weight());
    }
    Inputs {
        dense,
        seqs,
        fingerprint: fp.value(),
    }
}

/// Prunes and plans one weight, with the pruner and the engine timed
/// separately; the same steps as `TransformerEncoder::sparsify`.
fn sparsify_one(engine: &Engine, lin: &Linear, cfg: VnmConfig) -> Result<PlannedLinear, String> {
    let mask = {
        let _s = Span::begin("pruner.prune", None);
        venom_pruner::magnitude::prune_vnm(&lin.weight().to_f32(), cfg)
    };
    let _s = Span::begin("engine.plan_build", None);
    lin.to_sparse_with(engine, &mask, cfg, PlanStrategy::Vnm)
        .map_err(|e| e.to_string())
}

/// The program's set-up: the library's `sparsify` followed by
/// `adopt_planned_attention`, spelled out so each layer's share is timed.
pub fn build_stack(
    spec: &PrefillSpec,
    dense: &TransformerEncoder,
) -> Result<SparseTransformerEncoder, String> {
    let engine = Engine::new(device());
    let cfg = spec.vnm();
    let c = spec.config;
    let plan: Arc<AttentionPlan> = {
        let _s = Span::begin("engine.plan_attention", None);
        engine
            .plan_attention(c.seq_len, c.hidden, c.heads, &spec.mask())
            .map_err(|e| e.to_string())?
    };
    let mut blocks = Vec::with_capacity(dense.blocks.len());
    for b in &dense.blocks {
        let mut mha = b.mha.clone();
        for proj in [&mut mha.wq, &mut mha.wk, &mut mha.wv, &mut mha.wo] {
            let lin = Linear::from_half(&proj.plan.weight_dense(), proj.bias.clone());
            *proj = sparsify_one(&engine, &lin, cfg)?;
        }
        blocks.push(venom_dnn::transformer::SparseEncoderBlock {
            planned_attn: Some(SparseAttention {
                mha: mha.clone(),
                plan: Arc::clone(&plan),
            }),
            mha,
            ff1: sparsify_one(&engine, &b.ff1, cfg)?,
            ff2: sparsify_one(&engine, &b.ff2, cfg)?,
            ln1: b.ln1.clone(),
            ln2: b.ln2.clone(),
        });
    }
    Ok(SparseTransformerEncoder {
        config: dense.config,
        blocks,
        ln_final: dense.ln_final.clone(),
        pattern: cfg,
    })
}

fn add_into(h: &mut Matrix<f32>, d: &Matrix<f32>) {
    for (o, a) in h.as_mut_slice().iter_mut().zip(d.as_slice()) {
        *o += a;
    }
}

/// One forward re-run from outside, layer by layer, with a span around
/// each call: ln1 → wq/wk/wv → attention → wo → residual → ln2 → ff1 →
/// gelu → ff2 → residual, then the final norm. Returns the output and
/// each block's output.
pub fn forward_decomposed(
    stack: &SparseTransformerEncoder,
    x: &Matrix<f32>,
) -> (Matrix<f32>, Vec<Matrix<f32>>) {
    let _f = Span::begin("dnn.forward", None);
    let mut h = x.clone();
    let mut outs = Vec::with_capacity(stack.blocks.len());
    for block in &stack.blocks {
        let _b = Span::begin("dnn.block", None);
        let attn = block
            .planned_attn
            .as_ref()
            .expect("the prefill stack plans its attention");
        let ln1 = {
            let _s = Span::begin("dnn.norm", None);
            block.ln1.forward(&h)
        };
        let (q, k, v) = {
            let _s = Span::begin("dnn.linear", None);
            let staged = venom_runtime::stage::stage_activations_t(&ln1);
            let m = &attn.mha;
            (
                m.wq.forward_staged(&staged, ln1.rows()),
                m.wk.forward_staged(&staged, ln1.rows()),
                m.wv.forward_staged(&staged, ln1.rows()),
            )
        };
        let ctx = {
            let _s = Span::begin("attn.attention", None);
            attn.plan.attention(&q, &k, &v)
        };
        let o = {
            let _s = Span::begin("dnn.linear", None);
            attn.mha.wo.forward_via(ExecPath::Planned, &ctx)
        };
        {
            let _s = Span::begin("dnn.residual", None);
            add_into(&mut h, &o);
        }
        let ln2 = {
            let _s = Span::begin("dnn.norm", None);
            block.ln2.forward(&h)
        };
        let f1 = {
            let _s = Span::begin("dnn.linear", None);
            block.ff1.forward(&ln2)
        };
        let g = {
            let _s = Span::begin("dnn.gelu", None);
            gelu(&f1)
        };
        let f2 = {
            let _s = Span::begin("dnn.linear", None);
            block.ff2.forward(&g)
        };
        {
            let _s = Span::begin("dnn.residual", None);
            add_into(&mut h, &f2);
        }
        outs.push(h.clone());
    }
    let y = {
        let _s = Span::begin("dnn.norm", None);
        stack.ln_final.forward(&h)
    };
    (y, outs)
}

pub fn run(spec: &PrefillSpec, seed: u64, seconds: f64, opts: &RunOpts) -> Result<Outcome, String> {
    let inputs = generate(spec, seed);
    let c = spec.config;
    println!(
        "workload prefill_long: seed {seed} fingerprint {:016x} ({} layers, hidden {}, heads {}, ff {}, seq {}, {}:{}:{}, causal)",
        inputs.fingerprint, c.layers, c.hidden, c.heads, c.ff_inner, c.seq_len, spec.pattern.0, spec.pattern.1, spec.pattern.2
    );
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..spec.setup_reps {
        drop(stack.take());
        let t0 = Instant::now();
        let s = {
            let _s = Span::begin("setup", None);
            build_stack(spec, &inputs.dense)?
        };
        setups.push(t0.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    let setup_spans = trace::drain();

    let refs: Vec<Matrix<f32>> = inputs
        .seqs
        .iter()
        .map(|x| stack.forward_percall(x))
        .collect();
    // One untimed planned forward, so lazily filled per-thread arenas
    // are in place before timing; it is checked like the timed ones.
    let warm_ok = bit_equal(&stack.forward(&inputs.seqs[0]), &refs[0]);

    if opts.trace {
        venom_obs::profile::reset();
        venom_obs::profile::set_enabled(true);
    }
    let mut forward_s = Vec::new();
    let mut phase = PhaseCount::default();
    let mut block_checks = (0usize, 0usize);
    let t_loop = Instant::now();
    while forward_s.len() < spec.min_forwards || t_loop.elapsed().as_secs_f64() < seconds {
        let i = forward_s.len();
        let x = &inputs.seqs[i % inputs.seqs.len()];
        let t0 = Instant::now();
        let (mut y, outs) = if opts.trace {
            forward_decomposed(&stack, x)
        } else {
            (stack.forward(x), Vec::new())
        };
        forward_s.push(t0.elapsed().as_secs_f64());
        if opts.corrupt == Some(i) {
            if let Some(v) = y.as_mut_slice().first_mut() {
                *v = f32::from_bits(v.to_bits() ^ 1);
            }
        }
        phase.sent += 1;
        if bit_equal(&y, &refs[i % refs.len()]) {
            phase.succeeded += 1;
        } else {
            phase.mismatched += 1;
        }
        if opts.trace && i == 0 {
            // The decomposition must be the block's own forward, bit for bit.
            let mut h = x.clone();
            for (block, out) in stack.blocks.iter().zip(&outs) {
                h = block.forward(&h);
                block_checks.0 += 1;
                block_checks.1 += usize::from(bit_equal(&h, out));
            }
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    venom_obs::profile::set_enabled(false);
    let spans = trace::drain();
    phase.print("closed loop");

    let n = forward_s.len() as f64;
    let fwd_ms: Vec<f64> = forward_s.iter().map(|s| s * 1e3).collect();
    // Throughput from the lower quartile of the forward times: a forward
    // slowed by other tenants of the machine does not move it unless most
    // forwards are.
    let fast_s = stats::quantile(&forward_s, 0.25);
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setups), "s");
    m.put("serve_rps", 1.0 / fast_s, "1/s");
    m.put("latency_p50_ms", stats::quantile(&fwd_ms, 0.5), "ms");
    m.put("latency_p99_ms", stats::quantile(&fwd_ms, 0.99), "ms");
    m.put("tokens_per_s", c.seq_len as f64 / fast_s, "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    println!(
        "forwards: {} in {:.2} s (closed loop, one sequence at a time); fail_ratio {}",
        forward_s.len(),
        loop_s,
        phase.fail_ratio()
    );

    let mut layers = Metrics::default();
    let mut correct = phase.mismatched == 0 && warm_ok;
    if opts.trace {
        let reps = spec.setup_reps as f64;
        let per_setup = |name: &str| stats::sum(&trace::durations(&setup_spans, name)) / reps;
        layers.put("pruner.prune_ms", per_setup("pruner.prune"), "ms");
        layers.put("engine.plan_builds", 0.0, "count");
        layers.put("engine.plan_build_ms", 0.0, "ms");
        layers.put("engine.plan_build_ms_p50", 0.0, "ms");
        layers.put(
            "engine.setup_plan_build_ms",
            per_setup("engine.plan_build") + per_setup("engine.plan_attention"),
            "ms",
        );
        let per_fwd = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|nm| stats::sum(&trace::durations(&spans, nm)))
                .fold(0.0, |a, b| a + b)
                / n
        };
        let attn_ms = per_fwd(&["attn.attention"]);
        let linear_ms = per_fwd(&["dnn.linear"]);
        let other_ms = per_fwd(&["dnn.norm", "dnn.residual", "dnn.gelu"]);
        let forward_ms = per_fwd(&["dnn.forward"]);
        let unaccounted = forward_ms - attn_ms - linear_ms - other_ms;
        layers.put("attn.attention_ms", attn_ms, "ms");
        let calls = trace::durations(&spans, "attn.attention").len() as f64;
        let counts = stack.blocks[0]
            .planned_attn
            .as_ref()
            .map(|a| venom_sim::roofline::analyze(&device(), a.plan.counts()))
            .expect("planned attention");
        let attn_total_s = attn_ms * n / 1e3;
        layers.put(
            "attn.gflops",
            counts.flops * calls / attn_total_s / 1e9,
            "GFLOP/s",
        );
        layers.put(
            "attn.gbytes_s",
            counts.dram_bytes * calls / attn_total_s / 1e9,
            "GB/s",
        );
        layers.put("dnn.linear_ms", linear_ms, "ms");
        layers.put("dnn.other_ms", other_ms, "ms");
        layers.put(
            "dnn.block_ms",
            per_fwd(&["dnn.block"]) / c.layers as f64,
            "ms",
        );
        layers.put("dnn.forward_ms", forward_ms, "ms");
        layers.put("dnn.unaccounted_ms", unaccounted, "ms");
        println!(
            "check dnn residual: linear {linear_ms:.3} + attention {attn_ms:.3} + other {other_ms:.3} = {:.3} ms of a {forward_ms:.3} ms forward; unaccounted {unaccounted:.3} ms ({:.2}%): {}",
            linear_ms + attn_ms + other_ms,
            100.0 * unaccounted / forward_ms,
            if unaccounted.abs() <= 0.05 * forward_ms { "pass" } else { "FAIL" }
        );
        println!(
            "check attention is the largest dnn bucket: {}",
            if attn_ms > linear_ms && attn_ms > other_ms {
                "pass"
            } else {
                "FAIL"
            }
        );
        println!(
            "check block decomposition == SparseEncoderBlock::forward: {}/{} blocks bit-identical",
            block_checks.1, block_checks.0
        );
        correct &= block_checks.0 == block_checks.1 && block_checks.0 > 0;
    }
    Ok(Outcome {
        correct,
        attempted: phase.sent,
        failed: 0,
        metrics: m,
        layers,
        spans: setup_spans.into_iter().chain(spans).collect(),
    })
}
