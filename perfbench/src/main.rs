//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the per-layer metrics, the measured machine ceilings and the tracing
//! overhead (traced minus untraced end-to-end values; the untraced values
//! come from a child run of this binary). Exits 1 when any output differs
//! from its reference, 2 on a usage or set-up error.

use std::collections::BTreeSet;
use std::process::{Command, ExitCode, Stdio};

use perfbench::stats::{result_line, Metrics};
use perfbench::{ceilings, run_workload, trace, RunOpts, END_TO_END, LATENCY};

/// Per-layer metrics every traced run reports; a layer a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("pruner.prune_ms", "ms"),
    ("engine.plan_builds", "count"),
    ("engine.plan_build_ms", "ms"),
    ("engine.plan_build_ms_p50", "ms"),
    ("engine.setup_plan_build_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MB"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_depth_p50", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.queue_depth_growth", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.errored", "count"),
    ("serve.degraded", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.gen_late_ms_max", "ms"),
    ("serve.latency_p99_whole_ms", "ms"),
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("serve.formats_served", "count"),
    ("plan.run_batch_ms_p50", "ms"),
    ("plan.run_batch_ms_p99", "ms"),
    ("plan.run_batch_ms", "ms"),
    ("plan.batch_cols", "count"),
    ("plan.busy_share", "ratio"),
    ("plan.gflops", "GFLOP/s"),
    ("plan.gbytes_s", "GB/s"),
    ("plan.gflops_of_peak", "ratio"),
    ("plan.gbytes_s_of_triad", "ratio"),
    ("attn.attention_ms", "ms"),
    ("attn.gflops", "GFLOP/s"),
    ("attn.gbytes_s", "GB/s"),
    ("attn.gflops_of_peak", "ratio"),
    ("attn.gbytes_s_of_triad", "ratio"),
    ("dnn.linear_ms", "ms"),
    ("dnn.other_ms", "ms"),
    ("dnn.block_ms", "ms"),
    ("dnn.forward_ms", "ms"),
    ("dnn.unaccounted_ms", "ms"),
    ("kernel.stage_ms", "ms"),
    ("kernel.gather_ms", "ms"),
    ("kernel.mma_ms", "ms"),
    ("kernel.band_ms", "ms"),
    ("kernel.epilogue_ms", "ms"),
    ("ceil.triad_gbs_1t", "GB/s"),
    ("ceil.triad_gbs_nt", "GB/s"),
    ("ceil.fma_gflops_1t", "GFLOP/s"),
    ("ceil.fma_gflops_nt", "GFLOP/s"),
    ("overhead.setup_s", "s"),
    ("overhead.serve_rps", "1/s"),
    ("overhead.tokens_per_s", "1/s"),
    ("overhead.peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--corrupt" => {
                args.corrupt = Some(value()?.parse().map_err(|e| format!("--corrupt: {e}"))?)
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Reads `"name": {"value": X` for each end-to-end metric from a result line.
fn parse_result(line: &str) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in END_TO_END {
        let tag = format!("\"{name}\": {{\"value\": ");
        if let Some(pos) = line.find(&tag) {
            let rest = &line[pos + tag.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            if let Ok(v) = rest[..end].trim().parse::<f64>() {
                m.put(name, v, unit);
            }
        }
    }
    m
}

/// The same workload untraced, in a child process so its peak memory is
/// its own.
fn untraced_child(args: &Args) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        println!("untraced| {line}");
    }
    if !out.status.success() {
        return Err(format!("untraced run exited with {}", out.status));
    }
    Ok(parse_result(stdout.lines().last().unwrap_or("")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        trace: args.trace,
        corrupt: args.corrupt,
    };

    let mut untraced = Metrics::default();
    if args.trace {
        untraced = match untraced_child(&args) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        trace::set_enabled(true);
    }
    let outcome = match run_workload(&args.workload, args.seed, args.seconds, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(false);
    println!(
        "end-to-end metrics ({}):",
        if args.trace { "traced" } else { "untraced" }
    );
    outcome.metrics.print("  ");
    let metrics = if args.trace {
        let mut layers = outcome.layers.clone();
        let mut phases = Metrics::default();
        for r in venom_obs::profile::snapshot() {
            let name = format!("kernel.{}_ms", r.phase);
            let prev = phases.get(&name).unwrap_or(0.0);
            phases.put(&name, prev + r.stat.ns as f64 / 1e6, "ms");
        }
        for (name, v, unit) in phases.0 {
            layers.put(&name, v, unit);
        }
        let c = ceilings::measure();
        println!(
            "ceilings: {} threads; LLC {:.1} MiB; triad arrays 3 x {:.1} MiB; triad {:.2} GB/s (1 thread) {:.2} GB/s ({} threads); f32 mul+add {:.2} GFLOP/s (1 thread) {:.2} GFLOP/s ({} threads)",
            c.threads,
            c.llc_bytes as f64 / 1048576.0,
            c.array_bytes as f64 / 1048576.0,
            c.triad_gbs_1t,
            c.triad_gbs_nt,
            c.threads,
            c.fma_gflops_1t,
            c.fma_gflops_nt,
            c.threads
        );
        layers.put("ceil.triad_gbs_1t", c.triad_gbs_1t, "GB/s");
        layers.put("ceil.triad_gbs_nt", c.triad_gbs_nt, "GB/s");
        layers.put("ceil.fma_gflops_1t", c.fma_gflops_1t, "GFLOP/s");
        layers.put("ceil.fma_gflops_nt", c.fma_gflops_nt, "GFLOP/s");
        for layer in ["plan", "attn"] {
            let gf = layers.get(&format!("{layer}.gflops")).unwrap_or(0.0);
            let gb = layers.get(&format!("{layer}.gbytes_s")).unwrap_or(0.0);
            layers.put(
                &format!("{layer}.gflops_of_peak"),
                gf / c.fma_gflops_nt,
                "ratio",
            );
            layers.put(
                &format!("{layer}.gbytes_s_of_triad"),
                gb / c.triad_gbs_nt,
                "ratio",
            );
        }
        for (name, unit) in END_TO_END {
            if let (Some(t), Some(u)) = (outcome.metrics.get(name), untraced.get(name)) {
                layers.put(&format!("overhead.{name}"), t - u, unit);
            }
        }
        for name in LATENCY {
            if let Some(v) = outcome.metrics.get(name) {
                layers.put(&name.replacen("latency_", "latency.", 1), v, "ms");
            }
        }
        // Self time per span name, over the whole traced run.
        println!("self time per span (ms; bytes and flops of plan/attn rates are computed from KernelCounts):");
        for (name, ms) in trace::self_ms(&outcome.spans) {
            println!("  {name} {ms:.3}");
        }
        let names: BTreeSet<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        let mut out = Metrics::default();
        for &(name, unit) in PER_LAYER {
            out.put(name, layers.get(name).unwrap_or(0.0), unit);
        }
        for (name, _, _) in &layers.0 {
            if !names.contains(name.as_str()) {
                eprintln!("perfbench: per-layer metric {name} is not in the declared list");
            }
        }
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&outcome.spans)))
        {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!("per-layer metrics:");
        out.print("  ");
        out
    } else {
        let mut gated = Metrics::default();
        for (name, unit) in END_TO_END {
            gated.put(name, outcome.metrics.get(name).unwrap_or(f64::NAN), unit);
        }
        gated
    };
    println!(
        "correctness: {} ({} attempted, {} failed)",
        if outcome.correct {
            "every output bit-identical to its reference"
        } else {
            "MISMATCH against the reference"
        },
        outcome.attempted,
        outcome.failed
    );
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
