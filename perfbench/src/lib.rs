//! End-to-end and per-layer benchmark of the VENOM runtime.
//!
//! Three seeded workloads — `serve_hot`, `serve_churn` and
//! `prefill_long` — drive the library's public API only. The untraced run
//! reports the end-to-end metrics; the traced run (`--trace 1`) times each
//! layer from outside by wrapping the benchmark's calls into it, measures
//! this machine's bandwidth and FLOP ceilings, and writes a
//! chrome://tracing file.

pub mod ceilings;
pub mod gen;
pub mod prefill;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod wrap;

use venom_runtime::DeviceConfig;
use venom_tensor::Matrix;

pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_churn", "prefill_long"];

/// End-to-end metrics every workload reports, with units: the gated set
/// named in `BENCHMARK.json`, and the only metrics in an untraced run's
/// JSON line.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("serve_rps", "1/s"),
    ("tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Latency metrics every workload also prints. They stay out of the
/// gated set: on a shared machine their run-to-run spread exceeds any
/// bound the benchmark may set. Traced runs report them as per-layer
/// metrics under `latency.`.
pub const LATENCY: [&str; 2] = ["latency_p50_ms", "latency_p99_ms"];

/// The simulated device the engine prices plans for (the paper's A100).
pub fn device() -> DeviceConfig {
    DeviceConfig::a100()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bitwise equality of two outputs (NaN payloads included).
pub fn bit_equal(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// Record spans and kernel phase timers, report per-layer metrics.
    pub trace: bool,
    /// Flip one bit of the output of this operation before it is checked
    /// (the benchmark's own test that the correctness gate can fail).
    pub corrupt: Option<usize>,
}

/// Accounting of one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCount {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub refused: u64,
    pub mismatched: u64,
}

impl PhaseCount {
    /// Failed or refused operations over operations attempted.
    pub fn fail_ratio(&self) -> f64 {
        (self.failed + self.refused) as f64 / self.sent.max(1) as f64
    }

    pub fn print(&self, phase: &str) {
        println!(
            "phase {phase}: sent {} succeeded {} failed {} refused {} mismatched {} fail_ratio {}",
            self.sent,
            self.succeeded,
            self.failed,
            self.refused,
            self.mismatched,
            self.fail_ratio()
        );
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its reference bit for bit.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: stats::Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: stats::Metrics,
    pub spans: Vec<trace::SpanRec>,
}

pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    opts: &RunOpts,
) -> Result<Outcome, String> {
    match name {
        "serve_hot" => serve::run(&serve::ServeSpec::hot(), seed, seconds, opts),
        "serve_churn" => serve::run(&serve::ServeSpec::churn(), seed, seconds, opts),
        "prefill_long" => prefill::run(&prefill::PrefillSpec::long(), seed, seconds, opts),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
