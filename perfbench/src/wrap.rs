//! Benchmark-side wrappers that time calls into a layer from outside:
//! a [`MatmulPlan`] that delegates every method, and plan builders that
//! log every build the serving layer asks for.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use venom_fp16::Half;
use venom_runtime::{MatmulDescriptor, MatmulFormat, MatmulPlan};
use venom_sim::pipeline::KernelCounts;
use venom_sim::{DeviceConfig, KernelTiming, Regime, Roofline};
use venom_tensor::Matrix;

use crate::trace::Span;

/// Delegates every [`MatmulPlan`] method to `inner`, with a span around
/// each execution call. The span's argument is the column count run.
#[derive(Debug)]
pub struct TracedPlan {
    inner: Arc<dyn MatmulPlan>,
    /// DRAM bytes of one dispatch, from the plan's `KernelCounts`.
    dram_bytes: f64,
}

impl TracedPlan {
    pub fn wrap(inner: Arc<dyn MatmulPlan>) -> Arc<dyn MatmulPlan> {
        let dram_bytes = inner.counts().map_or(0.0, |c| {
            venom_sim::roofline::analyze(&crate::device(), c).dram_bytes
        });
        Arc::new(TracedPlan { inner, dram_bytes })
    }
}

/// Work done by traced `run_batch` dispatches: multiply-adds of the
/// condensed stream (two flops each) and computed DRAM bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanWork {
    pub flops: f64,
    pub bytes: f64,
}

static PLAN_WORK: Mutex<PlanWork> = Mutex::new(PlanWork {
    flops: 0.0,
    bytes: 0.0,
});

/// Takes the work booked since the last call.
pub fn take_plan_work() -> PlanWork {
    std::mem::take(&mut *PLAN_WORK.lock().unwrap_or_else(|e| e.into_inner()))
}

fn span(name: &'static str, cols: usize) -> Span {
    let mut s = Span::begin(name, None);
    s.set_arg(cols as u64);
    s
}

impl MatmulPlan for TracedPlan {
    fn format(&self) -> MatmulFormat {
        self.inner.format()
    }
    fn descriptor(&self) -> &MatmulDescriptor {
        self.inner.descriptor()
    }
    fn timing(&self) -> Option<&KernelTiming> {
        self.inner.timing()
    }
    fn cost_ms(&self) -> Option<f64> {
        self.inner.cost_ms()
    }
    fn counts(&self) -> Option<&KernelCounts> {
        self.inner.counts()
    }
    fn roofline(&self, dev: &DeviceConfig) -> Option<Roofline> {
        self.inner.roofline(dev)
    }
    fn regime(&self, dev: &DeviceConfig) -> Option<Regime> {
        self.inner.regime(dev)
    }
    fn path(&self) -> &'static str {
        self.inner.path()
    }
    fn stored_values(&self) -> usize {
        self.inner.stored_values()
    }
    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
    fn weight_dense(&self) -> Matrix<Half> {
        self.inner.weight_dense()
    }
    fn run(&self, b: &Matrix<Half>) -> Matrix<f32> {
        let _s = span("plan.run", b.cols());
        self.inner.run(b)
    }
    fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        let cols: usize = bs.iter().map(|b| b.cols()).sum();
        let _s = span("plan.run_batch", cols);
        {
            let mut w = PLAN_WORK.lock().unwrap_or_else(|e| e.into_inner());
            w.flops += 2.0 * (self.inner.stored_values() * cols) as f64;
            w.bytes += self.dram_bytes;
        }
        self.inner.run_batch(bs)
    }
    fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        let _s = span("plan.run_linear", x.rows());
        self.inner.run_linear(x, bias)
    }
    fn run_linear_staged(&self, staged: &[f32], tokens: usize, bias: &[f32]) -> Matrix<f32> {
        let _s = span("plan.run_linear", tokens);
        self.inner.run_linear_staged(staged, tokens, bias)
    }
    fn run_oneshot(&self, b: &Matrix<Half>) -> Matrix<f32> {
        let _s = span("plan.run_oneshot", b.cols());
        self.inner.run_oneshot(b)
    }
    fn run_linear_percall(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        let _s = span("plan.run_linear_percall", x.rows());
        self.inner.run_linear_percall(x, bias)
    }
}

/// One plan build the serving layer asked for.
#[derive(Clone, Debug)]
pub struct Build {
    pub ms: f64,
    pub path: &'static str,
}

/// Every build made through [`logged_builder`], shared across threads.
pub type BuildLog = Arc<Mutex<Vec<Build>>>;

pub type Builder = Arc<dyn Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync>;

/// Wraps a plan builder so every call is timed and logged, and (when
/// tracing) the built plan is wrapped in a [`TracedPlan`].
pub fn logged_builder(
    inner: Builder,
    log: BuildLog,
) -> impl Fn() -> Result<Arc<dyn MatmulPlan>, String> + Send + Sync + 'static {
    move || {
        let _s = Span::begin("engine.plan_build", None);
        let t0 = Instant::now();
        let plan = inner()?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        log.lock().unwrap_or_else(|e| e.into_inner()).push(Build {
            ms,
            path: plan.path(),
        });
        Ok(if crate::trace::enabled() {
            TracedPlan::wrap(plan)
        } else {
            plan
        })
    }
}
