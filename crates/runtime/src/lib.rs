//! The inference engine: the cuSPARSELt-style descriptor/plan workflow
//! the paper benchmarks against (§7.2), over every storage format the
//! repository ships.
//!
//! The per-call [`venom_core::spmm`] entry point redoes tile-config
//! selection, cost-model pricing and operand staging on every invocation —
//! the right shape for one-shot benchmarks, the wrong one for serving,
//! where the compressed weights are static across every forward pass. An
//! [`Engine`] builds *plans* instead, behind one format-erased surface:
//!
//! * A [`MatmulDescriptor`] describes the matmul — weight shape, dtype,
//!   and the output-column bound the plan is tuned and priced for.
//! * [`Engine::plan_auto`] compresses the weights into every format
//!   their nonzero structure is eligible for (V:N:M, 2:4, CSR, CVSE,
//!   Blocked-ELL, dense), prices each with its cost model on the target
//!   device, and returns the cheapest as an `Arc<dyn `[`MatmulPlan`]`>` —
//!   so a model mixes formats per layer and callers never name one.
//!   [`Engine::plan_with_format`] pins a format explicitly and reports
//!   *why* when the weights cannot serve it.
//! * There are two plan types. [`FormatPlan`] is the one f16-weight
//!   plan: it holds any format's weight behind an `Arc` with its operands
//!   condensed into a per-row `(value, B-row)` stream in the kernel's
//!   exact accumulation order, and the priced launch — for V:N:M
//!   ([`Engine::plan_spmm`]) also the autotuned [`TileConfig`] for the
//!   `(weight, b_cols)` shape; dense weights are priced on the cuBLAS
//!   model. Its stream stages f32 values for the mma path, or keeps f16
//!   values for the bandwidth-optimized non-mma V:N:M band path
//!   ([`Engine::plan_band`]: FlashSparse-style swapped-operand replay,
//!   priced on DRAM bytes) that [`Engine::plan_auto`] routes
//!   memory-bound shapes to. [`QuantSpmmPlan`] is the int8 sibling —
//!   descriptors with [`descriptor::DType::I8`] plan the calibrated
//!   quantized V:N:M container, execute with exact i32 accumulation,
//!   and are priced on the `Uint8` `mma.sp` profile (half the operand
//!   bytes, half the instruction count).
//!
//! Every plan execution is **bit-identical** to the one-shot path it
//! amortises: the stream stores each row's nonzeros in the same order the
//! format's reference kernel accumulates in (pinned by
//! [`venom_format::SparseKernel::for_each_operand`]), with the same
//! exactly-decoded f32 products, so the f32 additions happen in the same
//! order with the same values. Batched runs concatenate requests along
//! the output-column dimension; columns are independent in every path, so
//! batching changes nothing numerically either.
//!
//! Per-call scratch (the staged RHS, intermediate products) leases from a
//! per-thread [`arena`], so steady-state serving performs no staging
//! allocations beyond the returned output matrices.

pub mod arena;
pub mod attn;
pub mod descriptor;
pub mod engine;
pub mod matmul;
pub mod plan;
pub mod pricing;
pub mod qplan;
pub mod serve;
pub mod stage;

pub use attn::{AttentionMask, AttentionPlan, SddmmPath};
pub use descriptor::{DType, MatmulDescriptor};
pub use engine::Engine;
pub use matmul::{MatmulPlan, PlanError};
pub use plan::FormatPlan;
pub use qplan::QuantSpmmPlan;
pub use serve::{
    CacheStats, FaultConfig, FaultPlan, FaultTrips, HealthReport, PlanBuildError, PlanCache,
    PlanKey, RetryPolicy, ServeConfig, ServeError, ServeReport, Server,
};

pub use venom_core::{SpmmOptions, TileConfig};
pub use venom_format::{MatmulFormat, QuantVnmMatrix, SparseKernel, VnmConfig, VnmMatrix};
pub use venom_quant::Calibration;
pub use venom_sim::{DeviceConfig, KernelTiming, Regime, Roofline};
