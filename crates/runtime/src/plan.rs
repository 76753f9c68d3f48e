//! Execution plans: the condensed instruction stream and its run paths.
//!
//! A plan's stream stores, for every output row, the row's nonzero
//! operands as `(value, source B row)` pairs in the exact order the
//! format's one-shot path accumulates them — ascending `(K group, slot)`
//! for the V:N:M kernel, ascending `k` for the dense GEMM, stored order
//! for CSR/CVSE/Blocked-ELL — with explicit zeros dropped exactly where
//! the one-shot paths skip them (see
//! [`venom_format::SparseKernel::for_each_operand`]). Replaying the
//! stream therefore reproduces every f32 accumulation chain bit-for-bit
//! while touching each operand once, at full output width, instead of
//! through per-call staging rebuilt on every dispatch.
//!
//! [`FormatPlan`] is the one f16-weight plan over that stream, and it
//! implements the format-erased [`MatmulPlan`] trait for any
//! [`SparseKernel`]: V:N:M autotuned and priced on the Spatha cost model,
//! dense on the cuBLAS model, the baselines on their format's model. The
//! stream has two operand encodings. The f32 encoding (f32 values, u32
//! sources) replays with a quad-unrolled loop standing in for the
//! `mma.sp` pipeline. The f16 encoding (f16 bit patterns, u16 sources)
//! is the bandwidth-optimized non-mma V:N:M "band" path: a
//! FlashSparse-style register-panel replay priced on the CUDA-core
//! roofline.

use crate::arena;
use crate::descriptor::MatmulDescriptor;
use crate::matmul::{MatmulPlan, PlanError};
use crate::stage;
use rayon::prelude::*;
use std::any::Any;
use std::sync::Arc;
use venom_core::{SpmmOptions, TileConfig};
use venom_format::{MatmulFormat, SparseKernel, VnmMatrix};
use venom_fp16::Half;
use venom_sim::pipeline::KernelCounts;
use venom_sim::{DeviceConfig, KernelTiming};
use venom_tensor::Matrix;

/// Row height of one parallel task; matches `gemm_parallel`'s banding so
/// task granularity is comparable across the dense and sparse paths.
pub(crate) const BAND_ROWS: usize = 16;

/// Buckets the operands `visit` emits as `(row, value, source)` — rows
/// possibly interleaved, as band-major formats emit them — into a
/// per-row stream `(row_ptr, vals, srcs)`. Each row keeps its emission
/// order, which the [`SparseKernel::for_each_operand`] contract pins to
/// the format's `spmm_ref` accumulation order. `visit` runs twice: a
/// counting pass, then (after a prefix sum) a filling pass.
pub(crate) fn condense<V: Copy + Default, S: Copy + Default>(
    rows: usize,
    mut visit: impl FnMut(&mut dyn FnMut(usize, V, S)),
) -> (Vec<u32>, Vec<V>, Vec<S>) {
    let mut row_ptr = vec![0u32; rows + 1];
    visit(&mut |r, _, _| row_ptr[r + 1] += 1);
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    let nnz = row_ptr[rows] as usize;
    let mut vals = vec![V::default(); nnz];
    let mut srcs = vec![S::default(); nnz];
    let mut cursor: Vec<u32> = row_ptr[..rows].to_vec();
    visit(&mut |r, v, s| {
        let i = cursor[r] as usize;
        vals[i] = v;
        srcs[i] = s;
        cursor[r] += 1;
    });
    (row_ptr, vals, srcs)
}

/// The tiled transpose+bias epilogue: `y[t][r] = at(r, i) + bias[r]`
/// with `i = r * tokens + t` indexing the `rows x tokens` product. 32x32
/// blocks keep both the strided reads of the product and the writes to
/// `y` inside the cache (a row-by-row transpose touches a fresh cache
/// line per element).
pub(crate) fn transpose_bias(
    rows: usize,
    tokens: usize,
    bias: &[f32],
    at: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    const TILE: usize = 32;
    let mut y = vec![0.0f32; tokens * rows];
    for t0 in (0..tokens).step_by(TILE) {
        let t1 = (t0 + TILE).min(tokens);
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for t in t0..t1 {
                let yrow = &mut y[t * rows..][r0..r1];
                for (r, o) in (r0..r1).zip(yrow.iter_mut()) {
                    *o = at(r, r * tokens + t) + bias[r];
                }
            }
        }
    }
    y
}

/// The operand planes of a [`Stream`], in one of two encodings.
#[derive(Clone, Debug)]
enum Operands {
    /// Staged f32 values with u32 sources (8 bytes per operand).
    F32 { vals: Vec<f32>, srcs: Vec<u32> },
    /// f16 *bit patterns* with u16 sources (4 bytes per operand; `K`
    /// must fit in 16 bits) — the band path's narrow encoding.
    F16 { vals: Vec<u16>, srcs: Vec<u16> },
}

/// The condensed stream: CSR-like, with `srcs[i]` naming the RHS row
/// each value multiplies.
#[derive(Clone, Debug)]
pub(crate) struct Stream {
    rows: usize,
    k: usize,
    row_ptr: Vec<u32>,
    ops: Operands,
}

impl Stream {
    /// Condenses any [`SparseKernel`] into its f32 accumulation-order
    /// stream.
    fn from_kernel(kernel: &dyn SparseKernel) -> Self {
        let (rows, k) = kernel.shape();
        let (row_ptr, vals, srcs) = condense(rows, |emit| {
            kernel.for_each_operand(&mut |r, v, s| emit(r, v, s as u32))
        });
        Stream {
            rows,
            k,
            row_ptr,
            ops: Operands::F32 { vals, srcs },
        }
    }

    /// Condenses a V:N:M weight into the narrow f16 stream, or `None`
    /// when `K` exceeds the 16-bit source-index range.
    fn band(a: &VnmMatrix) -> Option<Self> {
        let (rows, k) = a.shape();
        if k > u16::MAX as usize + 1 {
            return None;
        }
        let (row_ptr, vals, srcs) = condense(rows, |emit| {
            a.for_each_nonzero(|r, s, v| emit(r, v.to_bits(), s as u16))
        });
        Some(Stream {
            rows,
            k,
            row_ptr,
            ops: Operands::F16 { vals, srcs },
        })
    }

    /// Whether the stream holds the band path's f16 encoding.
    fn is_band(&self) -> bool {
        matches!(self.ops, Operands::F16 { .. })
    }

    /// Stored operand count.
    fn nnz(&self) -> usize {
        match &self.ops {
            Operands::F32 { vals, .. } => vals.len(),
            Operands::F16 { vals, .. } => vals.len(),
        }
    }

    /// Kernel label phase profiling records this stream under (see
    /// [`venom_obs::profile`]).
    fn profile_kernel(&self) -> &'static str {
        if self.is_band() {
            "spmm[band]"
        } else {
            "spmm[mma]"
        }
    }

    /// Phase name of the inner compute loop — `"mma"` for the f32 quad
    /// replay standing in for the `mma.sp` pipeline, `"band"` for the
    /// narrow bandwidth-optimized replay.
    fn profile_phase(&self) -> &'static str {
        if self.is_band() {
            "band"
        } else {
            "mma"
        }
    }

    /// Resident bytes of the condensed stream — compulsory operand
    /// traffic the compute phase reads exactly once per dispatch.
    fn stream_bytes(&self) -> u64 {
        let per_operand = match &self.ops {
            Operands::F32 { .. } => 8,
            Operands::F16 { .. } => 4,
        };
        (self.nnz() * per_operand + self.row_ptr.len() * 4) as u64
    }

    /// `C = A * B` over a staged RHS (`k x b_cols`, row-major f32) into
    /// `out` (`rows x b_cols`, zero-initialised). Output rows are
    /// disjoint across parallel bands and each element accumulates
    /// sequentially in stream order, so the result is bit-identical
    /// regardless of the worker count.
    ///
    /// The f32 loop walks four stream entries at a time, reading and
    /// writing the output row once per quad. The per-element sum is
    /// evaluated left to right (`((o + v0*b0) + v1*b1) + ...`), which is
    /// exactly the accumulation chain of one-entry-at-a-time iteration —
    /// the unroll changes traffic, not bits.
    ///
    /// The f16 loop is the FlashSparse swap in register form: per output
    /// row, an 8-wide panel of columns accumulates in registers while the
    /// whole row's stream replays over it — each stored nonzero costs one
    /// LUT load and one narrow contiguous `B` segment read, and the
    /// output is written exactly once per panel. Per `(row, column)` the
    /// sum is the same left-to-right chain from `0.0` as `spmm_ref`'s, so
    /// the panelling changes traffic, not bits.
    fn run_into(&self, b_f32: &[f32], b_cols: usize, out: &mut [f32]) {
        assert_eq!(b_f32.len(), self.k * b_cols, "staged RHS size mismatch");
        assert_eq!(out.len(), self.rows * b_cols, "output size mismatch");
        let row_ptr = &self.row_ptr;
        match &self.ops {
            Operands::F32 { vals, srcs } => {
                out.par_chunks_mut(BAND_ROWS * b_cols)
                    .enumerate()
                    .for_each(|(band, chunk)| {
                        let row0 = band * BAND_ROWS;
                        for (i, orow) in chunk.chunks_mut(b_cols).enumerate() {
                            let r = row0 + i;
                            let lo = row_ptr[r] as usize;
                            let hi = row_ptr[r + 1] as usize;
                            let mut s = lo;
                            while s + 4 <= hi {
                                let v = &vals[s..s + 4];
                                let b0 = &b_f32[srcs[s] as usize * b_cols..][..b_cols];
                                let b1 = &b_f32[srcs[s + 1] as usize * b_cols..][..b_cols];
                                let b2 = &b_f32[srcs[s + 2] as usize * b_cols..][..b_cols];
                                let b3 = &b_f32[srcs[s + 3] as usize * b_cols..][..b_cols];
                                for (j, o) in orow.iter_mut().enumerate() {
                                    *o = *o
                                        + v[0] * b0[j]
                                        + v[1] * b1[j]
                                        + v[2] * b2[j]
                                        + v[3] * b3[j];
                                }
                                s += 4;
                            }
                            for (vf, src) in vals[s..hi].iter().zip(&srcs[s..hi]) {
                                let brow = &b_f32[*src as usize * b_cols..][..b_cols];
                                for (o, &bv) in orow.iter_mut().zip(brow) {
                                    *o += vf * bv;
                                }
                            }
                        }
                    });
            }
            Operands::F16 { vals, srcs } => {
                const PANEL: usize = venom_core::SWAP_PANEL;
                let lut = venom_fp16::f16_to_f32_table();
                out.par_chunks_mut(BAND_ROWS * b_cols)
                    .enumerate()
                    .for_each(|(band, chunk)| {
                        let row0 = band * BAND_ROWS;
                        for (i, orow) in chunk.chunks_mut(b_cols).enumerate() {
                            let r = row0 + i;
                            let lo = row_ptr[r] as usize;
                            let hi = row_ptr[r + 1] as usize;
                            let mut j0 = 0usize;
                            while j0 < b_cols {
                                let w = (b_cols - j0).min(PANEL);
                                let mut acc = [0.0f32; PANEL];
                                for (bits, src) in vals[lo..hi].iter().zip(&srcs[lo..hi]) {
                                    let vf = lut[*bits as usize];
                                    let bseg = &b_f32[*src as usize * b_cols + j0..][..w];
                                    for (a, &bv) in acc[..w].iter_mut().zip(bseg) {
                                        *a += vf * bv;
                                    }
                                }
                                orow[j0..j0 + w].copy_from_slice(&acc[..w]);
                                j0 += w;
                            }
                        }
                    });
            }
        }
    }

    /// [`Self::run_into`] with an owned result matrix.
    fn run(&self, b_f32: &[f32], b_cols: usize) -> Matrix<f32> {
        let mut out = vec![0.0f32; self.rows * b_cols];
        let timer = venom_obs::profile::PhaseTimer::start();
        self.run_into(b_f32, b_cols, &mut out);
        timer.stop(
            self.profile_kernel(),
            self.profile_phase(),
            self.stream_bytes() + (out.len() * 4) as u64,
        );
        Matrix::from_vec(self.rows, b_cols, out)
    }

    /// `C = A * B` over a half RHS, staged through the arena.
    fn run_half(&self, b: &Matrix<Half>) -> Matrix<f32> {
        assert_eq!(b.rows(), self.k, "B must have K = {} rows", self.k);
        let mut staged = arena::lease(b.len());
        let timer = venom_obs::profile::PhaseTimer::start();
        stage::decode_rhs_into(b, &mut staged);
        timer.stop(self.profile_kernel(), "stage", (b.len() * 2) as u64);
        let c = self.run(&staged, b.cols());
        arena::release(staged);
        c
    }

    /// One dispatch over many requests: concatenates the operands along
    /// the output-column dimension, multiplies once, and splits the
    /// result. Bit-identical to running each operand separately (columns
    /// are independent in every path).
    fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        if bs.is_empty() {
            return Vec::new();
        }
        let k = self.k;
        let total: usize = bs.iter().map(|b| b.cols()).sum();
        let mut staged = arena::lease(k * total);
        let timer = venom_obs::profile::PhaseTimer::start();
        let mut col0 = 0usize;
        for b in bs {
            assert_eq!(b.rows(), k, "B must have K = {k} rows");
            let cols = b.cols();
            for r in 0..k {
                venom_fp16::slice::decode_f32_into(
                    b.row(r),
                    &mut staged[r * total + col0..r * total + col0 + cols],
                );
            }
            col0 += cols;
        }
        timer.stop(self.profile_kernel(), "stage", (k * total * 2) as u64);
        let c = self.run(&staged, total);
        arena::release(staged);

        let mut out = Vec::with_capacity(bs.len());
        let rows = self.rows;
        let mut col0 = 0usize;
        for b in bs {
            let cols = b.cols();
            let mut part = vec![0.0f32; rows * cols];
            for r in 0..rows {
                part[r * cols..(r + 1) * cols]
                    .copy_from_slice(&c.as_slice()[r * total + col0..r * total + col0 + cols]);
            }
            out.push(Matrix::from_vec(rows, cols, part));
            col0 += cols;
        }
        out
    }

    /// The fused layer path: stages `x` (`tokens x k` f32) through f16
    /// rounding into the kernel orientation, multiplies, and returns
    /// `(A * x^T)^T + bias` (`tokens x rows`) — element-for-element the
    /// chain `transpose(A * x.to_half().transpose()) + bias` of the
    /// per-call layer forward, in two fused passes.
    fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        assert_eq!(x.cols(), self.k, "input features mismatch");
        let mut staged = arena::lease(x.len());
        let timer = venom_obs::profile::PhaseTimer::start();
        stage::stage_activations_t_into(x, &mut staged);
        timer.stop(self.profile_kernel(), "stage", (x.len() * 4) as u64);
        let y = self.run_linear_staged(&staged, x.rows(), bias);
        arena::release(staged);
        y
    }

    /// [`Self::run_linear`] over an already-staged RHS (shared by sibling
    /// plans of one layer, e.g. Q/K/V over the same activations).
    fn run_linear_staged(&self, b_f32: &[f32], tokens: usize, bias: &[f32]) -> Matrix<f32> {
        let rows = self.rows;
        assert_eq!(bias.len(), rows, "bias must match out_features");
        let mut c = arena::lease(rows * tokens);
        let timer = venom_obs::profile::PhaseTimer::start();
        self.run_into(b_f32, tokens, &mut c);
        timer.stop(
            self.profile_kernel(),
            self.profile_phase(),
            self.stream_bytes() + (rows * tokens * 4) as u64,
        );
        let timer = venom_obs::profile::PhaseTimer::start();
        let y = transpose_bias(rows, tokens, bias, |_, i| c[i]);
        timer.stop(self.profile_kernel(), "epilogue", (y.len() * 4) as u64);
        arena::release(c);
        Matrix::from_vec(tokens, rows, y)
    }
}

/// The Spatha launch a V:N:M plan keeps beside its weight: the autotuned
/// tile it was priced with, and the options and device the per-call
/// reference (`venom_core::spmm`) redoes tile selection with.
#[derive(Clone, Debug)]
struct SpathaLaunch {
    tile: TileConfig,
    opts: SpmmOptions,
    dev: DeviceConfig,
}

/// A plan over any [`SparseKernel`] — built once, run on every request.
///
/// Every storage format executes through it: V:N:M (autotuned and priced
/// on the Spatha cost model), dense (priced on the cuBLAS model), and
/// N:M, CSR, CVSE and Blocked-ELL (priced by their format's baseline
/// model). A V:N:M weight can instead be planned on the band path: the
/// narrow f16 stream, priced on the CUDA-core DRAM roofline
/// ([`venom_core::build_counts_band`]), so on memory-bound shapes (small
/// output widths, tall-skinny weights) its modelled cost undercuts the
/// mma stream and [`crate::Engine::plan_auto`] routes to it at the ridge
/// point. The weight is held once, behind the `Arc`; the condensed stream
/// replays it.
#[derive(Clone, Debug)]
pub struct FormatPlan {
    kernel: Arc<dyn SparseKernel>,
    stream: Stream,
    desc: MatmulDescriptor,
    /// `None` unless the weight is V:N:M with a launchable tile (V a
    /// multiple of 16; the stream executes any V, only the GPU pricing
    /// needs the kernel's 16-row fragments) on the mma path.
    launch: Option<SpathaLaunch>,
    timing: Option<KernelTiming>,
    counts: Option<KernelCounts>,
}

impl FormatPlan {
    /// Plans a weight without pricing (no device in scope), described at
    /// its own shape and the default column bound. The [`crate::Engine`]
    /// builders attach cost-model timing instead.
    pub fn new(kernel: Arc<dyn SparseKernel>) -> Self {
        let (r, k) = kernel.shape();
        Self::build_counted(kernel, MatmulDescriptor::new(r, k), None, None)
    }

    /// Wraps a compressed kernel with its priced launch and the resource
    /// counts the timing was priced on (so the plan can report its
    /// roofline regime); built by [`crate::Engine::plan_with_format`] /
    /// [`crate::Engine::plan_auto`].
    pub(crate) fn build_counted(
        kernel: Arc<dyn SparseKernel>,
        desc: MatmulDescriptor,
        timing: Option<KernelTiming>,
        counts: Option<KernelCounts>,
    ) -> Self {
        assert_eq!(
            kernel.shape(),
            (desc.out_features, desc.in_features),
            "weight shape does not match the descriptor"
        );
        let stream = Stream::from_kernel(kernel.as_ref());
        FormatPlan {
            kernel,
            stream,
            desc,
            launch: None,
            timing,
            counts,
        }
    }

    /// Plans a V:N:M weight on the Spatha kernel: autotunes the tile for
    /// the descriptor's column bound and prices the launch. Prefer
    /// [`crate::Engine::plan_spmm`].
    pub(crate) fn vnm(
        a: Arc<VnmMatrix>,
        desc: MatmulDescriptor,
        opts: &SpmmOptions,
        dev: &DeviceConfig,
    ) -> Self {
        let mut plan = Self::build_counted(a.clone(), desc, None, None);
        let v = a.config().v;
        if v >= 16 && v.is_multiple_of(16) {
            let tile = opts
                .tile
                .unwrap_or_else(|| venom_core::autotune(&a, desc.b_cols, opts, dev).0);
            let counts = venom_core::build_counts(&a, desc.b_cols, &tile, opts);
            let timing = venom_sim::pipeline::simulate(dev, &counts).unwrap_or_else(|e| {
                panic!(
                    "planned configuration {tile} cannot launch on {}: {e:?}",
                    dev.name
                )
            });
            plan.launch = Some(SpathaLaunch {
                tile,
                opts: *opts,
                dev: dev.clone(),
            });
            plan.timing = Some(timing);
            plan.counts = Some(counts);
        }
        plan
    }

    /// Plans a V:N:M weight on the band path: the narrow f16 stream,
    /// priced on the CUDA-core DRAM roofline. Prefer
    /// [`crate::Engine::plan_band`] (or [`crate::Engine::plan_auto`],
    /// which considers it as a candidate).
    ///
    /// # Errors
    /// [`PlanError::Incompatible`] when `K` does not fit the stream's
    /// 16-bit source indices.
    pub(crate) fn band(
        a: Arc<VnmMatrix>,
        desc: MatmulDescriptor,
        dev: &DeviceConfig,
    ) -> Result<Self, PlanError> {
        assert_eq!(
            a.shape(),
            (desc.out_features, desc.in_features),
            "weight shape does not match the descriptor"
        );
        let (r, k) = a.shape();
        let stream = Stream::band(&a).ok_or_else(|| PlanError::Incompatible {
            format: MatmulFormat::Vnm,
            reason: format!("the band stream stores 16-bit source indices; K = {k} does not fit"),
        })?;
        let counts = venom_core::build_counts_band(r, k, desc.b_cols, stream.nnz());
        let timing = venom_sim::pipeline::simulate(dev, &counts)
            .expect("the band kernel uses no shared memory and always launches");
        Ok(FormatPlan {
            kernel: a,
            stream,
            desc,
            launch: None,
            timing: Some(timing),
            counts: Some(counts),
        })
    }

    /// The weight as its concrete container (`VnmMatrix`,
    /// `Matrix<Half>`, ...), or `None` when it is stored in another one.
    pub fn weight<T: SparseKernel>(&self) -> Option<&T> {
        let any: &dyn Any = self.kernel.as_ref();
        any.downcast_ref()
    }

    /// Logical weight shape `(rows, k)`.
    pub fn shape(&self) -> (usize, usize) {
        self.kernel.shape()
    }

    /// The autotuned template instantiation of a V:N:M plan on the mma
    /// path (`None` for V < 16 patterns, which only the functional stream
    /// supports, for band plans, and for every other format).
    pub fn tile(&self) -> Option<TileConfig> {
        self.launch.as_ref().map(|l| l.tile)
    }
}

impl MatmulPlan for FormatPlan {
    fn format(&self) -> MatmulFormat {
        self.kernel.format()
    }

    fn path(&self) -> &'static str {
        if self.stream.is_band() {
            "band"
        } else {
            self.format().name()
        }
    }

    fn descriptor(&self) -> &MatmulDescriptor {
        &self.desc
    }

    fn timing(&self) -> Option<&KernelTiming> {
        self.timing.as_ref()
    }

    fn counts(&self) -> Option<&KernelCounts> {
        self.counts.as_ref()
    }

    fn stored_values(&self) -> usize {
        self.stream.nnz()
    }

    fn approx_bytes(&self) -> usize {
        self.stream.stream_bytes() as usize + self.kernel.compressed_bytes()
    }

    fn weight_dense(&self) -> Matrix<Half> {
        self.kernel.to_dense()
    }

    fn run(&self, b: &Matrix<Half>) -> Matrix<f32> {
        self.stream.run_half(b)
    }

    fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        self.stream.run_batch(bs)
    }

    fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        self.stream.run_linear(x, bias)
    }

    fn run_linear_staged(&self, staged: &[f32], tokens: usize, bias: &[f32]) -> Matrix<f32> {
        assert_eq!(
            staged.len(),
            self.stream.k * tokens,
            "staged operand size mismatch"
        );
        self.stream.run_linear_staged(staged, tokens, bias)
    }

    fn run_oneshot(&self, b: &Matrix<Half>) -> Matrix<f32> {
        match (&self.launch, self.weight::<VnmMatrix>()) {
            // The full Spatha entry point: tile selection, pricing and
            // staging redone on every dispatch.
            (Some(l), Some(a)) => venom_core::spmm(a, b, &l.opts, &l.dev).c,
            // The per-call swapped-operand kernel: B decoded in one pass,
            // product accumulated transposed, transposed back by a move.
            (None, Some(a)) if self.stream.is_band() => venom_core::spmm_swapped(a, b),
            // The format's own per-call staged path (bit-identical to its
            // spmm_ref, re-staging B on every dispatch).
            _ => self.kernel.spmm_parallel(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_core::spmm;
    use venom_format::VnmConfig;
    use venom_pruner::magnitude;
    use venom_tensor::{gemm, random};

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    fn vnm_fixture(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = magnitude::prune_vnm(&w, cfg);
        VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
    }

    fn build(a: &VnmMatrix, b_cols: usize) -> FormatPlan {
        let desc = MatmulDescriptor::new(a.shape().0, a.shape().1).with_b_cols(b_cols);
        FormatPlan::vnm(Arc::new(a.clone()), desc, &SpmmOptions::default(), &dev())
    }

    #[test]
    fn plan_run_is_bit_identical_to_one_shot_spmm() {
        let cfg = VnmConfig::new(64, 2, 10);
        let a = vnm_fixture(70, 93, cfg, 1);
        let b = random::normal_matrix(93, 37, 0.0, 1.0, 2).to_half();
        let plan = build(&a, 64);
        let got = plan.run(&b);
        let want = spmm(&a, &b, &SpmmOptions::default(), &dev()).c;
        assert_eq!(got, want);
        assert_eq!(got, a.spmm_ref(&b));
        assert_eq!(plan.run_oneshot(&b), want);
    }

    #[test]
    fn plan_supports_sub_fragment_v() {
        // V = 8 has no launchable tile (the kernel needs 16-row
        // fragments) but the functional stream executes it exactly.
        let cfg = VnmConfig::new(8, 2, 8);
        let a = vnm_fixture(24, 40, cfg, 3);
        let b = random::normal_matrix(40, 9, 0.0, 1.0, 4).to_half();
        let plan = build(&a, 16);
        assert!(plan.tile().is_none());
        assert_eq!(plan.run(&b), a.spmm_ref(&b));
        // The per-call path falls back to the format's staged kernel.
        assert_eq!(plan.run_oneshot(&b), a.spmm_ref(&b));
    }

    #[test]
    fn batched_run_matches_separate_runs() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = vnm_fixture(64, 64, cfg, 5);
        let plan = build(&a, 48);
        let b1 = random::normal_matrix(64, 11, 0.0, 1.0, 6).to_half();
        let b2 = random::normal_matrix(64, 24, 0.0, 1.0, 7).to_half();
        let b3 = random::normal_matrix(64, 1, 0.0, 1.0, 8).to_half();
        let batch = plan.run_batch(&[&b1, &b2, &b3]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], plan.run(&b1));
        assert_eq!(batch[1], plan.run(&b2));
        assert_eq!(batch[2], plan.run(&b3));
    }

    #[test]
    fn fused_linear_matches_per_call_chain() {
        let cfg = VnmConfig::new(16, 2, 8);
        let a = vnm_fixture(32, 48, cfg, 9);
        let bias: Vec<f32> = (0..32).map(|i| i as f32 * 0.25 - 4.0).collect();
        let x = random::activation_matrix(19, 48, 10);
        let plan = build(&a, 32);
        let got = plan.run_linear(&x, &bias);
        // The per-call layer chain — also the trait's default method.
        let want = MatmulPlan::run_linear_percall(&plan, &x, &bias);
        assert_eq!(got, want);
        let xt = x.to_half().transpose();
        let mut manual = spmm(&a, &xt, &SpmmOptions::default(), &dev()).c.transpose();
        for r in 0..manual.rows() {
            for (c, bv) in bias.iter().enumerate() {
                manual.set(r, c, manual.get(r, c) + bv);
            }
        }
        assert_eq!(got, manual);
    }

    #[test]
    fn gemm_plan_matches_gemm_parallel() {
        let w = random::normal_matrix(33, 29, 0.0, 1.0, 11).to_half();
        let b = random::normal_matrix(29, 21, 0.0, 1.0, 12).to_half();
        let plan = FormatPlan::new(Arc::new(w.clone()));
        assert_eq!(plan.run(&b), gemm::gemm_parallel(&w, &b));
        assert!(plan.timing().is_none(), "unpriced without a device");
        // Batched dense dispatch equals separate runs too.
        let batch = plan.run_batch(&[&b, &b]);
        assert_eq!(batch[0], plan.run(&b));
        assert_eq!(batch[1], plan.run(&b));
    }

    #[test]
    fn gemm_plan_fused_linear_matches_per_call_chain() {
        let w = random::normal_matrix(24, 40, 0.0, 1.0, 13).to_half();
        let bias: Vec<f32> = (0..24).map(|i| (i as f32).sin()).collect();
        let x = random::activation_matrix(15, 40, 14);
        let plan = FormatPlan::new(Arc::new(w.clone()));
        let got = plan.run_linear(&x, &bias);
        assert_eq!(got, MatmulPlan::run_linear_percall(&plan, &x, &bias));
        let xt = x.to_half().transpose();
        let mut want = gemm::gemm_parallel(&w, &xt).transpose();
        for r in 0..want.rows() {
            for (c, bv) in bias.iter().enumerate() {
                want.set(r, c, want.get(r, c) + bv);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn format_plan_is_bit_identical_to_its_kernel_oracle() {
        use venom_format::{CsrMatrix, SparsityMask};
        let dense = {
            let w = random::normal_matrix(37, 53, 0.0, 1.0, 15);
            let mask = SparsityMask::from_fn(37, 53, |r, c| (r * 31 + c * 17) % 10 < 4);
            mask.apply_f32(&w).to_half()
        };
        let csr = CsrMatrix::from_dense(&dense);
        let desc = MatmulDescriptor::new(37, 53).with_b_cols(21);
        let plan = FormatPlan::build_counted(Arc::new(csr.clone()), desc, None, None);
        let b = random::normal_matrix(53, 21, 0.0, 1.0, 16).to_half();
        assert_eq!(plan.run(&b), csr.spmm_ref(&b));
        assert_eq!(plan.run_oneshot(&b), csr.spmm_ref(&b));
        assert_eq!(plan.format(), MatmulFormat::Csr);
        // The fused layer path equals the per-call chain.
        let x = random::activation_matrix(9, 53, 17);
        let bias = vec![0.25f32; 37];
        assert_eq!(
            plan.run_linear(&x, &bias),
            plan.run_linear_percall(&x, &bias)
        );
    }

    #[test]
    fn approx_bytes_counts_stream_planes_and_the_held_weight() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = vnm_fixture(64, 96, cfg, 31);
        let weight = a.compressed_bytes();
        let row_ptr = 65 * 4;
        // f32 value + u32 source per operand.
        let plan = build(&a, 16);
        let nnz = plan.stored_values();
        assert_eq!(plan.approx_bytes(), nnz * 8 + row_ptr + weight);
        // f16 bits + u16 source per operand.
        let band = band_build(&a, 16);
        assert_eq!(band.approx_bytes(), nnz * 4 + row_ptr + weight);
        // i16 code + u32 source per operand, plus the quantized weight.
        let desc = MatmulDescriptor::new(64, 96).with_b_cols(16);
        let calib = venom_quant::Calibration::AbsMax;
        let q =
            crate::QuantSpmmPlan::build(&a, calib, calib, desc, &SpmmOptions::default(), &dev());
        let qweight = q.weight().compressed_bytes();
        assert_eq!(q.approx_bytes(), q.stored_values() * 6 + row_ptr + qweight);
        // A dense plan's budget sees the f16 weight it keeps.
        let w = random::normal_matrix(48, 40, 0.0, 1.0, 32).to_half();
        let dense = FormatPlan::new(Arc::new(w.clone()));
        let dense_nnz = dense.stored_values();
        assert_eq!(dense.approx_bytes(), dense_nnz * 8 + 49 * 4 + 48 * 40 * 2);
    }

    #[test]
    fn shared_staging_matches_unshared() {
        let cfg = VnmConfig::new(16, 2, 8);
        let a = vnm_fixture(32, 32, cfg, 15);
        let plan = build(&a, 16);
        let x = random::activation_matrix(9, 32, 16);
        let bias = vec![0.5f32; 32];
        let staged = stage::stage_activations_t(&x);
        let got = plan.run_linear_staged(&staged, x.rows(), &bias);
        assert_eq!(got, plan.run_linear(&x, &bias));
    }

    #[test]
    fn repeated_runs_are_stable() {
        let cfg = VnmConfig::new(32, 2, 16);
        let a = vnm_fixture(32, 64, cfg, 17);
        let b = random::normal_matrix(64, 13, 0.0, 1.0, 18).to_half();
        let plan = build(&a, 16);
        let first = plan.run(&b);
        for _ in 0..3 {
            assert_eq!(plan.run(&b), first);
        }
    }

    #[test]
    #[should_panic(expected = "B must have K")]
    fn run_rejects_shape_mismatch() {
        let cfg = VnmConfig::new(16, 2, 8);
        let a = vnm_fixture(16, 32, cfg, 19);
        let plan = build(&a, 8);
        let _ = plan.run(&Matrix::<Half>::zeros(16, 4));
    }

    fn band_build(a: &VnmMatrix, b_cols: usize) -> FormatPlan {
        let desc = MatmulDescriptor::new(a.shape().0, a.shape().1).with_b_cols(b_cols);
        FormatPlan::band(Arc::new(a.clone()), desc, &dev()).expect("K fits 16-bit indices")
    }

    #[test]
    fn band_plan_is_bit_identical_on_every_dispatch_path() {
        let cfg = VnmConfig::new(64, 2, 10);
        let a = vnm_fixture(70, 90, cfg, 21);
        let b = random::normal_matrix(90, 13, 0.0, 1.0, 22).to_half();
        let plan = band_build(&a, 13);
        let want = a.spmm_ref(&b);
        assert_eq!(plan.run(&b), want, "staged band replay");
        assert_eq!(
            MatmulPlan::run_oneshot(&plan, &b),
            want,
            "swapped-operand per-call path"
        );
        // And both agree with the mma-stream plan bit-for-bit.
        assert_eq!(build(&a, 13).run(&b), plan.run(&b));
    }

    #[test]
    fn band_plan_batch_and_linear_match_the_stream_plan() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = Arc::new(vnm_fixture(64, 64, cfg, 23));
        let desc = MatmulDescriptor::new(64, 64).with_b_cols(16);
        let band = FormatPlan::band(Arc::clone(&a), desc, &dev()).unwrap();
        // The plan shares the caller's weight instead of copying it.
        let held = band.weight::<VnmMatrix>().expect("band plans hold V:N:M");
        assert!(std::ptr::eq(held, Arc::as_ptr(&a)));
        let mma = build(&a, 16);
        let b1 = random::normal_matrix(64, 5, 0.0, 1.0, 24).to_half();
        let b2 = random::normal_matrix(64, 19, 0.0, 1.0, 25).to_half();
        let batch = band.run_batch(&[&b1, &b2]);
        assert_eq!(batch[0], mma.run(&b1));
        assert_eq!(batch[1], mma.run(&b2));
        let x = random::activation_matrix(11, 64, 26);
        let bias: Vec<f32> = (0..64).map(|i| (i as f32).cos()).collect();
        assert_eq!(band.run_linear(&x, &bias), mma.run_linear(&x, &bias));
        assert_eq!(
            band.run_linear(&x, &bias),
            MatmulPlan::run_linear_percall(&band, &x, &bias)
        );
        let staged = stage::stage_activations_t(&x);
        assert_eq!(
            band.run_linear_staged(&staged, x.rows(), &bias),
            band.run_linear(&x, &bias)
        );
    }

    #[test]
    fn band_plan_reports_its_path_and_memory_regime() {
        use venom_sim::Regime;
        let cfg = VnmConfig::new(64, 2, 8);
        let a = vnm_fixture(1024, 768, cfg, 27);
        // Small output width: left of the CUDA-core ridge.
        let plan = band_build(&a, 8);
        assert_eq!(plan.format(), MatmulFormat::Vnm);
        assert_eq!(MatmulPlan::path(&plan), "band");
        assert_eq!(
            MatmulPlan::regime(&plan, &dev()),
            Some(Regime::MemoryBound),
            "c=8 tall-skinny must sit left of the ridge"
        );
        assert!(MatmulPlan::cost_ms(&plan).is_some());
    }

    #[test]
    fn band_plan_rejects_wide_k() {
        // K beyond u16 range cannot be streamed with narrow indices.
        let cfg = VnmConfig::new(16, 2, 8);
        let k = (u16::MAX as usize + 1) + 8;
        let w = Matrix::<Half>::zeros(16, k);
        let mask = venom_format::SparsityMask::from_fn(16, k, |_, c| c % 8 < 2);
        let a = VnmMatrix::compress(&w, &mask, cfg);
        let desc = MatmulDescriptor::new(16, k).with_b_cols(8);
        let err = FormatPlan::band(Arc::new(a), desc, &dev()).unwrap_err();
        assert!(
            err.to_string().contains("16-bit source indices"),
            "got: {err}"
        );
    }
}
