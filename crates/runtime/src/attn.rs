//! Planned sparse attention: the activation-side plan/execute split.
//!
//! The weight side of the engine plans once and replays per request
//! ([`crate::MatmulPlan`]); this module gives the *activation* side the
//! same treatment. Attention's inner product `S = Q Kᵀ` is an SDDMM —
//! only the positions a mask allows are ever needed — and the paper's
//! companion routine (§9a, and Magicube's second kernel) emits it
//! directly in compressed form, ready to feed softmax and the `P·V`
//! SpMM without a dense round trip.
//!
//! Two pieces:
//!
//! * [`AttentionMask`] — dynamic per-request masks (causal,
//!   sliding-window, blockwise) as first-class values. A mask is a
//!   predicate, not a matrix: the dense path applies it in place and the
//!   planned path walks its per-row key ranges, so no `O(seq²)` mask
//!   storage ever materializes.
//! * [`AttentionPlan`] — the full pipeline `SDDMM → masked softmax over
//!   the compressed scores → P·V`, computed only at the mask's sampled
//!   positions yet bit-identical to the dense reference chain
//!   (`gemm_parallel` → mask → `softmax_rows` → `gemm_parallel`),
//!   because masked entries contribute exactly-zero terms the dense
//!   accumulation order already skips or absorbs.
//!
//! The plan is priced from [`venom_core::sddmm_counts`]-derived
//! [`KernelCounts`], answers `regime(dev)`, and picks between the mma and
//! swapped-operand SDDMM schedules ([`SddmmPath`]) by simulated cost — the same
//! flip-on-cost discipline as `plan_auto`, no thresholds.

use crate::matmul::PlanError;
use rayon::prelude::*;
use venom_core::{sddmm_counts, sddmm_counts_swapped};
use venom_format::{SparsityMask, VnmConfig};
use venom_fp16::slice::round_through_f16;
use venom_sim::pipeline::{simulate, KernelCounts, KernelTiming};
use venom_sim::{DeviceConfig, Regime, Roofline};
use venom_tensor::Matrix;

/// A dynamic attention mask: which key positions each query row may
/// attend to. First-class and cheap to pass around — the block structure
/// only materializes (as a [`SparsityMask`]) when a V:N:M kernel needs
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttentionMask {
    /// Decoder masking: position `r` attends to positions `c <= r`.
    Causal,
    /// Causal sliding window: position `r` attends to the last `window`
    /// positions `c` with `r - window < c <= r` (Longformer/Mistral
    /// style local attention).
    SlidingWindow {
        /// Window length in positions (>= 1); `window >= seq` degenerates
        /// to [`AttentionMask::Causal`].
        window: usize,
    },
    /// Block-diagonal masking: the sequence splits into contiguous
    /// blocks of `block` positions and attention stays within a block —
    /// the blockwise structure [`SparsityMask`] groups columns by.
    Blockwise {
        /// Block length in positions (>= 1).
        block: usize,
    },
}

impl AttentionMask {
    /// Whether query row `r` may attend to key column `c`.
    #[inline]
    pub fn allows(&self, r: usize, c: usize) -> bool {
        match *self {
            AttentionMask::Causal => c <= r,
            AttentionMask::SlidingWindow { window } => c <= r && r - c < window,
            AttentionMask::Blockwise { block } => r / block.max(1) == c / block.max(1),
        }
    }

    /// The contiguous range of key columns row `r` attends to at
    /// sequence length `seq`. Every supported mask kind is contiguous
    /// per row, which is what lets the planned attention path keep no
    /// gather plane or bitmap at all.
    pub fn row_range(&self, r: usize, seq: usize) -> core::ops::Range<usize> {
        match *self {
            AttentionMask::Causal => 0..(r + 1).min(seq),
            AttentionMask::SlidingWindow { window } => {
                (r + 1).saturating_sub(window.max(1))..(r + 1).min(seq)
            }
            AttentionMask::Blockwise { block } => {
                let b = block.max(1);
                (r / b) * b..((r / b + 1) * b).min(seq)
            }
        }
    }

    /// Allowed positions over a `seq x seq` score matrix.
    pub fn nnz(&self, seq: usize) -> usize {
        (0..seq).map(|r| self.row_range(r, seq).len()).sum()
    }

    /// Fraction of the `seq x seq` score matrix the mask keeps.
    pub fn density(&self, seq: usize) -> f64 {
        if seq == 0 {
            return 0.0;
        }
        self.nnz(seq) as f64 / (seq * seq) as f64
    }

    /// Materializes the predicate as a [`SparsityMask`] — the bridge to
    /// the V:N:M block structure ([`SparsityMask::complies_vnm`],
    /// [`SparsityMask::and`] for intersecting with a pattern's selected
    /// columns).
    pub fn to_sparsity_mask(&self, seq: usize) -> SparsityMask {
        SparsityMask::from_fn(seq, seq, |r, c| self.allows(r, c))
    }

    /// The mask kind as a census label.
    pub fn kind(&self) -> &'static str {
        match self {
            AttentionMask::Causal => "causal",
            AttentionMask::SlidingWindow { .. } => "sliding-window",
            AttentionMask::Blockwise { .. } => "blockwise",
        }
    }

    /// Shape/parameter validation shared by the plan builders.
    fn validate(&self) -> Result<(), PlanError> {
        let bad = |reason: String| PlanError::Unplannable {
            what: "attention",
            reason,
        };
        match *self {
            AttentionMask::SlidingWindow { window: 0 } => {
                Err(bad("sliding window length must be at least 1".into()))
            }
            AttentionMask::Blockwise { block: 0 } => {
                Err(bad("block length must be at least 1".into()))
            }
            _ => Ok(()),
        }
    }
}

impl core::fmt::Display for AttentionMask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttentionMask::Causal => write!(f, "causal"),
            AttentionMask::SlidingWindow { window } => write!(f, "sliding-window({window})"),
            AttentionMask::Blockwise { block } => write!(f, "blockwise({block})"),
        }
    }
}

/// Which SDDMM schedule a plan replays — selected by simulated cost at
/// build time, exactly like `plan_auto` picks a weight format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SddmmPath {
    /// Row-tiled dense `mma` over the gathered K columns
    /// ([`venom_core::sddmm_counts`]).
    Mma,
    /// Swapped-operand stream: tile only the condensed columns, stream Q
    /// ([`venom_core::sddmm_counts_swapped`]).
    Swapped,
}

impl core::fmt::Display for SddmmPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SddmmPath::Mma => write!(f, "sddmm-mma"),
            SddmmPath::Swapped => write!(f, "sddmm-swapped"),
        }
    }
}

/// Keys per `QKᵀ` step: one accumulator per key, so a step advances 32
/// independent score chains across the vector lanes instead of one long
/// `d`-step chain per score.
const KEY_BLOCK: usize = 32;

/// Output columns one `P·V` chunk keeps in registers.
const PV_CHUNK: usize = 16;

/// A planned attention pipeline for one `(seq, hidden, heads, mask)`
/// shape: SDDMM over the mask's per-row key ranges, softmax over the
/// compressed scores, `P·V` over the same keys — never materializing
/// the dense `seq x seq` score matrix, yet bit-identical to the dense
/// reference chain at every unmasked position (masked positions
/// contribute exactly-zero terms the dense order already absorbs).
///
/// Every mask kind is one contiguous key range per row
/// ([`AttentionMask::row_range`]), so the plan keeps no gather plane —
/// only the `O(seq)` prefix of sampled keys per row, which splits the
/// rows into equal-work ranges across threads.
#[derive(Clone, Debug)]
pub struct AttentionPlan {
    seq: usize,
    hidden: usize,
    heads: usize,
    d_head: usize,
    mask: AttentionMask,
    /// `row_prefix[r]` = sampled keys in rows `0..r` (length `seq + 1`).
    row_prefix: Vec<usize>,
    scale: f32,
    path: SddmmPath,
    counts: KernelCounts,
    timing: KernelTiming,
}

impl AttentionPlan {
    /// Builds and prices the plan.
    ///
    /// # Errors
    /// [`PlanError::Unplannable`] on a degenerate shape (zero sequence,
    /// heads not dividing hidden) or mask parameters.
    pub fn build(
        seq: usize,
        hidden: usize,
        heads: usize,
        mask: AttentionMask,
        dev: &DeviceConfig,
    ) -> Result<AttentionPlan, PlanError> {
        let bad = |reason: String| PlanError::Unplannable {
            what: "attention",
            reason,
        };
        mask.validate()?;
        if seq == 0 {
            return Err(bad("sequence length must be at least 1".into()));
        }
        if heads == 0 || !hidden.is_multiple_of(heads) {
            return Err(bad(format!(
                "heads ({heads}) must divide the hidden size ({hidden})"
            )));
        }
        let d_head = hidden / heads;

        let mut row_prefix = Vec::with_capacity(seq + 1);
        row_prefix.push(0);
        for r in 0..seq {
            row_prefix.push(row_prefix[r] + mask.row_range(r, seq).len());
        }

        let (path, counts, timing) = attn_price(seq, d_head, heads, row_prefix[seq], mask, dev);
        Ok(AttentionPlan {
            seq,
            hidden,
            heads,
            d_head,
            mask,
            row_prefix,
            scale: 1.0 / (d_head as f32).sqrt(),
            path,
            counts,
            timing,
        })
    }

    /// The attention matmuls over projected activations: per head,
    /// `softmax(Q_h K_hᵀ / sqrt(d)) V_h`, computed only at the mask's
    /// sampled positions. Bit-identical to the dense per-head chain
    /// (`gemm_parallel` scores, in-place mask, `softmax_rows`,
    /// `gemm_parallel` context) at every position.
    ///
    /// One pass over all heads: the operands are staged once (in
    /// parallel by head), then one parallel region splits the rows into
    /// per-thread ranges of equal sampled-key count, and each thread runs
    /// every head of its rows with its own reusable score buffers.
    ///
    /// # Panics
    /// Panics when the operand shapes disagree with the planned
    /// `(seq, hidden)`.
    pub fn attention(&self, q: &Matrix<f32>, k: &Matrix<f32>, v: &Matrix<f32>) -> Matrix<f32> {
        let (seq, hidden) = (self.seq, self.hidden);
        for (name, m) in [("Q", q), ("K", k), ("V", v)] {
            assert_eq!(
                (m.rows(), m.cols()),
                (seq, hidden),
                "{name} shape must match the planned (seq, hidden)"
            );
        }
        if hidden == 0 {
            // No head columns: nothing to stage, and zero-width panels
            // cannot be chunked by head.
            return Matrix::zeros(seq, 0);
        }
        let timer = venom_obs::profile::PhaseTimer::start();
        let panels = self.stage(q, k, v);
        // The three operands, each read once for all heads.
        timer.stop("attention", "stage", (3 * seq * hidden * 4) as u64);

        let timer = venom_obs::profile::PhaseTimer::start();
        let mut ctx = Matrix::<f32>::zeros(seq, hidden);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut rest = ctx.as_mut_slice();
        let mut jobs = Vec::with_capacity(threads);
        for rows in balanced_row_ranges(&self.row_prefix, threads) {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * hidden);
            jobs.push((rows, out));
            rest = tail;
        }
        jobs.into_par_iter()
            .for_each(|(rows, out)| self.attend_rows(&panels, rows, out));
        // Compulsory traffic of the one pass: the staged panels read once
        // and the context written once — no index planes.
        timer.stop(
            "attention",
            "mma",
            ((panels.len() + seq * hidden) * 4) as u64,
        );
        ctx
    }

    /// Floats one head occupies in the staged panels: the Q and V row
    /// panels, then the key-blocked transposed K panel.
    fn head_stride(&self) -> usize {
        let blocks = self.seq.div_ceil(KEY_BLOCK);
        2 * self.seq * self.d_head + blocks * self.d_head * KEY_BLOCK
    }

    /// Rounds `Q`, `K` and `V` through f16 and decodes them exactly —
    /// per element the value the dense path's `.to_half()` plus staged
    /// decode produces — into per-head panels, in parallel by head.
    ///
    /// Head `h` holds `q[r * d + kk]`, `v[r * d + kk]`, and K blocked by
    /// 32 keys and transposed within the block:
    /// `kt[(b * d + kk) * 32 + j] = K[32 b + j][h d + kk]`, with the lanes
    /// past `seq` left zero. A plain `[d][seq]` transpose would put the
    /// `d` rows one key block reads `4 * seq` bytes apart, aliasing in L1.
    fn stage(&self, q: &Matrix<f32>, k: &Matrix<f32>, v: &Matrix<f32>) -> Vec<f32> {
        let (seq, d) = (self.seq, self.d_head);
        let mut panels = vec![0.0f32; self.heads * self.head_stride()];
        panels
            .par_chunks_mut(self.head_stride())
            .enumerate()
            .for_each(|(h, panel)| {
                let cols = h * d..(h + 1) * d;
                let (qh, rest) = panel.split_at_mut(seq * d);
                let (vh, kt) = rest.split_at_mut(seq * d);
                let mut krow = vec![0.0f32; d];
                for r in 0..seq {
                    let rows = r * d..(r + 1) * d;
                    qh[rows.clone()].copy_from_slice(&q.row(r)[cols.clone()]);
                    round_through_f16(&mut qh[rows.clone()]);
                    vh[rows.clone()].copy_from_slice(&v.row(r)[cols.clone()]);
                    round_through_f16(&mut vh[rows]);
                    krow.copy_from_slice(&k.row(r)[cols.clone()]);
                    round_through_f16(&mut krow);
                    let (b, j) = (r / KEY_BLOCK, r % KEY_BLOCK);
                    for (kk, &x) in krow.iter().enumerate() {
                        kt[(b * d + kk) * KEY_BLOCK + j] = x;
                    }
                }
            });
        panels
    }

    /// Every head of query rows `rows`, written into `out` (those rows
    /// of the context, row-major).
    fn attend_rows(&self, panels: &[f32], rows: core::ops::Range<usize>, out: &mut [f32]) {
        let (seq, hidden, d) = (self.seq, self.hidden, self.d_head);
        let widest = rows
            .clone()
            .map(|r| self.mask.row_range(r, seq).len())
            .max()
            .unwrap_or(0);
        let mut scores = vec![0.0f32; widest];
        let mut probs = vec![(0.0f32, 0u32); widest];
        for (h, panel) in panels.chunks_exact(self.head_stride()).enumerate() {
            let (qh, rest) = panel.split_at(seq * d);
            let (vh, kt) = rest.split_at(seq * d);
            for r in rows.clone() {
                let keys = self.mask.row_range(r, seq);
                let s = &mut scores[..keys.len()];
                score_row(&qh[r * d..(r + 1) * d], kt, keys.clone(), self.scale, s);
                // Masked softmax over the compressed row. The row max
                // over sampled entries equals the dense row max (masked
                // entries are -inf); masked exp terms are +0.0 and leave
                // the dense running sum bit-exact.
                let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                if max == f32::NEG_INFINITY {
                    // Fully-masked (or empty) row: the dense guarded
                    // softmax yields zeros, so P·V contributes nothing
                    // and the context row stays zero.
                    continue;
                }
                let mut sum = 0.0f32;
                for sv in s.iter_mut() {
                    *sv = (*sv - max).exp();
                    sum += *sv;
                }
                // Probabilities round through f16 exactly as the dense
                // path's `probs.to_half()`, and exact-zero probabilities
                // are skipped — the dense kernel skips them too.
                for sv in s.iter_mut() {
                    *sv /= sum;
                }
                round_through_f16(s);
                let mut kept = 0;
                for (&p, c) in s.iter().zip(keys) {
                    probs[kept] = (p, c as u32);
                    kept += usize::from(p != 0.0);
                }
                let base = (r - rows.start) * hidden + h * d;
                pv_row(&probs[..kept], vh, d, &mut out[base..base + d]);
            }
        }
    }

    /// The mask the plan was condensed from.
    pub fn mask(&self) -> AttentionMask {
        self.mask
    }

    /// `(seq, hidden, heads)` of the planned shape.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.seq, self.hidden, self.heads)
    }

    /// Sampled score positions per head.
    pub fn nnz(&self) -> usize {
        self.row_prefix[self.seq]
    }

    /// Fraction of the dense `seq x seq` score matrix the plan computes.
    pub fn density(&self) -> f64 {
        self.mask.density(self.seq)
    }

    /// The SDDMM schedule cost selection picked.
    pub fn path(&self) -> SddmmPath {
        self.path
    }

    /// The priced resource counts of the whole pipeline.
    pub fn counts(&self) -> &KernelCounts {
        &self.counts
    }

    /// Simulated timing of one forward on the build device.
    pub fn timing(&self) -> &KernelTiming {
        &self.timing
    }

    /// Simulated milliseconds per forward.
    pub fn cost_ms(&self) -> f64 {
        self.timing.time_ms
    }

    /// Roofline placement of the pipeline on `dev`.
    pub fn roofline(&self, dev: &DeviceConfig) -> Roofline {
        venom_sim::roofline::analyze(dev, &self.counts)
    }

    /// Compute- or memory-bound verdict on `dev`.
    pub fn regime(&self, dev: &DeviceConfig) -> Regime {
        self.roofline(dev).regime()
    }

    /// Approximate resident bytes (the per-row sampled-key prefix).
    pub fn approx_bytes(&self) -> usize {
        self.row_prefix.len() * core::mem::size_of::<usize>()
    }
}

/// Splits rows `0..prefix.len() - 1` into at most `parts` contiguous
/// ranges holding about equal shares of the sampled keys (`prefix` is
/// the per-row running count). Equal row counts would not balance: under
/// a causal mask the last rows carry most of the keys.
fn balanced_row_ranges(prefix: &[usize], parts: usize) -> Vec<core::ops::Range<usize>> {
    let rows = prefix.len() - 1;
    let total = prefix[rows];
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for t in 1..=parts {
        let end = if t == parts {
            rows
        } else {
            prefix
                .partition_point(|&p| p < total * t / parts)
                .clamp(start, rows)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Scaled scores of one query row against keys `keys`, into `s`.
///
/// Works one 32-key block of the blocked panel `kt` at a time with one
/// accumulator per key, so each score keeps the scalar chain of the
/// dense reference: start at `0.0`, add `q[kk] * k[kk]` in `kk` order,
/// then multiply by `scale` (no fused multiply-add, which would round
/// differently). A block the range covers only in part still runs all
/// 32 lanes; each lane is its own chain, so the kept lanes are the same
/// bits.
fn score_row(q: &[f32], kt: &[f32], keys: core::ops::Range<usize>, scale: f32, s: &mut [f32]) {
    let d = q.len();
    if keys.is_empty() {
        return;
    }
    for b in keys.start / KEY_BLOCK..=(keys.end - 1) / KEY_BLOCK {
        let block = &kt[b * d * KEY_BLOCK..(b + 1) * d * KEY_BLOCK];
        let mut acc = [0.0f32; KEY_BLOCK];
        for (&qv, lanes) in q.iter().zip(block.chunks_exact(KEY_BLOCK)) {
            for (a, &kv) in acc.iter_mut().zip(lanes) {
                *a += qv * kv;
            }
        }
        let first = b * KEY_BLOCK;
        let lo = keys.start.max(first);
        let hi = keys.end.min(first + KEY_BLOCK);
        for (dst, &a) in s[lo - keys.start..hi - keys.start]
            .iter_mut()
            .zip(&acc[lo - first..hi - first])
        {
            *dst = a * scale;
        }
    }
}

/// `out = Σ p · V[key]` over the compacted `(probability, key)` pairs,
/// in ascending key order, one 16-column chunk of accumulators at a time.
/// Each output element starts at `0.0` and adds in pair order — the
/// dense `P·V` chain with its exact-zero terms skipped.
fn pv_row(probs: &[(f32, u32)], vh: &[f32], d: usize, out: &mut [f32]) {
    for (chunk, dst) in out.chunks_mut(PV_CHUNK).enumerate() {
        let c0 = chunk * PV_CHUNK;
        let mut acc = [0.0f32; PV_CHUNK];
        // Full chunks take a fixed-width loop the compiler keeps in
        // registers (about 5% faster on the causal loop than the
        // variable-width one the last chunk of an odd head width needs).
        if let Ok(dst) = <&mut [f32; PV_CHUNK]>::try_from(&mut *dst) {
            for &(p, c) in probs {
                let x = &vh[c as usize * d + c0..c as usize * d + c0 + PV_CHUNK];
                for (a, &xv) in acc.iter_mut().zip(x) {
                    *a += p * xv;
                }
            }
            *dst = acc;
        } else {
            let w = dst.len();
            for &(p, c) in probs {
                let x = &vh[c as usize * d + c0..c as usize * d + c0 + w];
                for (a, &xv) in acc.iter_mut().zip(x) {
                    *a += p * xv;
                }
            }
            dst.copy_from_slice(&acc[..w]);
        }
    }
}

/// Prices the attention pipeline on both SDDMM schedules and keeps the
/// cheaper one. The counts derive from [`venom_core::sddmm_counts`] at a
/// V:N:M configuration whose condensed slab matches the mask's density
/// (`SELECTED_COLUMNS / m ≈ nnz / seq²`), scaled to all heads, with the
/// effective work pinned to the mask's true sampled positions — so
/// `regime(dev)` answers for the real pipeline, not a proxy.
fn attn_price(
    seq: usize,
    d_head: usize,
    heads: usize,
    nnz: usize,
    mask: AttentionMask,
    dev: &DeviceConfig,
) -> (SddmmPath, KernelCounts, KernelTiming) {
    let density = (nnz as f64 / (seq * seq).max(1) as f64).max(1e-6);
    // The equivalent V:N:M pattern: m sized so the condensed slab keeps
    // the same fraction of columns as the mask does.
    let m = ((venom_format::SELECTED_COLUMNS as f64 / density).round() as usize)
        .clamp(venom_format::SELECTED_COLUMNS, 4096);
    let cfg = VnmConfig::new(16, 2, m);
    let finish = |mut counts: KernelCounts| {
        counts.grid_blocks = counts.grid_blocks.saturating_mul(heads as u64).max(1);
        // SDDMM work plus the P·V pass over the same sampled entries.
        counts.effective_flops = (heads * 2 * nnz * d_head) as u64 * 2;
        counts.name = format!("attn[{mask}]");
        counts
    };
    let mma = finish(sddmm_counts(seq, d_head, seq, cfg));
    let swapped = finish(sddmm_counts_swapped(seq, d_head, seq, cfg));
    let t_mma = simulate(dev, &mma).expect("attn counts fit the shipped presets");
    let t_swapped = simulate(dev, &swapped).expect("swapped attn counts fit the shipped presets");
    if crate::pricing::cost_cmp(t_swapped.time_ms, t_mma.time_ms) == core::cmp::Ordering::Less {
        (SddmmPath::Swapped, swapped, t_swapped)
    } else {
        (SddmmPath::Mma, mma, t_mma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    #[test]
    fn mask_predicates_match_their_row_ranges() {
        let seq = 37;
        for mask in [
            AttentionMask::Causal,
            AttentionMask::SlidingWindow { window: 5 },
            AttentionMask::SlidingWindow { window: 64 },
            AttentionMask::Blockwise { block: 8 },
        ] {
            let mut nnz = 0;
            for r in 0..seq {
                let range = mask.row_range(r, seq);
                for c in 0..seq {
                    assert_eq!(
                        mask.allows(r, c),
                        range.contains(&c),
                        "{mask} disagrees at ({r},{c})"
                    );
                }
                assert!(!range.is_empty(), "{mask} row {r} must attend somewhere");
                assert!(range.contains(&r), "{mask} row {r} must see itself");
                nnz += range.len();
            }
            assert_eq!(mask.nnz(seq), nnz);
            assert_eq!(
                mask.to_sparsity_mask(seq).nnz(),
                nnz,
                "{mask} bitmap bridge disagrees"
            );
        }
    }

    #[test]
    fn attention_plan_prices_and_answers_regime() {
        let plan = AttentionPlan::build(128, 128, 4, AttentionMask::Causal, &dev()).unwrap();
        assert!(plan.cost_ms() > 0.0);
        assert_eq!(plan.nnz(), 128 * 129 / 2);
        let roof = plan.roofline(&dev());
        assert!(roof.intensity > 0.0);
        // Sparser masks must price cheaper at the same shape: the cost
        // derivation tracks the mask, not just the shape.
        let window = AttentionPlan::build(
            128,
            128,
            4,
            AttentionMask::SlidingWindow { window: 8 },
            &dev(),
        )
        .unwrap();
        assert!(
            window.cost_ms() < plan.cost_ms(),
            "sliding-window ({}) must price below causal ({})",
            window.cost_ms(),
            plan.cost_ms()
        );
    }

    #[test]
    fn attention_plan_rejects_degenerate_shapes() {
        let e = AttentionPlan::build(0, 64, 4, AttentionMask::Causal, &dev()).unwrap_err();
        assert!(e.to_string().contains("sequence"), "{e}");
        let e = AttentionPlan::build(8, 64, 5, AttentionMask::Causal, &dev()).unwrap_err();
        assert!(e.to_string().contains("divide"), "{e}");
        let e = AttentionPlan::build(8, 64, 4, AttentionMask::SlidingWindow { window: 0 }, &dev())
            .unwrap_err();
        assert!(e.to_string().contains("window"), "{e}");
    }
}
