//! The matmul descriptor — the cuSPARSELt-style problem description the
//! unified plan surface is built around.
//!
//! A [`MatmulDescriptor`] says *what* is being computed (`y = x W^T (+
//! bias)` over a `out_features x in_features` weight, up to `b_cols`
//! output columns per dispatch, in which dtype); the [`crate::Engine`]
//! decides *how* (which storage format, which tile) and returns a
//! [`crate::MatmulPlan`]. Describing the column bound up front is what
//! lets planning price candidates fairly: every format is tuned and
//! timed for the same dispatch — and the dtype selects between genuinely
//! different execution paths: `f16` plans replay exact
//! fp16-product/f32-accumulation streams, `i8` plans run the calibrated
//! int8 container with exact i32 accumulation and a fused
//! dequantization epilogue.

use venom_fp16::Half;
use venom_tensor::{GemmShape, Matrix};

/// Operand precision of a planned matmul.
///
/// `F16` is the exact mixed-precision path (fp16 products, f32
/// accumulation). `I8` opts the descriptor into the calibrated int8
/// path: per-output-channel symmetric weight quantization, per-call
/// activation quantization, exact i32 accumulation (Table 1's `Uint8`
/// `mma.sp` row) and a dequantization scale folded into the epilogue.
/// [`crate::Engine::plan_auto`] prices i8 candidates alongside the f16
/// formats whenever the descriptor allows them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE half-precision operands, f32 accumulation.
    #[default]
    F16,
    /// Symmetric int8 operands, exact i32 accumulation.
    I8,
}

impl DType {
    /// Every operand dtype, in listing order.
    pub const ALL: [DType; 2] = [DType::F16, DType::I8];

    /// The CLI/report name — the single spelling [`core::fmt::Display`]
    /// prints and [`core::str::FromStr`] accepts.
    pub fn name(&self) -> &'static str {
        match self {
            DType::F16 => "f16",
            DType::I8 => "i8",
        }
    }

    /// The comma-separated list of valid dtype names (for error messages
    /// and usage text).
    pub fn valid_names() -> String {
        Self::ALL
            .iter()
            .map(|d| d.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Parses a dtype name as the CLI spells it.
    ///
    /// # Errors
    /// Returns a message listing the valid choices.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|d| d.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown dtype '{s}' (valid: {})", Self::valid_names()))
    }
}

impl core::fmt::Display for DType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for DType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Describes one weight matmul for planning: logical weight shape,
/// operand dtype, and the output-column bound the plan is tuned and
/// priced for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatmulDescriptor {
    /// Weight rows — the layer's output features.
    pub out_features: usize,
    /// Weight columns — the reduction dimension K.
    pub in_features: usize,
    /// Output-column bound the plan is tuned and priced for. Wider runs
    /// stay exact; only the captured pricing assumes the bound.
    pub b_cols: usize,
    /// Operand precision.
    pub dtype: DType,
}

impl MatmulDescriptor {
    /// Default column bound when the caller gives none: the BERT
    /// evaluation sequence length of the paper (matches
    /// [`crate::Engine::DEFAULT_B_COLS_HINT`]).
    pub const DEFAULT_B_COLS: usize = 512;

    /// A descriptor for a `out_features x in_features` weight with the
    /// default column bound and f16 operands.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(out_features: usize, in_features: usize) -> Self {
        assert!(
            out_features > 0 && in_features > 0,
            "descriptor dimensions must be nonzero"
        );
        MatmulDescriptor {
            out_features,
            in_features,
            b_cols: Self::DEFAULT_B_COLS,
            dtype: DType::F16,
        }
    }

    /// A descriptor matching a concrete weight matrix.
    pub fn for_weight(w: &Matrix<Half>) -> Self {
        Self::new(w.rows(), w.cols())
    }

    /// Overrides the output-column bound.
    ///
    /// # Panics
    /// Panics if `b_cols` is zero.
    #[must_use]
    pub fn with_b_cols(mut self, b_cols: usize) -> Self {
        assert!(b_cols > 0, "the column bound must be nonzero");
        self.b_cols = b_cols;
        self
    }

    /// Overrides the operand dtype.
    #[must_use]
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// The dense-equivalent GEMM shape at the planned bound
    /// (`out_features x in_features x b_cols`).
    pub fn gemm_shape(&self) -> GemmShape {
        GemmShape::new(self.out_features, self.in_features, self.b_cols)
    }

    /// Checks a weight matrix against the described shape.
    ///
    /// # Panics
    /// Panics if `w` is not `out_features x in_features`.
    pub fn assert_matches(&self, w: &Matrix<Half>) {
        assert_eq!(
            (w.rows(), w.cols()),
            (self.out_features, self.in_features),
            "weight shape does not match the descriptor"
        );
    }
}

impl core::fmt::Display for MatmulDescriptor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}x{} (<= {} cols, {})",
            self.out_features, self.in_features, self.b_cols, self.dtype
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let d = MatmulDescriptor::new(64, 128).with_b_cols(96);
        assert_eq!((d.out_features, d.in_features, d.b_cols), (64, 128, 96));
        assert_eq!(d.dtype, DType::F16);
        assert_eq!(d.gemm_shape(), GemmShape::new(64, 128, 96));
        assert!(d.to_string().contains("64x128"));
    }

    #[test]
    fn default_bound_is_bert_sequence_length() {
        assert_eq!(MatmulDescriptor::new(8, 8).b_cols, 512);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_dims() {
        let _ = MatmulDescriptor::new(0, 8);
    }

    #[test]
    fn dtype_display_and_fromstr_are_an_exhaustive_pairing() {
        // One source of truth: every variant's Display output parses back
        // to the variant, through both the inherent parse and FromStr.
        for d in DType::ALL {
            assert_eq!(DType::parse(&d.to_string()).unwrap(), d);
            assert_eq!(d.to_string().parse::<DType>().unwrap(), d);
            assert_eq!(d.to_string(), d.name());
        }
        let err = DType::parse("fp42").unwrap_err();
        assert!(err.contains("f16") && err.contains("i8"), "{err}");
        assert!("int8".parse::<DType>().is_err());
    }

    #[test]
    fn with_dtype_threads_through_display() {
        let d = MatmulDescriptor::new(8, 8).with_dtype(DType::I8);
        assert_eq!(d.dtype, DType::I8);
        assert!(d.to_string().contains("i8"), "{d}");
    }
}
