//! Bulk slice operations over half-precision data.
//!
//! These are the scalar building blocks the tensor and format crates use for
//! conversions, reductions, and error analysis.

use crate::Half;

/// Converts a slice of `f32` into a freshly allocated `Vec<Half>`.
pub fn from_f32_slice(xs: &[f32]) -> Vec<Half> {
    xs.iter().map(|&x| Half::from_f32(x)).collect()
}

/// Converts a slice of `Half` into a freshly allocated `Vec<f32>`.
pub fn to_f32_vec(xs: &[Half]) -> Vec<f32> {
    xs.iter().map(|x| x.to_f32()).collect()
}

/// In-place conversion of `f32` values into `dst`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn convert_into(src: &[f32], dst: &mut [Half]) {
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = Half::from_f32(s);
    }
}

/// Bulk table-backed decode of `Half` values into an `f32` destination.
///
/// Bit-identical to calling [`Half::to_f32`] per element (the table is
/// exhaustively verified against it) but hoists the table borrow out of
/// the loop — this is the stage-1 primitive of the staged-operand
/// pipeline.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn decode_f32_into(src: &[Half], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    let table = crate::lut::f16_to_f32_table();
    for (d, s) in dst.iter_mut().zip(src) {
        *d = table[s.to_bits() as usize];
    }
}

/// Bulk table-backed decode into a freshly allocated `Vec<f32>`.
pub fn decode_f32_vec(src: &[Half]) -> Vec<f32> {
    let table = crate::lut::f16_to_f32_table();
    src.iter().map(|s| table[s.to_bits() as usize]).collect()
}

/// Rounds every value to the nearest binary16 and widens it back, in
/// place: element for element the bits of `Half::from_f32(x).to_f32()`
/// (round to nearest, ties to even; overflow to infinity; NaN payloads
/// truncated as [`crate::f32_to_f16_bits`] does), computed with integer
/// and float selects instead of branches so the loop vectorizes.
pub fn round_through_f16(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        let bits = x.to_bits();
        let abs = bits & 0x7FFF_FFFF;
        // Normal f16 range: round the mantissa to 10 bits, ties to even;
        // a carry out of the mantissa lands in the exponent.
        let normal = (abs + 0x0FFF + ((abs >> 13) & 1)) & 0xFFFF_E000;
        // Below the smallest normal (2^-14) the f16 grid is a fixed
        // 2^-24, which is the f32 ulp of 0.5: adding and removing 0.5
        // rounds to that grid, ties to even.
        let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
        // 65520 and up rounds to infinity; a NaN keeps its top 10
        // payload bits, or gets the lowest one if those are all zero.
        let payload = abs & 0x007F_E000;
        let nan = 0x7F80_0000 | payload | u32::from(payload == 0) << 13;
        let rounded = if abs > 0x7F80_0000 {
            nan
        } else if abs >= 0x477F_F000 {
            0x7F80_0000
        } else if abs < 0x3880_0000 {
            subnormal
        } else {
            normal
        };
        *x = f32::from_bits(rounded | (bits & 0x8000_0000));
    }
}

/// Dot product with `f32` accumulation (tensor-core numerics).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_f32(a: &[Half], b: &[Half]) -> f32 {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mac_f32(y, acc);
    }
    acc
}

/// Sum of absolute values in `f64` (used by the energy metric, where the
/// reduction must not lose small weights at high dimensionality).
pub fn abs_sum_f64(xs: &[Half]) -> f64 {
    xs.iter().map(|x| x.abs().to_f64()).sum()
}

/// Largest absolute difference between two equal-length slices, in `f32`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[Half], b: &[Half]) -> f32 {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.to_f32() - y.to_f32()).abs())
        .fold(0.0, f32::max)
}

/// Counts exact (bitwise, treating all NaNs as equal) mismatches.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn count_mismatches(a: &[Half], b: &[Half]) -> usize {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            if x.is_nan() && y.is_nan() {
                false
            } else {
                x.to_bits() != y.to_bits()
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_slice_conversion() {
        let xs = vec![0.0f32, 1.0, -2.5, 0.125, 65504.0];
        let hs = from_f32_slice(&xs);
        let back = to_f32_vec(&hs);
        assert_eq!(xs, back);
    }

    #[test]
    fn convert_into_overwrites() {
        let src = [1.0f32, 2.0, 3.0];
        let mut dst = vec![Half::ZERO; 3];
        convert_into(&src, &mut dst);
        assert_eq!(to_f32_vec(&dst), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn convert_into_rejects_length_mismatch() {
        let src = [1.0f32];
        let mut dst = vec![Half::ZERO; 2];
        convert_into(&src, &mut dst);
    }

    #[test]
    fn batched_decode_matches_scalar_reference_bitwise() {
        // Every interesting class: zeros, normals, subnormals, extremes.
        let patterns: Vec<Half> = [
            0x0000u16, 0x8000, 0x3C00, 0xBC00, 0x0001, 0x8001, 0x03FF, 0x0400, 0x7BFF, 0xFBFF,
            0x2E66, 0x3555,
        ]
        .iter()
        .map(|&b| Half::from_bits(b))
        .collect();
        let mut dst = vec![0.0f32; patterns.len()];
        decode_f32_into(&patterns, &mut dst);
        let vec = decode_f32_vec(&patterns);
        for (i, h) in patterns.iter().enumerate() {
            assert_eq!(dst[i].to_bits(), h.to_f32().to_bits());
            assert_eq!(vec[i].to_bits(), h.to_f32().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn batched_decode_rejects_length_mismatch() {
        let src = [Half::ONE];
        let mut dst = vec![0.0f32; 2];
        decode_f32_into(&src, &mut dst);
    }

    #[test]
    fn round_through_f16_matches_the_reference_conversion_bitwise() {
        // Every 16-bit high half (every exponent, sign and top mantissa
        // bits) with low halves at the rounding boundaries and between.
        let mut xs = Vec::new();
        for hi in 0..=u16::MAX as u32 {
            for lo in [
                0u32, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x7FFF, 0xFFFF,
            ] {
                xs.push(f32::from_bits(hi << 16 | lo));
            }
        }
        let mut rounded = xs.clone();
        round_through_f16(&mut rounded);
        for (&x, &r) in xs.iter().zip(&rounded) {
            let want = Half::from_f32(x).to_f32();
            assert_eq!(r.to_bits(), want.to_bits(), "{:#010x}", x.to_bits());
        }
    }

    #[test]
    fn dot_product_accumulates_in_f32() {
        let a = vec![Half::ONE; 4096];
        let b = vec![Half::from_f32(0.5); 4096];
        // An f16 accumulator would stall at 2048's ulp; f32 is exact here.
        assert_eq!(dot_f32(&a, &b), 2048.0);
    }

    #[test]
    fn abs_sum_uses_f64() {
        let xs = vec![Half::from_f32(-1.0); 10];
        assert_eq!(abs_sum_f64(&xs), 10.0);
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        let a = from_f32_slice(&[1.0, 2.0, 3.0]);
        let b = from_f32_slice(&[1.0, 0.0, 3.5]);
        assert_eq!(max_abs_diff(&a, &b), 2.0);
    }

    #[test]
    fn mismatch_counting_ignores_nan_pairs() {
        let a = vec![Half::NAN, Half::ONE];
        let b = vec![Half::NAN, Half::ZERO];
        assert_eq!(count_mismatches(&a, &b), 1);
    }
}
