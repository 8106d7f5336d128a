//! Storage dtypes and software bf16 conversion.
//!
//! Photon keeps **f32 master weights and f32 accumulation** everywhere —
//! [`Dtype`] only selects the *storage* precision for parameters at rest
//! (checkpoints) and update vectors on the wire. bf16 keeps f32's 8-bit
//! exponent (same dynamic range, no overflow on conversion) and truncates
//! the mantissa to 7 bits, which is the TorchTitan-style precision policy:
//! convergence is governed by the f32 accumulation path, storage halves.
//!
//! Conversion is software-only (no `f16c`/`bf16` hardware requirement):
//! round-to-nearest-even on encode, exact widening on decode. NaNs are
//! quieted (payload truncated, never collapsed to Inf); infinities and
//! signed zeros round-trip exactly.

use serde::{Deserialize, Serialize};

/// Storage precision for parameters at rest and updates on the wire.
///
/// Compute precision is always f32; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Dtype {
    /// 4-byte IEEE-754 single precision (the default; bit-exact storage).
    #[default]
    F32,
    /// 2-byte bfloat16: f32 with the mantissa truncated to 7 bits
    /// (round-to-nearest-even). Halves storage and wire bytes.
    Bf16,
}

impl Dtype {
    /// Parses a dtype name as accepted by config files and `--dtype`.
    pub fn parse(s: &str) -> Option<Dtype> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" | "fp32" | "float32" => Some(Dtype::F32),
            "bf16" | "bfloat16" => Some(Dtype::Bf16),
            _ => None,
        }
    }

    /// Short stable name (`"f32"` / `"bf16"`), used for metrics and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::Bf16 => "bf16",
        }
    }

    /// Bytes per parameter in this storage precision.
    pub fn bytes_per_param(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::Bf16 => 2,
        }
    }

    /// Stable identifier for trace args (0 = f32, 1 = bf16).
    pub fn id(self) -> u64 {
        match self {
            Dtype::F32 => 0,
            Dtype::Bf16 => 1,
        }
    }
}

/// Converts an `f32` to bf16 bits with round-to-nearest-even.
///
/// NaN payloads are truncated but quieted (bit 6 of the bf16 mantissa is
/// forced) so a NaN can never round to Inf; all other values round to the
/// nearest representable bf16, ties to even.
pub fn bf16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep sign + exponent, truncate the payload, force a quiet bit so
        // the result is still NaN.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round-to-nearest-even: add 0x7fff plus the LSB of the kept mantissa.
    let rounded = bits.wrapping_add(0x7fff + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// Widens bf16 bits back to `f32` (exact — bf16 is a prefix of f32).
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_round_trip() {
        let huge = 2.0f32.powi(120); // power of two: exact at any exponent
        for &x in &[0.0f32, -0.0, 1.0, -1.0, 0.5, -2.0, 256.0, huge, -huge] {
            let y = bf16_to_f32(bf16_from_f32(x));
            assert_eq!(x.to_bits(), y.to_bits(), "{x} should be exact in bf16");
        }
    }

    #[test]
    fn infinities_and_nan_preserved() {
        assert_eq!(bf16_to_f32(bf16_from_f32(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(bf16_from_f32(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(bf16_to_f32(bf16_from_f32(f32::NAN)).is_nan());
        // A signalling-ish NaN with a small payload must stay NaN, not
        // truncate to Inf.
        let snan = f32::from_bits(0x7f80_0001);
        assert!(bf16_to_f32(bf16_from_f32(snan)).is_nan());
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1.0 + 2^-8 sits exactly between 1.0 and the next bf16 (1.0078125);
        // nearest-even rounds down to 1.0 (even mantissa).
        let tie = f32::from_bits(0x3f80_8000);
        assert_eq!(bf16_to_f32(bf16_from_f32(tie)), 1.0);
        // Just above the tie rounds up.
        let above = f32::from_bits(0x3f80_8001);
        assert_eq!(
            bf16_to_f32(bf16_from_f32(above)),
            f32::from_bits(0x3f81_0000)
        );
    }

    #[test]
    fn relative_error_bounded() {
        // bf16 has 8 mantissa bits of precision (implicit leading 1), so
        // relative error after RNE is at most 2^-8.
        let mut x = 1e-30f32;
        while x < 1e30 {
            let y = bf16_to_f32(bf16_from_f32(x));
            let rel = ((y - x) / x).abs();
            assert!(rel <= 1.0 / 256.0, "rel err {rel} at {x}");
            x *= 3.7;
        }
    }
}
