//! Retired `lossy-cast`: the hot-path files open with this module's
//! attribute, verbatim. Casts that cannot lose data pass.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

/// Narrowing casts.
pub fn narrowing(a: f64, n: usize) -> f32 {
    let x = a as f32; //~ clippy::cast_possible_truncation
    let y = n as u32; //~ clippy::cast_possible_truncation
    let z = n as i16; //~ clippy::cast_possible_truncation //~ clippy::cast_possible_wrap
    x + ((y + z as u32) as f32) //~ clippy::cast_sign_loss //~ clippy::cast_precision_loss
}

/// An index past 2^53 has no exact `f64`.
pub fn index_to_float(i: usize) -> f64 {
    i as f64 //~ clippy::cast_precision_loss
}

/// Widening casts cannot lose data.
pub fn widening_is_fine(n: u32, b: u8, s: i16) -> f64 {
    let a = n as f64;
    let c = b as u32 + n;
    let d = s as i32;
    a + c as f64 + d as f64
}
