//! Retired `float-eq`: `clippy::float_cmp`, denied at every scanned crate
//! root. It knows operand types, so it also rejects comparisons the old
//! syntactic rule missed, such as two float variables.

/// Comparisons against nonzero literals.
pub fn literal_comparisons(x: f64) -> bool {
    let a = x == 1.0; //~ clippy::float_cmp
    let b = x != 2.5e3; //~ clippy::float_cmp
    let c = 0.75 == x; //~ clippy::float_cmp
    let d = x == -3.5; //~ clippy::float_cmp
    a && b && c && d
}

/// A comparison with a cast operand.
pub fn casts(n: u32, x: f64) -> bool {
    f64::from(n) == x //~ clippy::float_cmp
}

/// Two float variables: invisible to a token-level rule.
pub fn variables(x: f64, max: f64) -> bool {
    x == max //~ clippy::float_cmp
}

/// Exact-zero tests are the recognized guard idiom before division.
pub fn zero_guards_are_fine(var: f64, cov: f64) -> f64 {
    if var == 0.0 || cov != 0.0e0 {
        return 0.0;
    }
    1.0 / var
}

/// Bit patterns compare as integers.
pub fn bit_comparisons_are_fine(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits()
}

/// Integer comparisons are exact.
pub fn integer_comparisons_are_fine(n: usize) -> bool {
    n == 3 && n != 7
}
