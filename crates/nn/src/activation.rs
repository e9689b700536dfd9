//! Activation kernels.
//!
//! The reproduction only needs ReLU (both paper architectures use it), but
//! the kernels are written over matrices so adding another activation is a
//! two-function change.

use faction_linalg::Matrix;

/// ReLU of one value: a negative becomes `+0.0`; `±0.0`, positives and NaN
/// pass through unchanged. The element operation of [`relu`] and of the
/// hidden layers' fused forward pass ([`crate::dense::Dense::forward_relu_into`]).
#[inline]
pub fn relu_value(v: f64) -> f64 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Element-wise ReLU into a new matrix.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for v in out.as_mut_slice() {
        *v = relu_value(*v);
    }
    out
}

/// In-place multiply of `grad` by the ReLU derivative, read off the layer's
/// activation `act = relu(pre)`: `grad[i] = 0` wherever `act[i] <= 0`.
/// Since `act ≤ 0 ⇔ pre ≤ 0` (a negative `pre` becomes `+0.0`, `±0.0`
/// stays, NaN fails both tests), the pre-activation itself gives the same
/// mask, so backprop needs no pre-activation buffer for hidden layers.
///
/// The derivative at exactly zero is taken as zero (the subgradient
/// convention used by every major framework).
///
/// # Panics
/// Panics if the shapes differ (programming error in the backprop plumbing).
pub fn relu_backward(grad: &mut Matrix, act: &Matrix) {
    assert_eq!(grad.shape(), act.shape(), "relu_backward shape mismatch");
    // A select rather than a branch: the sign of a hidden unit is a coin
    // flip, which a branch mispredicts about half the time.
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(act.as_slice()) {
        *g = if a <= 0.0 { 0.0 } else { *g };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 3.0]).unwrap();
        let mut grad = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]).unwrap();
        relu_backward(&mut grad, &pre);
        assert_eq!(grad.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn the_activation_masks_like_the_pre_activation() {
        let values = [-1.0, -0.0, 0.0, 2.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1e-300];
        let pre = Matrix::from_vec(1, 8, values.to_vec()).unwrap();
        let act = relu(&pre);
        let mut by_pre = Matrix::filled(1, 8, 7.0);
        let mut by_act = by_pre.clone();
        relu_backward(&mut by_pre, &pre);
        relu_backward(&mut by_act, &act);
        assert_eq!(by_pre.as_slice(), by_act.as_slice());
        assert_eq!(by_act.as_slice(), &[0.0, 0.0, 0.0, 7.0, 7.0, 0.0, 7.0, 0.0]);
        assert!(act.get(0, 1).is_sign_negative(), "relu keeps -0.0");
        assert!(act.get(0, 4).is_nan(), "relu keeps NaN");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn relu_backward_rejects_shape_mismatch() {
        let pre = Matrix::zeros(1, 3);
        let mut grad = Matrix::zeros(1, 2);
        relu_backward(&mut grad, &pre);
    }
}
