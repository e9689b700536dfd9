//! First-order optimizers.
//!
//! The paper keeps the learning rate `γ_t` constant in its experiments
//! (Sec. IV-F); the theory (Theorem 1, part 3) uses a decaying schedule,
//! which [`Sgd::set_learning_rate`] supports for the `theory_bounds` harness.
//!
//! Optimizers are stateful per parameter tensor. The model registers each
//! tensor under a stable `slot` index; state buffers are allocated lazily on
//! first use so the same optimizer value works for any architecture.

/// A stateful first-order optimizer.
pub trait Optimizer {
    /// Applies one update to `params` given `grads`, using per-tensor state
    /// stored under `slot`.
    ///
    /// # Panics
    /// Panics if `params.len() != grads.len()`.
    fn step(&mut self, slot: usize, params: &mut [f64], grads: &[f64]);

    /// Clears all accumulated state (momentum buffers).
    fn reset(&mut self);

    /// Current base learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the base learning rate (supports decaying schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Vec<f64>>,
}

impl Sgd {
    /// Creates plain SGD.
    pub fn new(lr: f64) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Adds a momentum coefficient (0.9 is the usual choice).
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        self.momentum = momentum;
        self
    }

    fn state(&mut self, slot: usize, len: usize) -> &mut Vec<f64> {
        if self.velocity.len() <= slot {
            self.velocity.resize_with(slot + 1, Vec::new);
        }
        let v = &mut self.velocity[slot];
        if v.len() != len {
            *v = vec![0.0; len];
        }
        v
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, slot: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "sgd: param/grad length mismatch");
        let (lr, momentum) = (self.lr, self.momentum);
        let velocity = self.state(slot, params.len());
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity.iter_mut()) {
            // A dead unit's velocity decays by `momentum` into the
            // subnormals and would stick at the smallest one (`0.9 · 2⁻¹⁰⁷⁴`
            // rounds back up), costing a subnormal assist on every later
            // step. Flushing it to +0 is a select, not a branch, and a NaN
            // passes through.
            let next = momentum * *v + g;
            *v = if next.abs() < f64::MIN_POSITIVE { 0.0 } else { next };
            *p -= lr * *v;
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Serialization captures the full optimizer value *including* the
/// per-slot momentum buffers. The buffers persist across retrains, so a
/// session snapshot that dropped them would train differently after a
/// restore — checkpoint byte-identity requires round-tripping them. A
/// `weight_decay` entry that older snapshots carry is ignored on read.
impl serde::Serialize for Sgd {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object(3);
        serde::field(sink, "lr", &self.lr);
        serde::field(sink, "momentum", &self.momentum);
        serde::field(sink, "velocity", &self.velocity);
        sink.end();
    }
}

impl serde::Deserialize for Sgd {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v.as_object().ok_or_else(|| serde::DeError::custom("expected Sgd object"))?;
        let field = |name: &str| {
            serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("Sgd missing `{name}`")))
        };
        Ok(Sgd {
            lr: serde::Deserialize::from_value(field("lr")?)?,
            momentum: serde::Deserialize::from_value(field("momentum")?)?,
            velocity: serde::Deserialize::from_value(field("velocity")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `steps` gradient steps on f(x) = x² from x = 5 and returns |x|.
    fn descend(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut x = [5.0f64];
        for _ in 0..steps {
            let g = [2.0 * x[0]];
            opt.step(0, &mut x, &g);
        }
        x[0].abs()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(descend(&mut opt, 100) < 1e-6);
    }

    #[test]
    fn idle_momentum_flushes_to_positive_zero() {
        // Without the flush the velocity sticks at f64::from_bits(1) from
        // about step 7065 on.
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut p = [1.0f64];
        opt.step(0, &mut p, &[1.0]);
        assert_eq!(opt.velocity[0][0], 1.0);
        for _ in 0..8000 {
            opt.step(0, &mut p, &[0.0]);
        }
        assert_eq!(opt.velocity[0][0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        assert!(descend(&mut opt, 300) < 1e-6);
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut a = [1.0f64];
        let mut b = [1.0f64];
        opt.step(0, &mut a, &[1.0]);
        opt.step(0, &mut a, &[1.0]);
        // Slot 1 must not have inherited slot 0's momentum.
        opt.step(1, &mut b, &[1.0]);
        assert!((b[0] - 0.9).abs() < 1e-12, "b {}", b[0]);
        assert!(a[0] < b[0]);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut x = [1.0f64];
        opt.step(0, &mut x, &[1.0]);
        opt.reset();
        let mut y = [1.0f64];
        opt.step(0, &mut y, &[1.0]);
        assert!((y[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn sgd_serde_round_trips_momentum_buffers() {
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        let mut x = [1.0f64, -2.0];
        opt.step(0, &mut x, &[0.3, -0.1]);
        let mut restored: Sgd =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&opt)).unwrap();
        // Identical further steps from identical state.
        let mut y = x;
        opt.step(0, &mut x, &[0.2, 0.2]);
        restored.step(0, &mut y, &[0.2, 0.2]);
        assert_eq!(x[0].to_bits(), y[0].to_bits());
        assert_eq!(x[1].to_bits(), y[1].to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.1);
        let mut x = [1.0f64, 2.0];
        opt.step(0, &mut x, &[1.0]);
    }
}
