//! Optimizers (paper Table 3: SGD, Momentum, Adam).
//!
//! All optimizers support *masked* steps for gradient pruning: frozen
//! parameters receive no update and their internal state (momentum, Adam
//! moments, bias-correction counters) does not advance — a frozen parameter
//! is exactly as if its step never happened.

use serde::{Deserialize, Serialize};

/// Optimizer interface over flat parameter vectors.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update. `grad` is full-length; when `active` is `Some`,
    /// only the listed indices are updated.
    fn step(&mut self, params: &mut [f64], grad: &[f64], lr: f64, active: Option<&[usize]>);

    /// Resets internal state (moments, counters).
    fn reset(&mut self);

    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Snapshot of the mutable state for checkpointing.
    fn state(&self) -> OptimizerState;

    /// Restores a snapshot captured by [`Optimizer::state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's kind or width does not match this optimizer
    /// (`train_anchored` rejects such a resume state first, as a typed
    /// `ResumeError`).
    fn restore(&mut self, state: &OptimizerState);
}

/// Serializable snapshot of an optimizer's mutable state (checkpointing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizerState {
    /// SGD carries no state.
    Sgd,
    /// Momentum velocity.
    Momentum {
        /// Velocity vector `v`.
        velocity: Vec<f64>,
    },
    /// Adam moments and per-parameter bias-correction counters.
    Adam {
        /// First moment `m`.
        m: Vec<f64>,
        /// Second moment `v`.
        v: Vec<f64>,
        /// Per-parameter step counters `t`.
        t: Vec<u32>,
    },
}

/// Which optimizer to construct (serializable experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd,
    /// SGD with momentum (the paper uses factor 0.8).
    Momentum {
        /// Momentum factor β.
        beta: f64,
    },
    /// Adam with standard defaults.
    Adam,
}

impl OptimizerKind {
    /// Instantiates the optimizer for `num_params` parameters.
    pub fn build(self, num_params: usize) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd => Box::new(Sgd),
            OptimizerKind::Momentum { beta } => Box::new(Momentum::new(num_params, beta)),
            OptimizerKind::Adam => Box::new(Adam::new(num_params)),
        }
    }
}

/// Plain SGD: `θ ← θ − η·g`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sgd;

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grad: &[f64], lr: f64, active: Option<&[usize]>) {
        for_active(params.len(), active, |i| {
            params[i] -= lr * grad[i];
        });
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Sgd
    }

    fn restore(&mut self, state: &OptimizerState) {
        assert!(
            matches!(state, OptimizerState::Sgd),
            "cannot restore SGD from a {state:?} snapshot"
        );
    }
}

/// SGD with momentum: `v ← β·v + g; θ ← θ − η·v`.
#[derive(Debug, Clone)]
pub struct Momentum {
    beta: f64,
    velocity: Vec<f64>,
}

impl Momentum {
    /// Creates a momentum optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `beta ∉ [0, 1)`.
    pub fn new(num_params: usize, beta: f64) -> Self {
        assert!((0.0..1.0).contains(&beta), "momentum beta must be in [0,1)");
        Momentum {
            beta,
            velocity: vec![0.0; num_params],
        }
    }
}

impl Optimizer for Momentum {
    fn step(&mut self, params: &mut [f64], grad: &[f64], lr: f64, active: Option<&[usize]>) {
        for_active(params.len(), active, |i| {
            self.velocity[i] = self.beta * self.velocity[i] + grad[i];
            params[i] -= lr * self.velocity[i];
        });
    }

    fn reset(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    fn name(&self) -> &'static str {
        "momentum"
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Momentum {
            velocity: self.velocity.clone(),
        }
    }

    fn restore(&mut self, state: &OptimizerState) {
        match state {
            OptimizerState::Momentum { velocity } => {
                assert_eq!(
                    velocity.len(),
                    self.velocity.len(),
                    "momentum snapshot width mismatch"
                );
                self.velocity.clone_from(velocity);
            }
            other => panic!("cannot restore momentum from a {other:?} snapshot"),
        }
    }
}

/// Adam with per-parameter bias-correction counters (so pruned steps do not
/// advance a frozen parameter's schedule).
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: Vec<u32>,
}

impl Adam {
    /// Standard Adam (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(num_params: usize) -> Self {
        Adam::with_betas(num_params, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics when a β is outside `[0, 1)`.
    pub fn with_betas(num_params: usize, beta1: f64, beta2: f64, epsilon: f64) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            beta1,
            beta2,
            epsilon,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: vec![0; num_params],
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grad: &[f64], lr: f64, active: Option<&[usize]>) {
        for_active(params.len(), active, |i| {
            self.t[i] += 1;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = self.m[i] / (1.0 - self.beta1.powi(self.t[i] as i32));
            let v_hat = self.v[i] / (1.0 - self.beta2.powi(self.t[i] as i32));
            params[i] -= lr * m_hat / (v_hat.sqrt() + self.epsilon);
        });
    }

    fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t.iter_mut().for_each(|x| *x = 0);
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Adam {
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t.clone(),
        }
    }

    fn restore(&mut self, state: &OptimizerState) {
        match state {
            OptimizerState::Adam { m, v, t } => {
                assert!(
                    m.len() == self.m.len() && v.len() == self.v.len() && t.len() == self.t.len(),
                    "adam snapshot width mismatch"
                );
                self.m.clone_from(m);
                self.v.clone_from(v);
                self.t.clone_from(t);
            }
            other => panic!("cannot restore adam from a {other:?} snapshot"),
        }
    }
}

fn for_active(n: usize, active: Option<&[usize]>, mut f: impl FnMut(usize)) {
    match active {
        None => (0..n).for_each(&mut f),
        Some(idx) => idx.iter().copied().for_each(&mut f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(θ) = Σ (θ − target)² with each optimizer must converge.
    fn quadratic_converges(kind: OptimizerKind, lr: f64, steps: usize) -> f64 {
        let target = [1.0, -2.0, 0.5];
        let mut params = vec![0.0; 3];
        let mut opt = kind.build(3);
        for _ in 0..steps {
            let grad: Vec<f64> = params
                .iter()
                .zip(&target)
                .map(|(p, t)| 2.0 * (p - t))
                .collect();
            opt.step(&mut params, &grad, lr, None);
        }
        params
            .iter()
            .zip(&target)
            .map(|(p, t)| (p - t).powi(2))
            .sum()
    }

    #[test]
    fn all_optimizers_minimize_a_quadratic() {
        assert!(quadratic_converges(OptimizerKind::Sgd, 0.1, 200) < 1e-6);
        assert!(quadratic_converges(OptimizerKind::Momentum { beta: 0.8 }, 0.02, 300) < 1e-6);
        assert!(quadratic_converges(OptimizerKind::Adam, 0.1, 500) < 1e-4);
    }

    #[test]
    fn sgd_single_step_is_exact() {
        let mut p = vec![1.0, 2.0];
        Sgd.step(&mut p, &[0.5, -1.0], 0.1, None);
        assert!((p[0] - 0.95).abs() < 1e-12);
        assert!((p[1] - 2.1).abs() < 1e-12);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Momentum::new(1, 0.5);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0], 1.0, None); // v=1, p=-1
        opt.step(&mut p, &[1.0], 1.0, None); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-12);
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // Bias correction makes the first Adam step ≈ lr·sign(g).
        let mut opt = Adam::new(2);
        let mut p = vec![0.0, 0.0];
        opt.step(&mut p, &[0.3, -7.0], 0.01, None);
        assert!((p[0] + 0.01).abs() < 1e-6);
        assert!((p[1] - 0.01).abs() < 1e-6);
    }

    #[test]
    fn masked_step_freezes_inactive() {
        let mut opt = Adam::new(3);
        let mut p = vec![0.0; 3];
        opt.step(&mut p, &[1.0, 1.0, 1.0], 0.1, Some(&[0, 2]));
        assert!(p[0] != 0.0 && p[2] != 0.0);
        assert_eq!(p[1], 0.0);
        // Frozen parameter's Adam counter did not advance.
        assert_eq!(opt.t, vec![1, 0, 1]);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0], 0.1, None);
        opt.reset();
        assert_eq!(opt.t, vec![0]);
        assert_eq!(opt.m, vec![0.0]);
        let mut mom = Momentum::new(1, 0.9);
        mom.step(&mut p, &[1.0], 0.1, None);
        mom.reset();
        assert_eq!(mom.velocity, vec![0.0]);
    }

    #[test]
    fn state_round_trips_mid_run() {
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::Momentum { beta: 0.8 },
            OptimizerKind::Adam,
        ] {
            let mut opt = kind.build(3);
            let mut p = vec![0.1, 0.2, 0.3];
            opt.step(&mut p, &[1.0, -0.5, 0.2], 0.1, None);
            opt.step(&mut p, &[0.3, 0.1, -0.9], 0.1, Some(&[0, 2]));
            let snap = opt.state();
            let p_snap = p.clone();

            // Diverge, then restore and replay: trajectories must coincide.
            opt.step(&mut p, &[2.0, 2.0, 2.0], 0.1, None);
            let mut fresh = kind.build(3);
            fresh.restore(&snap);
            let mut q = p_snap;
            fresh.step(&mut q, &[2.0, 2.0, 2.0], 0.1, None);
            assert_eq!(p, q, "restore diverged for {}", fresh.name());
        }
    }

    #[test]
    #[should_panic(expected = "snapshot")]
    fn restore_rejects_kind_mismatch() {
        let mut opt = Adam::new(2);
        opt.restore(&OptimizerState::Sgd);
    }

    #[test]
    fn kind_builds_right_names() {
        assert_eq!(OptimizerKind::Sgd.build(1).name(), "sgd");
        assert_eq!(
            OptimizerKind::Momentum { beta: 0.8 }.build(1).name(),
            "momentum"
        );
        assert_eq!(OptimizerKind::Adam.build(1).name(), "adam");
    }
}
