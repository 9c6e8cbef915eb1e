//! Probabilistic gradient pruning (paper Section 3.3, Algorithm 1).
//!
//! Training proceeds in stages of `w_a + w_p` steps. During the
//! *accumulation window* (`w_a` steps) every gradient is evaluated and
//! per-parameter magnitudes accumulate in `M`. During the *pruning window*
//! (`w_p` steps) only a subset of `(1−r)·n` parameters — sampled without
//! replacement from the distribution `P_M ∝ M` — gets its gradient
//! evaluated; the rest are frozen for the step. Small accumulated magnitude
//! ⇒ high relative noise ⇒ high pruning probability, which both stabilizes
//! noisy training and saves `r·w_p/(w_a+w_p)` of the circuit runs.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// What the pruner decided for the upcoming step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Evaluate every gradient (accumulation window).
    Full,
    /// Evaluate only these parameter indices (pruning window).
    Subset(Vec<usize>),
}

impl Selection {
    /// Number of parameters evaluated out of `n`.
    pub fn evaluated(&self, n: usize) -> usize {
        match self {
            Selection::Full => n,
            Selection::Subset(s) => s.len(),
        }
    }
}

/// Strategy interface: called once per training step, then fed the observed
/// gradient magnitudes.
pub trait Pruner: std::fmt::Debug {
    /// Decides which parameters to evaluate this step.
    fn begin_step(&mut self, rng: &mut dyn rand::RngCore) -> Selection;

    /// Records the step's gradient (full-length vector; frozen entries 0).
    fn record(&mut self, grad: &[f64]);

    /// Fraction of circuit runs saved in steady state.
    fn savings(&self) -> f64;

    /// Snapshot of the mutable state for checkpointing.
    fn state(&self) -> PrunerState;

    /// Restores a snapshot captured by [`Pruner::state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's kind or width does not match this pruner.
    fn restore(&mut self, state: &PrunerState);
}

/// Serializable snapshot of a pruner's mutable state (checkpointing).
///
/// Both windowed pruners ([`ProbabilisticPruner`] and
/// [`DeterministicPruner`]) share the [`PrunerState::Windowed`] shape: the
/// accumulator `M`, the position inside the current window, and whether the
/// previous step was a full (accumulation) step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PrunerState {
    /// [`NoPruning`] carries no state.
    None,
    /// Windowed pruner mid-stage state.
    Windowed {
        /// Accumulated gradient magnitudes `M`.
        magnitude: Vec<f64>,
        /// Whether the pruner is inside the accumulation window.
        accumulating: bool,
        /// Completed steps inside the current window.
        step_in_phase: usize,
        /// Whether the previous step evaluated the full gradient.
        last_was_full: bool,
    },
}

/// Hyper-parameters of the windowed pruning schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Accumulation window width `w_a` (≥ 1).
    pub accumulation_window: usize,
    /// Pruning window width `w_p` (≥ 1).
    pub pruning_window: usize,
    /// Pruning ratio `r` ∈ [0, 1): fraction of parameters skipped per
    /// pruning step.
    pub ratio: f64,
}

impl PruneConfig {
    /// The paper's default setting (`w_a = 1`, `w_p = 2`, `r = 0.5`).
    pub fn paper_default() -> Self {
        PruneConfig {
            accumulation_window: 1,
            pruning_window: 2,
            ratio: 0.5,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero windows or a ratio outside `[0, 1)`.
    pub fn validate(&self) {
        assert!(self.accumulation_window >= 1, "w_a must be ≥ 1");
        assert!(self.pruning_window >= 1, "w_p must be ≥ 1");
        assert!(
            (0.0..1.0).contains(&self.ratio),
            "pruning ratio must be in [0, 1), got {}",
            self.ratio
        );
    }

    /// Fraction of gradient evaluations skipped in steady state:
    /// `r·w_p/(w_a+w_p)` (paper Section 3.3).
    pub fn savings(&self) -> f64 {
        self.ratio * self.pruning_window as f64
            / (self.accumulation_window + self.pruning_window) as f64
    }
}

/// Phase inside a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Accumulating(usize),
    Pruning(usize),
}

/// The paper's probabilistic pruner.
#[derive(Debug)]
pub struct ProbabilisticPruner {
    config: PruneConfig,
    num_params: usize,
    magnitude: Vec<f64>,
    phase: Phase,
    last_was_full: bool,
}

impl ProbabilisticPruner {
    /// Creates a pruner for `num_params` parameters.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(num_params: usize, config: PruneConfig) -> Self {
        config.validate();
        ProbabilisticPruner {
            config,
            num_params,
            magnitude: vec![0.0; num_params],
            phase: Phase::Accumulating(0),
            last_was_full: false,
        }
    }

    /// Number of parameters kept per pruning step: `⌈(1−r)·n⌉`, at least 1.
    pub fn keep_count(&self) -> usize {
        (((1.0 - self.config.ratio) * self.num_params as f64).ceil() as usize)
            .clamp(1, self.num_params)
    }

    /// The current accumulated magnitudes (the sampling weights).
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitude
    }
}

impl Pruner for ProbabilisticPruner {
    fn begin_step(&mut self, rng: &mut dyn rand::RngCore) -> Selection {
        match self.phase {
            Phase::Accumulating(done) => {
                let window_ends = done + 1 >= self.config.accumulation_window;
                self.phase = if window_ends {
                    Phase::Pruning(0)
                } else {
                    Phase::Accumulating(done + 1)
                };
                self.last_was_full = true;
                qoc_telemetry::event!(
                    qoc_telemetry::Level::Debug,
                    "prune.window",
                    phase = "accumulating",
                    step_in_phase = done,
                    window_ends = window_ends,
                );
                Selection::Full
            }
            Phase::Pruning(done) => {
                let subset =
                    weighted_sample_without_replacement(&self.magnitude, self.keep_count(), rng);
                let stage_ends = done + 1 >= self.config.pruning_window;
                let magnitude_l1: f64 = self.magnitude.iter().sum();
                if stage_ends {
                    // Stage over: reset the accumulator for the next stage.
                    self.magnitude.iter_mut().for_each(|m| *m = 0.0);
                    self.phase = Phase::Accumulating(0);
                } else {
                    self.phase = Phase::Pruning(done + 1);
                }
                self.last_was_full = false;
                let frozen = self.num_params - subset.len();
                if qoc_telemetry::enabled() {
                    qoc_telemetry::metrics::Registry::global()
                        .counter("qoc.prune.frozen_params")
                        .add(frozen as u64);
                    qoc_telemetry::event!(
                        qoc_telemetry::Level::Debug,
                        "prune.select",
                        phase = "pruning",
                        step_in_phase = done,
                        stage_ends = stage_ends,
                        kept = subset.len(),
                        frozen = frozen,
                        magnitude_l1 = magnitude_l1,
                    );
                }
                Selection::Subset(subset)
            }
        }
    }

    fn record(&mut self, grad: &[f64]) {
        assert_eq!(grad.len(), self.num_params, "gradient width mismatch");
        // Alg. 1 line 9: `M ← M + |∇L|` only inside the accumulation window
        // (pruning-step gradients have frozen zero entries and would bias
        // the next stage's distribution).
        if self.last_was_full {
            for (m, g) in self.magnitude.iter_mut().zip(grad) {
                *m += g.abs();
            }
        }
    }

    fn savings(&self) -> f64 {
        self.config.savings()
    }

    fn state(&self) -> PrunerState {
        let (accumulating, step_in_phase) = match self.phase {
            Phase::Accumulating(k) => (true, k),
            Phase::Pruning(k) => (false, k),
        };
        PrunerState::Windowed {
            magnitude: self.magnitude.clone(),
            accumulating,
            step_in_phase,
            last_was_full: self.last_was_full,
        }
    }

    fn restore(&mut self, state: &PrunerState) {
        match state {
            PrunerState::Windowed {
                magnitude,
                accumulating,
                step_in_phase,
                last_was_full,
            } => {
                assert_eq!(
                    magnitude.len(),
                    self.num_params,
                    "pruner snapshot width mismatch"
                );
                self.magnitude.clone_from(magnitude);
                self.phase = if *accumulating {
                    Phase::Accumulating(*step_in_phase)
                } else {
                    Phase::Pruning(*step_in_phase)
                };
                self.last_was_full = *last_was_full;
            }
            PrunerState::None => panic!("cannot restore a windowed pruner from PrunerState::None"),
        }
    }
}

/// The deterministic baseline of Table 2: always keep the top-`(1−r)n`
/// parameters by accumulated magnitude.
#[derive(Debug)]
pub struct DeterministicPruner {
    inner: ProbabilisticPruner,
}

impl DeterministicPruner {
    /// Creates a deterministic pruner.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(num_params: usize, config: PruneConfig) -> Self {
        DeterministicPruner {
            inner: ProbabilisticPruner::new(num_params, config),
        }
    }
}

impl Pruner for DeterministicPruner {
    fn begin_step(&mut self, rng: &mut dyn rand::RngCore) -> Selection {
        // Reuse the inner phase machinery but replace sampling with top-k.
        match self.inner.phase {
            Phase::Accumulating(_) => self.inner.begin_step(rng),
            Phase::Pruning(_) => {
                let k = self.inner.keep_count();
                let mut idx: Vec<usize> = (0..self.inner.num_params).collect();
                idx.sort_by(|&a, &b| self.inner.magnitude[b].total_cmp(&self.inner.magnitude[a]));
                idx.truncate(k);
                idx.sort_unstable();
                // Advance the phase machine (discarding its sampled subset).
                let _ = self.inner.begin_step(rng);
                Selection::Subset(idx)
            }
        }
    }

    fn record(&mut self, grad: &[f64]) {
        self.inner.record(grad);
    }

    fn savings(&self) -> f64 {
        self.inner.savings()
    }

    fn state(&self) -> PrunerState {
        self.inner.state()
    }

    fn restore(&mut self, state: &PrunerState) {
        self.inner.restore(state);
    }
}

/// No-op pruner: every step evaluates every gradient (the paper's QC-Train
/// baseline).
#[derive(Debug, Default)]
pub struct NoPruning;

impl Pruner for NoPruning {
    fn begin_step(&mut self, _rng: &mut dyn rand::RngCore) -> Selection {
        Selection::Full
    }

    fn record(&mut self, _grad: &[f64]) {}

    fn savings(&self) -> f64 {
        0.0
    }

    fn state(&self) -> PrunerState {
        PrunerState::None
    }

    fn restore(&mut self, state: &PrunerState) {
        assert!(
            matches!(state, PrunerState::None),
            "cannot restore NoPruning from a {state:?} snapshot"
        );
    }
}

/// Weighted sampling of `k` distinct indices with probability proportional
/// to `weights`, via Efraimidis–Spirakis exponential keys (`u^{1/w}`); zero
/// or uniform weights degrade gracefully to uniform sampling.
pub fn weighted_sample_without_replacement<R: Rng + ?Sized>(
    weights: &[f64],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(k <= weights.len(), "cannot sample {k} of {}", weights.len());
    let total: f64 = weights.iter().sum();
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let u: f64 = rng.gen_range(1e-300..1.0);
            let weight = if total > 0.0 { w.max(1e-12) } else { 1.0 };
            // ln(u)/w is a monotone transform of u^{1/w}; larger is better.
            (u.ln() / weight, i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut out: Vec<usize> = keyed.into_iter().take(k).map(|(_, i)| i).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn drive(
        pruner: &mut dyn Pruner,
        grads: &[f64],
        steps: usize,
        rng: &mut StdRng,
    ) -> Vec<Selection> {
        let mut out = Vec::new();
        for _ in 0..steps {
            let sel = pruner.begin_step(rng);
            pruner.record(grads);
            out.push(sel);
        }
        out
    }

    #[test]
    fn paper_default_savings() {
        let cfg = PruneConfig::paper_default();
        // r·w_p/(w_a+w_p) = 0.5·2/3 = 1/3.
        assert!((cfg.savings() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn phase_cycle_follows_windows() {
        let mut p = ProbabilisticPruner::new(
            8,
            PruneConfig {
                accumulation_window: 2,
                pruning_window: 3,
                ratio: 0.5,
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let grads = vec![0.1; 8];
        let sels = drive(&mut p, &grads, 10, &mut rng);
        let pattern: Vec<bool> = sels.iter().map(|s| matches!(s, Selection::Full)).collect();
        // 2 full, 3 subset, repeating.
        assert_eq!(
            pattern,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn subset_size_is_one_minus_r() {
        let mut p = ProbabilisticPruner::new(10, PruneConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(2);
        let _ = p.begin_step(&mut rng); // accumulation
        p.record(&[0.5; 10]);
        let sel = p.begin_step(&mut rng);
        match sel {
            Selection::Subset(s) => {
                assert_eq!(s.len(), 5);
                let mut d = s.clone();
                d.dedup();
                assert_eq!(d.len(), 5, "duplicate indices sampled");
            }
            Selection::Full => panic!("expected pruning step"),
        }
    }

    #[test]
    fn large_magnitudes_are_kept_more_often() {
        // Parameter 0 has 10× the accumulated magnitude of the rest; over
        // many stages it must be selected far more often than parameter 1.
        let cfg = PruneConfig {
            accumulation_window: 1,
            pruning_window: 1,
            ratio: 0.7,
        };
        let mut p = ProbabilisticPruner::new(10, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let mut grads = vec![0.05; 10];
        grads[0] = 0.5;
        let mut count0 = 0;
        let mut count1 = 0;
        for _ in 0..200 {
            match p.begin_step(&mut rng) {
                Selection::Full => p.record(&grads),
                Selection::Subset(s) => {
                    if s.contains(&0) {
                        count0 += 1;
                    }
                    if s.contains(&1) {
                        count1 += 1;
                    }
                    p.record(&grads);
                }
            }
        }
        assert!(
            count0 > 2 * count1,
            "high-magnitude param kept {count0} vs low {count1}"
        );
    }

    #[test]
    fn deterministic_takes_top_k() {
        let cfg = PruneConfig {
            accumulation_window: 1,
            pruning_window: 1,
            ratio: 0.5,
        };
        let mut p = DeterministicPruner::new(6, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let _ = p.begin_step(&mut rng);
        p.record(&[0.9, 0.1, 0.8, 0.2, 0.7, 0.3]);
        match p.begin_step(&mut rng) {
            Selection::Subset(s) => assert_eq!(s, vec![0, 2, 4]),
            Selection::Full => panic!("expected pruning step"),
        }
    }

    #[test]
    fn no_pruning_is_always_full() {
        let mut p = NoPruning;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            assert_eq!(p.begin_step(&mut rng), Selection::Full);
        }
        assert_eq!(p.savings(), 0.0);
    }

    #[test]
    fn accumulator_resets_each_stage() {
        let cfg = PruneConfig {
            accumulation_window: 1,
            pruning_window: 1,
            ratio: 0.5,
        };
        let mut p = ProbabilisticPruner::new(4, cfg);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = p.begin_step(&mut rng);
        p.record(&[1.0, 1.0, 1.0, 1.0]);
        let _ = p.begin_step(&mut rng); // pruning step ends the stage
        p.record(&[0.0; 4]);
        assert_eq!(p.magnitudes(), &[0.0; 4]);
    }

    #[test]
    fn weighted_sampling_is_unbiased_for_uniform_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 6];
        for _ in 0..3000 {
            for i in weighted_sample_without_replacement(&[1.0; 6], 3, &mut rng) {
                counts[i] += 1;
            }
        }
        // Each index selected ≈ 1500 times.
        for &c in &counts {
            assert!(
                (c as f64 - 1500.0).abs() < 150.0,
                "uniform bias: {counts:?}"
            );
        }
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = weighted_sample_without_replacement(&[0.0; 5], 2, &mut rng);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn state_round_trips_mid_window() {
        let cfg = PruneConfig {
            accumulation_window: 2,
            pruning_window: 3,
            ratio: 0.5,
        };
        let mut p = ProbabilisticPruner::new(8, cfg);
        let mut rng = StdRng::seed_from_u64(11);
        // Advance into the middle of a pruning window (step 4 of the 5-step
        // stage) so the snapshot carries a live accumulator and phase.
        let _ = drive(&mut p, &[0.3; 8], 4, &mut rng);
        let snap = p.state();
        let rng_snap = rng.state();

        let tail = drive(&mut p, &[0.3; 8], 6, &mut rng);

        let mut q = ProbabilisticPruner::new(8, cfg);
        q.restore(&snap);
        let mut rng2 = StdRng::from_state(rng_snap);
        let replay = drive(&mut q, &[0.3; 8], 6, &mut rng2);
        assert_eq!(tail, replay, "restored pruner diverged");
    }

    #[test]
    #[should_panic(expected = "PrunerState::None")]
    fn restore_rejects_kind_mismatch() {
        let mut p = ProbabilisticPruner::new(4, PruneConfig::paper_default());
        p.restore(&PrunerState::None);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn rejects_ratio_one() {
        let _ = ProbabilisticPruner::new(
            4,
            PruneConfig {
                accumulation_window: 1,
                pruning_window: 1,
                ratio: 1.0,
            },
        );
    }
}
