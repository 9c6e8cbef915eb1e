//! SNR-adaptive shot allocation — the runtime controller that turns the
//! gradient-health statistics into shot-budget *decisions*.
//!
//! The paper's core observation (Section 3.3, Figure 5) is that small
//! gradients under shot noise carry high relative error and frequently a
//! wrong sign. [`crate::health::GradientHealth`] measures exactly that —
//! per-parameter |g| EMA, shot-noise σ̂, SNR. This module is a budget
//! policy over that one tracker, each step assigning a per-shifted-circuit
//! shot budget instead of the uniform `Execution::Shots(base)`:
//!
//! - **high-SNR parameters** get few shots — their sign and rough magnitude
//!   survive coarse sampling;
//! - **parameters near the pruning boundary** (small |g|, meaningful σ̂)
//!   get more shots, up to [`ShotAllocConfig::max_shots`], because that is
//!   where a wrong sign flips an update;
//! - **hopeless parameters** — predicted SNR below [`WRONG_SIGN_SNR`] even
//!   at the max budget — are *skipped with a frozen gradient* for the step
//!   (a deterministic low-cost probe every [`SKIP_PROBE_EVERY`]-th
//!   consecutive skip keeps them from starving forever).
//!
//! The key identity making this cheap: a gradient entry's shot variance
//! scales as `1/s`, so `ĉ = σ̂²·s` is a *shot-count-invariant* noise
//! coefficient. The controller keeps an EMA of `ĉ` per parameter (its only
//! per-parameter statistic besides skip streaks) and solves
//! `target_snr = |g| / √(ĉ/s)` against the tracker's |g| EMA for the budget
//! `s = target²·ĉ/|g|²`.
//!
//! Each pruning window the tracker closes comes with the recall of the
//! sampled subsets against its top-|g|-EMA ranking; the controller feeds it
//! back to auto-tune PGP's ratio `r` and pruning-window width via
//! [`crate::prune::Pruner::retune`].
//!
//! **Determinism contract:** every decision derives only from the
//! deterministic `grad`/`grad_var` stream the gradient computer already
//! produces — never from wall-clock, worker interleaving, or telemetry
//! state. Step/eval records are therefore bit-identical at any
//! `QOC_WORKERS` count, and the accumulators (the tracker's EMA, counts and
//! window position included) checkpoint/restore through [`AllocState`] so
//! resumed runs replay identically. Telemetry emission
//! (the `alloc.window` event, `qoc.alloc.*` counters) is separately gated
//! on [`qoc_telemetry::enabled`] and never feeds back into decisions.
//!
//! Configured by value: `TrainConfig::shot_alloc` (`None` by default, so
//! every existing golden stays byte-identical). The env-driven entry points
//! map `QOC_SHOT_ALLOC=snr` to [`ShotAllocConfig::default`] through
//! [`ShotAllocConfig::from_env`].

use serde::{Deserialize, Serialize};

use qoc_telemetry::env::EnvError;

use crate::health::{ema_update, ClosedWindow, GradientHealth, EMA_DECAY, SNR_CAP};

/// Default per-row shot floor.
pub const DEFAULT_MIN_SHOTS: u32 = 128;
/// Default per-row shot ceiling.
pub const DEFAULT_MAX_SHOTS: u32 = 4096;
/// Default SNR target.
pub const DEFAULT_TARGET_SNR: f64 = 2.0;
/// Predicted-SNR threshold below which evaluating a row is considered a
/// coin flip: if even [`ShotAllocConfig::max_shots`] cannot lift a
/// parameter's SNR above this, the row is skipped with a frozen gradient.
/// Deliberately deep in the noise floor (sign-error probability ≈ 40%):
/// noisy-but-unbiased gradients still steer Adam, so only rows whose
/// measurement would be essentially a coin flip are worth freezing —
/// MNIST-2 frontier runs lose measurable accuracy already at a threshold
/// of 1.0.
pub const WRONG_SIGN_SNR: f64 = 0.25;
/// Every this-many consecutive skips, a parameter gets a minimum-budget
/// probe evaluation instead, so a gradient that grows back is noticed.
pub const SKIP_PROBE_EVERY: u32 = 2;

/// Bounds the auto-tuner keeps PGP's ratio `r` inside.
const RETUNE_RATIO_MIN: f64 = 0.25;
const RETUNE_RATIO_MAX: f64 = 0.8;
const RETUNE_RATIO_STEP: f64 = 0.05;
/// Bounds for the auto-tuned pruning-window width `w_p`.
const RETUNE_WINDOW_MAX: usize = 8;
/// Recall above which pruning is judged safe to push harder.
const RETUNE_RECALL_HIGH: f64 = 0.95;
/// Recall below which pruning is judged to be losing top gradients.
const RETUNE_RECALL_LOW: f64 = 0.7;

/// Why the shot-allocation configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ShotAllocError {
    /// A field was out of its domain.
    InvalidNumber {
        /// Which [`ShotAllocConfig`] field.
        field: &'static str,
        /// The offending value.
        value: String,
    },
    /// `min_shots` exceeds `max_shots` — clamping silently would invert
    /// the caller's intent, so this is a typed error, not a panic.
    InvalidRange {
        /// Configured floor.
        min: u32,
        /// Configured ceiling.
        max: u32,
    },
}

impl std::fmt::Display for ShotAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShotAllocError::InvalidNumber { field, value } => {
                write!(f, "{field} must be a positive number, got {value}")
            }
            ShotAllocError::InvalidRange { min, max } => {
                write!(f, "min_shots ({min}) must not exceed max_shots ({max})")
            }
        }
    }
}

impl std::error::Error for ShotAllocError {}

/// Shot-allocation controller configuration. Only [`Self::new`] and
/// [`Self::default`] build one, so every value is valid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShotAllocConfig {
    /// Per-row shot floor (≥ 1).
    min_shots: u32,
    /// Per-row shot ceiling (≥ `min_shots`).
    max_shots: u32,
    /// The SNR the budget solver aims each evaluated row at (> 0).
    target_snr: f64,
}

impl Default for ShotAllocConfig {
    fn default() -> Self {
        ShotAllocConfig {
            min_shots: DEFAULT_MIN_SHOTS,
            max_shots: DEFAULT_MAX_SHOTS,
            target_snr: DEFAULT_TARGET_SNR,
        }
    }
}

impl ShotAllocConfig {
    /// Builds a validated configuration.
    ///
    /// # Errors
    ///
    /// [`ShotAllocError::InvalidRange`] when `min_shots > max_shots`;
    /// [`ShotAllocError::InvalidNumber`] on a zero floor or a non-positive
    /// / non-finite target.
    pub fn new(min_shots: u32, max_shots: u32, target_snr: f64) -> Result<Self, ShotAllocError> {
        if min_shots == 0 {
            return Err(ShotAllocError::InvalidNumber {
                field: "min_shots",
                value: "0".to_string(),
            });
        }
        if min_shots > max_shots {
            return Err(ShotAllocError::InvalidRange {
                min: min_shots,
                max: max_shots,
            });
        }
        if !(target_snr.is_finite() && target_snr > 0.0) {
            return Err(ShotAllocError::InvalidNumber {
                field: "target_snr",
                value: format!("{target_snr}"),
            });
        }
        Ok(ShotAllocConfig {
            min_shots,
            max_shots,
            target_snr,
        })
    }

    /// The controller `QOC_SHOT_ALLOC` asks for: the defaults under `snr`,
    /// `None` under `off` or when unset.
    ///
    /// # Errors
    ///
    /// An [`EnvError`] for any other value.
    pub fn from_env() -> Result<Option<Self>, EnvError> {
        let snr = qoc_telemetry::env::choice("QOC_SHOT_ALLOC")?.as_deref() == Some("snr");
        Ok(snr.then(ShotAllocConfig::default))
    }
}

/// One evaluated Jacobian row's shot budget for the upcoming step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotSpec {
    /// Trainable parameter index.
    pub param: usize,
    /// Shots each of this row's shifted jobs runs with.
    pub shots: u32,
}

/// The controller's decision for one step: which of the selected rows to
/// evaluate (and at what budget) and which to skip outright.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepPlan {
    /// Rows to evaluate, in ascending parameter order.
    pub rows: Vec<ShotSpec>,
    /// Rows skipped with frozen gradients (predicted SNR below
    /// [`WRONG_SIGN_SNR`] at the max budget).
    pub skipped: Vec<usize>,
}

/// A PGP retune the controller requests after measuring a window's recall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retune {
    /// New pruning ratio `r`.
    pub ratio: f64,
    /// New pruning-window width `w_p`.
    pub pruning_window: usize,
}

/// Serializable snapshot of every controller accumulator — carried in
/// schema-v2 checkpoints so resumed runs replay decisions bit-identically.
/// The gradient statistics and the open window are the
/// [`GradientHealth`] tracker's; the rest is the allocator's own.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AllocState {
    /// Per-parameter |g| EMA.
    pub ema_abs: Vec<f64>,
    /// Per-parameter EMA of the shot-invariant noise coefficient `σ̂²·s`.
    pub noise: Vec<f64>,
    /// Per-parameter evaluation counts.
    pub evals: Vec<u64>,
    /// Per-parameter consecutive-skip streaks.
    pub skip_streak: Vec<u32>,
    /// Whether the previous step was a pruned (subset) step.
    pub prev_was_subset: bool,
    /// Completed windows.
    pub windows: u64,
    /// Cumulative shift-job shots a uniform-budget run would have spent.
    pub baseline_shots: u64,
    /// Cumulative shift-job shots actually requested.
    pub requested_shots: u64,
    /// Cumulative skipped row evaluations.
    pub skipped_evals: u64,
    /// PGP ratio currently in effect (after retunes).
    pub ratio: f64,
    /// PGP pruning-window width currently in effect.
    pub pruning_window: u64,
    /// Retunes applied so far.
    pub retunes: u64,
    /// Open-window accumulators (steps, planned/skipped rows, shots,
    /// subset-vs-top-k overlap), in field order: steps, planned, skipped,
    /// requested, baseline, kept, overlap.
    pub stage: Vec<u64>,
}

/// Per-parameter controller state.
#[derive(Debug, Clone, Copy, Default)]
struct ParamStat {
    /// EMA of the shot-invariant noise coefficient `ĉ = σ̂²·s`.
    noise: f64,
    /// Consecutive steps this parameter was skipped.
    skip_streak: u32,
}

/// Open-window shot accounting.
#[derive(Debug, Default, Clone, Copy)]
struct Stage {
    planned: u64,
    skipped: u64,
    requested: u64,
    baseline: u64,
}

/// The SNR-adaptive shot allocator. One instance per training run,
/// constructed only when `TrainConfig::shot_alloc` is set and execution is
/// finite-shot.
///
/// A budget policy over the run's [`GradientHealth`] tracker: it reads the
/// tracker's |g| EMA and evaluation counts and the pruning windows it
/// closes, and keeps only its own noise EMA, skip streaks and shot
/// accounting. Its decisions change the training trajectory, so they never
/// depend on whether telemetry is watching.
#[derive(Debug)]
pub struct ShotAllocator {
    config: ShotAllocConfig,
    /// The uniform budget the run would use without the controller.
    base_shots: u32,
    /// Shifted jobs per Jacobian row (2 per occurrence), for exact
    /// saved-shot accounting.
    jobs_per_row: Vec<usize>,
    /// Mini-batch size `B` — each row's budget is spent `B·jobs` times.
    batch_size: u64,
    params: Vec<ParamStat>,
    stage: Stage,
    baseline_shots: u64,
    requested_shots: u64,
    skipped_evals: u64,
    /// PGP knobs currently in effect (mirrors what retunes installed).
    ratio: f64,
    pruning_window: usize,
    retunes: u64,
    /// The plan issued by the last [`Self::plan`], consumed by
    /// [`Self::observe`]. Not part of [`AllocState`]: a step that fails
    /// mid-flight is replayed wholesale on resume.
    pending: Option<StepPlan>,
}

impl ShotAllocator {
    /// Creates a controller for `num_params` parameters.
    ///
    /// `base_shots` is the run's uniform budget (the baseline the savings
    /// accounting compares against), `jobs_per_row[i]` the number of
    /// shifted jobs parameter `i`'s row costs per example, and
    /// `(ratio, pruning_window)` the PGP knobs currently configured (used
    /// as the retuner's starting point; pass `(0.0, 0)` when pruning is
    /// off — no window ever closes, so no retune ever fires).
    ///
    /// # Panics
    ///
    /// Panics when `jobs_per_row` width does not match `num_params` or
    /// `batch_size` is 0.
    pub fn new(
        num_params: usize,
        base_shots: u32,
        batch_size: usize,
        jobs_per_row: Vec<usize>,
        config: ShotAllocConfig,
        ratio: f64,
        pruning_window: usize,
    ) -> Self {
        assert_eq!(
            jobs_per_row.len(),
            num_params,
            "jobs_per_row width mismatch"
        );
        assert!(batch_size > 0, "batch_size must be positive");
        ShotAllocator {
            config,
            base_shots,
            jobs_per_row,
            batch_size: batch_size as u64,
            params: vec![ParamStat::default(); num_params],
            stage: Stage::default(),
            baseline_shots: 0,
            requested_shots: 0,
            skipped_evals: 0,
            ratio,
            pruning_window,
            retunes: 0,
            pending: None,
        }
    }

    /// Cumulative shift-job shots saved against the uniform baseline
    /// (negative when boundary parameters drew *more* than the baseline).
    pub fn saved_shots(&self) -> i64 {
        self.baseline_shots as i64 - self.requested_shots as i64
    }

    /// Cumulative skipped row evaluations.
    pub fn skipped_evals(&self) -> u64 {
        self.skipped_evals
    }

    /// The shot budget that lifts a parameter's predicted SNR to the
    /// target: `s = ⌈target²·ĉ/|g|²⌉`, clamped to `[min, max]`.
    fn budget_for(&self, ema: f64, noise: f64) -> u32 {
        if noise <= 0.0 {
            // Exact rows (σ̂ = 0) carry no shot noise to buy down: spend
            // the floor, not a division by zero.
            return self.config.min_shots;
        }
        if ema <= 0.0 {
            return self.config.max_shots;
        }
        let t = self.config.target_snr;
        let ideal = (t * t * noise / (ema * ema)).ceil();
        if !ideal.is_finite() || ideal >= f64::from(self.config.max_shots) {
            self.config.max_shots
        } else {
            (ideal as u32).clamp(self.config.min_shots, self.config.max_shots)
        }
    }

    /// Predicted SNR at the max budget, capped at [`SNR_CAP`] like the
    /// health tracker's reported SNR.
    fn snr_at_max(&self, ema: f64, noise: f64) -> f64 {
        if noise <= 0.0 {
            // No observed noise: trust the gradient.
            return SNR_CAP;
        }
        let sigma = (noise / f64::from(self.config.max_shots)).sqrt();
        if sigma > 0.0 {
            (ema / sigma).min(SNR_CAP)
        } else if ema > 0.0 {
            SNR_CAP
        } else {
            0.0
        }
    }

    /// Assigns this step's budgets for the selected rows (`indices` is the
    /// pruner's selection, ascending) from `health`'s pre-step statistics.
    /// Parameters without history warm up at the uniform baseline budget;
    /// the rest get the SNR-solved budget or are skipped when even the max
    /// budget cannot beat [`WRONG_SIGN_SNR`].
    ///
    /// Call exactly once per step, before the gradient evaluation; the
    /// matching [`Self::observe`] folds the measured gradients back in.
    pub fn plan(&mut self, health: &GradientHealth, indices: &[usize]) -> StepPlan {
        let mut plan = StepPlan::default();
        for &i in indices {
            if health.evals(i) == 0 {
                plan.rows.push(ShotSpec {
                    param: i,
                    shots: self.base_shots,
                });
                continue;
            }
            let (ema, stat) = (health.ema(i), &self.params[i]);
            if self.snr_at_max(ema, stat.noise) < WRONG_SIGN_SNR {
                // Probe instead of skipping on every SKIP_PROBE_EVERY-th
                // consecutive skip, so recovering gradients are noticed.
                if (stat.skip_streak + 1).is_multiple_of(SKIP_PROBE_EVERY) {
                    plan.rows.push(ShotSpec {
                        param: i,
                        shots: self.config.min_shots,
                    });
                } else {
                    plan.skipped.push(i);
                }
                continue;
            }
            plan.rows.push(ShotSpec {
                param: i,
                shots: self.budget_for(ema, stat.noise),
            });
        }
        self.pending = Some(plan.clone());
        plan
    }

    /// Folds the step's measured noise back into the controller, updates
    /// the savings accounting, and — when `closed` reports a pruning window
    /// the step closed — possibly requests a PGP retune from its recall.
    ///
    /// Call after [`GradientHealth::observe_step`] has folded in the same
    /// step (it returns `closed`); `grad_var` is the full-width shot-noise
    /// variance [`crate::grad`] produced.
    ///
    /// # Panics
    ///
    /// Panics when called without a preceding [`Self::plan`], with a
    /// mismatched width, or before `health` counted a planned row.
    pub fn observe(
        &mut self,
        health: &GradientHealth,
        closed: Option<ClosedWindow>,
        grad_var: &[f64],
    ) -> Option<Retune> {
        assert_eq!(grad_var.len(), self.params.len(), "variance width mismatch");
        let plan = self.pending.take().expect("observe() without plan()");
        // Close first: this step's accounting opens the next window.
        let retune = closed.and_then(|w| self.close_window(w));

        let mut step_requested = 0u64;
        let mut step_baseline = 0u64;
        for spec in &plan.rows {
            let i = spec.param;
            let jobs = self.jobs_per_row[i] as u64 * self.batch_size;
            step_requested += jobs * u64::from(spec.shots);
            step_baseline += jobs * u64::from(self.base_shots);
            let stat = &mut self.params[i];
            // σ̂²·s is shot-invariant; EMA it on the |g| EMA's schedule.
            // `health` already counted this step's evaluation, so the
            // seeding test reads the count from before it.
            let c = grad_var[i] * f64::from(spec.shots);
            stat.noise = ema_update(EMA_DECAY, stat.noise, health.evals(i) - 1, c);
            stat.skip_streak = 0;
        }
        for &i in &plan.skipped {
            let jobs = self.jobs_per_row[i] as u64 * self.batch_size;
            step_baseline += jobs * u64::from(self.base_shots);
            self.params[i].skip_streak += 1;
        }
        self.requested_shots += step_requested;
        self.baseline_shots += step_baseline;
        self.skipped_evals += plan.skipped.len() as u64;
        self.stage.planned += plan.rows.len() as u64;
        self.stage.skipped += plan.skipped.len() as u64;
        self.stage.requested += step_requested;
        self.stage.baseline += step_baseline;

        if qoc_telemetry::enabled() {
            let metrics = qoc_telemetry::metrics::Registry::global();
            metrics
                .counter("qoc.alloc.saved_shots")
                .add(step_baseline.saturating_sub(step_requested));
            metrics
                .counter("qoc.alloc.skipped_evals")
                .add(plan.skipped.len() as u64);
        }
        retune
    }

    /// Reports the window [`GradientHealth::finish`] flushed (call after
    /// the training loop). No retune is returned — there are no steps left
    /// to apply it to.
    pub fn finish(&mut self, closed: Option<ClosedWindow>) {
        if let Some(w) = closed {
            let _ = self.close_window(w);
        }
    }

    /// Closes the window: emits the `alloc.window` event, derives a retune
    /// from the measured recall, and resets the shot accounting.
    fn close_window(&mut self, w: ClosedWindow) -> Option<Retune> {
        let stage = std::mem::take(&mut self.stage);
        let retune = self.derive_retune(w.recall);
        if qoc_telemetry::enabled() {
            qoc_telemetry::event!(
                qoc_telemetry::Level::Info,
                "alloc.window",
                window = w.index,
                stage_steps = w.steps,
                planned_rows = stage.planned,
                skipped_rows = stage.skipped,
                requested_shots = stage.requested,
                baseline_shots = stage.baseline,
                saved_shots = stage.baseline as f64 - stage.requested as f64,
                recall = w.recall,
                ratio = self.ratio,
                pruning_window = self.pruning_window as u64,
                retuned = retune.is_some(),
            );
            let metrics = qoc_telemetry::metrics::Registry::global();
            metrics.counter("qoc.alloc.windows").inc();
            metrics.gauge("qoc.alloc.recall").set(w.recall);
            metrics.gauge("qoc.alloc.ratio").set(self.ratio);
        }
        retune
    }

    /// High recall → the EMA ranking and the pruner agree; prune harder.
    /// Low recall → the subset is missing top gradients; back off.
    fn derive_retune(&mut self, recall: f64) -> Option<Retune> {
        if self.pruning_window == 0 {
            return None;
        }
        let (new_ratio, new_window) = if recall >= RETUNE_RECALL_HIGH {
            (
                (self.ratio + RETUNE_RATIO_STEP).min(RETUNE_RATIO_MAX),
                (self.pruning_window + 1).min(RETUNE_WINDOW_MAX),
            )
        } else if recall < RETUNE_RECALL_LOW {
            (
                (self.ratio - RETUNE_RATIO_STEP).max(RETUNE_RATIO_MIN),
                self.pruning_window.saturating_sub(1).max(1),
            )
        } else {
            return None;
        };
        if (new_ratio - self.ratio).abs() < 1e-12 && new_window == self.pruning_window {
            return None;
        }
        self.ratio = new_ratio;
        self.pruning_window = new_window;
        self.retunes += 1;
        Some(Retune {
            ratio: new_ratio,
            pruning_window: new_window,
        })
    }

    /// Snapshot of the controller and of the `health` state it reads, for
    /// checkpointing.
    pub fn state(&self, health: &GradientHealth) -> AllocState {
        AllocState {
            ema_abs: health.params.iter().map(|p| p.ema).collect(),
            noise: self.params.iter().map(|p| p.noise).collect(),
            evals: health.params.iter().map(|p| p.evals).collect(),
            skip_streak: self.params.iter().map(|p| p.skip_streak).collect(),
            prev_was_subset: health.prev_was_subset,
            windows: health.windows,
            baseline_shots: self.baseline_shots,
            requested_shots: self.requested_shots,
            skipped_evals: self.skipped_evals,
            ratio: self.ratio,
            pruning_window: self.pruning_window as u64,
            retunes: self.retunes,
            stage: vec![
                health.window.steps,
                self.stage.planned,
                self.stage.skipped,
                self.stage.requested,
                self.stage.baseline,
                health.window.kept,
                health.window.overlap,
            ],
        }
    }

    /// Restores a snapshot captured by [`Self::state`] into this controller
    /// and into `health` (its |g| EMA, evaluation counts and open-window
    /// position; sign flips and the window's evaluated/saved/wasted sums
    /// are not checkpointed and restart from here).
    ///
    /// Returns the tuned PGP knobs so the caller can re-apply them to the
    /// live pruner (the pruner's own checkpoint carries only its window
    /// state, not retuned hyper-parameters).
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's widths do not match this allocator or
    /// `health`.
    pub fn restore(&mut self, state: &AllocState, health: &mut GradientHealth) -> Retune {
        let n = self.params.len();
        assert_eq!(health.params.len(), n, "health tracker width mismatch");
        assert_eq!(state.ema_abs.len(), n, "alloc snapshot width mismatch");
        assert_eq!(state.noise.len(), n, "alloc snapshot width mismatch");
        assert_eq!(state.evals.len(), n, "alloc snapshot width mismatch");
        assert_eq!(state.skip_streak.len(), n, "alloc snapshot width mismatch");
        assert_eq!(state.stage.len(), 7, "alloc snapshot stage width mismatch");
        for (i, (p, h)) in self.params.iter_mut().zip(&mut health.params).enumerate() {
            p.noise = state.noise[i];
            p.skip_streak = state.skip_streak[i];
            h.ema = state.ema_abs[i];
            h.evals = state.evals[i];
        }
        health.prev_was_subset = state.prev_was_subset;
        health.windows = state.windows;
        health.window.steps = state.stage[0];
        health.window.kept = state.stage[5];
        health.window.overlap = state.stage[6];
        self.baseline_shots = state.baseline_shots;
        self.requested_shots = state.requested_shots;
        self.skipped_evals = state.skipped_evals;
        self.ratio = state.ratio;
        self.pruning_window = state.pruning_window as usize;
        self.retunes = state.retunes;
        self.stage = Stage {
            planned: state.stage[1],
            skipped: state.stage[2],
            requested: state.stage[3],
            baseline: state.stage[4],
        };
        self.pending = None;
        Retune {
            ratio: self.ratio,
            pruning_window: self.pruning_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::Selection;

    /// A controller and the health tracker it reads, stepped the way the
    /// engine steps them.
    struct Rig {
        a: ShotAllocator,
        h: GradientHealth,
    }

    impl Rig {
        fn new(a: ShotAllocator) -> Self {
            let h = GradientHealth::new(a.params.len(), a.batch_size as usize);
            Rig { a, h }
        }

        fn plan(&mut self, indices: &[usize]) -> StepPlan {
            self.a.plan(&self.h, indices)
        }

        fn observe(&mut self, selection: &Selection, grad: &[f64], var: &[f64]) -> Option<Retune> {
            let plan = self.a.pending.as_ref().expect("plan() first");
            let rows: Vec<usize> = plan.rows.iter().map(|r| r.param).collect();
            let closed = self.h.observe_step(0, selection, &rows, grad, var, 0.0);
            self.a.observe(&self.h, closed, var)
        }
    }

    fn allocator(n: usize, config: ShotAllocConfig) -> Rig {
        Rig::new(ShotAllocator::new(n, 1024, 1, vec![2; n], config, 0.5, 2))
    }

    #[test]
    fn config_rejects_inverted_range_with_typed_error() {
        let err = ShotAllocConfig::new(512, 128, 2.0).unwrap_err();
        assert_eq!(err, ShotAllocError::InvalidRange { min: 512, max: 128 });
        assert!(err.to_string().contains("min_shots"));
    }

    #[test]
    fn config_rejects_bad_numbers() {
        assert!(matches!(
            ShotAllocConfig::new(0, 128, 2.0),
            Err(ShotAllocError::InvalidNumber { .. })
        ));
        assert!(matches!(
            ShotAllocConfig::new(1, 128, 0.0),
            Err(ShotAllocError::InvalidNumber { .. })
        ));
        assert!(matches!(
            ShotAllocConfig::new(1, 128, f64::NAN),
            Err(ShotAllocError::InvalidNumber { .. })
        ));
    }

    #[test]
    fn warmup_uses_the_baseline_budget() {
        let mut a = allocator(2, ShotAllocConfig::default());
        let plan = a.plan(&[0, 1]);
        assert_eq!(plan.rows.len(), 2);
        assert!(plan.rows.iter().all(|r| r.shots == 1024));
        assert!(plan.skipped.is_empty());
    }

    #[test]
    fn zero_sigma_rows_get_min_shots_not_a_division() {
        // Exact-backend rows: grad_var ≡ 0 → ĉ = 0. The budget must be the
        // configured floor, and the row must never be skipped (its SNR at
        // max is treated as noise-free).
        let mut a = allocator(1, ShotAllocConfig::default());
        let _ = a.plan(&[0]);
        a.observe(&Selection::Full, &[0.3], &[0.0]);
        let plan = a.plan(&[0]);
        assert_eq!(
            plan.rows,
            vec![ShotSpec {
                param: 0,
                shots: DEFAULT_MIN_SHOTS
            }]
        );
        assert!(plan.skipped.is_empty());
    }

    #[test]
    fn noise_ema_seeds_on_the_first_evaluation() {
        // The tracker counts a step's evaluation before the controller
        // folds in its noise: the first ĉ must still *set* the EMA, and
        // the second blend with it.
        let mut a = allocator(1, ShotAllocConfig::default());
        let _ = a.plan(&[0]);
        a.observe(&Selection::Full, &[0.3], &[1e-4]);
        assert_eq!(a.a.params[0].noise, 1e-4 * 1024.0);
        let s = a.plan(&[0]).rows[0].shots;
        a.observe(&Selection::Full, &[0.3], &[2e-4]);
        let blended = 0.5 * (1e-4 * 1024.0) + 0.5 * (2e-4 * f64::from(s));
        assert_eq!(a.a.params[0].noise, blended);
    }

    #[test]
    fn high_snr_params_get_few_shots_low_snr_more() {
        let cfg = ShotAllocConfig::new(64, 8192, 2.0).unwrap();
        let mut a = Rig::new(ShotAllocator::new(2, 1024, 1, vec![2, 2], cfg, 0.5, 2));
        let _ = a.plan(&[0, 1]);
        // Param 0: |g| = 0.5, σ̂² = 1e-4 at 1024 shots → ĉ ≈ 0.1 →
        // s* = 4·0.1/0.25 = 1.6 → clamps to the floor.
        // Param 1: |g| = 0.02, same noise → s* = 4·0.1024/4e-4 = 1024.
        a.observe(&Selection::Full, &[0.5, 0.02], &[1e-4, 1e-4]);
        let plan = a.plan(&[0, 1]);
        assert_eq!(plan.rows[0].shots, 64, "high-SNR row at the floor");
        assert_eq!(plan.rows[1].shots, 1024, "boundary row solved to s*");
        assert!(plan.rows[0].shots < plan.rows[1].shots);
    }

    #[test]
    fn hopeless_rows_are_skipped_with_periodic_probes() {
        let cfg = ShotAllocConfig::new(64, 256, 2.0).unwrap();
        let mut a = Rig::new(ShotAllocator::new(1, 1024, 1, vec![2], cfg, 0.5, 2));
        let _ = a.plan(&[0]);
        // |g| tiny, noise large: SNR at 256 shots = |g|/√(ĉ/256) ≪ 1.
        a.observe(&Selection::Full, &[1e-6], &[1e-2]);
        let mut skips = 0;
        let mut probes = 0;
        for _ in 0..8 {
            let plan = a.plan(&[0]);
            if plan.skipped == vec![0] {
                skips += 1;
                a.observe(&Selection::Full, &[0.0], &[0.0]);
            } else {
                probes += 1;
                assert_eq!(plan.rows[0].shots, 64, "probe runs at the floor");
                // Probe still measures nothing useful.
                a.observe(&Selection::Full, &[1e-6], &[1e-2]);
            }
        }
        // SKIP_PROBE_EVERY = 2 → the 8 evals alternate skip / probe.
        assert!(skips >= 3, "skips {skips}");
        assert!(probes >= 3, "deterministic probe must fire");
        assert_eq!(a.a.skipped_evals(), skips);
    }

    #[test]
    fn snr_cap_applies_to_predictions() {
        // Minuscule but nonzero noise with a huge gradient: the predicted
        // SNR must cap at SNR_CAP (not inf) and the budget at the floor.
        let cfg = ShotAllocConfig::new(16, 512, 2.0).unwrap();
        let mut a = Rig::new(ShotAllocator::new(1, 1024, 1, vec![2], cfg, 0.5, 2));
        let _ = a.plan(&[0]);
        a.observe(&Selection::Full, &[1e30], &[1e-300]);
        assert_eq!(a.a.snr_at_max(a.h.ema(0), a.a.params[0].noise), SNR_CAP);
        let plan = a.plan(&[0]);
        assert_eq!(plan.rows[0].shots, 16);
    }

    #[test]
    fn saved_shot_accounting_is_exact() {
        let cfg = ShotAllocConfig::new(64, 8192, 2.0).unwrap();
        // 2 params, 4 jobs per row (two occurrences), batch 3.
        let mut a = Rig::new(ShotAllocator::new(2, 1000, 3, vec![4, 4], cfg, 0.5, 2));
        let _ = a.plan(&[0, 1]);
        a.observe(&Selection::Full, &[0.5, 0.5], &[1e-4, 1e-4]);
        // Warmup step: requested == baseline.
        assert_eq!(a.a.saved_shots(), 0);
        let plan = a.plan(&[0, 1]);
        let s = plan.rows[0].shots;
        a.observe(&Selection::Full, &[0.5, 0.5], &[1e-4, 1e-4]);
        // Each row: 4 jobs × batch 3 = 12 executions of (1000 − s) saved.
        assert_eq!(a.a.saved_shots(), 2 * 12 * (1000 - i64::from(s)));
    }

    #[test]
    fn window_close_retunes_on_high_recall() {
        let mut a = allocator(4, ShotAllocConfig::default());
        // Seed EMAs: params 2, 3 dominate.
        let _ = a.plan(&[0, 1, 2, 3]);
        a.observe(&Selection::Full, &[0.01, 0.02, 0.5, 0.6], &[0.0; 4]);
        // Pruned step keeps exactly the top-2 → recall 1.
        let _ = a.plan(&[2, 3]);
        a.observe(
            &Selection::Subset(vec![2, 3]),
            &[0.0, 0.0, 0.5, 0.6],
            &[0.0; 4],
        );
        // Full step closes the window.
        let _ = a.plan(&[0, 1, 2, 3]);
        let retune = a.observe(&Selection::Full, &[0.01, 0.02, 0.5, 0.6], &[0.0; 4]);
        let r = retune.expect("perfect recall must push harder");
        assert!((r.ratio - 0.55).abs() < 1e-12);
        assert_eq!(r.pruning_window, 3);
        assert_eq!(a.h.windows_completed(), 1);
    }

    #[test]
    fn window_close_backs_off_on_low_recall() {
        let mut a = allocator(4, ShotAllocConfig::default());
        let _ = a.plan(&[0, 1, 2, 3]);
        a.observe(&Selection::Full, &[0.01, 0.02, 0.5, 0.6], &[0.0; 4]);
        // Subset misses both top params → recall 0.
        let _ = a.plan(&[0, 1]);
        a.observe(
            &Selection::Subset(vec![0, 1]),
            &[0.01, 0.02, 0.0, 0.0],
            &[0.0; 4],
        );
        let _ = a.plan(&[0, 1, 2, 3]);
        let r = a
            .observe(&Selection::Full, &[0.01, 0.02, 0.5, 0.6], &[0.0; 4])
            .expect("zero recall must back off");
        assert!((r.ratio - 0.45).abs() < 1e-12);
        assert_eq!(r.pruning_window, 1);
    }

    #[test]
    fn mid_band_recall_leaves_knobs_alone() {
        let mut a = allocator(4, ShotAllocConfig::default());
        let _ = a.plan(&[0, 1, 2, 3]);
        a.observe(&Selection::Full, &[0.01, 0.02, 0.5, 0.6], &[0.0; 4]);
        // Against the top-2 {2, 3}, subset {2, 3} keeps both and {1, 3}
        // keeps one: recall 3/4, inside the dead band [0.7, 0.95).
        let _ = a.plan(&[2, 3]);
        a.observe(
            &Selection::Subset(vec![2, 3]),
            &[0.0, 0.0, 0.5, 0.6],
            &[0.0; 4],
        );
        let _ = a.plan(&[1, 3]);
        a.observe(
            &Selection::Subset(vec![1, 3]),
            &[0.0, 0.02, 0.0, 0.6],
            &[0.0; 4],
        );
        let _ = a.plan(&[0, 1, 2, 3]);
        let retune = a.observe(&Selection::Full, &[0.01, 0.02, 0.5, 0.6], &[0.0; 4]);
        assert_eq!(retune, None, "dead-band recall must not retune");
        assert_eq!(a.h.windows_completed(), 1);
    }

    #[test]
    fn state_round_trips_and_resumes_identically() {
        let cfg = ShotAllocConfig::new(64, 8192, 2.0).unwrap();
        let fresh = || Rig::new(ShotAllocator::new(3, 1024, 2, vec![2, 2, 4], cfg, 0.5, 2));
        let mut a = fresh();
        let _ = a.plan(&[0, 1, 2]);
        a.observe(&Selection::Full, &[0.4, 0.001, 0.2], &[1e-4, 1e-3, 5e-5]);
        let _ = a.plan(&[0, 2]);
        a.observe(
            &Selection::Subset(vec![0, 2]),
            &[0.4, 0.0, 0.2],
            &[1e-4, 0.0, 5e-5],
        );
        let snap = a.a.state(&a.h);

        let mut b = fresh();
        let knobs = b.a.restore(&snap, &mut b.h);
        assert_eq!(knobs.ratio, 0.5);
        assert_eq!(b.a.state(&b.h), snap);

        // Both continue identically.
        let pa = a.plan(&[0, 1, 2]);
        let pb = b.plan(&[0, 1, 2]);
        assert_eq!(pa, pb);
        let ra = a.observe(&Selection::Full, &[0.3, 0.001, 0.1], &[1e-4, 1e-3, 5e-5]);
        let rb = b.observe(&Selection::Full, &[0.3, 0.001, 0.1], &[1e-4, 1e-3, 5e-5]);
        assert_eq!(ra, rb);
        assert_eq!(a.a.state(&a.h), b.a.state(&b.h));
    }

    #[test]
    fn serialized_state_round_trips_exactly() {
        let mut a = allocator(2, ShotAllocConfig::default());
        let _ = a.plan(&[0, 1]);
        a.observe(
            &Selection::Full,
            &[0.1 + 0.2, -1.0 / 3.0],
            &[1e-7, 4.9e-324],
        );
        let state = a.a.state(&a.h);
        let text = serde_json::to_string_pretty(&state).unwrap();
        let root: serde::Value = serde_json::from_str(&text).unwrap();
        let parsed = crate::checkpoint::parse_alloc(&root).unwrap();
        assert_eq!(parsed, state);
        for (x, y) in state.ema_abs.iter().zip(&parsed.ema_abs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
