//! In-loop gradient-health diagnostics (paper Section 3.3, Figure 5).
//!
//! The paper's core empirical argument is that on noisy hardware *small*
//! gradients carry large relative error and frequently a wrong sign — which
//! is why probabilistic gradient pruning freezes exactly those parameters.
//! This module measures that claim live, per training run:
//!
//! - **|g| EMA** — an exponential moving average of each parameter's
//!   gradient magnitude across its evaluations (the streaming analogue of
//!   the pruner's per-window accumulator `M`);
//! - **sign-flip rate** — how often a parameter's gradient changes sign
//!   between consecutive evaluations (Fig. 5's "wrong direction" symptom);
//! - **σ̂** — the shot-noise standard error of each gradient entry,
//!   propagated from the parameter-shift expectation variances under the
//!   finite-shot binomial model (see
//!   [`JacobianPlan::row_variances`](crate::shift::JacobianPlan::row_variances));
//! - **SNR = |g|/σ̂** — the signal-to-noise ratio that separates
//!   trustworthy gradients from noise-dominated ones;
//! - **pruning efficacy** — per completed pruning window, how well the
//!   PGP-sampled subset recalled the true top-|g| set (by EMA), and the
//!   measured circuit-run savings against the paper's
//!   `r·w_p/(w_a+w_p)` prediction.
//!
//! Everything is emitted through `qoc-telemetry`: one `grad.health` event
//! per evaluated parameter per step, one `prune.efficacy` event per
//! completed window, and SNR samples into the `qoc.grad.snr`
//! streaming-quantile estimator. The engine
//! constructs a [`GradientHealth`] only when telemetry is enabled, so the
//! disabled path stays at one relaxed atomic load per step.

use qoc_telemetry::metrics::Registry;

use crate::prune::Selection;

/// SNR ceiling reported when σ̂ = 0 (exact execution): JSON cannot encode
/// infinity, and any downstream ranking treats the cap as "noise-free".
pub const SNR_CAP: f64 = 1e9;

/// Configuration of the health tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EMA weight on the *previous* average (0.5 halves the influence of
    /// history per evaluation; the first evaluation seeds the EMA).
    pub ema_decay: f64,
    /// Mini-batch size `B` — a pruned parameter skips `2·B` circuit runs
    /// per step, the unit of the saved/wasted run accounting.
    pub batch_size: usize,
    /// The configured steady-state savings `r·w_p/(w_a+w_p)` reported in
    /// `prune.efficacy` events for comparison (0 when pruning is off).
    pub expected_savings: f64,
}

impl HealthConfig {
    /// Defaults: `ema_decay` 0.5.
    pub fn new(batch_size: usize, expected_savings: f64) -> Self {
        HealthConfig {
            ema_decay: 0.5,
            batch_size,
            expected_savings,
        }
    }
}

/// Per-parameter streaming state.
#[derive(Debug, Clone, Copy, Default)]
struct ParamHealth {
    /// EMA of |g| across this parameter's evaluations.
    ema: f64,
    /// Number of evaluations observed.
    evals: u64,
    /// Sign transitions between consecutive evaluations.
    flips: u64,
    /// Sign of the last nonzero gradient: -1, 0 (none yet), or +1.
    last_sign: i8,
}

/// Accumulated state of the pruning stage in progress (one accumulation
/// window followed by one pruning window).
#[derive(Debug, Default)]
struct StageState {
    /// Steps observed in this stage (full + pruned).
    steps: usize,
    /// Σ evaluated parameter count over the stage's steps.
    evaluated_sum: usize,
    /// Pruned steps in the stage.
    pruned_steps: usize,
    /// Σ subset size over pruned steps.
    kept_sum: usize,
    /// Σ |subset ∩ top-k-by-EMA| over pruned steps.
    overlap_sum: usize,
    /// Circuit runs skipped by pruning: `2·B·Σ(n − k)`.
    saved_runs: u64,
    /// Runs spent on parameters outside the top-k: `2·B·Σ(k − overlap)`.
    wasted_runs: u64,
}

/// Streaming per-parameter gradient-health tracker.
///
/// Feed it every training step via [`Self::observe_step`] and call
/// [`Self::finish`] after the loop to flush the final pruning window. The
/// tracker never touches the backend; it only folds in quantities the
/// gradient computation already produced.
#[derive(Debug)]
pub struct GradientHealth {
    config: HealthConfig,
    params: Vec<ParamHealth>,
    stage: StageState,
    /// Completed-window counter (the `window` field of `prune.efficacy`).
    windows: u64,
    /// Whether the previous observed step was a pruned (subset) step —
    /// a Full step arriving after a subset step closes the stage.
    prev_was_subset: bool,
}

impl GradientHealth {
    /// Creates a tracker for `num_params` parameters.
    ///
    /// # Panics
    ///
    /// Panics when `ema_decay` is outside `[0, 1)` or `batch_size` is 0.
    pub fn new(num_params: usize, config: HealthConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.ema_decay),
            "ema_decay must be in [0, 1), got {}",
            config.ema_decay
        );
        assert!(config.batch_size > 0, "batch_size must be positive");
        GradientHealth {
            params: vec![ParamHealth::default(); num_params],
            stage: StageState::default(),
            windows: 0,
            prev_was_subset: false,
            config,
        }
    }

    /// The indices of the `k` largest-EMA parameters (the "true top set"
    /// the pruner's sampled subset is judged against).
    pub fn top_k_by_ema(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.params.len()).collect();
        idx.sort_by(|&a, &b| self.params[b].ema.total_cmp(&self.params[a].ema));
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    /// Completed pruning windows so far.
    pub fn windows_completed(&self) -> u64 {
        self.windows
    }

    /// Folds in one training step: `selection` is the pruner's choice,
    /// `evaluated` the rows whose gradients the step actually computed (the
    /// selection minus any rows the shot allocator skipped), and
    /// `grad`/`grad_var` the full-width mean gradient and its shot-noise
    /// variance (frozen entries 0), as produced by
    /// [`QnnGradientComputer`](crate::grad::QnnGradientComputer).
    ///
    /// Emits one `grad.health` event per *evaluated* parameter and, when a
    /// full step closes a pruning window, one `prune.efficacy` event.
    /// Window boundaries and subset recall follow `selection`; per-row
    /// statistics and the measured savings follow `evaluated`.
    ///
    /// # Panics
    ///
    /// Panics when `grad`/`grad_var` widths do not match the tracker.
    pub fn observe_step(
        &mut self,
        step: usize,
        selection: &Selection,
        evaluated: &[usize],
        grad: &[f64],
        grad_var: &[f64],
    ) {
        let n = self.params.len();
        assert_eq!(grad.len(), n, "gradient width mismatch");
        assert_eq!(grad_var.len(), n, "variance width mismatch");

        // A Full step right after a subset step means the pruner started a
        // new stage: the previous window is complete — report it.
        if matches!(selection, Selection::Full) && self.prev_was_subset {
            self.emit_efficacy();
        }

        if let Selection::Subset(s) = selection {
            // Judge the sampled subset against the top-|s| EMA set *before*
            // this step's gradients update the EMAs — the pruner, too, chose
            // from pre-step information.
            let top = self.top_k_by_ema(s.len());
            let overlap = s.iter().filter(|i| top.binary_search(i).is_ok()).count();
            let b = self.config.batch_size as u64;
            self.stage.pruned_steps += 1;
            self.stage.kept_sum += s.len();
            self.stage.overlap_sum += overlap;
            self.stage.saved_runs += 2 * b * (n - s.len()) as u64;
            self.stage.wasted_runs += 2 * b * (s.len() - overlap) as u64;
        }
        self.stage.steps += 1;
        self.stage.evaluated_sum += evaluated.len();
        self.prev_was_subset = matches!(selection, Selection::Subset(_));

        let snr_estimator = Registry::global().quantile_estimator("qoc.grad.snr", 4096);
        for &i in evaluated {
            let p = &mut self.params[i];
            let g = grad[i];
            let abs = g.abs();
            p.ema = crate::stats::ema_update(self.config.ema_decay, p.ema, p.evals, abs);
            let sign = if g > 0.0 {
                1i8
            } else if g < 0.0 {
                -1i8
            } else {
                0i8
            };
            let flip = sign != 0 && p.last_sign != 0 && sign != p.last_sign;
            if flip {
                p.flips += 1;
            }
            if sign != 0 {
                p.last_sign = sign;
            }
            p.evals += 1;
            // Flip rate over the transitions seen so far (evals − 1 of
            // them; 0.0 until the second evaluation).
            let flip_rate = if p.evals > 1 {
                p.flips as f64 / (p.evals - 1) as f64
            } else {
                0.0
            };
            let sigma = grad_var[i].sqrt();
            let snr = if sigma > 0.0 {
                (abs / sigma).min(SNR_CAP)
            } else if abs > 0.0 {
                SNR_CAP
            } else {
                0.0
            };
            snr_estimator.record(snr);
            qoc_telemetry::event!(
                qoc_telemetry::Level::Debug,
                "grad.health",
                step = step,
                param = i,
                grad_abs = abs,
                ema = p.ema,
                sigma = sigma,
                snr = snr,
                flip = flip,
                flip_rate = flip_rate,
                evals = p.evals,
            );
        }
    }

    /// Flushes the pruning window in progress (if it pruned anything) —
    /// call once after the training loop.
    pub fn finish(&mut self) {
        if self.stage.pruned_steps > 0 {
            self.emit_efficacy();
        }
        self.prev_was_subset = false;
    }

    /// Emits the `prune.efficacy` event for the completed stage and resets
    /// the stage accumulator.
    fn emit_efficacy(&mut self) {
        let stage = std::mem::take(&mut self.stage);
        if stage.pruned_steps == 0 || stage.steps == 0 {
            return;
        }
        let n = self.params.len();
        let recall = if stage.kept_sum > 0 {
            stage.overlap_sum as f64 / stage.kept_sum as f64
        } else {
            0.0
        };
        // Fraction of gradient evaluations this stage skipped, the
        // empirical counterpart of the paper's r·w_p/(w_a+w_p).
        let measured_savings = 1.0 - stage.evaluated_sum as f64 / (n * stage.steps) as f64;
        let metrics = Registry::global();
        metrics.counter("qoc.health.windows").inc();
        metrics.gauge("qoc.health.recall").set(recall);
        metrics
            .gauge("qoc.health.measured_savings")
            .set(measured_savings);
        qoc_telemetry::event!(
            qoc_telemetry::Level::Info,
            "prune.efficacy",
            window = self.windows,
            stage_steps = stage.steps,
            recall = recall,
            overlap = stage.overlap_sum,
            kept = stage.kept_sum,
            saved_runs = stage.saved_runs,
            wasted_runs = stage.wasted_runs,
            measured_savings = measured_savings,
            expected_savings = self.config.expected_savings,
        );
        self.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_telemetry::sink::CaptureSubscriber;
    use qoc_telemetry::{install_for_test, FieldValue, Level};
    use std::sync::Arc;

    fn field<'a>(rec: &'a qoc_telemetry::sink::OwnedRecord, key: &str) -> &'a FieldValue {
        &rec.fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{} missing field {key}", rec.span))
            .1
    }

    fn f64_of(v: &FieldValue) -> f64 {
        match v {
            FieldValue::F64(x) => *x,
            FieldValue::U64(x) => *x as f64,
            FieldValue::I64(x) => *x as f64,
            other => panic!("not numeric: {other:?}"),
        }
    }

    #[test]
    fn ema_flips_and_snr_track_the_stream() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let mut h = GradientHealth::new(2, HealthConfig::new(4, 0.0));
        // Param 0 alternates sign (+0.4, −0.4, +0.4); param 1 is steady.
        let vars = [0.01, 0.04];
        h.observe_step(0, &Selection::Full, &[0, 1], &[0.4, 0.1], &vars);
        h.observe_step(1, &Selection::Full, &[0, 1], &[-0.4, 0.1], &vars);
        h.observe_step(2, &Selection::Full, &[0, 1], &[0.4, 0.1], &vars);
        h.finish();
        drop(guard);

        let records = capture.records();
        let health: Vec<_> = records.iter().filter(|r| r.span == "grad.health").collect();
        assert_eq!(health.len(), 6, "2 params × 3 steps");

        // Param 0, step 2: two sign transitions out of two → flip_rate 1.
        let last0 = health
            .iter()
            .rev()
            .find(|r| *field(r, "param") == FieldValue::U64(0))
            .unwrap();
        assert_eq!(*field(last0, "flip"), FieldValue::Bool(true));
        assert!((f64_of(field(last0, "flip_rate")) - 1.0).abs() < 1e-12);
        // EMA with decay 0 tracks |g| exactly.
        assert!((f64_of(field(last0, "ema")) - 0.4).abs() < 1e-12);
        // σ = √0.01 = 0.1 → SNR = 0.4/0.1 = 4.
        assert!((f64_of(field(last0, "snr")) - 4.0).abs() < 1e-12);

        // Param 1 never flips: σ = 0.2, SNR = 0.5.
        let last1 = health
            .iter()
            .rev()
            .find(|r| *field(r, "param") == FieldValue::U64(1))
            .unwrap();
        assert_eq!(*field(last1, "flip"), FieldValue::Bool(false));
        assert!((f64_of(field(last1, "flip_rate"))).abs() < 1e-12);
        assert!((f64_of(field(last1, "snr")) - 0.5).abs() < 1e-12);

        // No pruning happened → no efficacy events.
        assert!(records.iter().all(|r| r.span != "prune.efficacy"));
    }

    #[test]
    fn zero_sigma_caps_snr_instead_of_inf() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let mut h = GradientHealth::new(1, HealthConfig::new(1, 0.0));
        h.observe_step(0, &Selection::Full, &[0], &[0.3], &[0.0]);
        h.observe_step(1, &Selection::Full, &[0], &[0.0], &[0.0]);
        drop(guard);
        let records = capture.records();
        assert_eq!(f64_of(field(&records[0], "snr")), SNR_CAP);
        assert_eq!(f64_of(field(&records[1], "snr")), 0.0);
    }

    #[test]
    fn efficacy_reports_recall_and_savings_per_window() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let b = 4usize;
        let mut h = GradientHealth::new(4, HealthConfig::new(b, 0.25));
        // Full step seeds EMAs: params 2 and 3 dominate.
        h.observe_step(
            0,
            &Selection::Full,
            &[0, 1, 2, 3],
            &[0.01, 0.02, 0.5, 0.6],
            &[0.0; 4],
        );
        // Pruned step keeps {2, 3} — perfect recall of the top-2.
        h.observe_step(
            1,
            &Selection::Subset(vec![2, 3]),
            &[2, 3],
            &[0.0, 0.0, 0.5, 0.6],
            &[0.0; 4],
        );
        // Pruned step keeps {0, 2} — half recall (param 0 is noise).
        h.observe_step(
            2,
            &Selection::Subset(vec![0, 2]),
            &[0, 2],
            &[0.02, 0.0, 0.5, 0.0],
            &[0.0; 4],
        );
        // Next Full step closes the window.
        h.observe_step(
            3,
            &Selection::Full,
            &[0, 1, 2, 3],
            &[0.01, 0.02, 0.5, 0.6],
            &[0.0; 4],
        );
        h.finish();
        drop(guard);

        let records = capture.records();
        let eff: Vec<_> = records
            .iter()
            .filter(|r| r.span == "prune.efficacy")
            .collect();
        assert_eq!(eff.len(), 1, "one completed window");
        let e = eff[0];
        assert_eq!(*field(e, "window"), FieldValue::U64(0));
        assert_eq!(*field(e, "stage_steps"), FieldValue::U64(3));
        assert_eq!(*field(e, "kept"), FieldValue::U64(4));
        assert_eq!(*field(e, "overlap"), FieldValue::U64(3));
        assert!((f64_of(field(e, "recall")) - 0.75).abs() < 1e-12);
        // Each pruned step skipped 2 of 4 params: 2·B·2 = 16 runs, twice.
        assert_eq!(*field(e, "saved_runs"), FieldValue::U64(2 * 16));
        // One off-top-k param evaluated in step 2: 2·B·1 = 8 runs wasted.
        assert_eq!(*field(e, "wasted_runs"), FieldValue::U64(8));
        // Evaluated 4+2+2 of 3·4 slots → savings 1/3.
        assert!((f64_of(field(e, "measured_savings")) - 1.0 / 3.0).abs() < 1e-12);
        assert!((f64_of(field(e, "expected_savings")) - 0.25).abs() < 1e-12);
        assert_eq!(h.windows_completed(), 1);
    }

    #[test]
    fn finish_flushes_an_open_window() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let mut h = GradientHealth::new(2, HealthConfig::new(1, 0.5));
        h.observe_step(0, &Selection::Full, &[0, 1], &[0.3, 0.1], &[0.0; 2]);
        h.observe_step(1, &Selection::Subset(vec![0]), &[0], &[0.3, 0.0], &[0.0; 2]);
        // The run ends mid-window; finish() must still report it.
        h.finish();
        drop(guard);
        let count = capture
            .records()
            .iter()
            .filter(|r| r.span == "prune.efficacy")
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn allocator_skipped_rows_are_not_counted_as_evaluated() {
        // A Full step whose shot allocator evaluated only rows 0 and 2: the
        // skipped rows' zero gradients must not reach the per-row stats.
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let mut h = GradientHealth::new(4, HealthConfig::new(1, 0.5));
        h.observe_step(
            0,
            &Selection::Full,
            &[0, 2],
            &[0.3, 0.0, 0.5, 0.0],
            &[0.01; 4],
        );
        assert_eq!(h.stage.evaluated_sum, 2, "two evaluations counted");
        assert_eq!(h.params[1].evals, 0, "skipped row 1 untouched");
        assert_eq!(h.params[3].evals, 0, "skipped row 3 untouched");
        drop(guard);
        let params: Vec<_> = capture
            .records()
            .iter()
            .filter(|r| r.span == "grad.health")
            .map(|r| field(r, "param").clone())
            .collect();
        assert_eq!(params, vec![FieldValue::U64(0), FieldValue::U64(2)]);
    }

    #[test]
    fn top_k_by_ema_ranks_after_updates() {
        let mut h = GradientHealth::new(3, HealthConfig::new(1, 0.0));
        h.observe_step(0, &Selection::Full, &[0, 1, 2], &[0.9, 0.1, 0.5], &[0.0; 3]);
        assert_eq!(h.top_k_by_ema(2), vec![0, 2]);
        assert_eq!(h.top_k_by_ema(1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "ema_decay")]
    fn rejects_bad_decay() {
        let _ = GradientHealth::new(
            1,
            HealthConfig {
                ema_decay: 1.0,
                batch_size: 1,
                expected_savings: 0.0,
            },
        );
    }
}
