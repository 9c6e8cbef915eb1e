//! In-loop gradient-health tracking (paper Section 3.3, Figure 5).
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
//! [`GradientHealth`] is the one owner of these per-parameter statistics
//! and of the open pruning window. The engine always builds it; only the
//! emission is gated on [`qoc_telemetry::enabled`]: one `grad.health`
//! event per evaluated parameter per step, one `prune.efficacy` event per
//! completed window. A resumed run starts a fresh tracker.

use qoc_telemetry::metrics::Registry;

use crate::prune::Selection;

/// SNR ceiling reported when σ̂ = 0 (exact execution): JSON cannot encode
/// infinity, and any downstream ranking treats the cap as "noise-free".
pub const SNR_CAP: f64 = 1e9;

/// EMA weight on the *previous* |g| average (0.5 halves the influence of
/// history per evaluation; the first evaluation seeds the EMA).
pub const EMA_DECAY: f64 = 0.5;

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
struct Window {
    /// Steps in this stage (full + pruned).
    steps: u64,
    /// Σ subset size over pruned steps.
    kept: u64,
    /// Σ |subset ∩ top-k-by-EMA| over pruned steps.
    overlap: u64,
    /// Σ evaluated parameter count over the stage's steps.
    evaluated_sum: u64,
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
    /// Mini-batch size `B` — a pruned parameter skips `2·B` circuit runs
    /// per step, the unit of the saved/wasted run accounting.
    batch_size: u64,
    params: Vec<ParamHealth>,
    window: Window,
    /// Completed-window counter (the next window's index).
    windows: u64,
    /// Whether the previous observed step was a pruned (subset) step —
    /// a Full step arriving after a subset step closes the stage.
    prev_was_subset: bool,
}

impl GradientHealth {
    /// Creates a tracker for `num_params` parameters trained on mini-batches
    /// of `batch_size` examples.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is 0.
    pub fn new(num_params: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        GradientHealth {
            batch_size: batch_size as u64,
            params: vec![ParamHealth::default(); num_params],
            window: Window::default(),
            windows: 0,
            prev_was_subset: false,
        }
    }

    /// The indices of the `k` largest-EMA parameters (the "true top set"
    /// the pruner's sampled subset is judged against).
    fn top_k_by_ema(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.params.len()).collect();
        idx.sort_by(|&a, &b| self.params[b].ema.total_cmp(&self.params[a].ema));
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    /// Folds in one training step: `selection` is the pruner's choice of
    /// the rows the step evaluated, and `grad`/`grad_var` the full-width
    /// mean gradient and its shot-noise variance (frozen entries 0), as
    /// produced by [`QnnGradientComputer`](crate::grad::QnnGradientComputer).
    /// `expected_savings` is the pruner's `r·w_p/(w_a+w_p)`, reported with
    /// the window this step closes (if any). With telemetry on, emits one
    /// `grad.health` event per evaluated parameter and one `prune.efficacy`
    /// event per closed window.
    ///
    /// # Panics
    ///
    /// Panics when `grad`/`grad_var` widths do not match the tracker.
    pub fn observe_step(
        &mut self,
        step: usize,
        selection: &Selection,
        grad: &[f64],
        grad_var: &[f64],
        expected_savings: f64,
    ) {
        let n = self.params.len();
        assert_eq!(grad.len(), n, "gradient width mismatch");
        assert_eq!(grad_var.len(), n, "variance width mismatch");

        // A Full step right after a subset step means the pruner started a
        // new stage: the previous window is complete.
        if matches!(selection, Selection::Full) && self.prev_was_subset {
            self.close_window(expected_savings);
        }

        let all: Vec<usize>;
        let evaluated = match selection {
            Selection::Full => {
                all = (0..n).collect();
                &all
            }
            Selection::Subset(s) => s,
        };
        if let Selection::Subset(s) = selection {
            // Judge the sampled subset against the top-|s| EMA set *before*
            // this step's gradients update the EMAs — the pruner, too, chose
            // from pre-step information.
            let top = self.top_k_by_ema(s.len());
            let overlap = s.iter().filter(|i| top.binary_search(i).is_ok()).count();
            let (k, overlap) = (s.len() as u64, overlap as u64);
            self.window.kept += k;
            self.window.overlap += overlap;
            self.window.saved_runs += 2 * self.batch_size * (n as u64 - k);
            self.window.wasted_runs += 2 * self.batch_size * (k - overlap);
        }
        self.window.steps += 1;
        self.window.evaluated_sum += evaluated.len() as u64;
        self.prev_was_subset = matches!(selection, Selection::Subset(_));

        let traced = qoc_telemetry::enabled();
        for &i in evaluated {
            let p = &mut self.params[i];
            let g = grad[i];
            let abs = g.abs();
            p.ema = if p.evals == 0 {
                abs
            } else {
                EMA_DECAY * p.ema + (1.0 - EMA_DECAY) * abs
            };
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
            if !traced {
                continue;
            }
            // Flip rate over the evals − 1 transitions (0.0 until the
            // second evaluation).
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

    /// Closes the pruning window in progress if it pruned anything — call
    /// once after the training loop, with the pruner's current savings.
    pub fn finish(&mut self, expected_savings: f64) {
        self.prev_was_subset = false;
        if self.window.kept > 0 {
            self.close_window(expected_savings);
        }
    }

    /// Closes the stage in progress: emits its `prune.efficacy` event (with
    /// telemetry on) and resets the stage accumulator.
    fn close_window(&mut self, expected_savings: f64) {
        let w = std::mem::take(&mut self.window);
        let recall = if w.kept > 0 {
            w.overlap as f64 / w.kept as f64
        } else {
            0.0
        };
        if qoc_telemetry::enabled() {
            // Fraction of gradient evaluations this stage skipped, the
            // empirical counterpart of the paper's r·w_p/(w_a+w_p).
            let n = self.params.len() as u64;
            let measured_savings = if w.steps > 0 {
                1.0 - w.evaluated_sum as f64 / (n * w.steps) as f64
            } else {
                0.0
            };
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
                stage_steps = w.steps,
                recall = recall,
                overlap = w.overlap,
                kept = w.kept,
                saved_runs = w.saved_runs,
                wasted_runs = w.wasted_runs,
                measured_savings = measured_savings,
                expected_savings = expected_savings,
            );
        }
        self.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_telemetry::sink::CaptureSubscriber;
    use qoc_telemetry::{install_for_test, FieldValue, Level};
    use std::sync::Arc;

    /// The records `capture` took on this test's thread. The subscriber is
    /// global, so a training run in another test on another thread can add
    /// its own `grad.health` records while this test's guard is held.
    fn own_records(capture: &CaptureSubscriber) -> Vec<qoc_telemetry::sink::OwnedRecord> {
        let me = qoc_telemetry::thread_id();
        capture
            .records()
            .into_iter()
            .filter(|r| r.thread == me)
            .collect()
    }

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
        let mut h = GradientHealth::new(2, 4);
        // Param 0 alternates sign (+0.4, −0.4, +0.4); param 1 is steady.
        let vars = [0.01, 0.04];
        h.observe_step(0, &Selection::Full, &[0.4, 0.1], &vars, 0.0);
        h.observe_step(1, &Selection::Full, &[-0.4, 0.1], &vars, 0.0);
        h.observe_step(2, &Selection::Full, &[0.4, 0.1], &vars, 0.0);
        h.finish(0.0);
        drop(guard);

        let records = own_records(&capture);
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
        // |g| is constant, so the EMA is exactly 0.4 at any decay.
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
        let mut h = GradientHealth::new(1, 1);
        h.observe_step(0, &Selection::Full, &[0.3], &[0.0], 0.0);
        h.observe_step(1, &Selection::Full, &[0.0], &[0.0], 0.0);
        drop(guard);
        let records = own_records(&capture);
        assert_eq!(f64_of(field(&records[0], "snr")), SNR_CAP);
        assert_eq!(f64_of(field(&records[1], "snr")), 0.0);
    }

    #[test]
    fn efficacy_reports_recall_and_savings_per_window() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let b = 4usize;
        let mut h = GradientHealth::new(4, b);
        // Full step seeds EMAs: params 2 and 3 dominate.
        h.observe_step(
            0,
            &Selection::Full,
            &[0.01, 0.02, 0.5, 0.6],
            &[0.0; 4],
            0.25,
        );
        // Pruned step keeps {2, 3} — perfect recall of the top-2.
        h.observe_step(
            1,
            &Selection::Subset(vec![2, 3]),
            &[0.0, 0.0, 0.5, 0.6],
            &[0.0; 4],
            0.25,
        );
        // Pruned step keeps {0, 2} — half recall (param 0 is noise).
        h.observe_step(
            2,
            &Selection::Subset(vec![0, 2]),
            &[0.02, 0.0, 0.5, 0.0],
            &[0.0; 4],
            0.25,
        );
        // Next Full step closes the window.
        h.observe_step(
            3,
            &Selection::Full,
            &[0.01, 0.02, 0.5, 0.6],
            &[0.0; 4],
            0.25,
        );
        h.finish(0.25);
        drop(guard);

        let records = own_records(&capture);
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
        assert_eq!(h.windows, 1);
    }

    #[test]
    fn finish_flushes_an_open_window() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        let mut h = GradientHealth::new(2, 1);
        h.observe_step(0, &Selection::Full, &[0.3, 0.1], &[0.0; 2], 0.5);
        h.observe_step(1, &Selection::Subset(vec![0]), &[0.3, 0.0], &[0.0; 2], 0.5);
        // The run ends mid-window; finish() must still report it.
        h.finish(0.5);
        drop(guard);
        let count = own_records(&capture)
            .iter()
            .filter(|r| r.span == "prune.efficacy")
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn top_k_by_ema_ranks_after_updates() {
        let mut h = GradientHealth::new(3, 1);
        h.observe_step(0, &Selection::Full, &[0.9, 0.1, 0.5], &[0.0; 3], 0.0);
        assert_eq!(h.top_k_by_ema(2), vec![0, 2]);
        assert_eq!(h.top_k_by_ema(1), vec![0]);
    }
}
