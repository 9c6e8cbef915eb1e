//! CI fault-soak: trains the paper's PGP setup on a backend wrapped in an
//! aggressive (but fully recoverable) [`FaultPlan`] and asserts the run
//! rides out every injected failure — it must complete with zero panics,
//! the loss must still fall, every retry must be accounted for in the
//! metrics registry, and no job may be given up on.
//!
//! Usage: `fault_soak`. The plan defaults to [`FaultPlan::aggressive`]
//! (12 % transient + 6 % timeout + latency spikes + mild drift) and can be
//! overridden with `QOC_FAULT_PLAN`; the retry budget honours
//! `QOC_MAX_RETRIES`. When `QOC_TRACE_FILE` is set (as in CI) the run
//! manifest written next to the trace is checked for the retry counters.
//!
//! Exit codes: **0** the soak held, **1** any invariant broke.

use std::process::ExitCode;

use serde::Value;

use qoc_core::engine::{train_anchored, RunAnchor, TrainConfig};
use qoc_data::tasks::Task;
use qoc_device::backend::NoiselessBackend;
use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
use qoc_device::retry::RetryPolicy;
use qoc_nn::model::QnnModel;
use qoc_telemetry::metrics::Registry;

const SOAK_SEED: u64 = 2026;
const STEPS: usize = 8;

fn fail(msg: &str) -> ExitCode {
    eprintln!("fault_soak: FAILED: {msg}");
    ExitCode::from(1)
}

/// Asserts the manifest written by the traced run carries nonzero retry
/// accounting (so postmortems can see what the device did).
fn check_manifest(trace_file: &std::path::Path) -> Result<u64, String> {
    let path = trace_file.with_extension("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    let manifest =
        serde_json::from_str(&text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
    let counters = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .ok_or("manifest has no metrics.counters")?;
    let retries = counters
        .get("qoc.device.retries")
        .and_then(Value::as_u64)
        .ok_or("manifest is missing the qoc.device.retries counter")?;
    if retries == 0 {
        return Err("manifest records zero retries under an aggressive fault plan".into());
    }
    if counters.get("qoc.device.gave_up").and_then(Value::as_u64) != Some(0) {
        return Err("manifest records abandoned jobs under a recoverable plan".into());
    }
    Ok(retries)
}

fn main() -> ExitCode {
    qoc_bench::init();
    let plan = match FaultPlan::from_env() {
        Ok(plan) => plan.unwrap_or_else(|| FaultPlan::aggressive(SOAK_SEED)),
        Err(e) => return fail(&e.to_string()),
    };
    let policy = RetryPolicy::from_env();
    if plan.transient_rate < 0.10 {
        return fail(&format!(
            "soak plan must inject ≥ 10% transient failures (got {})",
            plan.transient_rate
        ));
    }
    if !plan.recoverable_under(&policy) {
        return fail(&format!(
            "plan is not recoverable under the retry policy (permanent_rate {}, \
             max_failures_per_job {} vs max_attempts {})",
            plan.permanent_rate, plan.max_failures_per_job, policy.max_attempts
        ));
    }
    println!(
        "fault_soak: transient {:.0}% timeout {:.0}% slow {:.0}% drift {:.0}% — {} attempts/job",
        plan.transient_rate * 100.0,
        plan.timeout_rate * 100.0,
        plan.slow_rate * 100.0,
        plan.drift_rate * 100.0,
        policy.max_attempts,
    );

    let model = QnnModel::mnist2();
    let backend =
        FaultInjectingBackend::new(NoiselessBackend::new(), plan.clone()).with_retry_policy(policy);
    let (train_set, val_set) = Task::Mnist2.load(42);
    let mut config = TrainConfig::paper_pgp(STEPS);
    config.batch_size = 4;
    config.eval_every = 3;
    config.eval_examples = 8;

    let result = match train_anchored(
        &model,
        &backend,
        &train_set.take_front(32),
        &val_set,
        &config,
        RunAnchor::default(),
    ) {
        Ok(r) => r,
        Err(e) => return fail(&format!("training aborted under a recoverable plan: {e}")),
    };

    if result.steps.len() != STEPS {
        return fail(&format!(
            "run finished {} of {STEPS} steps",
            result.steps.len()
        ));
    }
    if let Some(step) = result.steps.iter().find(|s| !s.loss.is_finite()) {
        return fail(&format!("non-finite loss at step {}", step.step));
    }
    let head: f64 = result.steps[..2].iter().map(|s| s.loss).sum::<f64>() / 2.0;
    let tail: f64 = result.steps[STEPS - 2..]
        .iter()
        .map(|s| s.loss)
        .sum::<f64>()
        / 2.0;
    if tail >= head {
        return fail(&format!(
            "loss did not fall under faults: first steps {head:.4}, last steps {tail:.4}"
        ));
    }

    let snap = Registry::global().snapshot();
    let retries = snap.counter("qoc.device.retries");
    let gave_up = snap.counter("qoc.device.gave_up");
    if retries == 0 {
        return fail("no retries recorded — the plan injected nothing?");
    }
    if gave_up != 0 {
        return fail(&format!(
            "{gave_up} jobs abandoned under a plan every fault of which is recoverable"
        ));
    }

    match qoc_telemetry::env::path("QOC_TRACE_FILE") {
        Some(trace) => match check_manifest(&trace) {
            Ok(n) => println!("fault_soak: manifest ok ({n} retries persisted)"),
            Err(msg) => return fail(&msg),
        },
        None => println!("fault_soak: QOC_TRACE_FILE unset — manifest check skipped"),
    }

    println!(
        "fault_soak: OK — {STEPS} steps, loss {head:.4} → {tail:.4}, {retries} retries recovered, \
         0 abandoned, best accuracy {:.3}",
        result.best_accuracy
    );
    ExitCode::SUCCESS
}
