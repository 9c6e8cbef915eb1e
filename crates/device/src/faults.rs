//! Deterministic fault injection for any [`QuantumBackend`].
//!
//! The paper's training runs live on shared IBM queues where jobs fail
//! transiently, time out, stall, and drift between calibrations. This module
//! reproduces that hostility *deterministically*: a [`FaultPlan`] is a pure
//! function from `(plan seed, job seed, attempt)` to a fault decision, so a
//! faulty run is exactly reproducible — independent of worker count,
//! scheduling order, or wall-clock — and a CI soak stage can assert hard
//! invariants about it.
//!
//! Fault taxonomy (see DESIGN.md §8):
//!
//! - **transient** — the attempt fails with [`JobError::Transient`]; a later
//!   attempt of the same job succeeds. Models dropped results/queue hiccups.
//! - **timeout** — the attempt fails with [`JobError::Timeout`]. Retryable.
//! - **fatal** — every attempt of the job fails ([`JobError::Fatal`]);
//!   retries cannot save it. Models rejected circuits / lost devices.
//! - **slow** — the job succeeds but its attempt sleeps for
//!   [`FaultPlan::slow_delay`] first (a latency spike; zero delay makes it a
//!   pure marker counted in metrics).
//! - **drift** — a calibration-drift episode: the job succeeds but its
//!   expectation values are damped toward zero (distributions toward
//!   uniform) by [`FaultPlan::drift_damping`].
//!
//! A job's failure count is bounded by [`FaultPlan::max_failures_per_job`],
//! so with `permanent_rate == 0` every fault is recoverable by a policy with
//! `max_attempts > max_failures_per_job` — and because a retry reruns the
//! identical job (same shot budget, same seed), the recovered batch is
//! bit-identical to a fault-free one (property-tested in
//! `crates/core/tests/properties.rs`).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use qoc_telemetry::env::EnvError;
use qoc_telemetry::metrics::{Counter, Registry};

use crate::backend::QuantumBackend;
use crate::backend::{job_seed, CircuitJob, ExecutionStats, JobKind, PreparedCircuit};
use crate::retry::{JobError, JobResult, RetryPolicy};

/// Declarative, seed-driven fault schedule for a [`FaultInjectingBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule; independent of all job seeds.
    pub seed: u64,
    /// Fraction of jobs that fail transiently at least once.
    pub transient_rate: f64,
    /// Fraction of jobs whose injected failures present as timeouts.
    pub timeout_rate: f64,
    /// Fraction of jobs that are unrecoverably broken.
    pub permanent_rate: f64,
    /// Fraction of jobs hit by a latency spike.
    pub slow_rate: f64,
    /// Extra latency added to slow jobs (zero = marker only).
    pub slow_delay: Duration,
    /// Fraction of jobs executed inside a calibration-drift episode.
    pub drift_rate: f64,
    /// Damping applied during drift: expectations shrink by this fraction,
    /// distributions mix toward uniform by it. In `[0, 1]`.
    pub drift_damping: f64,
    /// Upper bound (≥ 1) on consecutive failed attempts of one faulty job;
    /// a policy with `max_attempts > max_failures_per_job` recovers every
    /// non-permanent fault.
    pub max_failures_per_job: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults at all — the wrapper becomes a transparent decorator.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            permanent_rate: 0.0,
            slow_rate: 0.0,
            slow_delay: Duration::ZERO,
            drift_rate: 0.0,
            drift_damping: 0.0,
            max_failures_per_job: 1,
        }
    }

    /// The CI fault-soak preset: ≥ 10% transient failures plus timeouts,
    /// latency-spike markers, and mild drift episodes — everything
    /// recoverable (`permanent_rate == 0`, at most 2 failures per job).
    pub fn aggressive(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.12,
            timeout_rate: 0.06,
            permanent_rate: 0.0,
            slow_rate: 0.05,
            slow_delay: Duration::ZERO,
            drift_rate: 0.10,
            drift_damping: 0.02,
            max_failures_per_job: 2,
        }
    }

    /// Whether `policy` is guaranteed to recover every fault this plan can
    /// inject (no permanent faults, and enough attempts to outlast the
    /// per-job failure cap).
    pub fn recoverable_under(&self, policy: &RetryPolicy) -> bool {
        self.permanent_rate == 0.0 && policy.max_attempts > self.max_failures_per_job
    }

    /// Parses a `QOC_FAULT_PLAN`-style spec: comma-separated `key=value`
    /// pairs. Keys: `seed`, `transient`, `timeout`, `permanent`, `slow`,
    /// `slow_ms`, `drift`, `damping`, `max_failures`. Unset keys keep
    /// [`FaultPlan::none`] defaults. Example:
    /// `"transient=0.12,timeout=0.05,seed=7,max_failures=2"`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("fault plan `{key}`: `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault plan `{key}`: {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault plan `seed`: `{value}` is not a u64"))?;
                }
                "transient" => plan.transient_rate = rate(value)?,
                "timeout" => plan.timeout_rate = rate(value)?,
                "permanent" => plan.permanent_rate = rate(value)?,
                "slow" => plan.slow_rate = rate(value)?,
                "drift" => plan.drift_rate = rate(value)?,
                "damping" => plan.drift_damping = rate(value)?,
                "slow_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("fault plan `slow_ms`: `{value}` is not a u64"))?;
                    plan.slow_delay = Duration::from_millis(ms);
                }
                "max_failures" => {
                    let n: u32 = value.parse().map_err(|_| {
                        format!("fault plan `max_failures`: `{value}` is not a u32")
                    })?;
                    if n == 0 {
                        return Err("fault plan `max_failures` must be ≥ 1".into());
                    }
                    plan.max_failures_per_job = n;
                }
                other => return Err(format!("fault plan: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Reads `QOC_FAULT_PLAN` from the environment: `None` when unset, an
    /// [`EnvError`] when set but malformed (a typo'd plan silently ignored
    /// would void a soak run).
    pub fn from_env() -> Result<Option<Self>, EnvError> {
        let spec = qoc_telemetry::env::spec("QOC_FAULT_PLAN");
        let parse =
            |s: String| FaultPlan::parse(&s).map_err(|e| EnvError::new("QOC_FAULT_PLAN", &s, e));
        spec.map(parse).transpose()
    }

    /// Uniform draw in `[0, 1)` as a pure function of this plan, a job seed,
    /// and a salt — the entire source of fault randomness.
    fn unit(&self, seed: u64, salt: u64) -> f64 {
        job_seed(self.seed ^ seed.rotate_left(17), salt) as f64 / (u64::MAX as f64 + 1.0)
    }

    /// The complete, deterministic fault schedule for one job.
    fn schedule(&self, seed: u64) -> JobFaults {
        const SALT_PERMANENT: u64 = 0xFA_0001;
        const SALT_TRANSIENT: u64 = 0xFA_0002;
        const SALT_TIMEOUT: u64 = 0xFA_0003;
        const SALT_COUNT: u64 = 0xFA_0004;
        const SALT_SLOW: u64 = 0xFA_0005;
        const SALT_DRIFT: u64 = 0xFA_0006;

        let permanent = self.unit(seed, SALT_PERMANENT) < self.permanent_rate;
        let transient = self.unit(seed, SALT_TRANSIENT) < self.transient_rate;
        let timeout = self.unit(seed, SALT_TIMEOUT) < self.timeout_rate;
        let failures = if permanent {
            u32::MAX
        } else if transient || timeout {
            1 + (job_seed(self.seed ^ seed, SALT_COUNT) % u64::from(self.max_failures_per_job))
                as u32
        } else {
            0
        };
        JobFaults {
            failures,
            permanent,
            timeout_first: timeout,
            slow: self.unit(seed, SALT_SLOW) < self.slow_rate,
            drift: self.unit(seed, SALT_DRIFT) < self.drift_rate,
        }
    }
}

/// Resolved fault schedule for one job seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobFaults {
    /// Number of leading attempts that fail (`u32::MAX` = all of them).
    failures: u32,
    /// Whether the failures are fatal.
    permanent: bool,
    /// Whether the first injected failure presents as a timeout.
    timeout_first: bool,
    /// Latency spike on the successful attempt.
    slow: bool,
    /// Calibration-drift episode.
    drift: bool,
}

/// Injection counters (`qoc.faults.*`), process-cumulative like the other
/// registry metrics — they appear in every run manifest's metrics snapshot.
struct FaultMetrics {
    transient: Arc<Counter>,
    timeout: Arc<Counter>,
    fatal: Arc<Counter>,
    slow: Arc<Counter>,
    drift: Arc<Counter>,
}

fn fault_metrics() -> &'static FaultMetrics {
    static METRICS: OnceLock<FaultMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        FaultMetrics {
            transient: reg.counter("qoc.faults.injected_transient"),
            timeout: reg.counter("qoc.faults.injected_timeout"),
            fatal: reg.counter("qoc.faults.injected_fatal"),
            slow: reg.counter("qoc.faults.injected_slow"),
            drift: reg.counter("qoc.faults.injected_drift"),
        }
    })
}

/// Decorates any backend with deterministic fault injection.
///
/// Only the fallible batch path ([`QuantumBackend::try_run_job`], hence
/// `run_batch`/`run_batch_workers`) is injected; a direct
/// [`QuantumBackend::run_job`] passes straight through.
#[derive(Debug)]
pub struct FaultInjectingBackend<B> {
    inner: B,
    plan: FaultPlan,
    name: String,
    policy: Option<RetryPolicy>,
}

impl<B: QuantumBackend> FaultInjectingBackend<B> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        assert!(
            plan.max_failures_per_job >= 1,
            "max_failures_per_job must be ≥ 1"
        );
        let name = format!("faulty({})", inner.name());
        FaultInjectingBackend {
            inner,
            plan,
            name,
            policy: None,
        }
    }

    /// Overrides the retry policy the batch runner applies on this backend
    /// (default: [`RetryPolicy::from_env`]).
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn apply_drift(&self, kind: JobKind, values: &mut [f64]) {
        let d = self.plan.drift_damping;
        match kind {
            // Expectations shrink toward 0, like decohering calibration.
            JobKind::ExpectationZ => {
                for v in values.iter_mut() {
                    *v *= 1.0 - d;
                }
            }
            // Distributions mix toward uniform — stays normalized.
            JobKind::OutcomeDistribution => {
                let uniform = 1.0 / values.len() as f64;
                for v in values.iter_mut() {
                    *v = (1.0 - d) * *v + d * uniform;
                }
            }
        }
    }
}

impl<B: QuantumBackend> QuantumBackend for FaultInjectingBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn prepare(&self, circuit: &qoc_sim::circuit::Circuit) -> PreparedCircuit {
        self.inner.prepare(circuit)
    }

    fn run_job(&self, job: &CircuitJob<'_>) -> Vec<f64> {
        self.inner.run_job(job)
    }

    fn try_run_job(&self, job: &CircuitJob<'_>, attempt: u32) -> JobResult {
        let faults = self.plan.schedule(job.seed);
        let metrics = fault_metrics();
        if faults.permanent {
            metrics.fatal.inc();
            return Err(JobError::Fatal {
                message: format!("injected permanent fault (seed {:#018x})", job.seed),
            });
        }
        if attempt < faults.failures {
            if faults.timeout_first && attempt == 0 {
                metrics.timeout.inc();
                return Err(JobError::Timeout {
                    waited_ms: self.plan.slow_delay.as_millis() as u64,
                });
            }
            metrics.transient.inc();
            return Err(JobError::Transient {
                message: format!("injected transient fault (attempt {attempt})"),
            });
        }
        if faults.slow {
            metrics.slow.inc();
            if !self.plan.slow_delay.is_zero() {
                std::thread::sleep(self.plan.slow_delay);
            }
        }
        let mut values = self.inner.try_run_job(job, attempt)?;
        if faults.drift && self.plan.drift_damping > 0.0 {
            metrics.drift.inc();
            self.apply_drift(job.kind, &mut values);
        }
        Ok(values)
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.policy.clone().unwrap_or_else(RetryPolicy::from_env)
    }

    fn stats(&self) -> ExecutionStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Execution, NoiselessBackend};
    use qoc_sim::circuit::{Circuit, ParamValue};

    fn two_qubit_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        c
    }

    fn faulty_plan() -> FaultPlan {
        FaultPlan {
            seed: 11,
            transient_rate: 0.5,
            timeout_rate: 0.2,
            drift_rate: 0.3,
            drift_damping: 0.1,
            max_failures_per_job: 2,
            ..FaultPlan::none()
        }
    }

    fn quick_policy() -> RetryPolicy {
        RetryPolicy { max_attempts: 4 }
    }

    #[test]
    fn fault_schedule_is_deterministic_and_order_independent() {
        let plan = FaultPlan::aggressive(3);
        for seed in 0..200u64 {
            assert_eq!(plan.schedule(seed), plan.schedule(seed));
        }
        // Rates roughly honored over many seeds.
        let faulty = (0..2000u64)
            .filter(|&s| plan.schedule(s).failures > 0)
            .count();
        let expected = 2000.0 * (plan.transient_rate + plan.timeout_rate);
        assert!(
            (faulty as f64) > expected * 0.5 && (faulty as f64) < expected * 1.8,
            "fault incidence {faulty} vs expected ≈ {expected}"
        );
    }

    #[test]
    fn recoverable_plans_always_succeed_within_the_attempt_budget() {
        let plan = FaultPlan::aggressive(5);
        let policy = RetryPolicy {
            max_attempts: plan.max_failures_per_job + 1,
        };
        assert!(plan.recoverable_under(&policy));
        for seed in 0..500u64 {
            let f = plan.schedule(seed);
            assert!(f.failures <= plan.max_failures_per_job);
        }
        let fatal = FaultPlan {
            permanent_rate: 0.1,
            ..plan
        };
        assert!(!fatal.recoverable_under(&policy));
    }

    #[test]
    fn injected_batches_recover_bit_identically() {
        let circuit = two_qubit_circuit();
        let backend = FaultInjectingBackend::new(NoiselessBackend::new(), faulty_plan())
            .with_retry_policy(quick_policy());
        let prepared = backend.prepare(&circuit);
        let jobs: Vec<CircuitJob<'_>> = (0..40)
            .map(|i| {
                CircuitJob::expectation(
                    &prepared,
                    vec![0.1 * i as f64, -0.2],
                    Execution::Shots(64),
                    job_seed(9, i),
                )
            })
            .collect();
        let faulty = backend.run_batch_workers(&jobs, 4).expect("recoverable");

        // Drift *does* perturb results by design, so the reference is the
        // same plan with the failure rates zeroed — identical drift episodes,
        // no retries. Equality proves retries reuse the original job seed.
        let drift_only = FaultInjectingBackend::new(
            NoiselessBackend::new(),
            FaultPlan {
                transient_rate: 0.0,
                timeout_rate: 0.0,
                ..faulty_plan()
            },
        );
        let prepared2 = drift_only.prepare(&circuit);
        let jobs2: Vec<CircuitJob<'_>> = jobs
            .iter()
            .map(|j| CircuitJob::expectation(&prepared2, j.theta.clone(), j.execution, j.seed))
            .collect();
        let reference = drift_only.run_batch_workers(&jobs2, 1).expect("no faults");
        assert_eq!(faulty, reference, "retries must not perturb results");
    }

    #[test]
    fn permanent_faults_surface_as_batch_errors() {
        let plan = FaultPlan {
            permanent_rate: 1.0,
            ..faulty_plan()
        };
        let backend = FaultInjectingBackend::new(NoiselessBackend::new(), plan)
            .with_retry_policy(RetryPolicy::no_retry());
        let prepared = backend.prepare(&two_qubit_circuit());
        let jobs = [CircuitJob::expectation(
            &prepared,
            vec![0.3, 0.4],
            Execution::Exact,
            77,
        )];
        let err = backend.run_batch_workers(&jobs, 1).unwrap_err();
        assert_eq!(err.job_index, 0);
        assert_eq!(err.attempts, 1);
        assert!(!err.error.is_retryable());
    }

    #[test]
    fn fault_plan_parsing_round_trips_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("transient=0.12, timeout=0.05, seed=7, max_failures=2, slow_ms=3")
                .unwrap();
        assert_eq!(plan.transient_rate, 0.12);
        assert_eq!(plan.timeout_rate, 0.05);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.max_failures_per_job, 2);
        assert_eq!(plan.slow_delay, Duration::from_millis(3));
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert!(FaultPlan::parse("transient=2.0").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("max_failures=0").is_err());
        assert!(FaultPlan::parse("transient").is_err());
    }

    #[test]
    fn drift_damps_expectations_and_keeps_distributions_normalized() {
        let plan = FaultPlan {
            drift_rate: 1.0,
            drift_damping: 0.25,
            ..FaultPlan::none()
        };
        let backend = FaultInjectingBackend::new(NoiselessBackend::new(), plan);
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        let prepared = backend.prepare(&c);
        let job = CircuitJob::expectation(&prepared, vec![0.9], Execution::Exact, 1);
        let drifted = backend.try_run_job(&job, 0).unwrap();
        let clean = backend.inner().try_run_job(&job, 0).unwrap();
        for (d, c) in drifted.iter().zip(&clean) {
            assert!((d - c * 0.75).abs() < 1e-12);
        }
        let dist_job = CircuitJob::distribution(&prepared, vec![0.9], Execution::Exact, 1);
        let dist = backend.try_run_job(&dist_job, 0).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
