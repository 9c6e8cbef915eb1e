//! Typed job failures and the per-job retry policy.
//!
//! Real hardware jobs fail: queues drop them, calibrations drift, sessions
//! time out. [`JobError`] is the typed failure a backend can return from
//! [`crate::backend::QuantumBackend::try_run_job`], and [`RetryPolicy`]
//! decides what the batch runner does about it: how many attempts a job
//! gets. A retryable failure reruns the identical job at once — same
//! circuit, same parameters, same shot budget, same seed.
//!
//! Bit-identity invariant: **a retry reruns the job it was given**. A job
//! that succeeds on attempt 3 returns exactly the bytes it would have
//! returned on attempt 1, so fault injection plus retries cannot perturb a
//! training trajectory (property-tested in `crates/core/tests/properties.rs`).

use std::sync::{Arc, OnceLock};

use qoc_telemetry::metrics::{Counter, Registry};

use crate::backend::CircuitJob;

/// Why a single job attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A transient fault (queue hiccup, dropped result). Retryable.
    Transient {
        /// Human-readable cause.
        message: String,
    },
    /// The attempt exceeded its time budget. Retryable.
    Timeout {
        /// How long the attempt waited before being declared dead, in ms.
        waited_ms: u64,
    },
    /// A permanent backend failure (bad circuit, lost device). Not retryable.
    Fatal {
        /// Human-readable cause.
        message: String,
    },
    /// The job's owner asked for the device back (scheduler preemption).
    /// Not retryable — the run is expected to checkpoint and resume later —
    /// but also *not* a failure: it is counted under
    /// `qoc.device.preempted_jobs`, never `qoc.device.gave_up`.
    Preempted {
        /// Who or what preempted the job (scheduler, drain, operator).
        reason: String,
    },
}

impl JobError {
    /// Whether the retry loop may try this job again.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, JobError::Fatal { .. } | JobError::Preempted { .. })
    }

    /// Whether this is a scheduler preemption rather than a real failure.
    pub fn is_preemption(&self) -> bool {
        matches!(self, JobError::Preempted { .. })
    }

    /// Short machine-friendly tag (`"transient"` / `"timeout"` / `"fatal"`
    /// / `"preempted"`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Transient { .. } => "transient",
            JobError::Timeout { .. } => "timeout",
            JobError::Fatal { .. } => "fatal",
            JobError::Preempted { .. } => "preempted",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Transient { message } => write!(f, "transient job failure: {message}"),
            JobError::Timeout { waited_ms } => {
                write!(f, "job timed out after {waited_ms} ms")
            }
            JobError::Fatal { message } => write!(f, "fatal job failure: {message}"),
            JobError::Preempted { reason } => write!(f, "job preempted: {reason}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A batch failed: one of its jobs exhausted the retry policy (or hit a
/// fatal error). Carries enough context to report *which* job died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the failed job within the submitted batch.
    pub job_index: usize,
    /// The job's RNG seed (stable job identity across retries).
    pub job_seed: u64,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The last error observed.
    pub error: JobError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} (seed {:#018x}) failed after {} attempt(s): {}",
            self.job_index, self.job_seed, self.attempts, self.error
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Result of one job execution under retries.
pub type JobResult = Result<Vec<f64>, JobError>;

/// Result of a batch: all job outputs, or the first (lowest-index) failure.
pub type BatchResult = Result<Vec<Vec<f64>>, BatchError>;

/// Per-job retry policy applied inside the batch worker loop: a failed
/// retryable attempt reruns the identical job at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1 + DEFAULT_MAX_RETRIES,
        }
    }
}

/// Default retry count (attempts after the first) when `QOC_MAX_RETRIES`
/// is unset.
pub const DEFAULT_MAX_RETRIES: u32 = 4;

impl RetryPolicy {
    /// A policy that never retries: every failure is immediately fatal to
    /// the batch.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// The default policy with `QOC_MAX_RETRIES` (retries after the first
    /// attempt; `0` disables retrying) applied from the environment.
    pub fn from_env() -> Self {
        let mut policy = RetryPolicy::default();
        if let Ok(Some(n)) = qoc_telemetry::env::count("QOC_MAX_RETRIES") {
            policy.max_attempts = u32::try_from(n).unwrap_or(u32::MAX).saturating_add(1);
        }
        policy
    }
}

/// Retry metrics, mirrored into the global registry (and thus into run
/// manifests): `qoc.device.retries`, `qoc.device.gave_up` and
/// `qoc.device.preempted_jobs`.
pub(crate) struct RetryMetrics {
    pub(crate) retries: Arc<Counter>,
    pub(crate) gave_up: Arc<Counter>,
    pub(crate) preempted: Arc<Counter>,
}

pub(crate) fn retry_metrics() -> &'static RetryMetrics {
    static METRICS: OnceLock<RetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        RetryMetrics {
            retries: reg.counter("qoc.device.retries"),
            gave_up: reg.counter("qoc.device.gave_up"),
            preempted: reg.counter("qoc.device.preempted_jobs"),
        }
    })
}

/// Runs one job to completion under `policy`, calling `run(attempt, job)`
/// for each attempt. Shared by the serial and threaded paths of
/// `run_batch_workers`.
///
/// Every attempt runs the identical job, seed and shot budget included, so
/// a job that recovers returns the bytes its first attempt would have.
/// Returns the job's output or the last error with the attempt count
/// consumed.
pub(crate) fn run_job_with_retry<F>(
    job: &CircuitJob<'_>,
    policy: &RetryPolicy,
    mut run: F,
) -> Result<Vec<f64>, (u32, JobError)>
where
    F: FnMut(u32, &CircuitJob<'_>) -> JobResult,
{
    let metrics = retry_metrics();
    let mut attempt: u32 = 0;
    loop {
        let error = match run(attempt, job) {
            Ok(result) => return Ok(result),
            Err(error) => error,
        };
        attempt += 1;
        if !error.is_retryable() || attempt >= policy.max_attempts {
            // A preemption is the scheduler reclaiming the device,
            // not the job failing — keep the `gave_up` ledger clean
            // so soak gates on `gave_up == 0` stay meaningful.
            if error.is_preemption() {
                metrics.preempted.inc();
                qoc_telemetry::event!(
                    qoc_telemetry::Level::Info,
                    "device.job_preempted",
                    seed = job.seed,
                    attempts = u64::from(attempt),
                );
            } else {
                metrics.gave_up.inc();
                qoc_telemetry::event!(
                    qoc_telemetry::Level::Error,
                    "device.job_gave_up",
                    seed = job.seed,
                    attempts = u64::from(attempt),
                    error = error.kind(),
                );
            }
            return Err((attempt, error));
        }
        metrics.retries.inc();
        qoc_telemetry::event!(
            qoc_telemetry::Level::Warn,
            "device.job_retry",
            seed = job.seed,
            attempt = u64::from(attempt),
            error = error.kind(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Execution, NoiselessBackend, QuantumBackend};
    use qoc_sim::circuit::{Circuit, ParamValue};

    fn job_fixture() -> (NoiselessBackend, crate::backend::PreparedCircuit) {
        let backend = NoiselessBackend::new();
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        let prepared = backend.prepare(&c);
        (backend, prepared)
    }

    #[test]
    fn retry_loop_reuses_the_original_seed_and_counts_attempts() {
        let (backend, prepared) = job_fixture();
        let job = CircuitJob::expectation(&prepared, vec![0.3, 0.7], Execution::Shots(1024), 42);
        let clean = backend.run_job(&job);

        // The shipped policy, failing on all but its last attempt.
        let policy = RetryPolicy::default();
        let last = policy.max_attempts - 1;
        let mut seen = Vec::new();
        let out = run_job_with_retry(&job, &policy, |attempt, j| {
            seen.push((j.seed, j.execution));
            if attempt < last {
                Err(JobError::Transient {
                    message: "injected".into(),
                })
            } else {
                Ok(backend.run_job(j))
            }
        })
        .expect("recovers on the last attempt");
        assert_eq!(out, clean, "retried job must return the attempt-1 bytes");
        assert_eq!(
            seen,
            vec![(42, Execution::Shots(1024)); policy.max_attempts as usize],
            "every attempt reruns the identical job"
        );
    }

    #[test]
    fn retry_loop_gives_up_after_max_attempts_and_on_fatal() {
        let (backend, prepared) = job_fixture();
        let _ = &backend;
        let job = CircuitJob::expectation(&prepared, vec![0.0, 0.0], Execution::Exact, 7);
        let policy = RetryPolicy { max_attempts: 3 };
        let (attempts, err) = run_job_with_retry(&job, &policy, |_, _| {
            Err(JobError::Transient {
                message: "always".into(),
            })
        })
        .unwrap_err();
        assert_eq!(attempts, 3);
        assert!(err.is_retryable());

        let (attempts, err) = run_job_with_retry(&job, &policy, |_, _| {
            Err(JobError::Fatal {
                message: "broken circuit".into(),
            })
        })
        .unwrap_err();
        assert_eq!(attempts, 1, "fatal errors are not retried");
        assert!(!err.is_retryable());
    }

    #[test]
    fn max_retries_env_shapes_the_policy() {
        // No env manipulation here (tests run threaded); just check wiring.
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1 + DEFAULT_MAX_RETRIES);
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
    }
}
