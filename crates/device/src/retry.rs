//! Typed job failures and the per-job retry/backoff policy.
//!
//! Real hardware jobs fail: queues drop them, calibrations drift, sessions
//! time out. [`JobError`] is the typed failure a backend can return from
//! [`crate::backend::QuantumBackend::try_run_job`], and [`RetryPolicy`]
//! decides what the batch runner does about it — how many attempts, how long
//! to back off between them (exponential, with deterministic jitter derived
//! from the job's own seed so replays wait the same amount), and an optional
//! graceful-degradation step that halves the shot budget once a job keeps
//! failing.
//!
//! Bit-identity invariant: **retries reuse the original job seed**. A job
//! that succeeds on attempt 3 returns exactly the bytes it would have
//! returned on attempt 1, so fault injection plus retries cannot perturb a
//! training trajectory (property-tested in `crates/core/tests/properties.rs`).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use qoc_telemetry::metrics::{Counter, Histogram, Registry};

use crate::backend::{job_seed, CircuitJob, Execution};

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

/// Per-job retry/backoff/degradation policy applied inside the batch
/// worker loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry thereafter.
    pub base_backoff: Duration,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff wait.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]` derived from the job seed and
    /// attempt number, decorrelating workers without nondeterminism.
    pub jitter: f64,
    /// After this many failed attempts, degrade gracefully: halve the shot
    /// budget (never below [`RetryPolicy::min_shots`]) instead of retrying
    /// the job unchanged. `None` disables degradation.
    pub degrade_after: Option<u32>,
    /// Shot floor for degradation.
    pub min_shots: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1 + DEFAULT_MAX_RETRIES,
            base_backoff: Duration::from_millis(1),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(100),
            jitter: 0.5,
            degrade_after: Some(3),
            min_shots: 128,
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
        RetryPolicy {
            max_attempts: 1,
            degrade_after: None,
            ..RetryPolicy::default()
        }
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

    /// Backoff disabled (zero waits) — retries are immediate. Keeps tests
    /// and property checks fast without changing retry *semantics*.
    #[must_use]
    pub fn without_backoff(mut self) -> Self {
        self.base_backoff = Duration::ZERO;
        self.max_backoff = Duration::ZERO;
        self
    }

    /// Deterministic wait before retry number `attempt` (1-based: the wait
    /// inserted after the `attempt`-th failed try) of the job with seed
    /// `seed`: exponential in `attempt`, capped, and jittered by a pure
    /// function of `(seed, attempt)`.
    pub fn backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        let mut nanos = self.base_backoff.as_nanos() as f64 * exp;
        if self.jitter > 0.0 {
            // Uniform in [0, 1) from a SplitMix64 finalizer over the pair.
            let u =
                job_seed(seed, 0xBACC_0FF0 ^ u64::from(attempt)) as f64 / (u64::MAX as f64 + 1.0);
            nanos *= 1.0 - self.jitter + 2.0 * self.jitter * u;
        }
        let capped = nanos.min(self.max_backoff.as_nanos() as f64).max(0.0);
        Duration::from_nanos(capped as u64)
    }

    /// The execution spec for a given (0-based) attempt: past the
    /// degradation threshold the shot budget halves once per extra failed
    /// attempt, floored at [`RetryPolicy::min_shots`]. Exact jobs never
    /// degrade. The job *seed* is never touched.
    pub fn execution_for_attempt(&self, original: Execution, attempt: u32) -> Execution {
        let (Some(after), Execution::Shots(shots)) = (self.degrade_after, original) else {
            return original;
        };
        if attempt < after {
            return original;
        }
        let halvings = attempt - after + 1;
        let degraded = (shots >> halvings.min(31)).max(self.min_shots.max(1));
        Execution::Shots(degraded.min(shots))
    }
}

/// Retry/degradation metrics, mirrored into the global registry (and thus
/// into run manifests): `qoc.device.retries`, `qoc.device.gave_up`,
/// `qoc.device.degraded_jobs`, `qoc.device.requested_shots`, and the
/// `qoc.device.backoff_wait_ns` histogram.
pub(crate) struct RetryMetrics {
    pub(crate) retries: Arc<Counter>,
    pub(crate) gave_up: Arc<Counter>,
    pub(crate) preempted: Arc<Counter>,
    pub(crate) degraded: Arc<Counter>,
    /// Shots *requested* per job before any retry degradation. Compared
    /// against `qoc.device.total_shots` (shots actually executed) this
    /// splits the shot ledger into requested-vs-executed.
    pub(crate) requested_shots: Arc<Counter>,
    pub(crate) backoff_wait_ns: Arc<Histogram>,
}

pub(crate) fn retry_metrics() -> &'static RetryMetrics {
    static METRICS: OnceLock<RetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        RetryMetrics {
            retries: reg.counter("qoc.device.retries"),
            gave_up: reg.counter("qoc.device.gave_up"),
            preempted: reg.counter("qoc.device.preempted_jobs"),
            degraded: reg.counter("qoc.device.degraded_jobs"),
            requested_shots: reg.counter("qoc.device.requested_shots"),
            // Backoff waits: 1µs .. ~4s in powers of 4.
            backoff_wait_ns: reg.histogram(
                "qoc.device.backoff_wait_ns",
                &Histogram::exponential_bounds(1_000, 4, 11),
            ),
        }
    })
}

/// Runs one job to completion under `policy`, calling `run(attempt, job)`
/// for each attempt. Shared by the serial and threaded paths of
/// `run_batch_workers`.
///
/// The job's `seed` is identical on every attempt; only the shot budget may
/// shrink once degradation kicks in. Returns the job's output or the last
/// error with the attempt count consumed.
pub(crate) fn run_job_with_retry<F>(
    job: &CircuitJob<'_>,
    policy: &RetryPolicy,
    mut run: F,
) -> Result<Vec<f64>, (u32, JobError)>
where
    F: FnMut(u32, &CircuitJob<'_>) -> JobResult,
{
    let metrics = retry_metrics();
    if let Execution::Shots(shots) = job.execution {
        metrics.requested_shots.add(u64::from(shots));
    }
    let mut attempt: u32 = 0;
    loop {
        let degraded_execution = policy.execution_for_attempt(job.execution, attempt);
        let outcome = if degraded_execution == job.execution {
            run(attempt, job)
        } else {
            let mut degraded = job.clone();
            degraded.execution = degraded_execution;
            run(attempt, &degraded)
        };
        match outcome {
            Ok(result) => {
                if degraded_execution != job.execution {
                    metrics.degraded.inc();
                    qoc_telemetry::event!(
                        qoc_telemetry::Level::Warn,
                        "device.job_degraded",
                        seed = job.seed,
                        attempt = u64::from(attempt),
                    );
                }
                return Ok(result);
            }
            Err(error) => {
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
                let wait = policy.backoff_delay(attempt, job.seed);
                metrics.backoff_wait_ns.record(wait.as_nanos() as u64);
                qoc_telemetry::event!(
                    qoc_telemetry::Level::Warn,
                    "device.job_retry",
                    seed = job.seed,
                    attempt = u64::from(attempt),
                    error = error.kind(),
                    backoff_ns = wait.as_nanos() as u64,
                );
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoiselessBackend, QuantumBackend};
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
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(20),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_delay(1, 7), Duration::from_millis(2));
        assert_eq!(policy.backoff_delay(2, 7), Duration::from_millis(4));
        assert_eq!(policy.backoff_delay(3, 7), Duration::from_millis(8));
        // Capped.
        assert_eq!(policy.backoff_delay(10, 7), Duration::from_millis(20));
        // Jitter is a pure function of (seed, attempt) and stays in band.
        let jittered = RetryPolicy {
            jitter: 0.5,
            ..policy.clone()
        };
        for attempt in 1..4 {
            let a = jittered.backoff_delay(attempt, 99);
            let b = jittered.backoff_delay(attempt, 99);
            assert_eq!(a, b);
            let base = policy.backoff_delay(attempt, 99).as_nanos() as f64;
            let got = a.as_nanos() as f64;
            assert!(got >= base * 0.5 - 1.0 && got <= base * 1.5 + 1.0);
        }
        // Different seeds decorrelate.
        assert_ne!(jittered.backoff_delay(1, 1), jittered.backoff_delay(1, 2));
    }

    #[test]
    fn degradation_halves_shots_down_to_the_floor() {
        let policy = RetryPolicy {
            degrade_after: Some(2),
            min_shots: 100,
            ..RetryPolicy::default()
        };
        let original = Execution::Shots(1024);
        assert_eq!(policy.execution_for_attempt(original, 0), original);
        assert_eq!(policy.execution_for_attempt(original, 1), original);
        assert_eq!(
            policy.execution_for_attempt(original, 2),
            Execution::Shots(512)
        );
        assert_eq!(
            policy.execution_for_attempt(original, 3),
            Execution::Shots(256)
        );
        assert_eq!(
            policy.execution_for_attempt(original, 5),
            Execution::Shots(100)
        );
        // Exact jobs never degrade; disabled policies never degrade.
        assert_eq!(
            policy.execution_for_attempt(Execution::Exact, 5),
            Execution::Exact
        );
        let off = RetryPolicy {
            degrade_after: None,
            ..policy
        };
        assert_eq!(off.execution_for_attempt(original, 5), original);
    }

    #[test]
    fn retry_loop_reuses_the_original_seed_and_counts_attempts() {
        let (backend, prepared) = job_fixture();
        let job = CircuitJob::expectation(&prepared, vec![0.3, 0.7], Execution::Shots(64), 42);
        let clean = backend.run_job(&job);

        let policy = RetryPolicy {
            max_attempts: 5,
            degrade_after: None,
            ..RetryPolicy::default()
        }
        .without_backoff();
        let mut seeds_seen = Vec::new();
        let out = run_job_with_retry(&job, &policy, |attempt, j| {
            seeds_seen.push(j.seed);
            if attempt < 3 {
                Err(JobError::Transient {
                    message: "injected".into(),
                })
            } else {
                Ok(backend.run_job(j))
            }
        })
        .expect("recovers on attempt 3");
        assert_eq!(out, clean, "retried job must return the attempt-1 bytes");
        assert_eq!(seeds_seen, vec![42; 4], "every attempt reuses the seed");
    }

    #[test]
    fn retry_loop_gives_up_after_max_attempts_and_on_fatal() {
        let (backend, prepared) = job_fixture();
        let _ = &backend;
        let job = CircuitJob::expectation(&prepared, vec![0.0, 0.0], Execution::Exact, 7);
        let policy = RetryPolicy {
            max_attempts: 3,
            degrade_after: None,
            ..RetryPolicy::default()
        }
        .without_backoff();
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
