//! Cooperative preemption as a backend wrapper.
//!
//! [`PreemptableBackend`] forwards every [`QuantumBackend`] method to the
//! leased device, except that each *job attempt* first checks a shared
//! preemption flag. When the flag is set, the attempt returns
//! [`JobError::Preempted`] — not retryable, and counted by the retry
//! machinery as a preemption instead of a give-up — so the batch aborts,
//! the engine writes its emergency checkpoint (the pre-step snapshot it
//! keeps for exactly this purpose), and the server requeues the job to
//! resume later. Because retries always reuse the original job seed and
//! resumed runs replay from a pre-step snapshot, the combined
//! checkpoint-resume result is bit-identical to an uninterrupted run.
//!
//! The check sits on [`QuantumBackend::try_run_job`] — the fallible unit
//! the batch runner's retry loop drives — and on
//! [`QuantumBackend::run_jacobian_batch`], which declines while the flag is
//! set so the request falls back to shifted jobs that then report
//! [`JobError::Preempted`]. Preemption latency is therefore one circuit
//! job, or one example on backends that answer the hook (a fake device
//! runs a whole example's shifted circuits and its forward run inside it,
//! so the flag is seen at the next example's offer).

use std::sync::atomic::{AtomicBool, Ordering};

use qoc_device::backend::{
    CircuitJob, ExecutionStats, JacobianBatch, PreparedCircuit, QuantumBackend,
};
use qoc_device::retry::{JobError, JobResult, RetryPolicy};
use qoc_sim::circuit::Circuit;

/// A [`QuantumBackend`] lease that can be yanked between circuit jobs.
pub struct PreemptableBackend<'a> {
    inner: &'a dyn QuantumBackend,
    flag: &'a AtomicBool,
}

impl std::fmt::Debug for PreemptableBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreemptableBackend")
            .field("inner", &self.inner.name())
            .field("preempt", &self.flag.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> PreemptableBackend<'a> {
    /// Wraps `inner`; attempts fail with [`JobError::Preempted`] while
    /// `flag` is set.
    pub fn new(inner: &'a dyn QuantumBackend, flag: &'a AtomicBool) -> Self {
        PreemptableBackend { inner, flag }
    }
}

impl QuantumBackend for PreemptableBackend<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn prepare(&self, circuit: &Circuit) -> PreparedCircuit {
        self.inner.prepare(circuit)
    }

    fn run_job(&self, job: &CircuitJob<'_>) -> Vec<f64> {
        self.inner.run_job(job)
    }

    fn try_run_job(&self, job: &CircuitJob<'_>, attempt: u32) -> JobResult {
        if self.flag.load(Ordering::Acquire) {
            return Err(JobError::Preempted {
                reason: "scheduler preemption requested".to_string(),
            });
        }
        self.inner.try_run_job(job, attempt)
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry_policy()
    }

    fn run_jacobian_batch(&self, batch: &JacobianBatch<'_>) -> Option<Vec<Vec<f64>>> {
        if self.flag.load(Ordering::Acquire) {
            return None;
        }
        self.inner.run_jacobian_batch(batch)
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
    use qoc_core::shift::ParameterShiftEngine;
    use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend};
    use qoc_device::backends::fake_lima;
    use qoc_sim::circuit::ParamValue;

    #[test]
    fn flag_turns_attempts_into_preemptions() {
        let inner = NoiselessBackend::new();
        let flag = AtomicBool::new(false);
        let backend = PreemptableBackend::new(&inner, &flag);

        let mut circuit = Circuit::new(1);
        circuit.rx(0, 0.3);
        let prepared = backend.prepare(&circuit);
        let job = CircuitJob {
            prepared: &prepared,
            theta: vec![],
            execution: Execution::Exact,
            seed: 7,
            kind: qoc_device::backend::JobKind::ExpectationZ,
        };
        assert!(backend.try_run_job(&job, 0).is_ok());

        flag.store(true, Ordering::Release);
        let err = backend.try_run_job(&job, 0).unwrap_err();
        assert!(err.is_preemption());
        assert!(!err.is_retryable());

        flag.store(false, Ordering::Release);
        assert!(backend.try_run_job(&job, 0).is_ok());
    }

    #[test]
    fn flagged_jacobians_on_a_fake_device_report_preemption() {
        // The fake device answers the Jacobian hook itself; with the flag
        // set the wrapper declines it, so the shifted jobs run and preempt.
        let inner = FakeDevice::new(fake_lima());
        let flag = AtomicBool::new(false);
        let backend = PreemptableBackend::new(&inner, &flag);
        let mut circuit = Circuit::new(2);
        circuit.ry(0, ParamValue::sym(0));
        circuit.rzz(0, 1, ParamValue::sym(1));
        let engine = ParameterShiftEngine::new(&backend, &circuit, 2, Execution::Shots(64));
        assert!(engine.try_jacobian(&[0.3, 0.4], 1).is_ok());

        flag.store(true, Ordering::Release);
        let err = engine.try_jacobian(&[0.3, 0.4], 1).unwrap_err();
        assert!(err.error.is_preemption(), "{err}");
    }
}
