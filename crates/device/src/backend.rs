//! Execution backends.
//!
//! [`QuantumBackend`] is the boundary the QOC training engine talks to — the
//! same boundary the paper crosses when it submits circuits to IBM machines.
//! Two implementations:
//!
//! - [`NoiselessBackend`] — exact statevector simulation, optionally
//!   shot-sampled ("Classical-Train" in the paper);
//! - [`FakeDevice`] — full hardware emulation: transpile to the native
//!   basis, route on the machine topology, evolve with the calibration's
//!   noise channels, corrupt readout, sample shots, and account wall-clock
//!   via the latency model ("QC-Train").
//!
//! Backends count every circuit execution: the paper's Figure 6 x-axis
//! ("number of inferences") comes from these counters.
//!
//! # One way to run a circuit
//!
//! Every execution is a [`CircuitJob`]: a prepared circuit, a parameter
//! binding, a shot spec, what to return, and the job's own RNG seed.
//! [`QuantumBackend::run_job`] is the one execution method a backend
//! implements; no backend method takes a caller's RNG. Callers that own an
//! RNG (randomized benchmarking, readout calibration) draw each job's seed
//! from it and submit the jobs like everyone else.
//!
//! # Batched execution
//!
//! Real hardware accepts circuits in *batches* (one IBM job holds many bound
//! circuits), and the parameter-shift rule produces exactly such batches:
//! 2·n shifted bindings of one prepared circuit. [`QuantumBackend::run_batch`]
//! fans a job list out over `std::thread::scope` workers under the backend's
//! retry policy. A job's seed is typically derived from a caller-chosen
//! master seed and a stable per-job stream id via [`job_seed`] (a SplitMix64
//! mix), so results are bit-identical regardless of worker count or
//! scheduling order. Backends are `Send + Sync`; stats are atomic counters,
//! with device-seconds accumulated as integer nanoseconds so parallel
//! accumulation stays exact (integer addition commutes; float addition does
//! not).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use qoc_telemetry::metrics::{Counter, Histogram, Registry};
use qoc_telemetry::SpanGuard;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qoc_sim::circuit::Circuit;
use qoc_sim::diff::ShiftRun;
use qoc_sim::fusion::FusedProgram;
use qoc_sim::scratch::with_scratch;
use qoc_sim::statevector::{expectation_z_from_counts, sample_counts, Statevector};

use qoc_noise::model::NoiseModel;
use qoc_noise::sim::{expectations_z_of, NoisyProgram};

use crate::backends::DeviceDescription;
use crate::calibration::DeviceCalibration;
use crate::retry::{run_job_with_retry, BatchError, BatchResult, JobError, JobResult, RetryPolicy};
use crate::schedule;
use crate::topology::CouplingMap;
use crate::transpile::{transpile, TranspileOptions, TranspiledCircuit};

/// How to extract expectation values from a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Execution {
    /// Infinite-shot (exact) expectation values.
    Exact,
    /// Finite-shot sampling, as on hardware. The paper uses 1024 shots.
    /// `Shots(0)` draws nothing and reports all-zero expectations and
    /// distributions.
    Shots(u32),
}

/// The paper's shot setting.
pub const PAPER_SHOTS: u32 = 1024;

/// Cumulative execution accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize)]
pub struct ExecutionStats {
    /// Circuits executed ("inferences" in the paper's Figure 6).
    pub circuits_run: u64,
    /// Total shots fired.
    pub total_shots: u64,
    /// Estimated device wall-clock in seconds (latency model; zero for
    /// noiseless simulation).
    pub estimated_device_seconds: f64,
}

impl ExecutionStats {
    /// The estimated device time as the integer nanosecond count the
    /// backend accumulated internally. Backends track whole nanoseconds
    /// and only divide by 1e9 when reporting, so rounding the product
    /// recovers the stored integer exactly (for totals under ~104 days)
    /// — offline analysis relies on this to reconcile per-batch
    /// `device_ns` deltas against the run total without float slop.
    pub fn device_nanos(&self) -> u64 {
        (self.estimated_device_seconds * 1e9).round() as u64
    }
}

/// A circuit compiled for a particular backend, reusable across parameter
/// bindings — the parameter-shift engine prepares once and runs 2·n times.
#[derive(Debug, Clone)]
pub struct PreparedCircuit {
    logical_qubits: usize,
    plan: Plan,
}

#[derive(Debug, Clone)]
enum Plan {
    /// Run as-is on the statevector simulator, through a fused kernel
    /// program compiled once at preparation — the ±π/2 shifted circuits the
    /// parameter-shift engine caches each carry their own fused program, so
    /// every Jacobian job replays pre-classified kernels.
    Direct {
        circuit: Circuit,
        program: FusedProgram,
    },
    /// Hardware plan: the compacted physical circuit compiled with its
    /// noise into in-place density passes, plus latency.
    Device {
        program: NoisyProgram,
        /// Logical qubit → compact wire carrying its readout.
        logical_readout: Vec<usize>,
        per_shot_ns: f64,
        overhead_ns: f64,
        swap_count: usize,
    },
}

impl PreparedCircuit {
    /// Number of logical qubits (the width of result vectors).
    pub fn logical_qubits(&self) -> usize {
        self.logical_qubits
    }

    /// Routing SWAPs inserted for this circuit (0 for direct plans).
    pub fn swap_count(&self) -> usize {
        match &self.plan {
            Plan::Direct { .. } => 0,
            Plan::Device { swap_count, .. } => *swap_count,
        }
    }

    /// The circuit that will actually execute.
    pub fn executable(&self) -> &Circuit {
        match &self.plan {
            Plan::Direct { circuit, .. } => circuit,
            Plan::Device { program, .. } => program.circuit(),
        }
    }
}

/// Derives a per-job RNG seed from a master seed and a stable stream id.
///
/// SplitMix64 finalizer over the mixed pair: statistically independent
/// streams for distinct `(master, stream)` pairs, and a pure function of
/// them — the foundation of batch determinism. Callers assign each job a
/// stream id that depends only on *what* the job computes (parameter index,
/// shift sign, example index, …), never on submission order, so the same
/// logical job always consumes the same randomness.
pub fn job_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a [`CircuitJob`] should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Per-logical-qubit ⟨Z⟩ expectations (the training hot path).
    ExpectationZ,
    /// Probability distribution over logical bitstrings — exact under
    /// [`Execution::Exact`], a normalized shot histogram under
    /// [`Execution::Shots`]. Joint statistics need this instead of per-qubit
    /// marginals.
    OutcomeDistribution,
}

/// One bound circuit execution inside a batch: a prepared circuit, a
/// parameter binding, a shot spec, and the job's own RNG seed.
#[derive(Debug, Clone)]
pub struct CircuitJob<'a> {
    /// The compiled circuit to execute.
    pub prepared: &'a PreparedCircuit,
    /// Parameter binding for this execution.
    pub theta: Vec<f64>,
    /// Shot specification.
    pub execution: Execution,
    /// Seed for this job's private RNG stream (see [`job_seed`]).
    pub seed: u64,
    /// What to return.
    pub kind: JobKind,
}

impl<'a> CircuitJob<'a> {
    /// An expectation-value job (the common case).
    pub fn expectation(
        prepared: &'a PreparedCircuit,
        theta: Vec<f64>,
        execution: Execution,
        seed: u64,
    ) -> Self {
        CircuitJob {
            prepared,
            theta,
            execution,
            seed,
            kind: JobKind::ExpectationZ,
        }
    }

    /// An outcome-distribution job (exact or shot-estimated).
    pub fn distribution(
        prepared: &'a PreparedCircuit,
        theta: Vec<f64>,
        execution: Execution,
        seed: u64,
    ) -> Self {
        CircuitJob {
            prepared,
            theta,
            execution,
            seed,
            kind: JobKind::OutcomeDistribution,
        }
    }
}

/// A structured whole-Jacobian job: the planner hands the backend the full
/// row structure at once instead of a flat list of shifted circuit jobs, so
/// the backend can share work across rows. The planner builds one only for
/// a non-empty request whose every row shifts its symbol on `prepared`.
/// A training example's request also carries its forward job, the
/// unshifted run of `prepared` at `theta`, so one evolution serves both.
#[derive(Debug, Clone)]
pub struct JacobianBatch<'a> {
    /// The compiled circuit to differentiate.
    pub prepared: &'a PreparedCircuit,
    /// Parameter binding.
    pub theta: Vec<f64>,
    /// The execution every job of the batch runs under.
    pub execution: Execution,
    /// One entry per requested Jacobian row, in output order.
    pub rows: Vec<JacobianRow>,
    /// Seed of the forward job — the expectation job of `prepared` at
    /// `theta` — whose result the answer ends with; `None` when the
    /// request is a Jacobian alone.
    pub forward_seed: Option<u64>,
}

/// One requested Jacobian row: its symbol occurs once in the circuit, at
/// |scale| = 1, so its gradient is its two shifted jobs, the prepared
/// circuit run at `theta[symbol] ± π/2`.
#[derive(Debug, Clone, Copy)]
pub struct JacobianRow {
    /// The row's trainable symbol (an index into `theta`).
    pub symbol: usize,
    /// Seeds of the row's `[+π/2, −π/2]` jobs.
    pub seeds: [u64; 2],
}

/// Worker-thread count for [`QuantumBackend::run_batch`]: the `QOC_WORKERS`
/// knob when set, else the machine's available parallelism.
pub fn default_worker_count() -> usize {
    match qoc_telemetry::env::count("QOC_WORKERS") {
        Ok(Some(n)) => usize::try_from(n).unwrap_or(usize::MAX),
        _ => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// An execution target for circuits.
///
/// Dynamically dispatched so training code can hold `&dyn QuantumBackend`.
/// Implementations must be `Send + Sync`: all mutable execution state lives
/// either in per-run locals or in atomic counters, which is what lets
/// [`Self::run_batch`] fan jobs out over scoped threads.
pub trait QuantumBackend: std::fmt::Debug + Send + Sync {
    /// Backend name (e.g. `"ibmq_santiago"`).
    fn name(&self) -> &str;

    /// Physical qubit count.
    fn num_qubits(&self) -> usize;

    /// Compiles a logical circuit into an executable plan.
    fn prepare(&self, circuit: &Circuit) -> PreparedCircuit;

    /// Executes one job — the only way a circuit runs — and charges it to
    /// the stats: per-logical-qubit ⟨Z⟩ for [`JobKind::ExpectationZ`], the
    /// distribution over logical bitstrings (index bit `k` = logical qubit
    /// `k`, all device noise and readout error included) for
    /// [`JobKind::OutcomeDistribution`].
    ///
    /// This is the unit of work [`Self::run_batch`] parallelizes; running it
    /// serially yields bit-identical results because the job's seed — not a
    /// shared RNG threaded through the call order — supplies all randomness.
    fn run_job(&self, job: &CircuitJob<'_>) -> Vec<f64>;

    /// One *attempt* at executing a job — the fallible unit the batch
    /// runner's retry loop drives.
    ///
    /// The default implementation cannot fail: it runs [`Self::run_job`] and
    /// ignores `attempt`. Fault-aware backends (queues, real hardware,
    /// [`crate::faults::FaultInjectingBackend`]) override this to surface
    /// [`crate::retry::JobError`]s; `attempt` is 0-based and only informs
    /// fault/telemetry decisions — **the job's seed is the same on every
    /// attempt**, which is what keeps retried batches bit-identical.
    fn try_run_job(&self, job: &CircuitJob<'_>, attempt: u32) -> JobResult {
        let _ = attempt;
        Ok(self.run_job(job))
    }

    /// The retry policy the batch runner applies to this backend's jobs.
    /// Defaults to [`RetryPolicy::from_env`] (`QOC_MAX_RETRIES`).
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::from_env()
    }

    /// Executes a batch of jobs, fanned out over [`default_worker_count`]
    /// scoped worker threads. On success `results[i]` corresponds to
    /// `jobs[i]`; the first (lowest-index) job that exhausts
    /// [`Self::retry_policy`] fails the whole batch.
    fn run_batch(&self, jobs: &[CircuitJob<'_>]) -> BatchResult {
        self.run_batch_workers(jobs, default_worker_count())
    }

    /// [`Self::run_batch`] for infallible callers: unwraps with a
    /// descriptive panic. Appropriate wherever job failure is impossible
    /// (plain simulators) or unrecoverable anyway.
    fn run_batch_expect(&self, jobs: &[CircuitJob<'_>]) -> Vec<Vec<f64>> {
        self.run_batch(jobs)
            .unwrap_or_else(|e| panic!("batch execution failed on {}: {e}", self.name()))
    }

    /// [`Self::run_batch`] with an explicit worker count.
    ///
    /// Jobs are assigned to workers in strides (worker `w` takes jobs `w`,
    /// `w + workers`, …) and merged back by index, so the output order —
    /// and, because every job owns its seed, the output *values* — are
    /// independent of scheduling.
    ///
    /// Each job runs under [`Self::retry_policy`]: a retryable failure
    /// reruns the identical job at once, up to the policy's
    /// `max_attempts` — same circuit, same shot budget, **same job seed**
    /// (see [`crate::retry::RetryPolicy`]). Every job is driven to success or exhaustion even after another job
    /// has failed (keeps execution statistics independent of worker count);
    /// the reported error is the failed job with the lowest index.
    ///
    /// When telemetry is enabled ([`qoc_telemetry::enabled`]) the batch
    /// emits a `device.batch` span and feeds the per-job queue-wait and
    /// wall-time histograms plus the per-worker jobs/busy-time histograms
    /// (`qoc.device.*` in the global registry); when disabled, no clock is
    /// read per job. It also counts completed jobs
    /// (`qoc.device.jobs_completed`). Retry counters
    /// (`qoc.device.retries`, `.gave_up`, `.preempted_jobs`) are recorded
    /// regardless.
    fn run_batch_workers(&self, jobs: &[CircuitJob<'_>], workers: usize) -> BatchResult {
        /// One job's terminal outcome: expectations, or `(attempts, error)`.
        type JobOutcome = Result<Vec<f64>, (u32, JobError)>;
        let workers = workers.max(1).min(jobs.len());
        let policy = self.retry_policy();
        let span = BatchSpan::open(self, jobs.len(), workers);
        let telemetry = span.0.as_ref().map(|_| {
            let m = batch_metrics();
            m.batches.inc();
            (m, Instant::now())
        });
        // Worker `w`'s share: jobs `w`, `w + workers`, … each driven through
        // the retry policy, tagged with their batch index.
        let run_stride = |w: usize| -> Vec<(usize, JobOutcome)> {
            let mut busy_ns = 0u64;
            let out: Vec<_> = jobs
                .iter()
                .enumerate()
                .skip(w)
                .step_by(workers.max(1))
                .map(|(i, job)| {
                    let start = telemetry.as_ref().map(|(m, epoch)| {
                        m.queue_wait_ns.record(epoch.elapsed().as_nanos() as u64);
                        Instant::now()
                    });
                    let result =
                        run_job_with_retry(job, &policy, |attempt, j| self.try_run_job(j, attempt));
                    if let (Some(start), Some((m, _))) = (start, &telemetry) {
                        let dur = start.elapsed().as_nanos() as u64;
                        m.job_wall_ns.record(dur);
                        busy_ns += dur;
                        m.jobs_completed.inc();
                    }
                    (i, result)
                })
                .collect();
            if let Some((m, _)) = &telemetry {
                m.worker_jobs.record(out.len() as u64);
                m.worker_busy_ns.record(busy_ns);
            }
            out
        };
        // One worker runs inline: a spawned thread would carry none of the
        // caller's open spans, hiding the batch from the sampling profiler.
        let strides = if workers <= 1 {
            vec![run_stride(0)]
        } else {
            let run_stride = &run_stride;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || run_stride(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked"))
                    .collect()
            })
        };
        span.close(self);
        let mut outcomes: Vec<(usize, JobOutcome)> = strides.into_iter().flatten().collect();
        outcomes.sort_unstable_by_key(|&(i, _)| i);
        // In index order, so the reported failure is the lowest-index one.
        outcomes
            .into_iter()
            .map(|(i, outcome)| {
                outcome.map_err(|(attempts, error)| BatchError {
                    job_index: i,
                    job_seed: jobs[i].seed,
                    attempts,
                    error,
                })
            })
            .collect()
    }

    /// Runs a whole Jacobian's shifted jobs — and, when the batch carries
    /// a [`JacobianBatch::forward_seed`], its forward job — in one
    /// structured job, or returns `None` when the backend cannot serve it:
    /// the planner then runs the jobs itself. An answer holds each row's
    /// `[f(θ₊), f(θ₋)]` results, two per row in row order, then the forward
    /// job's `f(θ)` if asked for, bit-identical to running the jobs and
    /// charged as them. The planner offers here every non-empty Jacobian
    /// request whose rows all shift their symbol on the prepared circuit
    /// ([`JacobianRow`]), and no other. The default declines, so wrapper
    /// backends that don't forward it (fault injectors, queues) keep their
    /// inner backend on the shifted-job path.
    fn run_jacobian_batch(&self, batch: &JacobianBatch<'_>) -> Option<Vec<Vec<f64>>> {
        let _ = batch;
        None
    }

    /// Cumulative execution statistics.
    fn stats(&self) -> ExecutionStats;

    /// Clears the statistics counters.
    fn reset_stats(&self);
}

/// The `device.batch` span of one batch, with the backend's stats at its
/// start so [`Self::close`] can record the batch's exact circuit and
/// device-time deltas (they telescope to the run totals, which qoc-analyze
/// checks to the nanosecond). Empty while telemetry is off.
struct BatchSpan(Option<(SpanGuard, ExecutionStats)>);

impl BatchSpan {
    fn open<B: QuantumBackend + ?Sized>(backend: &B, jobs: usize, workers: usize) -> Self {
        let span = qoc_telemetry::span!(
            "device.batch",
            backend = backend.name(),
            jobs = jobs,
            workers = workers,
        );
        BatchSpan(span.map(|s| (s, backend.stats())))
    }

    fn close<B: QuantumBackend + ?Sized>(self, backend: &B) {
        if let Some((mut span, before)) = self.0 {
            let after = backend.stats();
            span.field(
                "circuits",
                after.circuits_run.saturating_sub(before.circuits_run),
            );
            span.field(
                "device_ns",
                after.device_nanos().saturating_sub(before.device_nanos()),
            );
        }
    }
}

/// Process-wide device metrics mirrored from every backend instance
/// (`qoc.device.*` counters in [`Registry::global`]). These are cumulative
/// across the process and are *not* cleared by
/// [`QuantumBackend::reset_stats`] — they feed run manifests, while
/// [`ExecutionStats`] stays the per-backend, resettable view. Both are fed
/// by the single [`StatCells::charge`] code path so they cannot drift.
struct DeviceMetrics {
    circuits: Arc<Counter>,
    shots: Arc<Counter>,
    device_ns: Arc<Counter>,
    job_shots: Arc<Histogram>,
    job_device_ns: Arc<Histogram>,
}

fn device_metrics() -> &'static DeviceMetrics {
    static METRICS: OnceLock<DeviceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        DeviceMetrics {
            circuits: reg.counter("qoc.device.circuits_run"),
            shots: reg.counter("qoc.device.total_shots"),
            device_ns: reg.counter("qoc.device.device_ns"),
            // Shots per job: 1 .. 262144 in powers of 4 (0-shot exact jobs
            // land in the first bucket).
            job_shots: reg.histogram(
                "qoc.device.job_shots",
                &Histogram::exponential_bounds(1, 4, 10),
            ),
            // Modeled device time per job: 1µs .. ~17s in powers of 4.
            job_device_ns: reg.histogram(
                "qoc.device.job_device_ns",
                &Histogram::exponential_bounds(1_000, 4, 12),
            ),
        }
    })
}

/// Batch-level metrics, recorded only while telemetry is enabled (they need
/// wall-clock reads around every job).
struct BatchMetrics {
    batches: Arc<Counter>,
    queue_wait_ns: Arc<Histogram>,
    job_wall_ns: Arc<Histogram>,
    worker_jobs: Arc<Histogram>,
    worker_busy_ns: Arc<Histogram>,
    jobs_completed: Arc<Counter>,
}

fn batch_metrics() -> &'static BatchMetrics {
    static METRICS: OnceLock<BatchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        let latency_bounds = Histogram::exponential_bounds(1_000, 4, 16);
        BatchMetrics {
            batches: reg.counter("qoc.device.batches"),
            queue_wait_ns: reg.histogram("qoc.device.queue_wait_ns", &latency_bounds),
            job_wall_ns: reg.histogram("qoc.device.job_wall_ns", &latency_bounds),
            worker_jobs: reg.histogram(
                "qoc.device.worker_jobs",
                &Histogram::exponential_bounds(1, 2, 12),
            ),
            worker_busy_ns: reg.histogram("qoc.device.worker_busy_ns", &latency_bounds),
            jobs_completed: reg.counter("qoc.device.jobs_completed"),
        }
    })
}

/// Lock-free execution counters, shared across batch workers.
///
/// Backed by telemetry [`Counter`]s (the satellite migration): device time
/// is accumulated as integer nanoseconds — each job's duration is a
/// deterministic `f64 → u64` rounding, and integer addition commutes, so
/// the total is exact (and identical) no matter how many threads record
/// concurrently; a float accumulator would drift with summation order.
/// Every [`StatCells::charge`] also mirrors into the process-cumulative
/// `qoc.device.*` registry metrics (see [`device_metrics`]).
#[derive(Debug, Default)]
struct StatCells {
    circuits: Counter,
    shots: Counter,
    nanos: Counter,
}

impl StatCells {
    /// Charges `jobs` circuit runs under `execution`: each its shots, and
    /// the latency model's `overhead + shots · per_shot` of device time.
    /// The counters and histograms end as after `jobs` single charges.
    fn charge(&self, execution: Execution, overhead_ns: f64, per_shot_ns: f64, jobs: u64) {
        let shots = match execution {
            Execution::Exact => 0,
            Execution::Shots(s) => s,
        };
        let seconds = (overhead_ns + f64::from(shots) * per_shot_ns) / 1e9;
        let nanos = (seconds * 1e9).round() as u64;
        let shots = u64::from(shots);
        self.circuits.add(jobs);
        self.shots.add(shots * jobs);
        self.nanos.add(nanos * jobs);
        let global = device_metrics();
        global.circuits.add(jobs);
        global.shots.add(shots * jobs);
        global.device_ns.add(nanos * jobs);
        global.job_shots.record_n(shots, jobs);
        global.job_device_ns.record_n(nanos, jobs);
    }

    fn snapshot(&self) -> ExecutionStats {
        ExecutionStats {
            circuits_run: self.circuits.get(),
            total_shots: self.shots.get(),
            estimated_device_seconds: self.nanos.get() as f64 / 1e9,
        }
    }

    fn reset(&self) {
        self.circuits.reset();
        self.shots.reset();
        self.nanos.reset();
    }
}

/// A shot histogram of `probs` as a distribution: each outcome's count over
/// `shots` (all zero at zero shots).
fn sampled_distribution(probs: &[f64], shots: u32, rng: &mut StdRng) -> Vec<f64> {
    let total = f64::from(shots.max(1));
    sample_counts(probs, shots, rng)
        .into_iter()
        .map(|n| f64::from(n) / total)
        .collect()
}

/// A backend's forked answer to `batch`: the results of its shifted jobs
/// and, when it carries a forward seed, of its forward job, computed
/// without running them one by one.
///
/// `for_each_shift(symbols, unshifted, visit)` must hand `visit(run, state)`
/// what each job reads out — a final statevector, or a measured
/// distribution — bit-identical to the job's: both shifted runs of every
/// row, and the unshifted run when `unshifted` is set. `read_out(state,
/// execution, rng)` then finishes it as the job would, with an RNG seeded
/// from the job's seed. Results land in the
/// [`QuantumBackend::run_jacobian_batch`] order (`2·row + minus`, then the
/// forward job), `stats` is charged for all of them in one update at the
/// latency model's `(overhead_ns, per_shot_ns)`, and the batch runs inside
/// a one-worker `device.batch` span.
fn forked_answer<B: QuantumBackend + ?Sized, S: ?Sized>(
    backend: &B,
    (stats, overhead_ns, per_shot_ns): (&StatCells, f64, f64),
    batch: &JacobianBatch<'_>,
    for_each_shift: impl FnOnce(&[usize], bool, &mut dyn FnMut(ShiftRun, &S)),
    mut read_out: impl FnMut(&S, Execution, &mut StdRng) -> Vec<f64>,
) -> Vec<Vec<f64>> {
    let symbols: Vec<usize> = batch.rows.iter().map(|r| r.symbol).collect();
    let forward = 2 * symbols.len();
    let mut results = vec![Vec::new(); forward + usize::from(batch.forward_seed.is_some())];
    let span = BatchSpan::open(backend, results.len(), 1);
    for_each_shift(&symbols, batch.forward_seed.is_some(), &mut |run, state| {
        let (index, seed) = match run {
            ShiftRun::Shifted { row, minus } => (
                2 * row + usize::from(minus),
                batch.rows[row].seeds[usize::from(minus)],
            ),
            ShiftRun::Unshifted => (forward, batch.forward_seed.expect("forward run asked for")),
        };
        results[index] = read_out(state, batch.execution, &mut StdRng::seed_from_u64(seed));
    });
    stats.charge(
        batch.execution,
        overhead_ns,
        per_shot_ns,
        results.len() as u64,
    );
    span.close(backend);
    results
}

/// Exact statevector backend — the "Classical-Train" substrate.
///
/// Executes fused kernel programs compiled at [`QuantumBackend::prepare`]
/// time on pooled scratch states, so the per-job cost in a parameter-shift
/// batch is pure gate arithmetic: no matrix construction, no circuit
/// re-analysis, no statevector allocation. Its Jacobian hook forks every
/// shifted state from one binding of `θ` ([`FusedProgram::for_each_shift`]).
#[derive(Debug, Default)]
pub struct NoiselessBackend {
    stats: StatCells,
}

impl NoiselessBackend {
    /// Creates a noiseless backend.
    pub fn new() -> Self {
        NoiselessBackend::default()
    }

    /// Finishes one job from its final state `sv`: what `kind` asks for,
    /// exact or sampled from `rng`.
    fn read_out(
        &self,
        sv: &Statevector,
        kind: JobKind,
        execution: Execution,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        match (kind, execution) {
            (JobKind::ExpectationZ, Execution::Exact) => sv.expectation_all_z(),
            (JobKind::OutcomeDistribution, Execution::Exact) => sv.probabilities(),
            (JobKind::ExpectationZ, Execution::Shots(s)) => {
                let counts = sample_counts(&sv.probabilities(), s, rng);
                expectation_z_from_counts(&counts, sv.num_qubits(), s)
            }
            (JobKind::OutcomeDistribution, Execution::Shots(s)) => {
                sampled_distribution(&sv.probabilities(), s, rng)
            }
        }
    }
}

impl QuantumBackend for NoiselessBackend {
    fn name(&self) -> &str {
        "noiseless_sim"
    }

    fn num_qubits(&self) -> usize {
        // Bounded only by statevector memory.
        30
    }

    fn prepare(&self, circuit: &Circuit) -> PreparedCircuit {
        PreparedCircuit {
            logical_qubits: circuit.num_qubits(),
            plan: Plan::Direct {
                program: FusedProgram::compile(circuit),
                circuit: circuit.clone(),
            },
        }
    }

    fn run_job(&self, job: &CircuitJob<'_>) -> Vec<f64> {
        let Plan::Direct { program, .. } = &job.prepared.plan else {
            panic!("prepared circuit belongs to a different backend kind");
        };
        let mut rng = StdRng::seed_from_u64(job.seed);
        self.stats.charge(job.execution, 0.0, 0.0, 1);
        with_scratch(program.num_qubits(), |sv: &mut Statevector| {
            sv.reset_zero();
            program.run_into(&job.theta, sv);
            self.read_out(sv, job.kind, job.execution, &mut rng)
        })
    }

    /// Answers every batch, exact or sampled, with the results of its
    /// shifted jobs and forward job, forked from one binding of `θ` by
    /// [`FusedProgram::for_each_shift`] and read out like the jobs.
    fn run_jacobian_batch(&self, batch: &JacobianBatch<'_>) -> Option<Vec<Vec<f64>>> {
        let Plan::Direct { program, .. } = &batch.prepared.plan else {
            panic!("prepared circuit belongs to a different backend kind");
        };
        Some(forked_answer(
            self,
            (&self.stats, 0.0, 0.0),
            batch,
            |symbols, unshifted, visit| {
                program.for_each_shift(&batch.theta, symbols, unshifted, visit)
            },
            |sv, execution, rng| self.read_out(sv, JobKind::ExpectationZ, execution, rng),
        ))
    }

    fn stats(&self) -> ExecutionStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// Widest compacted circuit (touched wires plus readout targets) a
/// [`FakeDevice`] runs: its exact noisy density matrix holds `4¹¹` entries.
const DENSITY_MATRIX_LIMIT: usize = 11;

/// Hardware-emulating backend built from a [`DeviceDescription`].
///
/// Every circuit runs on the exact noisy density-matrix simulator, so its
/// compacted footprint must stay at or below 11 qubits;
/// [`QuantumBackend::prepare`] panics on wider circuits.
#[derive(Debug)]
pub struct FakeDevice {
    description: DeviceDescription,
    options: TranspileOptions,
    stats: StatCells,
}

impl FakeDevice {
    /// Wraps a device description with default transpiler options.
    pub fn new(description: DeviceDescription) -> Self {
        FakeDevice {
            description,
            options: TranspileOptions::default(),
            stats: StatCells::default(),
        }
    }

    /// Overrides transpiler options.
    #[must_use]
    pub fn with_options(mut self, options: TranspileOptions) -> Self {
        self.options = options;
        self
    }

    /// The device's coupling map.
    pub fn coupling(&self) -> &CouplingMap {
        &self.description.coupling
    }

    /// The calibration snapshot.
    pub fn calibration(&self) -> &DeviceCalibration {
        &self.description.calibration
    }

    /// Latency-model estimate for one job of `shots` shots of `circuit`
    /// (after transpilation), in seconds. Does not execute anything.
    pub fn estimate_job_seconds(&self, circuit: &Circuit, shots: u32) -> f64 {
        let t = transpile(circuit, &self.description.coupling, self.options);
        schedule::job_time(&t.circuit, &self.description.calibration, shots).total_seconds()
    }

    /// Finishes one expectation job of a device plan from its measured
    /// compact distribution `probs`: the per-logical-qubit ⟨Z⟩, exact or
    /// sampled from `rng`.
    fn read_out(plan: &Plan, probs: &[f64], execution: Execution, rng: &mut StdRng) -> Vec<f64> {
        let Plan::Device {
            program,
            logical_readout,
            ..
        } = plan
        else {
            panic!("prepared circuit belongs to a different backend kind");
        };
        let n = program.num_qubits();
        let physical = match execution {
            Execution::Exact => expectations_z_of(probs, n),
            Execution::Shots(s) => expectation_z_from_counts(&sample_counts(probs, s, rng), n, s),
        };
        logical_readout.iter().map(|&w| physical[w]).collect()
    }

    /// Compacts a transpiled circuit onto only its touched wires and builds
    /// the matching compact noise model.
    fn compact(
        &self,
        t: &TranspiledCircuit,
        logical_qubits: usize,
    ) -> (Circuit, Vec<usize>, NoiseModel) {
        // Wires that matter: everything the circuit touches plus every
        // readout target.
        let mut used: Vec<usize> = t
            .circuit
            .ops()
            .iter()
            .flat_map(|op| op.qubits.iter().copied())
            .chain(t.final_layout.iter().take(logical_qubits).copied())
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut phys_to_compact = vec![usize::MAX; self.description.coupling.num_qubits()];
        for (i, &p) in used.iter().enumerate() {
            phys_to_compact[p] = i;
        }
        let mut compact = Circuit::new(used.len());
        for op in t.circuit.ops() {
            let qubits: Vec<usize> = op.qubits.iter().map(|&q| phys_to_compact[q]).collect();
            compact.push(op.gate, &qubits, &op.params);
        }
        let logical_readout: Vec<usize> = t
            .final_layout
            .iter()
            .take(logical_qubits)
            .map(|&p| phys_to_compact[p])
            .collect();

        let pairs = compact
            .ops()
            .iter()
            .filter(|op| op.qubits.len() == 2)
            .map(|op| (op.qubits[0], op.qubits[1]));
        let noise = self.description.calibration.noise_model_on(&used, pairs);
        (compact, logical_readout, noise)
    }
}

impl QuantumBackend for FakeDevice {
    fn name(&self) -> &str {
        &self.description.name
    }

    fn num_qubits(&self) -> usize {
        self.description.coupling.num_qubits()
    }

    fn prepare(&self, circuit: &Circuit) -> PreparedCircuit {
        let t = transpile(circuit, &self.description.coupling, self.options);
        let job = schedule::job_time(&t.circuit, &self.description.calibration, 1);
        let (compact, logical_readout, noise) = self.compact(&t, circuit.num_qubits());
        assert!(
            compact.num_qubits() <= DENSITY_MATRIX_LIMIT,
            "compacted circuit spans {} qubits; the noisy density-matrix path \
             supports at most {DENSITY_MATRIX_LIMIT}",
            compact.num_qubits()
        );
        PreparedCircuit {
            logical_qubits: circuit.num_qubits(),
            plan: Plan::Device {
                program: NoisyProgram::compile(compact, &noise),
                logical_readout,
                per_shot_ns: job.circuit_duration_ns + job.readout_ns + job.rep_delay_ns,
                overhead_ns: job.overhead_ns,
                swap_count: t.swap_count,
            },
        }
    }

    fn run_job(&self, job: &CircuitJob<'_>) -> Vec<f64> {
        let plan = &job.prepared.plan;
        let Plan::Device {
            program,
            logical_readout,
            per_shot_ns,
            overhead_ns,
            ..
        } = plan
        else {
            panic!("prepared circuit belongs to a different backend kind");
        };
        let compact_probs = program.outcome_probabilities(&job.theta);
        let mut rng = StdRng::seed_from_u64(job.seed);
        self.stats
            .charge(job.execution, *overhead_ns, *per_shot_ns, 1);
        if job.kind == JobKind::ExpectationZ {
            return Self::read_out(plan, &compact_probs, job.execution, &mut rng);
        }
        // Marginalize onto the logical readout wires, logical bit order.
        let mut probs = vec![0.0; 1 << logical_readout.len()];
        for (s, p) in compact_probs.iter().enumerate() {
            let mut idx = 0usize;
            for (l, &w) in logical_readout.iter().enumerate() {
                if (s >> w) & 1 == 1 {
                    idx |= 1 << l;
                }
            }
            probs[idx] += p;
        }
        match job.execution {
            Execution::Exact => probs,
            Execution::Shots(s) => sampled_distribution(&probs, s, &mut rng),
        }
    }

    /// Answers every batch with the results of its shifted jobs and
    /// forward job, forked from one forward evolution by
    /// [`NoisyProgram::for_each_shift`], which measures each shifted run
    /// and the forward run (readout error included) into the distribution
    /// the job would sample; each is then read out like the job.
    fn run_jacobian_batch(&self, batch: &JacobianBatch<'_>) -> Option<Vec<Vec<f64>>> {
        let plan = &batch.prepared.plan;
        let Plan::Device {
            program,
            per_shot_ns,
            overhead_ns,
            ..
        } = plan
        else {
            panic!("prepared circuit belongs to a different backend kind");
        };
        Some(forked_answer(
            self,
            (&self.stats, *overhead_ns, *per_shot_ns),
            batch,
            |symbols, unshifted, visit| {
                program.for_each_shift(&batch.theta, symbols, unshifted, visit)
            },
            |probs, execution, rng| Self::read_out(plan, probs, execution, rng),
        ))
    }

    fn stats(&self) -> ExecutionStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{fake_lima, fake_santiago, fake_toronto};
    use qoc_sim::circuit::ParamValue;
    use qoc_sim::simulator::StatevectorSimulator;

    fn qnn_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.ry(q, 0.4 + q as f64 * 0.2);
        }
        for q in 0..4 {
            c.rzz(q, (q + 1) % 4, ParamValue::sym(q));
        }
        for q in 0..4 {
            c.ry(q, ParamValue::sym(4 + q));
        }
        c
    }

    /// Prepares `c` and runs one expectation job of it.
    fn expectation(
        backend: &dyn QuantumBackend,
        c: &Circuit,
        theta: &[f64],
        execution: Execution,
        seed: u64,
    ) -> Vec<f64> {
        let prepared = backend.prepare(c);
        backend.run_job(&CircuitJob::expectation(
            &prepared,
            theta.to_vec(),
            execution,
            seed,
        ))
    }

    #[test]
    fn noiseless_matches_plain_simulator() {
        let backend = NoiselessBackend::new();
        let c = qnn_circuit();
        let theta = [0.3, -0.2, 0.8, 0.1, 0.5, -0.6, 0.9, 0.0];
        let got = expectation(&backend, &c, &theta, Execution::Exact, 1);
        let want = StatevectorSimulator::new().expectations_z(&c, &theta);
        assert_eq!(got, want);
        assert_eq!(backend.stats().circuits_run, 1);
    }

    #[test]
    fn fake_device_exact_tracks_ideal_loosely() {
        // With realistic error rates the device result should be within a
        // modest bias band of the ideal expectation.
        let device = FakeDevice::new(fake_santiago());
        let c = qnn_circuit();
        let theta = [0.3, -0.2, 0.8, 0.1, 0.5, -0.6, 0.9, 0.0];
        let ideal = StatevectorSimulator::new().expectations_z(&c, &theta);
        let noisy = expectation(&device, &c, &theta, Execution::Exact, 2);
        assert_eq!(noisy.len(), 4);
        for (i, (a, b)) in ideal.iter().zip(&noisy).enumerate() {
            assert!(
                (a - b).abs() < 0.35,
                "logical qubit {i}: ideal {a} vs noisy {b}"
            );
            // Noise shrinks magnitudes; never amplifies past ideal + slack.
            assert!(b.abs() <= a.abs() + 0.08);
        }
    }

    #[test]
    fn fake_device_shots_are_reproducible_per_seed() {
        let device = FakeDevice::new(fake_lima());
        let c = qnn_circuit();
        let theta = [0.1; 8];
        let a = expectation(&device, &c, &theta, Execution::Shots(1024), 7);
        let b = expectation(&device, &c, &theta, Execution::Shots(1024), 7);
        assert_eq!(a, b);
        let other = expectation(&device, &c, &theta, Execution::Shots(1024), 8);
        assert_ne!(a, other, "a different seed must draw different shots");
    }

    #[test]
    fn noiseless_shot_jobs_match_exact_in_expectation() {
        let backend = NoiselessBackend::new();
        let mut c = Circuit::new(2);
        c.ry(0, 0.9);
        c.rzz(0, 1, 0.5);
        c.rx(1, 1.7);
        let exact = expectation(&backend, &c, &[], Execution::Exact, 0);
        let sampled = expectation(&backend, &c, &[], Execution::Shots(100_000), 11);
        for (e, s) in exact.iter().zip(&sampled) {
            assert!((e - s).abs() < 0.02, "exact {e} vs sampled {s}");
        }
        assert_eq!(backend.stats().total_shots, 100_000);
    }

    #[test]
    fn prepared_circuit_reuse_counts_every_run() {
        let device = FakeDevice::new(fake_santiago());
        device.reset_stats();
        let c = qnn_circuit();
        let prepared = device.prepare(&c);
        for k in 0..5 {
            let theta = vec![0.1 * k as f64; 8];
            device.run_job(&CircuitJob::expectation(
                &prepared,
                theta,
                Execution::Shots(1024),
                k,
            ));
        }
        let stats = device.stats();
        assert_eq!(stats.circuits_run, 5);
        assert_eq!(stats.total_shots, 5 * 1024);
        assert!(stats.estimated_device_seconds > 0.0);
    }

    #[test]
    fn outcome_distribution_marginals_match_expectations() {
        for backend in [
            Box::new(NoiselessBackend::new()) as Box<dyn QuantumBackend>,
            Box::new(FakeDevice::new(fake_santiago())),
        ] {
            let c = qnn_circuit();
            let theta = vec![0.4, -0.2, 0.9, 0.1, 0.3, -0.5, 0.7, 0.2];
            let prepared = backend.prepare(&c);
            let ez = backend.run_job(&CircuitJob::expectation(
                &prepared,
                theta.clone(),
                Execution::Exact,
                4,
            ));
            let probs = backend.run_job(&CircuitJob::distribution(
                &prepared,
                theta,
                Execution::Exact,
                4,
            ));
            assert_eq!(probs.len(), 16);
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for (q, &expected) in ez.iter().enumerate() {
                let marginal: f64 = probs
                    .iter()
                    .enumerate()
                    .map(|(s, p)| if s & (1 << q) == 0 { *p } else { -*p })
                    .sum();
                assert!(
                    (marginal - expected).abs() < 1e-9,
                    "{}: qubit {q} marginal {marginal} vs ⟨Z⟩ {expected}",
                    backend.name(),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "spans 12 qubits; the noisy density-matrix path supports at most 11")]
    fn prepare_rejects_circuits_wider_than_the_density_path() {
        let mut c = Circuit::new(12);
        for q in 0..12 {
            c.h(q);
        }
        FakeDevice::new(fake_toronto()).prepare(&c);
    }

    #[test]
    fn job_seed_is_pure_and_stream_separating() {
        assert_eq!(job_seed(1, 2), job_seed(1, 2));
        assert_ne!(job_seed(1, 2), job_seed(1, 3));
        assert_ne!(job_seed(1, 2), job_seed(2, 2));
        // Small consecutive stream ids must still give unrelated seeds.
        let seeds: Vec<u64> = (0..64).map(|s| job_seed(42, s)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    fn shift_style_jobs<'a>(
        prepared: &'a PreparedCircuit,
        execution: Execution,
        master: u64,
    ) -> Vec<CircuitJob<'a>> {
        (0..12)
            .map(|i| {
                let mut theta = vec![0.1; 8];
                theta[i % 8] += 0.3 * (i as f64);
                CircuitJob::expectation(prepared, theta, execution, job_seed(master, i as u64))
            })
            .collect()
    }

    #[test]
    fn run_batch_is_bit_identical_to_serial_at_any_worker_count() {
        for backend in [
            Box::new(NoiselessBackend::new()) as Box<dyn QuantumBackend>,
            Box::new(FakeDevice::new(fake_lima())),
        ] {
            let prepared = backend.prepare(&qnn_circuit());
            for execution in [Execution::Exact, Execution::Shots(256)] {
                let jobs = shift_style_jobs(&prepared, execution, 0xA5A5);
                let serial: Vec<Vec<f64>> = jobs.iter().map(|j| backend.run_job(j)).collect();
                for workers in [1, 2, 3, 8, 64] {
                    let batched = backend
                        .run_batch_workers(&jobs, workers)
                        .expect("infallible backend");
                    assert_eq!(
                        batched,
                        serial,
                        "{} diverged at {workers} workers ({execution:?})",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn run_batch_stats_are_exact_under_parallelism() {
        let device = FakeDevice::new(fake_santiago());
        let prepared = device.prepare(&qnn_circuit());
        let jobs = shift_style_jobs(&prepared, Execution::Shots(1024), 7);

        device.reset_stats();
        for job in &jobs {
            device.run_job(job);
        }
        let serial = device.stats();

        device.reset_stats();
        device
            .run_batch_workers(&jobs, 8)
            .expect("infallible backend");
        let parallel = device.stats();

        assert_eq!(parallel.circuits_run, jobs.len() as u64);
        assert_eq!(parallel.total_shots, jobs.len() as u64 * 1024);
        assert_eq!(
            parallel, serial,
            "atomic stats must not drift under threads"
        );
        assert!(parallel.estimated_device_seconds > 0.0);
    }

    #[test]
    fn batch_telemetry_feeds_span_and_registry() {
        use qoc_telemetry::sink::CaptureSubscriber;
        use qoc_telemetry::{FieldValue, Level};

        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = qoc_telemetry::install_for_test(vec![capture.clone()], None);
        let before = Registry::global().snapshot();
        let device = FakeDevice::new(fake_lima());
        let prepared = device.prepare(&qnn_circuit());
        let jobs = shift_style_jobs(&prepared, Execution::Shots(64), 11);
        device
            .run_batch_workers(&jobs, 3)
            .expect("infallible backend");
        let after = Registry::global().snapshot();
        let records = capture.records();
        drop(guard);

        // The batch emitted a span carrying its geometry.
        let batch = records
            .iter()
            .find(|r| {
                r.span == "device.batch"
                    && r.fields.contains(&("jobs".into(), FieldValue::U64(12)))
                    && r.fields.contains(&("workers".into(), FieldValue::U64(3)))
            })
            .expect("device.batch span with jobs=12 workers=3");
        assert!(batch.dur_ns.expect("span duration") > 0);

        // Registry deltas (>= because unrelated tests in this binary may
        // mirror into the same process-wide metrics concurrently).
        let counter_delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
        assert!(counter_delta("qoc.device.circuits_run") >= 12);
        assert!(counter_delta("qoc.device.total_shots") >= 12 * 64);
        assert!(counter_delta("qoc.device.batches") >= 1);
        let hist_delta = |name: &str| {
            after.histogram(name).map_or(0, |h| h.count)
                - before.histogram(name).map_or(0, |h| h.count)
        };
        assert!(hist_delta("qoc.device.queue_wait_ns") >= 12);
        assert!(hist_delta("qoc.device.job_wall_ns") >= 12);
        assert!(hist_delta("qoc.device.worker_jobs") >= 3);
        assert!(hist_delta("qoc.device.worker_busy_ns") >= 3);
        assert!(hist_delta("qoc.device.job_shots") >= 12);
    }

    #[test]
    fn sampled_distribution_jobs_sample_the_exact_one_and_are_charged_their_shots() {
        let noiseless = NoiselessBackend::new();
        let device = FakeDevice::new(fake_lima());
        let backends: [&dyn QuantumBackend; 2] = [&noiseless, &device];
        for backend in backends {
            let prepared = backend.prepare(&qnn_circuit());
            let theta = vec![0.1; 8];
            let exact = backend.run_job(&CircuitJob::distribution(
                &prepared,
                theta.clone(),
                Execution::Exact,
                0,
            ));
            let execution = Execution::Shots(512);
            backend.reset_stats();
            let sampled = backend.run_job(&CircuitJob::distribution(
                &prepared,
                theta.clone(),
                execution,
                9,
            ));
            let charged = backend.stats();
            let counts = sample_counts(&exact, 512, &mut StdRng::seed_from_u64(9));
            assert_eq!(counts.iter().sum::<u32>(), 512);
            let want: Vec<f64> = counts.iter().map(|&n| f64::from(n) / 512.0).collect();
            assert_eq!(sampled, want, "{}", backend.name());

            backend.reset_stats();
            backend.run_job(&CircuitJob::expectation(&prepared, theta, execution, 9));
            assert_eq!(charged, backend.stats(), "{}", backend.name());
            assert_eq!(charged.total_shots, 512);
        }
    }

    #[test]
    fn zero_shot_distribution_jobs_are_all_zero() {
        let noiseless = NoiselessBackend::new();
        let device = FakeDevice::new(fake_lima());
        let backends: [&dyn QuantumBackend; 2] = [&noiseless, &device];
        for backend in backends {
            let prepared = backend.prepare(&qnn_circuit());
            let job = CircuitJob::distribution(&prepared, vec![0.1; 8], Execution::Shots(0), 3);
            let dist = backend.run_job(&job);
            assert_eq!(dist.len(), 16);
            assert!(dist.iter().all(|&p| p == 0.0), "{dist:?}");
        }
    }

    #[test]
    fn estimate_job_seconds_scales_with_shots() {
        let device = FakeDevice::new(fake_santiago());
        let c = qnn_circuit();
        let t1 = device.estimate_job_seconds(&c, 1024);
        let t2 = device.estimate_job_seconds(&c, 4096);
        assert!(t2 > t1);
    }

    #[test]
    fn compaction_keeps_results_logical_width() {
        let device = FakeDevice::new(fake_lima());
        let c = qnn_circuit();
        let prepared = device.prepare(&c);
        assert_eq!(prepared.logical_qubits(), 4);
        // lima is T-shaped: the 4-ring needs SWAPs.
        assert!(prepared.swap_count() > 0);
        assert!(prepared.executable().num_qubits() <= 5);
    }
}
