//! The multi-tenant training server: admission → fair share → placement →
//! execution → (preemption ↺) → completion.
//!
//! # Architecture
//!
//! One [`Server`] owns a [`DevicePool`] and a scheduler thread. Submission
//! is synchronous admission control: the tenant is vetted against the
//! allow-list and its [`TenantQuota::max_queued`] cap, the job's circuit is
//! placed onto the best-fitting device class
//! ([`qoc_device::pool::DevicePool::place`] — a pure function of circuit
//! and pool calibrations, so a solo replay of the job lands on the same
//! class), and the job enters its tenant's FIFO queue.
//!
//! The scheduler picks, among tenants that have queued work, a free
//! running-cap slot, *and* an idle instance of their head job's class, the
//! one with the fewest running jobs (ties: least recently dispatched) —
//! classic fair share, work-conserving because tenants whose head job's
//! class is saturated are skipped. Each dispatch leases an instance
//! exclusively and runs the job on a dedicated thread via
//! [`qoc_core::train_anchored`], with per-job checkpointing and a
//! [`crate::preempt::PreemptableBackend`] wrapper.
//!
//! Preemption ([`crate::job::JobHandle::preempt`]) aborts the run at its
//! next circuit job; the engine's emergency checkpoint (a pre-step
//! snapshot) is reloaded and the job returns to the *front* of its
//! tenant's queue, resuming later on any instance of the same class.
//! Because placement is deterministic, instances within a class are
//! behaviourally identical, and resume replays from a pre-step snapshot
//! with the original seeds, the combined result is bit-identical to an
//! uninterrupted run — the soak harness asserts exactly this.
//!
//! # Telemetry
//!
//! Per-tenant counters are registered under
//! `qoc.serve.tenant.<tenant>.<field>` (see
//! [`qoc_telemetry::export::TENANT_METRIC_PREFIX`]), in the process-wide
//! metrics registry.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use qoc_core::engine::{run_id_for_seed, EvalRecord, StepRecord};
use qoc_core::{
    CheckpointConfig, DeviceCounters, RunAnchor, TrainError, TrainObserver, TrainState,
};
use qoc_device::pool::{DevicePool, PooledDevice};
use qoc_telemetry::env::EnvError;
use qoc_telemetry::metrics::{Counter, Histogram, Registry};

use crate::job::{JobHandle, JobId, JobOutcome, JobPhase, JobShared, TrainRequest};
use crate::preempt::PreemptableBackend;
use crate::quota::{tenant_name_ok, AdmissionError, TenantQuota};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Quota applied to every tenant.
    pub quota: TenantQuota,
    /// Tenant allow-list; `None` admits any (valid) tenant name.
    pub tenants: Option<Vec<String>>,
    /// Directory for per-job checkpoint files (`job-<id>.ckpt`). Created
    /// on demand; files are removed when their job completes.
    pub checkpoint_dir: PathBuf,
    /// Periodic checkpoint cadence within a run (steps). Emergency
    /// checkpoints on preemption happen regardless; this only bounds how
    /// much a *crash* (not a preemption) could lose.
    pub checkpoint_every: usize,
}

impl ServeConfig {
    /// Configuration for `dir` with environment-supplied quota
    /// (`QOC_SERVE_QUOTA`) and allow-list (`QOC_SERVE_TENANTS`,
    /// comma-separated; unset or empty admits any tenant).
    pub fn from_env(checkpoint_dir: PathBuf) -> Result<ServeConfig, EnvError> {
        let tenants = qoc_telemetry::env::spec("QOC_SERVE_TENANTS").map(|spec| {
            let names = spec.split(',').map(str::trim).filter(|s| !s.is_empty());
            names.map(str::to_string).collect::<Vec<_>>()
        });
        Ok(ServeConfig {
            quota: TenantQuota::from_env()?,
            tenants: tenants.filter(|names| !names.is_empty()),
            checkpoint_dir,
            checkpoint_every: 1,
        })
    }
}

/// Monotone per-tenant counters, mirrored into the global metrics registry
/// under `qoc.serve.tenant.<tenant>.<field>`.
#[derive(Debug, Clone)]
struct TenantCounters {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    rejected: Arc<Counter>,
    preempted: Arc<Counter>,
    resumed: Arc<Counter>,
    steps: Arc<Counter>,
    device_ns: Arc<Counter>,
    /// Admission (or preemption requeue) → dispatch latency.
    queue_wait_ns: Arc<Histogram>,
}

impl TenantCounters {
    fn new(tenant: &str) -> TenantCounters {
        let reg = Registry::global();
        let c = |field: &str| {
            reg.counter(&format!(
                "{}{tenant}.{field}",
                qoc_telemetry::export::TENANT_METRIC_PREFIX
            ))
        };
        TenantCounters {
            submitted: c("submitted"),
            completed: c("completed"),
            failed: c("failed"),
            rejected: c("rejected"),
            preempted: c("preempted"),
            resumed: c("resumed"),
            steps: c("steps"),
            device_ns: c("device_ns"),
            queue_wait_ns: reg.histogram(
                &format!(
                    "{}{tenant}.queue_wait_ns",
                    qoc_telemetry::export::TENANT_METRIC_PREFIX
                ),
                &Histogram::exponential_bounds(1_000, 4, 16),
            ),
        }
    }
}

/// A job sitting in (or returning to) a tenant queue.
struct QueuedJob {
    shared: Arc<JobShared>,
    request: TrainRequest,
    /// Present when this entry is a preemption requeue: the emergency
    /// checkpoint to resume from.
    resume: Option<TrainState>,
    /// Device class index chosen at admission.
    class: usize,
    /// When this entry joined the queue (reset on preemption requeue);
    /// dispatch records the delta as `queue_wait_ns`.
    queued_at: Instant,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<QueuedJob>,
    running: usize,
    /// Scheduler tick of the last dispatch — fair-share tie-breaker.
    last_dispatch: u64,
    /// High-water marks, for quota-invariant assertions.
    max_running_observed: usize,
    max_queued_observed: usize,
    counters: Option<TenantCounters>,
}

impl TenantState {
    fn counters(&mut self, tenant: &str) -> &TenantCounters {
        self.counters
            .get_or_insert_with(|| TenantCounters::new(tenant))
    }
}

struct SchedState {
    tenants: BTreeMap<String, TenantState>,
    next_id: JobId,
    running_total: usize,
    /// Monotone dispatch tick.
    tick: u64,
    closed: bool,
}

struct ServerInner {
    pool: Arc<DevicePool>,
    cfg: ServeConfig,
    state: Mutex<SchedState>,
    /// Scheduler wake-ups: submit, requeue, instance return, close.
    sched: Condvar,
    /// Drain waiters: woken whenever queues or running counts shrink.
    idle: Condvar,
}

/// Point-in-time per-tenant accounting (see [`Server::tenant_snapshots`]).
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Most jobs ever queued at once (includes preemption requeues, so
    /// bounded by `max_queued + max_running`, not `max_queued`).
    pub max_queued_observed: usize,
    /// Most jobs ever running at once (quota invariant: never exceeds
    /// [`TenantQuota::max_running`]).
    pub max_running_observed: usize,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs failed permanently.
    pub failed: u64,
    /// Submissions rejected by quota.
    pub rejected: u64,
    /// Preemption events (one per checkpoint-and-requeue).
    pub preempted: u64,
    /// Dispatches that resumed from a preemption checkpoint.
    pub resumed: u64,
    /// Optimizer steps completed across all the tenant's runs (replayed
    /// steps after a preemption count again — this meters device work).
    pub steps: u64,
    /// Estimated on-device nanoseconds across *completed* jobs (exact
    /// integer sum of each job's result counter).
    pub device_ns: u64,
}

/// The multi-tenant training server. See the module docs for the
/// architecture.
#[derive(Debug)]
pub struct Server {
    inner: Arc<ServerInner>,
    scheduler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerInner")
            .field("pool_classes", &self.pool.num_classes())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server over `pool`. The scheduler thread runs until
    /// [`Server::shutdown`] (or drop, which drains first).
    pub fn new(pool: Arc<DevicePool>, cfg: ServeConfig) -> Server {
        let inner = Arc::new(ServerInner {
            pool,
            cfg,
            state: Mutex::new(SchedState {
                tenants: BTreeMap::new(),
                next_id: 1,
                running_total: 0,
                tick: 0,
                closed: false,
            }),
            sched: Condvar::new(),
            idle: Condvar::new(),
        });
        let sched_inner = Arc::clone(&inner);
        let scheduler = std::thread::Builder::new()
            .name("qoc-serve-sched".to_string())
            .spawn(move || scheduler_loop(&sched_inner))
            .expect("spawn scheduler thread");
        Server {
            inner,
            scheduler: Some(scheduler),
        }
    }

    /// Admits a job or rejects it with a typed [`AdmissionError`]. On
    /// success the job is queued and will run when fair share grants its
    /// tenant a slot.
    pub fn submit(&self, request: TrainRequest) -> Result<JobHandle, AdmissionError> {
        if !tenant_name_ok(&request.tenant) {
            return Err(AdmissionError::InvalidTenant {
                tenant: request.tenant,
            });
        }
        if let Some(allowed) = &self.inner.cfg.tenants {
            if !allowed.iter().any(|t| t == &request.tenant) {
                return Err(AdmissionError::UnknownTenant {
                    tenant: request.tenant,
                });
            }
        }
        // Placement before taking the scheduler lock: transpiling the
        // model's circuit against every class calibration is the expensive
        // part of admission.
        let circuit = request.model.circuit();
        let Some(class) = self.inner.pool.place(circuit) else {
            return Err(AdmissionError::Infeasible {
                qubits: circuit.num_qubits(),
                widest: self.inner.pool.widest_class_qubits(),
            });
        };

        let mut state = self.inner.state.lock().unwrap();
        if state.closed {
            return Err(AdmissionError::Draining);
        }
        let tenant = state.tenants.entry(request.tenant.clone()).or_default();
        let counters = tenant.counters(&request.tenant).clone();
        if tenant.queue.len() >= self.inner.cfg.quota.max_queued {
            counters.rejected.inc();
            return Err(AdmissionError::QueueFull {
                tenant: request.tenant,
                queued: tenant.queue.len(),
                cap: self.inner.cfg.quota.max_queued,
            });
        }
        let id = state.next_id;
        state.next_id += 1;
        let tenant = state.tenants.get_mut(&request.tenant).unwrap();
        let shared = JobShared::new(
            id,
            &request.tenant,
            run_id_for_seed(request.config.seed),
            self.inner.pool.class_names()[class].clone(),
        );
        tenant.queue.push_back(QueuedJob {
            shared: Arc::clone(&shared),
            request,
            resume: None,
            class,
            queued_at: Instant::now(),
        });
        tenant.max_queued_observed = tenant.max_queued_observed.max(tenant.queue.len());
        counters.submitted.inc();
        self.inner.sched.notify_all();
        Ok(JobHandle { shared })
    }

    /// Blocks until every queue is empty and no job is running. New
    /// submissions remain possible (drain is a wait, not a close).
    pub fn drain(&self) {
        let mut state = self.inner.state.lock().unwrap();
        while state.running_total > 0 || state.tenants.values().any(|t| !t.queue.is_empty()) {
            state = self.inner.idle.wait(state).unwrap();
        }
    }

    /// Closes admission, drains every queued and running job, and joins
    /// the scheduler.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.closed = true;
            self.inner.sched.notify_all();
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }

    /// Per-tenant accounting snapshots, sorted by tenant name.
    pub fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        let mut state = self.inner.state.lock().unwrap();
        let names: Vec<String> = state.tenants.keys().cloned().collect();
        names
            .into_iter()
            .map(|name| {
                let tenant = state.tenants.get_mut(&name).unwrap();
                let c = tenant.counters(&name).clone();
                TenantSnapshot {
                    queued: tenant.queue.len(),
                    running: tenant.running,
                    max_queued_observed: tenant.max_queued_observed,
                    max_running_observed: tenant.max_running_observed,
                    submitted: c.submitted.get(),
                    completed: c.completed.get(),
                    failed: c.failed.get(),
                    rejected: c.rejected.get(),
                    preempted: c.preempted.get(),
                    resumed: c.resumed.get(),
                    steps: c.steps.get(),
                    device_ns: c.device_ns.get(),
                    tenant: name,
                }
            })
            .collect()
    }

    /// The device pool this server schedules onto.
    pub fn pool(&self) -> &Arc<DevicePool> {
        &self.inner.pool
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Fair-share scheduler: dispatch whenever (tenant with queued work) ×
/// (free running slot) × (idle instance of the head job's class) is
/// non-empty; otherwise sleep until submit/requeue/instance-return.
fn scheduler_loop(inner: &Arc<ServerInner>) {
    let mut state = inner.state.lock().unwrap();
    loop {
        // Candidate tenants in fair-share order: fewest running first,
        // least-recently dispatched breaking ties (BTreeMap iteration
        // makes the final name tie-break deterministic too).
        let mut candidates: Vec<(usize, u64, String)> = state
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty() && t.running < inner.cfg.quota.max_running)
            .map(|(name, t)| (t.running, t.last_dispatch, name.clone()))
            .collect();
        candidates.sort();

        let mut dispatched = false;
        for (_, _, name) in candidates {
            let class = state.tenants[&name].queue.front().unwrap().class;
            // The scheduler is the only acquirer, so try_acquire doubles
            // as the idle check without a race.
            let Some(lease) = inner.pool.try_acquire(class) else {
                continue; // class saturated — stay work-conserving
            };
            let tenant = state.tenants.get_mut(&name).unwrap();
            let job = tenant.queue.pop_front().unwrap();
            tenant
                .counters(&name)
                .queue_wait_ns
                .record(job.queued_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            tenant.running += 1;
            tenant.max_running_observed = tenant.max_running_observed.max(tenant.running);
            state.tick += 1;
            let tick = state.tick;
            let tenant = state.tenants.get_mut(&name).unwrap();
            tenant.last_dispatch = tick;
            let counters = tenant.counters(&name).clone();
            if job.resume.is_some() {
                counters.resumed.inc();
            }
            state.running_total += 1;
            let worker_inner = Arc::clone(inner);
            std::thread::Builder::new()
                .name(format!("qoc-serve-job-{}", job.shared.id))
                .spawn(move || run_job(&worker_inner, job, lease, &counters))
                .expect("spawn job worker");
            dispatched = true;
            break;
        }
        if dispatched {
            continue; // another slot may be fillable right away
        }
        let queued_empty = state.tenants.values().all(|t| t.queue.is_empty());
        if state.closed && queued_empty && state.running_total == 0 {
            return;
        }
        state = inner.sched.wait(state).unwrap();
    }
}

/// Live-progress observer: mirrors step/eval completion into the job's
/// shared status and the tenant's step counter.
struct ProgressObserver<'a> {
    shared: &'a JobShared,
    steps: &'a Counter,
}

impl TrainObserver for ProgressObserver<'_> {
    fn on_step(&self, record: &StepRecord, _device: DeviceCounters) {
        self.steps.inc();
        self.shared.set_phase(JobPhase::Running {
            step: record.step + 1,
            loss: record.loss,
        });
    }

    fn on_eval(&self, _record: &EvalRecord) {}
}

/// One dispatch: run the job on its leased instance until it finishes,
/// fails, or preempts (requeue-front). Runs on a dedicated thread.
fn run_job(
    inner: &Arc<ServerInner>,
    mut job: QueuedJob,
    lease: PooledDevice,
    counters: &TenantCounters,
) {
    let shared = Arc::clone(&job.shared);
    shared.set_phase(JobPhase::Running {
        step: job.resume.as_ref().map_or(0, |s| s.next_step),
        loss: f64::NAN,
    });

    let _ = std::fs::create_dir_all(&inner.cfg.checkpoint_dir);
    let ck_path = inner
        .cfg
        .checkpoint_dir
        .join(format!("job-{:06}.ckpt", shared.id));
    let checkpoint = CheckpointConfig {
        path: ck_path.clone(),
        every: inner.cfg.checkpoint_every.max(1),
    };
    let observer = ProgressObserver {
        shared: &shared,
        steps: counters.steps.as_ref(),
    };
    let result = qoc_core::train_anchored(
        &job.request.model,
        &PreemptableBackend::new(lease.backend(), &shared.preempt),
        &job.request.train_data,
        &job.request.val_data,
        &job.request.config,
        RunAnchor {
            checkpoint: Some(&checkpoint),
            resume: job.resume.take(),
            observer: Some(&observer),
        },
    );
    // Return the instance before bookkeeping: the class can host the next
    // job while we finish up.
    drop(lease);

    match result {
        Ok(train_result) => {
            counters.completed.inc();
            counters
                .device_ns
                .add((train_result.device_seconds * 1e9).round() as u64);
            let _ = std::fs::remove_file(&ck_path);
            shared.finish(JobOutcome::Finished(Box::new(train_result)));
            finish_slot(inner, &shared.tenant);
        }
        Err(TrainError::Execution {
            source, checkpoint, ..
        }) if source.error.is_preemption() => {
            // Acknowledge the preemption and arm the resume before the
            // job becomes schedulable again.
            shared.preempt.store(false, Ordering::Release);
            counters.preempted.inc();
            let resume = checkpoint.as_ref().and_then(|p| TrainState::load(p).ok());
            let resume_step = resume.as_ref().map_or(0, |s| s.next_step);
            {
                let mut state = inner.state.lock().unwrap();
                {
                    let mut job_state = shared.state.lock().unwrap();
                    job_state.preemptions += 1;
                    job_state.phase = JobPhase::Preempted { resume_step };
                    shared.done.notify_all();
                }
                let tenant = state.tenants.get_mut(&shared.tenant).unwrap();
                job.resume = resume;
                job.queued_at = Instant::now();
                tenant.queue.push_front(job);
                tenant.max_queued_observed = tenant.max_queued_observed.max(tenant.queue.len());
                tenant.running -= 1;
                state.running_total -= 1;
                inner.sched.notify_all();
                inner.idle.notify_all();
            }
        }
        Err(other) => {
            counters.failed.inc();
            let _ = std::fs::remove_file(&ck_path);
            shared.finish(JobOutcome::Failed(other.to_string()));
            finish_slot(inner, &shared.tenant);
        }
    }
}

/// Releases the tenant's running slot and wakes the scheduler and any
/// drain waiters. Must run *after* all other side effects of the job so a
/// woken drainer observes a fully settled server.
fn finish_slot(inner: &Arc<ServerInner>, tenant: &str) {
    let mut state = inner.state.lock().unwrap();
    let t = state.tenants.get_mut(tenant).unwrap();
    t.running -= 1;
    state.running_total -= 1;
    inner.sched.notify_all();
    inner.idle.notify_all();
}
