//! Deterministic fault-injected soak harness for the serving plane.
//!
//! [`run_soak`] drives one [`crate::server::Server`] through a storm:
//! many tenants submitting interleaved jobs from several threads against
//! per-tenant quotas (admission rejections are expected and retried), a
//! pooled fleet of fake devices wrapped in
//! [`FaultPlan::aggressive`] fault injection, and a chaos thread preempting
//! running jobs mid-flight. After draining it checks the invariants that
//! make multi-tenant serving trustworthy:
//!
//! 1. **Completion** — every admitted job finishes; zero failures.
//! 2. **Determinism** — every job's [`TrainResult`](qoc_core::engine::TrainResult) (steps, evals, params,
//!    accuracy, inference count, device seconds) is **bit-identical** to a
//!    solo run of the same request on a fresh instance of the same device
//!    class with the same fault plan — despite retries, preemptions,
//!    resumes, and scheduling noise.
//! 3. **No give-ups** — `qoc.device.gave_up` does not move; preemptions
//!    are counted separately and never masquerade as failures.
//! 4. **Quota** — no tenant ever exceeds its running cap, and queue
//!    high-water marks stay within `max_queued + max_running` (admission
//!    cap plus preemption requeues, which bypass admission by design).
//! 5. **Reconciliation** — each tenant's registry counters
//!    (`qoc.serve.tenant.<tenant>.{completed,device_ns,preempted}`) agree
//!    with the per-job results and the server's ledger to the nanosecond.
//!
//! The same harness backs `crates/serve/tests/soak.rs` (small profile,
//! tier-1) and the `serve_soak` bench bin (CI and full ≥1000-job
//! profiles).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qoc_core::engine::TrainConfig;
use qoc_core::RunAnchor;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{FakeDevice, QuantumBackend};
use qoc_device::backends::{
    fake_jakarta, fake_lima, fake_manila, fake_santiago, DeviceDescription,
};
use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
use qoc_device::pool::PoolBuilder;
use qoc_device::retry::RetryPolicy;
use qoc_nn::model::QnnModel;
use qoc_telemetry::export::TENANT_METRIC_PREFIX;
use qoc_telemetry::metrics::Registry;

use crate::job::{JobHandle, JobOutcome, JobPhase, TrainRequest};
use crate::quota::TenantQuota;
use crate::server::{ServeConfig, Server};

/// Tenant name pool (soak profiles use the first `tenants` of these).
const TENANT_NAMES: &[&str] = &[
    "acme", "blue", "crux", "dena", "echo", "flux", "gaia", "hive",
];

/// Knobs for one soak run.
#[derive(Debug, Clone)]
pub struct SoakProfile {
    /// Total jobs to submit.
    pub jobs: usize,
    /// Tenants sharing the server (2–8).
    pub tenants: usize,
    /// Master seed: fault plan, job seeds, chaos schedule.
    pub seed: u64,
    /// Optimizer steps per job.
    pub steps: usize,
    /// Per-tenant quota (applies to every tenant).
    pub quota: TenantQuota,
    /// Fake-device instances per pool class.
    pub instances_per_class: usize,
    /// Jobs targeted for mid-flight preemption.
    pub preempt_victims: usize,
    /// Re-run every job solo and demand bit-identity.
    pub verify_solo: bool,
    /// Concurrent submitter threads.
    pub submitters: usize,
    /// Use small 2-qubit models instead of the paper-stock 4-qubit ones.
    /// Keeps the smoke and CI profiles fast on a single-CPU runner; the
    /// manual full profile uses the stock models.
    pub light_models: bool,
}

impl SoakProfile {
    /// Small profile for tier-1 test runs (debug build friendly).
    pub fn smoke() -> SoakProfile {
        SoakProfile {
            jobs: 24,
            tenants: 4,
            seed: 0x50AC_50AC,
            steps: 3,
            quota: TenantQuota {
                max_queued: 4,
                max_running: 2,
            },
            instances_per_class: 2,
            preempt_victims: 4,
            verify_solo: true,
            submitters: 2,
            light_models: true,
        }
    }

    /// The CI stage profile (release build, ~200 jobs, 3 tenants).
    pub fn ci() -> SoakProfile {
        // Light models: the serving machinery, fault plan, preemptions, and
        // bit-identity oracle are model-independent, and the stock 4-qubit
        // noisy sims would blow the stage budget on a single-CPU runner.
        SoakProfile {
            jobs: 200,
            tenants: 3,
            preempt_victims: 24,
            ..SoakProfile::smoke()
        }
    }

    /// The headline profile: ≥1000 interleaved jobs across ≥4 tenants,
    /// stock models.
    pub fn full() -> SoakProfile {
        SoakProfile {
            jobs: 1000,
            tenants: 4,
            preempt_victims: 100,
            light_models: false,
            ..SoakProfile::smoke()
        }
    }
}

/// What a soak run observed (all invariants already checked by
/// [`run_soak`]; these are for reporting).
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Jobs submitted and completed.
    pub jobs: usize,
    /// Tenants exercised.
    pub tenants: usize,
    /// Preemption events (checkpoint-and-requeue round-trips).
    pub preemptions: u64,
    /// Dispatches that resumed from a preemption checkpoint.
    pub resumed: u64,
    /// Admission rejections absorbed by submitter backpressure.
    pub rejections: u64,
    /// Device-level retry attempts consumed recovering injected faults.
    pub retries: u64,
    /// Jobs the retry machinery abandoned — the gate requires **zero**.
    pub gave_up: u64,
    /// Jobs re-run solo and confirmed bit-identical.
    pub solo_verified: usize,
    /// Exact on-device nanoseconds across all jobs (sum of per-result
    /// integer counters; reconciled against the tenant counters).
    pub device_ns: u64,
}

/// One deterministic job specification (everything derives from the
/// profile seed and the job index, so the solo verifier can rebuild the
/// exact request).
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    index: usize,
    tenant: usize,
    seed: u64,
}

/// SplitMix64-style mix for per-job seeds.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec_for(profile: &SoakProfile, index: usize) -> JobSpec {
    JobSpec {
        index,
        tenant: index % profile.tenants,
        seed: mix(profile.seed, index as u64) | 1,
    }
}

/// Tiny separable synthetic dataset in encoder space: two seeded cluster
/// centers with per-example jitter, `dim` features wide to match the
/// model's encoder.
fn synthetic_dataset(seed: u64, examples: usize, dim: usize) -> Dataset {
    let mut features = Vec::with_capacity(examples);
    let mut labels = Vec::with_capacity(examples);
    for i in 0..examples {
        let label = i % 2;
        let base = if label == 0 { 0.5 } else { 2.1 };
        let row: Vec<f64> = (0..dim)
            .map(|k| base + (mix(seed, (i * dim + k) as u64) % 1000) as f64 / 5000.0)
            .collect();
        features.push(row);
        labels.push(label);
    }
    Dataset::new(features, labels, 2)
}

/// A cheap 2-qubit architecture (8-dim encoder, 4–6 parameters) for the
/// debug-friendly smoke profile; still transpiled, routed, and
/// noise-simulated like the stock models.
fn light_model(variant: usize) -> QnnModel {
    use qoc_nn::encoder::RotationEncoder;
    use qoc_nn::head::MeasurementHead;
    use qoc_nn::layers::Layer;
    let layers = match variant % 3 {
        0 => vec![Layer::Rx, Layer::Ry, Layer::Cz],
        1 => vec![Layer::Ry, Layer::Rz, Layer::Cz],
        _ => vec![Layer::Rx, Layer::RzzRing],
    };
    QnnModel::new(
        2,
        RotationEncoder::image16(2),
        layers,
        MeasurementHead::Identity,
    )
}

/// Builds the exact request for a spec — used by the submitters *and* the
/// solo verifier, so both sides train the same model on the same data with
/// the same config.
fn request_for(profile: &SoakProfile, spec: JobSpec) -> TrainRequest {
    let model = if profile.light_models {
        light_model(spec.index)
    } else {
        match spec.index % 3 {
            0 => QnnModel::mnist2(),
            1 => QnnModel::fashion4(),
            _ => QnnModel::mnist4(),
        }
    };
    let mut config = if spec.index % 4 == 3 {
        TrainConfig::paper_pgp(profile.steps)
    } else {
        TrainConfig::paper_default(profile.steps)
    };
    config.seed = spec.seed;
    config.batch_size = 2;
    config.eval_every = 2;
    config.eval_examples = 2;
    config.execution = qoc_device::backend::Execution::Shots(64);
    let data = synthetic_dataset(spec.seed, 8, model.input_dim());
    TrainRequest {
        tenant: TENANT_NAMES[spec.tenant].to_string(),
        name: format!("soak-{}", spec.index),
        model,
        train_data: data.clone(),
        val_data: data,
        config,
    }
}

/// The device classes the soak pool hosts (all 4-qubit-capable fakes with
/// distinct topologies and calibrations, so placement has real choices).
fn soak_descriptions() -> Vec<DeviceDescription> {
    vec![fake_santiago(), fake_lima(), fake_manila(), fake_jakarta()]
}

/// The retry policy every soak backend runs under: enough attempts to
/// outlast [`FaultPlan::aggressive`]'s failure cap.
fn soak_policy() -> RetryPolicy {
    RetryPolicy { max_attempts: 4 }
}

fn faulty_backend(desc: &DeviceDescription, plan: &FaultPlan) -> Box<dyn QuantumBackend> {
    Box::new(
        FaultInjectingBackend::new(FakeDevice::new(desc.clone()), plan.clone())
            .with_retry_policy(soak_policy()),
    )
}

/// Per-tenant counter values (for before/after deltas against the shared
/// global registry).
fn tenant_counter(tenant: &str, field: &str) -> u64 {
    Registry::global()
        .counter(&format!("{TENANT_METRIC_PREFIX}{tenant}.{field}"))
        .get()
}

/// Runs the soak and checks every invariant; `Err` describes the first
/// violation.
#[allow(clippy::too_many_lines)]
pub fn run_soak(profile: &SoakProfile) -> Result<SoakReport, String> {
    if profile.tenants < 1 || profile.tenants > TENANT_NAMES.len() {
        return Err(format!("tenants must be 1..={}", TENANT_NAMES.len()));
    }
    let plan = FaultPlan::aggressive(profile.seed);
    let policy = soak_policy();
    if !plan.recoverable_under(&policy) {
        return Err("soak fault plan is not recoverable under the soak policy".to_string());
    }

    let work_dir = std::env::temp_dir().join(format!(
        "qoc-serve-soak-{}-{:08x}",
        std::process::id(),
        profile.seed
    ));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("create {work_dir:?}: {e}"))?;

    let descriptions = soak_descriptions();
    let mut builder = PoolBuilder::new();
    for desc in &descriptions {
        let plan_for_class = plan.clone();
        let desc_for_class = desc.clone();
        builder = builder.class(
            &desc.name,
            Some(desc.clone()),
            profile.instances_per_class,
            move || faulty_backend(&desc_for_class, &plan_for_class),
        );
    }
    let pool = builder.build();
    let total_instances = pool.total_instances();

    let tenant_names: Vec<String> = TENANT_NAMES[..profile.tenants]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let server = Arc::new(Server::new(
        Arc::clone(&pool),
        ServeConfig {
            quota: profile.quota,
            tenants: Some(tenant_names.clone()),
            checkpoint_dir: work_dir.join("checkpoints"),
            checkpoint_every: 1,
        },
    ));

    // --- baselines (the registry is process-global and accumulates) ---
    let before = Registry::global().snapshot();
    let tenant_base: Vec<(u64, u64, u64)> = tenant_names
        .iter()
        .map(|t| {
            (
                tenant_counter(t, "completed"),
                tenant_counter(t, "device_ns"),
                tenant_counter(t, "preempted"),
            )
        })
        .collect();

    // --- submit storm ---
    let handles: Arc<Mutex<Vec<Option<JobHandle>>>> =
        Arc::new(Mutex::new(vec![None; profile.jobs]));
    let rejections = Arc::new(AtomicU64::new(0));
    let submit_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));

    std::thread::scope(|scope| {
        for worker in 0..profile.submitters.max(1) {
            let server = Arc::clone(&server);
            let handles = Arc::clone(&handles);
            let rejections = Arc::clone(&rejections);
            let submit_error = Arc::clone(&submit_error);
            scope.spawn(move || {
                let mut index = worker;
                while index < profile.jobs {
                    let spec = spec_for(profile, index);
                    let request = request_for(profile, spec);
                    loop {
                        match server.submit(request.clone()) {
                            Ok(handle) => {
                                handles.lock().unwrap()[index] = Some(handle);
                                break;
                            }
                            Err(crate::quota::AdmissionError::QueueFull { .. }) => {
                                // Backpressure working as intended: count
                                // it and retry once the queue drains.
                                rejections.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(500));
                            }
                            Err(other) => {
                                *submit_error.lock().unwrap() =
                                    Some(format!("job {index}: {other}"));
                                return;
                            }
                        }
                    }
                    index += profile.submitters.max(1);
                }
            });
        }

        // --- chaos: preempt selected victims while they run ---
        let stride = (profile.jobs / profile.preempt_victims.max(1)).max(1);
        let chaos_handles = Arc::clone(&handles);
        let stop = Arc::new(AtomicBool::new(false));
        let chaos_stop = Arc::clone(&stop);
        scope.spawn(move || {
            let mut victim = 0;
            while victim < profile.jobs {
                if chaos_stop.load(Ordering::Acquire) {
                    return;
                }
                let handle = chaos_handles.lock().unwrap()[victim].clone();
                let Some(handle) = handle else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue; // not submitted yet — wait for this victim
                };
                // Wait for the victim to start running, then pull the rug.
                let mut preempted = false;
                for _ in 0..20_000 {
                    if handle.is_terminal() || chaos_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match handle.status().phase {
                        JobPhase::Running { .. } => {
                            if !preempted {
                                handle.preempt();
                                preempted = true;
                            } else if handle.status().preemptions > 0 {
                                break; // acknowledged
                            }
                        }
                        _ if preempted => break,
                        _ => {}
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                victim += stride;
            }
        });

        // Drain once the submitters are done; the scope joins them first
        // via this same thread's ordering: wait for all handles, then
        // drain, then stop chaos.
        loop {
            if submit_error.lock().unwrap().is_some() {
                break;
            }
            let submitted = handles
                .lock()
                .unwrap()
                .iter()
                .filter(|h| h.is_some())
                .count();
            if submitted == profile.jobs {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.drain();
        stop.store(true, Ordering::Release);
    });

    if let Some(err) = submit_error.lock().unwrap().take() {
        return Err(format!("submission failed: {err}"));
    }

    // --- invariant 1: every job finished ---
    let handles = handles.lock().unwrap();
    let mut outcomes = Vec::with_capacity(profile.jobs);
    for (index, handle) in handles.iter().enumerate() {
        let handle = handle
            .as_ref()
            .ok_or_else(|| format!("job {index}: no handle"))?;
        match handle.wait() {
            JobOutcome::Finished(result) => outcomes.push((handle.clone(), result)),
            JobOutcome::Failed(e) => return Err(format!("job {index} failed: {e}")),
        }
    }

    // --- invariant 3: faults recovered, nothing abandoned ---
    let after = Registry::global().snapshot();
    let gave_up = after.counter("qoc.device.gave_up") - before.counter("qoc.device.gave_up");
    if gave_up != 0 {
        return Err(format!("{gave_up} jobs gave up under the soak fault plan"));
    }
    let retries = after.counter("qoc.device.retries") - before.counter("qoc.device.retries");
    if retries == 0 {
        return Err("no retries observed — the fault plan did not bite".to_string());
    }

    // --- invariant 4: quotas ---
    let snapshots = server.tenant_snapshots();
    let mut preemptions = 0;
    let mut resumed = 0;
    for snap in &snapshots {
        if snap.max_running_observed > profile.quota.max_running {
            return Err(format!(
                "tenant {} ran {} jobs concurrently (cap {})",
                snap.tenant, snap.max_running_observed, profile.quota.max_running
            ));
        }
        if snap.max_queued_observed > profile.quota.max_queued + profile.quota.max_running {
            return Err(format!(
                "tenant {} queued {} jobs (admission cap {} + {} requeue slots)",
                snap.tenant,
                snap.max_queued_observed,
                profile.quota.max_queued,
                profile.quota.max_running
            ));
        }
        if snap.queued != 0 || snap.running != 0 {
            return Err(format!("tenant {} not drained", snap.tenant));
        }
        preemptions += snap.preempted;
        resumed += snap.resumed;
    }
    if profile.preempt_victims > 0 && preemptions == 0 {
        return Err("chaos thread never landed a preemption".to_string());
    }
    if pool.total_instances() != total_instances {
        return Err("device pool leaked instances".to_string());
    }
    for class in 0..pool.num_classes() {
        if pool.idle_instances(class) != profile.instances_per_class {
            return Err(format!("class {class} leaked a leased instance"));
        }
    }

    // --- invariant 5: tenant counters reconcile to the nanosecond ---
    let mut expect_completed = vec![0u64; profile.tenants];
    let mut expect_ns = vec![0u64; profile.tenants];
    let mut device_ns_total = 0u64;
    for (handle, result) in &outcomes {
        let tenant = tenant_names
            .iter()
            .position(|t| t == &handle.status().tenant)
            .expect("job tenant is a soak tenant");
        let ns = (result.device_seconds * 1e9).round() as u64;
        expect_completed[tenant] += 1;
        expect_ns[tenant] += ns;
        device_ns_total += ns;
    }
    for (i, tenant) in tenant_names.iter().enumerate() {
        let completed = tenant_counter(tenant, "completed") - tenant_base[i].0;
        if completed != expect_completed[i] {
            return Err(format!(
                "tenant {tenant}: registry says {completed} completed, results say {}",
                expect_completed[i]
            ));
        }
        let ns = tenant_counter(tenant, "device_ns") - tenant_base[i].1;
        if ns != expect_ns[i] {
            return Err(format!(
                "tenant {tenant}: registry device_ns {ns} != per-job sum {} (off by {})",
                expect_ns[i],
                ns.abs_diff(expect_ns[i])
            ));
        }
        let preempted = tenant_counter(tenant, "preempted") - tenant_base[i].2;
        let snap = snapshots
            .iter()
            .find(|s| &s.tenant == tenant)
            .expect("snapshot for every tenant");
        if preempted != snap.preempted {
            return Err(format!(
                "tenant {tenant}: registry preempted {preempted} != server {}",
                snap.preempted
            ));
        }
    }

    // --- invariant 2: bit-identity against solo runs ---
    //
    // `outcomes[i]` is job index `i` (handles were stored by index), so
    // the exact request can be rebuilt from the profile. The solo run uses
    // a *fresh* backend of the same class under the same fault plan and
    // policy, no checkpointing, no observer, no preemption — if the served
    // result (which may have been retried, preempted, and resumed on a
    // different instance) differs in any bit, serving broke determinism.
    let mut solo_verified = 0;
    if profile.verify_solo {
        let class_names = pool.class_names();
        let chunk = outcomes.len().div_ceil(4).max(1);
        let verified: Vec<Result<usize, String>> = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for (chunk_index, batch) in outcomes.chunks(chunk).enumerate() {
                let descriptions = &descriptions;
                let class_names = &class_names;
                let plan = &plan;
                let base = chunk_index * chunk;
                workers.push(scope.spawn(move || -> Result<usize, String> {
                    let mut verified = 0;
                    for (offset, (handle, served)) in batch.iter().enumerate() {
                        let index = base + offset;
                        let status = handle.status();
                        let class = class_names
                            .iter()
                            .position(|n| n == &status.device_class)
                            .ok_or_else(|| {
                                format!("job {index}: unknown class {}", status.device_class)
                            })?;
                        let request = request_for(profile, spec_for(profile, index));
                        let backend = faulty_backend(&descriptions[class], plan);
                        let solo = qoc_core::train_anchored(
                            &request.model,
                            backend.as_ref(),
                            &request.train_data,
                            &request.val_data,
                            &request.config,
                            RunAnchor::default(),
                        )
                        .map_err(|e| format!("job {index}: solo run failed: {e}"))?;
                        if solo != **served {
                            return Err(format!(
                                "job {index} (tenant {}, class {}, {} preemption(s)): \
                                 served result is not bit-identical to its solo run",
                                status.tenant, status.device_class, status.preemptions
                            ));
                        }
                        verified += 1;
                    }
                    Ok(verified)
                }));
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("verifier thread"))
                .collect()
        });
        for result in verified {
            solo_verified += result?;
        }
    }

    let _ = std::fs::remove_dir_all(&work_dir);

    Ok(SoakReport {
        jobs: profile.jobs,
        tenants: profile.tenants,
        preemptions,
        resumed,
        rejections: rejections.load(Ordering::Relaxed),
        retries,
        gave_up,
        solo_verified,
        device_ns: device_ns_total,
    })
}
