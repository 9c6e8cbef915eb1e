//! The serving plane's headline gate: a deterministic fault-injected soak.
//!
//! `run_soak` (crates/serve/src/soak.rs) interleaves jobs from multiple
//! tenants through one server over a pool of fault-injected fake devices,
//! preempts victims mid-flight, and then proves the invariants that make
//! multi-tenant serving trustworthy — most importantly that **every job's
//! result is bit-identical to a solo run of the same request**, despite
//! retries, preemptions, resumes, and scheduler interleaving. The CI
//! `serve-soak` stage runs the same harness at ~200 jobs (release); the
//! `serve_soak` bench bin's default profile runs ≥1000 jobs across ≥4
//! tenants.

use std::sync::Arc;

use qoc_core::engine::TrainConfig;
use qoc_data::dataset::Dataset;
use qoc_device::backend::NoiselessBackend;
use qoc_device::pool::PoolBuilder;
use qoc_nn::model::QnnModel;
use qoc_serve::{
    AdmissionError, JobOutcome, JobPhase, ServeConfig, Server, SoakProfile, TenantQuota,
    TrainRequest,
};

fn tiny_dataset() -> Dataset {
    let features: Vec<Vec<f64>> = (0..8)
        .map(|i| vec![if i % 2 == 0 { 0.4 } else { 2.2 }; 16])
        .collect();
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    Dataset::new(features, labels, 2)
}

fn tiny_request(tenant: &str, seed: u64) -> TrainRequest {
    let mut config = TrainConfig::paper_default(2);
    config.seed = seed;
    config.batch_size = 2;
    config.eval_examples = 4;
    config.execution = qoc_device::backend::Execution::Exact;
    let data = tiny_dataset();
    TrainRequest {
        tenant: tenant.to_string(),
        name: format!("tiny-{seed}"),
        model: QnnModel::mnist2(),
        train_data: data.clone(),
        val_data: data,
        config,
    }
}

fn tiny_server(quota: TenantQuota, tenants: Option<Vec<String>>) -> Server {
    let pool = PoolBuilder::new()
        .class("sim", None, 2, || Box::new(NoiselessBackend::new()))
        .build();
    let dir = std::env::temp_dir().join(format!(
        "qoc-serve-test-{}-{:x}",
        std::process::id(),
        quota.max_queued * 31 + quota.max_running
    ));
    Server::new(
        pool,
        ServeConfig {
            quota,
            tenants,
            checkpoint_dir: dir,
            checkpoint_every: 1,
        },
    )
}

#[test]
fn admission_is_typed_and_tenant_scoped() {
    // Tenant names are unique per test: the per-tenant counters live in the
    // process-global metrics registry, so tests sharing a name would see
    // each other's totals.
    let server = tiny_server(TenantQuota::default(), Some(vec!["adm-acme".to_string()]));
    // Unknown tenant → typed rejection, nothing queued.
    let err = server.submit(tiny_request("ghost", 1)).unwrap_err();
    assert!(matches!(err, AdmissionError::UnknownTenant { .. }));
    // Metric-hostile names are rejected before anything registers.
    let err = server.submit(tiny_request("a.b", 1)).unwrap_err();
    assert!(matches!(err, AdmissionError::InvalidTenant { .. }));
    let err = server.submit(tiny_request("evil\"name", 1)).unwrap_err();
    assert!(matches!(err, AdmissionError::InvalidTenant { .. }));
    // Allowed tenant flows through to completion.
    let handle = server.submit(tiny_request("adm-acme", 2)).unwrap();
    match handle.wait() {
        JobOutcome::Finished(result) => assert_eq!(result.steps.len(), 2),
        JobOutcome::Failed(e) => panic!("{e}"),
    }
    assert_eq!(handle.status().phase, JobPhase::Finished);
    server.shutdown();
}

#[test]
fn queue_cap_rejects_with_backpressure_error() {
    // One slow-ish lane: single instance, running cap 1, queue cap 2.
    let pool = PoolBuilder::new()
        .class("sim", None, 1, || Box::new(NoiselessBackend::new()))
        .build();
    let server = Server::new(
        pool,
        ServeConfig {
            quota: TenantQuota {
                max_queued: 2,
                max_running: 1,
            },
            tenants: None,
            checkpoint_dir: std::env::temp_dir().join("qoc-serve-test-cap"),
            checkpoint_every: 1,
        },
    );
    let mut handles = Vec::new();
    let mut rejected = 0;
    // Submit far more than queued+running can hold at once; each rejection
    // must be the typed QueueFull, and retrying after a drain succeeds.
    for seed in 0..8u64 {
        loop {
            match server.submit(tiny_request("cap-acme", 100 + seed)) {
                Ok(h) => {
                    handles.push(h);
                    break;
                }
                Err(AdmissionError::QueueFull { tenant, cap, .. }) => {
                    assert_eq!(tenant, "cap-acme");
                    assert_eq!(cap, 2);
                    rejected += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
    }
    server.drain();
    for handle in &handles {
        assert!(matches!(handle.wait(), JobOutcome::Finished(_)));
    }
    let snaps = server.tenant_snapshots();
    assert_eq!(snaps.len(), 1);
    assert_eq!(snaps[0].completed, 8);
    assert_eq!(snaps[0].rejected, rejected);
    assert!(snaps[0].max_running_observed <= 1);
    server.shutdown();
}

#[test]
fn fair_share_respects_per_tenant_running_caps() {
    let server = Arc::new(tiny_server(
        TenantQuota {
            max_queued: 8,
            max_running: 1,
        },
        None,
    ));
    let mut handles = Vec::new();
    for seed in 0..6u64 {
        let tenant = ["fs-acme", "fs-blue", "fs-crux"][seed as usize % 3];
        handles.push(server.submit(tiny_request(tenant, 200 + seed)).unwrap());
    }
    server.drain();
    for handle in &handles {
        assert!(matches!(handle.wait(), JobOutcome::Finished(_)));
    }
    for snap in server.tenant_snapshots() {
        assert_eq!(snap.completed, 2, "tenant {}", snap.tenant);
        assert!(
            snap.max_running_observed <= 1,
            "tenant {} exceeded its running cap ({})",
            snap.tenant,
            snap.max_running_observed
        );
    }
}

/// The headline: interleaved multi-tenant jobs under aggressive fault
/// injection with mid-flight preemptions — every result bit-identical to
/// solo, zero give-ups, quotas and the tenant counters intact.
#[test]
fn soak_smoke_profile_holds_every_invariant() {
    let profile = SoakProfile::smoke();
    let report = qoc_serve::run_soak(&profile).expect("soak invariants");
    assert_eq!(report.jobs, profile.jobs);
    assert_eq!(report.gave_up, 0);
    assert!(report.retries > 0, "fault plan never bit");
    assert!(report.preemptions > 0, "chaos never landed");
    assert_eq!(report.solo_verified, profile.jobs);
    assert!(report.device_ns > 0);
}
