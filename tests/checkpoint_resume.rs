//! Kill/resume bit-identity: a training run interrupted by a permanent
//! backend failure (emergency checkpoint) or resumed from a periodic
//! checkpoint must finish with a `TrainResult` identical — bit for bit —
//! to an uninterrupted run, including resumes landing mid-pruning-window.

use std::sync::atomic::{AtomicU64, Ordering};

use qoc::core::checkpoint::{
    CheckpointConfig, CheckpointError, TrainState, CHECKPOINT_SCHEMA_VERSION,
};
use qoc::core::engine::{
    train_anchored, PruningKind, ResumeError, RunAnchor, TrainConfig, TrainError,
};
use qoc::core::prune::PruneConfig;
use qoc::device::backend::{
    CircuitJob, Execution, ExecutionStats, NoiselessBackend, PreparedCircuit, QuantumBackend,
};
use qoc::device::retry::{JobError, JobResult, RetryPolicy};
use qoc::nn::model::QnnModel;
use qoc::prelude::{Dataset, LrSchedule, OptimizerKind};
use qoc::sim::circuit::Circuit;

/// Delegates to a noiseless simulator until its job fuse is spent, then
/// fails every job fatally — a hardware backend going offline mid-run.
#[derive(Debug)]
struct KillSwitchBackend {
    inner: NoiselessBackend,
    fuse: AtomicU64,
}

impl KillSwitchBackend {
    fn new(jobs_before_kill: u64) -> Self {
        KillSwitchBackend {
            inner: NoiselessBackend::new(),
            fuse: AtomicU64::new(jobs_before_kill),
        }
    }
}

impl QuantumBackend for KillSwitchBackend {
    fn name(&self) -> &str {
        "kill-switch"
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

    fn try_run_job(&self, job: &CircuitJob<'_>, _attempt: u32) -> JobResult {
        let alive = self
            .fuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if alive {
            Ok(self.inner.run_job(job))
        } else {
            Err(JobError::Fatal {
                message: "backend went offline (kill switch)".to_string(),
            })
        }
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::no_retry()
    }

    fn stats(&self) -> ExecutionStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

/// Tiny linearly-separable 2-class dataset in encoder space.
fn toy_data(n: usize) -> Dataset {
    let features: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0.4 } else { 2.4 };
            (0..16)
                .map(|k| base + 0.05 * ((i + k) % 3) as f64)
                .collect()
        })
        .collect();
    let labels = (0..n).map(|i| i % 2).collect();
    Dataset::new(features, labels, 2)
}

/// PGP config (stage = 1 accumulation + 2 pruning steps) under shot noise,
/// so resume correctness depends on every seed stream being restored.
fn pgp_config(steps: usize) -> TrainConfig {
    TrainConfig {
        steps,
        batch_size: 4,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.2 },
        pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
        execution: Execution::Shots(128),
        seed: 7,
        eval_every: 3,
        eval_examples: 8,
        init_scale: 0.1,
    }
}

/// Anchors a run to an explicit checkpoint target.
fn checkpointing(ck: &CheckpointConfig) -> RunAnchor<'_> {
    RunAnchor {
        checkpoint: Some(ck),
        ..RunAnchor::default()
    }
}

/// Anchors a run to a resume state, without checkpointing.
fn resuming(state: TrainState) -> RunAnchor<'static> {
    RunAnchor {
        resume: Some(state),
        ..RunAnchor::default()
    }
}

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qoc_resume_{tag}_{}.ckpt.json", std::process::id()))
}

fn assert_bit_identical(a: &qoc::core::engine::TrainResult, b: &qoc::core::engine::TrainResult) {
    assert_eq!(a, b, "resumed run diverged from the uninterrupted run");
    for (x, y) in a.params.iter().zip(&b.params) {
        assert_eq!(x.to_bits(), y.to_bits(), "parameters differ bitwise");
    }
    assert_eq!(
        a.device_seconds.to_bits(),
        b.device_seconds.to_bits(),
        "device time differs bitwise"
    );
}

#[test]
fn killed_run_resumes_bit_identically_mid_pruning_window() {
    let model = QnnModel::mnist2();
    let train_ds = toy_data(24);
    let val_ds = toy_data(12);
    let config = pgp_config(8);

    let reference_backend = NoiselessBackend::new();
    let reference = train_anchored(
        &model,
        &reference_backend,
        &train_ds,
        &val_ds,
        &config,
        RunAnchor::default(),
    )
    .expect("fault-free reference run");

    // Job budget per step: full steps cost 4·(1+2·8) = 68 jobs, pruned
    // steps 36, evals 8 — a 230-job fuse dies inside step 4, the middle of
    // the second pruning window (stage pattern full/prune/prune).
    let killer = KillSwitchBackend::new(230);
    let path = ckpt_path("kill");
    let ck = CheckpointConfig::new(&path, 3);
    let err = train_anchored(
        &model,
        &killer,
        &train_ds,
        &val_ds,
        &config,
        checkpointing(&ck),
    )
    .expect_err("fuse must abort the run");
    let TrainError::Execution {
        step, checkpoint, ..
    } = &err
    else {
        panic!("expected an execution failure, got {err}");
    };
    assert!(*step > 0, "kill landed before any step completed");
    assert_eq!(checkpoint.as_deref(), Some(path.as_path()));
    assert!(err.to_string().contains("state saved to"), "{err}");

    let state = TrainState::load(&path).expect("emergency checkpoint loads");
    assert_eq!(
        state.next_step, *step,
        "emergency checkpoint replays the failed step"
    );
    assert_eq!(state.steps.len(), state.next_step);

    let resume_backend = NoiselessBackend::new();
    let resumed = train_anchored(
        &model,
        &resume_backend,
        &train_ds,
        &val_ds,
        &config,
        resuming(state),
    )
    .expect("resumed run completes");
    std::fs::remove_file(&path).ok();

    assert_bit_identical(&resumed, &reference);
}

#[test]
fn periodic_checkpoint_resumes_bit_identically() {
    let model = QnnModel::mnist2();
    let train_ds = toy_data(24);
    let val_ds = toy_data(12);
    let config = pgp_config(8);

    let reference_backend = NoiselessBackend::new();
    let reference = train_anchored(
        &model,
        &reference_backend,
        &train_ds,
        &val_ds,
        &config,
        RunAnchor::default(),
    )
    .expect("fault-free reference run");

    // Cadence 5 leaves the file at next_step = 5 — the middle of a pruning
    // window — exactly what a kill -9 after that save would leave behind.
    let path = ckpt_path("periodic");
    let ck = CheckpointConfig::new(&path, 5);
    let backend = NoiselessBackend::new();
    let full = train_anchored(
        &model,
        &backend,
        &train_ds,
        &val_ds,
        &config,
        checkpointing(&ck),
    )
    .expect("checkpointed run completes");
    assert_bit_identical(&full, &reference);

    let state = TrainState::load(&path).expect("periodic checkpoint loads");
    assert_eq!(state.next_step, 5);

    let resume_backend = NoiselessBackend::new();
    let resumed = train_anchored(
        &model,
        &resume_backend,
        &train_ds,
        &val_ds,
        &config,
        resuming(state),
    )
    .expect("resumed run completes");
    std::fs::remove_file(&path).ok();

    assert_bit_identical(&resumed, &reference);
}

/// A checkpoint written at step 2 of a 4-step run of `pgp_config`.
fn checkpoint_at_step_two(tag: &str, model: &QnnModel, ds: &Dataset) -> TrainState {
    let path = ckpt_path(tag);
    let ck = CheckpointConfig::new(&path, 2);
    let backend = NoiselessBackend::new();
    train_anchored(model, &backend, ds, ds, &pgp_config(4), checkpointing(&ck))
        .expect("run completes");
    let state = TrainState::load(&path).expect("checkpoint loads");
    std::fs::remove_file(&path).ok();
    state
}

/// Resumes `state` under `config` on a fresh backend and returns the
/// resume error, after checking that no circuit ran.
fn resume_error(
    model: &QnnModel,
    ds: &Dataset,
    config: &TrainConfig,
    state: TrainState,
) -> ResumeError {
    let backend = NoiselessBackend::new();
    let result = train_anchored(model, &backend, ds, ds, config, resuming(state));
    assert_eq!(
        backend.stats().circuits_run,
        0,
        "a rejected resume ran circuits"
    );
    match result {
        Err(TrainError::Resume(e)) => e,
        Err(other) => panic!("expected a resume error, got {other}"),
        Ok(_) => panic!("a mismatched checkpoint resumed"),
    }
}

#[test]
fn resume_rejects_checkpoint_from_another_seed() {
    let model = QnnModel::mnist2();
    let ds = toy_data(8);
    let state = checkpoint_at_step_two("seed_mismatch", &model, &ds);
    let mut other = pgp_config(4);
    other.seed = 8;
    let err = resume_error(&model, &ds, &other, state);
    assert_eq!(
        err,
        ResumeError::Seed {
            checkpoint: 7,
            config: 8
        }
    );
    assert!(err.to_string().contains("seed 7"), "{err}");
}

#[test]
fn resume_rejects_checkpoints_that_do_not_fit_the_run() {
    let model = QnnModel::mnist2();
    let ds = toy_data(8);
    let state = checkpoint_at_step_two("fit_mismatch", &model, &ds);

    let mut wide = state.clone();
    wide.params.push(0.0);
    let err = resume_error(&model, &ds, &pgp_config(4), wide);
    assert_eq!(
        err,
        ResumeError::Width {
            checkpoint: 9,
            model: 8
        }
    );

    let err = resume_error(&model, &ds, &pgp_config(1), state.clone());
    assert_eq!(
        err,
        ResumeError::Step {
            next_step: 2,
            steps: 1
        }
    );

    let mut truncated = state;
    truncated.steps.pop();
    let err = resume_error(&model, &ds, &pgp_config(4), truncated);
    assert_eq!(
        err,
        ResumeError::History {
            records: 1,
            next_step: 2
        }
    );
}

/// Rewrites the on-disk checkpoint's `schema_version` and drops whole
/// field lines — the same string-surgery idiom the `checkpoint.rs` golden
/// tests use, applied to a real file so `TrainState::load` sees exactly
/// what an old writer would have produced.
fn rewrite_checkpoint(path: &std::path::Path, version: u32, drop_fields: &[&str]) {
    let text = std::fs::read_to_string(path).expect("checkpoint readable");
    let text = text.replacen(
        &format!("\"schema_version\": {CHECKPOINT_SCHEMA_VERSION}"),
        &format!("\"schema_version\": {version}"),
        1,
    );
    let kept: Vec<&str> = text
        .lines()
        .filter(|line| {
            let trimmed = line.trim_start();
            !drop_fields
                .iter()
                .any(|field| trimmed.starts_with(&format!("\"{field}\":")))
        })
        .collect();
    std::fs::write(path, kept.join("\n")).expect("checkpoint writable");
}

/// Cross-version resume matrix: a current (v2) checkpoint and a
/// synthesized v1 checkpoint (no `run_id`, no `alloc` — exactly what an
/// older writer produced) must both resume cleanly and land bit-identical
/// to the uninterrupted reference run, while a from-the-future v3 file and
/// a v2 file carrying state of the retired shot allocator must surface
/// typed [`CheckpointError`]s — never a panic or a silently wrong resume.
#[test]
fn cross_version_checkpoint_matrix() {
    let model = QnnModel::mnist2();
    let train_ds = toy_data(24);
    let val_ds = toy_data(12);
    let config = pgp_config(6);

    let reference_backend = NoiselessBackend::new();
    let reference = train_anchored(
        &model,
        &reference_backend,
        &train_ds,
        &val_ds,
        &config,
        RunAnchor::default(),
    )
    .expect("fault-free reference run");

    // One checkpointed run produces the v2 golden file all three matrix
    // rows are derived from (cadence 3 → file frozen at next_step = 3).
    let path = ckpt_path("version_matrix");
    let ck = CheckpointConfig::new(&path, 3);
    let backend = NoiselessBackend::new();
    train_anchored(
        &model,
        &backend,
        &train_ds,
        &val_ds,
        &config,
        checkpointing(&ck),
    )
    .expect("checkpointed run completes");
    let golden = std::fs::read_to_string(&path).expect("golden checkpoint readable");
    assert!(golden.contains("\"alloc\": null"), "v2 writes a null alloc");

    // Row 1 — v2 (current): loads and resumes bit-identically.
    let state = TrainState::load(&path).expect("v2 checkpoint loads");
    assert_eq!(state.schema_version, CHECKPOINT_SCHEMA_VERSION);
    assert_eq!(state.next_step, 3);
    let resumed = train_anchored(
        &model,
        &NoiselessBackend::new(),
        &train_ds,
        &val_ds,
        &config,
        resuming(state),
    )
    .expect("v2 resume completes");
    assert_bit_identical(&resumed, &reference);

    // Row 2 — v1 (past): strip the v2-era fields and downgrade the tag.
    // The loader must re-derive `run_id` from the seed, then resume to the
    // same bits.
    rewrite_checkpoint(&path, 1, &["run_id", "alloc"]);
    let v1_text = std::fs::read_to_string(&path).unwrap();
    assert!(!v1_text.contains("run_id"), "v1 file must not carry run_id");
    assert!(!v1_text.contains("alloc"), "v1 file must not carry alloc");
    let state = TrainState::load(&path).expect("v1 checkpoint loads");
    assert_eq!(
        state.schema_version, CHECKPOINT_SCHEMA_VERSION,
        "loaded state is normalized to the current schema"
    );
    assert_eq!(state.alloc, None);
    assert_eq!(
        state.run_id,
        qoc::core::engine::run_id_for_seed(config.seed),
        "run_id re-derived from the master seed"
    );
    let resumed = train_anchored(
        &model,
        &NoiselessBackend::new(),
        &train_ds,
        &val_ds,
        &config,
        resuming(state),
    )
    .expect("v1 resume completes");
    assert_bit_identical(&resumed, &reference);

    // Row 3 — v3 (future): typed rejection, not a panic and not a guess.
    std::fs::write(&path, &golden).unwrap();
    rewrite_checkpoint(&path, CHECKPOINT_SCHEMA_VERSION + 1, &[]);
    let err = TrainState::load(&path).expect_err("future schema must be rejected");
    match err {
        CheckpointError::Version(v) => assert_eq!(v, CHECKPOINT_SCHEMA_VERSION + 1),
        other => panic!("expected CheckpointError::Version, got {other}"),
    }

    // Row 4 — a v2 file written with the retired shot allocator on: its
    // accumulators fail the load, naming the allocator.
    let with_alloc = golden.replacen(
        "\"alloc\": null",
        "\"alloc\": {\"windows\": 2, \"ratio\": 0.55}",
        1,
    );
    std::fs::write(&path, with_alloc).unwrap();
    let err = TrainState::load(&path).expect_err("allocator state must be rejected");
    assert!(
        matches!(err, CheckpointError::RetiredShotAllocator),
        "expected CheckpointError::RetiredShotAllocator, got {err}"
    );
    assert!(
        err.to_string()
            .contains("retired SNR-adaptive shot allocator"),
        "{err}"
    );

    std::fs::remove_file(&path).ok();
}
