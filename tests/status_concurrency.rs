//! Status exporter under concurrency: several training engines in one
//! process publish overlapping step batches through a single directly-owned
//! [`StatusExporter`] (the multi-tenant job-host topology), while a chaos
//! thread hammers the heartbeat path. The snapshot counter must stay
//! strictly monotone, every step publication must land in the history
//! sibling (none lost to a race), every published document must pass the
//! schema gate, and an elapsed-floor heartbeat must publish exactly once —
//! without polluting the per-step history series.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use serde::Value;

use qoc_core::engine::{
    run_id_for_seed, train_anchored, DeviceCounters, PruningKind, RunAnchor, StepRecord,
    TrainConfig, TrainObserver,
};
use qoc_core::optim::OptimizerKind;
use qoc_core::prune::PruneConfig;
use qoc_core::sched::LrSchedule;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_nn::model::QnnModel;
use qoc_telemetry::export::{StatusCore, StatusExporter};
use qoc_telemetry::schema::check_status_doc;

const ENGINES: usize = 4;
const STEPS: usize = 5;

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

fn config_for(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: STEPS,
        batch_size: 2,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.2 },
        pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
        execution: Execution::Shots(64),
        seed,
        eval_every: 3,
        eval_examples: 4,
        init_scale: 0.1,
    }
}

/// Bridges one engine's [`TrainObserver`] callbacks onto the shared
/// exporter — the same shape a multi-tenant job host uses, where the
/// process-global `QOC_STATUS_FILE` exporter cannot be engine-scoped.
struct StatusBridge<'a> {
    exporter: &'a StatusExporter,
    run_id: String,
    backend: String,
    published: AtomicU64,
}

impl TrainObserver for StatusBridge<'_> {
    fn on_step(&self, record: &StepRecord, device: DeviceCounters) {
        self.exporter.on_step(StatusCore {
            run_id: self.run_id.clone(),
            state: "running",
            backend: self.backend.clone(),
            step: (record.step + 1) as u64,
            steps_total: STEPS as u64,
            loss: record.loss,
            best_accuracy: 0.0,
            prune_phase: "none".to_string(),
            circuits_run: device.circuits_run,
            total_shots: device.total_shots,
            device_ns: device.device_ns,
        });
        self.published.fetch_add(1, Ordering::Relaxed);
    }
}

fn parse_doc(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("unparseable status doc: {e}\n{text}"))
}

fn snapshot_of(doc: &Value) -> u64 {
    match doc.get("snapshot") {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => *n as u64,
        other => panic!("status doc snapshot field missing or mistyped: {other:?}"),
    }
}

fn read_doc(path: &Path) -> Value {
    parse_doc(&std::fs::read_to_string(path).expect("status file readable"))
}

#[test]
fn overlapping_engines_share_one_exporter_without_losing_snapshots() {
    let dir = std::env::temp_dir().join(format!("qoc_status_conc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let status_path = dir.join("status.json");
    let history_path = status_path.with_extension("history.jsonl");
    std::fs::remove_file(&history_path).ok();

    // Cadence 1: every step from every engine must publish with history.
    let exporter = StatusExporter::new(PathBuf::from(&status_path));

    let model = QnnModel::mnist2();
    let train_ds = toy_data(12);
    let val_ds = toy_data(8);

    let bridges: Vec<StatusBridge<'_>> = (0..ENGINES)
        .map(|i| StatusBridge {
            exporter: &exporter,
            run_id: run_id_for_seed(100 + i as u64),
            backend: "noiseless".to_string(),
            published: AtomicU64::new(0),
        })
        .collect();

    let stop_chaos = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Chaos heartbeats: tick() uses try_lock and must neither block the
        // step path nor corrupt the snapshot series.
        let ticker = &exporter;
        let stop = &stop_chaos;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                ticker.tick();
                std::thread::sleep(Duration::from_micros(200));
            }
        });

        let handles: Vec<_> = bridges
            .iter()
            .enumerate()
            .map(|(i, bridge)| {
                let (model, train_ds, val_ds) = (&model, &train_ds, &val_ds);
                scope.spawn(move || {
                    let backend = NoiselessBackend::new();
                    let config = config_for(100 + i as u64);
                    train_anchored(
                        model,
                        &backend,
                        train_ds,
                        val_ds,
                        &config,
                        RunAnchor {
                            observer: Some(bridge),
                            ..RunAnchor::default()
                        },
                    )
                    .expect("engine run completes")
                })
            })
            .collect();
        for handle in handles {
            let result = handle.join().expect("engine thread");
            assert_eq!(result.steps.len(), STEPS);
        }
        stop_chaos.store(true, Ordering::Relaxed);
    });

    // Every engine's every step reached the exporter…
    for bridge in &bridges {
        assert_eq!(
            bridge.published.load(Ordering::Relaxed),
            STEPS as u64,
            "engine {} skipped observer callbacks",
            bridge.run_id,
        );
    }

    // …and every publication landed in the history: exactly ENGINES × STEPS
    // step snapshots (heartbeats are excluded from the series by design),
    // each schema-clean, with a strictly increasing snapshot counter.
    let history = std::fs::read_to_string(&history_path).expect("history sibling exists");
    let lines: Vec<&str> = history.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        ENGINES * STEPS,
        "history lost or duplicated step snapshots under concurrency"
    );
    let mut last_snapshot = 0u64;
    let mut seen_runs = std::collections::BTreeSet::new();
    for line in &lines {
        let doc = parse_doc(line);
        check_status_doc(&doc).expect("history snapshot passes the schema gate");
        let snap = snapshot_of(&doc);
        assert!(
            snap > last_snapshot,
            "snapshot counter not strictly monotone: {snap} after {last_snapshot}"
        );
        last_snapshot = snap;
        if let Some(Value::Str(run)) = doc.get("run_id") {
            seen_runs.insert(run.clone());
        }
    }
    assert_eq!(
        seen_runs.len(),
        ENGINES,
        "history must interleave snapshots from every engine"
    );

    // The live doc is the latest publication (or a later heartbeat — never
    // an earlier state).
    let live = read_doc(&status_path);
    check_status_doc(&live).expect("live status doc passes the schema gate");
    assert!(snapshot_of(&live) >= last_snapshot);

    // Heartbeat floor: an immediate tick after a fresh write is suppressed…
    let before = snapshot_of(&read_doc(&status_path));
    exporter.tick();
    assert_eq!(
        snapshot_of(&read_doc(&status_path)),
        before,
        "tick inside the heartbeat floor must not publish"
    );
    // …and one past the floor publishes exactly once, without touching the
    // per-step history series.
    let history_len_before = std::fs::read_to_string(&history_path)
        .unwrap()
        .lines()
        .count();
    std::thread::sleep(Duration::from_millis(2_100));
    exporter.tick();
    let after = snapshot_of(&read_doc(&status_path));
    assert_eq!(after, before + 1, "elapsed-floor heartbeat was lost");
    assert_eq!(
        std::fs::read_to_string(&history_path)
            .unwrap()
            .lines()
            .count(),
        history_len_before,
        "heartbeats must not pollute the step history"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_rotation_under_concurrency_loses_no_step_snapshots() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 10;
    const CAP: u64 = 25; // CAP < total ≤ 2·CAP, so one rotation and no loss

    let dir = std::env::temp_dir().join(format!("qoc_status_rot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let status_path = dir.join("status.json");
    let history_path = status_path.with_extension("history.jsonl");
    let rotated_path = status_path.with_extension("history.jsonl.1");
    std::fs::remove_file(&history_path).ok();
    std::fs::remove_file(&rotated_path).ok();

    let exporter = StatusExporter::new(PathBuf::from(&status_path)).with_history_max(CAP);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let exporter = &exporter;
            scope.spawn(move || {
                let run_id = run_id_for_seed(900 + w as u64);
                for step in 0..PER_WRITER {
                    exporter.on_step(StatusCore {
                        run_id: run_id.clone(),
                        state: "running",
                        backend: "noiseless".to_string(),
                        step: (step + 1) as u64,
                        steps_total: PER_WRITER as u64,
                        loss: 0.5,
                        best_accuracy: 0.0,
                        prune_phase: "none".to_string(),
                        circuits_run: 1,
                        total_shots: 64,
                        device_ns: 1_000,
                    });
                }
            });
        }
    });

    // The live file stays under the cap; the rotated sibling holds exactly
    // one cap's worth; together they preserve every publication in order.
    let live = std::fs::read_to_string(&history_path).expect("live history exists");
    let rotated = std::fs::read_to_string(&rotated_path).expect("rotated sibling exists");
    let live_lines: Vec<&str> = live.lines().filter(|l| !l.trim().is_empty()).collect();
    let rotated_lines: Vec<&str> = rotated.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(rotated_lines.len() as u64, CAP, "rotation fired off-cap");
    assert!(
        (live_lines.len() as u64) <= CAP,
        "live history exceeded QOC_STATUS_HISTORY_MAX"
    );
    assert_eq!(
        rotated_lines.len() + live_lines.len(),
        WRITERS * PER_WRITER,
        "rotation lost or duplicated step snapshots"
    );
    let mut last_snapshot = 0u64;
    for line in rotated_lines.iter().chain(live_lines.iter()) {
        let doc = parse_doc(line);
        check_status_doc(&doc).expect("rotated history line passes the schema gate");
        let snap = snapshot_of(&doc);
        assert!(
            snap > last_snapshot,
            "snapshot counter not monotone across the rotation boundary"
        );
        last_snapshot = snap;
    }

    // A fresh exporter over the same stem counts the surviving lines and
    // keeps rotating from there rather than restarting from zero.
    let resumed = StatusExporter::new(PathBuf::from(&status_path)).with_history_max(CAP);
    let live_before = live_lines.len() as u64;
    for step in 0..(CAP - live_before + 1) {
        resumed.on_step(StatusCore {
            run_id: run_id_for_seed(999),
            state: "running",
            backend: "noiseless".to_string(),
            step: step + 1,
            steps_total: CAP,
            loss: 0.25,
            best_accuracy: 0.0,
            prune_phase: "none".to_string(),
            circuits_run: 1,
            total_shots: 64,
            device_ns: 1_000,
        });
    }
    let live_after = std::fs::read_to_string(&history_path)
        .unwrap()
        .lines()
        .count() as u64;
    assert_eq!(
        live_after, 1,
        "resumed exporter must respect pre-existing history lines when rotating"
    );
    assert_eq!(
        std::fs::read_to_string(&rotated_path)
            .unwrap()
            .lines()
            .count() as u64,
        CAP,
        "second rotation must replace the .1 sibling at exactly the cap"
    );

    std::fs::remove_dir_all(&dir).ok();
}
