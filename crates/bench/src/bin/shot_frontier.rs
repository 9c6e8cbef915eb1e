//! **Shot-allocation frontier** — measures what the SNR-adaptive shot
//! controller (`TrainConfig::shot_alloc`, see `qoc_core::alloc`) buys over the
//! paper's fixed 1024-shot budget on MNIST-2.
//!
//! Protocol: train the same model, data, seed, and PGP settings twice —
//! once with a fixed shot budget (the paper's setting), once with the
//! controller on — and compare *executed* shots (backend stats, so retry
//! degradation and validation circuits are accounted identically) at the
//! final validation accuracy, which is scored with exact expectation
//! values so sampling noise cannot flatter either side.
//!
//! Usage:
//! `cargo run --release -p qoc-bench --bin shot_frontier [--ci] [--steps N] [--seed N]`
//!
//! - default (full) profile sweeps the target SNR over a grid and writes
//!   the committed `BENCH_shot_alloc.json` at the repo root (the
//!   `bench_smoke` gate and the `ci.sh shot-alloc` stage read it);
//! - `--ci` runs one reduced-size point and **exits 1** unless the
//!   controller reaches baseline accuracy with at least
//!   [`CI_MIN_REDUCTION`] fewer total shots.

use std::process::ExitCode;

use qoc_bench::suite::{pgp_config_for, Measurement};
use qoc_bench::{arg_usize, format_table};
use qoc_core::engine::{train_anchored, PruningKind, RunAnchor, TrainConfig};
use qoc_core::eval::evaluate_with_params;
use qoc_core::ShotAllocConfig;
use qoc_data::tasks::Task;
use qoc_device::backend::{Execution, NoiselessBackend, QuantumBackend};
use qoc_nn::model::QnnModel;

/// The paper's fixed per-circuit shot budget (baseline side).
const BASE_SHOTS: u32 = 1024;
/// Fractional shot reduction the CI gate demands at no accuracy loss.
const CI_MIN_REDUCTION: f64 = 0.25;
/// Target-SNR grid for the full frontier sweep.
const SNR_GRID: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

/// Outcome of one training run: executed shots and exact-eval accuracy.
struct RunPoint {
    total_shots: u64,
    accuracy: f64,
}

/// Trains MNIST-2 once with the shot allocator `shot_alloc` (`None`: the
/// fixed baseline budget) and returns executed shots (from backend stats)
/// plus the final accuracy scored with exact expectations on the full
/// validation split.
fn run_once(steps: usize, seed: u64, shot_alloc: Option<ShotAllocConfig>) -> RunPoint {
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let (train_set, val_set) = Task::Mnist2.load(seed);

    let mut config = TrainConfig::paper_default(steps);
    config.schedule = qoc_core::sched::LrSchedule::paper_cosine(steps);
    config.pruning = PruningKind::Probabilistic(pgp_config_for(Task::Mnist2));
    config.execution = Execution::Shots(BASE_SHOTS);
    config.shot_alloc = shot_alloc;
    config.seed = seed;
    // Validation also runs on the backend; keep it small and identical on
    // both sides so it dilutes the measured reduction equally.
    config.eval_every = steps;
    config.eval_examples = 8;

    backend.reset_stats();
    let result = train_anchored(
        &model,
        &backend,
        &train_set,
        &val_set,
        &config,
        RunAnchor::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let total_shots = backend.stats().total_shots;
    let accuracy = evaluate_with_params(
        &model,
        &backend,
        &result.params,
        &val_set,
        Execution::Exact,
        seed,
    )
    .accuracy;
    RunPoint {
        total_shots,
        accuracy,
    }
}

/// Runs the controller side at one target SNR. The ceiling is the baseline
/// budget: the controller may only save, not splurge.
fn run_with_controller(steps: usize, seed: u64, target_snr: f64, min_shots: u32) -> RunPoint {
    let shot_alloc = ShotAllocConfig::new(min_shots, BASE_SHOTS, target_snr)
        .unwrap_or_else(|e| panic!("--min-shots {min_shots}: {e}"));
    run_once(steps, seed, Some(shot_alloc))
}

fn frontier_row(label: &str, target_snr: f64, base: &RunPoint, alloc: &RunPoint) -> Measurement {
    let reduction = 1.0 - alloc.total_shots as f64 / base.total_shots as f64;
    Measurement {
        label: label.to_string(),
        values: vec![
            ("target_snr".into(), target_snr),
            ("baseline_shots".into(), base.total_shots as f64),
            ("alloc_shots".into(), alloc.total_shots as f64),
            ("reduction".into(), reduction),
            ("baseline_accuracy".into(), base.accuracy),
            ("alloc_accuracy".into(), alloc.accuracy),
            ("accuracy_delta".into(), alloc.accuracy - base.accuracy),
        ],
    }
}

fn print_frontier(rows: &[Measurement]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            let get = |k: &str| {
                m.values
                    .iter()
                    .find(|(name, _)| name == k)
                    .map_or(0.0, |(_, v)| *v)
            };
            vec![
                format!("{:.1}", get("target_snr")),
                format!("{}", get("baseline_shots") as u64),
                format!("{}", get("alloc_shots") as u64),
                format!("{:.1}%", get("reduction") * 100.0),
                format!("{:.3}", get("baseline_accuracy")),
                format!("{:.3}", get("alloc_accuracy")),
                format!("{:+.3}", get("accuracy_delta")),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "target SNR",
                "baseline shots",
                "alloc shots",
                "saved",
                "base acc",
                "alloc acc",
                "delta",
            ],
            &table,
        )
    );
}

fn main() -> ExitCode {
    qoc_bench::init();
    let ci = std::env::args().any(|a| a == "--ci");
    let steps = arg_usize("--steps", if ci { 25 } else { 40 });
    let seed = arg_usize("--seed", 42) as u64;
    let min_shots = u32::try_from(arg_usize("--min-shots", 128)).unwrap_or(u32::MAX);

    eprintln!("[shot_frontier] baseline: fixed {BASE_SHOTS} shots, {steps} steps, seed {seed}");
    let base = run_once(steps, seed, None);
    eprintln!(
        "[shot_frontier] baseline: {} shots, accuracy {:.3}",
        base.total_shots, base.accuracy
    );

    if ci {
        let target_snr = 2.0;
        let alloc = run_with_controller(steps, seed, target_snr, min_shots);
        let row = frontier_row("shot_alloc/mnist2_frontier", target_snr, &base, &alloc);
        print_frontier(std::slice::from_ref(&row));
        let reduction = 1.0 - alloc.total_shots as f64 / base.total_shots as f64;
        if reduction < CI_MIN_REDUCTION {
            eprintln!(
                "shot_frontier: FAIL — controller saved only {:.1}% of shots (gate: ≥ {:.0}%)",
                reduction * 100.0,
                CI_MIN_REDUCTION * 100.0,
            );
            return ExitCode::from(1);
        }
        if alloc.accuracy < base.accuracy {
            eprintln!(
                "shot_frontier: FAIL — controller accuracy {:.3} below baseline {:.3}",
                alloc.accuracy, base.accuracy,
            );
            return ExitCode::from(1);
        }
        println!(
            "shot_frontier: PASS — {:.1}% fewer shots at accuracy {:.3} (baseline {:.3})",
            reduction * 100.0,
            alloc.accuracy,
            base.accuracy,
        );
        return ExitCode::SUCCESS;
    }

    // Full profile: sweep the SNR target and commit the frontier.
    let mut rows = Vec::new();
    let mut gate_row: Option<Measurement> = None;
    let mut best_reduction = f64::NEG_INFINITY;
    for &target_snr in &SNR_GRID {
        eprintln!("[shot_frontier] controller at target SNR {target_snr} ...");
        let alloc = run_with_controller(steps, seed, target_snr, min_shots);
        let row = frontier_row(
            &format!("shot_alloc/snr_{target_snr}"),
            target_snr,
            &base,
            &alloc,
        );
        let reduction = 1.0 - alloc.total_shots as f64 / base.total_shots as f64;
        // The committed gate row is the deepest saving that loses no
        // accuracy — the point bench_smoke holds future changes to.
        if alloc.accuracy >= base.accuracy && reduction > best_reduction {
            best_reduction = reduction;
            gate_row = Some(frontier_row(
                "shot_alloc/mnist2_frontier",
                target_snr,
                &base,
                &alloc,
            ));
        }
        rows.push(row);
    }
    print_frontier(&rows);
    let Some(gate) = gate_row else {
        eprintln!("shot_frontier: no sweep point reached baseline accuracy — not committing");
        return ExitCode::from(1);
    };
    rows.push(gate);
    let path = qoc_bench::suite::artifact_path("BENCH_shot_alloc.json");
    match serde_json::to_string_pretty(&rows) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("shot_frontier: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("shot_frontier: wrote {}", path.display());
        }
        Err(e) => {
            eprintln!("shot_frontier: serialize failed: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
