//! Traced training: the quickstart run with full telemetry enabled —
//! console progress at `QOC_LOG=info` granularity, a JSONL trace under
//! `results/`, and the run manifest + per-step records written next to it.
//!
//! Run with: `cargo run --release --example traced_training`
//!
//! Equivalent to exporting the environment yourself before any run:
//!
//! ```text
//! QOC_LOG=info QOC_TRACE_FILE=results/trace.jsonl \
//!     cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::process::ExitCode;

use qoc::prelude::*;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            qoc::telemetry::flush();
            eprintln!("traced_training: {e}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    // Every QOC_* knob is read and checked before telemetry opens (and
    // truncates) a trace file, so a typo leaves no half-written artifacts.
    qoc::telemetry::env::check()?;
    // QOC_FAULT_PLAN wraps the emulator in the deterministic fault injector
    // — CI uses this (with retries disabled) to drive the emergency
    // checkpoint and the aborted-trace path.
    let fault_plan = FaultPlan::from_env()?;
    let checkpoint = CheckpointConfig::from_env()?;
    let mut config = TrainConfig::paper_pgp(9);
    config.batch_size = 4;
    config.eval_examples = 16;

    // Telemetry reads the environment once, on first use — configure it
    // before anything else touches the training stack. Values exported by
    // the caller win (CI runs this at QOC_LOG=debug).
    if std::env::var_os("QOC_LOG").is_none() {
        std::env::set_var("QOC_LOG", "info");
    }
    if std::env::var_os("QOC_TRACE_FILE").is_none() {
        std::env::set_var("QOC_TRACE_FILE", "results/traced_training.jsonl");
    }
    qoc::telemetry::init_from_env();

    let (train_set, val_set) = Task::Mnist2.load(42);
    let model = QnnModel::mnist2();
    let device = FakeDevice::new(fake_santiago());
    let faulty =
        fault_plan.map(|plan| FaultInjectingBackend::new(FakeDevice::new(fake_santiago()), plan));
    let backend: &dyn QuantumBackend = match &faulty {
        Some(b) => b,
        None => &device,
    };
    println!(
        "training {} steps on {} with tracing on ...\n",
        config.steps,
        backend.name()
    );
    let anchor = RunAnchor {
        checkpoint: checkpoint.as_ref(),
        ..RunAnchor::default()
    };
    let result = train_anchored(&model, backend, &train_set, &val_set, &config, anchor)?;
    qoc::telemetry::flush();

    println!(
        "\nbest accuracy {:.3} after {} circuit executions",
        result.best_accuracy, result.total_inferences
    );

    // Show what landed on disk: the trace plus its sibling artifacts.
    let trace = qoc::telemetry::trace_file_path().ok_or("trace path configured above")?;
    for path in [
        trace.clone(),
        trace.with_extension("steps.jsonl"),
        trace.with_extension("evals.jsonl"),
        trace.with_extension("manifest.json"),
    ] {
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!("wrote {} ({size} bytes)", path.display());
    }
    if let Ok(text) = std::fs::read_to_string(&trace) {
        if let Some(line) = text.lines().find(|l| l.contains("\"train.step\"")) {
            println!("\nsample trace line:\n{line}");
        }
    }
    Ok(())
}
