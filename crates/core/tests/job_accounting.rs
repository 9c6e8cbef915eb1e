//! An answered example is charged as its jobs: the fake device's hook
//! answers an MNIST-4 example's `1 + 2k` circuits (the shifted runs and the
//! forward run) with one stats update, and the circuits, shots and device
//! time it charges, and the process-wide per-job histograms
//! `qoc.device.job_shots` and `qoc.device.job_device_ns` (count, sum, min,
//! max, buckets), end as if the same jobs had run one by one through
//! `run_batch`.
//!
//! The histograms are global to the process, so this file holds one test.

use qoc_core::grad::QnnGradientComputer;
use qoc_device::backend::{Execution, FakeDevice, QuantumBackend};
use qoc_device::backends::fake_jakarta;
use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
use qoc_nn::model::QnnModel;
use qoc_telemetry::metrics::{HistogramSnapshot, Registry};

const HISTOGRAMS: [&str; 2] = ["qoc.device.job_shots", "qoc.device.job_device_ns"];

fn histograms() -> [HistogramSnapshot; 2] {
    let snapshot = Registry::global().snapshot();
    HISTOGRAMS.map(|name| {
        snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} is registered by the first charge"))
            .clone()
    })
}

/// `h` with every sample recorded once more.
fn twice(h: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: 2 * h.count,
        sum: 2 * h.sum,
        buckets: h.buckets.iter().map(|b| 2 * b).collect(),
        ..h.clone()
    }
}

#[test]
fn an_answered_example_is_charged_as_its_jobs() {
    let model = QnnModel::mnist4();
    let params: Vec<f64> = (0..model.num_params())
        .map(|i| 0.1 + 0.37 * i as f64)
        .collect();
    let input: Vec<f64> = (0..model.input_dim()).map(|i| 0.05 * i as f64).collect();
    let batch: [(&[f64], usize); 1] = [(&input, 2)];
    let rows: Vec<usize> = (0..model.num_params()).step_by(3).collect();
    let jobs = 1 + 2 * rows.len() as u64;
    let execution = Execution::Shots(1024);

    let answering = FakeDevice::new(fake_jakarta());
    let declining = FaultInjectingBackend::new(FakeDevice::new(fake_jakarta()), FaultPlan::none());
    let run = |backend: &dyn QuantumBackend| {
        QnnGradientComputer::new(&model, backend, execution)
            .try_batch_gradient(&params, &batch, Some(&rows), 0xACC7)
            .expect("no faults");
        (backend.stats(), histograms())
    };
    let (answered, once) = run(&answering);
    assert_eq!(answered.circuits_run, jobs);
    for h in &once {
        assert_eq!(h.count, jobs, "a fresh process charges one example");
    }
    let (declined, both) = run(&declining);
    assert_eq!(answered, declined);
    for ((name, once), both) in HISTOGRAMS.iter().zip(&once).zip(&both) {
        assert_eq!(*both, twice(once), "{name}");
    }
}
