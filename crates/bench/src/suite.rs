//! Shared experiment plumbing: task → model/device wiring, the training
//! config and validation every experiment shares, and the paper's
//! QC-Train-PGP setting.

use std::ffi::OsString;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};

use qoc_core::engine::{train, PruningKind, TrainConfig, TrainResult};
use qoc_core::eval::evaluate_with_params;
use qoc_core::prune::PruneConfig;
use qoc_data::dataset::Dataset;
use qoc_data::tasks::Task;
use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend, QuantumBackend};
use qoc_device::backends::{
    fake_jakarta, fake_lima, fake_manila, fake_santiago, DeviceDescription,
};
use qoc_nn::model::QnnModel;
use qoc_sim::simulator::StatevectorSimulator;

/// The QNN architecture the paper assigns to a task.
pub fn model_for(task: Task) -> QnnModel {
    match task {
        Task::Mnist2 => QnnModel::mnist2(),
        Task::Mnist4 => QnnModel::mnist4(),
        Task::Fashion2 => QnnModel::fashion2(),
        Task::Fashion4 => QnnModel::fashion4(),
        Task::Vowel4 => QnnModel::vowel4(),
    }
}

/// The fake device the paper assigns to a task (Table 1 caption).
pub fn device_for(task: Task) -> DeviceDescription {
    match task {
        Task::Mnist4 | Task::Mnist2 => fake_jakarta(),
        Task::Fashion4 => fake_manila(),
        Task::Fashion2 => fake_santiago(),
        Task::Vowel4 => fake_lima(),
    }
}

/// The paper's PGP hyper-parameters for a task: `r = 0.5` everywhere except
/// Fashion-4, which uses `r = 0.7` (Section 4.1, last paragraph).
pub fn pgp_config_for(task: Task) -> PruneConfig {
    PruneConfig {
        accumulation_window: 1,
        pruning_window: 2,
        ratio: if task == Task::Fashion4 { 0.7 } else { 0.5 },
    }
}

/// The MNIST-4 ansatz's exact 16-outcome read-out at a fixed binding
/// (parameters 0.2, pixels 0.7): the input of the
/// `sim/sample_counts/16bins_1024shots` row and its `bench_smoke` gate.
pub fn mnist4_readout() -> Vec<f64> {
    let model = QnnModel::mnist4();
    let theta = model.symbol_vector(
        &vec![0.2; model.num_params()],
        &vec![0.7; model.input_dim()],
    );
    StatevectorSimulator::new()
        .run(model.circuit(), &theta)
        .probabilities()
}

/// A complete per-task experiment context.
#[derive(Debug)]
pub struct TaskBench {
    /// The task.
    pub task: Task,
    /// Its model.
    pub model: QnnModel,
    /// Its emulated device.
    pub device: FakeDevice,
    /// Noiseless reference backend.
    pub simulator: NoiselessBackend,
    /// Train split.
    pub train_set: Dataset,
    /// Validation split.
    pub val_set: Dataset,
}

impl TaskBench {
    /// Loads everything for a task with a data seed.
    pub fn new(task: Task, seed: u64) -> Self {
        let (train_set, val_set) = task.load(seed);
        TaskBench {
            task,
            model: model_for(task),
            device: FakeDevice::new(device_for(task)),
            simulator: NoiselessBackend::new(),
            train_set,
            val_set,
        }
    }

    /// Base training config for this suite. `steps` is the 2-class budget;
    /// 4-class tasks get twice the steps and a larger batch (their loss
    /// landscape needs more signal per step — the paper likewise trains the
    /// 4-class tasks much longer, cf. the Figure 6 x-ranges).
    pub fn config(&self, steps: usize, seed: u64) -> TrainConfig {
        let four_class = self.task.num_classes() == 4;
        let steps = if four_class { steps * 2 } else { steps };
        let mut c = TrainConfig::paper_default(steps);
        c.schedule = qoc_core::sched::LrSchedule::paper_cosine(steps);
        c.batch_size = if four_class { 16 } else { 8 };
        c.eval_every = (steps / 6).max(2);
        c.seed = seed;
        c
    }

    /// QC-Train-PGP: on-device training with probabilistic gradient pruning.
    pub fn train_qc_pgp(&self, steps: usize, seed: u64) -> TrainResult {
        let mut c = self.config(steps, seed);
        c.pruning = PruningKind::Probabilistic(pgp_config_for(self.task));
        train(
            &self.model,
            &self.device,
            &self.train_set,
            &self.val_set,
            &c,
        )
    }

    /// Accuracy of fixed parameters on the validation set, on a backend.
    pub fn validate(
        &self,
        backend: &dyn QuantumBackend,
        params: &[f64],
        max_examples: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let subset = if self.val_set.len() > max_examples {
            self.val_set.sample(max_examples, &mut rng)
        } else {
            self.val_set.clone()
        };
        evaluate_with_params(
            &self.model,
            backend,
            params,
            &subset,
            Execution::Shots(1024),
            seed,
        )
        .accuracy
    }
}

/// A generic named measurement row for JSON persistence.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Row label (task, setting, parameter value, …).
    pub label: String,
    /// Measured values keyed by column.
    pub values: Vec<(String, f64)>,
}

/// One criterion timing row of a `BENCH_*.json` artifact.
pub fn timing_row(
    id: &str,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
) -> Measurement {
    Measurement {
        label: id.to_string(),
        values: vec![
            ("median_ns".into(), median_ns),
            ("mean_ns".into(), mean_ns),
            ("min_ns".into(), min_ns),
            ("samples".into(), samples as f64),
        ],
    }
}

/// Writes a criterion bench's artifact `name` (e.g. `BENCH_density.json`)
/// at the repository root: the timing rows, then the bench's `extra` rows,
/// then a `host` row recording the available parallelism, each replacing
/// the committed row of its label (`merge_artifact`), so a run filtered to
/// some benchmarks rewrites only their rows. `bench_smoke` reads these files
/// back as its baselines.
pub fn write_bench_artifact(
    name: &str,
    timings: impl IntoIterator<Item = Measurement>,
    extra: Vec<Measurement>,
) {
    let mut rows: Vec<Measurement> = timings.into_iter().chain(extra).collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    rows.push(Measurement {
        label: "host".into(),
        values: vec![("available_parallelism".into(), cores as f64)],
    });
    let path = artifact_path(name);
    let committed = std::fs::read_to_string(&path).ok();
    if let Ok(body) = merge_artifact(committed.as_deref(), &rows) {
        if std::fs::write(path, &body).is_ok() {
            println!("wrote {} rows of {name}", rows.len());
        }
    }
}

/// The artifact text `committed` with the `fresh` rows merged in: each
/// committed row whose label a fresh row carries is replaced where it
/// stands, every other committed row is kept as it was, and fresh rows the
/// file lacks are appended. Missing or unreadable text counts as no rows.
fn merge_artifact(
    committed: Option<&str>,
    fresh: &[Measurement],
) -> Result<String, serde_json::Error> {
    let mut fresh: Vec<(&str, Value)> = fresh
        .iter()
        .map(|m| (m.label.as_str(), serde_json::to_value(m)))
        .collect();
    let committed: Option<Value> = committed.and_then(|text| serde_json::from_str(text).ok());
    let mut rows: Vec<Value> = committed
        .as_ref()
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|row| {
            let label = row.get("label").and_then(Value::as_str);
            match fresh.iter().position(|(f, _)| Some(*f) == label) {
                Some(i) => fresh.remove(i).1,
                None => row.clone(),
            }
        })
        .collect();
    rows.extend(fresh.into_iter().map(|(_, row)| row));
    serde_json::to_string_pretty(&Value::Array(rows))
}

/// The path of the repository-root artifact `name`, resolved at run time
/// from the `CARGO_MANIFEST_DIR` cargo sets for the benches and binaries it
/// runs, so a build reused by a copy of the repository reads and writes the
/// copy it runs in. Without that variable (a binary started directly) it
/// falls back to the checkout this crate was compiled in.
pub fn artifact_path(name: &str) -> PathBuf {
    artifact_path_in(std::env::var_os("CARGO_MANIFEST_DIR"), name)
}

/// [`artifact_path`] for a given manifest directory, or the compile-time
/// one when `manifest_dir` is `None`.
fn artifact_path_in(manifest_dir: Option<OsString>, name: &str) -> PathBuf {
    manifest_dir
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("../..")
        .join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_paths_follow_the_run_time_manifest_dir() {
        assert_eq!(
            artifact_path_in(Some("/copy/crates/bench".into()), "BENCH_x.json"),
            PathBuf::from("/copy/crates/bench/../../BENCH_x.json")
        );
        assert_eq!(
            artifact_path_in(None, "BENCH_x.json"),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_x.json")
        );
    }

    #[test]
    fn a_merge_replaces_only_the_measured_rows() {
        let row = |label: &str, x: f64| Measurement {
            label: label.into(),
            values: vec![("min_ns".into(), x), ("samples".into(), 10.0)],
        };
        let render = |rows: &[Measurement]| serde_json::to_string_pretty(&rows).unwrap();
        // Awkward floats survive the trip through the committed text.
        let committed = render(&[row("a", 0.1 + 0.2), row("b", 2.0), row("host", 2.0)]);
        let fresh = [row("b", 1e-7), row("host", 1.0), row("c", 3.5)];
        let merged = merge_artifact(Some(&committed), &fresh).unwrap();
        let want = [
            row("a", 0.1 + 0.2),
            row("b", 1e-7),
            row("host", 1.0),
            row("c", 3.5),
        ];
        assert_eq!(merged, render(&want));
        // Nothing committed: the fresh rows alone.
        assert_eq!(merge_artifact(None, &fresh).unwrap(), render(&fresh));
    }

    #[test]
    fn committed_artifacts_survive_a_merge_byte_for_byte() {
        for name in [
            "BENCH_density.json",
            "BENCH_gate_kernels.json",
            "BENCH_param_shift.json",
        ] {
            let committed = std::fs::read_to_string(artifact_path(name)).unwrap();
            assert_eq!(
                merge_artifact(Some(&committed), &[]).unwrap(),
                committed,
                "{name}"
            );
        }
    }

    #[test]
    fn wiring_matches_paper_assignments() {
        use qoc_device::backend::QuantumBackend as _;
        for &task in qoc_data::tasks::ALL_TASKS {
            let bench = TaskBench::new(task, 1);
            assert_eq!(bench.device.name(), task.paper_device());
            assert_eq!(bench.model.num_classes(), task.num_classes());
            assert_eq!(bench.model.input_dim(), task.feature_dim());
        }
    }

    #[test]
    fn fashion4_uses_higher_ratio() {
        assert_eq!(pgp_config_for(Task::Fashion4).ratio, 0.7);
        assert_eq!(pgp_config_for(Task::Mnist2).ratio, 0.5);
    }
}
