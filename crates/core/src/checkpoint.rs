//! Versioned training checkpoints.
//!
//! [`TrainState`] captures the *complete* mutable state of a
//! [`crate::engine`] run between two steps: parameters, optimizer moments,
//! the pruner's magnitude accumulator and window phase, the serial RNG's raw
//! xoshiro words, the per-step/per-eval history, and the backend usage
//! counters accumulated so far. Restoring it resumes training
//! **bit-identically** — including mid-pruning-window — because every source
//! of randomness is either replayed (the seed-derived init prefix) or
//! restored verbatim (the RNG words).
//!
//! Checkpoints are JSON via the workspace's structural serializer. Floats
//! print with Rust's shortest round-trip representation and parse back with
//! `str::parse::<f64>`, so every finite `f64` survives the trip exactly.
//! Saves are atomic (temp file + rename): a crash mid-write never corrupts
//! the previous good checkpoint.

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use qoc_telemetry::env::EnvError;

use crate::alloc::AllocState;
use crate::engine::{EvalRecord, StepRecord};
use crate::optim::OptimizerState;
use crate::prune::PrunerState;

/// Format version stamped into every checkpoint; bumped on layout changes.
/// Version 2 added the optional shot-allocation controller accumulators;
/// version-1 checkpoints (no `alloc` field) still load, with the controller
/// cleanly disabled. Anything else is rejected outright rather than guessed.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// Oldest schema version this build still reads.
pub const CHECKPOINT_SCHEMA_MIN_VERSION: u32 = 1;

/// Default save cadence (steps) when `QOC_CHECKPOINT_EVERY` is unset.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 10;

/// Where and how often the training engine writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file, overwritten atomically at each save.
    pub path: PathBuf,
    /// Save every this many completed steps (and on execution failure).
    pub every: usize,
}

impl CheckpointConfig {
    /// Creates a checkpoint configuration.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every >= 1, "checkpoint interval must be ≥ 1");
        CheckpointConfig {
            path: path.into(),
            every,
        }
    }

    /// Reads `QOC_CHECKPOINT_FILE` (the save path) and `QOC_CHECKPOINT_EVERY`
    /// (the cadence, default [`DEFAULT_CHECKPOINT_EVERY`]). `None` when no
    /// file is configured.
    ///
    /// # Errors
    ///
    /// An [`EnvError`] when the cadence is set but not a positive integer —
    /// a typo'd cadence must fail loudly, not silently disable recovery.
    pub fn from_env() -> Result<Option<Self>, EnvError> {
        let every = qoc_telemetry::env::count("QOC_CHECKPOINT_EVERY")?;
        let Some(path) = qoc_telemetry::env::path("QOC_CHECKPOINT_FILE") else {
            return Ok(None);
        };
        let every = every.map_or(DEFAULT_CHECKPOINT_EVERY, |k| {
            usize::try_from(k).unwrap_or(usize::MAX)
        });
        Ok(Some(CheckpointConfig::new(path, every)))
    }
}

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (missing file, permissions, full disk, …).
    Io(std::io::Error),
    /// The file exists but is not a valid checkpoint.
    Malformed(String),
    /// The checkpoint was written by an unsupported schema version.
    Version(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Version(v) => write!(
                f,
                "unsupported checkpoint schema version {v} (this build reads \
                 versions {CHECKPOINT_SCHEMA_MIN_VERSION}-{CHECKPOINT_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Complete mutable state of a training run between two steps.
///
/// `next_step` is the first step the resumed run will execute; all history
/// vectors cover exactly the steps before it. The `*_base` counters carry
/// the backend usage accumulated before the checkpoint, so resumed runs
/// report combined totals identical to an uninterrupted run (device time is
/// integer nanoseconds — addition is exact and order-independent).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainState {
    /// Checkpoint format version ([`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The run's `TrainConfig::seed` (resume refuses a mismatch).
    pub master_seed: u64,
    /// Seed-derived run identity (see [`crate::engine::run_id_for_seed`]);
    /// joins the checkpoint with the run's trace, manifest, status
    /// snapshots, and black-box dump.
    pub run_id: String,
    /// First step the resumed run executes.
    pub next_step: usize,
    /// Current parameter vector.
    pub params: Vec<f64>,
    /// Optimizer moments/counters.
    pub optimizer: OptimizerState,
    /// Pruner accumulator and window phase.
    pub pruner: PrunerState,
    /// Shot-allocation controller accumulators (schema v2; `None` when the
    /// controller was off, or in checkpoints written before it existed).
    pub alloc: Option<AllocState>,
    /// Raw xoshiro256++ words of the serial training RNG.
    pub rng: [u64; 4],
    /// Per-step records so far.
    pub steps: Vec<StepRecord>,
    /// Validation checkpoints so far.
    pub evals: Vec<EvalRecord>,
    /// Parameter snapshots parallel to `evals`.
    pub checkpoint_params: Vec<Vec<f64>>,
    /// Best validation accuracy so far.
    pub best_accuracy: f64,
    /// Circuit executions before this checkpoint.
    pub inferences_base: u64,
    /// Measurement shots before this checkpoint.
    pub total_shots_base: u64,
    /// Estimated device time before this checkpoint, integer nanoseconds.
    pub device_ns_base: u64,
}

impl TrainState {
    /// Writes the state as pretty JSON, atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        std::fs::write(&tmp, text).map_err(CheckpointError::Io)?;
        std::fs::rename(&tmp, path).map_err(CheckpointError::Io)
    }

    /// Reads a checkpoint written by [`TrainState::save`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read,
    /// [`CheckpointError::Malformed`] when it is not a valid checkpoint, and
    /// [`CheckpointError::Version`] on a schema mismatch.
    pub fn load(path: &Path) -> Result<TrainState, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
        let root =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        TrainState::from_value(&root)
    }

    /// Reconstructs a state from its structural-JSON form.
    ///
    /// The workspace's serde shim has no runtime `Deserialize`, so this
    /// walks the [`Value`] tree by hand, mirroring the derive's layout
    /// (unit enum variants as `"Name"`, struct variants as `{"Name": {…}}`).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on any missing or mistyped field;
    /// [`CheckpointError::Version`] when `schema_version` is unsupported.
    pub fn from_value(root: &Value) -> Result<TrainState, CheckpointError> {
        let version = as_u64(field(root, "schema_version")?, "schema_version")?;
        if version < u64::from(CHECKPOINT_SCHEMA_MIN_VERSION)
            || version > u64::from(CHECKPOINT_SCHEMA_VERSION)
        {
            return Err(CheckpointError::Version(
                version.try_into().unwrap_or(u32::MAX),
            ));
        }
        let rng_words = u64_vec(field(root, "rng")?, "rng")?;
        let rng: [u64; 4] = rng_words
            .as_slice()
            .try_into()
            .map_err(|_| malformed(format!("rng must hold 4 words, got {}", rng_words.len())))?;
        let master_seed = as_u64(field(root, "master_seed")?, "master_seed")?;
        // `run_id` is derivable from the seed, so checkpoints written before
        // it existed still load under schema version 1.
        let run_id = match root.get("run_id") {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| malformed("`run_id` is not a string"))?,
            None => crate::engine::run_id_for_seed(master_seed),
        };
        Ok(TrainState {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            master_seed,
            run_id,
            next_step: as_usize(field(root, "next_step")?, "next_step")?,
            params: f64_vec(field(root, "params")?, "params")?,
            optimizer: parse_optimizer(field(root, "optimizer")?)?,
            pruner: parse_pruner(field(root, "pruner")?)?,
            // v1 checkpoints predate the controller; a missing or null
            // `alloc` resumes with it cleanly disabled.
            alloc: match root.get("alloc") {
                None | Some(Value::Null) => None,
                Some(v) => Some(parse_alloc(v)?),
            },
            rng,
            steps: parse_records(field(root, "steps")?, "steps", parse_step)?,
            evals: parse_records(field(root, "evals")?, "evals", parse_eval)?,
            checkpoint_params: parse_records(
                field(root, "checkpoint_params")?,
                "checkpoint_params",
                |v| f64_vec(v, "checkpoint_params entry"),
            )?,
            best_accuracy: as_f64(field(root, "best_accuracy")?, "best_accuracy")?,
            inferences_base: as_u64(field(root, "inferences_base")?, "inferences_base")?,
            total_shots_base: as_u64(field(root, "total_shots_base")?, "total_shots_base")?,
            device_ns_base: as_u64(field(root, "device_ns_base")?, "device_ns_base")?,
        })
    }
}

fn malformed(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CheckpointError> {
    v.get(key)
        .ok_or_else(|| malformed(format!("missing field `{key}`")))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, CheckpointError> {
    v.as_u64()
        .ok_or_else(|| malformed(format!("`{what}` is not an unsigned integer")))
}

fn as_usize(v: &Value, what: &str) -> Result<usize, CheckpointError> {
    as_u64(v, what)?
        .try_into()
        .map_err(|_| malformed(format!("`{what}` overflows usize")))
}

fn as_f64(v: &Value, what: &str) -> Result<f64, CheckpointError> {
    v.as_f64()
        .ok_or_else(|| malformed(format!("`{what}` is not a number")))
}

fn as_bool(v: &Value, what: &str) -> Result<bool, CheckpointError> {
    v.as_bool()
        .ok_or_else(|| malformed(format!("`{what}` is not a boolean")))
}

fn f64_vec(v: &Value, what: &str) -> Result<Vec<f64>, CheckpointError> {
    v.as_array()
        .ok_or_else(|| malformed(format!("`{what}` is not an array")))?
        .iter()
        .map(|x| as_f64(x, what))
        .collect()
}

fn u64_vec(v: &Value, what: &str) -> Result<Vec<u64>, CheckpointError> {
    v.as_array()
        .ok_or_else(|| malformed(format!("`{what}` is not an array")))?
        .iter()
        .map(|x| as_u64(x, what))
        .collect()
}

fn u32_vec(v: &Value, what: &str) -> Result<Vec<u32>, CheckpointError> {
    u64_vec(v, what)?
        .into_iter()
        .map(|x| {
            x.try_into()
                .map_err(|_| malformed(format!("`{what}` entry overflows u32")))
        })
        .collect()
}

fn parse_records<T>(
    v: &Value,
    what: &str,
    parse: impl Fn(&Value) -> Result<T, CheckpointError>,
) -> Result<Vec<T>, CheckpointError> {
    v.as_array()
        .ok_or_else(|| malformed(format!("`{what}` is not an array")))?
        .iter()
        .map(parse)
        .collect()
}

fn parse_optimizer(v: &Value) -> Result<OptimizerState, CheckpointError> {
    if v.as_str() == Some("Sgd") {
        return Ok(OptimizerState::Sgd);
    }
    if let Some(body) = v.get("Momentum") {
        return Ok(OptimizerState::Momentum {
            velocity: f64_vec(field(body, "velocity")?, "velocity")?,
        });
    }
    if let Some(body) = v.get("Adam") {
        return Ok(OptimizerState::Adam {
            m: f64_vec(field(body, "m")?, "m")?,
            v: f64_vec(field(body, "v")?, "v")?,
            t: u32_vec(field(body, "t")?, "t")?,
        });
    }
    Err(malformed("unrecognized optimizer state"))
}

fn parse_pruner(v: &Value) -> Result<PrunerState, CheckpointError> {
    if v.as_str() == Some("None") {
        return Ok(PrunerState::None);
    }
    if let Some(body) = v.get("Windowed") {
        return Ok(PrunerState::Windowed {
            magnitude: f64_vec(field(body, "magnitude")?, "magnitude")?,
            accumulating: as_bool(field(body, "accumulating")?, "accumulating")?,
            step_in_phase: as_usize(field(body, "step_in_phase")?, "step_in_phase")?,
            last_was_full: as_bool(field(body, "last_was_full")?, "last_was_full")?,
        });
    }
    Err(malformed("unrecognized pruner state"))
}

pub(crate) fn parse_alloc(v: &Value) -> Result<AllocState, CheckpointError> {
    Ok(AllocState {
        ema_abs: f64_vec(field(v, "ema_abs")?, "ema_abs")?,
        noise: f64_vec(field(v, "noise")?, "noise")?,
        evals: u64_vec(field(v, "evals")?, "evals")?,
        skip_streak: u32_vec(field(v, "skip_streak")?, "skip_streak")?,
        prev_was_subset: as_bool(field(v, "prev_was_subset")?, "prev_was_subset")?,
        windows: as_u64(field(v, "windows")?, "windows")?,
        baseline_shots: as_u64(field(v, "baseline_shots")?, "baseline_shots")?,
        requested_shots: as_u64(field(v, "requested_shots")?, "requested_shots")?,
        skipped_evals: as_u64(field(v, "skipped_evals")?, "skipped_evals")?,
        ratio: as_f64(field(v, "ratio")?, "ratio")?,
        pruning_window: as_u64(field(v, "pruning_window")?, "pruning_window")?,
        retunes: as_u64(field(v, "retunes")?, "retunes")?,
        stage: u64_vec(field(v, "stage")?, "stage")?,
    })
}

fn parse_step(v: &Value) -> Result<StepRecord, CheckpointError> {
    Ok(StepRecord {
        step: as_usize(field(v, "step")?, "step")?,
        loss: as_f64(field(v, "loss")?, "loss")?,
        lr: as_f64(field(v, "lr")?, "lr")?,
        evaluated_params: as_usize(field(v, "evaluated_params")?, "evaluated_params")?,
        inferences: as_u64(field(v, "inferences")?, "inferences")?,
    })
}

fn parse_eval(v: &Value) -> Result<EvalRecord, CheckpointError> {
    Ok(EvalRecord {
        step: as_usize(field(v, "step")?, "step")?,
        inferences: as_u64(field(v, "inferences")?, "inferences")?,
        accuracy: as_f64(field(v, "accuracy")?, "accuracy")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainState {
        TrainState {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            master_seed: 0xDEAD_BEEF_0042,
            run_id: crate::engine::run_id_for_seed(0xDEAD_BEEF_0042),
            next_step: 7,
            // Awkward floats: non-terminating binary fractions, subnormal,
            // negative zero — all must survive the JSON round trip exactly.
            params: vec![0.1 + 0.2, -1.0 / 3.0, 4.9e-324, -0.0, 1e300],
            optimizer: OptimizerState::Adam {
                m: vec![0.125, -2.5e-7],
                v: vec![3.3, 0.0],
                t: vec![7, 3],
            },
            pruner: PrunerState::Windowed {
                magnitude: vec![0.25, 0.0125],
                accumulating: false,
                step_in_phase: 1,
                last_was_full: false,
            },
            alloc: Some(AllocState {
                ema_abs: vec![0.375, 1.5e-11],
                noise: vec![0.0625, 4.9e-324],
                evals: vec![7, 6],
                skip_streak: vec![0, 3],
                prev_was_subset: true,
                windows: 2,
                baseline_shots: 1_263_616,
                requested_shots: 402_432,
                skipped_evals: 5,
                ratio: 0.55,
                pruning_window: 3,
                retunes: 1,
                stage: vec![2, 3, 1, 9000, 16384, 2, 2],
            }),
            rng: [u64::MAX, 1, 0x0123_4567_89AB_CDEF, 42],
            steps: vec![StepRecord {
                step: 6,
                loss: std::f64::consts::LN_2,
                lr: 0.03,
                evaluated_params: 4,
                inferences: 1234,
            }],
            evals: vec![EvalRecord {
                step: 4,
                inferences: 900,
                accuracy: 0.875,
            }],
            checkpoint_params: vec![vec![0.5, -0.5]],
            best_accuracy: 0.875,
            inferences_base: 1234,
            total_shots_base: 1_263_616,
            device_ns_base: 987_654_321_012,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let state = sample_state();
        let text = serde_json::to_string_pretty(&state).unwrap();
        let parsed = TrainState::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(state, parsed);
        // Bitwise, not just PartialEq (which would conflate 0.0 and -0.0).
        for (a, b) in state.params.iter().zip(&parsed.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn save_load_round_trip() {
        let state = sample_state();
        let path = std::env::temp_dir().join(format!(
            "qoc_checkpoint_roundtrip_{}.json",
            std::process::id()
        ));
        state.save(&path).unwrap();
        let loaded = TrainState::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state, loaded);
    }

    #[test]
    fn checkpoint_without_run_id_still_loads() {
        // Schema version 1 predates run_id; old checkpoints must load with
        // the identity re-derived from the master seed.
        let state = sample_state();
        let text = serde_json::to_string_pretty(&state).unwrap();
        let root = serde_json::from_str(&text).unwrap();
        let stripped = match root {
            Value::Object(entries) => {
                Value::Object(entries.into_iter().filter(|(k, _)| k != "run_id").collect())
            }
            other => other,
        };
        let parsed = TrainState::from_value(&stripped).unwrap();
        assert_eq!(parsed.run_id, state.run_id, "run_id re-derived from seed");
        assert_eq!(parsed, state);
    }

    #[test]
    fn v1_checkpoint_without_alloc_loads_with_controller_disabled() {
        // Forward compat: a schema-v1 checkpoint predates the shot
        // allocator entirely. It must load cleanly with `alloc: None` so
        // the resumed run continues at the uniform budget.
        let state = sample_state();
        let mut text = serde_json::to_string_pretty(&state).unwrap();
        text = text.replacen(
            &format!("\"schema_version\": {CHECKPOINT_SCHEMA_VERSION}"),
            "\"schema_version\": 1",
            1,
        );
        let root = serde_json::from_str(&text).unwrap();
        let stripped = match root {
            Value::Object(entries) => {
                Value::Object(entries.into_iter().filter(|(k, _)| k != "alloc").collect())
            }
            other => other,
        };
        let parsed = TrainState::from_value(&stripped).unwrap();
        assert_eq!(parsed.alloc, None, "controller cleanly disabled");
        assert_eq!(
            parsed.schema_version, CHECKPOINT_SCHEMA_VERSION,
            "loaded state is normalized to the current schema"
        );
        assert_eq!(parsed.params, state.params);
        assert_eq!(parsed.pruner, state.pruner);
    }

    #[test]
    fn v2_alloc_state_round_trips_exactly() {
        let state = sample_state();
        let text = serde_json::to_string_pretty(&state).unwrap();
        let parsed = TrainState::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        let (a, b) = (
            state.alloc.as_ref().unwrap(),
            parsed.alloc.as_ref().unwrap(),
        );
        assert_eq!(a, b);
        for (x, y) in a.noise.iter().zip(&b.noise) {
            assert_eq!(x.to_bits(), y.to_bits(), "subnormals survive the trip");
        }
    }

    #[test]
    fn load_rejects_wrong_version() {
        let mut text = serde_json::to_string_pretty(&sample_state()).unwrap();
        text = text.replacen(
            &format!("\"schema_version\": {CHECKPOINT_SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        let err = TrainState::from_value(&serde_json::from_str(&text).unwrap()).unwrap_err();
        assert!(matches!(err, CheckpointError::Version(999)), "{err}");
    }

    #[test]
    fn load_reports_missing_fields() {
        let err = TrainState::from_value(&Value::Object(vec![(
            "schema_version".to_string(),
            Value::UInt(u64::from(CHECKPOINT_SCHEMA_VERSION)),
        )]))
        .unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = TrainState::load(Path::new("/nonexistent/qoc.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn env_config_honors_cadence() {
        // from_env reads process-global env vars; run disabled-path check
        // only (setting vars would race with other tests).
        if qoc_telemetry::env::path("QOC_CHECKPOINT_FILE").is_none() {
            assert_eq!(CheckpointConfig::from_env(), Ok(None));
        }
        let cfg = CheckpointConfig::new("/tmp/x.json", 3);
        assert_eq!(cfg.every, 3);
    }

    #[test]
    #[should_panic(expected = "interval must be")]
    fn zero_cadence_rejected() {
        let _ = CheckpointConfig::new("/tmp/x.json", 0);
    }
}
