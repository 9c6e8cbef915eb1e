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

use crate::engine::{EvalRecord, StepRecord};
use crate::optim::OptimizerState;
use crate::prune::PrunerState;

/// Format version stamped into every checkpoint; bumped on layout changes.
/// Version 2 added the `alloc` field, which held the accumulators of a
/// since-retired shot allocator and is now always `null`; version-1
/// checkpoints (no `alloc` field) still load. Anything else is rejected
/// outright rather than guessed.
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
    /// The checkpoint carries state of the retired SNR-adaptive shot
    /// allocator, whose run this build cannot continue.
    RetiredShotAllocator,
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
            CheckpointError::RetiredShotAllocator => write!(
                f,
                "checkpoint carries state of the retired SNR-adaptive shot allocator; \
                 this build trains at one shot budget per run and cannot continue it"
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

/// The type of [`TrainState::alloc`]. It has no values: the SNR-adaptive
/// shot allocator whose accumulators the field held is retired, so every
/// checkpoint writes `"alloc": null`, and loading one whose `alloc` is not
/// null fails with [`CheckpointError::RetiredShotAllocator`]. The field is
/// held only so that code building a `TrainState` by struct literal with
/// `alloc: None` keeps compiling, until a change to that code removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetiredShotAllocator {}

impl Serialize for RetiredShotAllocator {
    fn to_json(&self) -> Value {
        match *self {}
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
    /// Always `None`; see [`RetiredShotAllocator`].
    pub alloc: Option<RetiredShotAllocator>,
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
    /// [`CheckpointError::Version`] when `schema_version` is unsupported;
    /// [`CheckpointError::RetiredShotAllocator`] when `alloc` is not null.
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
        // Versions 1 (no `alloc`) and 2 (`alloc` null) are the runs this
        // build can continue.
        if !matches!(root.get("alloc"), None | Some(Value::Null)) {
            return Err(CheckpointError::RetiredShotAllocator);
        }
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
            alloc: None,
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
            alloc: None,
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

    /// `state` as JSON, minus the top-level fields `drop` and with `alloc`
    /// set to `alloc`, at schema version `version`.
    fn rewritten(state: &TrainState, version: u64, drop: &[&str], alloc: Value) -> Value {
        let Value::Object(entries) = serde_json::to_value(state) else {
            unreachable!("a state serializes to an object")
        };
        Value::Object(
            entries
                .into_iter()
                .filter(|(k, _)| !drop.contains(&k.as_str()))
                .map(|(k, v)| match k.as_str() {
                    "schema_version" => (k, Value::UInt(version)),
                    "alloc" => (k, alloc.clone()),
                    _ => (k, v),
                })
                .collect(),
        )
    }

    #[test]
    fn v1_and_v2_checkpoints_without_allocator_state_load() {
        // A v1 file has no `alloc` field, a v2 file a null one: both are
        // runs at one shot budget, which this build continues.
        let state = sample_state();
        let text = serde_json::to_string_pretty(&state).unwrap();
        assert!(text.contains("\"alloc\": null"), "{text}");
        for (version, drop) in [(1, &["alloc"][..]), (2, &[][..])] {
            let root = rewritten(&state, version, drop, Value::Null);
            let parsed = TrainState::from_value(&root).unwrap();
            assert_eq!(parsed, state, "v{version}");
        }
    }

    #[test]
    fn checkpoints_with_allocator_state_are_rejected() {
        // A v2 file written with the retired shot allocator on carries its
        // accumulators; that run cannot be continued at one budget.
        let state = sample_state();
        let snapshot = Value::Object(vec![
            (
                "ema_abs".to_string(),
                Value::Array(vec![Value::Float(0.375)]),
            ),
            ("windows".to_string(), Value::UInt(2)),
        ]);
        for alloc in [snapshot, Value::Bool(false)] {
            let err = TrainState::from_value(&rewritten(&state, 2, &[], alloc)).unwrap_err();
            assert!(
                matches!(err, CheckpointError::RetiredShotAllocator),
                "{err}"
            );
            assert!(err
                .to_string()
                .contains("retired SNR-adaptive shot allocator"));
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
