//! The pinned JSONL schema contracts, as *code* shared by every consumer.
//!
//! Three artifact families come out of a traced run (`QOC_TRACE_FILE`):
//!
//! 1. the **trace** itself — one [`Record`](crate::Record) object per line
//!    (`ts`/`kind`/`level`/`span`/`thread`/`fields`, plus `dur_ns` on
//!    spans);
//! 2. the **satellites** — `<stem>.steps.jsonl` (one `StepRecord` per
//!    line) and `<stem>.evals.jsonl` (one `EvalRecord` per line);
//! 3. the **structured event payloads** — `grad.health`, `prune.efficacy`,
//!    `run.header` and `train.abort` — whose field shapes downstream tooling
//!    (`qoc-analyze`, CI gates) depends on.
//!
//! `qoc-analyze` validates through this module so the contract lives in
//! exactly one place; the golden tests below pin each
//! shape against hand-written JSON so an accidental field rename breaks the
//! build, not the analyzer.

use serde::Value;

/// How a field is allowed to be encoded in JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Unsigned integer (`UInt`, or a non-negative `Int`).
    UInt,
    /// Any numeric value — the vendored serializer emits integral floats as
    /// integers, so "number" must accept `Int`/`UInt`/`Float` alike.
    Num,
    /// Boolean.
    Bool,
    /// String.
    Str,
}

impl FieldKind {
    /// Whether `value` satisfies this kind.
    pub fn matches(self, value: &Value) -> bool {
        match self {
            FieldKind::UInt => value.as_u64().is_some(),
            FieldKind::Num => value.as_f64().is_some(),
            FieldKind::Bool => value.as_bool().is_some(),
            FieldKind::Str => value.as_str().is_some(),
        }
    }
}

/// Required fields of a `grad.health` event: one per evaluated parameter
/// per training step.
pub const GRAD_HEALTH_FIELDS: &[(&str, FieldKind)] = &[
    ("step", FieldKind::UInt),
    ("param", FieldKind::UInt),
    ("grad_abs", FieldKind::Num),
    ("ema", FieldKind::Num),
    ("sigma", FieldKind::Num),
    ("snr", FieldKind::Num),
    ("flip", FieldKind::Bool),
    ("flip_rate", FieldKind::Num),
    ("evals", FieldKind::UInt),
];

/// Required fields of a `prune.efficacy` event: one per completed pruning
/// window (accumulation + pruning stages).
pub const PRUNE_EFFICACY_FIELDS: &[(&str, FieldKind)] = &[
    ("window", FieldKind::UInt),
    ("stage_steps", FieldKind::UInt),
    ("recall", FieldKind::Num),
    ("overlap", FieldKind::UInt),
    ("kept", FieldKind::UInt),
    ("saved_runs", FieldKind::UInt),
    ("wasted_runs", FieldKind::UInt),
    ("measured_savings", FieldKind::Num),
    ("expected_savings", FieldKind::Num),
];

/// Required fields of a `shift.jacobian` span: one per Jacobian the shift
/// engine evaluates outside a training minibatch — its rows, the shifted
/// jobs left to a batch, and who ran the shifted circuits.
pub const SHIFT_JACOBIAN_FIELDS: &[(&str, FieldKind)] = &[
    ("rows", FieldKind::UInt),
    ("jobs", FieldKind::UInt),
    ("mode", FieldKind::Str),
];

/// The values of a `shift.jacobian` span's `mode`: the shifted circuits the
/// backend ran itself by forking one forward evolution, or the declined
/// request's shifted-job batch.
pub const SHIFT_JACOBIAN_MODES: &[&str] = &["forked", "shifted-2p"];

/// Required fields of a `run.header` event: emitted exactly once at train
/// start, carrying the seed-derived `run_id` that joins every artifact of a
/// run (trace, manifest, checkpoint).
pub const RUN_HEADER_FIELDS: &[(&str, FieldKind)] = &[
    ("run_id", FieldKind::Str),
    ("seed", FieldKind::UInt),
    ("steps", FieldKind::UInt),
    ("backend", FieldKind::Str),
];

/// Required fields of a `train.abort` event: emitted once when a batch
/// fails for good, at the step it failed in. A trace that holds one belongs
/// to a run that wrote no satellites.
pub const TRAIN_ABORT_FIELDS: &[(&str, FieldKind)] = &[
    ("step", FieldKind::UInt),
    ("error", FieldKind::Str),
    ("checkpointed", FieldKind::Bool),
];

/// Required fields of one `<stem>.steps.jsonl` line (`StepRecord`).
pub const STEP_RECORD_FIELDS: &[(&str, FieldKind)] = &[
    ("step", FieldKind::UInt),
    ("loss", FieldKind::Num),
    ("lr", FieldKind::Num),
    ("evaluated_params", FieldKind::UInt),
    ("inferences", FieldKind::UInt),
];

/// Required fields of one `<stem>.evals.jsonl` line (`EvalRecord`).
pub const EVAL_RECORD_FIELDS: &[(&str, FieldKind)] = &[
    ("step", FieldKind::UInt),
    ("inferences", FieldKind::UInt),
    ("accuracy", FieldKind::Num),
];

fn check_fields(obj: &Value, spec: &[(&str, FieldKind)], what: &str) -> Result<(), String> {
    for &(name, kind) in spec {
        match obj.get(name) {
            None => return Err(format!("{what}: missing field {name:?}")),
            Some(v) if !kind.matches(v) => {
                return Err(format!("{what}: field {name:?} is not a {kind:?}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Validates one parsed trace line against the base record schema: required
/// keys, `kind` ∈ {span, event}, integer `ts`, `dur_ns` iff span, object
/// `fields`.
pub fn check_trace_record(value: &Value) -> Result<(), String> {
    if value.as_object().is_none() {
        return Err("not a JSON object".to_string());
    }
    for key in ["ts", "kind", "level", "span", "thread", "fields"] {
        if value.get(key).is_none() {
            return Err(format!("missing key {key:?}"));
        }
    }
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "kind is not a string".to_string())?;
    match kind {
        "span" => {
            if value.get("dur_ns").and_then(Value::as_u64).is_none() {
                return Err("span without integer dur_ns".to_string());
            }
        }
        "event" => {
            if value.get("dur_ns").is_some() {
                return Err("event carries dur_ns".to_string());
            }
        }
        other => return Err(format!("unknown kind {other:?}")),
    }
    if value.get("ts").and_then(Value::as_u64).is_none() {
        return Err("ts is not an unsigned integer".to_string());
    }
    if value.get("thread").and_then(Value::as_u64).is_none() {
        return Err("thread is not an unsigned integer".to_string());
    }
    let fields = value
        .get("fields")
        .ok_or_else(|| "missing fields".to_string())?;
    if fields.as_object().is_none() {
        return Err("fields is not an object".to_string());
    }
    // Structured events the analyzer depends on get their payloads checked.
    if kind == "event" {
        match value.get("span").and_then(Value::as_str) {
            Some("grad.health") => check_fields(fields, GRAD_HEALTH_FIELDS, "grad.health")?,
            Some("prune.efficacy") => {
                check_fields(fields, PRUNE_EFFICACY_FIELDS, "prune.efficacy")?
            }
            Some("run.header") => check_fields(fields, RUN_HEADER_FIELDS, "run.header")?,
            Some("train.abort") => check_fields(fields, TRAIN_ABORT_FIELDS, "train.abort")?,
            _ => {}
        }
    }
    // A Jacobian names one of the known modes.
    if kind == "span" && value.get("span").and_then(Value::as_str) == Some("shift.jacobian") {
        check_fields(fields, SHIFT_JACOBIAN_FIELDS, "shift.jacobian")?;
        let mode = fields
            .get("mode")
            .and_then(Value::as_str)
            .unwrap_or_default();
        if !SHIFT_JACOBIAN_MODES.contains(&mode) {
            return Err(format!("shift.jacobian: unknown mode {mode:?}"));
        }
    }
    Ok(())
}

/// Validates one parsed `<stem>.steps.jsonl` line.
pub fn check_step_record(value: &Value) -> Result<(), String> {
    if value.as_object().is_none() {
        return Err("step record is not a JSON object".to_string());
    }
    check_fields(value, STEP_RECORD_FIELDS, "step record")
}

/// Validates one parsed `<stem>.evals.jsonl` line.
pub fn check_eval_record(value: &Value) -> Result<(), String> {
    if value.as_object().is_none() {
        return Err("eval record is not a JSON object".to_string());
    }
    check_fields(value, EVAL_RECORD_FIELDS, "eval record")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    #[test]
    fn golden_grad_health_event_passes() {
        // The pinned wire shape of a grad.health event. If instrumentation
        // renames a field, this breaks here — not in the offline analyzer.
        let line = r#"{"ts":1200,"kind":"event","level":"debug","span":"grad.health","thread":0,"fields":{"step":3,"param":5,"grad_abs":0.0125,"ema":0.0119,"sigma":0.0156,"snr":0.8,"flip":true,"flip_rate":0.25,"evals":4}}"#;
        assert_eq!(check_trace_record(&parse(line)), Ok(()));
    }

    #[test]
    fn golden_prune_efficacy_event_passes() {
        let line = r#"{"ts":9000,"kind":"event","level":"info","span":"prune.efficacy","thread":0,"fields":{"window":0,"stage_steps":3,"recall":0.75,"overlap":3,"kept":4,"saved_runs":64,"wasted_runs":16,"measured_savings":0.3333333333333333,"expected_savings":0.3333333333333333}}"#;
        assert_eq!(check_trace_record(&parse(line)), Ok(()));
    }

    #[test]
    fn golden_run_header_event_passes() {
        // The pinned wire shape of the run-identity event every traced run
        // leads with.
        let line = r#"{"ts":40,"kind":"event","level":"info","span":"run.header","thread":0,"fields":{"run_id":"9a1f0c44d2e6b013","seed":7,"steps":9,"backend":"fake_santiago","resumed":false}}"#;
        assert_eq!(check_trace_record(&parse(line)), Ok(()));
        let missing = r#"{"ts":40,"kind":"event","level":"info","span":"run.header","thread":0,"fields":{"seed":7,"steps":9,"backend":"fake_santiago"}}"#;
        let err = check_trace_record(&parse(missing)).unwrap_err();
        assert!(err.contains("run_id"), "unexpected error: {err}");
    }

    #[test]
    fn golden_train_abort_event_passes() {
        let line = r#"{"ts":9100,"kind":"event","level":"warn","span":"train.abort","thread":0,"fields":{"step":2,"error":"job 3 failed after 1 attempt(s): transient","checkpointed":true}}"#;
        assert_eq!(check_trace_record(&parse(line)), Ok(()));
        let missing = line.replace("\"step\":2,", "");
        let err = check_trace_record(&parse(&missing)).unwrap_err();
        assert!(err.contains("step"), "unexpected error: {err}");
    }

    #[test]
    fn golden_step_and_eval_records_pass() {
        let step = r#"{"step":0,"loss":0.9302,"lr":0.3,"evaluated_params":8,"inferences":68}"#;
        assert_eq!(check_step_record(&parse(step)), Ok(()));
        let eval = r#"{"step":8,"inferences":740,"accuracy":0.875}"#;
        assert_eq!(check_eval_record(&parse(eval)), Ok(()));
    }

    #[test]
    fn integral_floats_count_as_numbers() {
        // The vendored serializer writes 1.0 as "1" — Num must accept it.
        let eval = r#"{"step":8,"inferences":740,"accuracy":1}"#;
        assert_eq!(check_eval_record(&parse(eval)), Ok(()));
    }

    #[test]
    fn health_event_with_missing_field_is_rejected() {
        let line = r#"{"ts":1,"kind":"event","level":"debug","span":"grad.health","thread":0,"fields":{"step":3,"param":5}}"#;
        let err = check_trace_record(&parse(line)).unwrap_err();
        assert!(err.contains("grad_abs"), "unexpected error: {err}");
    }

    #[test]
    fn health_event_with_wrong_type_is_rejected() {
        let line = r#"{"ts":1,"kind":"event","level":"debug","span":"grad.health","thread":0,"fields":{"step":3,"param":5,"grad_abs":"big","ema":0.1,"sigma":0.1,"snr":1.0,"flip":false,"flip_rate":0.0,"evals":1}}"#;
        let err = check_trace_record(&parse(line)).unwrap_err();
        assert!(err.contains("grad_abs"), "unexpected error: {err}");
    }

    #[test]
    fn golden_jacobian_spans_pass_and_unknown_modes_fail() {
        // Pinned wire shape of the shift engine's per-Jacobian span, one per
        // way the backend hook can go.
        for mode in SHIFT_JACOBIAN_MODES {
            let line = format!(
                r#"{{"ts":90,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":80,"fields":{{"rows":8,"jobs":0,"mode":"{mode}"}}}}"#
            );
            assert_eq!(check_trace_record(&parse(&line)), Ok(()), "{mode}");
        }
        let unknown = r#"{"ts":90,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":80,"fields":{"rows":8,"jobs":0,"mode":"prefix"}}"#;
        let err = check_trace_record(&parse(unknown)).unwrap_err();
        assert!(err.contains("unknown mode"), "unexpected error: {err}");
        let missing = r#"{"ts":90,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":80,"fields":{"rows":8,"mode":"forked"}}"#;
        let err = check_trace_record(&parse(missing)).unwrap_err();
        assert!(err.contains("jobs"), "unexpected error: {err}");
    }

    #[test]
    fn base_schema_violations_are_rejected() {
        let missing_dur =
            r#"{"ts":1,"kind":"span","level":"debug","span":"x","thread":0,"fields":{}}"#;
        assert!(check_trace_record(&parse(missing_dur))
            .unwrap_err()
            .contains("dur_ns"));
        let event_with_dur = r#"{"ts":1,"kind":"event","level":"debug","span":"x","thread":0,"dur_ns":5,"fields":{}}"#;
        assert!(check_trace_record(&parse(event_with_dur))
            .unwrap_err()
            .contains("dur_ns"));
        let bad_kind =
            r#"{"ts":1,"kind":"blob","level":"debug","span":"x","thread":0,"fields":{}}"#;
        assert!(check_trace_record(&parse(bad_kind))
            .unwrap_err()
            .contains("unknown kind"));
        assert!(check_trace_record(&parse("[1,2]")).is_err());
    }

    #[test]
    fn satellite_violations_name_the_field() {
        let step = r#"{"step":0,"loss":0.9,"lr":0.3,"inferences":68}"#;
        assert!(check_step_record(&parse(step))
            .unwrap_err()
            .contains("evaluated_params"));
        let eval = r#"{"step":8,"inferences":740,"accuracy":"high"}"#;
        assert!(check_eval_record(&parse(eval))
            .unwrap_err()
            .contains("accuracy"));
    }
}
