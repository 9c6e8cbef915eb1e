//! The pinned JSONL schema contracts, as *code* shared by every consumer.
//!
//! Three artifact families come out of a traced run (`QOC_TRACE_FILE`):
//!
//! 1. the **trace** itself — one [`Record`](crate::Record) object per line
//!    (`ts`/`kind`/`level`/`span`/`thread`/`fields`, plus `dur_ns` on
//!    spans);
//! 2. the **satellites** — `<stem>.steps.jsonl` (one `StepRecord` per
//!    line) and `<stem>.evals.jsonl` (one `EvalRecord` per line);
//! 3. two **structured event payloads** introduced by the gradient-health
//!    layer — `grad.health` and `prune.efficacy` — whose field shapes
//!    downstream tooling (`qoc-analyze`, CI gates) depends on.
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

/// Required fields of an `alloc.window` event: one per completed shot-
/// allocation window (closed when a Full step follows Subset steps, and at
/// end of training). `saved_shots` is signed — a controller that spends
/// *more* than the fixed baseline reports a negative number.
pub const ALLOC_WINDOW_FIELDS: &[(&str, FieldKind)] = &[
    ("window", FieldKind::UInt),
    ("stage_steps", FieldKind::UInt),
    ("planned_rows", FieldKind::UInt),
    ("skipped_rows", FieldKind::UInt),
    ("requested_shots", FieldKind::UInt),
    ("baseline_shots", FieldKind::UInt),
    ("saved_shots", FieldKind::Num),
    ("recall", FieldKind::Num),
    ("ratio", FieldKind::Num),
    ("pruning_window", FieldKind::UInt),
    ("retuned", FieldKind::Bool),
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
/// run (trace, manifest, checkpoint, status snapshots, black-box dump).
pub const RUN_HEADER_FIELDS: &[(&str, FieldKind)] = &[
    ("run_id", FieldKind::Str),
    ("seed", FieldKind::UInt),
    ("steps", FieldKind::UInt),
    ("backend", FieldKind::Str),
];

/// Required fields of an `alert.fired` / `alert.resolved` event: one per
/// SLO-rule state transition, emitted at status-exporter cadence.
pub const ALERT_EVENT_FIELDS: &[(&str, FieldKind)] = &[
    ("rule", FieldKind::Str),
    ("metric", FieldKind::Str),
    ("value", FieldKind::Num),
    ("threshold", FieldKind::Num),
    ("windows", FieldKind::UInt),
];

/// Required fields of one `<stem>.alerts.jsonl` line: every rule transition
/// (`fired`, `resolved`, or the `terminal` flush of a still-active firing
/// when the run ends) appends one.
pub const ALERT_LINE_FIELDS: &[(&str, FieldKind)] = &[
    ("ts_ns", FieldKind::UInt),
    ("kind", FieldKind::Str),
    ("rule", FieldKind::Str),
    ("metric", FieldKind::Str),
    ("value", FieldKind::Num),
    ("threshold", FieldKind::Num),
    ("windows", FieldKind::UInt),
    ("snapshot", FieldKind::UInt),
];

/// Required top-level fields of a live status snapshot (`QOC_STATUS_FILE`).
pub const STATUS_DOC_FIELDS: &[(&str, FieldKind)] = &[
    ("schema_version", FieldKind::UInt),
    ("run_id", FieldKind::Str),
    ("state", FieldKind::Str),
    ("backend", FieldKind::Str),
    ("step", FieldKind::UInt),
    ("steps_total", FieldKind::UInt),
    ("loss", FieldKind::Num),
    ("best_accuracy", FieldKind::Num),
    ("prune_phase", FieldKind::Str),
    ("snapshot", FieldKind::UInt),
    ("uptime_ns", FieldKind::UInt),
    ("step_rate", FieldKind::Num),
];

/// Required fields of the `device` sub-object of a status snapshot. These
/// are engine-stamped cumulative counters: the final snapshot of a run must
/// reconcile with the manifest's execution stats to the nanosecond.
pub const STATUS_DEVICE_FIELDS: &[(&str, FieldKind)] = &[
    ("circuits_run", FieldKind::UInt),
    ("total_shots", FieldKind::UInt),
    ("device_ns", FieldKind::UInt),
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
            Some("alloc.window") => check_fields(fields, ALLOC_WINDOW_FIELDS, "alloc.window")?,
            Some("run.header") => check_fields(fields, RUN_HEADER_FIELDS, "run.header")?,
            Some(name @ ("alert.fired" | "alert.resolved")) => {
                check_fields(fields, ALERT_EVENT_FIELDS, name)?
            }
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

/// Validates one parsed status snapshot (`QOC_STATUS_FILE` document, or one
/// line of its `<stem>.history.jsonl` sibling).
pub fn check_status_doc(value: &Value) -> Result<(), String> {
    if value.as_object().is_none() {
        return Err("status doc is not a JSON object".to_string());
    }
    check_fields(value, STATUS_DOC_FIELDS, "status doc")?;
    match value.get("state").and_then(Value::as_str) {
        Some("running" | "finished" | "failed") => {}
        Some(other) => return Err(format!("status doc: unknown state {other:?}")),
        None => unreachable!("checked by STATUS_DOC_FIELDS"),
    }
    let device = value
        .get("device")
        .ok_or_else(|| "status doc: missing device object".to_string())?;
    if device.as_object().is_none() {
        return Err("status doc: device is not an object".to_string());
    }
    check_fields(device, STATUS_DEVICE_FIELDS, "status doc device")?;
    // Optional multi-tenant section (present only when a `qoc-serve` host
    // runs in the publishing process): one object of unsigned counters per
    // tenant.
    if let Some(tenants) = value.get("tenants") {
        let Some(entries) = tenants.as_object() else {
            return Err("status doc: tenants is not an object".to_string());
        };
        for (tenant, fields) in entries {
            let Some(fields) = fields.as_object() else {
                return Err(format!("status doc: tenant {tenant:?} is not an object"));
            };
            for (field, v) in fields {
                if !FieldKind::UInt.matches(v) {
                    return Err(format!(
                        "status doc: tenant {tenant:?} field {field:?} is not a UInt"
                    ));
                }
            }
        }
    }
    // Optional SLO/alert section (present only when alert rules are
    // installed in the publishing process).
    if let Some(alerts) = value.get("alerts") {
        if alerts.as_object().is_none() {
            return Err("status doc: alerts is not an object".to_string());
        }
        for key in ["rules", "fired_total", "resolved_total"] {
            match alerts.get(key) {
                Some(v) if FieldKind::UInt.matches(v) => {}
                Some(_) => return Err(format!("status doc: alerts.{key} is not a UInt")),
                None => return Err(format!("status doc: alerts missing {key}")),
            }
        }
        let Some(active) = alerts.get("active").and_then(Value::as_array) else {
            return Err("status doc: alerts.active is not an array".to_string());
        };
        for entry in active {
            for key in ["rule", "metric"] {
                if entry.get(key).and_then(Value::as_str).is_none() {
                    return Err(format!("status doc: active alert missing Str {key}"));
                }
            }
        }
    }
    Ok(())
}

/// Validates one parsed `<stem>.alerts.jsonl` line.
pub fn check_alert_line(value: &Value) -> Result<(), String> {
    if value.as_object().is_none() {
        return Err("alert line is not a JSON object".to_string());
    }
    check_fields(value, ALERT_LINE_FIELDS, "alert line")?;
    match value.get("kind").and_then(Value::as_str) {
        Some("fired" | "resolved" | "terminal") => Ok(()),
        Some(other) => Err(format!("alert line: unknown kind {other:?}")),
        None => unreachable!("checked by ALERT_LINE_FIELDS"),
    }
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
    fn golden_alloc_window_event_passes() {
        // The pinned wire shape of a shot-allocation window summary.
        let line = r#"{"ts":9100,"kind":"event","level":"info","span":"alloc.window","thread":0,"fields":{"window":2,"stage_steps":3,"planned_rows":5,"skipped_rows":1,"requested_shots":402432,"baseline_shots":1263616,"saved_shots":861184,"recall":0.75,"ratio":0.55,"pruning_window":3,"retuned":false}}"#;
        assert_eq!(check_trace_record(&parse(line)), Ok(()));
        // Negative savings (controller overspent) are legal — Num, not UInt.
        let overspent = line.replace("\"saved_shots\":861184", "\"saved_shots\":-512.0");
        assert_eq!(check_trace_record(&parse(&overspent)), Ok(()));
        let missing = line.replace("\"recall\":0.75,", "");
        let err = check_trace_record(&parse(&missing)).unwrap_err();
        assert!(err.contains("recall"), "unexpected error: {err}");
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
    fn golden_status_doc_passes() {
        // The pinned shape of a live status snapshot. Extra sections (snr,
        // queue_wait_ns, pool, …) are allowed; the core contract is not.
        let doc = r#"{"schema_version":1,"run_id":"9a1f0c44d2e6b013","state":"running","backend":"fake_santiago","step":3,"steps_total":9,"loss":0.41,"best_accuracy":0.75,"prune_phase":"accumulating","snapshot":4,"uptime_ns":1200345,"step_rate":1.5,"eta_seconds":4.0,"device":{"circuits_run":740,"total_shots":757760,"device_ns":91234567}}"#;
        assert_eq!(check_status_doc(&parse(doc)), Ok(()));
        let bad_state = doc.replace("\"running\"", "\"sideways\"");
        assert!(check_status_doc(&parse(&bad_state))
            .unwrap_err()
            .contains("unknown state"));
        let no_device = r#"{"schema_version":1,"run_id":"x","state":"running","backend":"b","step":1,"steps_total":2,"loss":0.5,"best_accuracy":0.0,"prune_phase":"none","snapshot":1,"uptime_ns":10,"step_rate":0.0}"#;
        assert!(check_status_doc(&parse(no_device))
            .unwrap_err()
            .contains("device"));
        // The optional multi-tenant section: objects of UInt counters.
        let with_tenants = doc.replace(
            "\"device\":",
            r#""tenants":{"acme":{"completed":12,"preempted":2},"beta":{"completed":7}},"device":"#,
        );
        assert_eq!(check_status_doc(&parse(&with_tenants)), Ok(()));
        let bad_tenant = doc.replace(
            "\"device\":",
            r#""tenants":{"acme":{"completed":"twelve"}},"device":"#,
        );
        let err = check_status_doc(&parse(&bad_tenant)).unwrap_err();
        assert!(err.contains("acme"), "unexpected error: {err}");
    }

    #[test]
    fn golden_alert_events_and_lines_pass() {
        // The pinned wire shape of an SLO transition event.
        let fired = r#"{"ts":88000,"kind":"event","level":"warn","span":"alert.fired","thread":0,"fields":{"rule":"qoc.grad.snr p50 < 0.5 for 3 windows","metric":"qoc.grad.snr","value":0.31,"threshold":0.5,"windows":3}}"#;
        assert_eq!(check_trace_record(&parse(fired)), Ok(()));
        let resolved = fired.replace("alert.fired", "alert.resolved");
        assert_eq!(check_trace_record(&parse(&resolved)), Ok(()));
        let missing = fired.replace("\"metric\":\"qoc.grad.snr\",", "");
        let err = check_trace_record(&parse(&missing)).unwrap_err();
        assert!(err.contains("metric"), "unexpected error: {err}");

        // The pinned shape of one <stem>.alerts.jsonl line; every firing
        // pairs with a resolved or terminal line carrying the same rule.
        let line = r#"{"ts_ns":91234567,"kind":"fired","rule":"qoc.device.retries > 0","metric":"qoc.device.retries","value":3,"threshold":0,"windows":1,"snapshot":7}"#;
        assert_eq!(check_alert_line(&parse(line)), Ok(()));
        for kind in ["resolved", "terminal"] {
            let l = line.replace("\"kind\":\"fired\"", &format!("\"kind\":\"{kind}\""));
            assert_eq!(check_alert_line(&parse(&l)), Ok(()));
        }
        let bad_kind = line.replace("\"kind\":\"fired\"", "\"kind\":\"sideways\"");
        assert!(check_alert_line(&parse(&bad_kind))
            .unwrap_err()
            .contains("unknown kind"));
        let missing = line.replace("\"snapshot\":7", "\"snapshots\":7");
        assert!(check_alert_line(&parse(&missing))
            .unwrap_err()
            .contains("snapshot"));
    }

    #[test]
    fn status_doc_alerts_section_is_validated() {
        let doc = r#"{"schema_version":1,"run_id":"9a1f0c44d2e6b013","state":"running","backend":"fake_santiago","step":3,"steps_total":9,"loss":0.41,"best_accuracy":0.75,"prune_phase":"accumulating","snapshot":4,"uptime_ns":1200345,"step_rate":1.5,"device":{"circuits_run":740,"total_shots":757760,"device_ns":91234567}}"#;
        let with_alerts = doc.replace(
            "\"device\":",
            r#""alerts":{"rules":2,"fired_total":1,"resolved_total":0,"active":[{"rule":"qoc.device.retries > 0","metric":"qoc.device.retries"}]},"device":"#,
        );
        assert_eq!(check_status_doc(&parse(&with_alerts)), Ok(()));
        let bad_total = with_alerts.replace("\"fired_total\":1", "\"fired_total\":\"one\"");
        assert!(check_status_doc(&parse(&bad_total))
            .unwrap_err()
            .contains("fired_total"));
        let bad_active = with_alerts.replace(
            r#"[{"rule":"qoc.device.retries > 0","metric":"qoc.device.retries"}]"#,
            r#"[{"rule":"qoc.device.retries > 0"}]"#,
        );
        assert!(check_status_doc(&parse(&bad_active))
            .unwrap_err()
            .contains("metric"));
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
