//! CI gate for the live observability plane (`ci.sh monitor`).
//!
//! Validates the artifacts a status-exported training run leaves behind:
//!
//! 1. **Status file** (`QOC_STATUS_FILE`) — parses, satisfies
//!    [`qoc_telemetry::schema::check_status_doc`], and reports a terminal
//!    `"finished"` state.
//! 2. **History sibling** (`<stem>.history.jsonl`) — at least 3 snapshots,
//!    every line schema-valid, `step` and the cumulative device counters
//!    (`circuits_run`, `total_shots`, `device_ns`) monotone non-decreasing,
//!    the `snapshot` counter strictly increasing, and one `run_id` across
//!    the whole series.
//! 3. **Manifest reconciliation** — the final snapshot's device counters
//!    must equal the run manifest's `ExecutionStats` *exactly* (`device_ns`
//!    to the nanosecond: both sides come from the same integer counters),
//!    and the `run_id`s must match.
//! 4. **Prometheus sibling** (`<stem>.prom`) — every line obeys the
//!    text-exposition grammar, at least 20 `# TYPE` metric families are
//!    exposed, and the `qoc_grad_snr` summary is among them.
//!
//! 5. **Alert log** (`<stem>.alerts.jsonl`, with `--alerts`) — every line
//!    satisfies [`qoc_telemetry::schema::check_alert_line`], every `fired`
//!    entry is eventually paired with a `resolved` or `terminal` entry for
//!    the same (rule, metric), and the firing set matches the expectation:
//!    `--alerts none` demands zero firings (the clean-run gate), while
//!    `--alerts expect=SUBSTR[,SUBSTR...]` demands at least one firing
//!    whose rule text contains each substring (the fault-run gate).
//!
//! Usage: `monitor_check STATUS_FILE MANIFEST_FILE [--alerts none|expect=...]`.
//!
//! Exit codes mirror `qoc-analyze`: **2** when an input file is missing,
//! **1** when an artifact is malformed or an invariant fails, **0** when
//! the observability plane is healthy.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qoc_telemetry::schema::{check_alert_line, check_status_doc};
use serde::Value;

fn fail(msg: &str) -> ExitCode {
    eprintln!("monitor_check: {msg}");
    ExitCode::from(1)
}

fn fail_missing(msg: &str) -> ExitCode {
    eprintln!("monitor_check: missing input: {msg}");
    ExitCode::from(2)
}

enum CheckError {
    Missing(String),
    Malformed(String),
}

fn read_file(path: &Path, what: &str) -> Result<String, CheckError> {
    std::fs::read_to_string(path).map_err(|e| {
        let msg = format!("cannot read {what} {}: {e}", path.display());
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckError::Missing(msg)
        } else {
            CheckError::Malformed(msg)
        }
    })
}

/// Integer device counter from a status doc's `device` section.
fn device_counter(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get("device")
        .and_then(|d| d.get(key))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("status doc missing device.{key}"))
}

/// Validates the history series and returns the final (terminal) snapshot.
fn check_history(text: &str) -> Result<Value, String> {
    let mut last: Option<Value> = None;
    let mut lines = 0u64;
    let mut prev_step = 0u64;
    let mut prev_snapshot = 0u64;
    let mut prev_device = [0u64; 3];
    let mut run_id: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let doc = serde_json::from_str(line)
            .map_err(|e| format!("history line {}: not valid JSON ({e})", i + 1))?;
        check_status_doc(&doc).map_err(|e| format!("history line {}: {e}", i + 1))?;
        lines += 1;
        let step = doc.get("step").and_then(Value::as_u64).unwrap_or(0);
        if step < prev_step {
            return Err(format!(
                "history line {}: step went backwards ({} after {})",
                i + 1,
                step,
                prev_step
            ));
        }
        prev_step = step;
        let snapshot = doc.get("snapshot").and_then(Value::as_u64).unwrap_or(0);
        if snapshot <= prev_snapshot {
            return Err(format!(
                "history line {}: snapshot counter not strictly increasing \
                 ({snapshot} after {prev_snapshot})",
                i + 1
            ));
        }
        prev_snapshot = snapshot;
        for (slot, key) in prev_device
            .iter_mut()
            .zip(["circuits_run", "total_shots", "device_ns"])
        {
            let v =
                device_counter(&doc, key).map_err(|e| format!("history line {}: {e}", i + 1))?;
            if v < *slot {
                return Err(format!(
                    "history line {}: device.{key} went backwards ({v} after {})",
                    i + 1,
                    *slot
                ));
            }
            *slot = v;
        }
        let id = doc
            .get("run_id")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        match &run_id {
            None => run_id = Some(id),
            Some(prev) if *prev != id => {
                return Err(format!(
                    "history line {}: run_id changed mid-series ({prev} → {id})",
                    i + 1
                ))
            }
            Some(_) => {}
        }
        last = Some(doc);
    }
    if lines < 3 {
        return Err(format!(
            "history has only {lines} snapshots (need ≥ 3 — did the run export per step?)"
        ));
    }
    println!("monitor_check: history ok: {lines} snapshots, monotone counters");
    last.ok_or_else(|| "history is empty".to_string())
}

/// Reconciles the final snapshot against the run manifest — exact integer
/// equality, device time to the nanosecond.
fn check_manifest_reconciliation(final_doc: &Value, manifest: &Value) -> Result<(), String> {
    let stats = manifest
        .get("execution_stats")
        .ok_or("manifest missing execution_stats")?;
    let stat_u64 = |key: &str| {
        stats
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest missing execution_stats.{key}"))
    };
    let circuits = stat_u64("circuits_run")?;
    let shots = stat_u64("total_shots")?;
    let device_ns = stats
        .get("estimated_device_seconds")
        .and_then(Value::as_f64)
        .map(|secs| (secs * 1e9).round() as u64)
        .ok_or("manifest missing execution_stats.estimated_device_seconds")?;
    for (key, manifest_value) in [
        ("circuits_run", circuits),
        ("total_shots", shots),
        ("device_ns", device_ns),
    ] {
        let snapshot_value = device_counter(final_doc, key)?;
        if snapshot_value != manifest_value {
            return Err(format!(
                "final snapshot device.{key} = {snapshot_value} but manifest says \
                 {manifest_value} (must reconcile exactly)"
            ));
        }
    }
    let doc_run_id = final_doc.get("run_id").and_then(Value::as_str);
    let manifest_run_id = manifest.get("run_id").and_then(Value::as_str);
    if doc_run_id != manifest_run_id {
        return Err(format!(
            "run_id mismatch: snapshot {doc_run_id:?} vs manifest {manifest_run_id:?}"
        ));
    }
    println!(
        "monitor_check: manifest reconciled: {circuits} circuits, {shots} shots, \
         {device_ns} device-ns, run_id {}",
        doc_run_id.unwrap_or("?")
    );
    Ok(())
}

/// Validates the Prometheus sibling's line grammar and family coverage.
fn check_prom(text: &str) -> Result<(), String> {
    let mut families = 0usize;
    let mut has_snr = false;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if name.is_empty()
                || !matches!(kind, "counter" | "gauge" | "histogram" | "summary")
                || parts.next().is_some()
            {
                return Err(format!(
                    "prom line {}: malformed # TYPE line: {line}",
                    i + 1
                ));
            }
            families += 1;
            has_snr |= name == "qoc_grad_snr";
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or other comments
        }
        // Sample line: `name[{labels}] value`.
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("prom line {}: no sample value: {line}", i + 1))?;
        if name_part.is_empty() {
            return Err(format!("prom line {}: empty metric name: {line}", i + 1));
        }
        let bare = name_part.split('{').next().unwrap_or("");
        if !bare
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || bare.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!(
                "prom line {}: illegal metric name {bare:?}: {line}",
                i + 1
            ));
        }
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!(
                "prom line {}: unparseable value {value:?}: {line}",
                i + 1
            ));
        }
    }
    if families < 20 {
        return Err(format!(
            "prometheus sibling exposes only {families} metric families (need ≥ 20)"
        ));
    }
    if !has_snr {
        return Err("prometheus sibling has no qoc_grad_snr summary".to_string());
    }
    println!("monitor_check: prometheus ok: {families} families, qoc_grad_snr present");
    Ok(())
}

/// Parsed `--alerts` expectation.
enum AlertExpectation {
    /// The clean-run gate: zero firings.
    None,
    /// The fault-run gate: each substring must match ≥ 1 fired rule.
    Expect(Vec<String>),
}

/// Validates `<stem>.alerts.jsonl`: schema per line, fired/outcome pairing,
/// and the caller's expectation about which rules fired.
fn check_alerts(text: &str, expectation: &AlertExpectation) -> Result<(), String> {
    // (rule, metric) → outstanding firing count. Re-fires after a resolve
    // are legal, so this is a counter, not a set.
    let mut open: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    let mut fired_rules: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let doc: Value = serde_json::from_str(line)
            .map_err(|e| format!("alerts line {}: not valid JSON ({e})", i + 1))?;
        check_alert_line(&doc).map_err(|e| format!("alerts line {}: {e}", i + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let key = (field("rule"), field("metric"));
        match field("kind").as_str() {
            "fired" => {
                fired_rules.push(key.0.clone());
                *open.entry(key).or_insert(0) += 1;
            }
            "resolved" | "terminal" => {
                let outstanding = open.entry(key.clone()).or_insert(0);
                if *outstanding == 0 {
                    return Err(format!(
                        "alerts line {}: {:?} for {} [{}] without a prior firing",
                        i + 1,
                        field("kind"),
                        key.1,
                        key.0
                    ));
                }
                *outstanding -= 1;
            }
            _ => unreachable!("checked by check_alert_line"),
        }
    }
    if let Some(((rule, metric), n)) = open.iter().find(|(_, n)| **n > 0) {
        return Err(format!(
            "{n} firing(s) of {metric} [{rule}] never resolved or flushed terminal — \
             every firing must be paired with an outcome"
        ));
    }
    match expectation {
        AlertExpectation::None => {
            if !fired_rules.is_empty() {
                return Err(format!(
                    "expected a clean run but {} alert(s) fired: {}",
                    fired_rules.len(),
                    fired_rules.join("; ")
                ));
            }
            println!("monitor_check: alerts ok: clean run, zero firings");
        }
        AlertExpectation::Expect(substrings) => {
            for want in substrings {
                if !fired_rules.iter().any(|r| r.contains(want.as_str())) {
                    return Err(format!(
                        "expected a firing matching {want:?} but fired rules were: [{}]",
                        fired_rules.join("; ")
                    ));
                }
            }
            println!(
                "monitor_check: alerts ok: {} firing(s), all paired, expectations {:?} met",
                fired_rules.len(),
                substrings
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut alerts: Option<AlertExpectation> = None;
    if let Some(pos) = args.iter().position(|a| a == "--alerts") {
        let Some(spec) = args.get(pos + 1).cloned() else {
            return fail("--alerts needs a mode: none | expect=SUBSTR[,SUBSTR...]");
        };
        alerts = Some(match spec.as_str() {
            "none" => AlertExpectation::None,
            s => match s.strip_prefix("expect=") {
                Some(list) if !list.is_empty() => {
                    AlertExpectation::Expect(list.split(',').map(str::to_string).collect())
                }
                _ => return fail(&format!("--alerts: unknown mode {spec:?}")),
            },
        });
        args.drain(pos..pos + 2);
    }
    let [status_arg, manifest_arg] = args.as_slice() else {
        return fail("usage: monitor_check STATUS_FILE MANIFEST_FILE [--alerts none|expect=...]");
    };
    let status_path = PathBuf::from(status_arg);
    let manifest_path = PathBuf::from(manifest_arg);

    let read = |path: &Path, what: &str| read_file(path, what);
    let status_text = match read(&status_path, "status file") {
        Ok(t) => t,
        Err(CheckError::Missing(m)) => return fail_missing(&m),
        Err(CheckError::Malformed(m)) => return fail(&m),
    };
    let status_doc = match serde_json::from_str(&status_text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("status file is not valid JSON: {e}")),
    };
    if let Err(e) = check_status_doc(&status_doc) {
        return fail(&format!("status file: {e}"));
    }
    match status_doc.get("state").and_then(Value::as_str) {
        Some("finished") => {}
        other => {
            return fail(&format!(
                "status file state is {other:?}, expected \"finished\" — the run did not \
                 publish its terminal snapshot"
            ))
        }
    }
    println!("monitor_check: status file ok: terminal state \"finished\"");

    let history_path = status_path.with_extension("history.jsonl");
    let history_text = match read(&history_path, "history sibling") {
        Ok(t) => t,
        Err(CheckError::Missing(m)) => return fail_missing(&m),
        Err(CheckError::Malformed(m)) => return fail(&m),
    };
    let final_doc = match check_history(&history_text) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };

    let manifest_text = match read(&manifest_path, "manifest") {
        Ok(t) => t,
        Err(CheckError::Missing(m)) => return fail_missing(&m),
        Err(CheckError::Malformed(m)) => return fail(&m),
    };
    let manifest = match serde_json::from_str(&manifest_text) {
        Ok(m) => m,
        Err(e) => return fail(&format!("manifest is not valid JSON: {e}")),
    };
    // The terminal snapshot is written twice — to the status file and as
    // the history's last line; both must carry the manifest's exact
    // integers (a divergence would mean a stray heartbeat won a race).
    if let Err(e) = check_manifest_reconciliation(&status_doc, &manifest) {
        return fail(&e);
    }
    if let Err(e) = check_manifest_reconciliation(&final_doc, &manifest) {
        return fail(&format!("final history line: {e}"));
    }

    let prom_path = status_path.with_extension("prom");
    let prom_text = match read(&prom_path, "prometheus sibling") {
        Ok(t) => t,
        Err(CheckError::Missing(m)) => return fail_missing(&m),
        Err(CheckError::Malformed(m)) => return fail(&m),
    };
    if let Err(e) = check_prom(&prom_text) {
        return fail(&e);
    }

    if let Some(expectation) = &alerts {
        let alerts_path = status_path.with_extension("alerts.jsonl");
        // An absent log means zero transitions — fine for a clean run,
        // fatal when firings were expected.
        let alerts_text = match read(&alerts_path, "alerts log") {
            Ok(t) => t,
            Err(CheckError::Missing(m)) => match expectation {
                AlertExpectation::None => {
                    println!("monitor_check: alerts ok: no log, zero firings");
                    String::new()
                }
                AlertExpectation::Expect(_) => return fail_missing(&m),
            },
            Err(CheckError::Malformed(m)) => return fail(&m),
        };
        if !alerts_text.is_empty() {
            if let Err(e) = check_alerts(&alerts_text, expectation) {
                return fail(&e);
            }
        }
    }
    println!("monitor_check: observability plane healthy");
    ExitCode::SUCCESS
}
