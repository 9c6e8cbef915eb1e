//! Offline analysis of a traced run (`QOC_TRACE_FILE` JSONL plus the
//! `.steps.jsonl` / `.evals.jsonl` / `.manifest.json` satellites).
//!
//! The analyzer never talks to a backend: everything it reports is
//! reconstructed from the artifacts a traced training run leaves behind.
//!
//! 1. **Span forest** — span records carry only their *end* timestamp and
//!    duration, so each span's start is `ts − dur_ns`; per thread, sorting
//!    by `(start asc, end desc)` and replaying against a stack rebuilds the
//!    nesting exactly (guards are dropped LIFO). A span that never closed
//!    (crash, abort) simply has no record; its children reattach to the
//!    nearest closed ancestor.
//! 2. **Folded stacks** — `thread-0;train.run;grad.minibatch 1234` lines
//!    (self-time nanoseconds), directly consumable by
//!    `inferno-flamegraph` / `flamegraph.pl`.
//! 3. **Phase table** — wall time vs *device* time per training phase. The
//!    `device.batch` spans carry exact per-batch `device_ns` / `circuits`
//!    deltas, so attributing each batch to its enclosing `grad.minibatch`
//!    or `eval.dataset` ancestor splits the run's device-time budget with
//!    no estimation; the total must reconcile against the manifest's
//!    `ExecutionStats` to the nanosecond.
//! 4. **Gradient-health report** — per-parameter SNR/EMA/sign-flip table
//!    and the per-window PGP efficacy curve, straight from the
//!    `grad.health` / `prune.efficacy` events
//!    ([`qoc_telemetry::schema`] pins their shapes).
//!
//! [`Analysis::sanity_failures`] distills the CI gates: a nonempty span
//! forest, device-time exactness, pruning efficacy present when the run
//! pruned, and the measured run-savings landing near the paper's
//! `r·w_p/(w_a+w_p)` — counted over the steps this process ran, each
//! pruning-window step expecting `r` and each accumulation step nothing, so
//! a run that stops or resumes mid-stage is judged on the steps it has.

use std::collections::BTreeMap;

use qoc_telemetry::schema;
use serde::Value;

/// One parsed trace line.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Nanoseconds since telemetry init; for spans this is the *end* time.
    pub ts: u64,
    /// `true` for spans, `false` for events.
    pub is_span: bool,
    /// Record name (`span` key).
    pub name: String,
    /// Emitting thread.
    pub thread: u64,
    /// Span duration (spans only).
    pub dur_ns: Option<u64>,
    /// The `fields` payload.
    pub fields: Value,
}

impl TraceRecord {
    fn from_value(value: &Value) -> TraceRecord {
        TraceRecord {
            ts: value.get("ts").and_then(Value::as_u64).unwrap_or(0),
            is_span: value.get("kind").and_then(Value::as_str) == Some("span"),
            name: value
                .get("span")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            thread: value.get("thread").and_then(Value::as_u64).unwrap_or(0),
            dur_ns: value.get("dur_ns").and_then(Value::as_u64),
            fields: value.get("fields").cloned().unwrap_or(Value::Null),
        }
    }

    /// Integer field lookup on the payload.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Value::as_u64)
    }

    /// Numeric field lookup on the payload.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_f64)
    }
}

/// Whether a bad line may be forgiven as a *truncated tail*: it is the
/// file's final line **and** the file has no trailing newline — exactly the
/// signature a buffered JSONL writer leaves when its process is killed
/// mid-`writeln`. Any earlier line, or a final line that *is*
/// newline-terminated, stays a hard error (those are corruption, not a
/// crash artifact).
pub fn is_truncated_tail(text: &str, line_index: usize) -> bool {
    !text.ends_with('\n') && line_index + 1 == text.lines().count()
}

/// Parses and schema-validates a whole trace file, returning the records
/// plus the number of truncated tail lines tolerated (0 or 1; see
/// [`is_truncated_tail`]). The error names the offending 1-based line.
pub fn parse_trace(text: &str) -> Result<(Vec<TraceRecord>, u64), String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let checked = serde_json::from_str(line)
            .map_err(|e| format!("not valid JSON ({e})"))
            .and_then(|value| schema::check_trace_record(&value).map(|()| value));
        match checked {
            Ok(value) => records.push(TraceRecord::from_value(&value)),
            Err(_) if is_truncated_tail(text, i) => {
                eprintln!(
                    "warning: trace line {} is a truncated tail (no trailing newline) — \
                     tolerated as a crash artifact",
                    i + 1
                );
                return Ok((records, 1));
            }
            Err(e) => return Err(format!("trace line {}: {e}: {line}", i + 1)),
        }
    }
    Ok((records, 0))
}

/// Parses a JSONL satellite with a per-line validator, returning the
/// records plus the number of truncated tail lines tolerated (0 or 1).
pub fn parse_satellite(
    text: &str,
    what: &str,
    check: impl Fn(&Value) -> Result<(), String>,
) -> Result<(Vec<Value>, u64), String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let checked = serde_json::from_str(line)
            .map_err(|e| format!("not valid JSON ({e})"))
            .and_then(|value| check(&value).map(|()| value));
        match checked {
            Ok(value) => records.push(value),
            Err(_) if is_truncated_tail(text, i) => {
                eprintln!(
                    "warning: {what} line {} is a truncated tail (no trailing newline) — \
                     tolerated as a crash artifact",
                    i + 1
                );
                return Ok((records, 1));
            }
            Err(e) => return Err(format!("{what} line {}: {e}: {line}", i + 1)),
        }
    }
    Ok((records, 0))
}

/// A reconstructed span with its tree links.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Owning thread.
    pub thread: u64,
    /// Start time (`ts − dur_ns`).
    pub start: u64,
    /// End time (the record's `ts`).
    pub end: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The span's field payload.
    pub fields: Value,
    /// Child node indices, in start order.
    pub children: Vec<usize>,
    /// Parent node index (`None` for thread roots).
    pub parent: Option<usize>,
}

/// The per-thread span forest of a trace.
#[derive(Debug, Default)]
pub struct SpanForest {
    /// Arena of spans.
    pub nodes: Vec<SpanNode>,
    /// Root node indices, grouped by thread then start time.
    pub roots: Vec<usize>,
}

impl SpanForest {
    /// Rebuilds the forest from parsed trace records (events are ignored).
    pub fn build(records: &[TraceRecord]) -> SpanForest {
        let mut nodes: Vec<SpanNode> = records
            .iter()
            .filter(|r| r.is_span)
            .map(|r| {
                let dur = r.dur_ns.unwrap_or(0);
                SpanNode {
                    name: r.name.clone(),
                    thread: r.thread,
                    start: r.ts.saturating_sub(dur),
                    end: r.ts,
                    dur_ns: dur,
                    fields: r.fields.clone(),
                    children: Vec::new(),
                    parent: None,
                }
            })
            .collect();
        // Per thread: by start ascending; on ties the longer span is the
        // ancestor (guards drop LIFO, so an enclosing span always spans its
        // children's interval).
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            (
                nodes[a].thread,
                nodes[a].start,
                std::cmp::Reverse(nodes[a].end),
            )
                .cmp(&(
                    nodes[b].thread,
                    nodes[b].start,
                    std::cmp::Reverse(nodes[b].end),
                ))
        });
        let mut roots = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut current_thread = None;
        for &idx in &order {
            if current_thread != Some(nodes[idx].thread) {
                stack.clear();
                current_thread = Some(nodes[idx].thread);
            }
            while let Some(&top) = stack.last() {
                if nodes[top].end <= nodes[idx].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            match stack.last() {
                Some(&parent) => {
                    nodes[idx].parent = Some(parent);
                    nodes[parent].children.push(idx);
                }
                None => roots.push(idx),
            }
            stack.push(idx);
        }
        SpanForest { nodes, roots }
    }

    /// Number of spans in the forest.
    pub fn span_count(&self) -> usize {
        self.nodes.len()
    }

    /// The `thread-N;root;…;name` stack of a node.
    pub fn stack(&self, idx: usize) -> String {
        let mut names = Vec::new();
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            names.push(self.nodes[i].name.as_str());
            cursor = self.nodes[i].parent;
        }
        names.push(""); // placeholder replaced by the thread prefix below
        let mut out = format!("thread-{}", self.nodes[idx].thread);
        for name in names.iter().rev().skip(1) {
            out.push(';');
            out.push_str(name);
        }
        out
    }

    /// Whether node `idx` or any ancestor carries one of `names`.
    pub fn under_any(&self, idx: usize, names: &[&str]) -> bool {
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            if names.contains(&self.nodes[i].name.as_str()) {
                return true;
            }
            cursor = self.nodes[i].parent;
        }
        false
    }

    /// Collapsed-stack lines (`stack self_time_ns`), aggregated over
    /// identical stacks and sorted — the input format of
    /// `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded(&self) -> Vec<String> {
        let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let child_ns: u64 = node.children.iter().map(|&c| self.nodes[c].dur_ns).sum();
            let self_ns = node.dur_ns.saturating_sub(child_ns);
            *by_stack.entry(self.stack(idx)).or_insert(0) += self_ns;
        }
        by_stack
            .into_iter()
            .map(|(stack, ns)| format!("{stack} {ns}"))
            .collect()
    }
}

/// One row of the wall-vs-device phase table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label (`jacobian`, `eval`, `prune`, `other`).
    pub phase: String,
    /// Spans (or events, for event-only phases) attributed to the phase.
    pub records: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Device nanoseconds (from `device.batch` span deltas).
    pub device_ns: u64,
    /// Circuits run on-device within the phase.
    pub circuits: u64,
}

/// Per-parameter gradient-health summary row.
#[derive(Debug, Clone)]
pub struct ParamRow {
    /// Parameter index.
    pub param: u64,
    /// Evaluations observed.
    pub evals: u64,
    /// Final |g| EMA.
    pub ema: f64,
    /// Sign flips observed.
    pub flips: u64,
    /// Final flip rate (flips per transition).
    pub flip_rate: f64,
    /// Mean SNR over evaluations.
    pub mean_snr: f64,
    /// Per-step heat row: `#` flip, `.` evaluated, space = frozen.
    pub heat: String,
}

/// One completed pruning window, from a `prune.efficacy` event.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Window index.
    pub window: u64,
    /// Steps in the stage (accumulation + pruning).
    pub stage_steps: u64,
    /// Recall of the true top-|g| set by the sampled subset.
    pub recall: f64,
    /// Subset ∩ top-k overlap, summed over pruned steps.
    pub overlap: u64,
    /// Subset sizes summed over pruned steps.
    pub kept: u64,
    /// Circuit runs skipped by pruning.
    pub saved_runs: u64,
    /// Runs spent on parameters outside the top-k.
    pub wasted_runs: u64,
    /// Fraction of gradient evaluations skipped this stage.
    pub measured_savings: f64,
    /// The paper's `r·w_p/(w_a+w_p)`.
    pub expected_savings: f64,
}

/// Everything the analyzer extracted from one traced run.
#[derive(Debug)]
pub struct Analysis {
    /// Spans in the trace.
    pub spans: usize,
    /// Events in the trace.
    pub events: usize,
    /// Distinct emitting threads.
    pub threads: usize,
    /// Collapsed-stack lines.
    pub folded: Vec<String>,
    /// Wall-vs-device table rows.
    pub phases: Vec<PhaseRow>,
    /// Σ `device_ns` over `device.batch` spans.
    pub device_ns_spans: u64,
    /// `true` when every `device.batch` span carried a `device_ns` delta
    /// (older traces predate the field — exactness can't be checked there).
    pub device_deltas_complete: bool,
    /// The manifest's `ExecutionStats` device time less its resume base
    /// (the usage restored from a checkpoint, which this trace never saw),
    /// as integer ns.
    pub device_ns_manifest: Option<u64>,
    /// Per-parameter health rows (by parameter index).
    pub params: Vec<ParamRow>,
    /// Per-window pruning efficacy (the PGP recall curve).
    pub windows: Vec<WindowRow>,
    /// Training steps found in `.steps.jsonl`.
    pub steps: usize,
    /// Evaluation records found in `.evals.jsonl`.
    pub eval_records: usize,
    /// Run savings measured from the `.steps.jsonl` evaluated-parameter
    /// counts of the steps this process ran (its `train.step` events; a
    /// resumed run's satellite also holds the restored history).
    pub measured_savings: Option<f64>,
    /// The savings the manifest's pruning schedule predicts over the same
    /// steps (`scheduled_savings`; 0 without step records). `Some` iff the
    /// manifest configures pruning.
    pub expected_savings: Option<f64>,
    /// Retry attempts recorded by the manifest.
    pub retries: u64,
    /// Best validation accuracy from the manifest.
    pub best_accuracy: Option<f64>,
    /// Truncated tail lines tolerated across the trace and its satellites
    /// (each file may contribute at most one; see [`is_truncated_tail`]).
    pub truncated_tail_lines: u64,
    /// Σ duration of top-level `train.run` spans — the denominator for
    /// phase-share comparisons against the sampling profiler.
    pub run_wall_ns: u64,
    /// The manifest's circuit-run counters (`execution_stats.circuits_run`,
    /// `qoc.train.circuit_runs`, `qoc.device.circuits_run`) that read zero
    /// or are missing; empty without a manifest.
    pub zero_circuit_counters: Vec<&'static str>,
}

/// The `(w_a, w_p, r)` of a manifest `config.pruning` value (`"None"`, or
/// `{"Probabilistic": {…}}`).
fn pruning_of(manifest: &Value) -> Option<(u64, u64, f64)> {
    let pruning = manifest.get("config")?.get("pruning")?;
    let cfg = pruning.get("Probabilistic")?;
    let w_a = cfg.get("accumulation_window")?.as_u64()?;
    let w_p = cfg.get("pruning_window")?.as_u64()?;
    let r = cfg.get("ratio")?.as_f64()?;
    Some((w_a, w_p, r))
}

/// The savings the `(w_a, w_p, r)` schedule predicts over `steps`: each
/// stage opens with `w_a` full steps, then skips `r` of the gradients on
/// each of its `w_p` pruning steps. Over whole stages this is the paper's
/// `r·w_p/(w_a+w_p)`; 0 over no steps.
fn scheduled_savings((w_a, w_p, r): (u64, u64, f64), steps: &[u64]) -> f64 {
    if steps.is_empty() {
        return 0.0;
    }
    let pruned = steps.iter().filter(|&&s| s % (w_a + w_p) >= w_a).count();
    r * pruned as f64 / steps.len() as f64
}

/// Builds the wall-vs-device phase table from the forest plus the trace
/// events.
fn phase_table(forest: &SpanForest, records: &[TraceRecord]) -> (Vec<PhaseRow>, u64, bool) {
    let mut rows: BTreeMap<String, PhaseRow> = BTreeMap::new();
    fn row<'a>(rows: &'a mut BTreeMap<String, PhaseRow>, phase: &str) -> &'a mut PhaseRow {
        rows.entry(phase.to_string()).or_insert_with(|| PhaseRow {
            phase: phase.to_string(),
            records: 0,
            wall_ns: 0,
            device_ns: 0,
            circuits: 0,
        })
    }
    let mut device_total = 0u64;
    let mut deltas_complete = true;
    for (idx, node) in forest.nodes.iter().enumerate() {
        match node.name.as_str() {
            // Wall time of a phase is the duration of its top-level spans;
            // `grad.minibatch` wholly contains `shift.jacobian` and the
            // batch dispatch, `eval.dataset` contains checkpoint batches.
            "grad.minibatch" => {
                let r = row(&mut rows, "jacobian");
                r.records += 1;
                r.wall_ns += node.dur_ns;
            }
            "eval.dataset" => {
                let r = row(&mut rows, "eval");
                r.records += 1;
                r.wall_ns += node.dur_ns;
            }
            // Per-differentiation-mode breakdown: every Jacobian evaluation
            // opens a `shift.jacobian` span carrying the resolved mode, so
            // the table can show how much wall time each mode accounted for.
            // Older traces predate the field and simply get no mode rows.
            "shift.jacobian" => {
                if let Some(mode) = node.fields.get("mode").and_then(Value::as_str) {
                    let r = row(&mut rows, &format!("jacobian/{mode}"));
                    r.records += 1;
                    r.wall_ns += node.dur_ns;
                }
            }
            "device.batch" => {
                let device_ns = node.fields.get("device_ns").and_then(Value::as_u64);
                let circuits = node
                    .fields
                    .get("circuits")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                deltas_complete &= device_ns.is_some();
                let device_ns = device_ns.unwrap_or(0);
                device_total += device_ns;
                let phase = if forest.under_any(idx, &["grad.minibatch", "shift.jacobian"]) {
                    "jacobian"
                } else if forest.under_any(idx, &["eval.dataset"]) {
                    "eval"
                } else {
                    "other"
                };
                let r = row(&mut rows, phase);
                r.device_ns += device_ns;
                r.circuits += circuits;
                if phase == "other" {
                    r.records += 1;
                    r.wall_ns += node.dur_ns;
                }
            }
            _ => {}
        }
    }
    // Pruning decisions are events, not spans: report their count.
    let prune_events = records
        .iter()
        .filter(|r| !r.is_span && r.name.starts_with("prune."))
        .count() as u64;
    if prune_events > 0 {
        row(&mut rows, "prune").records = prune_events;
    }
    let order = ["jacobian", "eval", "prune", "other"];
    let mut table: Vec<PhaseRow> = Vec::new();
    if let Some(p) = rows.get("jacobian") {
        table.push(p.clone());
    }
    // Mode rows directly under the aggregate jacobian row (BTreeMap keeps
    // them in stable lexicographic order).
    table.extend(
        rows.iter()
            .filter(|(k, _)| k.starts_with("jacobian/"))
            .map(|(_, p)| p.clone()),
    );
    table.extend(order.iter().skip(1).filter_map(|p| rows.get(*p).cloned()));
    (table, device_total, deltas_complete)
}

/// Builds the per-parameter health rows and the window efficacy curve from
/// the trace's structured events.
fn health_report(records: &[TraceRecord]) -> (Vec<ParamRow>, Vec<WindowRow>) {
    let health: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| !r.is_span && r.name == "grad.health")
        .collect();
    let max_step = health
        .iter()
        .filter_map(|r| r.field_u64("step"))
        .max()
        .map_or(0, |s| s + 1) as usize;
    let mut by_param: BTreeMap<u64, (ParamRow, Vec<u8>)> = BTreeMap::new();
    for rec in &health {
        let (Some(step), Some(param)) = (rec.field_u64("step"), rec.field_u64("param")) else {
            continue;
        };
        let (row, heat) = by_param.entry(param).or_insert_with(|| {
            (
                ParamRow {
                    param,
                    evals: 0,
                    ema: 0.0,
                    flips: 0,
                    flip_rate: 0.0,
                    mean_snr: 0.0,
                    heat: String::new(),
                },
                vec![b' '; max_step],
            )
        });
        let flip = rec.fields.get("flip").and_then(Value::as_bool) == Some(true);
        if let Some(slot) = heat.get_mut(step as usize) {
            *slot = if flip { b'#' } else { b'.' };
        }
        row.evals = rec.field_u64("evals").unwrap_or(row.evals + 1);
        row.ema = rec.field_f64("ema").unwrap_or(row.ema);
        row.flip_rate = rec.field_f64("flip_rate").unwrap_or(row.flip_rate);
        if flip {
            row.flips += 1;
        }
        // Running mean over however many events this parameter produced.
        row.mean_snr += rec.field_f64("snr").unwrap_or(0.0);
    }
    let params = by_param
        .into_values()
        .map(|(mut row, heat)| {
            if row.evals > 0 {
                row.mean_snr /= row.evals as f64;
            }
            row.heat = String::from_utf8(heat).expect("ascii heat row");
            row
        })
        .collect();

    let windows = records
        .iter()
        .filter(|r| !r.is_span && r.name == "prune.efficacy")
        .map(|r| WindowRow {
            window: r.field_u64("window").unwrap_or(0),
            stage_steps: r.field_u64("stage_steps").unwrap_or(0),
            recall: r.field_f64("recall").unwrap_or(0.0),
            overlap: r.field_u64("overlap").unwrap_or(0),
            kept: r.field_u64("kept").unwrap_or(0),
            saved_runs: r.field_u64("saved_runs").unwrap_or(0),
            wasted_runs: r.field_u64("wasted_runs").unwrap_or(0),
            measured_savings: r.field_f64("measured_savings").unwrap_or(0.0),
            expected_savings: r.field_f64("expected_savings").unwrap_or(0.0),
        })
        .collect();
    (params, windows)
}

/// Runs the full offline analysis. Satellite texts are optional — a trace
/// from a crashed run may have none — but the report is correspondingly
/// thinner and the savings gates become inert.
pub fn analyze_run(
    trace_text: &str,
    steps_text: Option<&str>,
    evals_text: Option<&str>,
    manifest_text: Option<&str>,
) -> Result<Analysis, String> {
    let (records, trace_truncated) = parse_trace(trace_text)?;
    let (steps, steps_truncated) = match steps_text {
        Some(t) => parse_satellite(t, "steps satellite", schema::check_step_record)?,
        None => (Vec::new(), 0),
    };
    let (evals, evals_truncated) = match evals_text {
        Some(t) => parse_satellite(t, "evals satellite", schema::check_eval_record)?,
        None => (Vec::new(), 0),
    };
    let truncated_tail_lines = trace_truncated + steps_truncated + evals_truncated;
    let manifest = match manifest_text {
        Some(t) => {
            Some(serde_json::from_str(t).map_err(|e| format!("manifest is not valid JSON: {e}"))?)
        }
        None => None,
    };

    let forest = SpanForest::build(&records);
    let events = records.iter().filter(|r| !r.is_span).count();
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let counter = |m: &Value, name: &str| {
        m.get("metrics")
            .and_then(|v| v.get("counters"))
            .and_then(|v| v.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let retries = manifest
        .as_ref()
        .map_or(0, |m| counter(m, "qoc.device.retries"));
    let device_ns_manifest = manifest.as_ref().and_then(|m| {
        let base_ns = m
            .get("resume_base")
            .and_then(|b| b.get("device_ns"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        m.get("execution_stats")
            .and_then(|s| s.get("estimated_device_seconds"))
            .and_then(Value::as_f64)
            .map(|secs| ((secs * 1e9).round() as u64).saturating_sub(base_ns))
    });
    let best_accuracy = manifest
        .as_ref()
        .and_then(|m| m.get("best_accuracy").and_then(Value::as_f64));
    let zero_circuit_counters = manifest.as_ref().map_or_else(Vec::new, |m| {
        let stats_runs = m
            .get("execution_stats")
            .and_then(|s| s.get("circuits_run"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        [
            ("execution_stats.circuits_run", stats_runs),
            (
                "qoc.train.circuit_runs",
                counter(m, "qoc.train.circuit_runs"),
            ),
            (
                "qoc.device.circuits_run",
                counter(m, "qoc.device.circuits_run"),
            ),
        ]
        .into_iter()
        .filter(|&(_, runs)| runs == 0)
        .map(|(name, _)| name)
        .collect()
    });

    let (phases, device_ns_spans, device_deltas_complete) = phase_table(&forest, &records);
    let (params, windows) = health_report(&records);
    // Savings are judged over the steps this process ran: a resumed run's
    // satellite also holds the restored history, which its trace never saw.
    let first_step = records
        .iter()
        .filter(|r| !r.is_span && r.name == "train.step")
        .filter_map(|r| r.field_u64("step"))
        .min()
        .unwrap_or(0);
    let step_of = |s: &Value| s.get("step").and_then(Value::as_u64);
    let own_steps: Vec<&Value> = steps
        .iter()
        .filter(|s| step_of(s).is_some_and(|k| k >= first_step))
        .collect();
    let expected_savings = manifest
        .as_ref()
        .and_then(pruning_of)
        .filter(|&(_, _, r)| r > 0.0)
        .map(|schedule| {
            let indices: Vec<u64> = own_steps.iter().filter_map(|s| step_of(s)).collect();
            scheduled_savings(schedule, &indices)
        });
    let run_wall_ns = forest
        .nodes
        .iter()
        .filter(|n| n.name == "train.run")
        .map(|n| n.dur_ns)
        .sum();

    // Run savings measured from the step records: the full parameter width
    // is the widest step of the whole history (PGP always opens a stage with
    // a full step, and step 0 opens one).
    let evaluated = |s: &Value| s.get("evaluated_params").and_then(Value::as_u64);
    let own: Vec<u64> = own_steps.iter().filter_map(|s| evaluated(s)).collect();
    let measured_savings = match (steps.iter().filter_map(evaluated).max(), own.len()) {
        (Some(n_full), count) if n_full > 0 && count > 0 => {
            let total: u64 = own.iter().sum();
            Some(1.0 - total as f64 / (n_full * count as u64) as f64)
        }
        _ => None,
    };

    Ok(Analysis {
        spans: forest.span_count(),
        events,
        threads: threads.len(),
        folded: forest.folded(),
        phases,
        device_ns_spans,
        device_deltas_complete,
        device_ns_manifest,
        params,
        windows,
        steps: steps.len(),
        eval_records: evals.len(),
        measured_savings,
        expected_savings,
        retries,
        best_accuracy,
        truncated_tail_lines,
        run_wall_ns,
        zero_circuit_counters,
    })
}

impl Analysis {
    /// Reconciles a sampling-profiler folded file (`.profile.folded`,
    /// `frame;frame;… count` lines) against this trace-derived analysis.
    ///
    /// Both sides measure the Jacobian phase's share of training wall time
    /// independently — the profiler by counting samples whose stack passes
    /// through a Jacobian frame among all `train.run`-rooted samples (only
    /// the training thread's stacks root there, so worker threads don't
    /// skew the denominator), the trace by the `jacobian` phase row over
    /// the `train.run` span duration. Agreement within `tolerance`
    /// (relative) is the cross-check that the seqlock sampler is neither
    /// dropping stacks nor attributing time to the wrong spans.
    ///
    /// Returns a one-line summary on success and a diagnostic on failure.
    pub fn reconcile_profile(&self, folded_text: &str, tolerance: f64) -> Result<String, String> {
        let (mut total, mut run_samples, mut jac_samples) = (0u64, 0u64, 0u64);
        for (i, line) in folded_text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("profile line {}: no sample count: {line}", i + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|e| format!("profile line {}: bad sample count ({e})", i + 1))?;
            total += count;
            let mut frames = stack.split(';');
            if frames.clone().any(|f| f == "train.run") {
                run_samples += count;
                if frames.any(|f| f == "grad.minibatch" || f == "shift.jacobian") {
                    jac_samples += count;
                }
            }
        }
        if total == 0 {
            return Err(
                "profile is empty (zero samples — did QOC_PROFILE_HZ reach the run?)".to_string(),
            );
        }
        if run_samples == 0 {
            return Err(format!(
                "profile has {total} samples but none rooted in train.run — \
                 profiler and trace watched different processes?"
            ));
        }
        if self.run_wall_ns == 0 {
            return Err("trace has no train.run span to reconcile against".to_string());
        }
        let jac_wall = self
            .phases
            .iter()
            .find(|p| p.phase == "jacobian")
            .map_or(0, |p| p.wall_ns);
        let trace_share = jac_wall as f64 / self.run_wall_ns as f64;
        let profile_share = jac_samples as f64 / run_samples as f64;
        if trace_share <= 0.0 {
            return Err("trace attributes zero wall time to the jacobian phase".to_string());
        }
        let relative = (profile_share - trace_share).abs() / trace_share;
        let summary = format!(
            "profile reconciliation: jacobian share {:.1}% profiled ({jac_samples}/{run_samples} \
             samples) vs {:.1}% traced — {:.1}% apart (tolerance {:.0}%)",
            profile_share * 100.0,
            trace_share * 100.0,
            relative * 100.0,
            tolerance * 100.0,
        );
        if relative > tolerance {
            Err(summary)
        } else {
            Ok(summary)
        }
    }

    /// The CI gates: each failed invariant yields one message. An empty
    /// vector means the run looks healthy.
    pub fn sanity_failures(&self, savings_tolerance: f64) -> Vec<String> {
        let mut failures = Vec::new();
        if self.spans == 0 {
            failures.push("trace contains no spans".to_string());
        }
        for counter in &self.zero_circuit_counters {
            failures.push(format!("manifest reports zero circuits run ({counter})"));
        }
        if self.device_deltas_complete {
            if let Some(manifest_ns) = self.device_ns_manifest {
                if manifest_ns != self.device_ns_spans {
                    failures.push(format!(
                        "device-time mismatch: Σ device.batch deltas = {} ns, \
                         manifest ExecutionStats = {} ns",
                        self.device_ns_spans, manifest_ns
                    ));
                }
            }
        }
        if let Some(expected) = self.expected_savings {
            if self.windows.is_empty() {
                failures.push(
                    "pruning is configured but the trace has no prune.efficacy events".to_string(),
                );
            }
            if let Some(measured) = self.measured_savings {
                if (measured - expected).abs() > savings_tolerance {
                    failures.push(format!(
                        "run savings {measured:.4} deviates from r·w_p/(w_a+w_p) = \
                         {expected:.4} by more than {savings_tolerance}"
                    ));
                }
            }
        }
        failures
    }

    /// Renders the Markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# qoc-analyze report\n\n");
        out.push_str(&format!(
            "- spans: **{}**, events: **{}**, threads: **{}**\n",
            self.spans, self.events, self.threads
        ));
        out.push_str(&format!(
            "- training steps: **{}**, eval records: **{}**\n",
            self.steps, self.eval_records
        ));
        if let Some(acc) = self.best_accuracy {
            out.push_str(&format!("- best accuracy: **{acc:.4}**\n"));
        }
        match (self.measured_savings, self.expected_savings) {
            (Some(m), Some(e)) => out.push_str(&format!(
                "- run savings: measured **{m:.4}** vs expected r·w_p/(w_a+w_p) = **{e:.4}**\n"
            )),
            (Some(m), None) => out.push_str(&format!("- run savings: measured **{m:.4}**\n")),
            _ => {}
        }
        out.push_str(&format!(
            "- device time: Σ batch deltas **{} ns**{}\n",
            self.device_ns_spans,
            match self.device_ns_manifest {
                Some(m) => format!(
                    ", manifest **{m} ns** ({})",
                    if !self.device_deltas_complete {
                        "incomplete deltas — not reconciled"
                    } else if m == self.device_ns_spans {
                        "exact match"
                    } else {
                        "MISMATCH"
                    }
                ),
                None => String::new(),
            }
        ));
        if self.truncated_tail_lines > 0 {
            out.push_str(&format!(
                "- truncated tail lines tolerated: **{}** (killed writer left a partial \
                 final record)\n",
                self.truncated_tail_lines
            ));
        }

        out.push_str("\n## Phase times (wall vs device)\n\n");
        out.push_str("| phase | records | wall (ms) | device (ms) | circuits |\n");
        out.push_str("|---|---:|---:|---:|---:|\n");
        for p in &self.phases {
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} | {} |\n",
                p.phase,
                p.records,
                p.wall_ns as f64 / 1e6,
                p.device_ns as f64 / 1e6,
                p.circuits
            ));
        }

        if !self.params.is_empty() {
            out.push_str("\n## Gradient health (per parameter)\n\n");
            out.push_str("| param | evals | |g| EMA | flips | flip rate | mean SNR |\n");
            out.push_str("|---:|---:|---:|---:|---:|---:|\n");
            for p in &self.params {
                out.push_str(&format!(
                    "| {} | {} | {:.3e} | {} | {:.2} | {:.3e} |\n",
                    p.param, p.evals, p.ema, p.flips, p.flip_rate, p.mean_snr
                ));
            }
            out.push_str(
                "\nSign-flip heat (`#` flip, `.` evaluated, space = frozen), one row per \
                 parameter:\n\n```\n",
            );
            for p in &self.params {
                out.push_str(&format!("p{:<3} |{}|\n", p.param, p.heat));
            }
            out.push_str("```\n");
        }

        if !self.windows.is_empty() {
            out.push_str("\n## PGP efficacy per window\n\n");
            out.push_str(
                "| window | steps | recall | overlap/kept | saved runs | wasted runs | \
                 measured | expected |\n",
            );
            out.push_str("|---:|---:|---:|---:|---:|---:|---:|---:|\n");
            for w in &self.windows {
                out.push_str(&format!(
                    "| {} | {} | {:.3} | {}/{} | {} | {} | {:.4} | {:.4} |\n",
                    w.window,
                    w.stage_steps,
                    w.recall,
                    w.overlap,
                    w.kept,
                    w.saved_runs,
                    w.wasted_runs,
                    w.measured_savings,
                    w.expected_savings
                ));
            }
        }
        out
    }

    /// Renders the machine-readable JSON report.
    pub fn to_json(&self) -> Value {
        fn obj(entries: Vec<(&str, Value)>) -> Value {
            Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        let opt_f64 = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
        let opt_u64 = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
        obj(vec![
            ("spans", Value::UInt(self.spans as u64)),
            ("events", Value::UInt(self.events as u64)),
            ("threads", Value::UInt(self.threads as u64)),
            ("steps", Value::UInt(self.steps as u64)),
            ("eval_records", Value::UInt(self.eval_records as u64)),
            ("best_accuracy", opt_f64(self.best_accuracy)),
            ("measured_savings", opt_f64(self.measured_savings)),
            ("expected_savings", opt_f64(self.expected_savings)),
            ("device_ns_spans", Value::UInt(self.device_ns_spans)),
            ("device_ns_manifest", opt_u64(self.device_ns_manifest)),
            (
                "device_deltas_complete",
                Value::Bool(self.device_deltas_complete),
            ),
            ("retries", Value::UInt(self.retries)),
            (
                "truncated_tail_lines",
                Value::UInt(self.truncated_tail_lines),
            ),
            (
                "phases",
                Value::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("phase", Value::Str(p.phase.clone())),
                                ("records", Value::UInt(p.records)),
                                ("wall_ns", Value::UInt(p.wall_ns)),
                                ("device_ns", Value::UInt(p.device_ns)),
                                ("circuits", Value::UInt(p.circuits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "params",
                Value::Array(
                    self.params
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("param", Value::UInt(p.param)),
                                ("evals", Value::UInt(p.evals)),
                                ("ema", Value::Float(p.ema)),
                                ("flips", Value::UInt(p.flips)),
                                ("flip_rate", Value::Float(p.flip_rate)),
                                ("mean_snr", Value::Float(p.mean_snr)),
                                ("heat", Value::Str(p.heat.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "windows",
                Value::Array(
                    self.windows
                        .iter()
                        .map(|w| {
                            obj(vec![
                                ("window", Value::UInt(w.window)),
                                ("stage_steps", Value::UInt(w.stage_steps)),
                                ("recall", Value::Float(w.recall)),
                                ("overlap", Value::UInt(w.overlap)),
                                ("kept", Value::UInt(w.kept)),
                                ("saved_runs", Value::UInt(w.saved_runs)),
                                ("wasted_runs", Value::UInt(w.wasted_runs)),
                                ("measured_savings", Value::Float(w.measured_savings)),
                                ("expected_savings", Value::Float(w.expected_savings)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(ts: u64, name: &str, thread: u64, dur: u64) -> String {
        format!(
            r#"{{"ts":{ts},"kind":"span","level":"debug","span":"{name}","thread":{thread},"dur_ns":{dur},"fields":{{}}}}"#
        )
    }

    #[test]
    fn forest_nests_spans_by_interval() {
        // outer [0, 100], inner [10, 40], sibling [50, 90] on thread 0;
        // an unrelated root [0, 30] on thread 1.
        let trace = [
            span_line(40, "inner", 0, 30),
            span_line(90, "sibling", 0, 40),
            span_line(100, "outer", 0, 100),
            span_line(30, "t1root", 1, 30),
        ]
        .join("\n");
        let (records, truncated) = parse_trace(&trace).unwrap();
        assert_eq!(truncated, 0);
        let forest = SpanForest::build(&records);
        assert_eq!(forest.span_count(), 4);
        assert_eq!(forest.roots.len(), 2);
        let outer = forest.nodes.iter().position(|n| n.name == "outer").unwrap();
        assert_eq!(forest.nodes[outer].children.len(), 2);
        let folded = forest.folded();
        assert!(folded.contains(&"thread-0;outer;inner 30".to_string()));
        assert!(folded.contains(&"thread-0;outer;sibling 40".to_string()));
        // Outer's self time excludes both children.
        assert!(folded.contains(&"thread-0;outer 30".to_string()));
        assert!(folded.contains(&"thread-1;t1root 30".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_lines_with_line_numbers() {
        // Newline-terminated, so the bad final line is corruption, not a
        // truncated tail.
        let trace = [span_line(10, "ok", 0, 5), "{\"nope\":1}".to_string()].join("\n") + "\n";
        let err = parse_trace(&trace).unwrap_err();
        assert!(err.starts_with("trace line 2:"), "got: {err}");
    }

    #[test]
    fn truncated_tail_without_newline_is_tolerated() {
        // A killed writer leaves a partial final record with no trailing
        // newline: the good prefix parses, the tail is counted, not fatal.
        let trace = [
            span_line(10, "ok", 0, 5),
            r#"{"ts":20,"kind":"span","le"#.to_string(),
        ]
        .join("\n");
        let (records, truncated) = parse_trace(&trace).unwrap();
        assert_eq!((records.len(), truncated), (1, 1));
        // A truncated tail anywhere *but* the end stays fatal.
        let corrupt = [
            r#"{"ts":20,"kind":"span","le"#.to_string(),
            span_line(10, "ok", 0, 5),
        ]
        .join("\n");
        assert!(parse_trace(&corrupt).is_err());
        // The tolerated count surfaces in the report.
        let analysis = analyze_run(&trace, None, None, None).unwrap();
        assert_eq!(analysis.truncated_tail_lines, 1);
        assert!(analysis
            .to_markdown()
            .contains("truncated tail lines tolerated: **1**"));
    }

    #[test]
    fn mode_rows_come_from_jacobian_spans() {
        // One forked and one shifted-2p Jacobian, each inside its own
        // minibatch.
        let trace = [
            r#"{"ts":90,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":80,"fields":{"rows":8,"jobs":0,"mode":"forked"}}"#.to_string(),
            span_line(100, "grad.minibatch", 0, 100),
            r#"{"ts":290,"kind":"span","level":"debug","span":"shift.jacobian","thread":0,"dur_ns":85,"fields":{"rows":8,"jobs":16,"mode":"shifted-2p"}}"#.to_string(),
            span_line(300, "grad.minibatch", 0, 100),
        ]
        .join("\n");
        let analysis = analyze_run(&trace, None, None, None).unwrap();
        let labels: Vec<&str> = analysis.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(
            labels,
            vec!["jacobian", "jacobian/forked", "jacobian/shifted-2p"]
        );
        let forked = &analysis.phases[1];
        assert_eq!((forked.records, forked.wall_ns), (1, 80));
        assert!(analysis.sanity_failures(0.05).is_empty());
        let md = analysis.to_markdown();
        assert!(md.contains("jacobian/forked"), "missing mode row: {md}");
    }

    #[test]
    fn traces_without_jacobian_spans_have_no_mode_rows() {
        let trace = span_line(100, "grad.minibatch", 0, 100);
        let analysis = analyze_run(&trace, None, None, None).unwrap();
        assert!(analysis.phases.iter().all(|p| !p.phase.contains('/')));
        assert!(analysis.sanity_failures(0.05).is_empty());
    }

    #[test]
    fn profile_reconciliation_accepts_agreement_and_rejects_divergence() {
        // train.run spans 1000 ns, 600 of them inside grad.minibatch →
        // trace jacobian share 60%.
        let trace = [
            span_line(700, "grad.minibatch", 0, 600),
            span_line(1000, "train.run", 0, 1000),
        ]
        .join("\n");
        let analysis = analyze_run(&trace, None, None, None).unwrap();
        assert_eq!(analysis.run_wall_ns, 1000);

        // 58/100 run-rooted samples on jacobian stacks (3.3% off — within
        // 15%); a worker-thread stack outside train.run is ignored.
        let agree = "train.run;grad.minibatch;shift.jacobian 58\n\
                     train.run 42\n\
                     device.worker;device.batch 500\n";
        let summary = analysis.reconcile_profile(agree, 0.15).unwrap();
        assert!(summary.contains("58.0% profiled"), "{summary}");
        assert!(summary.contains("60.0% traced"), "{summary}");

        // 20/100 on jacobian stacks → 67% apart: rejected.
        let diverge = "train.run;grad.minibatch 20\ntrain.run 80\n";
        let err = analysis.reconcile_profile(diverge, 0.15).unwrap_err();
        assert!(err.contains("apart"), "{err}");

        // Degenerate profiles are diagnosed, not divided by zero.
        assert!(analysis.reconcile_profile("", 0.15).is_err());
        assert!(analysis
            .reconcile_profile("device.worker 10\n", 0.15)
            .unwrap_err()
            .contains("none rooted in train.run"));
        assert!(analysis
            .reconcile_profile("train.run nonsense\n", 0.15)
            .is_err());
    }

    /// A traced PGP run reduced to what the savings gate reads: one
    /// `train.run` span, one `prune.efficacy` event per
    /// `(stage_steps, expected_savings)` window, a steps satellite with the
    /// given evaluated-parameter counts, and a manifest configuring
    /// paper-default pruning.
    fn savings_run(windows: &[(u64, f64)], evaluated: &[u64]) -> Analysis {
        let mut trace = span_line(1000, "train.run", 0, 900) + "\n";
        for (i, (steps, expected)) in windows.iter().enumerate() {
            trace += &format!(
                r#"{{"ts":{},"kind":"event","level":"info","span":"prune.efficacy","thread":0,"fields":{{"window":{i},"stage_steps":{steps},"recall":0.5,"overlap":1,"kept":2,"saved_runs":8,"wasted_runs":4,"measured_savings":0.3,"expected_savings":{expected}}}}}"#,
                200 + i
            );
            trace += "\n";
        }
        let steps: String = evaluated
            .iter()
            .enumerate()
            .map(|(step, e)| {
                format!(
                    r#"{{"step":{step},"loss":0.5,"lr":0.1,"evaluated_params":{e},"inferences":{}}}"#,
                    10 * (step + 1)
                ) + "\n"
            })
            .collect();
        let manifest = r#"{"config":{"pruning":{"Probabilistic":{"accumulation_window":1,"pruning_window":2,"ratio":0.5}}},
            "execution_stats":{"circuits_run":9,"total_shots":0,"estimated_device_seconds":0.0},
            "metrics":{"counters":{"qoc.train.circuit_runs":9,"qoc.device.circuits_run":9}}}"#;
        analyze_run(&trace, Some(&steps), Some(""), Some(manifest)).expect("analyzes")
    }

    #[test]
    fn run_savings_gate_follows_the_pruning_schedule() {
        // Paper defaults: three 3-step windows at 1/3 over 9 steps expect
        // exactly the configured 1/3.
        let plain = savings_run(&[(3, 1.0 / 3.0); 3], &[8, 4, 4, 8, 4, 4, 8, 4, 4]);
        assert!((plain.expected_savings.unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(plain.sanity_failures(0.05), Vec::<String>::new());

        // A trailing full step closes no window and expects no savings:
        // (1/3·9)/10 = 0.3, which the measured 1 − 56/80 matches.
        let trailing = savings_run(&[(3, 1.0 / 3.0); 3], &[8, 4, 4, 8, 4, 4, 8, 4, 4, 8]);
        let expected = trailing.expected_savings.unwrap();
        assert!((expected - 0.3).abs() < 1e-12, "expected {expected}");
        assert!((trailing.measured_savings.unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(trailing.sanity_failures(0.05), Vec::<String>::new());
    }

    #[test]
    fn expected_savings_reads_the_paper_config() {
        let manifest = serde_json::from_str(
            r#"{"config":{"pruning":{"Probabilistic":{"accumulation_window":1,"pruning_window":2,"ratio":0.5}}}}"#,
        )
        .unwrap();
        let schedule = pruning_of(&manifest).unwrap();
        assert_eq!(schedule, (1, 2, 0.5));
        let whole: Vec<u64> = (0..9).collect();
        assert!((scheduled_savings(schedule, &whole) - 1.0 / 3.0).abs() < 1e-12);
        // Resumed at step 7 of 12: 7, 8, 10 and 11 prune, 9 opens a stage.
        let resumed: Vec<u64> = (7..12).collect();
        assert!((scheduled_savings(schedule, &resumed) - 0.4).abs() < 1e-12);
        let none = serde_json::from_str(r#"{"config":{"pruning":"None"}}"#).unwrap();
        assert_eq!(pruning_of(&none), None);
    }
}
