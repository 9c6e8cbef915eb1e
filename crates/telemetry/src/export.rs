//! Live status export: atomic JSON snapshots + Prometheus sibling.
//!
//! When `QOC_STATUS_FILE` is set, the training engine publishes a status
//! document after every step, and the device
//! worker pool refreshes it on a time floor between steps — so even a long
//! Jacobian (hundreds of queued circuit batches inside one step) keeps the
//! file alive. Three artifacts, all derived from the same snapshot:
//!
//! - **`QOC_STATUS_FILE`** — a single JSON status document, replaced via
//!   tmp+rename so a concurrent reader (`qoc-top`, a future `qoc-serve`)
//!   never observes a torn file. Shape pinned by
//!   [`schema::check_status_doc`](crate::schema::check_status_doc).
//! - **`<stem>.history.jsonl`** — one appended line per *step* snapshot
//!   (heartbeats refresh the main file only), giving `qoc-top` its loss
//!   sparkline and CI its monotonicity check.
//! - **`<stem>.prom`** — the full metrics registry in Prometheus text
//!   format (see [`prom`]).
//!
//! The device counters in the document (`device.circuits_run`,
//! `device.total_shots`, `device.device_ns`) are stamped by the engine from
//! the same integers that end up in the run manifest, so the final snapshot
//! of a finished run reconciles with the manifest **to the nanosecond** —
//! the `ci.sh monitor` stage gates on exactly that.
//!
//! When the status file is the only telemetry consumer configured, record
//! dispatch is force-enabled so the SNR/queue-wait instrumentation feeds the
//! registry; with `QOC_STATUS_FILE` unset, [`heartbeat`] is one relaxed
//! atomic load and nothing below it runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alerts;
use crate::metrics::{MetricsSnapshot, Registry};
use crate::prom;
use crate::Level;

/// Minimum wall time between heartbeat refreshes of the status file while
/// no step boundary is reached (long Jacobians, large eval batches).
const HEARTBEAT_FLOOR_MS: u128 = 2_000;

/// EMA smoothing for the step rate: weight of the newest inter-step rate.
const RATE_EMA_ALPHA: f64 = 0.3;

/// Default cap on `<stem>.history.jsonl` lines before rotate-on-cap —
/// bounds the history of a week-long serve run.
pub const DEFAULT_HISTORY_MAX: u64 = 10_000;

/// Engine-stamped core of a status snapshot — everything the metrics
/// registry can *not* provide exactly: run identity, training progress, and
/// the cumulative device counters that must reconcile with the manifest.
#[derive(Debug, Clone)]
pub struct StatusCore {
    /// Seed-derived run identity (joins trace/manifest/checkpoint/dump).
    pub run_id: String,
    /// `"running"`, `"finished"`, or `"failed"`.
    pub state: &'static str,
    /// Backend name.
    pub backend: String,
    /// Completed optimization steps.
    pub step: u64,
    /// Configured total steps.
    pub steps_total: u64,
    /// Loss of the most recent step.
    pub loss: f64,
    /// Best evaluation accuracy so far.
    pub best_accuracy: f64,
    /// Pruning window phase: `"none"`, `"accumulating"`, or `"pruning"`.
    pub prune_phase: String,
    /// Cumulative circuits executed (resume base + this process).
    pub circuits_run: u64,
    /// Cumulative measurement shots.
    pub total_shots: u64,
    /// Cumulative estimated device nanoseconds.
    pub device_ns: u64,
}

#[derive(Debug, Default)]
struct ExportState {
    /// Last engine-stamped core; heartbeats re-publish it with fresh
    /// registry data but never touch the device counters.
    core: Option<StatusCore>,
    last_write: Option<Instant>,
    last_step: Option<(u64, Instant)>,
    step_rate: Option<f64>,
    /// Snapshots published so far (strictly increasing `snapshot` field).
    snapshots: u64,
    /// Lines currently in the history sibling (`None` until first counted,
    /// so a pre-existing file from a resumed run is respected).
    history_lines: Option<u64>,
}

/// Writes live status snapshots (see module docs). One per process, built
/// from `QOC_STATUS_FILE` on first use.
#[derive(Debug)]
pub struct StatusExporter {
    path: PathBuf,
    /// History-sibling line cap: reaching it atomically rotates the file to
    /// `<stem>.history.jsonl.1` and starts fresh.
    history_max: u64,
    epoch: Instant,
    state: Mutex<ExportState>,
}

static EXPORTER: OnceLock<Option<StatusExporter>> = OnceLock::new();

/// Fast-path flag for [`heartbeat`]: false until an exporter exists.
static HEARTBEAT_ON: AtomicBool = AtomicBool::new(false);

/// The process-wide exporter, `None` unless `QOC_STATUS_FILE` is set.
pub fn global() -> Option<&'static StatusExporter> {
    EXPORTER
        .get_or_init(|| {
            let path = crate::env::path("QOC_STATUS_FILE")?;
            HEARTBEAT_ON.store(true, Ordering::Relaxed);
            Some(StatusExporter::new(path))
        })
        .as_ref()
}

/// Refreshes the status file between steps if the configured time floor has
/// elapsed. Safe to call from any worker thread at any frequency: one
/// relaxed atomic load when no exporter is configured, and a `try_lock`
/// (never blocking the job hot path) when one is.
pub fn heartbeat() {
    if !HEARTBEAT_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(exporter) = global() {
        exporter.maybe_heartbeat();
    }
}

impl StatusExporter {
    /// An exporter publishing to `path`. Public for tests and job hosts;
    /// production goes through [`global`].
    pub fn new(path: PathBuf) -> Self {
        StatusExporter {
            path,
            history_max: DEFAULT_HISTORY_MAX,
            epoch: Instant::now(),
            state: Mutex::new(ExportState::default()),
        }
    }

    /// Overrides the history-rotation cap (tests; production keeps
    /// [`DEFAULT_HISTORY_MAX`]).
    pub fn with_history_max(mut self, max: u64) -> Self {
        self.history_max = max.max(1);
        self
    }

    /// The status file path (siblings derive from it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Publishes a step-boundary snapshot and appends it to the history
    /// sibling.
    pub fn on_step(&self, core: StatusCore) {
        let now = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((prev_step, prev_at)) = st.last_step {
            if core.step > prev_step {
                let dt = now.duration_since(prev_at).as_secs_f64();
                if dt > 0.0 {
                    let inst = (core.step - prev_step) as f64 / dt;
                    st.step_rate = Some(match st.step_rate {
                        Some(prev) => RATE_EMA_ALPHA * inst + (1.0 - RATE_EMA_ALPHA) * prev,
                        None => inst,
                    });
                }
            }
        }
        st.last_step = Some((core.step, now));
        st.core = Some(core);
        self.publish(&mut st, true);
    }

    /// Explicit heartbeat for exporters owned directly (tests, job hosts):
    /// same semantics as the global [`heartbeat`] — republish the last core
    /// with fresh registry data once the time floor has elapsed.
    pub fn tick(&self) {
        self.maybe_heartbeat();
    }

    /// Time-floor refresh from the worker pool (see [`heartbeat`]).
    fn maybe_heartbeat(&self) {
        let Ok(mut st) = self.state.try_lock() else {
            return;
        };
        if st.core.is_none() {
            return;
        }
        let stale = st
            .last_write
            .is_none_or(|at| at.elapsed().as_millis() >= HEARTBEAT_FLOOR_MS);
        if stale {
            self.publish(&mut st, false);
        }
    }

    /// Renders and writes all three artifacts. `with_history` appends one
    /// line to the history sibling (step snapshots yes, heartbeats no —
    /// history is the per-step series CI checks for monotonicity).
    fn publish(&self, st: &mut ExportState, with_history: bool) {
        st.snapshots += 1;
        st.last_write = Some(Instant::now());
        let mut metrics = Registry::global().snapshot();
        let core = st.core.as_ref().expect("publish without core");
        // Alert evaluation rides the publish cadence: every rule sees the
        // same snapshot the document is rendered from. Terminal states
        // flush still-active firings so the log pairs every firing with an
        // outcome.
        let mut transitions = alerts::evaluate(&metrics);
        if core.state != "running" {
            transitions.extend(alerts::finalize());
        }
        if !transitions.is_empty() {
            self.record_transitions(&transitions, st.snapshots);
            // Re-snapshot so the document and Prometheus sibling include
            // the qoc.alerts.* metrics the transitions just bumped.
            metrics = Registry::global().snapshot();
        }
        let doc = status_doc(
            core,
            &metrics,
            st.snapshots,
            self.epoch,
            st.step_rate,
            alerts::section(),
        );
        let json = serde_json::to_string(&doc).expect("infallible");
        if let Err(err) = write_atomic(&self.path, &json) {
            eprintln!("qoc-telemetry: status export to {:?}: {err}", self.path);
            return;
        }
        if with_history {
            let history = self.path.with_extension("history.jsonl");
            let mut lines = match st.history_lines {
                Some(n) => n,
                // First append of this process: respect lines a previous
                // process (resume, shared host) already wrote.
                None => std::fs::read_to_string(&history)
                    .map(|text| text.lines().count() as u64)
                    .unwrap_or(0),
            };
            if lines >= self.history_max {
                let rotated = self.path.with_extension("history.jsonl.1");
                match std::fs::rename(&history, &rotated) {
                    Ok(()) => lines = 0,
                    Err(err) => {
                        eprintln!("qoc-telemetry: history rotate {history:?}: {err}")
                    }
                }
            }
            match append_line(&history, &json) {
                Ok(()) => st.history_lines = Some(lines + 1),
                Err(err) => {
                    st.history_lines = Some(lines);
                    eprintln!("qoc-telemetry: status history {history:?}: {err}");
                }
            }
        }
        let prom_path = self.path.with_extension("prom");
        if let Err(err) = write_atomic(&prom_path, &prom::render(&metrics)) {
            eprintln!("qoc-telemetry: prometheus export to {prom_path:?}: {err}");
        }
    }

    /// Turns alert transitions into their three artifacts: pinned-schema
    /// trace events, `<stem>.alerts.jsonl` lines, and registry metrics.
    fn record_transitions(&self, transitions: &[alerts::AlertTransition], snapshot: u64) {
        let registry = Registry::global();
        let fired = transitions.iter().filter(|t| t.kind == "fired").count() as u64;
        let resolved = transitions.len() as u64 - fired;
        if fired > 0 {
            registry.counter("qoc.alerts.fired").add(fired);
        }
        if resolved > 0 {
            registry.counter("qoc.alerts.resolved").add(resolved);
        }
        registry
            .gauge("qoc.alerts.active")
            .set(alerts::active_count() as f64);
        let log = self.path.with_extension("alerts.jsonl");
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        for t in transitions {
            // Firings and resolutions are trace events too (terminal
            // flushes live only in the log — the run is already over).
            if crate::enabled() && t.kind != "terminal" {
                let (level, name) = if t.kind == "fired" {
                    (Level::Warn, "alert.fired")
                } else {
                    (Level::Info, "alert.resolved")
                };
                crate::dispatch_event(
                    level,
                    name,
                    vec![
                        ("rule", crate::FieldValue::Str(t.rule.clone())),
                        ("metric", crate::FieldValue::Str(t.metric.clone())),
                        ("value", crate::FieldValue::F64(t.value)),
                        ("threshold", crate::FieldValue::F64(t.threshold)),
                        ("windows", crate::FieldValue::U64(t.windows)),
                    ],
                );
            }
            let line = alert_line(t, ts_ns, snapshot);
            let json = serde_json::to_string(&line).expect("infallible");
            if let Err(err) = append_line(&log, &json) {
                eprintln!("qoc-telemetry: alert log {log:?}: {err}");
            }
        }
    }
}

/// Renders one `<stem>.alerts.jsonl` line (shape pinned by
/// [`schema::check_alert_line`](crate::schema::check_alert_line)).
fn alert_line(t: &alerts::AlertTransition, ts_ns: u64, snapshot: u64) -> serde::Value {
    use serde::Value;
    // An infinite burn ratio (numerator moved, denominator did not) must
    // still serialize to legal JSON.
    let finite = |v: f64| if v.is_finite() { v } else { f64::MAX };
    Value::Object(vec![
        ("ts_ns".into(), Value::UInt(ts_ns)),
        ("kind".into(), Value::Str(t.kind.to_string())),
        ("rule".into(), Value::Str(t.rule.clone())),
        ("metric".into(), Value::Str(t.metric.clone())),
        ("value".into(), Value::Float(finite(t.value))),
        ("threshold".into(), Value::Float(finite(t.threshold))),
        ("windows".into(), Value::UInt(t.windows)),
        ("snapshot".into(), Value::UInt(snapshot)),
    ])
}

/// Builds the status document from the engine-stamped core plus
/// registry-derived sections.
fn status_doc(
    core: &StatusCore,
    metrics: &MetricsSnapshot,
    snapshot: u64,
    epoch: Instant,
    step_rate: Option<f64>,
    alerts_section: Option<serde::Value>,
) -> serde::Value {
    use serde::Value;

    let rate = step_rate.unwrap_or(0.0);
    let eta = if core.state == "running" && rate > 0.0 && core.steps_total > core.step {
        Value::Float((core.steps_total - core.step) as f64 / rate)
    } else {
        Value::Null
    };

    let counter = |name: &str| Value::UInt(metrics.counter(name));
    let mut entries = vec![
        ("schema_version".into(), Value::UInt(1)),
        ("run_id".into(), Value::Str(core.run_id.clone())),
        ("state".into(), Value::Str(core.state.to_string())),
        ("backend".into(), Value::Str(core.backend.clone())),
        ("step".into(), Value::UInt(core.step)),
        ("steps_total".into(), Value::UInt(core.steps_total)),
        ("loss".into(), Value::Float(core.loss)),
        ("best_accuracy".into(), Value::Float(core.best_accuracy)),
        ("prune_phase".into(), Value::Str(core.prune_phase.clone())),
        ("snapshot".into(), Value::UInt(snapshot)),
        (
            "uptime_ns".into(),
            Value::UInt(epoch.elapsed().as_nanos() as u64),
        ),
        ("step_rate".into(), Value::Float(rate)),
        ("eta_seconds".into(), eta),
        (
            "device".into(),
            Value::Object(vec![
                ("circuits_run".into(), Value::UInt(core.circuits_run)),
                ("total_shots".into(), Value::UInt(core.total_shots)),
                ("device_ns".into(), Value::UInt(core.device_ns)),
            ]),
        ),
    ];

    entries.push((
        "retries".into(),
        Value::Object(vec![
            ("retries".into(), counter("qoc.device.retries")),
            ("gave_up".into(), counter("qoc.device.gave_up")),
        ]),
    ));
    entries.push((
        "pool".into(),
        Value::Object(vec![
            ("hits".into(), counter("qoc.sim.pool.hits")),
            ("misses".into(), counter("qoc.sim.pool.misses")),
        ]),
    ));

    let snr = metrics.quantile("qoc.grad.snr");
    entries.push((
        "snr".into(),
        Value::Object(vec![
            ("count".into(), Value::UInt(snr.map_or(0, |q| q.count))),
            ("min".into(), Value::Float(snr.map_or(0.0, |q| q.min))),
            ("p50".into(), Value::Float(snr.map_or(0.0, |q| q.p50))),
            ("p90".into(), Value::Float(snr.map_or(0.0, |q| q.p90))),
            ("p99".into(), Value::Float(snr.map_or(0.0, |q| q.p99))),
            ("max".into(), Value::Float(snr.map_or(0.0, |q| q.max))),
        ]),
    ));

    let queue = metrics.histogram("qoc.device.queue_wait_ns");
    entries.push((
        "queue_wait_ns".into(),
        Value::Object(vec![
            ("count".into(), Value::UInt(queue.map_or(0, |h| h.count))),
            (
                "p50".into(),
                Value::UInt(queue.map_or(0, |h| h.quantile(0.5))),
            ),
            (
                "p90".into(),
                Value::UInt(queue.map_or(0, |h| h.quantile(0.9))),
            ),
            (
                "p99".into(),
                Value::UInt(queue.map_or(0, |h| h.quantile(0.99))),
            ),
        ]),
    ));

    // Multi-tenant serving: `qoc-serve` stamps per-tenant counters under
    // `qoc.serve.tenant.<tenant>.<field>`; group them into one object per
    // tenant. Absent entirely (old golden docs stay valid) unless a serve
    // host runs in this process.
    if let Some(tenants) = tenant_section(metrics) {
        entries.push(("tenants".into(), tenants));
    }

    // SLO/alert engine state (absent unless rules are installed, so golden
    // docs from rule-free runs stay byte-stable).
    if let Some(alerts) = alerts_section {
        entries.push(("alerts".into(), alerts));
    }

    let busy = metrics.histogram("qoc.device.worker_busy_ns");
    entries.push((
        "workers".into(),
        Value::Object(vec![
            (
                "live".into(),
                Value::Float(
                    metrics
                        .gauges
                        .get("qoc.device.workers_live")
                        .copied()
                        .unwrap_or(0.0),
                ),
            ),
            (
                "jobs_inflight".into(),
                Value::Float(
                    metrics
                        .gauges
                        .get("qoc.device.jobs_inflight")
                        .copied()
                        .unwrap_or(0.0),
                ),
            ),
            (
                "jobs_completed".into(),
                counter("qoc.device.jobs_completed"),
            ),
            ("busy_ns".into(), Value::UInt(busy.map_or(0, |h| h.sum))),
        ]),
    ));

    Value::Object(entries)
}

/// Metric-name prefix under which `qoc-serve` stamps per-tenant counters:
/// `qoc.serve.tenant.<tenant>.<field>` (tenant names must not contain `.`).
pub const TENANT_METRIC_PREFIX: &str = "qoc.serve.tenant.";

/// Groups `qoc.serve.tenant.<tenant>.<field>` counters into a
/// `{tenant: {field: value}}` object; `None` when no such counters exist.
fn tenant_section(metrics: &MetricsSnapshot) -> Option<serde::Value> {
    use serde::Value;

    let mut tenants: Vec<(String, Vec<(String, Value)>)> = Vec::new();
    for (name, &value) in &metrics.counters {
        let Some(rest) = name.strip_prefix(TENANT_METRIC_PREFIX) else {
            continue;
        };
        let Some((tenant, field)) = rest.split_once('.') else {
            continue;
        };
        match tenants.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, fields)) => fields.push((field.to_string(), Value::UInt(value))),
            // BTreeMap iteration keeps tenants (and their fields) sorted.
            None => tenants.push((
                tenant.to_string(),
                vec![(field.to_string(), Value::UInt(value))],
            )),
        }
    }
    if tenants.is_empty() {
        return None;
    }
    Some(Value::Object(
        tenants
            .into_iter()
            .map(|(t, fields)| (t, Value::Object(fields)))
            .collect(),
    ))
}

/// Replaces `path` atomically: write a `.tmp` sibling, then rename over.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::check_status_doc;

    /// Every publication evaluates the process-global alert engine, so the
    /// tests that step or tick an exporter run one at a time: otherwise one
    /// test's publications advance, or its terminal flush consumes, the
    /// alert test's probe-rule transitions.
    static STEPPING: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        STEPPING.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn core(step: u64, device_ns: u64) -> StatusCore {
        StatusCore {
            run_id: "deadbeefcafef00d".into(),
            state: "running",
            backend: "fake_santiago".into(),
            step,
            steps_total: 9,
            loss: 1.0 / (step as f64 + 1.0),
            best_accuracy: 0.5,
            prune_phase: "accumulating".into(),
            circuits_run: step * 100,
            total_shots: step * 102_400,
            device_ns,
        }
    }

    fn tmp_status_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qoc-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.status.json"))
    }

    #[test]
    fn snapshots_are_schema_valid_and_monotone() {
        let _serial = serial();
        let path = tmp_status_path("monotone");
        let exporter = StatusExporter::new(path.clone());
        let history = path.with_extension("history.jsonl");
        std::fs::remove_file(&history).ok();
        for step in 1..=4 {
            exporter.on_step(core(step, step * 1_000_000));
        }
        let mut fin = core(4, 4_000_000);
        fin.state = "finished";
        exporter.on_step(fin);

        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        check_status_doc(&doc).expect("status doc schema");
        assert_eq!(doc.get("state").unwrap().as_str(), Some("finished"));

        let text = std::fs::read_to_string(&history).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "one history line per step publication");
        let mut prev_ns = 0;
        let mut prev_snapshot = 0;
        for line in lines {
            let doc: serde::Value = serde_json::from_str(line).unwrap();
            check_status_doc(&doc).expect("history line schema");
            let ns = doc
                .get("device")
                .unwrap()
                .get("device_ns")
                .unwrap()
                .as_u64()
                .unwrap();
            assert!(ns >= prev_ns, "device_ns must be monotone");
            prev_ns = ns;
            let snap = doc.get("snapshot").unwrap().as_u64().unwrap();
            assert!(snap > prev_snapshot, "snapshot counter strictly increases");
            prev_snapshot = snap;
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&history).ok();
        std::fs::remove_file(path.with_extension("prom")).ok();
    }

    #[test]
    fn prom_sibling_is_written() {
        let _serial = serial();
        let path = tmp_status_path("prom");
        // The sibling renders the *global* registry; make sure it holds at
        // least one metric regardless of which tests ran before this one.
        Registry::global().counter("t.export.prom_probe").inc();
        let exporter = StatusExporter::new(path.clone());
        exporter.on_step(core(1, 10));
        let prom_text = std::fs::read_to_string(path.with_extension("prom")).unwrap();
        assert!(prom_text.lines().any(|l| l.starts_with("# TYPE ")));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("history.jsonl")).ok();
        std::fs::remove_file(path.with_extension("prom")).ok();
    }

    #[test]
    fn tenant_counters_group_into_a_schema_valid_section() {
        let _serial = serial();
        let path = tmp_status_path("tenants");
        let reg = Registry::global();
        reg.counter("qoc.serve.tenant.acme.completed").add(3);
        reg.counter("qoc.serve.tenant.acme.device_ns").add(1234);
        reg.counter("qoc.serve.tenant.beta.completed").add(5);
        let exporter = StatusExporter::new(path.clone());
        exporter.on_step(core(1, 10));
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        check_status_doc(&doc).expect("doc with tenants section stays schema-valid");
        let tenants = doc.get("tenants").expect("tenants section present");
        assert_eq!(
            tenants
                .get("acme")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(
            tenants
                .get("acme")
                .unwrap()
                .get("device_ns")
                .unwrap()
                .as_u64(),
            Some(1234)
        );
        assert_eq!(
            tenants
                .get("beta")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("history.jsonl")).ok();
        std::fs::remove_file(path.with_extension("prom")).ok();
    }

    #[test]
    fn history_rotates_on_cap_and_respects_existing_lines() {
        let _serial = serial();
        let path = tmp_status_path("rotate");
        let history = path.with_extension("history.jsonl");
        let rotated = path.with_extension("history.jsonl.1");
        std::fs::remove_file(&history).ok();
        std::fs::remove_file(&rotated).ok();
        let exporter = StatusExporter::new(path.clone()).with_history_max(3);
        for step in 1..=7 {
            exporter.on_step(core(step, step));
        }
        // 7 appends at cap 3: rotations after lines 3 and 6, one line live.
        let live = std::fs::read_to_string(&history).unwrap();
        assert_eq!(live.lines().count(), 1, "live history holds the remainder");
        let old = std::fs::read_to_string(&rotated).unwrap();
        assert_eq!(old.lines().count(), 3, "rotation keeps the previous cap");
        // Every surviving line is still a schema-valid snapshot.
        for line in live.lines().chain(old.lines()) {
            check_status_doc(&serde_json::from_str(line).unwrap()).expect("schema");
        }
        // A fresh exporter over the same files counts the pre-existing line
        // instead of clobbering it (resume/shared-host case).
        let exporter2 = StatusExporter::new(path.clone()).with_history_max(3);
        exporter2.on_step(core(8, 8));
        exporter2.on_step(core(9, 9));
        assert_eq!(
            std::fs::read_to_string(&history).unwrap().lines().count(),
            3,
            "second process appended to the surviving lines"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&history).ok();
        std::fs::remove_file(&rotated).ok();
        std::fs::remove_file(path.with_extension("prom")).ok();
    }

    #[test]
    fn alert_transitions_reach_log_doc_and_registry() {
        let _serial = serial();
        let path = tmp_status_path("alerts");
        let log = path.with_extension("alerts.jsonl");
        std::fs::remove_file(&log).ok();
        // Rules live in the process-global engine: use a metric name no
        // other test touches, and a rule on the global registry.
        crate::alerts::install_rules("t.export.alert_probe > 10 for 2 windows")
            .expect("rule parses");
        let gauge = Registry::global().gauge("t.export.alert_probe");
        let exporter = StatusExporter::new(path.clone());
        gauge.set(50.0);
        exporter.on_step(core(1, 1)); // streak 1
        exporter.on_step(core(2, 2)); // streak 2 → fires
        let doc: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        check_status_doc(&doc).expect("doc with alerts section");
        let alerts = doc.get("alerts").expect("alerts section present");
        let active = alerts.get("active").unwrap().as_array().unwrap();
        assert!(
            active
                .iter()
                .any(|a| a.get("metric").unwrap().as_str() == Some("t.export.alert_probe")),
            "probe alert active in doc: {alerts:?}"
        );
        gauge.set(0.0);
        let mut fin = core(3, 3);
        fin.state = "finished";
        exporter.on_step(fin);
        let text = std::fs::read_to_string(&log).expect("alert log exists");
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                let v: serde::Value = serde_json::from_str(l).unwrap();
                crate::schema::check_alert_line(&v).expect("alert line schema");
                v.get("kind").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        assert!(kinds.contains(&"fired".to_string()), "kinds: {kinds:?}");
        assert!(
            kinds.contains(&"resolved".to_string()),
            "resolution logged: {kinds:?}"
        );
        assert!(Registry::global().counter("qoc.alerts.fired").get() >= 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
        std::fs::remove_file(path.with_extension("history.jsonl")).ok();
        std::fs::remove_file(path.with_extension("prom")).ok();
    }

    #[test]
    fn heartbeat_respects_time_floor_and_missing_core() {
        let _serial = serial();
        let path = tmp_status_path("heartbeat");
        let exporter = StatusExporter::new(path.clone());
        // No core yet: heartbeat must not write anything.
        exporter.maybe_heartbeat();
        assert!(!path.exists());
        exporter.on_step(core(1, 10));
        let first = std::fs::read_to_string(&path).unwrap();
        // Inside the floor: the file is untouched.
        exporter.maybe_heartbeat();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("history.jsonl")).ok();
        std::fs::remove_file(path.with_extension("prom")).ok();
    }
}
