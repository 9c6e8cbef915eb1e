//! `qoc-top` — live console dashboard over a status-exported training run.
//!
//! Tails the `QOC_STATUS_FILE` snapshot (atomic tmp+rename writes mean a
//! read never observes a torn document) and its `<stem>.history.jsonl`
//! sibling, and redraws a dashboard on every change: progress bar, step
//! rate and ETA, a loss sparkline over the step history, the gradient-SNR
//! quantile heat, per-worker utilization (live workers, in-flight jobs,
//! busy time), and retry/pool counters.
//!
//! Usage: `qoc-top [STATUS_FILE] [--once] [--interval MS]`
//!
//! - `STATUS_FILE` defaults to `$QOC_STATUS_FILE`;
//! - `--once` renders a single frame and exits (CI smoke-tests the render
//!   path with this);
//! - `--interval MS` sets the poll cadence (default 500 ms).
//!
//! Exits 0 when the watched run reaches a terminal state (`finished` /
//! `failed`), 2 when the status file never appears within the first few
//! seconds.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serde::Value;

/// Unicode eighth-block ramp for the loss sparkline.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a fixed-height sparkline (min–max normalized).
fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let tail: Vec<f64> = values
        .iter()
        .copied()
        .skip(values.len().saturating_sub(width))
        .collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &tail {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * (SPARK.len() - 1) as f64).round() as usize;
            SPARK[idx.min(SPARK.len() - 1)]
        })
        .collect()
}

/// `42.3s` / `3m12s` / `1h04m` — compact ETA rendering.
fn fmt_eta(seconds: f64) -> String {
    if !seconds.is_finite() || seconds < 0.0 {
        return "-".to_string();
    }
    let s = seconds.round() as u64;
    if s < 100 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

fn get_u64(doc: &Value, path: &[&str]) -> u64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    v.as_u64().unwrap_or(0)
}

fn get_f64(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

fn get_str<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// One full dashboard frame from the current snapshot + step history.
fn render(doc: &Value, losses: &[f64]) -> String {
    let mut out = String::new();
    let state = get_str(doc, "state");
    let step = get_u64(doc, &["step"]);
    let total = get_u64(doc, &["steps_total"]);
    let rate = get_f64(doc, &["step_rate"]);
    let eta = doc.get("eta_seconds").and_then(Value::as_f64);

    out.push_str(&format!(
        "qoc-top — run {} on {} [{}]\n",
        get_str(doc, "run_id"),
        get_str(doc, "backend"),
        state
    ));

    // Progress bar over configured steps.
    let width = 40usize;
    let filled = if total > 0 {
        ((step as f64 / total as f64) * width as f64).round() as usize
    } else {
        0
    }
    .min(width);
    out.push_str(&format!(
        "  step {step}/{total} [{}{}] {:.2} steps/s  eta {}\n",
        "█".repeat(filled),
        "░".repeat(width - filled),
        rate,
        eta.map_or_else(|| "-".to_string(), fmt_eta),
    ));
    out.push_str(&format!(
        "  loss {:.6}  best acc {:.3}  prune {}\n",
        get_f64(doc, &["loss"]),
        get_f64(doc, &["best_accuracy"]),
        get_str(doc, "prune_phase"),
    ));
    if !losses.is_empty() {
        out.push_str(&format!("  loss history {}\n", sparkline(losses, 60)));
    }

    out.push_str(&format!(
        "  snr    n={} min {:.2} p50 {:.2} p90 {:.2} p99 {:.2} max {:.2}\n",
        get_u64(doc, &["snr", "count"]),
        get_f64(doc, &["snr", "min"]),
        get_f64(doc, &["snr", "p50"]),
        get_f64(doc, &["snr", "p90"]),
        get_f64(doc, &["snr", "p99"]),
        get_f64(doc, &["snr", "max"]),
    ));
    out.push_str(&format!(
        "  device {} circuits  {} shots ({} requested)  {:.3} s on-device\n",
        get_u64(doc, &["device", "circuits_run"]),
        get_u64(doc, &["device", "total_shots"]),
        get_u64(doc, &["device", "requested_shots"]),
        get_u64(doc, &["device", "device_ns"]) as f64 / 1e9,
    ));
    out.push_str(&format!(
        "  pool   {} workers live  {} jobs in flight  {} completed  busy {:.3} s\n",
        get_f64(doc, &["workers", "live"]),
        get_f64(doc, &["workers", "jobs_inflight"]),
        get_u64(doc, &["workers", "jobs_completed"]),
        get_u64(doc, &["workers", "busy_ns"]) as f64 / 1e9,
    ));
    out.push_str(&format!(
        "  queue  p50 {:.1} µs  p90 {:.1} µs  p99 {:.1} µs   retries {} (gave up {}, degraded {})  \
         scratch hits {} misses {}\n",
        get_u64(doc, &["queue_wait_ns", "p50"]) as f64 / 1e3,
        get_u64(doc, &["queue_wait_ns", "p90"]) as f64 / 1e3,
        get_u64(doc, &["queue_wait_ns", "p99"]) as f64 / 1e3,
        get_u64(doc, &["retries", "retries"]),
        get_u64(doc, &["retries", "gave_up"]),
        get_u64(doc, &["retries", "degraded_jobs"]),
        get_u64(doc, &["pool", "hits"]),
        get_u64(doc, &["pool", "misses"]),
    ));
    // Multi-tenant serving rows (only when a qoc-serve host publishes
    // per-tenant counters into the status doc).
    if let Some(tenants) = doc.get("tenants").and_then(Value::as_object) {
        out.push_str("  tenants\n");
        for (tenant, fields) in tenants {
            let field = |k: &str| fields.get(k).and_then(Value::as_u64).unwrap_or(0);
            out.push_str(&format!(
                "    {tenant:<12} {:>4} done  {:>3} running  {:>3} queued  {:>3} preempted  \
                 {:>3} rejected  {:.3} s on-device\n",
                field("completed"),
                field("running"),
                field("queued"),
                field("preempted"),
                field("rejected"),
                field("device_ns") as f64 / 1e9,
            ));
        }
    }
    // SLO alerts (only when rules are installed — QOC_ALERT_RULES or a
    // serve host's defaults). Active firings render in red so a glance at
    // the dashboard catches a sick run.
    if let Some(alerts) = doc.get("alerts") {
        let active = alerts
            .get("active")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        out.push_str(&format!(
            "  alerts {} rules  {} fired  {} resolved  {} active\n",
            get_u64(doc, &["alerts", "rules"]),
            get_u64(doc, &["alerts", "fired_total"]),
            get_u64(doc, &["alerts", "resolved_total"]),
            active.len(),
        ));
        for firing in active {
            let s = |k: &str| firing.get(k).and_then(Value::as_str).unwrap_or("?");
            out.push_str(&format!(
                "    \x1b[31mFIRING\x1b[0m {}  [{}]\n",
                s("metric"),
                s("rule"),
            ));
        }
    }
    out.push_str(&format!(
        "  snapshot #{}  uptime {:.1} s\n",
        get_u64(doc, &["snapshot"]),
        get_u64(doc, &["uptime_ns"]) as f64 / 1e9,
    ));
    out
}

/// Loss series from the history sibling (one value per step publication).
fn read_losses(history: &std::path::Path) -> Vec<f64> {
    let Ok(text) = std::fs::read_to_string(history) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter_map(|doc: Value| doc.get("loss").and_then(Value::as_f64))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut status_arg: Option<PathBuf> = None;
    let mut once = false;
    let mut interval_ms = 500u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => once = true,
            "--interval" => {
                i += 1;
                interval_ms = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(ms) => ms,
                    None => {
                        eprintln!("qoc-top: --interval needs a millisecond count");
                        return ExitCode::from(1);
                    }
                };
            }
            flag if flag.starts_with("--") => {
                eprintln!("qoc-top: unknown flag {flag:?}");
                return ExitCode::from(1);
            }
            path => status_arg = Some(PathBuf::from(path)),
        }
        i += 1;
    }
    let status_path = match status_arg.or_else(|| qoc_telemetry::env::path("QOC_STATUS_FILE")) {
        Some(p) => p,
        None => {
            eprintln!("qoc-top: no status file given (argument or QOC_STATUS_FILE)");
            return ExitCode::from(2);
        }
    };
    let history_path = status_path.with_extension("history.jsonl");

    let mut last_frame = String::new();
    let mut waited_ms = 0u64;
    loop {
        match std::fs::read_to_string(&status_path) {
            Ok(text) => {
                // Parse failures (mid-rename or a half-written file from a
                // non-atomic writer) are silently retried next tick.
                if let Ok(doc) = serde_json::from_str(&text) {
                    let losses = read_losses(&history_path);
                    let frame = render(&doc, &losses);
                    if frame != last_frame {
                        if once {
                            print!("{frame}");
                        } else {
                            // Clear screen + home; plain ANSI, no raw mode.
                            print!("\x1b[2J\x1b[H{frame}");
                            use std::io::Write as _;
                            let _ = std::io::stdout().flush();
                        }
                        last_frame = frame;
                    }
                    let state = get_str(&doc, "state");
                    if once || state != "running" {
                        if !once {
                            println!("qoc-top: run {state}");
                        }
                        return ExitCode::SUCCESS;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                waited_ms += interval_ms;
                // Give a launching run a grace window, then give up.
                if waited_ms > 10_000 {
                    eprintln!(
                        "qoc-top: status file {} never appeared (is the run exporting?)",
                        status_path.display()
                    );
                    return ExitCode::from(2);
                }
                if once {
                    eprintln!(
                        "qoc-top: status file {} does not exist",
                        status_path.display()
                    );
                    return ExitCode::from(2);
                }
            }
            Err(e) => {
                eprintln!("qoc-top: cannot read {}: {e}", status_path.display());
                return ExitCode::from(1);
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}
