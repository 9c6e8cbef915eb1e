//! Subscribers: console (human-readable, `QOC_LOG`), JSONL file
//! (`QOC_TRACE_FILE`), and an in-memory capture used by tests.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::{FieldValue, Level, Record, RecordKind, Subscriber};

/// Renders a record as the structural JSON object written to the trace:
/// `ts`, `kind`, `level`, `span`, `thread`, `fields`, plus `dur_ns` for
/// spans. This is the schema contract the golden test pins down.
pub fn record_json(record: &Record<'_>) -> serde::Value {
    let mut entries = vec![
        ("ts".to_string(), serde::Value::UInt(record.ts_ns)),
        (
            "kind".to_string(),
            serde::Value::Str(record.kind.as_str().to_string()),
        ),
        (
            "level".to_string(),
            serde::Value::Str(record.level.as_str().to_string()),
        ),
        (
            "span".to_string(),
            serde::Value::Str(record.span.to_string()),
        ),
        ("thread".to_string(), serde::Value::UInt(record.thread)),
    ];
    if let Some(dur) = record.dur_ns {
        entries.push(("dur_ns".to_string(), serde::Value::UInt(dur)));
    }
    let fields: Vec<(String, serde::Value)> = record
        .fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_json()))
        .collect();
    entries.push(("fields".to_string(), serde::Value::Object(fields)));
    serde::Value::Object(entries)
}

/// Human-readable subscriber writing to stderr, installed when `QOC_LOG`
/// is set. Lines look like
/// `[  0.012s] debug span device.batch (184.2µs) jobs=34 workers=4`.
#[derive(Debug)]
pub struct ConsoleSubscriber {
    max_level: Level,
}

impl ConsoleSubscriber {
    /// Console subscriber passing records at or above `max_level` severity.
    pub fn new(max_level: Level) -> Self {
        ConsoleSubscriber { max_level }
    }
}

impl Subscriber for ConsoleSubscriber {
    fn wants(&self, level: Level) -> bool {
        level <= self.max_level
    }

    fn record(&self, record: &Record<'_>) {
        let mut line = format!(
            "[{:>8.3}s] {:<5} {:<5} {}",
            record.ts_ns as f64 / 1e9,
            record.level.as_str(),
            record.kind.as_str(),
            record.span,
        );
        if let Some(dur) = record.dur_ns {
            line.push_str(&format!(" ({})", format_duration(dur)));
        }
        for (key, value) in record.fields {
            line.push_str(&format!(" {key}={value}"));
        }
        eprintln!("{line}");
    }
}

fn format_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Line-buffered JSONL trace sink, installed when `QOC_TRACE_FILE` is set.
/// Each record is one compact JSON object per line, flushed per line so a
/// crash or a concurrent reader never sees a torn tail.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file, making parent directories as
    /// needed.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Subscriber for JsonlSink {
    fn wants(&self, _level: Level) -> bool {
        // The trace file is for machine analysis; level filtering is the
        // reader's job.
        true
    }

    fn record(&self, record: &Record<'_>) {
        let line = serde_json::to_string(&record_json(record)).expect("infallible");
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(writer, "{line}");
        let _ = writer.flush();
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writer.flush();
    }
}

/// An owned copy of a [`Record`], retained by [`CaptureSubscriber`].
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedRecord {
    /// Nanoseconds since telemetry init.
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Event vs span.
    pub kind: RecordKind,
    /// Record name.
    pub span: String,
    /// Emitting thread id.
    pub thread: u64,
    /// Span duration (spans only).
    pub dur_ns: Option<u64>,
    /// `key = value` payload.
    pub fields: Vec<(String, FieldValue)>,
}

/// In-memory subscriber for tests: retains every record it receives.
#[derive(Debug)]
pub struct CaptureSubscriber {
    max_level: Level,
    records: Mutex<Vec<OwnedRecord>>,
}

impl CaptureSubscriber {
    /// Capture subscriber passing records at or above `max_level` severity.
    pub fn new(max_level: Level) -> Self {
        CaptureSubscriber {
            max_level,
            records: Mutex::new(Vec::new()),
        }
    }

    /// Everything captured so far, in dispatch order.
    pub fn records(&self) -> Vec<OwnedRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl Subscriber for CaptureSubscriber {
    fn wants(&self, level: Level) -> bool {
        level <= self.max_level
    }

    fn record(&self, record: &Record<'_>) {
        let owned = OwnedRecord {
            ts_ns: record.ts_ns,
            level: record.level,
            kind: record.kind,
            span: record.span.to_string(),
            thread: record.thread,
            dur_ns: record.dur_ns,
            fields: record
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(owned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, install_for_test, span};
    use std::sync::Arc;

    #[test]
    fn jsonl_golden_schema_round_trips() {
        // Satellite golden test: every emitted line must parse with the
        // vendored serde_json and carry `ts`/`span`/`fields` (plus the rest
        // of the schema documented on `record_json`).
        let dir = std::env::temp_dir().join(format!("qoc-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.jsonl");
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let guard = install_for_test(vec![sink], Some(path.clone()));
        {
            let _s = span!("golden.span", jobs = 3usize, ratio = 0.5f64);
        }
        event!(Level::Info, "golden.event", label = "pgp", frozen = 4usize);
        crate::flush();
        drop(guard);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value = serde_json::from_str(line).expect("trace line must parse");
            let obj = value.as_object().expect("trace line must be an object");
            for key in ["ts", "kind", "level", "span", "thread", "fields"] {
                assert!(
                    obj.iter().any(|(k, _)| k == key),
                    "line missing `{key}`: {line}"
                );
            }
        }
        let span_line = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(span_line.get("kind").unwrap().as_str(), Some("span"));
        assert_eq!(span_line.get("span").unwrap().as_str(), Some("golden.span"));
        assert!(span_line.get("dur_ns").unwrap().as_u64().is_some());
        let span_fields = span_line.get("fields").unwrap();
        assert_eq!(span_fields.get("jobs").unwrap().as_u64(), Some(3));
        assert_eq!(span_fields.get("ratio").unwrap().as_f64(), Some(0.5));

        let event_line = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(event_line.get("kind").unwrap().as_str(), Some("event"));
        assert_eq!(event_line.get("level").unwrap().as_str(), Some("info"));
        assert!(event_line.get("dur_ns").is_none());
        let event_fields = event_line.get("fields").unwrap();
        assert_eq!(event_fields.get("label").unwrap().as_str(), Some("pgp"));
        assert_eq!(event_fields.get("frozen").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn console_line_is_human_readable() {
        let record = Record {
            ts_ns: 12_000_000,
            level: Level::Debug,
            kind: RecordKind::Span,
            span: "device.batch",
            thread: 3,
            dur_ns: Some(184_200),
            fields: &[
                ("jobs", FieldValue::U64(34)),
                ("workers", FieldValue::U64(4)),
            ],
        };
        // Smoke: rendering must not panic; formatting is exercised through
        // format_duration below.
        ConsoleSubscriber::new(Level::Trace).record(&record);
        assert_eq!(format_duration(999), "999ns");
        assert_eq!(format_duration(184_200), "184.2µs");
        assert_eq!(format_duration(12_500_000), "12.5ms");
        assert_eq!(format_duration(2_000_000_000), "2.000s");
    }
}
