//! Flight recorder: a bounded in-memory ring of the most recent records.
//!
//! Long on-chip training runs die far from their logs — a queue timeout or a
//! fatal device error kills the process hours in, and the JSONL trace (when
//! enabled at all) is gigabytes of history with no summary of the final
//! seconds. The flight recorder is the black box for that crash: a
//! [`Subscriber`] that always keeps the **last N** spans/events in memory and
//! flushes them as schema-valid JSONL next to the emergency checkpoint when
//! the engine aborts (see `TrainError::Execution` handling in
//! `qoc-core::engine`).
//!
//! # Concurrency model
//!
//! Each writing thread owns a private ring (per-thread write cursors), so the
//! record hot path never contends with other writers: a thread locks only its
//! own ring's mutex, which no other thread touches outside of snapshots. A
//! record is moved into the ring whole — a reader (the crash-dump path) takes
//! each ring's lock and clones complete [`OwnedRecord`]s, so **no torn
//! records** are possible by construction. A global sequence counter stamps
//! every record, giving snapshots a total "newest wins" order across threads.
//!
//! # Memory bound
//!
//! Every per-thread ring is clamped to the configured capacity, so resident
//! memory is at most `capacity × writing-threads` records and a snapshot (or
//! dump) returns at most `capacity` records — the globally newest ones.
//!
//! Enabled by `QOC_FLIGHT_RECORDER=N` (ring capacity; `0` or empty
//! disables; a malformed value is rejected by
//! [`env::check`](crate::env::check)). With the variable unset the recorder
//! is **never constructed** and the instrumentation macros stay at one
//! relaxed atomic load (pinned by the
//! `telemetry/span_disabled_flight_off` micro-bench).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sink::{owned_record_json, OwnedRecord};
use crate::{Level, Record, Subscriber};

/// One thread's private ring: `(global seq, record)` pairs, newest at the
/// back. Only the owning thread writes; snapshots briefly lock to clone.
#[derive(Debug, Default)]
struct ThreadRing {
    slots: Mutex<VecDeque<(u64, OwnedRecord)>>,
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Cache of `(recorder id → ring)` so the hot path skips the global
    /// ring registry entirely after a thread's first record.
    static RING_CACHE: RefCell<Vec<(u64, Arc<ThreadRing>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Bounded in-memory recorder of the most recent telemetry records.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Distinct per instance (never reused), keys the thread-local cache.
    id: u64,
    capacity: usize,
    /// Global record sequence: total order across all threads.
    seq: AtomicU64,
    /// Registry of every thread's ring, for snapshot/dump.
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl FlightRecorder {
    /// A recorder keeping the newest `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever accepted (including ones since evicted).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The calling thread's ring, creating and registering it on first use.
    fn thread_ring(&self) -> Arc<ThreadRing> {
        RING_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.id) {
                return ring.clone();
            }
            let ring = Arc::new(ThreadRing::default());
            self.rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ring.clone());
            cache.push((self.id, ring.clone()));
            ring
        })
    }

    /// The newest ≤ `capacity` records across all threads, oldest first.
    pub fn snapshot(&self) -> Vec<OwnedRecord> {
        let rings: Vec<Arc<ThreadRing>> =
            self.rings.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut merged: Vec<(u64, OwnedRecord)> = Vec::new();
        for ring in rings {
            let slots = ring.slots.lock().unwrap_or_else(|e| e.into_inner());
            merged.extend(slots.iter().cloned());
        }
        merged.sort_by_key(|(seq, _)| *seq);
        if merged.len() > self.capacity {
            merged.drain(..merged.len() - self.capacity);
        }
        merged.into_iter().map(|(_, record)| record).collect()
    }

    /// Flushes the ring as trace-schema JSONL (the black-box dump), oldest
    /// record first. Returns the number of lines written.
    pub fn dump_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let records = self.snapshot();
        let mut writer = BufWriter::new(File::create(path)?);
        for record in &records {
            let line = serde_json::to_string(&owned_record_json(record)).expect("infallible");
            writeln!(writer, "{line}")?;
        }
        writer.flush()?;
        Ok(records.len())
    }
}

impl Subscriber for FlightRecorder {
    fn wants(&self, _level: Level) -> bool {
        // The black box records everything; severity filtering would drop
        // exactly the context a post-mortem needs.
        true
    }

    fn record(&self, record: &Record<'_>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
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
        let ring = self.thread_ring();
        let mut slots = ring.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.push_back((seq, owned));
        if slots.len() > self.capacity {
            slots.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, install_for_test, span, TestInstallGuard};

    /// Forwards only `flight.*` records to the recorder. The exporter tests
    /// dispatch `alert.*` events through the global subscriber list without
    /// the install lock, so an unfiltered ring would also count those.
    #[derive(Debug)]
    struct FlightOnly(Arc<FlightRecorder>);

    impl Subscriber for FlightOnly {
        fn wants(&self, level: Level) -> bool {
            self.0.wants(level)
        }

        fn record(&self, record: &Record<'_>) {
            if record.span.starts_with("flight.") {
                self.0.record(record);
            }
        }
    }

    fn install_recorder(recorder: &Arc<FlightRecorder>) -> TestInstallGuard {
        install_for_test(vec![Arc::new(FlightOnly(recorder.clone()))], None)
    }

    #[test]
    fn ring_is_bounded_and_newest_wins() {
        let recorder = Arc::new(FlightRecorder::new(4));
        let guard = install_recorder(&recorder);
        for i in 0..10u64 {
            event!(Level::Info, "flight.unit", idx = i);
        }
        drop(guard);
        let records = recorder.snapshot();
        assert_eq!(records.len(), 4);
        let idxs: Vec<u64> = records
            .iter()
            .map(|r| match &r.fields[0].1 {
                crate::FieldValue::U64(v) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(idxs, vec![6, 7, 8, 9], "the newest records win");
        assert_eq!(recorder.recorded(), 10);
    }

    #[test]
    fn multithread_stress_no_torn_records() {
        // Satellite stress contract: 8 threads × 10k records through the
        // global dispatch path. The ring must stay bounded, every surviving
        // record must be internally consistent (no torn writes), and each
        // thread's surviving records must be its newest (a contiguous tail).
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        const CAPACITY: usize = 512;

        let recorder = Arc::new(FlightRecorder::new(CAPACITY));
        let guard = install_recorder(&recorder);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        event!(
                            Level::Info,
                            "flight.stress",
                            idx = i,
                            writer = t,
                            check = i * THREADS + t,
                        );
                    }
                });
            }
        });
        drop(guard);

        assert_eq!(recorder.recorded(), THREADS * PER_THREAD);
        let records = recorder.snapshot();
        assert_eq!(records.len(), CAPACITY, "ring length bounded");

        let mut newest_per_writer: Vec<Vec<u64>> = vec![Vec::new(); THREADS as usize];
        for record in &records {
            assert_eq!(record.span, "flight.stress");
            let get = |key: &str| -> u64 {
                match record.fields.iter().find(|(k, _)| k == key) {
                    Some((_, crate::FieldValue::U64(v))) => *v,
                    other => panic!("field {key} missing or wrong type: {other:?}"),
                }
            };
            let (idx, writer, check) = (get("idx"), get("writer"), get("check"));
            assert_eq!(check, idx * THREADS + writer, "torn record: {record:?}");
            newest_per_writer[writer as usize].push(idx);
        }
        for (writer, idxs) in newest_per_writer.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            // Per-thread order is preserved and survivors are the newest:
            // a contiguous run ending at the thread's final record.
            let lo = idxs[0];
            let expected: Vec<u64> = (lo..PER_THREAD).collect();
            assert_eq!(
                idxs, &expected,
                "writer {writer}: survivors must be the newest, in order"
            );
        }
    }

    #[test]
    fn dump_is_schema_valid_trace_jsonl() {
        let recorder = Arc::new(FlightRecorder::new(64));
        let guard = install_recorder(&recorder);
        {
            let _s = span!("flight.span", jobs = 3usize);
        }
        event!(Level::Warn, "flight.event", loss = 0.25f64, tag = "dump");
        drop(guard);

        let dir = std::env::temp_dir().join(format!("qoc-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blackbox.jsonl");
        let written = recorder.dump_jsonl(&path).unwrap();
        assert_eq!(written, 2);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value: serde::Value = serde_json::from_str(line).expect("dump line parses");
            crate::schema::check_trace_record(&value)
                .unwrap_or_else(|e| panic!("dump line violates trace schema: {e}\n{line}"));
        }
        assert!(lines[0].contains("\"span\":\"flight.span\""));
        assert!(lines[1].contains("\"tag\":\"dump\""));
    }
}
