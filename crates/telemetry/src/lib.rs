//! # qoc-telemetry — structured tracing and metrics for the QOC stack
//!
//! A zero-external-dependency observability layer (the build environment has
//! no crates registry, so `tracing`/`metrics` are reimplemented in-repo in
//! the same spirit as the `vendor/` shims). Three pieces:
//!
//! - **Spans and events** — [`span!`] returns a guard that measures
//!   monotonic elapsed time and emits a record on drop; [`event!`] emits a
//!   point-in-time record. Both carry a thread id and `key = value` fields.
//! - **Subscribers** — records fan out to pluggable [`Subscriber`]s: a
//!   human-readable console subscriber gated by the `QOC_LOG` level and a
//!   line-buffered JSONL sink gated by `QOC_TRACE_FILE` (see [`sink`]).
//! - **Metrics** — a global registry of atomic counters, gauges, and
//!   fixed-bucket histograms (see [`metrics`]), exported via
//!   [`metrics::Registry::snapshot`] into run manifests and bench artifacts.
//! - **Live observability** — a bounded in-memory [`flight`] recorder
//!   (`QOC_FLIGHT_RECORDER`, black-box crash dumps) and a live status
//!   [`export`]er (`QOC_STATUS_FILE`) publishing atomic
//!   JSON snapshots plus a Prometheus text sibling (see [`prom`]).
//! - **Knobs** — every `QOC_*` environment variable of the workspace is
//!   tabled and parsed in [`env`](mod@env).
//!
//! # Off by default, cheap when off
//!
//! With neither environment variable set, no subscriber exists and
//! [`enabled`] is a single relaxed atomic load — the instrumented hot paths
//! (per-job timing in `run_batch_workers`, per-step training events) skip
//! all field construction and clock reads, so tier-1 timing is unaffected.
//! The `telemetry/span_disabled` micro-benchmark in `qoc-bench` tracks this.
//!
//! # Trace schema
//!
//! Every JSONL line is one object with at least `ts` (integer ns since
//! process telemetry init), `span` (the record name), `kind`
//! (`"span"`/`"event"`), `level`, `thread`, and `fields` (an object of the
//! record's key=value pairs); span records add `dur_ns`. Example:
//!
//! ```json
//! {"ts":51234,"kind":"span","level":"debug","span":"device.batch",
//!  "thread":0,"dur_ns":184211,"fields":{"jobs":34,"workers":4}}
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alerts;
pub mod env;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod profiler;
pub mod prom;
pub mod quantile;
pub mod schema;
pub mod sink;

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// Severity of a record, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable problems.
    Error,
    /// Suspicious conditions.
    Warn,
    /// High-level progress (per-step training events).
    Info,
    /// Detailed flow (spans, per-batch device records).
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    /// Lower-case name, as emitted in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Level {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            _ => Err(()),
        }
    }
}

/// A typed `key = value` field payload.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// Renders as a structural JSON value.
    pub fn to_json(&self) -> serde::Value {
        match self {
            FieldValue::U64(v) => serde::Value::UInt(*v),
            FieldValue::I64(v) => serde::Value::Int(*v),
            FieldValue::F64(v) => serde::Value::Float(*v),
            FieldValue::Bool(v) => serde::Value::Bool(*v),
            FieldValue::Str(v) => serde::Value::Str(v.clone()),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.6}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::U64(v as u64) }
        }
    )*};
}
field_from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! field_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::I64(v as i64) }
        }
    )*};
}
field_from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Whether a record marks an instant or a closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Point-in-time event.
    Event,
    /// A span that just closed (carries `dur_ns`).
    Span,
}

impl RecordKind {
    /// Lower-case name, as emitted in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::Span => "span",
        }
    }
}

/// One tracing record, handed to every interested [`Subscriber`].
#[derive(Debug)]
pub struct Record<'a> {
    /// Nanoseconds since telemetry initialization (monotonic clock).
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Event vs span.
    pub kind: RecordKind,
    /// Record name (e.g. `"train.step"`).
    pub span: &'a str,
    /// Small sequential id of the emitting thread.
    pub thread: u64,
    /// Span duration (spans only).
    pub dur_ns: Option<u64>,
    /// `key = value` payload.
    pub fields: &'a [(&'static str, FieldValue)],
}

/// Receives records. Implementations must be cheap and must not call back
/// into the tracing API.
pub trait Subscriber: Send + Sync + std::fmt::Debug {
    /// Level filter; records above this severity are skipped.
    fn wants(&self, level: Level) -> bool;

    /// Consumes one record.
    fn record(&self, record: &Record<'_>);

    /// Flushes buffered output (called at run boundaries).
    fn flush(&self) {}
}

/// The process-wide telemetry state.
#[derive(Debug)]
struct Telemetry {
    active: AtomicBool,
    epoch: Instant,
    dispatched: AtomicU64,
    subscribers: RwLock<Vec<Arc<dyn Subscriber>>>,
    trace_path: RwLock<Option<PathBuf>>,
    flight: RwLock<Option<Arc<flight::FlightRecorder>>>,
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        let mut subscribers: Vec<Arc<dyn Subscriber>> = Vec::new();
        // A malformed knob is left off here: `env::check`, which every
        // entry point runs before training, reports it.
        if let Ok(Some(level)) = env::level("QOC_LOG") {
            subscribers.push(Arc::new(sink::ConsoleSubscriber::new(level)));
        }
        let mut trace_path = None;
        if let Some(path) = env::path("QOC_TRACE_FILE") {
            match sink::JsonlSink::create(&path) {
                Ok(sink) => {
                    subscribers.push(Arc::new(sink));
                    trace_path = Some(path);
                }
                Err(err) => eprintln!("qoc-telemetry: cannot open QOC_TRACE_FILE: {err}"),
            }
        }
        // The flight recorder is never constructed unless asked for (a
        // capacity > 0).
        let count = |name| env::count(name).ok().flatten().filter(|&n| n > 0);
        let flight = count("QOC_FLIGHT_RECORDER").map(|n| {
            let capacity = usize::try_from(n).unwrap_or(usize::MAX);
            Arc::new(flight::FlightRecorder::new(capacity))
        });
        if let Some(recorder) = &flight {
            subscribers.push(recorder.clone());
        }
        // A configured status exporter needs the gated instrumentation
        // (SNR, queue-wait) to feed the metrics registry even when no
        // record subscriber exists; a configured profiler needs the spans
        // themselves to be constructed so their stacks can be sampled.
        let profile_hz = count("QOC_PROFILE_HZ");
        if let Some(hz) = profile_hz {
            profiler::start_at(u32::try_from(hz).unwrap_or(u32::MAX));
        }
        let active = !subscribers.is_empty()
            || env::path("QOC_STATUS_FILE").is_some()
            || profile_hz.is_some();
        Telemetry {
            active: AtomicBool::new(active),
            epoch: Instant::now(),
            dispatched: AtomicU64::new(0),
            subscribers: RwLock::new(subscribers),
            trace_path: RwLock::new(trace_path),
            flight: RwLock::new(flight),
        }
    })
}

/// Fast path queried by the instrumentation macros: `true` iff at least one
/// subscriber is installed (or tracing was force-enabled). One relaxed
/// atomic load after first use.
#[inline]
pub fn enabled() -> bool {
    global().active.load(Ordering::Relaxed)
}

/// Initializes telemetry from `QOC_LOG` / `QOC_TRACE_FILE`. Initialization
/// is lazy on first use anyway; calling this at program start merely pins
/// the timestamp epoch and surfaces trace-file open errors early.
pub fn init_from_env() {
    let _ = global();
}

/// Force-enables dispatch even without subscribers, so the gated
/// instrumentation records into the metrics registry. Benchmarks use this
/// to collect queue-wait/utilization histograms without paying for a sink.
pub fn force_enable() {
    global().active.store(true, Ordering::Relaxed);
}

/// The JSONL trace file path, when `QOC_TRACE_FILE` is active. Run
/// artifacts (manifest, step records) are placed next to this file.
pub fn trace_file_path() -> Option<PathBuf> {
    global()
        .trace_path
        .read()
        .expect("telemetry poisoned")
        .clone()
}

/// The installed flight recorder (`QOC_FLIGHT_RECORDER`), if any. The
/// engine's crash path uses this to flush the black-box dump.
pub fn flight_recorder() -> Option<Arc<flight::FlightRecorder>> {
    global().flight.read().expect("telemetry poisoned").clone()
}

/// Number of records dispatched so far (observability for the
/// disabled-path tests: stays zero while [`enabled`] is false).
pub fn dispatch_count() -> u64 {
    global().dispatched.load(Ordering::Relaxed)
}

/// Flushes every subscriber (run boundaries; the JSONL sink also flushes
/// per line).
pub fn flush() {
    let t = global();
    for sub in t.subscribers.read().expect("telemetry poisoned").iter() {
        sub.flush();
    }
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Small sequential id of the calling thread (stable within the thread's
/// lifetime; assigned on first telemetry use).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

fn dispatch(
    level: Level,
    kind: RecordKind,
    span: &str,
    dur_ns: Option<u64>,
    fields: &[(&'static str, FieldValue)],
) {
    let t = global();
    let record = Record {
        ts_ns: t.epoch.elapsed().as_nanos() as u64,
        level,
        kind,
        span,
        thread: thread_id(),
        dur_ns,
        fields,
    };
    t.dispatched.fetch_add(1, Ordering::Relaxed);
    for sub in t.subscribers.read().expect("telemetry poisoned").iter() {
        if sub.wants(level) {
            sub.record(&record);
        }
    }
}

/// Emits a point-in-time event. Prefer the [`event!`] macro, which skips
/// field construction when telemetry is disabled.
pub fn dispatch_event(level: Level, name: &str, fields: Vec<(&'static str, FieldValue)>) {
    dispatch(level, RecordKind::Event, name, None, &fields);
}

/// An open span: measures monotonic time from construction to drop, then
/// emits a [`RecordKind::Span`] record. Create through the [`span!`] macro.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    level: Level,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
    /// Whether this guard published itself to the profiler slot — recorded
    /// at construction so push/pop stay balanced even if the profiler
    /// activates mid-span.
    profiled: bool,
}

impl SpanGuard {
    /// Opens a span (spans emit at [`Level::Debug`]).
    pub fn new(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Self {
        let profiled = profiler::active();
        if profiled {
            profiler::push_span(name);
        }
        SpanGuard {
            name,
            level: Level::Debug,
            start: Instant::now(),
            fields,
            profiled,
        }
    }

    /// Attaches a field after construction (e.g. a result computed inside
    /// the span).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push((key, value.into()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.profiled {
            profiler::pop_span();
        }
        dispatch(
            self.level,
            RecordKind::Span,
            self.name,
            Some(self.start.elapsed().as_nanos() as u64),
            &self.fields,
        );
    }
}

/// Builds a `Vec<(&'static str, FieldValue)>` from `key = value` pairs.
#[macro_export]
macro_rules! fields {
    ($($k:ident = $v:expr),* $(,)?) => {
        vec![ $( (stringify!($k), $crate::FieldValue::from($v)) ),* ]
    };
}

/// Opens a timed span: `let _s = span!("name", key = value, …);` — returns
/// `Option<SpanGuard>`, `None` (no work at all) when telemetry is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            Some($crate::SpanGuard::new($name, $crate::fields!($($k = $v),*)))
        } else {
            None
        }
    };
}

/// Emits an event: `event!(Level::Info, "name", key = value, …);` — fields
/// are not even constructed when telemetry is disabled.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::dispatch_event($level, $name, $crate::fields!($($k = $v),*));
        }
    };
}

/// Swaps the installed subscribers (tests only). The returned guard holds a
/// global lock serializing all tests that touch global telemetry state and
/// restores the previous subscribers, active flag, and trace path on drop.
pub fn install_for_test(
    subscribers: Vec<Arc<dyn Subscriber>>,
    trace_path: Option<PathBuf>,
) -> TestInstallGuard {
    install_for_test_with_flight(subscribers, trace_path, None)
}

/// [`install_for_test`] that additionally swaps the global flight-recorder
/// handle, so tests can exercise the black-box crash-dump path.
pub fn install_for_test_with_flight(
    subscribers: Vec<Arc<dyn Subscriber>>,
    trace_path: Option<PathBuf>,
    flight: Option<Arc<flight::FlightRecorder>>,
) -> TestInstallGuard {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = global();
    let prev_subs = std::mem::replace(
        &mut *t.subscribers.write().expect("telemetry poisoned"),
        subscribers,
    );
    let prev_active = t.active.swap(
        !t.subscribers.read().expect("telemetry poisoned").is_empty(),
        Ordering::Relaxed,
    );
    let prev_path = std::mem::replace(
        &mut *t.trace_path.write().expect("telemetry poisoned"),
        trace_path,
    );
    let prev_flight =
        std::mem::replace(&mut *t.flight.write().expect("telemetry poisoned"), flight);
    TestInstallGuard {
        prev_subs: Some(prev_subs),
        prev_active,
        prev_path,
        prev_flight,
        _lock: lock,
    }
}

/// Restores global telemetry state on drop (see [`install_for_test`]).
#[derive(Debug)]
pub struct TestInstallGuard {
    prev_subs: Option<Vec<Arc<dyn Subscriber>>>,
    prev_active: bool,
    prev_path: Option<PathBuf>,
    prev_flight: Option<Arc<flight::FlightRecorder>>,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for TestInstallGuard {
    fn drop(&mut self) {
        let t = global();
        *t.subscribers.write().expect("telemetry poisoned") =
            self.prev_subs.take().unwrap_or_default();
        t.active.store(self.prev_active, Ordering::Relaxed);
        *t.trace_path.write().expect("telemetry poisoned") = self.prev_path.take();
        *t.flight.write().expect("telemetry poisoned") = self.prev_flight.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CaptureSubscriber;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("debug".parse::<Level>(), Ok(Level::Debug));
        assert_eq!("WARN".parse::<Level>(), Ok(Level::Warn));
        assert!("nope".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn field_values_convert_and_render() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i32), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(
            FieldValue::from("x").to_json(),
            serde::Value::Str("x".into())
        );
        assert_eq!(FieldValue::from(1.5f64).to_json(), serde::Value::Float(1.5));
    }

    #[test]
    fn disabled_by_default_dispatches_nothing() {
        // Satellite disabled-path contract: with QOC_LOG/QOC_TRACE_FILE
        // unset (the test environment), no subscriber exists, `enabled()`
        // is false, the macros construct nothing, and no record is ever
        // dispatched. Hold the install lock so a concurrently running
        // subscriber test cannot flip the flag under us.
        let guard = install_for_test(Vec::new(), None);
        assert!(!enabled());
        assert_eq!(trace_file_path(), None);
        assert!(
            flight_recorder().is_none(),
            "QOC_FLIGHT_RECORDER unset: the recorder must never be constructed"
        );
        let before = dispatch_count();
        event!(Level::Info, "should.not.appear", x = 1u64);
        let span = span!("also.not", y = 2u64);
        assert!(span.is_none());
        drop(span);
        assert_eq!(dispatch_count(), before, "disabled path dispatched");
        drop(guard);
    }

    #[test]
    fn spans_measure_time_and_carry_fields() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
        let guard = install_for_test(vec![capture.clone()], None);
        assert!(enabled());
        {
            let mut s = span!("unit.test_span", jobs = 4usize).expect("enabled");
            s.field("extra", 1.25f64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        event!(Level::Info, "unit.test_event", ok = true);
        let records = capture.records();
        drop(guard);
        assert_eq!(records.len(), 2);
        let span_rec = &records[0];
        assert_eq!(span_rec.span, "unit.test_span");
        assert_eq!(span_rec.kind, RecordKind::Span);
        assert!(span_rec.dur_ns.expect("span duration") >= 2_000_000);
        assert_eq!(
            span_rec.fields,
            vec![
                ("jobs".to_string(), FieldValue::U64(4)),
                ("extra".to_string(), FieldValue::F64(1.25)),
            ]
        );
        let event_rec = &records[1];
        assert_eq!(event_rec.kind, RecordKind::Event);
        assert_eq!(event_rec.level, Level::Info);
        assert_eq!(event_rec.dur_ns, None);
        assert!(event_rec.ts_ns >= span_rec.ts_ns);
    }

    #[test]
    fn level_filter_drops_verbose_records() {
        let capture = Arc::new(CaptureSubscriber::new(Level::Info));
        let guard = install_for_test(vec![capture.clone()], None);
        event!(Level::Debug, "too.verbose");
        event!(Level::Info, "kept");
        event!(Level::Error, "also.kept");
        let records = capture.records();
        drop(guard);
        let names: Vec<&str> = records.iter().map(|r| r.span.as_str()).collect();
        assert_eq!(names, vec!["kept", "also.kept"]);
    }

    #[test]
    fn thread_ids_are_distinct_per_thread() {
        let mine = thread_id();
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(mine, other);
        assert_eq!(mine, thread_id(), "stable within a thread");
    }
}
