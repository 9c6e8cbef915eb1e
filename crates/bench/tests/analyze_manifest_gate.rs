//! `qoc-analyze` as the artifact gate of a traced run: a manifest that
//! reports zero circuits run fails the sanity gates (exit 1), a missing
//! satellite is a missing input (exit 2), and the trace of an aborted run
//! is a whole record without satellites (exit 0).

use std::path::{Path, PathBuf};
use std::process::Command;

use qoc_bench::analyze::{aborted_step, analyze_run, parse_trace};

const TRACE: &str = concat!(
    r#"{"ts":100,"kind":"span","level":"debug","span":"train.run","thread":0,"dur_ns":80,"fields":{"steps":1}}"#,
    "\n"
);

/// A manifest whose three circuit-run counters all read `runs`.
fn manifest(runs: u64) -> String {
    format!(
        r#"{{"execution_stats":{{"circuits_run":{runs},"total_shots":0,"estimated_device_seconds":0.0}},
            "metrics":{{"counters":{{"qoc.train.circuit_runs":{runs},"qoc.device.circuits_run":{runs}}}}}}}"#
    )
}

/// Writes a trace and its satellites into a fresh directory; `None` leaves
/// that satellite out.
fn write_run(name: &str, steps: Option<&str>, manifest: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qoc-analyze-gate-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("run.jsonl");
    std::fs::write(&trace, TRACE).expect("write trace");
    if let Some(steps) = steps {
        std::fs::write(trace.with_extension("steps.jsonl"), steps).expect("write steps");
    }
    std::fs::write(trace.with_extension("evals.jsonl"), "").expect("write evals");
    std::fs::write(trace.with_extension("manifest.json"), manifest).expect("write manifest");
    trace
}

fn analyze_exit_code(trace: &Path) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_qoc-analyze"))
        .arg(trace)
        .arg("--quiet")
        .status()
        .expect("run qoc-analyze");
    let _ = std::fs::remove_dir_all(trace.parent().expect("trace has a directory"));
    status.code().expect("qoc-analyze exited with a code")
}

#[test]
fn zero_circuit_manifest_fails_the_gate() {
    let zero = analyze_run(TRACE, Some(""), Some(""), Some(&manifest(0))).unwrap();
    assert_eq!(
        zero.sanity_failures(0.05),
        vec![
            "manifest reports zero circuits run (execution_stats.circuits_run)",
            "manifest reports zero circuits run (qoc.train.circuit_runs)",
            "manifest reports zero circuits run (qoc.device.circuits_run)",
        ]
    );
    let healthy = analyze_run(TRACE, Some(""), Some(""), Some(&manifest(7))).unwrap();
    assert_eq!(healthy.sanity_failures(0.05), Vec::<String>::new());

    assert_eq!(
        analyze_exit_code(&write_run("ok", Some(""), &manifest(7))),
        0
    );
    assert_eq!(
        analyze_exit_code(&write_run("zero", Some(""), &manifest(0))),
        1
    );
}

#[test]
fn missing_satellite_is_a_missing_input() {
    assert_eq!(
        analyze_exit_code(&write_run("nosteps", None, &manifest(7))),
        2
    );
}

#[test]
fn aborted_trace_needs_no_satellites() {
    let abort = r#"{"ts":90,"kind":"event","level":"warn","span":"train.abort","thread":0,"fields":{"step":4,"error":"job 2 failed","checkpointed":false}}"#;
    let aborted = format!("{abort}\n{TRACE}");
    let analysis = analyze_run(&aborted, None, None, None).unwrap();
    assert_eq!((analysis.spans, analysis.events), (1, 1));
    let step = |trace: &str| aborted_step(&parse_trace(trace).unwrap().0);
    assert_eq!((step(&aborted), step(TRACE)), (Some(4), None));

    let dir = std::env::temp_dir().join(format!("qoc-analyze-gate-{}-aborted", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("run.jsonl");
    std::fs::write(&trace, &aborted).expect("write trace");
    // A satellite left over from another run is not this run's: unread.
    std::fs::write(trace.with_extension("steps.jsonl"), "not json\n").expect("write steps");
    assert_eq!(analyze_exit_code(&trace), 0);

    // The same trace without its abort is a finished run missing its
    // satellites.
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(&trace, TRACE).expect("write trace");
    assert_eq!(analyze_exit_code(&trace), 2);
}
