//! `qoc-analyze` — offline analysis of a traced run.
//!
//! Reads the `QOC_TRACE_FILE` JSONL trace plus its `.steps.jsonl` /
//! `.evals.jsonl` / `.manifest.json` satellites and writes, next to the
//! trace:
//!
//! - `<stem>.folded` — collapsed stacks for `flamegraph.pl` /
//!   `inferno-flamegraph`;
//! - `<stem>.analysis.md` — phase-time table, per-parameter gradient
//!   health, and the PGP efficacy curve (also printed to stdout);
//! - `<stem>.analysis.json` — the same report, machine-readable.
//!
//! Usage: `qoc-analyze [TRACE_FILE] [--savings-tolerance X] [--quiet]
//! [--profile FOLDED [--profile-tolerance X]]` (the trace defaults to
//! `$QOC_TRACE_FILE`).
//!
//! `--profile` ingests a sampling-profiler `.profile.folded` file (written
//! when the traced run also set `QOC_PROFILE_HZ`) and cross-checks the
//! profiler's Jacobian-phase share against the trace-derived share — the
//! two measure the same run through independent mechanisms, so a
//! divergence beyond `--profile-tolerance` (default 0.15, relative) fails
//! the run like any other sanity gate.
//!
//! A trace that holds a `train.abort` event is the whole record of a run
//! that died with an execution error (`TrainError::Execution`): such a run
//! writes no satellites, so none are read and the run-level gates
//! (device-time reconciliation, pruning efficacy, profile) are skipped —
//! only the schema check and the span-forest/phase report run. Any other
//! trace needs its three satellites. Every trace line and satellite record
//! is checked against the pinned schemas in `qoc_telemetry::schema` — so
//! one `qoc-analyze` run is also the full artifact validation of a traced
//! run. A trailing truncated line (killed writer) is tolerated.
//!
//! Exit codes let CI gate on it: **2** when an input file is missing (the
//! trace, a satellite, or a `--profile` file), **1** when an artifact is
//! malformed or a sanity gate fails (no spans, a manifest reporting zero
//! circuits run, device-time mismatch, missing or out-of-tolerance pruning
//! efficacy), **0** otherwise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qoc_bench::analyze::{aborted_step, analyze_run, parse_trace};

fn fail(msg: &str) -> ExitCode {
    eprintln!("qoc-analyze: {msg}");
    ExitCode::from(1)
}

fn fail_missing(msg: &str) -> ExitCode {
    eprintln!("qoc-analyze: missing input: {msg}");
    ExitCode::from(2)
}

/// Reads a satellite the traced run must have written next to its trace.
fn read_satellite(path: &Path) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            fail_missing(&format!("{} does not exist", path.display()))
        } else {
            fail(&format!("cannot read {}: {e}", path.display()))
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_arg: Option<PathBuf> = None;
    let mut tolerance = 0.05f64;
    let mut quiet = false;
    let mut profile_arg: Option<PathBuf> = None;
    let mut profile_tolerance = 0.15f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--savings-tolerance" => {
                i += 1;
                tolerance = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(t) => t,
                    None => return fail("--savings-tolerance needs a numeric value"),
                };
            }
            "--profile" => {
                i += 1;
                profile_arg = match args.get(i) {
                    Some(p) => Some(PathBuf::from(p)),
                    None => return fail("--profile needs a .profile.folded path"),
                };
            }
            "--profile-tolerance" => {
                i += 1;
                profile_tolerance = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(t) => t,
                    None => return fail("--profile-tolerance needs a numeric value"),
                };
            }
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                return fail(&format!("unknown flag {flag:?}"));
            }
            path => trace_arg = Some(PathBuf::from(path)),
        }
        i += 1;
    }
    let trace_path = match trace_arg.or_else(|| qoc_telemetry::env::path("QOC_TRACE_FILE")) {
        Some(p) => p,
        None => return fail_missing("no trace file given (argument or QOC_TRACE_FILE)"),
    };

    let trace_text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return fail_missing(&format!(
                "trace {} does not exist (did the traced run start?)",
                trace_path.display()
            ))
        }
        Err(e) => return fail(&format!("cannot read {}: {e}", trace_path.display())),
    };
    let aborted = match parse_trace(&trace_text) {
        Ok((records, _)) => aborted_step(&records).is_some(),
        Err(e) => return fail(&format!("malformed: {e}")),
    };
    // An aborted run wrote no satellites: any next to its trace are not its.
    let mut satellites = Vec::new();
    if !aborted {
        for ext in ["steps.jsonl", "evals.jsonl", "manifest.json"] {
            match read_satellite(&trace_path.with_extension(ext)) {
                Ok(text) => satellites.push(text),
                Err(code) => return code,
            }
        }
    }
    let satellite = |k: usize| satellites.get(k).map(String::as_str);

    let analysis = match analyze_run(&trace_text, satellite(0), satellite(1), satellite(2)) {
        Ok(a) => a,
        Err(e) => return fail(&format!("malformed: {e}")),
    };

    let folded_path = trace_path.with_extension("folded");
    let md_path = trace_path.with_extension("analysis.md");
    let json_path = trace_path.with_extension("analysis.json");
    let folded = analysis.folded.join("\n") + "\n";
    let markdown = analysis.to_markdown();
    let json =
        serde_json::to_string_pretty(&analysis.to_json()).expect("report serialization") + "\n";
    for (path, body) in [
        (&folded_path, &folded),
        (&md_path, &markdown),
        (&json_path, &json),
    ] {
        if let Err(e) = std::fs::write(path, body) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
    }

    if !quiet {
        print!("{markdown}");
        println!();
        println!(
            "wrote {} / {} / {}",
            folded_path.display(),
            md_path.display(),
            json_path.display()
        );
    }

    if aborted {
        return ExitCode::SUCCESS;
    }
    let mut failures = analysis.sanity_failures(tolerance);
    if let Some(profile_path) = &profile_arg {
        let folded_text = match std::fs::read_to_string(profile_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return fail_missing(&format!(
                    "profile {} does not exist (did the run set QOC_PROFILE_HZ?)",
                    profile_path.display()
                ))
            }
            Err(e) => return fail(&format!("cannot read {}: {e}", profile_path.display())),
        };
        match analysis.reconcile_profile(&folded_text, profile_tolerance) {
            Ok(summary) => {
                if !quiet {
                    println!("qoc-analyze: {summary}");
                }
            }
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("qoc-analyze: sanity: {f}");
        }
        ExitCode::from(1)
    }
}
