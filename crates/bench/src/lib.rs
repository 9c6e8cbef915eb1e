//! # qoc-bench — experiment harnesses
//!
//! One binary per table/figure of the QOC paper (see DESIGN.md §4), plus
//! Criterion micro-benchmarks in `benches/`. Shared plumbing lives here:
//! result-table formatting and JSON persistence under `results/`.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod suite;

use std::fs;
use std::path::Path;

use serde::Serialize;

/// Standard entry-point setup for every experiment binary: validates every
/// `QOC_*` knob (exiting with status 2 on an unknown or malformed one,
/// before anything runs), then activates telemetry from `QOC_LOG` /
/// `QOC_TRACE_FILE` so any harness run can be traced without code changes.
pub fn init() {
    if let Err(e) = qoc_telemetry::env::check() {
        eprintln!("qoc-bench: {e}");
        std::process::exit(2);
    }
    qoc_telemetry::init_from_env();
}

/// Renders a rows-of-strings table with aligned columns.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        for (c, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[c]));
        }
        out.push('\n');
    };
    render(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

/// Writes a serializable result to `results/<name>.json` (best effort: the
/// printed table is the primary artifact).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    if let Ok(body) = serde_json::to_string_pretty(value) {
        let _ = fs::write(dir.join(format!("{name}.json")), body);
    }
}

/// Parses a `--steps N`-style flag from argv, with a default.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["name", "acc"],
            &[
                vec!["mnist".into(), "0.90".into()],
                vec!["fashion-long".into(), "0.85".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("fashion-long"));
    }

    #[test]
    fn arg_parse_default() {
        assert_eq!(arg_usize("--definitely-not-passed", 7), 7);
    }
}
