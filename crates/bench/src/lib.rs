//! # qoc-bench — experiment harnesses
//!
//! The experiment binaries of the QOC paper (see DESIGN.md §4): the
//! paired-seed `study` of its measured claims, one binary per cost-model
//! figure (`fig2a`, `fig8`), plus Criterion micro-benchmarks in `benches/`. Shared plumbing
//! lives here: command-line flags, result-table formatting and JSON
//! persistence under `results/`.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod suite;

use std::fmt::Display;
use std::fs;
use std::path::Path;
use std::str::FromStr;

use serde::Serialize;

/// Standard entry-point setup for every experiment binary: validates every
/// `QOC_*` knob (exiting with status 2 on an unknown or malformed one,
/// before anything runs), then activates telemetry from `QOC_LOG` /
/// `QOC_TRACE_FILE` so any harness run can be traced without code changes.
pub fn init() {
    if let Err(e) = qoc_telemetry::env::check() {
        misconfigured(e);
    }
    qoc_telemetry::init_from_env();
}

/// Stops an experiment binary on a misconfiguration: the message on stderr,
/// exit status 2, before anything runs.
fn misconfigured(message: impl Display) -> ! {
    eprintln!("qoc-bench: {message}");
    std::process::exit(2);
}

/// An experiment binary's command line: `--flag value` pairs, each flag one
/// the binary accepts, given at most once.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args` (the program name excluded) against the `accepted`
    /// flags. An unknown flag, a flag without a value and a repeated flag
    /// are errors.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        accepted: &[&str],
    ) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !accepted.contains(&flag.as_str()) {
                let accepted = accepted.join(", ");
                return Err(format!("unknown flag {flag:?} (accepted: {accepted})"));
            }
            if pairs.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag, value));
        }
        Ok(Flags(pairs))
    }

    /// `flag`'s value parsed as `T`, or `None` when the flag is absent.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.parse().map_err(|e| format!("{flag} {v:?}: {e}")))
            .transpose()
    }

    /// [`Flags::value`], exiting with status 2 on a malformed value.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.value(flag).unwrap_or_else(|e| misconfigured(e))
    }
}

/// This process's command line ([`Flags::parse`]), exiting with status 2 on
/// an unknown, repeated or value-less flag — the way [`init`] treats a bad
/// `QOC_*` knob.
pub fn flags(accepted: &[&str]) -> Flags {
    Flags::parse(std::env::args().skip(1), accepted).unwrap_or_else(|e| misconfigured(e))
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

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), &["--steps", "--seed"])
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let flags = parse(&["--seed", "7"]).unwrap();
        assert_eq!(flags.value("--seed"), Ok(Some(7u64)));
        assert_eq!(flags.value::<usize>("--steps"), Ok(None));
        let err = parse(&["--seed", "7", "--sed", "8"]).unwrap_err();
        assert_eq!(err, "unknown flag \"--sed\" (accepted: --steps, --seed)");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--seed", "1", "--seed", "2"]).unwrap_err(),
            "--seed given twice"
        );
    }

    #[test]
    fn a_malformed_value_is_an_error() {
        let flags = parse(&["--steps", "abc", "--seed", "-1"]).unwrap();
        let err = flags.value::<usize>("--steps").unwrap_err();
        assert_eq!(err, "--steps \"abc\": invalid digit found in string");
        assert!(flags.value::<u64>("--seed").is_err());
    }
}
