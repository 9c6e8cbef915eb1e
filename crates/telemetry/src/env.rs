//! Every `QOC_*` environment knob, in one table with one parser.
//!
//! [`KNOBS`] lists each knob the workspace reads with its [`Kind`] and its
//! behaviour when unset; nothing else reads a `QOC_*` variable. There is
//! one reader per kind ([`path`], [`level`], [`count`], [`spec`]); the ones whose kind can be malformed return it as the same
//! [`EnvError`] naming the variable. [`check`] validates the whole
//! environment — unknown `QOC_*` names (with the nearest knob as a hint)
//! and every value — and the training engine, the experiment bins and
//! `qoc-serve` run it first, so a typo stops them before the first circuit
//! instead of silently training with a default. A value that is empty after
//! trimming counts as unset. Specs whose grammar lives in another crate
//! (`QOC_FAULT_PLAN`, `QOC_SERVE_QUOTA`) are parsed by their owner's
//! `from_env`, which returns an [`EnvError`] too.

use std::path::PathBuf;

use crate::Level;

/// Validates a structured spec, with the reason on rejection.
pub type SpecCheck = fn(&str) -> Result<(), String>;

/// How a knob's value is parsed.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A file path: any value.
    Path,
    /// A telemetry [`Level`] name.
    Level,
    /// An unsigned integer no smaller than the given minimum.
    Count(u64),
    /// A structured spec, checked here when this crate owns its grammar.
    Spec(Option<SpecCheck>),
}

/// One `QOC_*` environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The variable name.
    pub name: &'static str,
    /// How its value is parsed.
    pub kind: Kind,
    /// What an unset (or empty) value means.
    pub default: &'static str,
}

/// Every knob the workspace reads; the README's knob table mirrors it.
#[rustfmt::skip]
pub const KNOBS: [Knob; 13] = [
    Knob { name: "QOC_LOG", kind: Kind::Level, default: "off" },
    Knob { name: "QOC_TRACE_FILE", kind: Kind::Path, default: "off" },
    Knob { name: "QOC_FLIGHT_RECORDER", kind: Kind::Count(0), default: "off (0 = off)" },
    Knob { name: "QOC_PROFILE_HZ", kind: Kind::Count(0), default: "off (0 = off)" },
    Knob { name: "QOC_STATUS_FILE", kind: Kind::Path, default: "off" },
    Knob { name: "QOC_ALERT_RULES", kind: Kind::Spec(Some(|s| crate::alerts::parse_rules(s).map(drop))), default: "no rules" },
    Knob { name: "QOC_WORKERS", kind: Kind::Count(1), default: "available parallelism" },
    Knob { name: "QOC_MAX_RETRIES", kind: Kind::Count(0), default: "4" },
    Knob { name: "QOC_FAULT_PLAN", kind: Kind::Spec(None), default: "off" },
    Knob { name: "QOC_CHECKPOINT_FILE", kind: Kind::Path, default: "off" },
    Knob { name: "QOC_CHECKPOINT_EVERY", kind: Kind::Count(1), default: "10" },
    Knob { name: "QOC_SERVE_QUOTA", kind: Kind::Spec(None), default: "queued=16,running=2" },
    Knob { name: "QOC_SERVE_TENANTS", kind: Kind::Spec(None), default: "any tenant" },
];

/// A `QOC_*` variable that is unknown or holds a value its knob rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable name.
    pub name: String,
    /// Its raw value.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl EnvError {
    /// An error for `name=value`.
    pub fn new(name: &str, value: &str, reason: impl Into<String>) -> Self {
        EnvError {
            name: name.to_string(),
            value: value.to_string(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: {}", self.name, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

impl Knob {
    /// Validates a raw value against this knob's kind (empty passes).
    pub fn check(&self, raw: &str) -> Result<(), EnvError> {
        let value = raw.trim();
        let verdict = match self.kind {
            _ if value.is_empty() => Ok(()),
            Kind::Path | Kind::Spec(None) => Ok(()),
            Kind::Level => value
                .parse::<Level>()
                .map(drop)
                .map_err(|()| "expected error, warn, info, debug or trace".to_string()),
            Kind::Count(min) => match value.parse::<u64>() {
                Ok(n) if n >= min => Ok(()),
                _ => Err(format!("expected an integer ≥ {min}")),
            },
            Kind::Spec(Some(check)) => check(value),
        };
        verdict.map_err(|reason| EnvError::new(self.name, raw, reason))
    }
}

/// Knob `name`'s checked, trimmed value; `None` when unset or empty.
///
/// # Panics
///
/// Panics if `name` is not in [`KNOBS`]: every read must be tabled.
fn read(name: &str) -> Result<Option<String>, EnvError> {
    let knob = KNOBS.iter().find(|k| k.name == name);
    let knob = knob.unwrap_or_else(|| panic!("{name} is not in qoc_telemetry::env::KNOBS"));
    let raw = std::env::var_os(name).map_or_else(String::new, |v| v.to_string_lossy().into_owned());
    knob.check(&raw)?;
    let value = raw.trim();
    Ok((!value.is_empty()).then(|| value.to_string()))
}

/// A [`Kind::Path`] knob.
pub fn path(name: &str) -> Option<PathBuf> {
    read(name).ok().flatten().map(PathBuf::from)
}

/// A [`Kind::Level`] knob.
pub fn level(name: &str) -> Result<Option<Level>, EnvError> {
    Ok(read(name)?.and_then(|v| v.parse().ok()))
}

/// A [`Kind::Count`] knob.
pub fn count(name: &str) -> Result<Option<u64>, EnvError> {
    Ok(read(name)?.and_then(|v| v.parse().ok()))
}

/// A [`Kind::Spec`] knob's text, for its owner to parse (`None` also when
/// this crate's check rejects it).
pub fn spec(name: &str) -> Option<String> {
    read(name).ok().flatten()
}

/// Validates the process environment: see [`check_vars`].
pub fn check() -> Result<(), EnvError> {
    let text = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
    check_vars(std::env::vars_os().map(|(name, value)| (text(name), text(value))))
}

/// Rejects the first `QOC_*` pair whose name is not in [`KNOBS`] (naming
/// the nearest knob) or whose value its knob rejects; other names pass.
pub fn check_vars<N: AsRef<str>, V: AsRef<str>>(
    vars: impl IntoIterator<Item = (N, V)>,
) -> Result<(), EnvError> {
    for (name, value) in vars {
        let (name, value) = (name.as_ref(), value.as_ref());
        if !name.starts_with("QOC_") {
            continue;
        }
        match KNOBS.iter().find(|k| k.name == name) {
            Some(knob) => knob.check(value)?,
            None => {
                let hint = KNOBS.iter().min_by_key(|k| edit_distance(name, k.name));
                let hint = hint.map_or("", |k| k.name);
                let reason = format!("not a known QOC_* variable (did you mean {hint}?)");
                return Err(EnvError::new(name, value, reason));
            }
        }
    }
    Ok(())
}

/// Levenshtein distance over bytes.
fn edit_distance(a: &str, b: &str) -> usize {
    let b = b.as_bytes();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.as_bytes().iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Every set knob in table order with its trimmed value: the `env` object
/// of a run manifest.
pub fn set_knobs() -> Vec<(&'static str, String)> {
    KNOBS
        .iter()
        .filter_map(|k| Some((k.name, read(k.name).ok()??)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value every knob of the kind accepts, and one it rejects (`None`
    /// for kinds that accept any text).
    fn cases(knob: &Knob) -> (&'static str, Option<&'static str>) {
        match (knob.name, knob.kind) {
            (_, Kind::Path) => ("results/run.jsonl", None),
            (_, Kind::Level) => ("debug", Some("loud")),
            ("QOC_WORKERS" | "QOC_CHECKPOINT_EVERY", Kind::Count(_)) => ("4", Some("0")),
            (_, Kind::Count(_)) => ("0", Some("-1")),
            ("QOC_ALERT_RULES", _) => ("qoc.device.retries > 0", Some("qoc.grad.snr ~ 1")),
            (_, Kind::Spec(_)) => ("queued=8", None),
        }
    }

    #[test]
    fn every_knob_accepts_good_values_and_rejects_bad_and_garbage_ones() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KNOBS.len(), "duplicate knob");
        for knob in &KNOBS {
            let (good, bad) = cases(knob);
            // Unset and blank both mean the tabled default.
            assert_eq!(check_vars([(knob.name, "")]), Ok(()), "{}", knob.name);
            assert_eq!(check_vars([(knob.name, "  ")]), Ok(()), "{}", knob.name);
            assert_eq!(check_vars([(knob.name, good)]), Ok(()), "{}", knob.name);
            let garbage = "\u{1F4A5}garbage";
            let rejected = bad
                .into_iter()
                .chain((!matches!(knob.kind, Kind::Path | Kind::Spec(None))).then_some(garbage));
            for value in rejected {
                let err = check_vars([(knob.name, value)]).expect_err(knob.name);
                assert_eq!(err.name, knob.name);
                assert_eq!(err.value, value);
                assert!(!err.reason.is_empty());
                assert!(err.to_string().starts_with(knob.name), "{err}");
            }
        }
    }

    #[test]
    fn readers_parse_each_kind_and_default_when_unset() {
        // Process env is shared by the test threads; only knobs no other
        // telemetry test reads are set here.
        std::env::set_var("QOC_SERVE_TENANTS", " acme,blue ");
        assert_eq!(spec("QOC_SERVE_TENANTS").as_deref(), Some("acme,blue"));
        std::env::set_var("QOC_SERVE_TENANTS", " ");
        assert_eq!(spec("QOC_SERVE_TENANTS"), None);
        std::env::remove_var("QOC_SERVE_TENANTS");
        assert_eq!(spec("QOC_SERVE_TENANTS"), None);

        std::env::set_var("QOC_CHECKPOINT_EVERY", "0");
        let err = count("QOC_CHECKPOINT_EVERY").unwrap_err();
        assert_eq!(
            (err.name.as_str(), err.value.as_str()),
            ("QOC_CHECKPOINT_EVERY", "0")
        );
        std::env::set_var("QOC_CHECKPOINT_EVERY", " 5 ");
        assert_eq!(count("QOC_CHECKPOINT_EVERY"), Ok(Some(5)));
        std::env::remove_var("QOC_CHECKPOINT_EVERY");
        assert_eq!(count("QOC_CHECKPOINT_EVERY"), Ok(None));

        std::env::set_var("QOC_CHECKPOINT_FILE", "run.ckpt");
        assert_eq!(path("QOC_CHECKPOINT_FILE"), Some(PathBuf::from("run.ckpt")));
        assert!(set_knobs().contains(&("QOC_CHECKPOINT_FILE", "run.ckpt".to_string())));
        std::env::remove_var("QOC_CHECKPOINT_FILE");
        assert_eq!(path("QOC_CHECKPOINT_FILE"), None);
    }

    #[test]
    fn unknown_names_are_rejected_with_the_nearest_knob() {
        let err = check_vars([("QOC_WORKRS", "4")]).unwrap_err();
        assert_eq!(err.name, "QOC_WORKRS");
        assert!(err.reason.contains("did you mean QOC_WORKERS?"), "{err}");

        let err = check_vars([("QOC_DIFF_MODE", "adjoint")]).unwrap_err();
        assert_eq!(err.name, "QOC_DIFF_MODE");
        assert!(err.reason.contains("did you mean QOC_"), "{err}");

        for removed in [
            "QOC_SHOT_ALLOC",
            "QOC_SHOT_MIN",
            "QOC_SHOT_MAX",
            "QOC_TARGET_SNR",
            "QOC_STATUS_EVERY",
            "QOC_STATUS_HISTORY_MAX",
            "QOC_BENCH_TOLERANCE",
        ] {
            assert!(check_vars([(removed, "1")]).is_err(), "{removed}");
        }
        // Other variables are not ours to judge.
        assert_eq!(check_vars([("PATH", "/bin"), ("QOCX", "1")]), Ok(()));
    }

    #[test]
    #[should_panic(expected = "is not in qoc_telemetry::env::KNOBS")]
    fn reading_an_untabled_knob_is_a_bug() {
        let _ = path("QOC_UNTABLED");
    }
}
