//! SLO/alert rules engine over the metrics registry (`QOC_ALERT_RULES`).
//!
//! The passive observability plane (status snapshots, Prometheus siblings,
//! `qoc-top`) shows a sick run to a human who happens to be watching. This
//! module closes the loop: a small rule language is evaluated against every
//! fresh [`MetricsSnapshot`] at status-exporter cadence, and state
//! *transitions* (healthy→firing, firing→healthy) become first-class
//! artifacts — pinned-schema `alert.fired`/`alert.resolved` trace events, an
//! `<stem>.alerts.jsonl` log, an `alerts` section in the status document,
//! and `qoc.alerts.*` registry metrics (which reach the Prometheus sibling
//! for free).
//!
//! # Rule grammar
//!
//! `QOC_ALERT_RULES` holds semicolon-separated rules:
//!
//! ```text
//! rule      := threshold | absence | burn
//! threshold := NAME [STAT] OP NUMBER[UNIT] [for N windows]
//! absence   := "absent" NAME [for N windows]
//! burn      := "burn" NAME "/" NAME OP NUMBER "over" SxL "windows"
//! STAT      := value|count|sum|mean|min|max|p50|p90|p99   (default: value)
//! OP        := < | <= | > | >=
//! UNIT      := s | ms | us | ns        (scales the number to nanoseconds)
//! ```
//!
//! `NAME` may use `*` to match exactly one dotted segment
//! (`qoc.serve.tenant.*.queue_wait_ns` matches every tenant). A threshold
//! rule breaches when the named statistic compares true against the
//! threshold; `for N windows` requires N *consecutive* breaching
//! evaluations before firing (default 1). An absence rule breaches when the
//! metric is missing from the snapshot (or has recorded no samples). A burn
//! rule tracks two counters and fires when the `num/den` delta ratio
//! breaches over **both** the trailing S-window and trailing L-window
//! horizons — the classic fast/slow burn-rate pair, immune to both blips
//! (short window alone) and slow bleeds hiding in long averages.
//!
//! Rules never *resolve* a run by themselves: a firing that is still active
//! when the run reaches a terminal state is flushed to the log with
//! `kind = "terminal"` so every firing has a definite outcome.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::metrics::MetricsSnapshot;

/// Statistic of a metric a threshold rule compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Counter/gauge value (counters as float).
    Value,
    /// Sample count (histograms and quantile estimators).
    Count,
    /// Exact sum (histograms).
    Sum,
    /// Mean sample (histograms).
    Mean,
    /// Minimum sample.
    Min,
    /// Maximum sample.
    Max,
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
}

impl Stat {
    fn parse(s: &str) -> Option<Stat> {
        Some(match s {
            "value" => Stat::Value,
            "count" => Stat::Count,
            "sum" => Stat::Sum,
            "mean" => Stat::Mean,
            "min" => Stat::Min,
            "max" => Stat::Max,
            "p50" => Stat::P50,
            "p90" => Stat::P90,
            "p99" => Stat::P99,
            _ => return None,
        })
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Op {
    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "<" => Op::Lt,
            "<=" => Op::Le,
            ">" => Op::Gt,
            ">=" => Op::Ge,
            _ => return None,
        })
    }

    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::Lt => value < threshold,
            Op::Le => value <= threshold,
            Op::Gt => value > threshold,
            Op::Ge => value >= threshold,
        }
    }
}

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
enum RuleKind {
    Threshold {
        metric: String,
        stat: Stat,
        op: Op,
        threshold: f64,
    },
    Absent {
        metric: String,
    },
    Burn {
        num: String,
        den: String,
        op: Op,
        threshold: f64,
        short: usize,
        long: usize,
    },
}

/// One parsed rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The normalized source text (used as the rule's identity in events,
    /// logs, and the status document).
    text: String,
    kind: RuleKind,
    /// Consecutive breaching evaluations required before firing.
    for_windows: u64,
}

impl Rule {
    /// The rule's identity string.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Parses a number with an optional duration suffix (scaled to ns).
fn parse_number(tok: &str) -> Option<f64> {
    for (suffix, scale) in [("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)] {
        if let Some(body) = tok.strip_suffix(suffix) {
            if let Ok(v) = body.parse::<f64>() {
                return Some(v * scale);
            }
        }
    }
    tok.parse().ok()
}

/// Splits an optional trailing `for N windows` clause off `toks`.
fn split_for_clause(toks: &[&str]) -> Result<(usize, u64), String> {
    if toks.len() >= 3 && toks[toks.len() - 1] == "windows" && toks[toks.len() - 3] == "for" {
        let n: u64 = toks[toks.len() - 2]
            .parse()
            .map_err(|_| format!("bad window count {:?}", toks[toks.len() - 2]))?;
        if n == 0 {
            return Err("for 0 windows would never fire".into());
        }
        Ok((toks.len() - 3, n))
    } else {
        Ok((toks.len(), 1))
    }
}

/// Parses one rule (see module docs for the grammar).
pub fn parse_rule(text: &str) -> Result<Rule, String> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    if toks.is_empty() {
        return Err("empty rule".into());
    }
    let normalized = toks.join(" ");
    if toks[0] == "absent" {
        let (end, for_windows) = split_for_clause(&toks)?;
        if end != 2 {
            return Err(format!("absence rule {normalized:?}: want `absent NAME`"));
        }
        return Ok(Rule {
            text: normalized,
            kind: RuleKind::Absent {
                metric: toks[1].to_string(),
            },
            for_windows,
        });
    }
    if toks[0] == "burn" {
        // burn NUM / DEN OP VALUE over SxL windows
        if toks.len() != 9 || toks[2] != "/" || toks[6] != "over" || toks[8] != "windows" {
            return Err(format!(
                "burn rule {normalized:?}: want `burn NUM / DEN OP VALUE over SxL windows`"
            ));
        }
        let op = Op::parse(toks[4]).ok_or_else(|| format!("bad operator {:?}", toks[4]))?;
        let threshold =
            parse_number(toks[5]).ok_or_else(|| format!("bad threshold {:?}", toks[5]))?;
        let (s, l) = toks[7]
            .split_once('x')
            .ok_or_else(|| format!("bad window pair {:?} (want SxL)", toks[7]))?;
        let short: usize = s.parse().map_err(|_| format!("bad short window {s:?}"))?;
        let long: usize = l.parse().map_err(|_| format!("bad long window {l:?}"))?;
        if short == 0 || long <= short {
            return Err(format!(
                "burn windows must satisfy 0 < S < L, got {short}x{long}"
            ));
        }
        return Ok(Rule {
            text: normalized,
            kind: RuleKind::Burn {
                num: toks[1].to_string(),
                den: toks[3].to_string(),
                op,
                threshold,
                short,
                long,
            },
            for_windows: 1,
        });
    }
    // Threshold: NAME [STAT] OP VALUE [for N windows]
    let (end, for_windows) = split_for_clause(&toks)?;
    let toks = &toks[..end];
    let (metric, stat, op_idx) = match toks.len() {
        3 => (toks[0], Stat::Value, 1),
        4 => (
            toks[0],
            Stat::parse(toks[1]).ok_or_else(|| format!("bad statistic {:?}", toks[1]))?,
            2,
        ),
        _ => {
            return Err(format!(
                "threshold rule {normalized:?}: want `NAME [stat] OP VALUE [for N windows]`"
            ))
        }
    };
    let op = Op::parse(toks[op_idx]).ok_or_else(|| format!("bad operator {:?}", toks[op_idx]))?;
    let threshold = parse_number(toks[op_idx + 1])
        .ok_or_else(|| format!("bad threshold {:?}", toks[op_idx + 1]))?;
    Ok(Rule {
        text: normalized,
        kind: RuleKind::Threshold {
            metric: metric.to_string(),
            stat,
            op,
            threshold,
        },
        for_windows,
    })
}

/// Parses a semicolon-separated rule list.
pub fn parse_rules(spec: &str) -> Result<Vec<Rule>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_rule)
        .collect()
}

// ---------------------------------------------------------------------------
// Metric lookup
// ---------------------------------------------------------------------------

/// `true` when `name` matches `pattern` (`*` = exactly one dotted segment).
fn matches_pattern(pattern: &str, name: &str) -> bool {
    if !pattern.contains('*') {
        return pattern == name;
    }
    let pseg: Vec<&str> = pattern.split('.').collect();
    let nseg: Vec<&str> = name.split('.').collect();
    pseg.len() == nseg.len() && pseg.iter().zip(&nseg).all(|(p, n)| *p == "*" || p == n)
}

/// All snapshot metric names matching `pattern`, across every metric kind.
fn expand(snapshot: &MetricsSnapshot, pattern: &str) -> Vec<String> {
    if !pattern.contains('*') {
        return vec![pattern.to_string()];
    }
    let mut names: Vec<String> = Vec::new();
    let mut push = |name: &String| {
        if matches_pattern(pattern, name) && !names.contains(name) {
            names.push(name.clone());
        }
    };
    snapshot.counters.keys().for_each(&mut push);
    snapshot.gauges.keys().for_each(&mut push);
    snapshot.histograms.keys().for_each(&mut push);
    snapshot.quantiles.keys().for_each(&mut push);
    names
}

/// Resolves `stat` of `metric` in the snapshot, across metric kinds.
fn lookup(snapshot: &MetricsSnapshot, metric: &str, stat: Stat) -> Option<f64> {
    if let Some(&v) = snapshot.counters.get(metric) {
        return match stat {
            Stat::Value | Stat::Count | Stat::Sum => Some(v as f64),
            _ => None,
        };
    }
    if let Some(&v) = snapshot.gauges.get(metric) {
        return matches!(stat, Stat::Value).then_some(v);
    }
    if let Some(h) = snapshot.histograms.get(metric) {
        return Some(match stat {
            Stat::Value | Stat::Mean => h.mean(),
            Stat::Count => h.count as f64,
            Stat::Sum => h.sum as f64,
            Stat::Min => h.min as f64,
            Stat::Max => h.max as f64,
            Stat::P50 => h.quantile(0.5) as f64,
            Stat::P90 => h.quantile(0.9) as f64,
            Stat::P99 => h.quantile(0.99) as f64,
        });
    }
    if let Some(q) = snapshot.quantiles.get(metric) {
        return Some(match stat {
            Stat::Count => q.count as f64,
            Stat::Min => q.min,
            Stat::Max => q.max,
            Stat::Value | Stat::P50 => q.p50,
            Stat::P90 => q.p90,
            Stat::P99 => q.p99,
            Stat::Sum | Stat::Mean => return None,
        });
    }
    None
}

/// `true` when the metric is absent: unknown to the snapshot, or known but
/// with zero recorded samples (histograms/quantile estimators).
fn is_absent(snapshot: &MetricsSnapshot, metric: &str) -> bool {
    if snapshot.counters.contains_key(metric) || snapshot.gauges.contains_key(metric) {
        return false;
    }
    if let Some(h) = snapshot.histograms.get(metric) {
        return h.count == 0;
    }
    if let Some(q) = snapshot.quantiles.get(metric) {
        return q.count == 0;
    }
    true
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Per-(rule, concrete metric) evaluation state.
#[derive(Debug, Default)]
struct Instance {
    /// Consecutive breaching evaluations so far.
    streak: u64,
    /// Whether this instance is currently firing.
    active: bool,
    /// Trailing counter values for burn rules (numerator, denominator).
    ring: VecDeque<(f64, f64)>,
}

/// What happened to one alert instance during an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// `"fired"`, `"resolved"`, or `"terminal"`.
    pub kind: &'static str,
    /// Rule identity ([`Rule::text`]).
    pub rule: String,
    /// Concrete metric the instance watches.
    pub metric: String,
    /// Observed value at the transition (0 for absence/terminal flushes).
    pub value: f64,
    /// Rule threshold (0 for absence rules).
    pub threshold: f64,
    /// Windows clause (`for N` or the burn long horizon).
    pub windows: u64,
}

/// A currently-firing alert instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveAlert {
    /// Rule identity.
    pub rule: String,
    /// Concrete metric.
    pub metric: String,
}

/// The rules engine: parsed rules plus per-instance firing state.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<Rule>,
    instances: Mutex<BTreeMap<(usize, String), Instance>>,
    fired_total: AtomicU64,
    resolved_total: AtomicU64,
}

impl AlertEngine {
    /// An engine over the given rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        AlertEngine {
            rules,
            ..AlertEngine::default()
        }
    }

    /// Parses and appends more rules (deduplicated by text, so installing
    /// the same defaults twice is harmless). A malformed rule never takes
    /// the valid ones down with it: everything parseable is installed and
    /// the error names only the rejects — one typo must degrade the SLO
    /// plane to fewer alerts, not to none.
    pub fn install(&mut self, spec: &str) -> Result<usize, String> {
        let mut added = 0;
        let mut errors = Vec::new();
        for text in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            match parse_rule(text) {
                Ok(rule) => {
                    if !self.rules.iter().any(|r| r.text == rule.text) {
                        self.rules.push(rule);
                        added += 1;
                    }
                }
                Err(err) => errors.push(err),
            }
        }
        if errors.is_empty() {
            Ok(added)
        } else {
            Err(format!(
                "{} ({added} valid rule(s) still installed)",
                errors.join("; ")
            ))
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates every rule against `snapshot`, returning the transitions
    /// this evaluation produced.
    pub fn evaluate(&self, snapshot: &MetricsSnapshot) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        let mut instances = self.instances.lock().unwrap_or_else(|e| e.into_inner());
        for (idx, rule) in self.rules.iter().enumerate() {
            match &rule.kind {
                RuleKind::Threshold {
                    metric,
                    stat,
                    op,
                    threshold,
                } => {
                    for concrete in expand(snapshot, metric) {
                        let value = lookup(snapshot, &concrete, *stat);
                        let breach = value.is_some_and(|v| op.holds(v, *threshold));
                        step_instance(
                            &mut instances,
                            &mut transitions,
                            (idx, concrete),
                            rule,
                            breach,
                            value.unwrap_or(0.0),
                            *threshold,
                            rule.for_windows,
                        );
                    }
                }
                RuleKind::Absent { metric } => {
                    let concrete_names = expand(snapshot, metric);
                    // A wildcard with no live match is itself one absent
                    // instance (the pattern), so `absent qoc.x.*` can watch
                    // for a family that never appears.
                    let targets =
                        if metric.contains('*') && concrete_names.iter().all(|n| n == metric) {
                            vec![metric.clone()]
                        } else {
                            concrete_names
                        };
                    for concrete in targets {
                        let breach = is_absent(snapshot, &concrete);
                        step_instance(
                            &mut instances,
                            &mut transitions,
                            (idx, concrete),
                            rule,
                            breach,
                            0.0,
                            0.0,
                            rule.for_windows,
                        );
                    }
                }
                RuleKind::Burn {
                    num,
                    den,
                    op,
                    threshold,
                    short,
                    long,
                } => {
                    let nv = lookup(snapshot, num, Stat::Value).unwrap_or(0.0);
                    let dv = lookup(snapshot, den, Stat::Value).unwrap_or(0.0);
                    let key = (idx, num.clone());
                    let inst = instances.entry(key.clone()).or_default();
                    inst.ring.push_back((nv, dv));
                    while inst.ring.len() > long + 1 {
                        inst.ring.pop_front();
                    }
                    let ratio_over = |inst: &Instance, w: usize| -> Option<f64> {
                        let len = inst.ring.len();
                        if len <= w {
                            return None;
                        }
                        let (n0, d0) = inst.ring[len - 1 - w];
                        let (n1, d1) = inst.ring[len - 1];
                        let dd = d1 - d0;
                        if dd <= 0.0 {
                            // No denominator progress: only a nonzero
                            // numerator delta counts as an (infinite) burn.
                            return (n1 - n0 > 0.0).then_some(f64::INFINITY);
                        }
                        Some((n1 - n0) / dd)
                    };
                    let short_ratio = ratio_over(inst, *short);
                    let long_ratio = ratio_over(inst, *long);
                    let breach = match (short_ratio, long_ratio) {
                        (Some(s), Some(l)) => op.holds(s, *threshold) && op.holds(l, *threshold),
                        _ => false,
                    };
                    let value = long_ratio.or(short_ratio).unwrap_or(0.0);
                    step_instance(
                        &mut instances,
                        &mut transitions,
                        key,
                        rule,
                        breach,
                        value,
                        *threshold,
                        *long as u64,
                    );
                }
            }
        }
        for t in &transitions {
            match t.kind {
                "fired" => self.fired_total.fetch_add(1, Ordering::Relaxed),
                _ => self.resolved_total.fetch_add(1, Ordering::Relaxed),
            };
        }
        transitions
    }

    /// Currently-firing instances.
    pub fn active(&self) -> Vec<ActiveAlert> {
        let instances = self.instances.lock().unwrap_or_else(|e| e.into_inner());
        instances
            .iter()
            .filter(|(_, inst)| inst.active)
            .map(|((idx, metric), _)| ActiveAlert {
                rule: self.rules[*idx].text.clone(),
                metric: metric.clone(),
            })
            .collect()
    }

    /// Flushes still-active instances at a terminal run state: each becomes
    /// a `"terminal"` transition and its firing state resets, so the alert
    /// log pairs every firing with a resolution or a terminal flush.
    pub fn finalize(&self) -> Vec<AlertTransition> {
        let mut instances = self.instances.lock().unwrap_or_else(|e| e.into_inner());
        let mut flushed = Vec::new();
        for ((idx, metric), inst) in instances.iter_mut() {
            if inst.active {
                inst.active = false;
                inst.streak = 0;
                flushed.push(AlertTransition {
                    kind: "terminal",
                    rule: self.rules[*idx].text.clone(),
                    metric: metric.clone(),
                    value: 0.0,
                    threshold: 0.0,
                    windows: 0,
                });
            }
        }
        flushed
    }

    /// Lifetime firing count.
    pub fn fired_total(&self) -> u64 {
        self.fired_total.load(Ordering::Relaxed)
    }

    /// Lifetime resolution count (terminal flushes included).
    pub fn resolved_total(&self) -> u64 {
        self.resolved_total.load(Ordering::Relaxed)
    }

    /// The status document `alerts` section, `None` when no rules exist.
    pub fn section(&self) -> Option<serde::Value> {
        use serde::Value;
        if self.rules.is_empty() {
            return None;
        }
        let active: Vec<Value> = self
            .active()
            .into_iter()
            .map(|a| {
                Value::Object(vec![
                    ("rule".into(), Value::Str(a.rule)),
                    ("metric".into(), Value::Str(a.metric)),
                ])
            })
            .collect();
        Some(Value::Object(vec![
            ("rules".into(), Value::UInt(self.rules.len() as u64)),
            ("fired_total".into(), Value::UInt(self.fired_total())),
            ("resolved_total".into(), Value::UInt(self.resolved_total())),
            ("active".into(), Value::Array(active)),
        ]))
    }
}

#[allow(clippy::too_many_arguments)]
fn step_instance(
    instances: &mut BTreeMap<(usize, String), Instance>,
    transitions: &mut Vec<AlertTransition>,
    key: (usize, String),
    rule: &Rule,
    breach: bool,
    value: f64,
    threshold: f64,
    windows: u64,
) {
    let metric = key.1.clone();
    let inst = instances.entry(key).or_default();
    if breach {
        inst.streak += 1;
        if !inst.active && inst.streak >= rule.for_windows {
            inst.active = true;
            transitions.push(AlertTransition {
                kind: "fired",
                rule: rule.text.clone(),
                metric,
                value,
                threshold,
                windows,
            });
        }
    } else {
        inst.streak = 0;
        if inst.active {
            inst.active = false;
            transitions.push(AlertTransition {
                kind: "resolved",
                rule: rule.text.clone(),
                metric,
                value,
                threshold,
                windows,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Process-global engine
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Mutex<AlertEngine>> = OnceLock::new();

fn global() -> &'static Mutex<AlertEngine> {
    GLOBAL.get_or_init(|| {
        let mut engine = AlertEngine::default();
        // `QOC_ALERT_RULES`, parsed by `env::check` before any run starts,
        // so nothing is left to report here.
        if let Some(spec) = crate::env::spec("QOC_ALERT_RULES") {
            let _ = engine.install(&spec);
        }
        Mutex::new(engine)
    })
}

/// Appends rules to the process-global engine (e.g. a serve host installing
/// its default tenant SLOs). Duplicate rule texts are ignored.
pub fn install_rules(spec: &str) -> Result<usize, String> {
    global()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .install(spec)
}

/// Evaluates the global engine (no-op empty result when no rules exist).
pub fn evaluate(snapshot: &MetricsSnapshot) -> Vec<AlertTransition> {
    let engine = global().lock().unwrap_or_else(|e| e.into_inner());
    if engine.is_empty() {
        return Vec::new();
    }
    engine.evaluate(snapshot)
}

/// Terminal flush of the global engine (see [`AlertEngine::finalize`]).
pub fn finalize() -> Vec<AlertTransition> {
    global()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .finalize()
}

/// The global engine's status-doc section ([`AlertEngine::section`]).
pub fn section() -> Option<serde::Value> {
    global().lock().unwrap_or_else(|e| e.into_inner()).section()
}

/// Count of currently-firing instances in the global engine.
pub fn active_count() -> u64 {
    global()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .active()
        .len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snap_with(f: impl Fn(&Registry)) -> MetricsSnapshot {
        let reg = Registry::new();
        f(&reg);
        reg.snapshot()
    }

    #[test]
    fn grammar_round_trips() {
        let r = parse_rule("qoc.grad.snr p50 < 0.5 for 3 windows").unwrap();
        assert_eq!(r.text, "qoc.grad.snr p50 < 0.5 for 3 windows");
        assert_eq!(r.for_windows, 3);
        assert!(matches!(
            r.kind,
            RuleKind::Threshold {
                stat: Stat::P50,
                op: Op::Lt,
                ..
            }
        ));
        let r = parse_rule("qoc.device.gave_up > 0").unwrap();
        assert_eq!(r.for_windows, 1);
        assert!(matches!(
            r.kind,
            RuleKind::Threshold {
                stat: Stat::Value,
                op: Op::Gt,
                ..
            }
        ));
        let r = parse_rule("qoc.serve.tenant.*.queue_wait_ns p99 > 5s").unwrap();
        match r.kind {
            RuleKind::Threshold { threshold, .. } => assert_eq!(threshold, 5e9),
            other => panic!("wrong kind: {other:?}"),
        }
        let r = parse_rule("absent qoc.device.jobs_completed for 2 windows").unwrap();
        assert!(matches!(r.kind, RuleKind::Absent { .. }));
        assert_eq!(r.for_windows, 2);
        let r = parse_rule(
            "burn qoc.device.retries / qoc.device.jobs_completed > 0.5 over 2x4 windows",
        )
        .unwrap();
        assert!(matches!(
            r.kind,
            RuleKind::Burn {
                short: 2,
                long: 4,
                ..
            }
        ));
    }

    #[test]
    fn grammar_rejects_garbage() {
        assert!(parse_rule("").is_err());
        assert!(parse_rule("qoc.x").is_err());
        assert!(parse_rule("qoc.x ~ 5").is_err());
        assert!(parse_rule("qoc.x p42 > 5").is_err());
        assert!(parse_rule("qoc.x > five").is_err());
        assert!(parse_rule("qoc.x > 5 for 0 windows").is_err());
        assert!(parse_rule("burn a / b > 1 over 4x2 windows").is_err());
        assert!(parse_rules("qoc.a > 1; qoc.b oops").is_err());
        assert_eq!(parse_rules("qoc.a > 1; ; qoc.b < 2").unwrap().len(), 2);
    }

    #[test]
    fn unit_suffixes_scale_to_nanoseconds() {
        for (tok, want) in [
            ("5s", 5e9),
            ("5ms", 5e6),
            ("5us", 5e3),
            ("5ns", 5.0),
            ("5", 5.0),
        ] {
            assert_eq!(parse_number(tok), Some(want), "{tok}");
        }
        assert_eq!(parse_number("1.5ms"), Some(1.5e6));
    }

    #[test]
    fn threshold_fires_and_resolves() {
        let engine = AlertEngine::new(parse_rules("t.alerts.gauge > 10").unwrap());
        let low = snap_with(|r| r.gauge("t.alerts.gauge").set(5.0));
        let high = snap_with(|r| r.gauge("t.alerts.gauge").set(50.0));
        assert!(engine.evaluate(&low).is_empty());
        let fired = engine.evaluate(&high);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "fired");
        assert_eq!(fired[0].metric, "t.alerts.gauge");
        assert_eq!(fired[0].value, 50.0);
        // Still breaching: active, no new transition.
        assert!(engine.evaluate(&high).is_empty());
        assert_eq!(engine.active().len(), 1);
        let resolved = engine.evaluate(&low);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, "resolved");
        assert!(engine.active().is_empty());
        assert_eq!(engine.fired_total(), 1);
        assert_eq!(engine.resolved_total(), 1);
    }

    #[test]
    fn for_windows_requires_consecutive_breaches() {
        let engine = AlertEngine::new(parse_rules("t.alerts.w > 0 for 3 windows").unwrap());
        let hot = snap_with(|r| r.gauge("t.alerts.w").set(1.0));
        let cold = snap_with(|r| r.gauge("t.alerts.w").set(0.0));
        assert!(engine.evaluate(&hot).is_empty());
        assert!(engine.evaluate(&hot).is_empty());
        // Interrupted streak starts over.
        assert!(engine.evaluate(&cold).is_empty());
        assert!(engine.evaluate(&hot).is_empty());
        assert!(engine.evaluate(&hot).is_empty());
        let fired = engine.evaluate(&hot);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "fired");
    }

    #[test]
    fn quantile_and_histogram_stats_resolve() {
        let engine = AlertEngine::new(
            parse_rules("t.alerts.snr p50 < 0.5; t.alerts.lat p99 > 1ms").unwrap(),
        );
        let snap = snap_with(|r| {
            let q = r.quantile_estimator("t.alerts.snr", 64);
            for _ in 0..10 {
                q.record(0.1);
            }
            let h = r.histogram("t.alerts.lat", &[1_000, 1_000_000, 100_000_000]);
            for _ in 0..100 {
                h.record(50_000_000);
            }
        });
        let fired = engine.evaluate(&snap);
        assert_eq!(fired.len(), 2, "both rules fire: {fired:?}");
        assert!(fired.iter().all(|t| t.kind == "fired"));
    }

    #[test]
    fn wildcard_expands_per_tenant() {
        let engine = AlertEngine::new(parse_rules("qoc.serve.tenant.*.gave_up > 0").unwrap());
        let snap = snap_with(|r| {
            r.counter("qoc.serve.tenant.acme.gave_up").add(2);
            r.counter("qoc.serve.tenant.beta.gave_up").add(0);
            r.counter("qoc.serve.tenant.acme.completed").add(9);
        });
        let fired = engine.evaluate(&snap);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].metric, "qoc.serve.tenant.acme.gave_up");
        // `*` is one segment only: a deeper name must not match.
        assert!(!matches_pattern(
            "qoc.serve.tenant.*",
            "qoc.serve.tenant.a.b"
        ));
        assert!(matches_pattern(
            "qoc.serve.tenant.*.x",
            "qoc.serve.tenant.a.x"
        ));
    }

    #[test]
    fn absence_rule_fires_until_metric_appears() {
        let engine = AlertEngine::new(parse_rules("absent t.alerts.pulse for 2 windows").unwrap());
        let empty = MetricsSnapshot::default();
        assert!(engine.evaluate(&empty).is_empty(), "first miss: streak 1");
        let fired = engine.evaluate(&empty);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "fired");
        let alive = snap_with(|r| r.counter("t.alerts.pulse").inc());
        let resolved = engine.evaluate(&alive);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, "resolved");
    }

    #[test]
    fn burn_rule_needs_both_windows_hot() {
        let engine = AlertEngine::new(
            parse_rules("burn t.alerts.err / t.alerts.ok > 0.5 over 1x3 windows").unwrap(),
        );
        // Feed (err, ok) series: healthy ramp then an error storm.
        let series = [(0u64, 0u64), (0, 10), (0, 20), (0, 30), (9, 40), (18, 50)];
        let mut fired_at = None;
        for (i, (err, ok)) in series.iter().enumerate() {
            let snap = snap_with(|r| {
                r.counter("t.alerts.err").add(*err);
                r.counter("t.alerts.ok").add(*ok);
            });
            for t in engine.evaluate(&snap) {
                if t.kind == "fired" {
                    fired_at = Some(i);
                }
            }
        }
        // Short window (1) goes hot at i=4 (9/10), but the long window (3)
        // is still diluted (9/30); both are hot at i=5 (9/10 and 18/30=0.6).
        assert_eq!(fired_at, Some(5));
    }

    #[test]
    fn finalize_flushes_active_instances_as_terminal() {
        let engine = AlertEngine::new(parse_rules("t.alerts.term > 0").unwrap());
        let hot = snap_with(|r| r.gauge("t.alerts.term").set(1.0));
        assert_eq!(engine.evaluate(&hot).len(), 1);
        let flushed = engine.finalize();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].kind, "terminal");
        assert!(engine.active().is_empty());
        assert!(engine.finalize().is_empty(), "idempotent");
        // A still-breaching snapshot re-fires after the flush.
        assert_eq!(engine.evaluate(&hot)[0].kind, "fired");
    }

    #[test]
    fn install_deduplicates_by_text() {
        let mut engine = AlertEngine::default();
        assert_eq!(engine.install("a.b > 1; c.d < 2").unwrap(), 2);
        assert_eq!(engine.install("a.b  >  1").unwrap(), 0, "normalized dup");
        assert_eq!(engine.len(), 2);
    }

    #[test]
    fn install_keeps_valid_rules_when_one_is_malformed() {
        let mut engine = AlertEngine::default();
        let err = engine
            .install("a.b > 1; absent c.d for 2; e.f < 3")
            .unwrap_err();
        assert!(err.contains("absence rule"), "names the reject: {err}");
        assert!(err.contains("2 valid rule(s)"), "counts survivors: {err}");
        assert_eq!(
            engine.len(),
            2,
            "the typo'd rule must not take the rest down"
        );
    }

    #[test]
    fn section_shape_is_stable() {
        let engine = AlertEngine::new(parse_rules("t.alerts.sec > 0").unwrap());
        let hot = snap_with(|r| r.gauge("t.alerts.sec").set(2.0));
        engine.evaluate(&hot);
        let section = engine.section().expect("rules exist");
        assert_eq!(section.get("fired_total").unwrap().as_u64(), Some(1));
        assert_eq!(section.get("resolved_total").unwrap().as_u64(), Some(0));
        let active = match section.get("active").unwrap() {
            serde::Value::Array(a) => a,
            other => panic!("active not an array: {other:?}"),
        };
        assert_eq!(active.len(), 1);
        assert_eq!(
            active[0].get("metric").unwrap().as_str(),
            Some("t.alerts.sec")
        );
        assert!(AlertEngine::default().section().is_none());
    }
}
