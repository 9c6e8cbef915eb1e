//! Per-tenant admission quotas and the typed admission errors they raise.
//!
//! Admission control is the *backpressure* half of the serving plane: a
//! tenant that submits faster than its quota drains gets a typed
//! [`AdmissionError`] back immediately — never an unbounded queue. The
//! scheduler half (fair share, running caps) lives in [`crate::server`].

use std::fmt;

use qoc_telemetry::env::EnvError;

/// Default queued-job cap per tenant when no quota is configured.
pub const DEFAULT_MAX_QUEUED: usize = 16;
/// Default concurrently-running cap per tenant.
pub const DEFAULT_MAX_RUNNING: usize = 2;

/// Admission caps for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum jobs waiting in the tenant's queue. Submissions beyond this
    /// are rejected with [`AdmissionError::QueueFull`]. Preemption requeues
    /// are exempt (a preempted job already held a running slot).
    pub max_queued: usize,
    /// Maximum jobs of this tenant running concurrently; enforced by the
    /// scheduler, never by failing a submit.
    pub max_running: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_queued: DEFAULT_MAX_QUEUED,
            max_running: DEFAULT_MAX_RUNNING,
        }
    }
}

impl TenantQuota {
    /// Parses a `key=value` comma list: `queued=8,running=2`. Missing keys
    /// keep their defaults; unknown keys and unparseable values are errors.
    pub fn parse(spec: &str) -> Result<TenantQuota, String> {
        let mut quota = TenantQuota::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("quota clause {part:?} is not key=value"))?;
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("quota {}: {value:?} is not a count", key.trim()))?;
            match key.trim() {
                "queued" => quota.max_queued = n,
                "running" => quota.max_running = n,
                other => return Err(format!("unknown quota key {other:?}")),
            }
        }
        if quota.max_running == 0 {
            return Err("quota running=0 would never schedule anything".to_string());
        }
        Ok(quota)
    }

    /// Quota from `QOC_SERVE_QUOTA` (a [`Self::parse`] spec applied to
    /// every tenant), or the default when unset. An unparseable value is an
    /// error (silently ignoring a typo'd quota would run tenants uncapped).
    pub fn from_env() -> Result<TenantQuota, EnvError> {
        match qoc_telemetry::env::spec("QOC_SERVE_QUOTA") {
            Some(spec) => TenantQuota::parse(&spec)
                .map_err(|reason| EnvError::new("QOC_SERVE_QUOTA", &spec, reason)),
            None => Ok(TenantQuota::default()),
        }
    }
}

/// Why a [`crate::server::Server::submit`] was rejected at the front door.
///
/// Every variant is a *client-side* condition: the server's own state is
/// untouched and the submission can be retried (after backoff, for
/// [`AdmissionError::QueueFull`]) or corrected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's queued-job cap is exhausted — backpressure; retry
    /// after some of the queue drains.
    QueueFull {
        /// Tenant whose queue is full.
        tenant: String,
        /// Jobs currently queued.
        queued: usize,
        /// The configured cap ([`TenantQuota::max_queued`]).
        cap: usize,
    },
    /// The tenant is not on the server's allow-list.
    UnknownTenant {
        /// The rejected tenant name.
        tenant: String,
    },
    /// The tenant name cannot be used (empty, over-long, or contains a
    /// character outside `[A-Za-z0-9_-]` — tenant names become metric-name
    /// segments).
    InvalidTenant {
        /// The rejected tenant name.
        tenant: String,
    },
    /// No device class in the pool can host the job's circuit.
    Infeasible {
        /// Qubits the job's model needs.
        qubits: usize,
        /// Widest device class available.
        widest: usize,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull {
                tenant,
                queued,
                cap,
            } => write!(f, "tenant {tenant:?} queue full ({queued}/{cap} queued)"),
            AdmissionError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant:?} is not on the allow-list")
            }
            AdmissionError::InvalidTenant { tenant } => write!(
                f,
                "tenant name {tenant:?} is invalid (1-{MAX_TENANT_NAME_LEN} chars from [A-Za-z0-9_-])"
            ),
            AdmissionError::Infeasible { qubits, widest } => write!(
                f,
                "no device class fits the job ({qubits} qubits needed, widest class has {widest})"
            ),
            AdmissionError::Draining => write!(f, "server is draining; no new jobs accepted"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Longest accepted tenant name. Tenant names are embedded into every
/// per-tenant metric name; an unbounded name would bloat the registry.
pub const MAX_TENANT_NAME_LEN: usize = 64;

/// `true` when `tenant` may be used as a tenant name (and therefore as a
/// metric-name segment under `qoc.serve.tenant.<tenant>.`).
///
/// The allow-list is deliberately strict — ASCII alphanumerics plus `-` and
/// `_`, 1..=[`MAX_TENANT_NAME_LEN`] chars. Anything laxer lets a hostile
/// tenant id smuggle metric-name separators (`.`), quotes, escapes or
/// control characters into the registry and the trace.
pub fn tenant_name_ok(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= MAX_TENANT_NAME_LEN
        && tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_parses_and_defaults() {
        assert_eq!(TenantQuota::parse("").unwrap(), TenantQuota::default());
        let q = TenantQuota::parse("queued=8,running=3").unwrap();
        assert_eq!(q.max_queued, 8);
        assert_eq!(q.max_running, 3);
        let q = TenantQuota::parse("running=1").unwrap();
        assert_eq!(q.max_queued, DEFAULT_MAX_QUEUED);
        assert_eq!(q.max_running, 1);
    }

    #[test]
    fn quota_rejects_garbage() {
        assert!(TenantQuota::parse("queued").is_err());
        assert!(TenantQuota::parse("queued=lots").is_err());
        assert!(TenantQuota::parse("jobs=3").is_err());
        assert!(TenantQuota::parse("running=0").is_err());
    }

    #[test]
    fn tenant_names_are_vetted() {
        assert!(tenant_name_ok("acme"));
        assert!(tenant_name_ok("acme-2"));
        assert!(tenant_name_ok("Tenant_01"));
        assert!(tenant_name_ok(&"a".repeat(MAX_TENANT_NAME_LEN)));
        assert!(!tenant_name_ok(""));
        assert!(!tenant_name_ok("a.b"));
        assert!(!tenant_name_ok("a b"));
        assert!(!tenant_name_ok(&"a".repeat(MAX_TENANT_NAME_LEN + 1)));
    }

    #[test]
    fn hostile_tenant_names_are_rejected() {
        // Each of these would corrupt a downstream surface if admitted:
        // metric-name dots, quotes and escapes, punctuation, control
        // characters, and non-ASCII homoglyphs.
        for hostile in [
            "evil\"tenant",    // label-value quote
            "back\\slash",     // label-value escape
            "new\nline",       // label-value newline
            "a{b}",            // exposition braces
            "a,b=c",           // exposition separators
            "tab\there",       // control char
            "caf\u{e9}",       // non-ASCII
            "\u{202e}gnp.exe", // bidi override
            "null\u{0}byte",   // NUL
            "emoji-\u{1f600}", // astral plane
        ] {
            assert!(!tenant_name_ok(hostile), "admitted hostile id {hostile:?}");
        }
    }
}
