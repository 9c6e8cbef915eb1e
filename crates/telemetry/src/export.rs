//! Names under which other crates export metrics into the registry.

/// Metric-name prefix under which `qoc-serve` stamps per-tenant counters:
/// `qoc.serve.tenant.<tenant>.<field>` (tenant names must not contain `.`).
pub const TENANT_METRIC_PREFIX: &str = "qoc.serve.tenant.";
