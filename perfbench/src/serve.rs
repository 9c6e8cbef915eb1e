//! What the training workloads measure of the serving layer: a
//! one-instance probe server, to which two tenants submit short jobs of the
//! workload's own model without waiting, so that the queue fills.

use std::path::Path;

use qoc_bench::suite::device_for;
use qoc_core::engine::TrainConfig;
use qoc_device::backend::job_seed;
use qoc_device::pool::DevicePool;
use qoc_serve::{JobOutcome, ServeConfig, Server, TenantQuota, TrainRequest};
use qoc_telemetry::metrics::{HistogramSnapshot, Registry};

use crate::report::Report;
use crate::stats::{median, median_secs, timed};
use crate::train::TrainBench;

/// Tenants of the probe server; each submits [`JOBS_PER_TENANT`] jobs.
const TENANTS: [&str; 2] = ["alpha", "beta"];
const JOBS_PER_TENANT: u64 = 2;
/// Repeats of `DevicePool::place`.
const PLACE_REPEATS: usize = 5;

/// The serving layer as seen from the probe server.
pub struct ServeProbe {
    pub submit_s: f64,
    pub queue_wait_s_p50: f64,
    pub rejected_ratio: f64,
    pub place_s: f64,
}

/// Times `place` and `submit` and reads queue waiting and admissions on a
/// one-instance server (default quotas, checkpoints every step into `dir`).
/// Both tenants submit all their one-step jobs before any is waited on, so
/// every job but the first queues behind the others.
pub fn probe(bench: &TrainBench, dir: &Path, seed: u64, rep: &mut Report) -> ServeProbe {
    let model = &bench.model;
    let server = Server::new(
        DevicePool::fake(vec![device_for(bench.task)], 1),
        ServeConfig {
            quota: TenantQuota::default(),
            tenants: None,
            checkpoint_dir: dir.to_path_buf(),
            checkpoint_every: 1,
        },
    );
    let place_s = median_secs(PLACE_REPEATS, || server.pool().place(model.circuit()));
    let mut submits = Vec::new();
    let mut handles = Vec::new();
    for k in 0..JOBS_PER_TENANT {
        for (t, tenant) in TENANTS.iter().enumerate() {
            let mut config = TrainConfig::paper_default(1);
            config.batch_size = 1;
            config.eval_examples = 1;
            config.seed = job_seed(seed, k * TENANTS.len() as u64 + t as u64);
            let request = TrainRequest {
                tenant: tenant.to_string(),
                name: "probe".to_string(),
                model: model.clone(),
                train_data: bench.train.clone(),
                val_data: bench.val.clone(),
                config,
            };
            let (handle, secs) = timed(|| server.submit(request));
            submits.push(secs);
            match handle {
                Ok(h) => handles.push(h),
                Err(e) => rep.problems.push(format!("probe job refused: {e}")),
            }
        }
    }
    for h in handles {
        if let JobOutcome::Failed(e) = h.wait() {
            rep.problems.push(format!("probe job failed: {e}"));
        }
    }
    let wait =
        queue_wait_histogram(&TENANTS).map_or(f64::NAN, |h| interpolated_quantile(&h, 0.5) / 1e9);
    let (submitted, rejected) = server
        .tenant_snapshots()
        .iter()
        .fold((0, 0), |(s, r), t| (s + t.submitted, r + t.rejected));
    server.shutdown();
    ServeProbe {
        submit_s: median(&submits),
        queue_wait_s_p50: wait,
        rejected_ratio: rejected as f64 / (submitted + rejected) as f64,
        place_s,
    }
}

/// The `queue_wait_ns` registry histograms of `tenants` merged into one.
fn queue_wait_histogram(tenants: &[&str]) -> Option<HistogramSnapshot> {
    let snap = Registry::global().snapshot();
    let mut merged: Option<HistogramSnapshot> = None;
    for tenant in tenants {
        let name = format!(
            "{}{tenant}.queue_wait_ns",
            qoc_telemetry::export::TENANT_METRIC_PREFIX
        );
        let Some(h) = snap.histogram(&name).filter(|h| h.count > 0) else {
            continue;
        };
        merged = Some(match merged {
            None => h.clone(),
            Some(mut m) => {
                m.count += h.count;
                m.sum += h.sum;
                m.min = m.min.min(h.min);
                m.max = m.max.max(h.max);
                for (a, b) in m.buckets.iter_mut().zip(&h.buckets) {
                    *a += b;
                }
                m
            }
        });
    }
    merged
}

/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (the bucket's range clamped to the recorded
/// min and max), in the histogram's unit.
fn interpolated_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let rank = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= rank {
            let lo = if i == 0 { 0 } else { h.bounds[i - 1] }.max(h.min) as f64;
            let hi = h.bounds.get(i).copied().unwrap_or(h.max).min(h.max) as f64;
            let frac = ((rank - seen) / c).clamp(0.0, 1.0);
            return lo + frac * (hi - lo).max(0.0);
        }
        seen += c;
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_inside_the_bucket() {
        let h = HistogramSnapshot {
            count: 4,
            sum: 0,
            min: 1_500,
            max: 3_500,
            bounds: vec![1_000, 2_000, 4_000],
            buckets: vec![0, 2, 2, 0],
        };
        assert_eq!(interpolated_quantile(&h, 0.5), 2_000.0);
        assert_eq!(interpolated_quantile(&h, 0.25), 1_750.0);
        assert_eq!(interpolated_quantile(&h, 1.0), 3_500.0);
    }
}
