//! `qoc-serve` — the multi-tenant training server as a command.
//!
//! Boots a [`Server`] over a pool of fake paper devices and feeds it jobs:
//!
//! - **default**: read job lines from stdin until EOF, then drain and
//!   print the per-tenant ledger. Line format (whitespace-separated
//!   `key=value`): `tenant=acme task=mnist2 seed=7 steps=4` with optional
//!   `shots=256` and `batch=4`;
//! - `--once`: run a small built-in demo workload instead of stdin (the CI
//!   smoke mode — deterministic, exits 0 on success);
//! - `--drain`: accept nothing, drain, and exit (boot smoke test).
//!
//! Environment: `QOC_SERVE_QUOTA` (`queued=N,running=M`, applied to every
//! tenant) and `QOC_SERVE_TENANTS` (comma-separated allow-list). The
//! per-tenant ledger is printed at the end; the same counts live in the
//! `qoc.serve.tenant.*` registry counters.

use std::io::BufRead;
use std::process::ExitCode;

use qoc_core::engine::TrainConfig;
use qoc_data::tasks::Task;
use qoc_device::backend::{Execution, FakeDevice};
use qoc_device::backends::{fake_jakarta, fake_lima, fake_manila, fake_santiago};
use qoc_device::pool::PoolBuilder;
use qoc_serve::{JobHandle, JobOutcome, ServeConfig, Server, TrainRequest};

fn parse_task(name: &str) -> Option<Task> {
    match name {
        "mnist2" => Some(Task::Mnist2),
        "mnist4" => Some(Task::Mnist4),
        "fashion2" => Some(Task::Fashion2),
        "fashion4" => Some(Task::Fashion4),
        "vowel4" => Some(Task::Vowel4),
        _ => None,
    }
}

/// Parses one stdin job line into a request.
fn parse_job_line(line: &str) -> Result<TrainRequest, String> {
    let mut tenant = None;
    let mut task = None;
    let mut seed = 42u64;
    let mut steps = 4usize;
    let mut shots = 256u32;
    let mut batch = 4usize;
    for part in line.split_whitespace() {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{part:?} is not key=value"))?;
        match key {
            "tenant" => tenant = Some(value.to_string()),
            "task" => {
                task = Some(parse_task(value).ok_or_else(|| format!("unknown task {value:?}"))?);
            }
            "seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "steps" => steps = value.parse().map_err(|_| format!("bad steps {value:?}"))?,
            "shots" => shots = value.parse().map_err(|_| format!("bad shots {value:?}"))?,
            "batch" => batch = value.parse().map_err(|_| format!("bad batch {value:?}"))?,
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    let tenant = tenant.ok_or("missing tenant=")?;
    let task = task.ok_or("missing task=")?;
    let mut config = TrainConfig::paper_default(steps);
    config.seed = seed;
    config.batch_size = batch;
    config.execution = Execution::Shots(shots);
    config.eval_examples = 16;
    Ok(TrainRequest::from_task(&tenant, task, config))
}

/// The built-in `--once` demo workload: three tenants, six small jobs.
fn demo_requests() -> Vec<TrainRequest> {
    let tenants = ["acme", "blue", "crux"];
    (0..6)
        .map(|i| {
            let mut config = TrainConfig::paper_default(2);
            config.seed = 1000 + i as u64;
            config.batch_size = 2;
            config.eval_examples = 8;
            config.execution = Execution::Shots(128);
            let mut request =
                TrainRequest::from_task(tenants[i % tenants.len()], Task::Mnist2, config);
            // Demo-sized data keeps --once fast on debug builds too.
            request.train_data = request.train_data.take_front(16);
            request.val_data = request.val_data.take_front(8);
            request
        })
        .collect()
}

fn print_ledger(server: &Server, jobs: &[(JobHandle, String)]) -> bool {
    let mut ok = true;
    for (handle, label) in jobs {
        let status = handle.status();
        match handle.wait() {
            JobOutcome::Finished(result) => println!(
                "job {:>4}  {label:<24} tenant {:<8} run {} class {:<14} {} steps  \
                 best acc {:.3}  {} preemption(s)",
                status.id,
                status.tenant,
                status.run_id,
                status.device_class,
                result.steps.len(),
                result.best_accuracy,
                status.preemptions,
            ),
            JobOutcome::Failed(e) => {
                ok = false;
                eprintln!("job {:>4}  {label:<24} FAILED: {e}", status.id);
            }
        }
    }
    println!("tenants:");
    for snap in server.tenant_snapshots() {
        println!(
            "  {:<10} {:>4} submitted  {:>4} completed  {:>3} failed  {:>3} rejected  \
             {:>3} preempted  {:>3} resumed  peak {} running  {:.3} s on-device",
            snap.tenant,
            snap.submitted,
            snap.completed,
            snap.failed,
            snap.rejected,
            snap.preempted,
            snap.resumed,
            snap.max_running_observed,
            snap.device_ns as f64 / 1e9,
        );
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut once = false;
    let mut drain_only = false;
    for arg in &args {
        match arg.as_str() {
            "--once" => once = true,
            "--drain" => drain_only = true,
            other => {
                eprintln!("qoc-serve: unknown argument {other:?} (expected --once / --drain)");
                return ExitCode::from(1);
            }
        }
    }

    if let Err(e) = qoc_telemetry::env::check() {
        eprintln!("qoc-serve: {e}");
        return ExitCode::from(1);
    }
    qoc_telemetry::init_from_env();
    let checkpoint_dir = std::env::temp_dir().join(format!("qoc-serve-{}", std::process::id()));
    let cfg = match ServeConfig::from_env(checkpoint_dir) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("qoc-serve: {e}");
            return ExitCode::from(1);
        }
    };

    let mut builder = PoolBuilder::new();
    for desc in [fake_santiago(), fake_lima(), fake_manila(), fake_jakarta()] {
        let name = desc.name.clone();
        let for_class = desc.clone();
        builder = builder.class(&name, Some(desc), 1, move || {
            Box::new(FakeDevice::new(for_class.clone()))
        });
    }
    let pool = builder.build();
    println!(
        "qoc-serve: {} device classes, {} instances, quota queued={} running={}",
        pool.num_classes(),
        pool.total_instances(),
        cfg.quota.max_queued,
        cfg.quota.max_running,
    );
    let server = Server::new(pool, cfg);

    let mut jobs: Vec<(JobHandle, String)> = Vec::new();
    if drain_only {
        // nothing to submit
    } else if once {
        for request in demo_requests() {
            let label = format!("{}/{}", request.tenant, request.name);
            match server.submit(request) {
                Ok(handle) => jobs.push((handle, label)),
                Err(e) => {
                    eprintln!("qoc-serve: demo submit failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    } else {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_job_line(line) {
                Ok(request) => {
                    let label = format!("{}/{}", request.tenant, request.name);
                    match server.submit(request) {
                        Ok(handle) => jobs.push((handle, label)),
                        Err(e) => eprintln!("qoc-serve: rejected: {e}"),
                    }
                }
                Err(e) => eprintln!("qoc-serve: bad job line: {e}"),
            }
        }
    }

    server.drain();
    let ok = print_ledger(&server, &jobs);
    server.shutdown();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
