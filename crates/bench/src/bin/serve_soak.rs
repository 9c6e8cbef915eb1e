//! CI serve-soak: the multi-tenant serving plane under fire.
//!
//! Runs [`qoc_serve::run_soak`] — interleaved tenants, per-tenant quotas
//! with admission backpressure, a pool of fault-injected fake devices
//! ([`FaultPlan::aggressive`]-equivalent), and mid-flight preemptions —
//! then writes the report to `results/serve_soak.json`. The harness itself
//! enforces the gates (any violation is a non-zero exit):
//!
//! - every job completes, `qoc.device.gave_up` stays at zero;
//! - every job's result is **bit-identical** to a solo run of the same
//!   request on the same device class;
//! - no tenant exceeds its running cap; queue high-water marks respect
//!   admission caps plus preemption requeues;
//! - each tenant's registry counters reconcile against the per-job
//!   results to the nanosecond.
//!
//! Usage: `serve_soak [--ci] [--jobs N] [--tenants N] [--seed S]
//! [--out PATH]`. The default profile is the headline one (≥1000 jobs,
//! 4 tenants); `--ci` selects the reduced CI profile (~200 jobs,
//! 3 tenants).
//!
//! [`FaultPlan::aggressive`]: qoc_device::faults::FaultPlan::aggressive

use std::io::Write as _;
use std::process::ExitCode;

use qoc_serve::{run_soak, SoakProfile};

fn main() -> ExitCode {
    qoc_bench::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = SoakProfile::full();
    let mut out = String::from("results/serve_soak.json");
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |name: &str| -> Option<String> {
            if flag == name {
                i += 1;
                args.get(i).cloned()
            } else {
                None
            }
        };
        match flag {
            "--ci" => profile = SoakProfile::ci(),
            "--jobs" | "--tenants" | "--seed" | "--out" => {
                let Some(value) = take(flag) else {
                    eprintln!("serve_soak: {flag} needs a value");
                    return ExitCode::from(2);
                };
                let parsed = value.parse::<u64>();
                match (flag, parsed) {
                    ("--jobs", Ok(n)) => profile.jobs = n as usize,
                    ("--tenants", Ok(n)) => profile.tenants = n as usize,
                    ("--seed", Ok(n)) => profile.seed = n,
                    ("--out", _) => out = value,
                    (_, Err(_)) => {
                        eprintln!("serve_soak: {flag} needs a number, got {value:?}");
                        return ExitCode::from(2);
                    }
                    _ => unreachable!(),
                }
            }
            other => {
                eprintln!("serve_soak: unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    // Preemption pressure scales with the workload.
    profile.preempt_victims = (profile.jobs / 10).max(1);

    println!(
        "serve_soak: {} jobs, {} tenants, seed {:#x}, quota queued={} running={}, {} \
         preemption victims{}",
        profile.jobs,
        profile.tenants,
        profile.seed,
        profile.quota.max_queued,
        profile.quota.max_running,
        profile.preempt_victims,
        if profile.light_models {
            " (light models)"
        } else {
            ""
        },
    );
    let report = match run_soak(&profile) {
        Ok(report) => report,
        Err(violation) => {
            eprintln!("serve_soak: INVARIANT VIOLATION: {violation}");
            return ExitCode::from(1);
        }
    };

    println!(
        "serve_soak: {} jobs completed across {} tenants — {} preemptions ({} resumes), \
         {} admission rejections absorbed, {} device retries, {} gave up, {}/{} verified \
         bit-identical to solo, {:.3} s on-device",
        report.jobs,
        report.tenants,
        report.preemptions,
        report.resumed,
        report.rejections,
        report.retries,
        report.gave_up,
        report.solo_verified,
        report.jobs,
        report.device_ns as f64 / 1e9,
    );

    if let Some(parent) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let json = format!(
        "{{\n  \"jobs\": {},\n  \"tenants\": {},\n  \"preemptions\": {},\n  \"resumed\": {},\n  \
         \"rejections\": {},\n  \"retries\": {},\n  \"gave_up\": {},\n  \"solo_verified\": {},\n  \
         \"device_ns\": {}\n}}\n",
        report.jobs,
        report.tenants,
        report.preemptions,
        report.resumed,
        report.rejections,
        report.retries,
        report.gave_up,
        report.solo_verified,
        report.device_ns,
    );
    match std::fs::File::create(&out).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("serve_soak: report written to {out}"),
        Err(e) => {
            eprintln!("serve_soak: cannot write {out}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
