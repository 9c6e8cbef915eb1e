//! `perfbench`: the end-to-end and per-layer benchmark of the QOC training
//! stack. See README.md for the workloads, the metrics and what each layer
//! metric is expected to move.
//!
//! ```text
//! perfbench --workload <pgp_mnist4|classical_mnist4>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints one `context` JSON line, then the result as the last line of
//! standard output. `--trace 0` measures the end-to-end metrics. `--trace 1`
//! runs the workload, records spans from the benchmark's own code around
//! every other op, replays recorded ops layer by layer and reports the
//! per-layer metrics.

mod alloc_count;
mod mirror;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use qoc_bench::analyze::{parse_trace, SpanForest};
use qoc_bench::suite::device_for;
use qoc_core::eval::evaluate_with_params;
use qoc_core::grad::QnnGradientComputer;
use qoc_device::backend::{
    default_worker_count, job_seed, FakeDevice, NoiselessBackend, QuantumBackend,
};
use qoc_telemetry::metrics::Registry;

use crate::mirror::{Mirror, StepInputs};
use crate::replay::{Replayer, Totals};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, median_secs, timed};
use crate::train::{EngineRun, Kind, SetupSampler, TrainBench};

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Set-ups before the timed phase; one more is taken at an op boundary
/// about every [`SETUP_SAMPLE_S`] of it, and `setup_s` is the median of all.
const SETUP_REPEATS: usize = 3;
const SETUP_SAMPLE_S: f64 = 3.0;
/// Repeats of each single-call layer timing.
const CALL_REPEATS: usize = 5;
/// Stream ids deriving the training seed and per-purpose seeds from `--seed`.
const TRAIN_SEED_STREAM: u64 = 1;
const EVAL_SEED_STREAM: u64 = 2;

const USAGE: &str = "usage: perfbench --workload <pgp_mnist4|classical_mnist4> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    /// Child mode: run one op with the program's own telemetry on.
    telemetry_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut telemetry_probe = false;
    while let Some(flag) = it.next() {
        if flag == "--telemetry-probe" {
            telemetry_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value).ok_or(bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a duration"))?),
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        telemetry_probe,
    })
}

/// Run-context diagnostics: what was running where, so that a slow run can
/// be put down to host speed or to scheduling.
struct Context {
    workers: usize,
    parallelism: usize,
    loadavg: String,
    /// Process CPU seconds over wall seconds in the timed phase.
    cpu_wall_ratio: f64,
}

impl Context {
    fn capture() -> Context {
        Context {
            workers: default_worker_count(),
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            loadavg: stats::loadavg(),
            cpu_wall_ratio: f64::NAN,
        }
    }

    fn to_json(&self) -> String {
        format!(
            r#"{{"context": {{"workers": {}, "available_parallelism": {}, "loadavg": "{}", "cpu_wall_ratio": {}}}}}"#,
            self.workers,
            self.parallelism,
            self.loadavg,
            if self.cpu_wall_ratio.is_finite() {
                self.cpu_wall_ratio
            } else {
                0.0
            }
        )
    }
}

/// Runs `f` and returns its value with CPU seconds over wall seconds.
fn with_cpu_ratio<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cpu0 = stats::cpu_seconds();
    let (out, wall) = timed(f);
    (out, (stats::cpu_seconds() - cpu0) / wall)
}

/// The end-to-end metrics of a run's untraced ops.
fn put_end_to_end(rep: &mut Report, setup_s: f64, run: &EngineRun) {
    let circuits: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.circuits as f64)
        .collect();
    if circuits.windows(2).any(|w| w[0] != w[1]) {
        rep.problems
            .push("ops of one workload ran different circuit counts".to_string());
    }
    rep.put("setup_s", setup_s, "s");
    rep.put("op_s_min", run.op_s_min, "s");
    rep.put("circuits_per_op", median(&circuits), "count");
    rep.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
}

/// Everything the traced run reports, the same set on every workload.
#[derive(Default)]
struct Layers {
    data_load_s: f64,
    device_new_s: f64,
    device_prepare_s: f64,
    device_place_s: f64,
    /// Replay totals; `fake_is_work` says which backend ran the workload.
    totals: Totals,
    fake_is_work: bool,
    prune_s_per_step: f64,
    optim_s_per_step: f64,
    eval_s: f64,
    checkpoint_save_s: f64,
    submit_s: f64,
    queue_wait_s_p50: f64,
    saved_runs_ratio: f64,
    rejected_ratio: f64,
    val_accuracy: f64,
    model_s_per_op: f64,
    trace_overhead_pct: f64,
    layer_coverage: f64,
    replay_exact: bool,
    telemetry_device_share: f64,
}

fn put_layers(rep: &mut Report, l: &Layers, ctx: &Context) {
    let t = &l.totals;
    let work = (t.exact_s, t.shots_s, t.circuits as f64);
    let cross = (t.cross_exact_s, t.cross_shots_s, t.cross_circuits as f64);
    let ((fake_exact, fake_shots, fake_per), (sim_exact, sim_shots, sim_per)) = if l.fake_is_work {
        (work, cross)
    } else {
        (cross, work)
    };
    let us = |secs: f64, per: f64| secs / per * 1e6;
    rep.put("data.load_s", l.data_load_s, "s");
    rep.put("device.new_s", l.device_new_s, "s");
    rep.put("device.prepare_us", l.device_prepare_s * 1e6, "us");
    rep.put("device.place_us", l.device_place_s * 1e6, "us");
    rep.put(
        "device.run_batch_us_per_circuit",
        t.per_circuit_us(t.run_batch_s),
        "us",
    );
    rep.put(
        "noise.evolve_us_per_circuit",
        us(fake_exact, fake_per),
        "us",
    );
    rep.put(
        "device.sample_us_per_circuit",
        us(fake_shots - fake_exact, fake_per),
        "us",
    );
    rep.put("sim.evolve_us_per_circuit", us(sim_exact, sim_per), "us");
    rep.put(
        "sim.sample_us_per_circuit",
        us(sim_shots - sim_exact, sim_per),
        "us",
    );
    rep.put(
        "core.shift.jobs_us_per_circuit",
        t.per_circuit_us(t.shift_s),
        "us",
    );
    rep.put(
        "core.grad.overhead_us_per_circuit",
        t.per_circuit_us(t.grad_s - t.run_batch_s),
        "us",
    );
    rep.put("core.prune.us_per_step", l.prune_s_per_step * 1e6, "us");
    rep.put("core.optim.us_per_step", l.optim_s_per_step * 1e6, "us");
    rep.put("core.eval_s", l.eval_s, "s");
    rep.put("core.checkpoint.save_ms", l.checkpoint_save_s * 1e3, "ms");
    rep.put("serve.submit_us", l.submit_s * 1e6, "us");
    rep.put("serve.queue_wait_s_p50", l.queue_wait_s_p50, "s");
    rep.put("core.prune.saved_runs_ratio", l.saved_runs_ratio, "ratio");
    rep.put(
        "device.retries",
        Registry::global().counter("qoc.device.retries").get() as f64,
        "count",
    );
    rep.put("serve.rejected_ratio", l.rejected_ratio, "ratio");
    rep.put("core.val_accuracy", l.val_accuracy, "ratio");
    rep.put("device.model_s_per_op", l.model_s_per_op, "model_s");
    rep.put(
        "alloc.count_per_circuit",
        t.allocs as f64 / t.circuits as f64,
        "count",
    );
    rep.put(
        "alloc.bytes_per_circuit",
        t.alloc_bytes as f64 / t.circuits as f64,
        "B",
    );
    rep.put("bench.trace_overhead_pct", l.trace_overhead_pct, "%");
    rep.put("bench.layer_coverage", l.layer_coverage, "ratio");
    rep.put(
        "bench.replay_exact",
        f64::from(u8::from(l.replay_exact)),
        "count",
    );
    let replay_share = t.device_share();
    rep.put("bench.replay_device_share", replay_share, "ratio");
    rep.put(
        "bench.telemetry_device_share",
        l.telemetry_device_share,
        "ratio",
    );
    rep.put(
        "bench.device_share_gap_pct",
        (replay_share / l.telemetry_device_share - 1.0) * 100.0,
        "%",
    );
    rep.put("bench.cpu_wall_ratio", ctx.cpu_wall_ratio, "ratio");
}

/// Runs this binary again as a child with the program's own JSONL trace
/// on (`QOC_TRACE_FILE`), replaying one op; returns the share of the
/// `grad.minibatch` spans' time spent in their `device.batch` spans.
fn telemetry_device_share(args: &Args, dir: &Path) -> Result<f64, String> {
    let path = dir.join("telemetry-probe.jsonl");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args([
            "--telemetry-probe",
            "--workload",
            args.workload.name(),
            "--trace",
            "0",
        ])
        .args(["--seed", &args.seed.to_string(), "--seconds", "1"])
        .arg("--out-dir")
        .arg(dir)
        .env("QOC_TRACE_FILE", &path)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("telemetry probe did not start: {e}"))?;
    if !status.success() {
        return Err(format!("telemetry probe exited with {status}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("telemetry trace: {e}"))?;
    let (records, _) = parse_trace(&text)?;
    let forest = SpanForest::build(&records);
    let (mut minibatch, mut device) = (0u64, 0u64);
    for (i, node) in forest.nodes.iter().enumerate() {
        if node.name == "grad.minibatch" {
            minibatch += node.dur_ns;
        } else if node.name == "device.batch" && forest.under_any(i, &["grad.minibatch"]) {
            device += node.dur_ns;
        }
    }
    if minibatch == 0 {
        return Err("telemetry trace holds no grad.minibatch span".to_string());
    }
    Ok(device as f64 / minibatch as f64)
}

/// Child side of [`telemetry_device_share`]: one op through the mirror.
fn telemetry_probe(args: &Args) -> Result<(), String> {
    qoc_telemetry::init_from_env();
    let mut tracer = Tracer::new();
    let bench = TrainBench::setup(args.workload, args.seed);
    let ops = 3 / bench.steps_per_op();
    let config = bench.config(ops, job_seed(args.seed, TRAIN_SEED_STREAM));
    let mut m = Mirror::new(
        &bench.model,
        bench.backend.as_ref(),
        &bench.train,
        &bench.val,
        &config,
    );
    for _ in 0..config.steps {
        m.step(&mut tracer, 0).map_err(|e| e.to_string())?;
    }
    qoc_telemetry::flush();
    Ok(())
}

/// Sum of the spans directly under `parent` whose name is in `names`.
fn child_seconds(tracer: &Tracer, parent: usize, names: &[&str]) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.parent == Some(parent) && names.contains(&s.name))
        .map(spans::Span::secs)
        .sum()
}

/// Median seconds of saving `mirror`'s checkpoint into `dir`.
fn checkpoint_save_secs(mirror: &Mirror<'_>, dir: &Path, rep: &mut Report) -> f64 {
    let state = mirror.state();
    let path = dir.join("checkpoint.json");
    let mut failed = None;
    let secs = median_secs(CALL_REPEATS, || {
        if let Err(e) = state.save(&path) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        rep.problems.push(format!("checkpoint save failed: {e}"));
    }
    secs
}

fn run(args: &Args, ctx: &mut Context, tracer: &mut Tracer, scratch: &Path) -> Report {
    let kind = args.workload;
    let mut rep = Report::default();
    let (mut setup_times, mut loads) = (Vec::new(), Vec::new());
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let (b, secs) = timed(|| TrainBench::setup(kind, args.seed));
        setup_times.push(secs);
        loads.push(b.load_s);
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let train_seed = job_seed(args.seed, TRAIN_SEED_STREAM);
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (ops, op_s) = bench.ops_for(phase_s, train_seed);
    let config = bench.config(ops + 1, train_seed);
    let setup_once = || timed(|| TrainBench::setup(kind, args.seed)).1;
    let sampler = SetupSampler {
        every: bench.steps_per_op() * ((SETUP_SAMPLE_S / op_s).round() as usize).max(1),
        run: &setup_once,
    };
    let sampler = (!args.trace).then_some(&sampler);
    let (run, ratio) = with_cpu_ratio(|| bench.run_engine(&config, sampler));
    setup_times.extend(&run.setup_samples);
    ctx.cpu_wall_ratio = ratio;
    rep.count_ops(&run.ops);
    rep.problems.extend(run.problems.iter().cloned());
    if !args.trace {
        put_end_to_end(&mut rep, median(&setup_times), &run);
        return rep;
    }

    // The same run again through the mirror: odd ops traced (one span per
    // call), even ops untraced, so that a slow spell of the host hits both.
    let spo = bench.steps_per_op();
    let backend = bench.backend.as_ref();
    let mut mirror = Mirror::new(&bench.model, backend, &bench.train, &bench.val, &config);
    // (op, its span, its steps) of every traced op after the warm-up.
    let mut traced_ops: Vec<(usize, usize, Vec<StepInputs>)> = Vec::new();
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    for op in 0..=ops {
        tracer.enabled = op % 2 == 1;
        let start = Instant::now();
        let id = tracer.enabled.then(|| tracer.open("op", op as u64));
        let mut steps = Vec::with_capacity(spo);
        for _ in 0..spo {
            match mirror.step(tracer, op as u64) {
                Ok(s) => steps.push(s),
                Err(e) => rep.problems.push(format!("traced step failed: {e}")),
            }
        }
        if let Some(id) = id {
            tracer.close(id);
        }
        let wall = start.elapsed().as_secs_f64();
        match id {
            _ if op == 0 => {}
            Some(id) => {
                traced_walls.push(wall);
                traced_ops.push((op, id, steps));
            }
            None => untraced_walls.push(wall),
        }
    }
    tracer.enabled = true;
    let engine_exact = mirror.records.len() == run.records.len()
        && mirror
            .records
            .iter()
            .zip(&run.records)
            .all(|(a, b)| a.loss.to_bits() == b.loss.to_bits());

    // Layer replay of recorded ops.
    let fake = FakeDevice::new(device_for(bench.task));
    let noiseless = NoiselessBackend::new();
    let (cross, exact_layer, cross_limit): (&dyn QuantumBackend, _, _) = match kind {
        Kind::Pgp => (&noiseless, "noise.evolve", usize::MAX),
        Kind::Classical => (&fake, "sim.evolve", 24),
    };
    let mut replayer = Replayer {
        model: &bench.model,
        train: &bench.train,
        work: QnnGradientComputer::new(&bench.model, backend, config.execution),
        cross: QnnGradientComputer::new(&bench.model, cross, config.execution),
        cross_limit,
        exact_layer,
        totals: Totals::default(),
    };
    let replay_count = match kind {
        Kind::Pgp => 1,
        Kind::Classical => 10,
    };
    let mut coverage = Vec::new();
    for (op, span, steps) in traced_ops.iter().take(replay_count) {
        let (op, span) = (*op, *span);
        let before = replayer.totals.grad_s;
        let id = tracer.open("replay", op as u64);
        for step in steps {
            if let Err(e) = replayer.replay_step(tracer, op as u64, step) {
                rep.problems.push(e);
            }
        }
        tracer.close(id);
        let glue = child_seconds(tracer, span, &["data.batch", "core.prune", "core.optim"]);
        let replayed = replayer.totals.grad_s - before;
        coverage.push((glue + replayed) / tracer.spans()[span].secs());
    }
    let traced_steps = (traced_ops.len() * spo) as f64;
    let per_step = |names: &[&str]| -> f64 {
        traced_ops
            .iter()
            .map(|&(_, id, _)| child_seconds(tracer, id, names))
            .sum::<f64>()
            / traced_steps
    };

    let mut l = Layers {
        data_load_s: median(&loads),
        device_new_s: median_secs(CALL_REPEATS, || FakeDevice::new(device_for(bench.task))),
        device_prepare_s: median_secs(CALL_REPEATS, || backend.prepare(bench.model.circuit())),
        fake_is_work: kind == Kind::Pgp,
        prune_s_per_step: per_step(&["core.prune"]),
        optim_s_per_step: per_step(&["core.optim"]),
        saved_runs_ratio: 1.0 - run.grad_circuits.0 as f64 / run.grad_circuits.1 as f64,
        val_accuracy: run.accuracy,
        model_s_per_op: median(
            &run.ops
                .iter()
                .map(|o| o.device_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        ),
        trace_overhead_pct: (median(&traced_walls) / median(&untraced_walls) - 1.0) * 100.0,
        layer_coverage: median(&coverage),
        replay_exact: engine_exact && replayer.totals.mismatches == 0,
        ..Layers::default()
    };
    l.totals = replayer.totals;
    let eval_seed = job_seed(args.seed, EVAL_SEED_STREAM);
    l.eval_s = median_secs(3, || {
        evaluate_with_params(
            &bench.model,
            backend,
            &mirror.params,
            &mirror.eval_set,
            config.execution,
            eval_seed,
        )
    });
    l.checkpoint_save_s = checkpoint_save_secs(&mirror, scratch, &mut rep);
    let probe = serve::probe(&bench, scratch, args.seed, &mut rep);
    l.submit_s = probe.submit_s;
    l.queue_wait_s_p50 = probe.queue_wait_s_p50;
    l.rejected_ratio = probe.rejected_ratio;
    l.device_place_s = probe.place_s;
    l.telemetry_device_share = telemetry_device_share(args, scratch).unwrap_or_else(|e| {
        rep.problems.push(e);
        f64::NAN
    });
    put_layers(&mut rep, &l, ctx);
    rep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.telemetry_probe {
        return match telemetry_probe(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Context::capture();
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let report = run(&args, &mut ctx, &mut tracer, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if args.trace {
        let path = args.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    eprintln!(
        "perfbench: {} seed {} trace {} took {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    println!("{}", ctx.to_json());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
