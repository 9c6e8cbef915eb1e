//! **Figure 2(c)** — gradient reliability: parameter-shift gradients
//! measured on a noisy device are compared against the exact noise-free
//! gradients, binned by exact-gradient magnitude. Small gradients show much
//! larger *relative* error (and frequent sign flips) — the observation that
//! motivates probabilistic gradient pruning.
//!
//! Usage: `cargo run --release -p qoc-bench --bin fig2c [--samples N]`

use qoc_bench::suite::TaskBench;
use qoc_bench::{format_table, save_json};
use qoc_core::grad::QnnGradientComputer;
use qoc_data::tasks::Task;
use qoc_device::backend::Execution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    qoc_bench::init();
    let flags = qoc_bench::flags(&["--samples", "--seed"]);
    let samples = flags.get("--samples").unwrap_or(12);
    let seed: u64 = flags.get("--seed").unwrap_or(42);
    let bench = TaskBench::new(Task::Mnist4, seed);
    let mut rng = StdRng::seed_from_u64(seed);

    let exact_computer = QnnGradientComputer::new(&bench.model, &bench.simulator, Execution::Exact);
    let noisy_computer =
        QnnGradientComputer::new(&bench.model, &bench.device, Execution::Shots(1024));

    // Collect (|exact|, |noisy − exact|, sign_flip) triples across random
    // parameter points and training examples.
    let mut points: Vec<(f64, f64, bool)> = Vec::new();
    for s in 0..samples {
        eprintln!("[fig2c] sample {}/{samples} ...", s + 1);
        let params: Vec<f64> = (0..bench.model.num_params())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let (input, label) = bench.train_set.example(s % bench.train_set.len());
        let batch = [(input, label)];
        let exact = exact_computer.batch_gradient(&params, &batch, None, s as u64);
        let noisy = noisy_computer.batch_gradient(&params, &batch, None, s as u64);
        for (e, n) in exact.grad.iter().zip(&noisy.grad) {
            points.push((e.abs(), (n - e).abs(), e.signum() != n.signum()));
        }
    }

    // Bin by exact magnitude.
    let edges = [0.0, 0.005, 0.01, 0.02, 0.04, 0.08, f64::INFINITY];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for w in edges.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let bin: Vec<&(f64, f64, bool)> = points
            .iter()
            .filter(|(m, _, _)| *m >= lo && *m < hi)
            .collect();
        if bin.is_empty() {
            continue;
        }
        let mean_rel: f64 =
            bin.iter().map(|(m, err, _)| err / m.max(1e-6)).sum::<f64>() / bin.len() as f64;
        let flip_rate: f64 = bin.iter().filter(|(_, _, f)| *f).count() as f64 / bin.len() as f64;
        rows.push(vec![
            format!("[{lo:.3}, {hi:.3})"),
            format!("{}", bin.len()),
            format!("{mean_rel:.2}"),
            format!("{flip_rate:.2}"),
        ]);
        json.push((lo, hi, bin.len(), mean_rel, flip_rate));
    }

    println!("Figure 2(c) reproduction — MNIST-4 gradients on fake ibmq_jakarta");
    println!("vs exact noise-free gradients ({samples} parameter points):\n");
    println!(
        "{}",
        format_table(
            &[
                "|grad| bin",
                "count",
                "mean relative error",
                "sign-flip rate"
            ],
            &rows,
        )
    );
    println!("Expected shape (paper): relative error and sign flips grow sharply");
    println!("as the exact gradient magnitude shrinks — small gradients are unreliable.");
    save_json("fig2c", &json);
}
