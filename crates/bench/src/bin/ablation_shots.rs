//! **Ablation (beyond the paper)** — how the shot budget shapes gradient
//! fidelity and training accuracy. The paper fixes 1024 shots for every
//! circuit; this harness shows what that choice buys: gradient relative
//! error vs shots, and end accuracy vs shots at a fixed step budget.
//!
//! Usage: `cargo run --release -p qoc-bench --bin ablation_shots [--steps N]`

use qoc_bench::suite::{Measurement, TaskBench};
use qoc_bench::{format_table, save_json};
use qoc_core::engine::train;
use qoc_core::grad::QnnGradientComputer;
use qoc_data::tasks::Task;
use qoc_device::backend::Execution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    qoc_bench::init();
    let flags = qoc_bench::flags(&["--steps", "--seed"]);
    let steps = flags.get("--steps").unwrap_or(20);
    let seed: u64 = flags.get("--seed").unwrap_or(42);
    let shots_grid = [128u32, 512, 1024, 4096];
    let bench = TaskBench::new(Task::Mnist2, seed);
    let mut rng = StdRng::seed_from_u64(seed);

    // Part 1: gradient error vs shots (device noise fixed, shots varied).
    let exact = QnnGradientComputer::new(&bench.model, &bench.simulator, Execution::Exact);
    let params: Vec<f64> = (0..bench.model.num_params())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let (input, label) = bench.train_set.example(0);
    let batch = [(input, label)];
    let g_exact = exact.batch_gradient(&params, &batch, None, seed);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &shots in &shots_grid {
        let noisy = QnnGradientComputer::new(&bench.model, &bench.device, Execution::Shots(shots));
        // Average absolute error across a few repetitions.
        let reps = 5u64;
        let mut err = 0.0;
        for rep in 0..reps {
            let g =
                noisy.batch_gradient(&params, &batch, None, seed ^ (u64::from(shots) << 8) ^ rep);
            err += g
                .grad
                .iter()
                .zip(&g_exact.grad)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / g.grad.len() as f64
                / reps as f64;
        }
        rows.push(vec![format!("{shots}"), format!("{err:.4}")]);
        json.push(Measurement {
            label: "gradient_error".into(),
            values: vec![("shots".into(), shots as f64), ("mae".into(), err)],
        });
    }
    println!(
        "Gradient mean-absolute error vs shot budget (MNIST-2 on {}):\n",
        Task::Mnist2.paper_device()
    );
    println!("{}", format_table(&["shots", "gradient MAE"], &rows));

    // Part 2: training accuracy vs shots at a fixed step budget.
    let mut rows = Vec::new();
    for &shots in &shots_grid {
        eprintln!("[ablation_shots] training with {shots} shots ...");
        let mut cfg = bench.config(steps, seed);
        cfg.execution = Execution::Shots(shots);
        let result = train(
            &bench.model,
            &bench.device,
            &bench.train_set,
            &bench.val_set,
            &cfg,
        );
        let acc = bench.validate(&bench.device, &result.params, 150, seed);
        rows.push(vec![format!("{shots}"), format!("{acc:.3}")]);
        json.push(Measurement {
            label: "train_accuracy".into(),
            values: vec![("shots".into(), shots as f64), ("acc".into(), acc)],
        });
    }
    println!("\nAccuracy after {steps} steps vs shot budget:\n");
    println!("{}", format_table(&["shots", "val_acc"], &rows));
    println!("Expected shape: gradient error falls ≈ 1/√shots until gate noise");
    println!("dominates; accuracy saturates near 1024 shots — the paper's choice.");
    save_json("ablation_shots", &json);
}
