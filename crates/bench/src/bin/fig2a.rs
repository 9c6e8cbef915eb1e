//! **Figure 2(a)** — classical-simulation cost scaling: the number of
//! complex registers (#Regs) and complex operations (#Ops) needed to
//! simulate the paper's probe circuit (16 single-qubit rotations + 32 RZZ
//! gates) as the qubit count grows. Both are exponential in `n`.
//!
//! Usage: `cargo run --release -p qoc-bench --bin fig2a`

use qoc_bench::{format_table, save_json};
use qoc_sim::resources::paper_workload_cost;

fn main() {
    qoc_bench::init();
    qoc_bench::flags(&[]);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for n in (4..=34).step_by(2) {
        let cost = paper_workload_cost(n, 1);
        rows.push(vec![
            format!("{n}"),
            format!("{:.3e}", cost.registers as f64),
            format!("{:.3e}", cost.complex_ops as f64),
            format!("{:.3}", cost.memory_gb()),
        ]);
        json.push((
            n,
            cost.registers as f64,
            cost.complex_ops as f64,
            cost.memory_gb(),
        ));
    }
    println!("Figure 2(a) reproduction — classical simulation cost of the");
    println!("16-rotation + 32-RZZ probe circuit:\n");
    println!(
        "{}",
        format_table(&["qubits", "#Regs", "#Ops", "memory_GB"], &rows)
    );
    println!("Expected shape (paper): both curves are straight lines on a log axis");
    println!("(exactly 2^n scaling), crossing 10^9 registers around n = 30.");
    save_json("fig2a", &json);
}
