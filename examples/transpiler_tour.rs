//! A tour of the hardware compilation pipeline.
//!
//! Follows one QNN circuit from its logical form through basis
//! decomposition, layout, SWAP routing, and peephole optimization onto each
//! of the five fake IBM machines, ending with the readout mapping on the
//! smallest of them.
//!
//! Run with: `cargo run --release --example transpiler_tour`

use qoc::device::schedule;
use qoc::device::transpile::{transpile, TranspileOptions};
use qoc::prelude::*;

fn main() {
    // The Vowel-4 ansatz: RZZ ring + RXX ring — rich in two-qubit gates.
    let model = QnnModel::vowel4();
    let logical = model.circuit();
    println!(
        "logical circuit: {} gates ({} two-qubit), depth {}, {} symbols\n",
        logical.len(),
        logical.two_qubit_count(),
        logical.depth(),
        logical.num_symbols()
    );

    println!(
        "{:<16} {:>6} {:>9} {:>6} {:>6} {:>12}",
        "device", "gates", "2q gates", "SWAPs", "depth", "duration(µs)"
    );
    for desc in all_paper_devices() {
        let name = desc.name.clone();
        let t = transpile(logical, &desc.coupling, TranspileOptions::default());
        let dur = schedule::circuit_duration_ns(&t.circuit, &desc.calibration) / 1000.0;
        println!(
            "{:<16} {:>6} {:>9} {:>6} {:>6} {:>12.2}",
            name,
            t.circuit.len(),
            t.circuit.two_qubit_count(),
            t.swap_count,
            t.circuit.depth(),
            dur
        );
    }

    // Where each logical qubit is read out on the smallest device.
    let santiago = fake_santiago();
    let t = transpile(logical, &santiago.coupling, TranspileOptions::default());
    println!(
        "\nreadout mapping (logical → physical): {:?}",
        t.final_layout
    );
}
