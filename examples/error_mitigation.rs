//! Error mitigation on the emulated devices: readout-confusion inversion
//! and zero-noise extrapolation, the two standard post-processing tools a
//! hardware QOC deployment would pair with gradient pruning.
//!
//! Run with: `cargo run --release --example error_mitigation`

use qoc::core::zne::{fold_global, zero_noise_extrapolate};
use qoc::device::mitigation::ReadoutMitigator;
use qoc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let device = FakeDevice::new(fake_lima());
    let simulator = NoiselessBackend::new();

    // A small entangled probe circuit.
    let mut c = Circuit::new(4);
    for q in 0..4 {
        c.ry(q, 0.5 + 0.3 * q as f64);
    }
    for q in 0..4 {
        c.rzz(q, (q + 1) % 4, 0.4);
    }
    let theta: [f64; 0] = [];

    let exact = |backend: &dyn QuantumBackend, kind| {
        let prepared = backend.prepare(&c);
        backend.run_job(&CircuitJob {
            prepared: &prepared,
            theta: theta.to_vec(),
            execution: Execution::Exact,
            seed: 0,
            kind,
        })
    };
    let ideal = exact(&simulator, JobKind::ExpectationZ);
    let raw = exact(&device, JobKind::ExpectationZ);
    let raw_probs = exact(&device, JobKind::OutcomeDistribution);

    // 1. Readout mitigation: calibrate the confusion matrices, invert.
    println!("calibrating readout on {} ...", device.name());
    let mitigator = ReadoutMitigator::calibrate(&device, 4, 100_000, &mut rng);
    for q in 0..4 {
        let a = mitigator.confusion(q);
        println!("  logical q{q}: P(1|0) = {:.3}, P(0|1) = {:.3}", a[2], a[1]);
    }
    let readout_fixed = mitigator.mitigated_expectations(&raw_probs);

    // 2. Zero-noise extrapolation over folded circuits (scales 1, 3, 5).
    println!(
        "\nfolding circuit for ZNE: {} gates at scale 1, {} at scale 3",
        c.len(),
        fold_global(&c, 3).len()
    );
    let zne = zero_noise_extrapolate(&device, &c, &theta, &[1, 3, 5], Execution::Exact, 7);

    println!("\nper-qubit ⟨Z⟩:");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "method", "q0", "q1", "q2", "q3"
    );
    let show = |name: &str, v: &[f64]| {
        println!(
            "{name:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            v[0], v[1], v[2], v[3]
        );
    };
    show("ideal", &ideal);
    show("device (raw)", &raw);
    show("readout-mitigated", &readout_fixed);
    show("ZNE-extrapolated", &zne.extrapolated);

    let err = |v: &[f64]| -> f64 {
        v.iter()
            .zip(&ideal)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    };
    println!("\ntotal |error| vs ideal:");
    println!("  raw:               {:.4}", err(&raw));
    println!("  readout-mitigated: {:.4}", err(&readout_fixed));
    println!("  ZNE:               {:.4}", err(&zne.extrapolated));
    println!("\nBoth post-processing paths recover accuracy the hardware noise took;");
    println!("they compose with QOC's gradient pruning, which attacks the same");
    println!("problem during training rather than after measurement.");
}
