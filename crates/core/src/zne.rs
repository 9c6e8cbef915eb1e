//! Zero-noise extrapolation (ZNE).
//!
//! A hardware error-mitigation technique complementary to gradient pruning:
//! run the same circuit at *amplified* noise levels and extrapolate the
//! observable back to the zero-noise limit. Noise is amplified by **global
//! unitary folding** — replacing the circuit `U` with `U (U† U)ᵏ`, which is
//! logically the identity transformation but multiplies the physical gate
//! count (and hence the accumulated error) by `2k + 1`.

use qoc_device::backend::{job_seed, CircuitJob, Execution, QuantumBackend};
use qoc_sim::circuit::Circuit;

/// Builds the folded circuit `U (U† U)ᵏ` with scale factor `2k + 1`.
///
/// # Panics
///
/// Panics if `scale` is even or zero (folding only realizes odd factors).
pub fn fold_global(circuit: &Circuit, scale: usize) -> Circuit {
    assert!(
        scale % 2 == 1,
        "folding realizes odd scale factors, got {scale}"
    );
    let k = (scale - 1) / 2;
    let mut out = circuit.clone();
    let inverse = circuit.inverse();
    for _ in 0..k {
        out.append(&inverse);
        out.append(circuit);
    }
    out
}

/// A measured point of the extrapolation: `(noise scale, expectations)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZnePoint {
    /// Odd noise-scale factor (1 = unfolded).
    pub scale: usize,
    /// Per-qubit Z expectations at this scale.
    pub expectations: Vec<f64>,
}

/// Result of zero-noise extrapolation.
#[derive(Debug, Clone, PartialEq)]
pub struct ZneResult {
    /// The measured points, ascending scale.
    pub points: Vec<ZnePoint>,
    /// Per-qubit extrapolated zero-noise expectations.
    pub extrapolated: Vec<f64>,
}

/// Ordinary least-squares linear fit `y ≈ a + b·x`; returns the intercept
/// `a` (the `x = 0` extrapolation).
fn linear_intercept(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx < 1e-12 {
        return my;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let b = sxy / sxx;
    my - b * mx
}

/// Richardson/linear extrapolation of per-qubit Z expectations to zero
/// noise: run `circuit` at each odd `scale` in `scales` — all scales
/// submitted as one backend batch, each drawing shot noise from the stream
/// `job_seed(master_seed, scale)` — fit each qubit's expectation linearly
/// in the scale, and report the intercept.
///
/// # Panics
///
/// Panics if `scales` is empty or contains even factors.
pub fn zero_noise_extrapolate(
    backend: &dyn QuantumBackend,
    circuit: &Circuit,
    theta: &[f64],
    scales: &[usize],
    execution: Execution,
    master_seed: u64,
) -> ZneResult {
    assert!(!scales.is_empty(), "need at least one noise scale");
    let prepared: Vec<_> = scales
        .iter()
        .map(|&scale| backend.prepare(&fold_global(circuit, scale)))
        .collect();
    let jobs: Vec<CircuitJob<'_>> = prepared
        .iter()
        .zip(scales)
        .map(|(p, &scale)| {
            CircuitJob::expectation(
                p,
                theta.to_vec(),
                execution,
                job_seed(master_seed, scale as u64),
            )
        })
        .collect();
    let _span = qoc_telemetry::span!("zne.extrapolate", scales = scales.len(), jobs = jobs.len(),);
    let points: Vec<ZnePoint> = backend
        .run_batch_expect(&jobs)
        .into_iter()
        .zip(scales)
        .map(|(expectations, &scale)| ZnePoint {
            scale,
            expectations,
        })
        .collect();
    let num_qubits = points[0].expectations.len();
    let xs: Vec<f64> = points.iter().map(|p| p.scale as f64).collect();
    let extrapolated = (0..num_qubits)
        .map(|q| {
            let ys: Vec<f64> = points.iter().map(|p| p.expectations[q]).collect();
            linear_intercept(&xs, &ys).clamp(-1.0, 1.0)
        })
        .collect();
    ZneResult {
        points,
        extrapolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_device::backend::FakeDevice;
    use qoc_device::backends::fake_santiago;
    use qoc_sim::circuit::ParamValue;
    use qoc_sim::simulator::StatevectorSimulator;

    fn probe_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, 0.8);
        c.rzz(0, 1, ParamValue::sym(0));
        c.rx(1, 1.1);
        c
    }

    #[test]
    fn folding_is_logically_identity() {
        let c = probe_circuit();
        let sim = StatevectorSimulator::new();
        let base = sim.run(&c, &[0.4]);
        for scale in [1usize, 3, 5] {
            let folded = fold_global(&c, scale);
            assert_eq!(folded.len(), c.len() * scale);
            let out = sim.run(&folded, &[0.4]);
            assert!(
                base.approx_eq_up_to_phase(&out, 1e-9),
                "scale {scale} changed semantics"
            );
        }
    }

    #[test]
    fn folding_amplifies_device_noise_monotonically() {
        let device = FakeDevice::new(fake_santiago());
        let c = probe_circuit();
        let mut damping = Vec::new();
        for scale in [1usize, 3, 5] {
            let folded = fold_global(&c, scale);
            let prepared = device.prepare(&folded);
            let ez = device.run_job(&CircuitJob::expectation(
                &prepared,
                vec![0.4],
                Execution::Exact,
                1,
            ));
            damping.push(ez[0].abs() + ez[1].abs());
        }
        assert!(
            damping[0] > damping[1] && damping[1] > damping[2],
            "noise amplification not monotone: {damping:?}"
        );
    }

    #[test]
    fn extrapolation_beats_raw_measurement() {
        let device = FakeDevice::new(fake_santiago());
        let c = probe_circuit();
        let theta = [0.4];
        let ideal = StatevectorSimulator::new().expectations_z(&c, &theta);
        let prepared = device.prepare(&c);
        let raw = device.run_job(&CircuitJob::expectation(
            &prepared,
            theta.to_vec(),
            Execution::Exact,
            2,
        ));
        let zne = zero_noise_extrapolate(&device, &c, &theta, &[1, 3, 5], Execution::Exact, 7);
        let err = |v: &[f64]| -> f64 { v.iter().zip(&ideal).map(|(a, b)| (a - b).abs()).sum() };
        assert!(
            err(&zne.extrapolated) < err(&raw),
            "ZNE {} did not beat raw {}",
            err(&zne.extrapolated),
            err(&raw)
        );
    }

    #[test]
    fn intercept_of_exact_line() {
        let xs = [1.0, 3.0, 5.0];
        let ys = [0.9, 0.7, 0.5];
        // y = 1.0 − 0.1x → intercept 1.0.
        assert!((linear_intercept(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "odd scale")]
    fn rejects_even_scale() {
        let _ = fold_global(&probe_circuit(), 2);
    }
}
