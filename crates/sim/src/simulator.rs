//! Circuit execution on the statevector backend.

use crate::circuit::Circuit;
use crate::fusion::FusedProgram;
use crate::statevector::Statevector;

/// Exact (noise-free) statevector simulator.
///
/// This is the "Classical-Train" substrate of the QOC paper: amplitudes are
/// tracked in a `2ⁿ` vector, gates are applied as complex matrix kernels, and
/// measurement is exact; shot-limited readout, as on hardware, samples the
/// state's probabilities with [`crate::statevector::sample_counts`].
///
/// # Examples
///
/// ```
/// use qoc_sim::circuit::Circuit;
/// use qoc_sim::simulator::StatevectorSimulator;
///
/// let mut c = Circuit::new(2);
/// c.h(0);
/// c.cx(0, 1);
/// let sim = StatevectorSimulator::new();
/// let ez = sim.expectations_z(&c, &[]);
/// assert!(ez[0].abs() < 1e-12 && ez[1].abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StatevectorSimulator {
    _private: (),
}

impl StatevectorSimulator {
    /// Creates a simulator.
    pub fn new() -> Self {
        StatevectorSimulator { _private: () }
    }

    /// Runs `circuit` with parameters `theta` from `|0…0⟩` and returns the
    /// final state.
    ///
    /// Executes through the fused specialized-kernel pipeline
    /// ([`FusedProgram`]); callers that run one circuit structure many times
    /// should compile the program once themselves instead.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than the circuit's symbol count.
    pub fn run(&self, circuit: &Circuit, theta: &[f64]) -> Statevector {
        FusedProgram::compile(circuit).run(theta)
    }

    /// Applies `circuit` to an existing state in place (fused pipeline).
    pub fn run_into(&self, circuit: &Circuit, theta: &[f64], state: &mut Statevector) {
        FusedProgram::compile(circuit).run_into(theta, state);
    }

    /// Runs `circuit` through the generic dense-matrix path — per-gate
    /// [`GateKind::matrix`](crate::gates::GateKind::matrix) construction and
    /// [`Statevector::apply_unitary`] — with no fusion or specialization.
    ///
    /// This is the slow, obviously-correct oracle the differential test
    /// suite checks the kernel pipeline against; it is not used on any hot
    /// path.
    pub fn run_reference(&self, circuit: &Circuit, theta: &[f64]) -> Statevector {
        let mut sv = Statevector::zero_state(circuit.num_qubits());
        self.run_into_reference(circuit, theta, &mut sv);
        sv
    }

    /// Applies `circuit` to an existing state via the generic dense-matrix
    /// oracle path (see [`StatevectorSimulator::run_reference`]).
    pub fn run_into_reference(&self, circuit: &Circuit, theta: &[f64], state: &mut Statevector) {
        assert_eq!(
            state.num_qubits(),
            circuit.num_qubits(),
            "state width does not match circuit width"
        );
        for op in circuit.ops() {
            let params = op.resolve(theta);
            let matrix = op.gate.matrix(&params);
            state.apply_unitary(&matrix, &op.qubits);
        }
    }

    /// Exact per-qubit Pauli-Z expectations of the circuit output.
    pub fn expectations_z(&self, circuit: &Circuit, theta: &[f64]) -> Vec<f64> {
        self.run(circuit, theta).expectation_all_z()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::ParamValue;

    #[test]
    fn ry_rotation_expectation_is_cosine() {
        let sim = StatevectorSimulator::new();
        for theta in [0.0, 0.4, 1.2, 2.9] {
            let mut c = Circuit::new(1);
            c.ry(0, ParamValue::sym(0));
            let ez = sim.expectations_z(&c, &[theta]);
            assert!((ez[0] - theta.cos()).abs() < 1e-12);
        }
    }

    #[test]
    fn ghz_state_expectations() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        let sim = StatevectorSimulator::new();
        let sv = sim.run(&c, &[]);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverse_circuit_returns_to_zero() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rx(1, 0.7);
        c.rzz(0, 2, 1.3);
        c.ry(2, -0.4);
        c.cx(0, 1);
        let sim = StatevectorSimulator::new();
        let mut sv = sim.run(&c, &[]);
        sim.run_into(&c.inverse(), &[], &mut sv);
        let zero = Statevector::zero_state(3);
        assert!(sv.approx_eq_up_to_phase(&zero, 1e-10));
    }

    #[test]
    fn bound_circuit_equals_symbolic() {
        let mut c = Circuit::new(2);
        c.rx(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        let theta = [0.33, -1.1];
        let sim = StatevectorSimulator::new();
        let a = sim.run(&c, &theta);
        let b = sim.run(&c.bind(&theta), &[]);
        assert!(a.approx_eq_up_to_phase(&b, 1e-12));
    }
}
