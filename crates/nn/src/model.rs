//! The QNN model: encoder + trainable ansatz + measurement head.
//!
//! A [`QnnModel`] builds **one** symbolic circuit in which both the
//! trainable parameters *and* the input features are symbols: indices
//! `0..num_params` are the ansatz weights θ, indices
//! `num_params..num_params+input_dim` carry the encoded input. A backend can
//! therefore transpile the circuit once and re-execute it for every example
//! and every parameter shift — exactly how the paper reuses one circuit
//! template across its training jobs.

use serde::{Deserialize, Serialize};

use qoc_sim::circuit::{Circuit, ParamValue};

use crate::encoder::RotationEncoder;
use crate::head::MeasurementHead;
use crate::layers::{build_ansatz, Layer};

/// A parameterized quantum classifier.
///
/// # Examples
///
/// ```
/// use qoc_nn::model::QnnModel;
///
/// let model = QnnModel::mnist2();
/// assert_eq!(model.num_params(), 8);
/// assert_eq!(model.num_classes(), 2);
/// assert_eq!(model.input_dim(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QnnModel {
    num_qubits: usize,
    encoder: RotationEncoder,
    layers: Vec<Layer>,
    head: MeasurementHead,
    num_params: usize,
    circuit: Circuit,
}

impl QnnModel {
    /// Assembles a model from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the encoder and layer wires disagree with `num_qubits`.
    pub fn new(
        num_qubits: usize,
        encoder: RotationEncoder,
        layers: Vec<Layer>,
        head: MeasurementHead,
    ) -> Self {
        assert_eq!(encoder.num_qubits(), num_qubits, "encoder width mismatch");
        // Build the symbolic template: ansatz symbols first, then encoder
        // symbols.
        let mut ansatz = Circuit::new(num_qubits);
        let num_params = build_ansatz(&mut ansatz, &layers);
        let mut circuit = Circuit::new(num_qubits);
        for (k, &(gate, wire)) in encoder.slots().iter().enumerate() {
            circuit.push(gate, &[wire], &[ParamValue::sym(num_params + k)]);
        }
        circuit.append(&ansatz);
        QnnModel {
            num_qubits,
            encoder,
            layers,
            head,
            num_params,
            circuit,
        }
    }

    /// MNIST-2 / paper Section 4.1: image encoder, 1 × (RZZ ring + RY), 8
    /// parameters, pair-sum head.
    pub fn mnist2() -> Self {
        QnnModel::new(
            4,
            RotationEncoder::image16(4),
            vec![Layer::RzzRing, Layer::Ry],
            MeasurementHead::TwoClassPairSum,
        )
    }

    /// MNIST-4: 3 × (RX + RY + RZ + CZ), 36 parameters, identity head.
    pub fn mnist4() -> Self {
        QnnModel::new(
            4,
            RotationEncoder::image16(4),
            (0..3)
                .flat_map(|_| [Layer::Rx, Layer::Ry, Layer::Rz, Layer::Cz])
                .collect(),
            MeasurementHead::Identity,
        )
    }

    /// Fashion-2: same architecture as MNIST-2.
    pub fn fashion2() -> Self {
        QnnModel::mnist2()
    }

    /// Fashion-4: 3 × (RZZ ring + RY), 24 parameters, identity head.
    pub fn fashion4() -> Self {
        QnnModel::new(
            4,
            RotationEncoder::image16(4),
            (0..3).flat_map(|_| [Layer::RzzRing, Layer::Ry]).collect(),
            MeasurementHead::Identity,
        )
    }

    /// Vowel-4: vowel encoder, 2 × (RZZ ring + RXX ring), 16 parameters,
    /// identity head.
    pub fn vowel4() -> Self {
        QnnModel::new(
            4,
            RotationEncoder::vowel10(4),
            (0..2)
                .flat_map(|_| [Layer::RzzRing, Layer::RxxRing])
                .collect(),
            MeasurementHead::Identity,
        )
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of classical input features.
    pub fn input_dim(&self) -> usize {
        self.encoder.input_dim()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.head.num_outputs(self.num_qubits)
    }

    /// The measurement head.
    pub fn head(&self) -> MeasurementHead {
        self.head
    }

    /// The ansatz layer sequence.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The symbolic circuit template. Symbols `0..num_params()` are the
    /// trainable weights; symbols `num_params()..num_params()+input_dim()`
    /// carry the input features.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Concatenates weights and an input example into the template's symbol
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn symbol_vector(&self, params: &[f64], input: &[f64]) -> Vec<f64> {
        assert_eq!(params.len(), self.num_params, "parameter width mismatch");
        assert_eq!(input.len(), self.input_dim(), "input width mismatch");
        let mut theta = Vec::with_capacity(params.len() + input.len());
        theta.extend_from_slice(params);
        theta.extend_from_slice(input);
        theta
    }

    /// A concrete (bound-input) circuit for one example with symbolic
    /// weights — useful for inspection.
    pub fn circuit_for_input(&self, input: &[f64]) -> Circuit {
        assert_eq!(input.len(), self.input_dim(), "input width mismatch");
        let mut c = Circuit::new(self.num_qubits);
        self.encoder.encode(&mut c, input);
        let mut ansatz = Circuit::new(self.num_qubits);
        build_ansatz(&mut ansatz, &self.layers);
        c.append(&ansatz);
        c
    }

    /// Applies the measurement head to raw qubit expectations.
    pub fn logits_from_expectations(&self, expectations: &[f64]) -> Vec<f64> {
        self.head.apply(expectations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_sim::simulator::StatevectorSimulator;

    #[test]
    fn paper_architectures_have_paper_param_counts() {
        assert_eq!(QnnModel::mnist2().num_params(), 8);
        assert_eq!(QnnModel::mnist4().num_params(), 36);
        assert_eq!(QnnModel::fashion4().num_params(), 24);
        assert_eq!(QnnModel::vowel4().num_params(), 16);
    }

    #[test]
    fn symbol_layout_is_params_then_input() {
        let m = QnnModel::mnist2();
        let c = m.circuit();
        assert_eq!(c.num_symbols(), 8 + 16);
        // The first op is an encoder RY carrying input symbol 8+0.
        assert_eq!(c.ops()[0].params[0].symbol(), Some(8));
        // Weight symbols live in the rzz/ry ansatz after 16 encoder ops.
        assert_eq!(c.ops()[16].params[0].symbol(), Some(0));
    }

    #[test]
    fn template_matches_bound_input_circuit() {
        let m = QnnModel::vowel4();
        let input: Vec<f64> = (0..10).map(|k| 0.1 * k as f64 - 0.4).collect();
        let params: Vec<f64> = (0..16).map(|k| 0.2 * k as f64 - 1.0).collect();
        let sim = StatevectorSimulator::new();
        let a = sim.expectations_z(m.circuit(), &m.symbol_vector(&params, &input));
        let b = sim.expectations_z(&m.circuit_for_input(&input), &params);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn logits_width_matches_classes() {
        let m2 = QnnModel::fashion2();
        assert_eq!(m2.logits_from_expectations(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
        let m4 = QnnModel::fashion4();
        assert_eq!(m4.logits_from_expectations(&[0.1, 0.2, 0.3, 0.4]).len(), 4);
    }

    #[test]
    fn zero_weights_are_not_a_dead_point() {
        // With zero weights the encoder still produces input-dependent
        // outputs (no trivially-flat landscape at init).
        let m = QnnModel::mnist2();
        let sim = StatevectorSimulator::new();
        let a = sim.expectations_z(m.circuit(), &m.symbol_vector(&[0.0; 8], &[0.4; 16]));
        let b = sim.expectations_z(m.circuit(), &m.symbol_vector(&[0.0; 8], &[2.0; 16]));
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 0.1);
    }

    #[test]
    #[should_panic(expected = "parameter width mismatch")]
    fn symbol_vector_checks_widths() {
        let m = QnnModel::mnist2();
        let _ = m.symbol_vector(&[0.0; 3], &[0.0; 16]);
    }
}
