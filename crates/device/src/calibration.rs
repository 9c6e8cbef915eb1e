//! Device calibration data.
//!
//! Mirrors the per-qubit and per-gate figures IBM publishes for each
//! backend: coherence times, gate error rates and durations, and readout
//! assignment errors. The noise model and the latency model are both derived
//! from this structure.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use qoc_noise::channels::{error_rate_to_depolarizing_prob, thermal_relaxation};
use qoc_noise::model::NoiseModel;
use qoc_noise::readout::ReadoutError;

/// Calibration of one physical qubit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QubitCalibration {
    /// Relaxation time T1 in microseconds.
    pub t1_us: f64,
    /// Dephasing time T2 in microseconds (≤ 2·T1).
    pub t2_us: f64,
    /// Single-qubit gate error rate (randomized-benchmarking average).
    pub gate_error_1q: f64,
    /// Single-qubit gate duration in nanoseconds (SX-length pulse).
    pub gate_duration_1q_ns: f64,
    /// `P(measure 1 | prepared 0)`.
    pub readout_p1_given0: f64,
    /// `P(measure 0 | prepared 1)`.
    pub readout_p0_given1: f64,
}

impl QubitCalibration {
    /// A typical mid-2021 IBM Falcon qubit.
    pub fn typical() -> Self {
        QubitCalibration {
            t1_us: 120.0,
            t2_us: 90.0,
            gate_error_1q: 3e-4,
            gate_duration_1q_ns: 35.5,
            readout_p1_given0: 0.015,
            readout_p0_given1: 0.025,
        }
    }

    /// The readout error structure for the noise model.
    pub fn readout_error(&self) -> ReadoutError {
        ReadoutError::new(self.readout_p1_given0, self.readout_p0_given1)
    }
}

/// Calibration of one two-qubit coupler (CX direction-averaged).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeCalibration {
    /// CX gate error rate.
    pub gate_error_cx: f64,
    /// CX duration in nanoseconds.
    pub gate_duration_cx_ns: f64,
}

impl EdgeCalibration {
    /// A typical Falcon CX coupler.
    pub fn typical() -> Self {
        EdgeCalibration {
            gate_error_cx: 8e-3,
            gate_duration_cx_ns: 370.0,
        }
    }
}

/// Full calibration snapshot of a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceCalibration {
    qubits: Vec<QubitCalibration>,
    edges: BTreeMap<(usize, usize), EdgeCalibration>,
    /// Measurement (readout pulse + discrimination) duration in nanoseconds.
    pub readout_duration_ns: f64,
    /// Delay between repeated shots in nanoseconds (qubit reset interval).
    pub rep_delay_ns: f64,
}

impl DeviceCalibration {
    /// Builds a calibration table.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit outside `qubits`.
    pub fn new(
        qubits: Vec<QubitCalibration>,
        edges: BTreeMap<(usize, usize), EdgeCalibration>,
        readout_duration_ns: f64,
        rep_delay_ns: f64,
    ) -> Self {
        for &(a, b) in edges.keys() {
            assert!(
                a < qubits.len() && b < qubits.len(),
                "edge ({a},{b}) out of range"
            );
        }
        DeviceCalibration {
            qubits,
            edges,
            readout_duration_ns,
            rep_delay_ns,
        }
    }

    /// Uniform calibration: every qubit and edge identical. Handy for tests
    /// and for idealized sweeps.
    pub fn uniform(
        num_qubits: usize,
        qubit: QubitCalibration,
        edge: EdgeCalibration,
        edge_list: &[(usize, usize)],
    ) -> Self {
        let edges = edge_list
            .iter()
            .map(|&(a, b)| ((a.min(b), a.max(b)), edge))
            .collect();
        DeviceCalibration::new(vec![qubit; num_qubits], edges, 5200.0, 250_000.0)
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Per-qubit figures.
    pub fn qubit(&self, q: usize) -> &QubitCalibration {
        &self.qubits[q]
    }

    /// Per-edge figures (order-insensitive lookup).
    pub fn edge(&self, a: usize, b: usize) -> Option<&EdgeCalibration> {
        self.edges.get(&(a.min(b), a.max(b)))
    }

    /// All calibrated edges.
    pub fn edges(&self) -> impl Iterator<Item = (&(usize, usize), &EdgeCalibration)> {
        self.edges.iter()
    }

    /// Mean single-qubit gate error across the device.
    pub fn mean_error_1q(&self) -> f64 {
        self.qubits.iter().map(|q| q.gate_error_1q).sum::<f64>() / self.qubits.len().max(1) as f64
    }

    /// Mean CX error across the device.
    pub fn mean_error_cx(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edges.values().map(|e| e.gate_error_cx).sum::<f64>() / self.edges.len() as f64
    }

    /// Mean readout assignment error across the device.
    pub fn mean_readout_error(&self) -> f64 {
        self.qubits
            .iter()
            .map(|q| (q.readout_p1_given0 + q.readout_p0_given1) / 2.0)
            .sum::<f64>()
            / self.qubits.len().max(1) as f64
    }

    /// Derives the noise model this calibration implies: depolarizing error
    /// matched to the RB error rate (applied analytically) plus thermal
    /// relaxation over each gate duration (as per-wire 1-qubit channels),
    /// and per-qubit readout confusion.
    pub fn noise_model(&self) -> NoiseModel {
        let wires: Vec<usize> = (0..self.qubits.len()).collect();
        self.noise_model_on(&wires, self.edges.keys().copied())
    }

    /// [`Self::noise_model`] restricted to the physical qubits `wires`:
    /// model wire `i` is physical qubit `wires[i]`, and `pairs` lists the
    /// model-wire pairs a CX runs on (in any order, repeats ignored). A
    /// pair without a calibrated edge gets [`EdgeCalibration::typical`].
    pub fn noise_model_on(
        &self,
        wires: &[usize],
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> NoiseModel {
        let mut builder = NoiseModel::builder(wires.len());
        for (i, &p) in wires.iter().enumerate() {
            let cal = self.qubit(p);
            builder = builder
                .one_qubit_depolarizing(i, error_rate_to_depolarizing_prob(cal.gate_error_1q, 1))
                .one_qubit(
                    i,
                    thermal_relaxation(cal.t1_us, cal.t2_us, cal.gate_duration_1q_ns),
                )
                .readout(i, cal.readout_error());
        }
        let pairs: BTreeSet<(usize, usize)> = pairs
            .into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        for (a, b) in pairs {
            // Per-wire thermal relaxation during the CX: wire 0 of the
            // executed gate sits on whichever endpoint the transpiler chose,
            // but both endpoints share this edge's duration, so attach each
            // qubit's own T1/T2 channel to a fixed wire slot (the lower
            // wire first, matching the gate order the router emits up to
            // direction — an acceptable approximation either way).
            let (pa, pb) = (wires[a], wires[b]);
            let edge = self
                .edge(pa, pb)
                .copied()
                .unwrap_or(EdgeCalibration::typical());
            let (ca, cb) = (self.qubit(pa), self.qubit(pb));
            builder = builder
                .two_qubit_depolarizing(
                    a,
                    b,
                    error_rate_to_depolarizing_prob(edge.gate_error_cx, 2),
                )
                .two_qubit_wire(
                    a,
                    b,
                    0,
                    thermal_relaxation(ca.t1_us, ca.t2_us, edge.gate_duration_cx_ns),
                )
                .two_qubit_wire(
                    a,
                    b,
                    1,
                    thermal_relaxation(cb.t1_us, cb.t2_us, edge.gate_duration_cx_ns),
                );
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_qubit_cal() -> DeviceCalibration {
        DeviceCalibration::uniform(
            2,
            QubitCalibration::typical(),
            EdgeCalibration::typical(),
            &[(0, 1)],
        )
    }

    #[test]
    fn uniform_builds_consistently() {
        let cal = two_qubit_cal();
        assert_eq!(cal.num_qubits(), 2);
        assert!(cal.edge(1, 0).is_some());
        assert!(cal.edge(0, 1).is_some());
        assert!((cal.mean_error_1q() - 3e-4).abs() < 1e-12);
        assert!((cal.mean_error_cx() - 8e-3).abs() < 1e-12);
        assert!((cal.mean_readout_error() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn noise_model_has_channels_everywhere() {
        let model = two_qubit_cal().noise_model();
        assert!(!model.is_ideal());
        assert_eq!(model.one_qubit_noise(0).len(), 2);
        assert_eq!(model.two_qubit_noise(0, 1).len(), 3);
        assert!((model.readout()[0].assignment_error() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn noise_model_channels_are_cptp() {
        let model = two_qubit_cal().noise_model();
        for entry in model
            .one_qubit_noise(1)
            .iter()
            .chain(model.two_qubit_noise(0, 1))
        {
            match &entry.kind {
                qoc_noise::model::NoiseOpKind::Kraus(ch) => {
                    assert!(ch.is_trace_preserving(1e-8), "{ch}");
                }
                qoc_noise::model::NoiseOpKind::Depolarizing(p) => {
                    assert!((0.0..=1.0).contains(p));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_edge_outside_qubits() {
        let mut edges = BTreeMap::new();
        edges.insert((0, 5), EdgeCalibration::typical());
        let _ = DeviceCalibration::new(
            vec![QubitCalibration::typical(); 2],
            edges,
            5000.0,
            250_000.0,
        );
    }
}
