//! Per-device noise model: which error processes fire after which gates.
//!
//! A [`NoiseModel`] maps every executed operation to a list of
//! [`GateNoise`] entries — each either a general Kraus channel or an
//! analytically-applied depolarizing channel, targeting either the gate's
//! full wire set or one specific wire (per-qubit thermal relaxation after a
//! CX is two 1-qubit entries, far cheaper than one tensored 2-qubit
//! channel). The device crate builds one of these from each fake backend's
//! calibration data.

use std::collections::BTreeMap;
use std::fmt;

use crate::kraus::KrausChannel;
use crate::readout::ReadoutError;

/// Which of a gate's wires a noise entry acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSelect {
    /// All wires of the gate, in gate order.
    Gate,
    /// One wire, by position in the gate's wire list.
    Wire(usize),
}

/// The error process itself.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseOpKind {
    /// A general CPTP channel in Kraus form.
    Kraus(KrausChannel),
    /// Uniform-Pauli depolarizing with this probability, applied
    /// analytically (see `DensityMatrix::apply_depolarizing`).
    Depolarizing(f64),
}

/// One noise entry attached to a gate class.
#[derive(Debug, Clone, PartialEq)]
pub struct GateNoise {
    /// The error process.
    pub kind: NoiseOpKind,
    /// Target wires relative to the gate.
    pub wires: WireSelect,
}

impl GateNoise {
    /// Number of qubits the entry needs given a gate of `gate_wires` wires.
    pub fn arity(&self, gate_wires: usize) -> usize {
        match self.wires {
            WireSelect::Gate => gate_wires,
            WireSelect::Wire(_) => 1,
        }
    }
}

/// A complete noise description for an `n`-qubit device.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    num_qubits: usize,
    one_qubit: Vec<Vec<GateNoise>>,
    two_qubit: BTreeMap<(usize, usize), Vec<GateNoise>>,
    two_qubit_default: Vec<GateNoise>,
    readout: Vec<ReadoutError>,
}

impl NoiseModel {
    /// An ideal (noise-free) model.
    pub fn ideal(num_qubits: usize) -> Self {
        NoiseModel {
            num_qubits,
            one_qubit: vec![Vec::new(); num_qubits],
            two_qubit: BTreeMap::new(),
            two_qubit_default: Vec::new(),
            readout: vec![ReadoutError::default(); num_qubits],
        }
    }

    /// Starts a builder for an `n`-qubit model.
    pub fn builder(num_qubits: usize) -> NoiseModelBuilder {
        NoiseModelBuilder {
            model: NoiseModel::ideal(num_qubits),
        }
    }

    /// Number of qubits the model covers.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Noise entries that follow a single-qubit gate on `q`.
    pub fn one_qubit_noise(&self, q: usize) -> &[GateNoise] {
        &self.one_qubit[q]
    }

    /// Noise entries that follow a two-qubit gate on `(a, b)`
    /// (order-insensitive); falls back to the default entries when the edge
    /// has no specific list.
    pub fn two_qubit_noise(&self, a: usize, b: usize) -> &[GateNoise] {
        let key = (a.min(b), a.max(b));
        self.two_qubit
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&self.two_qubit_default)
    }

    /// Per-qubit readout errors.
    pub fn readout(&self) -> &[ReadoutError] {
        &self.readout
    }

    /// Returns `true` when no channel or readout error is configured.
    pub fn is_ideal(&self) -> bool {
        self.one_qubit.iter().all(Vec::is_empty)
            && self.two_qubit.is_empty()
            && self.two_qubit_default.is_empty()
            && self.readout.iter().all(ReadoutError::is_trivial)
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "noise model on {} qubit(s):", self.num_qubits)?;
        for (q, entries) in self.one_qubit.iter().enumerate() {
            if !entries.is_empty() {
                writeln!(
                    f,
                    "  q{q}: {} noise entr(ies), readout ε={:.4}",
                    entries.len(),
                    self.readout[q].assignment_error()
                )?;
            }
        }
        writeln!(
            f,
            "  {} edge-specific two-qubit entr(ies), {} default entr(ies)",
            self.two_qubit.len(),
            self.two_qubit_default.len()
        )
    }
}

/// Builder for [`NoiseModel`].
#[derive(Debug, Clone)]
pub struct NoiseModelBuilder {
    model: NoiseModel,
}

impl NoiseModelBuilder {
    fn check_qubit(&self, q: usize) {
        assert!(q < self.model.num_qubits, "qubit {q} out of range");
    }

    fn check_edge(&self, a: usize, b: usize) {
        assert!(
            a < self.model.num_qubits && b < self.model.num_qubits && a != b,
            "bad edge ({a}, {b})"
        );
    }

    /// Appends a Kraus channel after every single-qubit gate on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not single-qubit or `q` is out of range.
    pub fn one_qubit(mut self, q: usize, channel: KrausChannel) -> Self {
        assert_eq!(channel.num_qubits(), 1, "expected a 1-qubit channel");
        self.check_qubit(q);
        self.model.one_qubit[q].push(GateNoise {
            kind: NoiseOpKind::Kraus(channel),
            wires: WireSelect::Gate,
        });
        self
    }

    /// Appends the same Kraus channel after single-qubit gates on *all*
    /// qubits.
    pub fn one_qubit_all(mut self, channel: KrausChannel) -> Self {
        assert_eq!(channel.num_qubits(), 1, "expected a 1-qubit channel");
        for entries in &mut self.model.one_qubit {
            entries.push(GateNoise {
                kind: NoiseOpKind::Kraus(channel.clone()),
                wires: WireSelect::Gate,
            });
        }
        self
    }

    /// Appends an analytic depolarizing error after single-qubit gates on
    /// `q`.
    pub fn one_qubit_depolarizing(mut self, q: usize, p: f64) -> Self {
        self.check_qubit(q);
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.model.one_qubit[q].push(GateNoise {
            kind: NoiseOpKind::Depolarizing(p),
            wires: WireSelect::Gate,
        });
        self
    }

    /// Appends a 2-qubit Kraus channel after two-qubit gates on `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not two-qubit or an index is out of range.
    pub fn two_qubit(mut self, a: usize, b: usize, channel: KrausChannel) -> Self {
        assert_eq!(channel.num_qubits(), 2, "expected a 2-qubit channel");
        self.check_edge(a, b);
        self.model
            .two_qubit
            .entry((a.min(b), a.max(b)))
            .or_default()
            .push(GateNoise {
                kind: NoiseOpKind::Kraus(channel),
                wires: WireSelect::Gate,
            });
        self
    }

    /// Appends an analytic two-qubit depolarizing error on edge `(a, b)`.
    pub fn two_qubit_depolarizing(mut self, a: usize, b: usize, p: f64) -> Self {
        self.check_edge(a, b);
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.model
            .two_qubit
            .entry((a.min(b), a.max(b)))
            .or_default()
            .push(GateNoise {
                kind: NoiseOpKind::Depolarizing(p),
                wires: WireSelect::Gate,
            });
        self
    }

    /// Appends a *single-qubit* Kraus channel on one wire of the two-qubit
    /// gates on edge `(a, b)` — `wire` is the position (0 or 1) in the
    /// executed gate's wire list. This is how per-qubit thermal relaxation
    /// during a CX is modelled without a 16-operator tensor channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not 1-qubit or `wire > 1`.
    pub fn two_qubit_wire(
        mut self,
        a: usize,
        b: usize,
        wire: usize,
        channel: KrausChannel,
    ) -> Self {
        assert_eq!(channel.num_qubits(), 1, "expected a 1-qubit channel");
        assert!(wire < 2, "two-qubit gates have wires 0 and 1");
        self.check_edge(a, b);
        self.model
            .two_qubit
            .entry((a.min(b), a.max(b)))
            .or_default()
            .push(GateNoise {
                kind: NoiseOpKind::Kraus(channel),
                wires: WireSelect::Wire(wire),
            });
        self
    }

    /// Appends a 2-qubit Kraus channel after two-qubit gates on edges
    /// without a specific entry.
    pub fn two_qubit_default(mut self, channel: KrausChannel) -> Self {
        assert_eq!(channel.num_qubits(), 2, "expected a 2-qubit channel");
        self.model.two_qubit_default.push(GateNoise {
            kind: NoiseOpKind::Kraus(channel),
            wires: WireSelect::Gate,
        });
        self
    }

    /// Sets the readout error of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn readout(mut self, q: usize, error: ReadoutError) -> Self {
        self.check_qubit(q);
        self.model.readout[q] = error;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> NoiseModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{depolarizing_1q, depolarizing_2q, thermal_relaxation};

    #[test]
    fn ideal_model_is_ideal() {
        let m = NoiseModel::ideal(4);
        assert!(m.is_ideal());
        assert!(m.one_qubit_noise(2).is_empty());
        assert!(m.two_qubit_noise(0, 1).is_empty());
    }

    #[test]
    fn builder_assembles_entries() {
        let m = NoiseModel::builder(3)
            .one_qubit_all(depolarizing_1q(0.001))
            .one_qubit(1, thermal_relaxation(120.0, 90.0, 35.0))
            .one_qubit_depolarizing(0, 0.002)
            .two_qubit(0, 1, depolarizing_2q(0.01))
            .two_qubit_depolarizing(0, 1, 0.01)
            .two_qubit_wire(0, 1, 1, thermal_relaxation(120.0, 90.0, 300.0))
            .two_qubit_default(depolarizing_2q(0.02))
            .readout(2, ReadoutError::symmetric(0.03))
            .build();
        assert!(!m.is_ideal());
        assert_eq!(m.one_qubit_noise(0).len(), 2);
        assert_eq!(m.one_qubit_noise(1).len(), 2);
        assert_eq!(m.two_qubit_noise(1, 0).len(), 3);
        // Unlisted edge falls back to the default.
        assert_eq!(m.two_qubit_noise(1, 2).len(), 1);
        assert!((m.readout()[2].assignment_error() - 0.03).abs() < 1e-12);
        // Wire-targeted entry has arity 1 even for 2-qubit gates.
        let wire_entry = &m.two_qubit_noise(0, 1)[2];
        assert_eq!(wire_entry.arity(2), 1);
        assert_eq!(wire_entry.wires, WireSelect::Wire(1));
    }

    #[test]
    fn edge_lookup_is_order_insensitive() {
        let m = NoiseModel::builder(2)
            .two_qubit(1, 0, depolarizing_2q(0.05))
            .build();
        assert_eq!(m.two_qubit_noise(0, 1).len(), 1);
        assert_eq!(m.two_qubit_noise(1, 0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_qubit() {
        let _ = NoiseModel::builder(2).one_qubit(5, depolarizing_1q(0.01));
    }

    #[test]
    #[should_panic(expected = "wires 0 and 1")]
    fn builder_rejects_bad_wire_index() {
        let _ = NoiseModel::builder(2).two_qubit_wire(0, 1, 2, depolarizing_1q(0.01));
    }
}
