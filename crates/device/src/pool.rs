//! A shared pool of backends with calibration-aware placement scoring.
//!
//! `qoc-serve` multiplexes many concurrent training jobs over a fixed fleet
//! of devices. Two concerns live here, both device-layer knowledge:
//!
//! - **Placement scoring** ([`placement_score`], [`DevicePool::place`]) —
//!   given a job's logical circuit, which device *class* (topology +
//!   calibration profile) fits it best? The score transpiles the circuit to
//!   each candidate coupling map and sums the calibration-implied error of
//!   the physical gate counts, so a line-topology circuit prefers a device
//!   it routes onto without SWAPs, and among topological ties the better
//!   calibrated machine wins. The score is a **pure function** of the
//!   circuit and the pool's descriptions — placement never depends on load,
//!   co-tenants, or timing, which is what makes served results bit-identical
//!   to solo runs.
//! - **Instance leasing** ([`DevicePool::acquire`]) — each class holds one
//!   or more interchangeable backend instances. A lease ([`PooledDevice`])
//!   grants *exclusive* use of one instance: the training engine resets and
//!   reads per-instance [`ExecutionStats`](crate::backend::ExecutionStats),
//!   so an instance must never run two jobs at once. Dropping the lease
//!   returns the instance and wakes waiters.
//!
//! Instances within one class must be behaviourally identical (same
//! description, same wrappers): results may depend on the *class* a job is
//! placed on, never on which instance served it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use qoc_sim::circuit::Circuit;

use crate::backend::{FakeDevice, QuantumBackend};
use crate::backends::DeviceDescription;
use crate::transpile::{transpile, TranspileOptions};

/// The calibration-aware fit of one circuit on one device class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementScore {
    /// Routing SWAPs the transpiler had to insert.
    pub swap_count: usize,
    /// Physical two-qubit gates after routing (includes SWAP expansion).
    pub gates_2q: usize,
    /// Physical one-qubit gates after routing.
    pub gates_1q: usize,
    /// Estimated total error: Σ gate-count × mean calibration error, plus
    /// readout error over the measured wires. Lower is better.
    pub est_error: f64,
}

/// Scores `circuit` on a device description, or `None` when the circuit
/// needs more qubits than the device has.
pub fn placement_score(circuit: &Circuit, desc: &DeviceDescription) -> Option<PlacementScore> {
    if circuit.num_qubits() > desc.coupling.num_qubits() {
        return None;
    }
    let t = transpile(circuit, &desc.coupling, TranspileOptions::default());
    let (mut gates_1q, mut gates_2q) = (0usize, 0usize);
    for op in t.circuit.ops() {
        match op.qubits.len() {
            1 => gates_1q += 1,
            _ => gates_2q += 1,
        }
    }
    let cal = &desc.calibration;
    let est_error = gates_1q as f64 * cal.mean_error_1q()
        + gates_2q as f64 * cal.mean_error_cx()
        + circuit.num_qubits() as f64 * cal.mean_readout_error();
    Some(PlacementScore {
        swap_count: t.swap_count,
        gates_2q,
        gates_1q,
        est_error,
    })
}

/// One device class: a description (shared by all instances) plus the idle
/// instances available for lease.
struct PoolClass {
    name: String,
    description: Option<DeviceDescription>,
    total: usize,
    idle: VecDeque<Box<dyn QuantumBackend>>,
}

struct PoolState {
    classes: Vec<PoolClass>,
}

/// A fixed fleet of backend instances grouped into classes (see module
/// docs). Shared via `Arc`; leases keep the pool alive.
pub struct DevicePool {
    state: Mutex<PoolState>,
    /// Signalled whenever a lease returns an instance.
    returned: Condvar,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let classes: Vec<String> = st
            .classes
            .iter()
            .map(|c| format!("{}×{} ({} idle)", c.name, c.total, c.idle.len()))
            .collect();
        f.debug_struct("DevicePool")
            .field("classes", &classes)
            .finish()
    }
}

/// Builds a [`DevicePool`] class by class.
#[derive(Default)]
pub struct PoolBuilder {
    classes: Vec<PoolClass>,
}

impl std::fmt::Debug for PoolBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.classes.iter().map(|c| c.name.as_str()).collect();
        f.debug_struct("PoolBuilder")
            .field("classes", &names)
            .finish()
    }
}

impl PoolBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PoolBuilder::default()
    }

    /// Adds a class of `instances` backends built by `factory` (called once
    /// per instance — every call must produce a behaviourally identical
    /// backend). `description` feeds placement scoring; pass `None` for a
    /// topology-free class (e.g. noiseless simulators), which scores as a
    /// perfect fit for any circuit.
    pub fn class<F>(
        mut self,
        name: impl Into<String>,
        description: Option<DeviceDescription>,
        instances: usize,
        mut factory: F,
    ) -> Self
    where
        F: FnMut() -> Box<dyn QuantumBackend>,
    {
        assert!(instances >= 1, "a device class needs at least one instance");
        let idle: VecDeque<Box<dyn QuantumBackend>> = (0..instances).map(|_| factory()).collect();
        self.classes.push(PoolClass {
            name: name.into(),
            description,
            total: instances,
            idle,
        });
        self
    }

    /// Finishes the pool.
    ///
    /// # Panics
    ///
    /// Panics when no class was added.
    pub fn build(self) -> Arc<DevicePool> {
        assert!(!self.classes.is_empty(), "a device pool needs ≥ 1 class");
        Arc::new(DevicePool {
            state: Mutex::new(PoolState {
                classes: self.classes,
            }),
            returned: Condvar::new(),
        })
    }
}

impl DevicePool {
    /// A pool of plain [`FakeDevice`]s, `instances_per_class` of each
    /// description.
    pub fn fake(descriptions: Vec<DeviceDescription>, instances_per_class: usize) -> Arc<Self> {
        let mut builder = PoolBuilder::new();
        for desc in descriptions {
            let name = desc.name.clone();
            let d = desc.clone();
            builder = builder.class(name, Some(desc), instances_per_class, move || {
                Box::new(FakeDevice::new(d.clone()))
            });
        }
        builder.build()
    }

    /// Number of device classes.
    pub fn num_classes(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .classes
            .len()
    }

    /// Class names in index order.
    pub fn class_names(&self) -> Vec<String> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.classes.iter().map(|c| c.name.clone()).collect()
    }

    /// Total instances across all classes (the pool's max concurrency).
    pub fn total_instances(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.classes.iter().map(|c| c.total).sum()
    }

    /// Instances of `class` currently idle.
    pub fn idle_instances(&self, class: usize) -> usize {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.classes[class].idle.len()
    }

    /// Qubit count of the widest described class (0 when every class is
    /// description-free — those accept any circuit, so the answer only
    /// matters in "nothing fits" diagnostics).
    pub fn widest_class_qubits(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.classes
            .iter()
            .filter_map(|c| c.description.as_ref())
            .map(|d| d.coupling.num_qubits())
            .max()
            .unwrap_or(0)
    }

    /// Deterministic calibration-aware placement: the feasible class with
    /// the lowest [`PlacementScore::est_error`] (ties broken by SWAP count,
    /// then class order; description-free classes score as a perfect fit).
    /// `None` when no class can hold the circuit.
    pub fn place(&self, circuit: &Circuit) -> Option<usize> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut best: Option<(usize, f64, usize)> = None;
        for (idx, class) in st.classes.iter().enumerate() {
            let (err, swaps) = match &class.description {
                Some(desc) => match placement_score(circuit, desc) {
                    Some(s) => (s.est_error, s.swap_count),
                    None => continue,
                },
                None => (0.0, 0),
            };
            let better = match best {
                None => true,
                Some((_, best_err, best_swaps)) => {
                    err < best_err || (err == best_err && swaps < best_swaps)
                }
            };
            if better {
                best = Some((idx, err, swaps));
            }
        }
        best.map(|(idx, _, _)| idx)
    }

    /// Leases an idle instance of `class` without blocking; `None` when all
    /// instances are busy.
    pub fn try_acquire(self: &Arc<Self>, class: usize) -> Option<PooledDevice> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let backend = st.classes[class].idle.pop_front()?;
        Some(PooledDevice {
            pool: Arc::clone(self),
            class,
            backend: Some(backend),
        })
    }

    /// Leases an idle instance of `class`, blocking until one returns.
    pub fn acquire(self: &Arc<Self>, class: usize) -> PooledDevice {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(backend) = st.classes[class].idle.pop_front() {
                return PooledDevice {
                    pool: Arc::clone(self),
                    class,
                    backend: Some(backend),
                };
            }
            st = self.returned.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// An exclusive lease on one pool instance; returns it on drop.
pub struct PooledDevice {
    pool: Arc<DevicePool>,
    class: usize,
    backend: Option<Box<dyn QuantumBackend>>,
}

impl std::fmt::Debug for PooledDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledDevice")
            .field("class", &self.class)
            .finish()
    }
}

impl PooledDevice {
    /// The class index this lease came from.
    pub fn class(&self) -> usize {
        self.class
    }

    /// The leased backend.
    pub fn backend(&self) -> &dyn QuantumBackend {
        self.backend
            .as_deref()
            .expect("lease still holds its backend")
    }
}

impl Drop for PooledDevice {
    fn drop(&mut self) {
        if let Some(backend) = self.backend.take() {
            let mut st = self.pool.state.lock().unwrap_or_else(|e| e.into_inner());
            st.classes[self.class].idle.push_back(backend);
            drop(st);
            self.pool.returned.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NoiselessBackend;
    use crate::backends::{all_paper_devices, fake_santiago, fake_toronto};
    use qoc_sim::circuit::ParamValue;

    /// A 4-qubit ring-entangled ansatz (the paper's MNIST-2 shape).
    fn ring_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, ParamValue::sym(q));
        }
        for q in 0..n {
            c.rzz(q, (q + 1) % n, ParamValue::sym(n + q));
        }
        c
    }

    #[test]
    fn placement_score_is_deterministic_and_penalizes_swaps() {
        let c = ring_circuit(4);
        let santiago = fake_santiago();
        let a = placement_score(&c, &santiago).unwrap();
        let b = placement_score(&c, &santiago).unwrap();
        assert_eq!(a, b, "scoring must be a pure function");
        assert!(a.est_error > 0.0);
        // A ring on a 5-qubit line needs routing; the error term must
        // reflect the two-qubit count it causes.
        assert!(a.gates_2q >= 4);
    }

    #[test]
    fn oversized_circuits_are_infeasible() {
        let c = ring_circuit(9);
        assert!(placement_score(&c, &fake_santiago()).is_none());
        assert!(placement_score(&c, &fake_toronto()).is_some());
    }

    #[test]
    fn pool_places_on_a_feasible_class_deterministically() {
        let pool = DevicePool::fake(all_paper_devices(), 1);
        let c = ring_circuit(4);
        let first = pool.place(&c).expect("4 qubits fit every paper device");
        for _ in 0..5 {
            assert_eq!(pool.place(&c), Some(first));
        }
        // 9 qubits only fit toronto (27q); everything else is skipped.
        let wide = ring_circuit(9);
        let placed = pool.place(&wide).expect("toronto holds 9 qubits");
        assert_eq!(pool.class_names()[placed], "ibmq_toronto");
    }

    #[test]
    fn leases_are_exclusive_and_return_on_drop() {
        let pool = PoolBuilder::new()
            .class("noiseless", None, 2, || Box::new(NoiselessBackend::new()))
            .build();
        assert_eq!(pool.total_instances(), 2);
        let a = pool.try_acquire(0).expect("first instance");
        let b = pool.try_acquire(0).expect("second instance");
        assert!(pool.try_acquire(0).is_none(), "pool exhausted");
        assert_eq!(a.class(), 0);
        drop(a);
        assert_eq!(pool.idle_instances(0), 1);
        let c = pool.try_acquire(0).expect("returned instance leases again");
        drop(b);
        drop(c);
        assert_eq!(pool.idle_instances(0), 2);
    }

    #[test]
    fn blocking_acquire_wakes_when_an_instance_returns() {
        let pool = PoolBuilder::new()
            .class("noiseless", None, 1, || Box::new(NoiselessBackend::new()))
            .build();
        let lease = pool.acquire(0);
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let lease = p2.acquire(0);
            lease.class()
        });
        // Give the waiter time to block, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(lease);
        assert_eq!(waiter.join().unwrap(), 0);
    }
}
