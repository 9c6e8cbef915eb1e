//! The per-thread scratch pool behind every state a circuit run evolves.
//!
//! Statevectors, density matrices and the noisy forks' lane states are all
//! borrowed through [`with_scratch`] from one parked list per thread and
//! parked again when the run ends, so repeated runs of one width allocate
//! no state: a reuse takes back the very box the state was parked in.
//! Each kind parks at most [`Scratch::CAP`] states per thread, whatever
//! their widths, which bounds the memory a thread keeps between runs.
//! Acquisitions count into `qoc.sim.pool.hits` (a parked state served it)
//! and `qoc.sim.pool.misses` (a fresh one was made).

use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use qoc_telemetry::metrics::{Counter, Registry};

use crate::statevector::Statevector;

/// A state kind the scratch pool parks.
pub trait Scratch: Any {
    /// States of this kind a thread parks at most, over all widths.
    const CAP: usize;

    /// Width in qubits: a parked state serves only acquisitions of its
    /// width.
    fn num_qubits(&self) -> usize;

    /// A new state of `num_qubits` qubits, for an acquisition no parked
    /// state serves.
    fn fresh(num_qubits: usize) -> Self;
}

impl Scratch for Statevector {
    const CAP: usize = 8;

    fn num_qubits(&self) -> usize {
        Statevector::num_qubits(self)
    }

    fn fresh(num_qubits: usize) -> Self {
        Statevector::zero_state(num_qubits)
    }
}

thread_local! {
    /// Parked states of every kind, each in the box it was made in.
    static PARKED: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// `qoc.sim.pool.*` counters. Registry lookups take a mutex, so the
/// handles are resolved once.
struct PoolMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        PoolMetrics {
            hits: reg.counter("qoc.sim.pool.hits"),
            misses: reg.counter("qoc.sim.pool.misses"),
        }
    })
}

/// Runs `f` on a scratch state of kind `S` and width `num_qubits` from
/// this thread's pool, then parks the state again if fewer than
/// [`Scratch::CAP`] of its kind are parked.
///
/// A parked state comes back holding whatever its last run left, so a
/// caller that evolves from `|0…0⟩` resets it first. An acquisition nested
/// inside `f` gets a different state.
///
/// # Examples
///
/// ```
/// use qoc_sim::scratch::with_scratch;
/// use qoc_sim::statevector::Statevector;
///
/// let ez = with_scratch(2, |sv: &mut Statevector| {
///     sv.reset_zero();
///     sv.expectation_z(0)
/// });
/// assert_eq!(ez, 1.0);
/// ```
// Always inlined, so that `f` sees what its caller knows: the noisy forks
// pass their lane arm into `f`, and only where that arm is a constant does
// the compiler drop the copy of the fork passes for the arm a lane width
// never runs (≈ 50 KB of text). The bookkeeping stays out of line.
#[inline(always)]
pub fn with_scratch<S: Scratch, T>(num_qubits: usize, f: impl FnOnce(&mut S) -> T) -> T {
    let mut state = acquire::<S>(num_qubits);
    let out = f(&mut state);
    park(state);
    out
}

/// A parked state of kind `S` and width `num_qubits`, else a fresh one.
#[inline(never)]
fn acquire<S: Scratch>(num_qubits: usize) -> Box<S> {
    let parked = PARKED.with(|parked| {
        let mut parked = parked.borrow_mut();
        let i = parked.iter().position(|state| {
            state
                .downcast_ref::<S>()
                .is_some_and(|state| state.num_qubits() == num_qubits)
        })?;
        Some(parked.swap_remove(i))
    });
    let metrics = pool_metrics();
    match parked {
        Some(state) => {
            metrics.hits.inc();
            state.downcast().expect("parked state found by its kind")
        }
        None => {
            metrics.misses.inc();
            Box::new(S::fresh(num_qubits))
        }
    }
}

/// Parks `state` unless [`Scratch::CAP`] states of its kind are parked.
#[inline(never)]
fn park<S: Scratch>(state: Box<S>) {
    PARKED.with(|parked| {
        let mut parked = parked.borrow_mut();
        if parked.iter().filter(|state| state.is::<S>()).count() < S::CAP {
            parked.push(state);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A second kind, as wide as the statevectors below.
    struct Probe {
        num_qubits: usize,
    }

    impl Scratch for Probe {
        const CAP: usize = 1;

        fn num_qubits(&self) -> usize {
            self.num_qubits
        }

        fn fresh(num_qubits: usize) -> Self {
            Probe { num_qubits }
        }
    }

    fn parked<S: Scratch>() -> usize {
        PARKED.with(|parked| parked.borrow().iter().filter(|s| s.is::<S>()).count())
    }

    /// Holds `depth` nested statevectors of width `n` at once.
    fn nest(n: usize, depth: usize) {
        if depth > 0 {
            with_scratch(n, |_: &mut Statevector| nest(n, depth - 1));
        }
    }

    #[test]
    fn one_pool_nests_reuses_separates_kinds_and_caps_each() {
        // Each test runs on its own thread, so this thread's pool starts
        // empty; the counters are process-wide, so only their growth is
        // this test's.
        let hits = Registry::global().counter("qoc.sim.pool.hits");
        let misses = Registry::global().counter("qoc.sim.pool.misses");
        let m0 = misses.get();
        // The noiseless forks nest a base state and a fork of one width.
        let (outer, inner) = with_scratch(3, |base: &mut Statevector| {
            with_scratch(3, |fork: &mut Statevector| {
                (base.amplitudes().as_ptr(), fork.amplitudes().as_ptr())
            })
        });
        assert_ne!(outer, inner, "nested acquisitions share a buffer");
        assert!(misses.get() >= m0 + 2, "cold acquisitions must miss");
        assert_eq!(parked::<Statevector>(), 2);

        // A released buffer comes back, as a hit; the other stays parked.
        let h0 = hits.get();
        let again = with_scratch(3, |sv: &mut Statevector| {
            assert_eq!(parked::<Statevector>(), 1);
            sv.amplitudes().as_ptr()
        });
        assert!(again == outer || again == inner, "parked buffer not reused");
        assert!(hits.get() > h0, "a warm acquisition must hit");

        // Another kind of the same width takes no statevector.
        with_scratch(3, |probe: &mut Probe| {
            assert_eq!(probe.num_qubits, 3);
            assert_eq!(parked::<Statevector>(), 2, "kinds aliased");
        });
        assert_eq!(parked::<Probe>(), 1);

        // Twice the cap held at once parks only the cap, per kind.
        nest(3, 2 * Statevector::CAP);
        assert_eq!(parked::<Statevector>(), Statevector::CAP);
        with_scratch(3, |_: &mut Probe| with_scratch(3, |_: &mut Probe| {}));
        assert_eq!(parked::<Probe>(), Probe::CAP);
        assert_eq!(parked::<Statevector>(), Statevector::CAP);
    }
}
