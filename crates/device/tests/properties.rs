//! Property tests of the device layer: topology invariants, scheduling
//! monotonicity and layout/routing bookkeeping over random inputs.

use proptest::prelude::*;

use qoc_device::backends::{all_paper_devices, fake_toronto};
use qoc_device::calibration::{DeviceCalibration, EdgeCalibration, QubitCalibration};
use qoc_device::schedule::{circuit_duration_ns, job_time};
use qoc_device::topology::CouplingMap;
use qoc_device::transpile::layout::Layout;
use qoc_sim::circuit::Circuit;

fn line_cal(n: usize) -> DeviceCalibration {
    let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    DeviceCalibration::uniform(
        n,
        QubitCalibration::typical(),
        EdgeCalibration::typical(),
        &edges,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn line_distance_is_index_difference(n in 2usize..12, a in 0usize..12, b in 0usize..12) {
        let a = a % n;
        let b = b % n;
        let map = CouplingMap::line(n);
        prop_assert_eq!(map.distance(a, b), a.abs_diff(b));
        let path = map.shortest_path(a, b);
        prop_assert_eq!(path.len(), a.abs_diff(b) + 1);
        prop_assert_eq!(path[0], a);
        prop_assert_eq!(*path.last().unwrap(), b);
    }

    #[test]
    fn shortest_paths_step_over_couplers(seed in 0usize..27, goal in 0usize..27) {
        let toronto = fake_toronto();
        let map = &toronto.coupling;
        let path = map.shortest_path(seed % 27, goal % 27);
        for w in path.windows(2) {
            prop_assert!(map.are_coupled(w[0], w[1]));
        }
        prop_assert_eq!(path.len(), map.distance(seed % 27, goal % 27) + 1);
    }

    #[test]
    fn triangle_inequality_holds(a in 0usize..27, b in 0usize..27, c in 0usize..27) {
        let toronto = fake_toronto();
        let d = |x: usize, y: usize| toronto.coupling.distance(x, y);
        prop_assert!(d(a, c) <= d(a, b) + d(b, c));
        prop_assert_eq!(d(a, b), d(b, a));
    }

    #[test]
    fn duration_is_monotone_in_gates(ops in 1usize..30) {
        // Appending gates never shortens the schedule.
        let cal = line_cal(4);
        let mut c = Circuit::new(4);
        let mut last = 0.0;
        for k in 0..ops {
            c.cx(k % 3, k % 3 + 1);
            let d = circuit_duration_ns(&c, &cal);
            prop_assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn job_time_linear_in_shots(shots in 1u32..10_000) {
        let cal = line_cal(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        let t1 = job_time(&c, &cal, shots).total_ns();
        let t2 = job_time(&c, &cal, 2 * shots).total_ns();
        let overhead = job_time(&c, &cal, 0).total_ns();
        prop_assert!((t2 - overhead - 2.0 * (t1 - overhead)).abs() < 1e-3);
    }

    #[test]
    fn layout_swaps_are_involutive(
        assignment in proptest::sample::subsequence((0usize..8).collect::<Vec<_>>(), 4),
        a in 0usize..8,
        b in 0usize..8,
    ) {
        let layout = Layout::from_assignment(assignment);
        let mut twice = layout.clone();
        twice.swap_physical(a, b);
        twice.swap_physical(a, b);
        prop_assert_eq!(twice.as_slice(), layout.as_slice());
    }

    #[test]
    fn every_paper_device_routes_every_pairing(a in 0usize..5, b in 0usize..5) {
        prop_assume!(a != b);
        for desc in all_paper_devices() {
            if a < desc.coupling.num_qubits() && b < desc.coupling.num_qubits() {
                let d = desc.coupling.distance(a, b);
                prop_assert!(d >= 1);
                prop_assert!(d < desc.coupling.num_qubits());
            }
        }
    }
}
