//! The paired-seed `study` binary: its pairing arithmetic, an end-to-end
//! run of a reduced table, and one Table-1 cell against the direct
//! `TaskBench` call sequence it stands for.

#[allow(dead_code)]
#[path = "../src/bin/study.rs"]
mod study;

use serde::Value;

use qoc_bench::suite::TaskBench;
use qoc_data::tasks::Task;
use study::{judge, settings, Outcome, Study};

#[test]
fn a_row_paired_with_itself_differs_by_exactly_zero() {
    let finals: Vec<Outcome> = [0.61, 0.7, 0.55]
        .map(|accuracy| Outcome {
            accuracy,
            inferences: 4440,
            curve: None,
        })
        .to_vec();
    let curves: Vec<Outcome> = [900, 1200]
        .map(|inferences| Outcome {
            accuracy: 0.8,
            inferences,
            curve: Some(vec![(300, 0.5), (inferences - 100, 0.8)]),
        })
        .to_vec();
    for rows in [finals, curves] {
        let judged = judge(&rows, &rows);
        assert!(judged.differences.iter().all(|d| d.to_bits() == 0));
        assert_eq!(judged.mean.to_bits(), 0);
        assert_eq!(judged.ci.map(f64::to_bits), [0, 0]);
        assert_eq!(judged.verdict, "inconclusive");
    }
}

#[test]
fn a_two_step_two_seed_mnist2_table_runs_end_to_end() {
    let mut table = settings();
    table.retain(|row| row.task == Task::Mnist2);
    table.iter_mut().for_each(|row| row.steps = 2);
    let study = Study::new(&table, &[1, 2]);

    // At one step budget the sections share more runs: Fig. 2(b)'s and
    // Table 3's Adam are Table 1's Classical-Train, Fig. 2(b)'s QC-Train is
    // Table 1's, and Table 2's probabilistic row and Fig. 7's base point are
    // Table 1's PGP. That leaves Table 1's three, the deterministic sampler,
    // SGD, Momentum and nine Fig. 7 points.
    assert_eq!(study.trainings_per_seed, 15);
    assert_eq!(study.rows.len(), table.len());
    assert!(study.rows.iter().all(|row| row.outcomes.len() == 2));
    let path = std::env::temp_dir().join(format!("qoc-study-{}.json", std::process::id()));
    study.write(&path).expect("write study JSON");
    let json: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);

    // MNIST-2 sits in Fig. 2(b), Tables 1–3 and Fig. 7 (1 + 3 + 1 + 2 + 3
    // claims), every claim carries a verdict, and every mean lies in its CI.
    let claims = json.get("claims").and_then(Value::as_array).unwrap();
    assert_eq!(claims.len(), 10);
    for claim in claims {
        let judged = claim.get("judged").unwrap();
        let verdict = judged.get("verdict").and_then(Value::as_str).unwrap();
        assert!(["reproduced", "not reproduced", "inconclusive"].contains(&verdict));
    }
    for claim in &study.claims {
        let ([lo, hi], mean) = (claim.judged.ci, claim.judged.mean);
        assert!(lo <= mean && mean <= hi, "{claim:?}");
    }
}

#[test]
fn a_table1_cell_is_the_direct_call_sequence_bit_for_bit() {
    let (task, steps, seed) = (Task::Mnist2, 2, 5);
    let bench = TaskBench::new(task, seed);
    let pgp = bench.train_qc_pgp(steps, seed);
    let direct = bench.validate(&bench.device, &pgp.params, 300, seed);

    let mut table = settings();
    table.retain(|row| row.section == "table1" && row.task == task && row.label == "QC-Train-PGP");
    table[0].steps = steps;
    let study = Study::new(&table, &[seed]);
    let cell = &study.rows[0].outcomes[0];
    assert_eq!(cell.accuracy.to_bits(), direct.to_bits());
    assert_eq!(cell.inferences, pgp.total_inferences);
}
