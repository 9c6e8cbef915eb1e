//! The paired-seed `study` binary: its pairing arithmetic, an end-to-end
//! run of a reduced table, one Table-1 cell against the direct `TaskBench`
//! call sequence it stands for, Fig. 2(c)'s bins against an exact oracle,
//! the `--section` names, and seed 1 of the whole table against the
//! committed `results/study.json`.

#[allow(dead_code)]
#[path = "../src/bin/study.rs"]
mod study;

use serde::Value;

use qoc_bench::suite::{pgp_config_for, TaskBench};
use qoc_core::engine::{train, PruningKind};
use qoc_data::tasks::Task;
use qoc_device::backend::Execution;
use study::{judge, settings, GradientBin, On, Outcome, Sections, Study, Trained};

#[test]
fn a_row_paired_with_itself_differs_by_exactly_zero() {
    let trained = |accuracy, inferences, curve| {
        Outcome::Trained(Trained {
            accuracy,
            inferences,
            curve,
        })
    };
    let finals = [0.61, 0.7, 0.55].map(|accuracy| trained(accuracy, 4440, None));
    let curves = [900, 1200].map(|n| trained(0.8, n, Some(vec![(300, 0.5), (n - 100, 0.8)])));
    let bins = [0.49, 0.07].map(|flip_rate| {
        let (count, mean_relative_error, mae) = (60, 2.5, 0.01);
        Outcome::Gradients(GradientBin {
            count,
            mean_relative_error,
            flip_rate,
            mae,
        })
    });
    for rows in [&finals[..], &curves, &bins] {
        let judged = judge(rows, rows);
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
    // Table 3's Adam are Table 1's Classical-Train, Fig. 2(b)'s QC-Train and
    // the 1024-shot row are Table 1's QC-Train, and Table 2's probabilistic
    // row and Fig. 7's base point are Table 1's PGP. That leaves Table 1's
    // three, the deterministic sampler, SGD, Momentum, nine Fig. 7 points
    // and three other shot budgets.
    assert_eq!(study.trainings_per_seed, 18);
    assert_eq!(study.rows.len(), table.len());
    assert!(study.rows.iter().all(|row| row.outcomes.len() == 2));
    let path = std::env::temp_dir().join(format!("qoc-study-{}.json", std::process::id()));
    study.write(&path).expect("write study JSON");
    let json: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);

    // MNIST-2 sits in Fig. 2(b), Tables 1–3, Fig. 7 and the shots section
    // (1 + 3 + 1 + 2 + 3 + 1 claims), every claim carries a verdict, and
    // every mean lies in its CI.
    let claims = json.get("claims").and_then(Value::as_array).unwrap();
    assert_eq!(claims.len(), 11);
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
    let mut config = bench.config(steps, seed);
    config.pruning = PruningKind::Probabilistic(pgp_config_for(task));
    let pgp = train(
        &bench.model,
        &bench.device,
        &bench.train_set,
        &bench.val_set,
        &config,
    );
    let direct = bench.validate(&bench.device, &pgp.params, 300, seed);

    let mut table = settings();
    table.retain(|row| row.section == "table1" && row.task == task && row.label == "QC-Train-PGP");
    table[0].steps = steps;
    let study = Study::new(&table, &[seed]);
    let Outcome::Trained(cell) = &study.rows[0].outcomes[0] else {
        panic!("a Table 1 cell is a training");
    };
    assert_eq!(cell.accuracy.to_bits(), direct.to_bits());
    assert_eq!(cell.inferences, pgp.total_inferences);
}

#[test]
fn exact_gradients_scored_against_themselves_read_zero_in_every_bin() {
    // Fig. 2(c)'s 1024-shot bins with the exact noiseless gradient as the
    // measured side: every bin is non-empty, nothing differs from the
    // oracle, and the bins hold each of the 12 points' gradients once.
    let mut table = settings();
    table.retain(|row| row.section == "fig2c" && row.label.starts_with("1024 shots"));
    for row in &mut table {
        (row.train_on, row.execution) = (On::Simulator, Execution::Exact);
    }
    let study = Study::new(&table, &[3]);
    let bins = study.rows.iter().map(|row| match &row.outcomes[0] {
        Outcome::Gradients(bin) => bin,
        Outcome::Trained(_) => panic!("{} trained", row.setting.label),
    });
    let mut count = 0;
    for bin in bins {
        let zeros = [bin.mean_relative_error, bin.flip_rate, bin.mae].map(f64::to_bits);
        assert!(bin.count > 0 && zeros == [0; 3], "{bin:?}");
        count += bin.count;
    }
    let params = TaskBench::new(Task::Mnist4, 3).model.num_params();
    assert_eq!(count, 12 * params);
}

#[test]
fn the_section_flag_takes_fig2c_and_shots() {
    let sections = |s: &str| s.parse().map(|Sections(names)| names);
    assert_eq!(sections("fig2c,shots"), Ok(vec!["fig2c", "shots"]));
    assert!(sections("fig2c,shot").is_err());
    for name in ["fig2c", "shots"] {
        assert!(settings().iter().any(|row| row.section == name), "{name}");
    }
}

#[test]
fn seed_one_of_the_table_is_the_committed_study_bit_for_bit() {
    // The committed study is the code's: every row's setting, and its
    // seed-1 outcome, as the JSON text the study writes (shortest
    // round-trip floats, so equal text is equal bits).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/study.json");
    let committed: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let seeds = committed.get("seeds").and_then(Value::as_array).unwrap();
    let at = seeds.iter().position(|s| s.as_u64() == Some(1)).unwrap();
    let rows = committed.get("rows").and_then(Value::as_array).unwrap();

    let table = settings();
    assert_eq!(rows.len(), table.len());
    let study = Study::new(&table, &[1]);
    for (committed, fresh) in rows.iter().zip(&study.rows) {
        let outcomes = committed.get("outcomes").and_then(Value::as_array).unwrap();
        let committed = (committed.get("setting").unwrap(), &outcomes[at]);
        let committed = serde_json::to_string(&committed).unwrap();
        let fresh = serde_json::to_string(&(&fresh.setting, &fresh.outcomes[0])).unwrap();
        assert_eq!(committed, fresh);
    }
}
