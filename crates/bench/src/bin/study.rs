//! The paper's measured claims as one paired-seed study: Fig. 2(b) (the
//! noise gap), Fig. 2(c) (small gradients flip sign on the device), Table 1
//! (PGP vs QC-Train vs Classical), Table 2 (probabilistic vs deterministic
//! pruning), Table 3 (optimizers), Fig. 6 (accuracy vs #inferences), Fig. 7
//! (the r / w_a / w_p ablation), and accuracy vs the shot budget.
//!
//! Every section is rows of one settings table ([`settings`]): a task, the
//! backend it runs on, its `TrainConfig` delta, and what gets scored
//! where. Each row runs over a set of seeds. Within a seed every row of a
//! task shares `TaskBench::new(task, seed)`'s data, `config.seed`'s
//! initialisation, the validation draw and Fig. 2(c)'s parameter points, so
//! two rows' scores pair; each distinct (task, backend, `TrainConfig`)
//! trains once and each distinct (task, backend, execution) measures its
//! gradients once, so Fig. 6 reads Table 1's runs, Fig. 7's three sweeps
//! share their base point and Fig. 2(c)'s bins share one measurement per
//! shot budget. Each claim ([`CLAIMS`]) is judged by [`judge`].
//!
//! Usage: `cargo run --release -p qoc-bench --bin study -- [--seeds N|A..=B]
//! [--steps N] [--section table1,fig2c,…]` (default seeds `1..=10`, each
//! row's own step budget, every section). Writes `results/study.json` and
//! prints the claims as markdown.

use std::num::NonZeroUsize;
use std::path::Path;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use qoc_bench::suite::{pgp_config_for, TaskBench};
use qoc_core::engine::{train, PruningKind, TrainConfig, TrainResult};
use qoc_core::grad::QnnGradientComputer;
use qoc_core::optim::OptimizerKind;
use qoc_core::prune::PruneConfig;
use qoc_data::tasks::{Task, ALL_TASKS};
use qoc_device::backend::{Execution, QuantumBackend, PAPER_SHOTS};

/// The sections the study reproduces: the paper's, then the shot budget.
const SECTIONS: [&str; 8] = [
    "fig2b", "fig2c", "table1", "table2", "table3", "fig6", "fig7", "shots",
];
/// Fig. 2(c)'s exact-|gradient| bins: bin `i` is `EDGES[i]..EDGES[i + 1]`.
const EDGES: [f64; 7] = [0.0, 0.005, 0.01, 0.02, 0.04, 0.08, f64::INFINITY];
/// Fig. 2(c)'s random parameter points per seed, one training example each.
const POINTS: usize = 12;
/// Bootstrap resamples per claim, all drawn from [`BOOTSTRAP_SEED`] so the
/// JSON is deterministic.
const RESAMPLES: usize = 10_000;
const BOOTSTRAP_SEED: u64 = 2022;

/// `--section`: comma-separated names from [`SECTIONS`].
pub struct Sections(pub Vec<&'static str>);

impl FromStr for Sections {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let known = |name| SECTIONS.into_iter().find(|&sec| sec == name);
        let names = s.split(',').map(|name| known(name).ok_or(name));
        let names: Result<_, _> = names.collect();
        names
            .map(Sections)
            .map_err(|name| format!("no section {name:?} in {SECTIONS:?}"))
    }
}

/// `--seeds`: `N` is `1..=N`, `A..=B` is itself.
struct Seeds(Vec<u64>);

impl FromStr for Seeds {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (a, b) = s.split_once("..=").unwrap_or(("1", s));
        let seed = |n: &str| n.parse::<u64>().map_err(|e| e.to_string());
        let seeds: Vec<u64> = (seed(a)?..=seed(b)?).collect();
        if seeds.is_empty() {
            return Err("no seed in the range".into());
        }
        Ok(Seeds(seeds))
    }
}

/// Where a row trains or measures gradients, or where its parameters are
/// validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum On {
    Simulator,
    /// The task's fake device.
    Device,
}

impl On {
    fn backend(self, bench: &TaskBench) -> &dyn QuantumBackend {
        match self {
            On::Simulator => &bench.simulator,
            On::Device => &bench.device,
        }
    }
}

/// What a row reports per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Score {
    /// The final parameters' accuracy on a validation draw of `examples`.
    Final { on: On, examples: usize },
    /// The accuracy-vs-inferences curve of the run's own checkpoints, or,
    /// with `revalidate`, of each checkpoint's parameters validated on a
    /// backend over a draw of that many examples.
    Curve { revalidate: Option<(On, usize)> },
    /// The seed's [`POINTS`] gradients measured on the row's backend at its
    /// execution against the exact noiseless ones: those whose exact
    /// magnitude lies in bin `bin` of [`EDGES`]. The row trains nothing.
    Gradients { bin: usize },
}

/// One row of the settings table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Setting {
    /// One of [`SECTIONS`].
    pub section: &'static str,
    pub task: Task,
    /// The row's name within its section and task.
    pub label: String,
    pub train_on: On,
    /// The step budget passed to [`TaskBench::config`].
    pub steps: usize,
    pub pruning: PruningKind,
    pub optimizer: OptimizerKind,
    /// How the row's circuits are read out, in training or in a
    /// [`Score::Gradients`] measurement.
    pub execution: Execution,
    pub score: Score,
}

impl Setting {
    /// A row of `steps` steps under Adam without pruning at the paper's
    /// 1024 shots, scored on `train_on` over 300 examples.
    fn new(section: &'static str, task: Task, label: &str, train_on: On, steps: usize) -> Self {
        Setting {
            section,
            task,
            label: label.to_string(),
            train_on,
            steps,
            pruning: PruningKind::None,
            optimizer: OptimizerKind::Adam,
            execution: Execution::Shots(PAPER_SHOTS),
            score: Score::Final {
                on: train_on,
                examples: 300,
            },
        }
    }
}

/// The study's experiments as data, in [`SECTIONS`] order.
pub fn settings() -> Vec<Setting> {
    use On::{Device, Simulator};
    let row = Setting::new;
    let mut rows = Vec::new();
    let pgp = |task| PruningKind::Probabilistic(pgp_config_for(task));
    let on_device = |examples| Score::Final {
        on: Device,
        examples,
    };

    for task in [Task::Mnist2, Task::Fashion2, Task::Mnist4, Task::Fashion4] {
        rows.push(row("fig2b", task, "Classical (Simu)", Simulator, 25));
        rows.push(row("fig2b", task, "QC-Train", Device, 25));
    }
    let shot_budgets = [128, 512, PAPER_SHOTS, 4096];
    for shots in shot_budgets {
        for bin in 0..EDGES.len() - 1 {
            let label = format!("{shots} shots, [{}, {})", EDGES[bin], EDGES[bin + 1]);
            rows.push(Setting {
                execution: Execution::Shots(shots),
                score: Score::Gradients { bin },
                ..row("fig2c", Task::Mnist4, &label, Device, 0)
            });
        }
    }
    for &task in ALL_TASKS {
        rows.push(row("table1", task, "Classical (Simu)", Simulator, 30));
        rows.push(Setting {
            score: on_device(300),
            ..row("table1", task, "Classical (QC)", Simulator, 30)
        });
        rows.push(row("table1", task, "QC-Train", Device, 30));
        rows.push(Setting {
            pruning: pgp(task),
            ..row("table1", task, "QC-Train-PGP", Device, 30)
        });
    }
    let image_tasks = [Task::Mnist4, Task::Mnist2, Task::Fashion4, Task::Fashion2];
    for task in image_tasks {
        let cfg = pgp_config_for(task);
        for (label, pruning) in [
            ("deterministic", PruningKind::Deterministic(cfg)),
            ("probabilistic", PruningKind::Probabilistic(cfg)),
        ] {
            rows.push(Setting {
                pruning,
                score: on_device(200),
                ..row("table2", task, label, Device, 25)
            });
        }
    }
    for task in image_tasks {
        for (label, optimizer) in [
            ("SGD", OptimizerKind::Sgd),
            ("Momentum", OptimizerKind::Momentum { beta: 0.8 }),
            ("Adam", OptimizerKind::Adam),
        ] {
            rows.push(Setting {
                optimizer,
                ..row("table3", task, label, Simulator, 40)
            });
        }
    }
    // Table 1's runs as curves; Classical-Train's checkpoints are scored on
    // the device, as in the paper.
    for task in [Task::Mnist4, Task::Fashion2, Task::Fashion4, Task::Vowel4] {
        let curve = |revalidate| Score::Curve { revalidate };
        rows.push(Setting {
            score: curve(Some((Device, 100))),
            ..row("fig6", task, "Classical-Train (on QC)", Simulator, 30)
        });
        rows.push(Setting {
            score: curve(None),
            ..row("fig6", task, "QC-Train", Device, 30)
        });
        rows.push(Setting {
            pruning: pgp(task),
            score: curve(None),
            ..row("fig6", task, "QC-Train-PGP", Device, 30)
        });
    }
    // One-at-a-time sweeps around (r, w_a, w_p) = (0.5, 1, 2).
    let base = PruneConfig {
        accumulation_window: 1,
        pruning_window: 2,
        ratio: 0.5,
    };
    let mut sweeps = Vec::new();
    for ratio in [0.3, 0.5, 0.7, 0.85] {
        sweeps.push((format!("r={ratio}"), PruneConfig { ratio, ..base }));
    }
    for w in [1, 2, 4, 8] {
        let cfg = PruneConfig {
            accumulation_window: w,
            ..base
        };
        sweeps.push((format!("w_a={w}"), cfg));
    }
    for w in [1, 2, 3, 5] {
        let cfg = PruneConfig {
            pruning_window: w,
            ..base
        };
        sweeps.push((format!("w_p={w}"), cfg));
    }
    for task in [Task::Fashion4, Task::Mnist2] {
        for (label, cfg) in &sweeps {
            rows.push(Setting {
                pruning: PruningKind::Probabilistic(*cfg),
                score: on_device(150),
                ..row("fig7", task, label, Device, 24)
            });
        }
    }
    for shots in shot_budgets {
        rows.push(Setting {
            execution: Execution::Shots(shots),
            score: on_device(150),
            ..row("shots", Task::Mnist2, &format!("{shots} shots"), Device, 20)
        });
    }
    rows
}

/// The claims: in a section, row `.1` beats row `.2` on every task that has
/// both (for Fig. 2(c), flips more often).
const CLAIMS: &[(&str, &str, &str)] = &[
    ("fig2b", "Classical (Simu)", "QC-Train"),
    ("fig2c", "1024 shots, [0, 0.005)", "1024 shots, [0.08, inf)"),
    ("table1", "QC-Train-PGP", "QC-Train"),
    ("table1", "QC-Train-PGP", "Classical (QC)"),
    ("table1", "Classical (Simu)", "QC-Train-PGP"),
    ("table2", "probabilistic", "deterministic"),
    ("table3", "Adam", "Momentum"),
    ("table3", "Momentum", "SGD"),
    ("fig6", "QC-Train-PGP", "QC-Train"),
    ("fig6", "QC-Train-PGP", "Classical-Train (on QC)"),
    ("fig7", "r=0.5", "r=0.85"),
    ("fig7", "w_a=1", "w_a=8"),
    ("fig7", "w_p=2", "w_p=5"),
    ("shots", "1024 shots", "128 shots"),
];

/// What one row measured at one seed: a training's score, or a Fig. 2(c)
/// bin. Serialized as the inner struct alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Trained(Trained),
    Gradients(GradientBin),
}

impl Serialize for Outcome {
    fn to_json(&self) -> serde::Value {
        match self {
            Outcome::Trained(trained) => trained.to_json(),
            Outcome::Gradients(bin) => bin.to_json(),
        }
    }
}

/// A training row's score at one seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trained {
    /// The validated accuracy ([`Score::Final`]), or the curve's best.
    pub accuracy: f64,
    /// The training run's circuit executions, checkpoints included.
    pub inferences: u64,
    /// `(inferences, accuracy)` checkpoints ([`Score::Curve`] only).
    pub curve: Option<Vec<(u64, f64)>>,
}

/// The best accuracy of `(inferences, accuracy)` points taken within
/// `budget` inferences (0 for none).
fn best(points: &[(u64, f64)], budget: u64) -> f64 {
    let within = points.iter().filter(|(x, _)| *x <= budget);
    within.fold(0.0, |best, &(_, y)| f64::max(best, y))
}

impl Trained {
    fn of(score: Score, bench: &TaskBench, result: &TrainResult, seed: u64) -> Self {
        let validate =
            |on: On, params, examples| bench.validate(on.backend(bench), params, examples, seed);
        let (accuracy, curve) = match score {
            Score::Final { on, examples } => (validate(on, &result.params, examples), None),
            Score::Curve { revalidate } => {
                let checkpoints = result.evals.iter().zip(&result.checkpoint_params);
                let curve: Vec<(u64, f64)> = checkpoints
                    .map(|(e, params)| match revalidate {
                        None => (e.inferences, e.accuracy),
                        Some((on, examples)) => (e.inferences, validate(on, params, examples)),
                    })
                    .collect();
                (best(&curve, u64::MAX), Some(curve))
            }
            Score::Gradients { .. } => unreachable!("a gradient row trains nothing"),
        };
        Trained {
            accuracy,
            inferences: result.total_inferences,
            curve,
        }
    }
}

/// The gradients at the seed's [`POINTS`] parameter points, each drawn
/// uniformly from `[-1, 1)` by one generator seeded with `seed`, point `s`
/// on training example `s` with master seed `s`, measured on `on` at
/// `execution`.
fn gradients(bench: &TaskBench, on: On, execution: Execution, seed: u64) -> Vec<Vec<f64>> {
    let computer = QnnGradientComputer::new(&bench.model, on.backend(bench), execution);
    let mut rng = StdRng::seed_from_u64(seed);
    let gradient = |s: usize| {
        let params: Vec<_> = (0..bench.model.num_params())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let batch = [bench.train_set.example(s % bench.train_set.len())];
        computer
            .batch_gradient(&params, &batch, None, s as u64)
            .grad
    };
    (0..POINTS).map(gradient).collect()
}

/// One Fig. 2(c) bin at one seed: the measured gradients whose exact
/// magnitude lies in the bin, against the exact ones. The means are NaN
/// (`null` in the JSON) for an empty bin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GradientBin {
    pub count: usize,
    /// Mean of `|measured − exact| / max(|exact|, 1e-6)`.
    pub mean_relative_error: f64,
    /// The share whose measured sign differs from the exact one.
    pub flip_rate: f64,
    /// Mean of `|measured − exact|`.
    pub mae: f64,
}

impl GradientBin {
    /// Bin `bin` of [`EDGES`] over paired `exact` and `measured` gradients.
    fn of(exact: &[Vec<f64>], measured: &[Vec<f64>], bin: usize) -> Self {
        let pairs = exact.iter().flatten().zip(measured.iter().flatten());
        let within = |(e, _): &(&f64, &f64)| (EDGES[bin]..EDGES[bin + 1]).contains(&e.abs());
        let pairs: Vec<(f64, f64)> = pairs.filter(within).map(|(e, m)| (*e, *m)).collect();
        let n = pairs.len() as f64;
        let mean = |f: fn(f64, f64) -> f64| pairs.iter().map(|&(e, m)| f(e, m)).sum::<f64>() / n;
        GradientBin {
            count: pairs.len(),
            mean_relative_error: mean(|e, m| (m - e).abs() / e.abs().max(1e-6)),
            flip_rate: mean(|e, m| f64::from(u8::from(e.signum() != m.signum()))),
            mae: mean(|e, m| (m - e).abs()),
        }
    }
}

/// One claim judged over the seeds.
#[derive(Debug, Serialize)]
pub struct Judged {
    /// Row `a`'s value per seed (at Fig. 6's matched budget for curves, the
    /// flip rate for Fig. 2(c)'s bins).
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    /// `a − b` per seed, their mean, and the mean's 95% bootstrap CI.
    pub differences: Vec<f64>,
    pub mean: f64,
    pub ci: [f64; 2],
    /// `reproduced` (CI above 0), `not reproduced` (below 0) or
    /// `inconclusive` (the CI holds 0, or fewer than two seeds ran).
    pub verdict: &'static str,
}

/// Judges "`a` beats `b`" from the two rows' outcomes at the same seeds.
/// Curves compare their best accuracy within the smaller of the two runs'
/// inferences (Fig. 6's matched budget); final scores compare directly, and
/// gradient bins compare their flip rates.
///
/// # Panics
///
/// Panics when the rows ran different seeds or score different things.
pub fn judge(a: &[Outcome], b: &[Outcome]) -> Judged {
    use Outcome::{Gradients, Trained};
    assert_eq!(a.len(), b.len(), "paired rows ran different seeds");
    let pair = |xy: (&Outcome, &Outcome)| match xy {
        (Trained(x), Trained(y)) => match (&x.curve, &y.curve) {
            (Some(cx), Some(cy)) => {
                let budget = x.inferences.min(y.inferences);
                (best(cx, budget), best(cy, budget))
            }
            (None, None) => (x.accuracy, y.accuracy),
            _ => panic!("a claim pairs a curve with a final score"),
        },
        (Gradients(x), Gradients(y)) => (x.flip_rate, y.flip_rate),
        _ => panic!("a claim pairs a gradient bin with a training"),
    };
    let (a, b): (Vec<f64>, Vec<f64>) = a.iter().zip(b).map(pair).unzip();
    let differences: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
    let n = differences.len();
    let mean = |d: &mut dyn Iterator<Item = f64>| d.sum::<f64>() / n as f64;
    let mut rng = StdRng::seed_from_u64(BOOTSTRAP_SEED);
    let mut means: Vec<f64> = (0..RESAMPLES)
        .map(|_| mean(&mut (0..n).map(|_| differences[rng.gen_range(0..n)])))
        .collect();
    means.sort_by(f64::total_cmp);
    let at = |q: f64| means[(q * (RESAMPLES - 1) as f64).round() as usize];
    let ci = [at(0.025), at(0.975)];
    let verdict = match (n < 2, ci[0] > 0.0, ci[1] < 0.0) {
        (false, true, _) => "reproduced",
        (false, _, true) => "not reproduced",
        _ => "inconclusive",
    };
    Judged {
        mean: mean(&mut differences.iter().copied()),
        a,
        b,
        differences,
        ci,
        verdict,
    }
}

/// A setting and its outcome per seed.
#[derive(Debug, Serialize)]
pub struct Row {
    pub setting: Setting,
    pub outcomes: Vec<Outcome>,
}

/// A paper claim on one task, judged.
#[derive(Debug, Serialize)]
pub struct Claim {
    pub section: &'static str,
    pub task: Task,
    pub claim: String,
    pub judged: Judged,
}

/// The whole of `study.json`.
#[derive(Debug, Serialize)]
pub struct Study {
    pub seeds: Vec<u64>,
    pub trainings_per_seed: usize,
    pub rows: Vec<Row>,
    pub claims: Vec<Claim>,
}

impl Study {
    /// Runs `table` over `seeds` and judges every claim both rows of which
    /// are in the table. A row's gradients draw only from generators of
    /// their own ([`gradients`]), so adding one leaves every training row's
    /// outcome as it was.
    pub fn new(table: &[Setting], seeds: &[u64]) -> Self {
        let mut outcomes = vec![Vec::new(); table.len()];
        let mut tasks: Vec<Task> = table.iter().map(|row| row.task).collect();
        tasks.sort_by_key(|t| ALL_TASKS.iter().position(|a| a == t));
        tasks.dedup();
        let mut trainings_per_seed = 0;
        for &seed in seeds {
            trainings_per_seed = 0;
            for &task in &tasks {
                let bench = TaskBench::new(task, seed);
                let mut runs: Vec<(On, TrainConfig, TrainResult)> = Vec::new();
                let mut measured: Vec<(On, Execution, Vec<Vec<f64>>)> = Vec::new();
                let mut measure = |on, execution| {
                    let same = |(o, e, _): &(On, Execution, _)| (*o, *e) == (on, execution);
                    let i = measured.iter().position(same).unwrap_or_else(|| {
                        eprintln!("[study] seed {seed} {task}: {on:?} gradients, {execution:?}");
                        measured.push((on, execution, gradients(&bench, on, execution, seed)));
                        measured.len() - 1
                    });
                    measured[i].2.clone()
                };
                for (row, out) in table.iter().zip(&mut outcomes) {
                    if row.task != task {
                        continue;
                    }
                    if let Score::Gradients { bin } = row.score {
                        let exact = measure(On::Simulator, Execution::Exact);
                        let noisy = measure(row.train_on, row.execution);
                        out.push(Outcome::Gradients(GradientBin::of(&exact, &noisy, bin)));
                        continue;
                    }
                    let mut config = bench.config(row.steps, seed);
                    config.pruning = row.pruning;
                    config.optimizer = row.optimizer;
                    config.execution = row.execution;
                    let same =
                        |(on, c, _): &(On, TrainConfig, _)| *on == row.train_on && *c == config;
                    let i = runs.iter().position(same).unwrap_or_else(|| {
                        eprintln!(
                            "[study] seed {seed} {task}: {} / {}",
                            row.section, row.label
                        );
                        let backend = row.train_on.backend(&bench);
                        let (train_set, val_set) = (&bench.train_set, &bench.val_set);
                        let result = train(&bench.model, backend, train_set, val_set, &config);
                        runs.push((row.train_on, config, result));
                        runs.len() - 1
                    });
                    let trained = Trained::of(row.score, &bench, &runs[i].2, seed);
                    out.push(Outcome::Trained(trained));
                }
                trainings_per_seed += runs.len();
            }
        }
        let find = |section, task, label| {
            let same = |r: &Setting| r.section == section && r.task == task && r.label == label;
            table.iter().position(same)
        };
        let mut claims = Vec::new();
        for &(section, a, b) in CLAIMS {
            for &task in ALL_TASKS {
                if let (Some(i), Some(j)) = (find(section, task, a), find(section, task, b)) {
                    claims.push(Claim {
                        section,
                        task,
                        claim: format!("{a} > {b}"),
                        judged: judge(&outcomes[i], &outcomes[j]),
                    });
                }
            }
        }
        let rows = table.iter().cloned().zip(outcomes);
        Study {
            seeds: seeds.to_vec(),
            trainings_per_seed,
            rows: rows
                .map(|(setting, outcomes)| Row { setting, outcomes })
                .collect(),
            claims,
        }
    }

    /// Writes the study as pretty JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(path, body + "\n")
    }
}

fn main() {
    qoc_bench::init();
    let flags = qoc_bench::flags(&["--seeds", "--steps", "--section"]);
    let Seeds(seeds) = flags.get("--seeds").unwrap_or(Seeds((1..=10).collect()));
    let Sections(sections) = flags
        .get("--section")
        .unwrap_or(Sections(SECTIONS.to_vec()));
    let mut table = settings();
    table.retain(|row| sections.contains(&row.section));
    if let Some(steps) = flags.get::<NonZeroUsize>("--steps") {
        table.iter_mut().for_each(|row| row.steps = steps.get());
    }
    let study = Study::new(&table, &seeds);
    println!(
        "Seeds {seeds:?}, {} trainings per seed.\n",
        study.trainings_per_seed
    );
    println!("| section | task | claim | mean Δ | 95% CI | verdict |\n|---|---|---|---:|---|---|");
    for Claim {
        section,
        task,
        claim,
        judged: j,
    } in &study.claims
    {
        let ([lo, hi], task) = (j.ci, task.name());
        println!(
            "| {section} | {task} | {claim} | {:+.3} | [{lo:+.3}, {hi:+.3}] | {} |",
            j.mean, j.verdict
        );
    }
    let path = Path::new("results/study.json");
    if let Err(e) = study.write(path) {
        eprintln!("study: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}
