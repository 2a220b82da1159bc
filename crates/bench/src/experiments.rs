//! The paper's evaluation as one table (§5 + Appendix C: 18 figures and
//! tables, plus three claims it states without plotting).
//!
//! An [`Experiment`] is an id (also its `results/<id>.json`), the paper
//! result and setting it reproduces, its typed rows, how to run them, and
//! the qualitative shapes the paper claims of them — each [`Check`] marked
//! `holds` or open. [`table`] lists them all, type erased; the `experiments`
//! binary, tier-1 and EXPERIMENTS.md read nothing else (rows print through
//! [`crate::report::tables`], by the shape of what was persisted). Seeds, budgets and thresholds are the data of this module: a
//! check that fails is a finding to record, not a number to retune.

use crate::harness::{
    bar, baselines, cross_vs_native, iterations, sweep_field, sweep_point, tuner_bars, Bar,
    CrossPlan, DqnTuner, Lab, Setting, Shipped,
};
use crate::report::fmt;
use baselines::ottertune::ranking::rank_knobs_by_correlation;
use baselines::{ConfigTuner, DbaTuner, Evaluation, OtterTune, RandomSearch, Regressor};
use cdbtune::jsonio::Json;
use cdbtune::persist::{Persist, PersistError};
use cdbtune::{
    persist_struct, ActionSpace, MemoryKind, PhaseTiming, RewardConfig, RewardKind, Telemetry,
    TraceEvent, TraceLevel, TrainerConfig, TunerBudget,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rl::Transition;
use simdb::knobs::mysql::names;
use simdb::knobs::versions::{registry_for_version, CDB_VERSION_KNOB_COUNTS};
use simdb::{EngineFlavor::*, HardwareConfig as Hw, MediaType};
use workload::WorkloadKind::*;

/// `Ok` when the shape holds, otherwise why it does not.
pub type Shape = Result<(), String>;

/// One qualitative claim of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Short name (the PASS/FAIL line's key).
    pub name: &'static str,
    /// The claim, in words.
    pub text: &'static str,
    /// Whether the committed `results/` satisfy it. `false` marks a known,
    /// open deviation; tier-1 fails when the mark and the verdict disagree.
    pub holds: bool,
}

/// A claim with its test over an experiment's rows. Empty or truncated rows
/// fail with a reason.
pub struct Check<R: 'static>(Claim, fn(&R) -> Shape);

const fn check<R>(
    name: &'static str,
    text: &'static str,
    holds: bool,
    test: fn(&R) -> Shape,
) -> Check<R> {
    Check(Claim { name, text, holds }, test)
}

/// One entry of the evaluation, implemented by its typed rows (persisted as
/// `results/<ID>.json`).
pub trait Experiment: Persist + Default + 'static {
    /// Identifier and result-file stem.
    const ID: &'static str;
    /// The paper result reproduced and its setting.
    const PAPER: &'static str;
    /// Base seed, and the offline-training episodes at the standard scale
    /// (`None`: the scale's own).
    const LAB: (u64, Option<usize>);
    /// The shapes the paper claims.
    const CHECKS: &'static [Check<Self>];
    /// Produces the rows.
    fn run(lab: &Lab) -> Self;
}

/// An experiment's rows as persisted, and one verdict per check.
pub type Outcome = (Json, Vec<(Claim, Shape)>);

/// A type-erased [`Experiment`].
pub struct Entry {
    /// [`Experiment::ID`].
    pub id: &'static str,
    /// [`Experiment::PAPER`].
    pub paper: &'static str,
    /// Runs the experiment at the scale `CDBTUNE_QUICK` selects.
    pub run: fn() -> Outcome,
    /// Decodes persisted rows instead of running (`Null`: empty rows, what
    /// a missing file stands for).
    pub load: fn(&Json) -> Result<Outcome, PersistError>,
}

fn outcome<E: Experiment>(rows: E) -> Outcome {
    (rows.encode(), E::CHECKS.iter().map(|c| (c.0, (c.1)(&rows))).collect())
}

fn entry<E: Experiment>() -> Entry {
    Entry {
        id: E::ID,
        paper: E::PAPER,
        run: || outcome::<E>(E::run(&Lab::new(E::LAB.0, E::LAB.1))),
        load: |json| match json {
            Json::Null => Ok(outcome::<E>(E::default())),
            json => E::decode(json).map(outcome::<E>),
        },
    }
}

/// A row struct with its [`Persist`] impl (an object keyed by field name).
macro_rules! row {
    ($row:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        #[derive(Default)]
        struct $row {
            $($field: $ty),+
        }
        persist_struct!($row { $($field),+ });
    };
}

/// Every experiment, in the paper's order.
pub fn table() -> Vec<Entry> {
    vec![
        entry::<Vec<SampleSeries>>(),
        entry::<Vec<(f32, usize)>>(),
        entry::<Surface>(),
        entry::<Efficiency>(),
        entry::<Vec<StepSeries>>(),
        entry::<Vec<Fig06Row>>(),
        entry::<Vec<Fig07Row>>(),
        entry::<Vec<Fig08Row>>(),
        entry::<(Vec<WorkloadBars>, Vec<Table3Row>)>(),
        entry::<Vec<MemoryRow>>(),
        entry::<Vec<DiskRow>>(),
        entry::<Bars>(),
        entry::<Vec<RewardRow>>(),
        entry::<Vec<CoefficientRow>>(),
        entry::<Vec<NetworkRow>>(),
        entry::<Vec<EngineBars>>(),
        entry::<Vec<ReplayRow>>(),
        entry::<Vec<DqnRow>>(),
        entry::<Vec<MediaRow>>(),
    ]
}

// ---- shape-test vocabulary: absent data is a reason, never a panic ----

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Shape {
    ok.then_some(()).ok_or_else(why)
}

/// First and last row.
fn ends<T>(rows: &[T]) -> Result<(&T, &T), String> {
    rows.first().zip(rows.last()).ok_or_else(|| "no rows".to_string())
}

/// `test` on every row, of which there must be at least one.
fn each<T>(rows: &[T], test: impl Fn(&T) -> Shape) -> Shape {
    ensure(!rows.is_empty(), || "no rows".into())?;
    rows.iter().try_for_each(test)
}

/// Throughput of the bar named `system`.
fn tps(bars: &[Bar], system: &str) -> Result<f64, String> {
    let bar = bars.iter().find(|b| b.0 == system).ok_or_else(|| format!("no `{system}` bar"))?;
    Ok(bar.1)
}

/// `a ≥ factor · b`, spelled out on failure.
fn at_least(what: &str, a: f64, factor: f64, b: f64) -> Shape {
    ensure(a >= b * factor, || format!("{what}: {} < {factor} × {}", fmt(a), fmt(b)))
}

/// `a > b`, spelled out on failure.
fn above(what: &str, a: f64, b: f64) -> Shape {
    ensure(a > b, || format!("{what}: {} ≤ {}", fmt(a), fmt(b)))
}

fn peak(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::MIN, f64::max)
}

/// Sysbench RW on CDB-A over the DBA's top 40 knobs.
fn cdb_a_rw_40() -> Setting {
    Setting::new(MySqlCdb, Hw::cdb_a(), SysbenchRw, Some(40))
}

/// Best throughput so far (and the p99 beside it) at each mark of a tuning
/// history.
fn best_so_far(history: &[Evaluation], marks: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let (mut tps, mut p99, mut cursor) = (0.0, f64::MAX, 0);
    let at_mark = |&m: &usize| {
        for e in &history[cursor..m.min(history.len()).max(cursor)] {
            if !e.crashed && e.throughput > tps {
                (tps, p99) = (e.throughput, e.p99_latency_us / 1000.0);
            }
        }
        cursor = m.min(history.len()).max(cursor);
        (tps, p99)
    };
    marks.iter().map(at_mark).unzip()
}

// ---- Figure 1: the motivation ----

row!(SampleSeries { workload: String, samples: Vec<usize>, ottertune: Vec<f64>,
    ottertune_dl: Vec<f64>, mysql_default: f64, dba: f64 });

impl Experiment for Vec<SampleSeries> {
    const ID: &'static str = "fig01_ottertune_samples";
    const PAPER: &'static str = "Fig 1(a)(b) — OtterTune and OtterTune+DL throughput vs training \
        samples, against the MySQL-default and DBA lines; TPC-H and Sysbench RW on CDB-A, \
        30 knobs, samples 2k→12k scaled to 6→48";
    const LAB: (u64, Option<usize>) = (1, None);
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig01 OtterTune plateau",
        "mid-curve OtterTune ≤ DBA and > default on both workloads",
        true,
        |rows| {
            each(rows, |s| {
                let mid = *s.ottertune.get(s.ottertune.len() / 2).ok_or("empty series")?;
                ensure(mid <= s.dba * 1.02, || format!("{}: {mid:.1} above DBA", s.workload))?;
                above(&s.workload, mid, s.mysql_default)
            })
        },
    )];

    fn run(lab: &Lab) -> Self {
        let budget = 48;
        let marks: Vec<usize> = (1..=8).map(|i| i * budget / 8).collect();
        let series = |kind| {
            let s = Setting::new(MySqlCdb, Hw::cdb_a(), kind, Some(30));
            let rng = &mut StdRng::seed_from_u64(lab.seed);
            let mysql_default = bar(&mut lab.env(&s), &mut Shipped::MySqlDefault, rng).1;
            let dba = bar(&mut lab.env(&s), &mut DbaTuner::default(), rng).1;
            let mut curve = |regressor| {
                let history = OtterTune::new(regressor).tune(&mut lab.env(&s), budget, rng).history;
                best_so_far(&history, &marks).0
            };
            SampleSeries {
                workload: format!("{kind:?}"),
                samples: marks.clone(),
                ottertune: curve(Regressor::GaussianProcess),
                ottertune_dl: curve(Regressor::DeepLearning),
                mysql_default,
                dba,
            }
        };
        [TpcH, SysbenchRw].map(series).into()
    }
}

impl Experiment for Vec<(f32, usize)> {
    const ID: &'static str = "fig01_knob_growth";
    const PAPER: &'static str = "Fig 1(c) — tunable-knob count across CDB versions; knob \
        registries v1.0→v7.0";
    const LAB: (u64, Option<usize>) = (0, None);
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig01 knob growth",
        "tunable knob count strictly increases across CDB versions",
        true,
        |rows| {
            ensure(rows.len() >= 2, || "fewer than two versions".into())?;
            ensure(rows.windows(2).all(|w| w[1].1 > w[0].1), || "a version lost knobs".into())
        },
    )];

    fn run(_: &Lab) -> Self {
        for &(version, count) in CDB_VERSION_KNOB_COUNTS {
            // Materialize the registry: the catalogue really has that many.
            assert_eq!(registry_for_version(&Hw::cdb_a(), version).len(), count);
        }
        CDB_VERSION_KNOB_COUNTS.to_vec()
    }
}

row!(Surface { knob_x: String, knob_y: String, x: Vec<f32>, y: Vec<f32>,
    throughput: Vec<Vec<f64>> });

impl Experiment for Surface {
    const ID: &'static str = "fig01_surface";
    const PAPER: &'static str = "Fig 1(d) — performance surface over buffer-pool size × \
        redo-log file size; Sysbench RW, 8 GB RAM / 100 GB disk, 9×9 grid";
    const LAB: (u64, Option<usize>) = (3, None);
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig01 surface",
        "no monotone direction; crash region present (§5.2.3)",
        true,
        |s| {
            let mid = s.throughput.get(s.throughput.len() / 2).ok_or("no grid")?;
            ensure(mid.len() >= 2, || "mid row has no direction".into())?;
            let rising = mid.windows(2).all(|w| w[1] >= w[0]);
            let falling = mid.windows(2).all(|w| w[1] <= w[0]);
            ensure(!rising && !falling, || "mid row is monotone".into())?;
            ensure(s.throughput.iter().flatten().any(|&t| t == 0.0), || "no crash region".into())
        },
    )];

    fn run(lab: &Lab) -> Self {
        let mut env = lab.env(&Setting::new(MySqlCdb, Hw::cdb_a(), SysbenchRw, Some(2)));
        let reg = std::sync::Arc::clone(env.engine().registry());
        let knobs = [names::BUFFER_POOL_SIZE, names::LOG_FILE_SIZE];
        env.set_space(ActionSpace::from_names(&reg, knobs).expect("both knobs exist"));
        let _ = env.reset_episode(reg.default_config());
        let axis: Vec<f32> = (0..9).map(|i| i as f32 / 8.0).collect();
        let mut cell = |x: f32, y: f32| {
            let out = env.step_action(&[x, y]);
            if out.crashed { 0.0 } else { out.perf.throughput_tps }
        };
        let throughput = axis.iter().map(|&y| axis.iter().map(|&x| cell(x, y)).collect()).collect();
        let [knob_x, knob_y] = knobs.map(String::from);
        Surface { knob_x, knob_y, x: axis.clone(), y: axis, throughput }
    }
}

// ---- Table 2 and Figure 5: efficiency ----

row!(Efficiency { steps: Vec<PhaseTiming>, budgets: Vec<(String, u32, f64, f64)> });

impl Experiment for Efficiency {
    const ID: &'static str = "table02_efficiency";
    const PAPER: &'static str = "Table 2 + §5.1.1 — per-step time breakdown (stress test \
        152.88 s, metrics 0.86 ms, model update 28.76 ms, recommendation 2.16 ms, deployment \
        16.68 s) and steps per request per tool; Sysbench RW on CDB-A, 266 knobs. The stress \
        test runs in simulated time; the `*_wall_us` fields are this host's clock";
    const LAB: (u64, Option<usize>) = (5, None);
    const CHECKS: &'static [Check<Self>] = &[];

    /// The step records of one 5-step training episode, every step acting
    /// from the policy and updating from a pool pre-filled to a minibatch.
    /// A step that crashed or could not be measured ran no stress window and
    /// is left out.
    fn run(lab: &Lab) -> Self {
        let mut env = lab.env(&Setting::new(MySqlCdb, Hw::cdb_a(), SysbenchRw, None));
        let telemetry = Telemetry::ring(64, TraceLevel::Step);
        env.set_telemetry(telemetry.clone());
        let cfg = TrainerConfig {
            episodes: 1,
            steps_per_episode: 5,
            random_warmup_steps: 0,
            ..lab.trainer_config()
        };
        let (states, dim) = (simdb::TOTAL_METRIC_COUNT, env.space().dim());
        let transition = |i: usize| Transition {
            state: vec![0.1 * (i as f32 % 7.0); states],
            action: vec![0.5; dim],
            reward: (i as f32) / 32.0,
            next_state: vec![0.1; states],
            done: false,
        };
        cdbtune::train_offline(&mut env, &cfg, (0..cfg.batch_size).map(transition).collect());
        let steps = telemetry.drain_ring().into_iter().filter_map(|e| match e {
            TraceEvent::Step { timing, crashed: false, degraded: false, .. } => Some(timing),
            _ => None,
        });
        let budget = |b: TunerBudget| {
            (b.tool.to_string(), b.total_steps, b.minutes_per_step, b.total_minutes())
        };
        Efficiency {
            steps: steps.collect(),
            budgets: TunerBudget::paper_rows().into_iter().map(budget).collect(),
        }
    }
}

row!(StepSeries { workload: String, steps: Vec<usize>, cdbtune_tps: Vec<f64>,
    cdbtune_p99_ms: Vec<f64>, ottertune_tps: Vec<f64> });

impl Experiment for Vec<StepSeries> {
    const ID: &'static str = "fig05_steps";
    const PAPER: &'static str = "Fig 5 — throughput and 99th-%ile latency vs online tuning \
        steps (5→50), CDBTune against OtterTune at the same budget; Sysbench RW/RO/WO on \
        CDB-A, 40 knobs";
    const LAB: (u64, Option<usize>) = (7, None);
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig05 steps",
        "best-so-far rises; CDBTune(50) > OtterTune(50) on RW/RO/WO",
        false,
        |rows| {
            each(rows, |s| {
                let (first, last) = ends(&s.cdbtune_tps)?;
                let ot = s.ottertune_tps.last().ok_or("no OtterTune series")?;
                ensure(last >= first, || format!("{}: CDBTune fell with steps", s.workload))?;
                above(&format!("{} at 50 steps vs OtterTune", s.workload), *last, *ot)
            })
        },
    )];

    fn run(lab: &Lab) -> Self {
        let marks: Vec<usize> = (1..=10).map(|i| i * 5).collect();
        let series = |kind| {
            let s = Setting { kind, ..cdb_a_rw_40() };
            // One long 50-step session each; best-so-far at every mark.
            let (mut tuner, _) = lab.train(&mut lab.env(&s), &lab.trainer_config(), Vec::new());
            tuner.online.noise_sigma = 0.08;
            let rng = &mut StdRng::seed_from_u64(lab.seed);
            let cdbtune = tuner.tune(&mut lab.env(&s), 50, rng).history;
            let ot = &mut OtterTune::new(Regressor::GaussianProcess);
            let ottertune = ot.tune(&mut lab.env(&s), 50, rng).history;
            let (cdbtune_tps, cdbtune_p99_ms) = best_so_far(&cdbtune, &marks);
            StepSeries {
                workload: kind.label().into(),
                steps: marks.clone(),
                cdbtune_tps,
                cdbtune_p99_ms,
                ottertune_tps: best_so_far(&ottertune, &marks).0,
            }
        };
        [SysbenchRw, SysbenchRo, SysbenchWo].map(series).into()
    }
}

// ---- Figures 6–8: growing knob counts (TPC-C on CDB-B) ----

const KNOB_COUNTS: [usize; 4] = [20, 100, 180, 266];

row!(Fig06Row { knobs: usize, cdbtune_tps: f64, cdbtune_p99_ms: f64, dba_tps: f64,
    dba_p99_ms: f64, ottertune_tps: f64, ottertune_p99_ms: f64 });

impl Experiment for Vec<Fig06Row> {
    const ID: &'static str = "fig06_knobs_dba";
    const PAPER: &'static str = "Fig 6 — performance vs number of knobs, knobs in the DBA's \
        importance order, CDBTune vs DBA vs OtterTune; TPC-C on CDB-B, 20→266 knobs";
    const LAB: (u64, Option<usize>) = (11, Some(36));
    // Figs. 6, 7, 17 and 18 tolerate the rule expert up to 12 % ahead on
    // TPC-C (EXPERIMENTS.md, known deviation 1).
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig06 DBA order",
        "CDBTune grows with knobs & leads OtterTune; DBA/OtterTune fall off their peaks",
        true,
        |rows| {
            let (first, last) = ends(rows)?;
            at_least("CDBTune 266 vs 20 knobs", last.cdbtune_tps, 0.98, first.cdbtune_tps)?;
            above("CDBTune vs OtterTune at 266", last.cdbtune_tps, last.ottertune_tps)?;
            at_least("CDBTune vs DBA at 266", last.cdbtune_tps, 0.88, last.dba_tps)?;
            let dba_peak = peak(rows.iter().map(|r| r.dba_tps));
            ensure(last.dba_tps < dba_peak, || "DBA peaks at 266 knobs".into())?;
            let ot_peak = peak(rows.iter().map(|r| r.ottertune_tps));
            ensure(last.ottertune_tps < ot_peak, || "OtterTune peaks at 266 knobs".into())
        },
    )];

    fn run(lab: &Lab) -> Self {
        let row = |knobs: usize| {
            let rng = &mut StdRng::seed_from_u64(lab.seed + knobs as u64);
            let (cdb, _) = sweep_point(lab, knobs, None);
            let (dba, ot) = sweep_field(lab, knobs, None, rng);
            Fig06Row {
                knobs,
                cdbtune_tps: cdb.1,
                cdbtune_p99_ms: cdb.2,
                dba_tps: dba.1,
                dba_p99_ms: dba.2,
                ottertune_tps: ot.1,
                ottertune_p99_ms: ot.2,
            }
        };
        KNOB_COUNTS.map(row).into()
    }
}

row!(Fig07Row { knobs: usize, cdbtune_tps: f64, dba_tps: f64, ottertune_tps: f64 });

impl Experiment for Vec<Fig07Row> {
    const ID: &'static str = "fig07_knobs_ottertune";
    const PAPER: &'static str = "Fig 7 — performance vs number of knobs, knobs in OtterTune's \
        importance order (correlation ranking over 40 random probes); TPC-C on CDB-B";
    const LAB: (u64, Option<usize>) = (13, Some(36));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig07 OtterTune order",
        "CDBTune leads OtterTune at 266 knobs under OtterTune's ranking too",
        true,
        |rows| {
            let (_, last) = ends(rows)?;
            above("CDBTune vs OtterTune at 266", last.cdbtune_tps, last.ottertune_tps)?;
            at_least("CDBTune vs DBA at 266", last.cdbtune_tps, 0.88, last.dba_tps)
        },
    )];

    fn run(lab: &Lab) -> Self {
        // OtterTune's sample-gathering phase over the full space, then its
        // ranking; the baselines go on drawing from the same rng.
        let mut env = lab.env(&Setting::new(MySqlCdb, Hw::cdb_b(), TpcC, None));
        let rng = &mut StdRng::seed_from_u64(lab.seed);
        let probes = RandomSearch.tune(&mut env, 40, rng);
        let position = rank_knobs_by_correlation(&probes.history);
        let ranked: Vec<usize> = position.iter().map(|&p| env.space().indices()[p]).collect();
        let mut row = |knobs: usize| {
            let (cdb, _) = sweep_point(lab, knobs, Some(&ranked));
            let (dba, ot) = sweep_field(lab, knobs, Some(&ranked), rng);
            Fig07Row { knobs, cdbtune_tps: cdb.1, dba_tps: dba.1, ottertune_tps: ot.1 }
        };
        KNOB_COUNTS.map(&mut row).into()
    }
}

row!(Fig08Row { knobs: usize, throughput: f64, p99_ms: f64, iterations: usize });

impl Experiment for Vec<Fig08Row> {
    const ID: &'static str = "fig08_knobs_random";
    const PAPER: &'static str = "Fig 8 — CDBTune performance and training iterations vs number \
        of knobs, randomly selected in nested subsets (the 40 contain the 20); TPC-C on CDB-B";
    const LAB: (u64, Option<usize>) = (17, Some(36));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig08 random subsets",
        "throughput grows/saturates with knobs; iterations grow (Fig 8 lower panel)",
        true,
        |rows| {
            let (first, last) = ends(rows)?;
            at_least("throughput 266 vs 20 knobs", last.throughput, 0.95, first.throughput)?;
            ensure(last.iterations >= first.iterations, || "iterations shrank with knobs".into())
        },
    )];

    fn run(lab: &Lab) -> Self {
        // One global random permutation → nested subsets by prefix.
        let probe = lab.env(&Setting::new(MySqlCdb, Hw::cdb_b(), TpcC, None));
        let mut order = probe.space().indices().to_vec();
        order.shuffle(&mut StdRng::seed_from_u64(lab.seed));
        let row = |knobs: usize| {
            let ((_, throughput, p99_ms), iterations) = sweep_point(lab, knobs, Some(&order));
            Fig08Row { knobs, throughput, p99_ms, iterations }
        };
        KNOB_COUNTS.map(row).into()
    }
}

// ---- Figure 9 + Table 3 and Figures 16–18: the headline comparisons ----

/// CDBTune (cold-started at sibling offset 1), the shipped configurations
/// and the baselines on one setting — Figure 9's six bars.
fn six_way(lab: &Lab, s: &Setting) -> Vec<Bar> {
    let mut tuners: Vec<Box<dyn ConfigTuner>> =
        vec![Box::new(lab.train_on(s, 0, Some(1))), Box::new(Shipped::MySqlDefault)];
    if matches!(s.flavor, MySqlCdb | LocalMySql) {
        tuners.push(Box::new(Shipped::CdbDefault));
    }
    tuners.extend(baselines());
    tuner_bars(lab, s, &mut tuners)
}

row!(WorkloadBars { workload: String, rows: Vec<Bar> });

/// Table 3: workload, then CDBTune's ↑throughput / ↓latency % over
/// BestConfig, DBA and OtterTune.
type Table3Row = (String, f64, f64, f64, f64, f64, f64);

impl Experiment for (Vec<WorkloadBars>, Vec<Table3Row>) {
    const ID: &'static str = "fig09_table03_comparison";
    const PAPER: &'static str = "Fig 9 + Table 3 — throughput and 99th-%ile latency of CDBTune, \
        MySQL default, CDB default, BestConfig, DBA and OtterTune, and CDBTune's improvement \
        over each tool; Sysbench RW/RO/WO on CDB-A, 266 knobs. The headline gets the largest \
        training budget (100 episodes) and 400-txn windows";
    const LAB: (u64, Option<usize>) = (42, Some(100));
    const CHECKS: &'static [Check<Self>] = &[
        check(
            "fig09 six-way ordering",
            "CDBTune highest throughput on RW, RO and WO",
            false,
            |(figure, _)| {
                each(figure, |wl| {
                    let cdb = tps(&wl.rows, "CDBTune")?;
                    let rest = ["BestConfig", "DBA", "OtterTune", "MySQL default", "CDB default"];
                    let (wl, bars) = (&wl.workload, &wl.rows);
                    let beaten = |s: &&str| above(&format!("{wl} vs {s}"), cdb, tps(bars, s)?);
                    rest.iter().try_for_each(beaten)
                })
            },
        ),
        check(
            "table03 WO margin largest",
            "vs-DBA throughput margin largest on write-only (paper: +46.6 %)",
            true,
            |(_, table3)| {
                let margin = |wl: &str| {
                    let row = table3.iter().find(|r| r.0 == wl);
                    row.map(|r| r.3).ok_or_else(|| format!("no `{wl}` row"))
                };
                above("WO vs RW margin", margin("WO")?, margin("RW")?)?;
                above("WO vs RO margin", margin("WO")?, margin("RO")?)
            },
        ),
    ];

    fn run(lab: &Lab) -> Self {
        let lab = &lab.with_windows(400, 80);
        let workload = |kind| {
            let rows = six_way(lab, &Setting::new(MySqlCdb, Hw::cdb_a(), kind, None));
            let find = |name| rows.iter().find(|r| r.0 == name).expect("six_way measures it");
            let cdb = find("CDBTune");
            let gain = |name| {
                let other = find(name);
                [(cdb.1 / other.1 - 1.0) * 100.0, (1.0 - cdb.2 / other.2) * 100.0]
            };
            let [[bt, bl], [dt, dl], [ot, ol]] = ["BestConfig", "DBA", "OtterTune"].map(gain);
            let table3: Table3Row = (kind.label().into(), bt, bl, dt, dl, ot, ol);
            (WorkloadBars { workload: kind.label().into(), rows }, table3)
        };
        [SysbenchRw, SysbenchRo, SysbenchWo].map(workload).into_iter().unzip()
    }
}

row!(EngineBars { figure: String, engine: String, workload: String, rows: Vec<Bar> });

impl Experiment for Vec<EngineBars> {
    const ID: &'static str = "fig16_17_18_other_databases";
    const PAPER: &'static str = "Figs 16–18 (C.3) — the Figure 9 comparison on other systems: \
        YCSB on MongoDB (CDB-E, 232 knobs), TPC-C on PostgreSQL (CDB-D, 169 knobs), TPC-C on \
        local MySQL (CDB-C, 266 knobs)";
    const LAB: (u64, Option<usize>) = (47, Some(60));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig16-18 other databases",
        "CDBTune beats BestConfig/OtterTune/defaults on every engine (±12 % vs rule expert)",
        false,
        |rows| {
            each(rows, |fig| {
                // A bar the engine does not have (CDB default) is not a loss.
                let cdb = tps(&fig.rows, "CDBTune")?;
                for system in ["BestConfig", "OtterTune", "MySQL default"] {
                    let Ok(other) = tps(&fig.rows, system) else { continue };
                    above(&format!("{} vs {system}", fig.figure), cdb, other)?;
                }
                let Ok(dba) = tps(&fig.rows, "DBA") else { return Ok(()) };
                at_least(&format!("{} vs DBA", fig.figure), cdb, 0.88, dba)
            })
        },
    )];

    fn run(lab: &Lab) -> Self {
        let cases = [
            ("Figure 16", MongoDb, Hw::cdb_e(), Ycsb),
            ("Figure 17", Postgres, Hw::cdb_d(), TpcC),
            ("Figure 18", LocalMySql, Hw::cdb_c(), TpcC),
        ];
        let case = |(figure, flavor, hw, kind): (&str, _, _, _)| EngineBars {
            figure: figure.into(),
            engine: format!("{flavor:?}"),
            workload: format!("{kind:?}"),
            rows: six_way(lab, &Setting::new(flavor, hw, kind, None)),
        };
        cases.map(case).into()
    }
}

// ---- Figures 10–12 and §5.3.2: adaptability ----

/// Figs. 10–12: both models cold-started (siblings at +1 and +100), every
/// environment under the lab's seed, no default bar.
const COLD_PLAN: CrossPlan =
    CrossPlan { cold_start: Some((1, 100)), env_offsets: [0; 3], default_at: None };

row!(MemoryRow { ram_gb: u32, cross_tps: f64, normal_tps: f64, cross_p99_ms: f64,
    normal_p99_ms: f64 });
row!(DiskRow { disk_gb: u32, cross_tps: f64, normal_tps: f64, cross_p99_ms: f64,
    normal_p99_ms: f64 });

/// Cross vs native over CDB instances resized to `sizes` along one axis, as
/// `(size, cross bar, native bar)`.
fn resized(lab: &Lab, base: Setting, sizes: [u32; 5], hw: fn(u32) -> Hw) -> Vec<(u32, Bar, Bar)> {
    let targets = sizes.map(|gb| Setting { hw: hw(gb), ..base });
    let bars = cross_vs_native(lab, &base, &targets, &COLD_PLAN);
    sizes.into_iter().zip(bars).map(|(gb, (cross, normal, _))| (gb, cross, normal)).collect()
}

fn cross_holds(size_gb: u32, cross_tps: f64, normal_tps: f64) -> Shape {
    at_least(&format!("{size_gb} GB"), cross_tps, 0.85, normal_tps)
}

impl Experiment for Vec<MemoryRow> {
    const ID: &'static str = "fig10_memory_adaptability";
    const PAPER: &'static str = "Fig 10 — memory adaptability: the model trained on CDB-A's \
        8 GB tunes CDB-X1 instances of 4/12/32/64/128 GB unchanged (M_8G→XG) vs models trained \
        there (M_XG→XG); Sysbench WO, 40 knobs";
    const LAB: (u64, Option<usize>) = (23, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig10 memory adaptability",
        "cross-tested ≥ 85 % of natively trained at every size",
        false,
        |rows| each(rows, |r| cross_holds(r.ram_gb, r.cross_tps, r.normal_tps)),
    )];

    fn run(lab: &Lab) -> Self {
        let base = Setting::new(MySqlCdb, Hw::cdb_a(), SysbenchWo, Some(40));
        let row = |(ram_gb, cross, normal): (u32, Bar, Bar)| MemoryRow {
            ram_gb,
            cross_tps: cross.1,
            normal_tps: normal.1,
            cross_p99_ms: cross.2,
            normal_p99_ms: normal.2,
        };
        resized(lab, base, [4, 12, 32, 64, 128], Hw::cdb_x1).into_iter().map(row).collect()
    }
}

impl Experiment for Vec<DiskRow> {
    const ID: &'static str = "fig11_disk_adaptability";
    const PAPER: &'static str = "Fig 11 — disk adaptability: the model trained on CDB-C's \
        200 GB disk tunes CDB-X2 instances of 32/64/100/256/512 GB unchanged vs models trained \
        there; Sysbench RO, 40 knobs";
    const LAB: (u64, Option<usize>) = (29, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig11 disk adaptability",
        "cross-tested ≥ 85 % of natively trained at every size",
        false,
        |rows| each(rows, |r| cross_holds(r.disk_gb, r.cross_tps, r.normal_tps)),
    )];

    fn run(lab: &Lab) -> Self {
        let base = Setting::new(MySqlCdb, Hw::cdb_c(), SysbenchRo, Some(40));
        let row = |(disk_gb, cross, normal): (u32, Bar, Bar)| DiskRow {
            disk_gb,
            cross_tps: cross.1,
            normal_tps: normal.1,
            cross_p99_ms: cross.2,
            normal_p99_ms: normal.2,
        };
        resized(lab, base, [32, 64, 100, 256, 512], Hw::cdb_x2).into_iter().map(row).collect()
    }
}

row!(Bars { rows: Vec<Bar> });

impl Experiment for Bars {
    const ID: &'static str = "fig12_workload_adaptability";
    const PAPER: &'static str = "Fig 12 — workload adaptability: the model trained on Sysbench \
        RW tunes TPC-C (M_RW→TPC-C) vs the model trained on TPC-C, beside the baselines; CDB-C, \
        40 knobs";
    const LAB: (u64, Option<usize>) = (31, Some(28));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig12 workload adaptability",
        "cross model ≈ native and beats the baseline bars",
        false,
        |bars| {
            let cross = tps(&bars.rows, "M_RW→TPC-C")?;
            at_least("cross vs native", cross, 0.85, tps(&bars.rows, "M_TPC-C→TPC-C")?)?;
            let beaten = |s: &&str| above(&format!("cross vs {s}"), cross, tps(&bars.rows, s)?);
            ["MySQL default", "BestConfig", "OtterTune"].iter().try_for_each(beaten)
        },
    )];

    fn run(lab: &Lab) -> Self {
        let tpcc = Setting::new(MySqlCdb, Hw::cdb_c(), TpcC, Some(40));
        let mut field: Vec<Box<dyn ConfigTuner>> = vec![Box::new(Shipped::MySqlDefault)];
        field.extend(baselines());
        let mut rows = tuner_bars(lab, &tpcc, &mut field);
        let rw = Setting { kind: SysbenchRw, ..tpcc };
        let (mut cross, mut normal, _) = cross_vs_native(lab, &rw, &[tpcc], &COLD_PLAN).remove(0);
        (cross.0, normal.0) = ("M_RW→TPC-C".into(), "M_TPC-C→TPC-C".into());
        rows.extend([cross, normal]);
        Bars { rows }
    }
}

row!(MediaRow { media: String, cross_tps: f64, normal_tps: f64, default_tps: f64 });

impl Experiment for Vec<MediaRow> {
    const ID: &'static str = "extra_media_adaptability";
    const PAPER: &'static str = "§5.3.2 (stated, not plotted) — \"similar results on SSD and \
        NVM\": a model trained on an SSD instance tunes HDD and NVM instances vs models trained \
        there and the MySQL default; Sysbench RW on CDB-A, 40 knobs";
    const LAB: (u64, Option<usize>) = (61, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "extra media adaptability",
        "SSD-trained model serves HDD and NVM instances",
        false,
        |rows| {
            each(rows, |r| {
                at_least(&format!("{} cross vs native", r.media), r.cross_tps, 0.8, r.normal_tps)?;
                above(&format!("{} cross vs default", r.media), r.cross_tps, r.default_tps)
            })
        },
    )];

    fn run(lab: &Lab) -> Self {
        let on = |media| Setting { hw: Hw { media, ..Hw::cdb_a() }, ..cdb_a_rw_40() };
        let media = [MediaType::Ssd, MediaType::Hdd, MediaType::Nvm];
        // No cold start; each environment of a target under its own seed.
        let plan = CrossPlan { cold_start: None, env_offsets: [5, 6, 7], default_at: Some(8) };
        let bars = cross_vs_native(lab, &on(MediaType::Ssd), &media.map(on), &plan);
        let row = |(media, (cross, normal, default)): (MediaType, (Bar, Bar, Option<Bar>))| {
            let default_tps = default.expect("planned").1;
            MediaRow { media: format!("{media:?}"), cross_tps: cross.1, normal_tps: normal.1, default_tps }
        };
        media.into_iter().zip(bars).map(row).collect()
    }
}

// ---- Appendix C.1–C.2 and the §3.3 / §5.1 claims: ablations ----

row!(RewardRow { workload: String, reward: String, iterations: usize, throughput: f64,
    p99_ms: f64 });

impl Experiment for Vec<RewardRow> {
    const ID: &'static str = "fig14_reward_functions";
    const PAPER: &'static str = "Fig 14 (C.1.1) — reward-function ablation: RF-A (previous step \
        only), RF-B (initial only), RF-C (no zero-clamp) vs RF-CDBTune, iterations to converge \
        and recommended performance; TPC-C on CDB-C, Sysbench RW/RO on CDB-A, 40 knobs";
    const LAB: (u64, Option<usize>) = (37, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig14 reward functions",
        "RF-CDBTune ≥ RF-B performance and converges no slower than RF-C",
        false,
        |rows| {
            each(rows, |r| {
                let of = |rf: &str| {
                    let same = |o: &&RewardRow| o.workload == r.workload && o.reward == rf;
                    rows.iter().find(same).ok_or_else(|| format!("{}: no {rf} row", r.workload))
                };
                let (ours, b, c) = (of("RF-CDBTune")?, of("RF-B")?, of("RF-C")?);
                at_least(&format!("{} vs RF-B", r.workload), ours.throughput, 0.98, b.throughput)?;
                let (ours, c) = (ours.iterations, c.iterations);
                ensure(ours <= c, || format!("{}: slower than RF-C ({ours} > {c})", r.workload))
            })
        },
    )];

    fn run(lab: &Lab) -> Self {
        let cases = [(TpcC, Hw::cdb_c()), (SysbenchRw, Hw::cdb_a()), (SysbenchRo, Hw::cdb_a())];
        let row = |(kind, hw): (_, Hw), rf: RewardKind| {
            let reward = RewardConfig { kind: rf, ..RewardConfig::default() };
            let s = Setting { reward, ..Setting::new(MySqlCdb, hw, kind, Some(40)) };
            let (bar, iterations) = lab.trained_bar(&s, &lab.trainer_config());
            RewardRow {
                workload: kind.label().into(),
                reward: rf.label().into(),
                iterations,
                throughput: bar.1,
                p99_ms: bar.2,
            }
        };
        cases.iter().flat_map(|&case| RewardKind::ALL.map(|rf| row(case, rf))).collect()
    }
}

row!(CoefficientRow { c_t: f64, throughput: f64, p99_ms: f64, throughput_rate: f64,
    latency_rate: f64 });

impl Experiment for Vec<CoefficientRow> {
    const ID: &'static str = "fig15_ct_cl_sweep";
    const PAPER: &'static str = "Fig 15 (C.1.2) — throughput and latency change rate vs C_T \
        (0.1→0.9, C_T + C_L = 1) relative to C_T = C_L = 0.5; Sysbench RW on CDB-A, 40 knobs";
    const LAB: (u64, Option<usize>) = (41, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "fig15 C_T sweep",
        "throughput rate at C_T=0.9 exceeds C_T=0.1 (§C.1.2)",
        false,
        |rows| {
            let (first, last) = ends(rows)?;
            above("rate at 0.9 vs 0.1", last.throughput_rate, first.throughput_rate)
        },
    )];

    fn run(lab: &Lab) -> Self {
        let run_with = |c_t: f64| {
            let reward = RewardConfig::new(RewardKind::CdbTune, c_t, 1.0 - c_t);
            lab.trained_bar(&Setting { reward, ..cdb_a_rw_40() }, &lab.trainer_config()).0
        };
        let reference = run_with(0.5);
        let row = |ct10: u32| {
            let c_t = f64::from(ct10) / 10.0;
            let (_, throughput, p99_ms) = if ct10 == 5 { reference.clone() } else { run_with(c_t) };
            CoefficientRow {
                c_t,
                throughput,
                p99_ms,
                throughput_rate: throughput / reference.1,
                latency_rate: p99_ms / reference.2,
            }
        };
        [1, 3, 5, 7, 9].map(row).into()
    }
}

row!(NetworkRow { actor_layers: String, critic_layers: String, throughput: f64, p99_ms: f64,
    iterations: usize });

impl Experiment for Vec<NetworkRow> {
    const ID: &'static str = "table06_network_ablation";
    const PAPER: &'static str = "Table 6 (C.2) — actor/critic structure ablation, 3–6 hidden \
        layers, narrow vs wide: throughput, latency, iterations; TPC-C on CDB-B, 266 knobs";
    const LAB: (u64, Option<usize>) = (43, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "table06 network ablation",
        "iterations grow with depth; the compact net stays within 10 % of the best",
        false,
        |rows| {
            let (base, deepest) = ends(rows)?;
            ensure(deepest.iterations > base.iterations, || {
                format!("deepest net converged in {} ≤ {}", deepest.iterations, base.iterations)
            })?;
            let best = peak(rows.iter().map(|r| r.throughput));
            at_least("compact net vs best", base.throughput, 0.9, best)
        },
    )];

    fn run(lab: &Lab) -> Self {
        // Table 6's 8 rows: 3..6 hidden layers, each narrow (actor 128…64,
        // critic 256…64) and wide (doubled); the builder adds the output.
        let row = |(depth, wide): (usize, usize)| {
            let hidden = |width: usize| {
                let mut layers = vec![width * wide; depth - 1];
                layers.push(64 * wide);
                layers
            };
            let (actor, critic) = (hidden(128), hidden(256));
            let trainer = TrainerConfig {
                actor_hidden: Some(actor.clone()),
                critic_hidden: Some(critic.clone()),
                ..lab.trainer_config()
            };
            let s = Setting::new(MySqlCdb, Hw::cdb_b(), TpcC, None);
            let (bar, iterations) = lab.trained_bar(&s, &trainer);
            // The paper's "iterations" count gradient work: scale the step
            // count by the update cost relative to the base architecture.
            let weights = |v: &[usize]| v.windows(2).map(|w| w[0] * w[1]).sum::<usize>();
            let layers = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join("-");
            NetworkRow {
                actor_layers: layers(&actor),
                critic_layers: layers(&critic),
                throughput: bar.1,
                p99_ms: bar.2,
                iterations: iterations * (weights(&actor) + weights(&critic)) / (128 * 128 * 3),
            }
        };
        (3..=6).flat_map(|depth| [(depth, 1), (depth, 2)]).map(row).collect()
    }
}

row!(ReplayRow { memory: String, seed: u64, iterations: usize, best_throughput: f64 });

impl Experiment for Vec<ReplayRow> {
    const ID: &'static str = "extra_per_ablation";
    const PAPER: &'static str = "§5.1 (stated, not plotted) — \"prioritized experience replay \
        … increases the convergence speed by a factor of two\": uniform vs prioritized replay \
        over three seeds; Sysbench RW on CDB-A, 40 knobs";
    const LAB: (u64, Option<usize>) = (53, Some(20));
    const CHECKS: &'static [Check<Self>] = &[check(
        "extra PER speedup",
        "prioritized replay needs fewer iterations than uniform",
        false,
        |rows| {
            let mean = |memory: &str| {
                let of = rows.iter().filter(|r| r.memory == memory).map(|r| r.iterations as f64);
                let of: Vec<f64> = of.collect();
                ensure(!of.is_empty(), || format!("no {memory} rows"))?;
                Ok::<f64, String>(of.iter().sum::<f64>() / of.len() as f64)
            };
            let (prioritized, uniform) = (mean("Prioritized")?, mean("Uniform")?);
            ensure(prioritized < uniform, || {
                format!("mean iterations: prioritized {prioritized:.0} ≥ uniform {uniform:.0}")
            })
        },
    )];

    fn run(lab: &Lab) -> Self {
        let row = |(seed, memory): (u64, MemoryKind)| {
            let lab = lab.at(seed);
            let trainer = TrainerConfig { memory, ..lab.trainer_config() };
            let (_, report) = lab.train(&mut lab.env(&cdb_a_rw_40()), &trainer, Vec::new());
            ReplayRow {
                memory: format!("{memory:?}"),
                seed,
                iterations: iterations(&report),
                best_throughput: report.best_throughput,
            }
        };
        let kinds = [MemoryKind::Uniform, MemoryKind::Prioritized];
        (0..3).flat_map(|i| kinds.map(|memory| (lab.seed + i, memory))).map(row).collect()
    }
}

row!(DqnRow { knobs: usize, dqn_actions: u64, dqn_tps: Option<f64>, ddpg_tps: f64 });

impl Experiment for Vec<DqnRow> {
    const ID: &'static str = "extra_dqn_vs_ddpg";
    const PAPER: &'static str = "§3.3 + footnote 5 (stated, not plotted) — why CDBTune is not a \
        DQN: enumerating 4 levels per knob needs 4^knobs outputs, so DQN is tuned only while \
        the table is tractable (≤ 4096 actions) while DDPG is unaffected; Sysbench RW on CDB-A, \
        2→12 knobs";
    const LAB: (u64, Option<usize>) = (59, Some(24));
    const CHECKS: &'static [Check<Self>] = &[check(
        "extra DQN blow-up",
        "DQN's action table becomes intractable while DDPG keeps tuning",
        true,
        |rows| {
            let (_, last) = ends(rows)?;
            ensure(last.dqn_tps.is_none(), || "DQN still tractable at the last knob count".into())?;
            above("DDPG at the last knob count", last.ddpg_tps, 0.0)
        },
    )];

    fn run(lab: &Lab) -> Self {
        let row = |knobs: usize| {
            let s = Setting { knobs: Some(knobs), ..cdb_a_rw_40() };
            let rng = &mut StdRng::seed_from_u64(lab.seed);
            // DDPG tunes the environment it trained on.
            let mut env = lab.env(&s);
            let (mut ddpg, _) = lab.train(&mut env, &lab.trainer_config(), Vec::new());
            let ddpg_tps = bar(&mut env, &mut ddpg, rng).1;
            let mut dqn = DqnTuner { levels: 4, seed: lab.seed };
            let dqn_actions = dqn.actions(knobs);
            let dqn_tps = (dqn_actions <= 4096)
                .then(|| dqn.tune(&mut lab.env(&s), 1, rng).best_perf.throughput_tps);
            DqnRow { knobs, dqn_actions, dqn_tps, ddpg_tps }
        };
        [2, 4, 6, 8, 12].map(row).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ExperimentScale;

    #[test]
    fn efficiency_rows_time_every_step_component() {
        let lab = Lab { scale: ExperimentScale::quick(), seed: Efficiency::LAB.0 };
        let steps = Efficiency::run(&lab).steps;
        assert!((1..=5).contains(&steps.len()), "{} measured steps", steps.len());
        for t in &steps {
            assert!(t.stress_wall_us > 0, "{t:?}");
            assert!(t.stress_simulated_sec > 0.0, "{t:?}");
            assert!(t.model_update_wall_us > 0, "{t:?}");
            assert!(t.total_wall_us() >= t.stress_wall_us, "{t:?}");
        }
    }

    #[test]
    fn ids_are_unique_and_the_table_holds_the_nineteen_checks() {
        let table = table();
        let mut ids: Vec<_> = table.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 19);
        let checks = |e: &Entry| (e.load)(&Json::Null).unwrap().1.len();
        assert_eq!(table.iter().map(checks).sum::<usize>(), 19);
    }

    /// The parent's checker indexed `ot[ot.len() / 2]` and `rows[0]` and
    /// unwrapped `last()`: absent rows must be a FAIL with a reason instead.
    #[test]
    fn empty_rows_fail_every_check_without_panicking() {
        for e in table() {
            let (json, verdicts) = (e.load)(&Json::Null).unwrap();
            assert!((e.load)(&json).is_ok(), "{}: empty rows round-trip", e.id);
            for (claim, shape) in verdicts {
                let why = shape.expect_err(claim.name);
                assert!(!why.is_empty(), "{}: a failure carries its reason", claim.name);
            }
        }
    }

    #[test]
    fn truncated_series_fail_with_a_reason() {
        let series = SampleSeries { workload: "RW".into(), dba: 1.0, ..Default::default() };
        let why = (<Vec<SampleSeries>>::CHECKS[0].1)(&vec![series]).unwrap_err();
        assert_eq!(why, "empty series");
        let bars = Bars { rows: vec![("M_RW→TPC-C".into(), 1.0, 1.0)] };
        let why = (<Bars>::CHECKS[0].1)(&bars).unwrap_err();
        assert_eq!(why, "no `M_TPC-C→TPC-C` bar");
    }

    #[test]
    fn a_file_of_another_shape_is_a_decode_error() {
        let fig06 = table().into_iter().find(|e| e.id == "fig06_knobs_dba").unwrap();
        let rows = Json::parse(r#"[{"knobs": 20, "cdbtune_tps": null}]"#).unwrap();
        assert!((fig06.load)(&rows).is_err());
    }

    #[test]
    fn best_so_far_is_monotone_and_skips_crashes() {
        let eval = |throughput: f64, crashed| Evaluation {
            action: Vec::new(),
            state: Vec::new(),
            throughput,
            p99_latency_us: throughput * 1000.0,
            crashed,
        };
        let history = [eval(3.0, false), eval(9.0, true), eval(2.0, false), eval(5.0, false)];
        let (tps, p99) = best_so_far(&history, &[1, 2, 4, 8]);
        assert_eq!(tps, [3.0, 3.0, 5.0, 5.0]);
        assert_eq!(p99, [3.0, 3.0, 5.0, 5.0]);
    }
}
