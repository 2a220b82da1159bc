//! Table 2 + §5.1.1: per-step execution-time breakdown and the per-tool
//! online tuning budgets.
//!
//! The paper reports, for one CDBTune step: stress test 152.88 s, metrics
//! collection 0.86 ms, model update 28.76 ms, recommendation 2.16 ms,
//! deployment 16.68 s (plus ~2 min restart excluded). Our stress test runs
//! in simulated time; the table reports both the simulated seconds the
//! window represents and the wall-clock each component costs here.

use bench::report::{print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::{profile_step, ActionSpace, StateProcessor, TunerBudget, RESTART_SIMULATED_SEC};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Ddpg, DdpgConfig, Transition};
use simdb::{Engine, EngineFlavor, HardwareConfig};
use workload::{build_workload, WorkloadKind};

struct Results {
    steps: Vec<cdbtune::StepTiming>,
    budgets: Vec<(String, u32, f64, f64)>,
}
persist_struct!(Results { steps, budgets });

fn main() {
    let lab = Lab::new(5);
    let hw = lab.hardware(HardwareConfig::cdb_a());
    let mut engine = Engine::new(EngineFlavor::MySqlCdb, hw, 5);
    let mut wl = build_workload(WorkloadKind::SysbenchRw, lab.scale.data);
    wl.setup(&mut engine);
    let space = ActionSpace::all_tunable(engine.registry());
    let dim = space.dim();
    let mut agent = Ddpg::new(DdpgConfig::paper(simdb::TOTAL_METRIC_COUNT, dim));
    let mut processor = StateProcessor::new();
    let mut rng = StdRng::seed_from_u64(5);
    let batch: Vec<Transition> = (0..32)
        .map(|i| Transition {
            state: vec![0.1 * (i as f32 % 7.0); simdb::TOTAL_METRIC_COUNT],
            action: vec![0.5; dim],
            reward: (i as f32) / 32.0,
            next_state: vec![0.1; simdb::TOTAL_METRIC_COUNT],
            done: false,
        })
        .collect();

    let mut steps = Vec::new();
    for _ in 0..5 {
        steps.push(profile_step(
            &mut engine,
            wl.as_mut(),
            &mut agent,
            &mut processor,
            &space,
            64,
            lab.scale.measure_txns,
            &batch,
            &mut rng,
        ));
    }
    let avg = |f: fn(&cdbtune::StepTiming) -> f64| {
        steps.iter().map(f).sum::<f64>() / steps.len() as f64
    };

    print_header(
        "§5.1.1 — per-step time breakdown (averaged over 5 steps, 266 knobs)",
        &["component", "paper", "this repo"],
    );
    print_row(&[
        "stress test".into(),
        "152.88 s".into(),
        format!("{:.1} s simulated / {:.1} ms wall", avg(|s| s.stress_simulated_sec), avg(|s| s.stress_wall_us as f64) / 1000.0),
    ]);
    print_row(&[
        "metrics collection".into(),
        "0.86 ms".into(),
        format!("{:.3} ms wall", avg(|s| s.metrics_wall_us as f64) / 1000.0),
    ]);
    print_row(&[
        "model update".into(),
        "28.76 ms".into(),
        format!("{:.2} ms wall", avg(|s| s.model_update_wall_us as f64) / 1000.0),
    ]);
    print_row(&[
        "recommendation".into(),
        "2.16 ms".into(),
        format!("{:.2} ms wall", avg(|s| s.recommendation_wall_us as f64) / 1000.0),
    ]);
    print_row(&[
        "deployment".into(),
        "16.68 s".into(),
        format!("{:.1} ms wall (+{RESTART_SIMULATED_SEC:.0} s simulated restart)", avg(|s| s.deployment_wall_us as f64) / 1000.0),
    ]);

    print_header(
        "Table 2 — online tuning steps and time per request",
        &["tool", "total steps", "min/step", "total (min)"],
    );
    let budgets: Vec<(String, u32, f64, f64)> = TunerBudget::paper_rows()
        .into_iter()
        .map(|b| {
            print_row(&[
                b.tool.to_string(),
                b.total_steps.to_string(),
                format!("{:.0}", b.minutes_per_step),
                format!("{:.0}", b.total_minutes()),
            ]);
            (b.tool.to_string(), b.total_steps, b.minutes_per_step, b.total_minutes())
        })
        .collect();

    write_json("table02_efficiency", &Results { steps, budgets });
}
