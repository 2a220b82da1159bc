//! Extra ablation (§3.3): why CDBTune is not a DQN. DQN must enumerate
//! `levels^knobs` discrete actions; DDPG's actor emits continuous vectors.
//! This experiment tunes growing knob subsets with both — DQN's action
//! table explodes (we cap it and report the count) and its quality drops,
//! while DDPG is unaffected.
//!
//! Footnote 5 of the paper ("it is interesting to study how to wisely
//! discretize the knobs") is the open question this makes concrete.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use rl::{Dqn, DqnConfig, Environment};
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

/// Discretization levels per knob for DQN.
const LEVELS: usize = 4;

struct Row {
    knobs: usize,
    dqn_actions: u64,
    dqn_tps: Option<f64>,
    ddpg_tps: f64,
}
persist_struct!(Row { knobs, dqn_actions, dqn_tps, ddpg_tps });

fn main() {
    let lab = Lab::with_episodes(59, 24);
    let mut rows = Vec::new();
    print_header(
        &format!("Extra — DQN ({LEVELS} levels/knob) vs DDPG as knobs grow (Sysbench RW)"),
        &["knobs", "DQN |actions|", "DQN tps", "DDPG tps"],
    );
    for knobs in [2usize, 4, 6, 8, 12] {
        let actions = (LEVELS as u64).saturating_pow(knobs as u32);

        // DDPG via the standard pipeline.
        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), WorkloadKind::SysbenchRw, Some(knobs));
        let (model, _) = lab.train(&mut env);
        let outcome = lab.online(&mut env, &model);
        let ddpg_tps = outcome.best_perf.throughput_tps;

        // DQN: enumerate actions only while the table is tractable.
        let dqn_tps = if actions <= 4096 {
            let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), WorkloadKind::SysbenchRw, Some(knobs));
            let mut agent = Dqn::new(DqnConfig {
                state_dim: simdb::TOTAL_METRIC_COUNT,
                n_actions: actions as usize,
                hidden: vec![128, 64],
                lr: 1e-3,
                gamma: 0.9,
                epsilon: 1.0,
                target_refresh: 100,
                seed: lab.seed,
            });
            let decode = |a: usize| -> Vec<f32> {
                let mut a = a;
                (0..knobs)
                    .map(|_| {
                        let level = a % LEVELS;
                        a /= LEVELS;
                        level as f32 / (LEVELS - 1) as f32
                    })
                    .collect()
            };
            let _ = agent.train_on_env(&mut env, &decode, 18, 20);
            agent.epsilon = 0.0;
            let state = env.reset();
            let best = agent.greedy_action(&state);
            // Deploy and measure the greedy recommendation.
            let out = env.step_action(&decode(best));
            Some(out.perf.throughput_tps)
        } else {
            None
        };

        let row = Row { knobs, dqn_actions: actions, dqn_tps, ddpg_tps };
        print_row(&[
            knobs.to_string(),
            actions.to_string(),
            row.dqn_tps.map(fmt).unwrap_or_else(|| "intractable".into()),
            fmt(ddpg_tps),
        ]);
        rows.push(row);
    }
    println!(
        "\nat 266 knobs DQN would need {LEVELS}^266 ≈ 10^{:.0} outputs — the paper's §3.3 argument",
        266.0 * (LEVELS as f64).log10()
    );
    write_json("extra_dqn_vs_ddpg", &rows);
}
