//! Figure 1(d): the performance surface of CDB over two knobs (Sysbench
//! read-write, 8 GB RAM / 100 GB disk). The paper's point: nonlinear
//! correlations and knob dependencies mean performance is not monotone in
//! any direction — a grid sweep over buffer-pool size × redo-log file size
//! shows ridges, a plateau, and the crash region.

use bench::report::{print_header, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::ActionSpace;
use simdb::knobs::mysql::names;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Surface {
    knob_x: String,
    knob_y: String,
    x: Vec<f32>,
    y: Vec<f32>,
    /// `throughput[y][x]`; 0 marks the crash region.
    throughput: Vec<Vec<f64>>,
}
persist_struct!(Surface { knob_x, knob_y, x, y, throughput });

fn main() {
    let lab = Lab::new(3);
    let grid = 9usize;
    let engine_env = |seed: u64| {
        let mut lab2 = Lab::new(seed);
        lab2.scale = lab.scale;
        lab2.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), WorkloadKind::SysbenchRw, Some(2))
    };
    let mut env = engine_env(3);
    let reg = std::sync::Arc::clone(env.engine().registry());
    env.set_space(
        ActionSpace::from_names(&reg, [names::BUFFER_POOL_SIZE, names::LOG_FILE_SIZE]).unwrap(),
    );
    let _ = env.reset_episode(reg.default_config());

    let axis: Vec<f32> = (0..grid).map(|i| i as f32 / (grid - 1) as f32).collect();
    let mut matrix = vec![vec![0.0f64; grid]; grid];
    print_header(
        "Figure 1(d) — throughput surface (rows: log size ↓, cols: buffer pool →; 0 = crash)",
        &[],
    );
    for (yi, &y) in axis.iter().enumerate() {
        let mut cells = Vec::with_capacity(grid);
        for (xi, &x) in axis.iter().enumerate() {
            let out = env.step_action(&[x, y]);
            let tps = if out.crashed { 0.0 } else { out.perf.throughput_tps };
            matrix[yi][xi] = tps;
            cells.push(format!("{tps:>7.0}"));
        }
        println!("{}", cells.join(" "));
    }

    // The paper's claim, checked: no monotone direction.
    let row = &matrix[grid / 2];
    let increasing = row.windows(2).all(|w| w[1] >= w[0]);
    let decreasing = row.windows(2).all(|w| w[1] <= w[0]);
    println!(
        "\nmid-row monotone increasing: {increasing}, decreasing: {decreasing} \
         (paper: performance does not monotonically change in any direction)"
    );

    write_json(
        "fig01_surface",
        &Surface {
            knob_x: names::BUFFER_POOL_SIZE.into(),
            knob_y: names::LOG_FILE_SIZE.into(),
            x: axis.clone(),
            y: axis,
            throughput: matrix,
        },
    );
}
