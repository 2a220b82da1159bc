//! Parallel sample collection (§5.1: "We also adopt parallel computing
//! (30 servers) which greatly reduces the offline training time").
//!
//! Each worker owns a full environment (engine + workload) and explores it
//! with a seeded random policy; the collected transitions seed the memory
//! pool before DDPG training starts (the cold-start data generation of
//! §2.1.1, spread across cores instead of servers).
//!
//! A collection round fans out over [`std::thread::scope`]: at most one
//! thread per core, worker `w` on thread `w % threads`, every thread joined
//! before the round returns. Seeds, output order and telemetry depend only on
//! the worker index, never on how many threads ran.

use crate::env::DbEnv;
use crate::telemetry::{Telemetry, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::Transition;

/// Derives worker `w`'s RNG seed from the run seed with a splitmix64
/// finalizer.
///
/// The old `seed ^ (w * 0x9E37)` derivation handed worker 0 the raw run
/// seed and gave adjacent workers seeds differing in a handful of low
/// bits — StdRng streams seeded that closely can stay correlated for many
/// draws. splitmix64's finalizer is bijective, so distinct `(seed, w)`
/// inputs map to pairwise-distinct, avalanche-mixed seeds; `w + 1` keeps
/// even worker 0 off the raw seed.
pub fn worker_seed(seed: u64, worker: usize) -> u64 {
    let mut z = seed.wrapping_add((worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collects `steps_per_worker` random-policy transitions from each of
/// `workers` independent environments, in parallel.
///
/// `make_env` builds a worker's environment from its worker index (each
/// worker must get its own engine instance, like each of the paper's
/// training servers ran its own CDB instance).
pub fn collect_parallel<F>(
    make_env: F,
    workers: usize,
    steps_per_worker: usize,
    seed: u64,
) -> Vec<Transition>
where
    F: Fn(usize) -> DbEnv + Sync,
{
    collect_parallel_traced(make_env, workers, steps_per_worker, seed, &Telemetry::null())
}

/// [`collect_parallel`] with telemetry: emits one
/// [`TraceEvent::CollectWorker`] per worker once it joins.
pub fn collect_parallel_traced<F>(
    make_env: F,
    workers: usize,
    steps_per_worker: usize,
    seed: u64,
    telemetry: &Telemetry,
) -> Vec<Transition>
where
    F: Fn(usize) -> DbEnv + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(workers);
    let make_env = &make_env;
    // Thread `t` returns the results of workers `t, t + threads, …` in that
    // order; a worker's panic is re-raised here with its own payload.
    let per_thread: Vec<Vec<(Vec<Transition>, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..workers)
                        .step_by(threads)
                        .map(|w| explore(make_env(w), steps_per_worker, worker_seed(seed, w)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut per_thread: Vec<_> = per_thread.into_iter().map(Vec::into_iter).collect();
    let mut all = Vec::with_capacity(workers * steps_per_worker);
    for w in 0..workers {
        let (out, crashes) = per_thread[w % threads]
            .next()
            .expect("thread w % threads ran worker w and every one before it");
        telemetry.emit(&TraceEvent::CollectWorker {
            worker: w as u64,
            derived_seed: worker_seed(seed, w),
            steps: out.len() as u64,
            crashes,
        });
        all.extend(out);
    }
    all
}

/// One worker's round: `steps` uniformly random actions on its own
/// environment, drawn from `seed`. Returns the transitions and the number of
/// steps that crashed the instance.
fn explore(mut env: DbEnv, steps: usize, seed: u64) -> (Vec<Transition>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = env.space().dim();
    let mut out = Vec::with_capacity(steps);
    let mut crashes = 0u64;
    let mut state = env.reset_episode(env.engine().registry().default_config());
    for _ in 0..steps {
        let action: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        let step = env.step_action(&action);
        crashes += u64::from(step.crashed);
        out.push(Transition {
            state: state.clone(),
            action,
            reward: step.reward as f32,
            next_state: step.state.clone(),
            done: step.done,
        });
        state = if step.done {
            env.reset_episode(env.engine().registry().default_config())
        } else {
            step.state
        };
    }
    (out, crashes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpace;
    use crate::env::EnvConfig;
    use simdb::knobs::mysql::names;
    use simdb::{Engine, EngineFlavor, HardwareConfig};
    use workload::{build_workload, WorkloadKind};

    fn make_env(worker: usize) -> DbEnv {
        let engine =
            Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 100 + worker as u64);
        let wl = build_workload(WorkloadKind::SysbenchRw, 0.003);
        let reg = EngineFlavor::MySqlCdb.registry(&HardwareConfig::cdb_a());
        let space =
            ActionSpace::from_names(&reg, [names::BUFFER_POOL_SIZE, names::READ_IO_THREADS])
                .unwrap();
        let cfg = EnvConfig {
            warmup_txns: 10,
            measure_txns: 60,
            horizon: 4,
            seed: worker as u64,
            ..EnvConfig::default()
        };
        DbEnv::new(engine, wl, space, cfg)
    }

    #[test]
    fn worker_seeds_are_pairwise_distinct_across_workers_and_run_seeds() {
        // The pre-fix `seed ^ (w * 0x9E37)` derivation collides across
        // (seed, worker) pairs trivially: e.g. run seed 0 worker 1 equals
        // run seed 0x9E37 worker 0, and worker 0 always gets the raw run
        // seed. The splitmix64 derivation must give pairwise-distinct seeds
        // across a workers × adjacent-run-seeds grid.
        let mut seen = std::collections::HashSet::new();
        for run_seed in 0..64u64 {
            for w in 0..32usize {
                assert!(
                    seen.insert(worker_seed(run_seed, w)),
                    "collision at run_seed {run_seed} worker {w}"
                );
            }
        }
        // Worker 0 must not explore with the raw run seed.
        assert_ne!(worker_seed(42, 0), 42);
    }

    #[test]
    fn worker_action_streams_are_pairwise_distinct() {
        // Adjacent seeds and adjacent workers must produce different action
        // streams from the first draws on — correlated exploration defeats
        // the point of parallel collection (§5.1).
        let stream = |s: u64, w: usize| -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(worker_seed(s, w));
            (0..8).map(|_| rng.gen::<f32>().to_bits()).collect()
        };
        let mut streams = Vec::new();
        for s in [7u64, 8u64] {
            for w in 0..8usize {
                streams.push((s, w, stream(s, w)));
            }
        }
        for i in 0..streams.len() {
            for j in i + 1..streams.len() {
                assert_ne!(
                    streams[i].2, streams[j].2,
                    "workers ({}, {}) and ({}, {}) drew identical actions",
                    streams[i].0, streams[i].1, streams[j].0, streams[j].1
                );
            }
        }
    }

    #[test]
    fn traced_collection_emits_one_event_per_worker() {
        use crate::telemetry::{Telemetry, TraceEvent, TraceLevel};
        let telemetry = Telemetry::ring(64, TraceLevel::Summary);
        let transitions = collect_parallel_traced(make_env, 2, 3, 11, &telemetry);
        assert_eq!(transitions.len(), 6);
        let events = telemetry.drain_ring();
        let workers: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CollectWorker { worker, derived_seed, steps, .. } => {
                    assert_eq!(*steps, 3);
                    assert_eq!(*derived_seed, worker_seed(11, *worker as usize));
                    Some(*worker)
                }
                _ => None,
            })
            .collect();
        assert_eq!(workers, vec![0, 1]);
    }

    #[test]
    fn collects_from_all_workers() {
        let transitions = collect_parallel(make_env, 3, 5, 42);
        assert_eq!(transitions.len(), 15);
        for t in &transitions {
            assert_eq!(t.state.len(), 63);
            assert_eq!(t.action.len(), 2);
            assert!(t.reward.is_finite());
        }
    }

    #[test]
    fn parallel_collection_equals_workers_run_one_after_another() {
        // The oracle never leaves the calling thread, so any drift in which
        // thread runs a worker, where its result lands, or how its seed is
        // derived shows up as a differing bit.
        let bits = |t: &Transition| -> Vec<u32> {
            let floats = t.state.iter().chain(&t.action).chain(&t.next_state);
            floats.map(|x| x.to_bits()).chain([t.reward.to_bits(), u32::from(t.done)]).collect()
        };
        let oracle: Vec<Transition> =
            (0..3).flat_map(|w| explore(make_env(w), 5, worker_seed(42, w)).0).collect();
        let parallel = collect_parallel(make_env, 3, 5, 42);
        assert_eq!(parallel.len(), oracle.len());
        for (i, (p, o)) in parallel.iter().zip(&oracle).enumerate() {
            assert_eq!(bits(p), bits(o), "transition {i} (worker {}) differs", i / 5);
        }
    }

    #[test]
    fn a_panicking_worker_panics_the_collection_with_its_own_payload() {
        let result = std::panic::catch_unwind(|| {
            collect_parallel(
                |w| if w == 1 { panic!("worker 1 has no instance") } else { make_env(w) },
                3,
                2,
                5,
            )
        });
        let payload = result.expect_err("the round must not outlive a dead worker");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 1 has no instance"));
    }

    #[test]
    fn workers_explore_differently() {
        let transitions = collect_parallel(make_env, 2, 4, 7);
        let (a, b) = transitions.split_at(4);
        assert_ne!(
            a.iter().map(|t| t.action.clone()).collect::<Vec<_>>(),
            b.iter().map(|t| t.action.clone()).collect::<Vec<_>>(),
            "workers must draw independent actions"
        );
    }

    #[test]
    fn collected_samples_feed_training() {
        use crate::trainer::{train_offline, TrainerConfig};
        let seed = collect_parallel(make_env, 2, 4, 1);
        let mut env = make_env(9);
        let cfg = TrainerConfig {
            episodes: 1,
            steps_per_episode: 2,
            batch_size: 4,
            ..TrainerConfig::smoke()
        };
        let (_, report) = train_offline(&mut env, &cfg, seed);
        assert_eq!(report.total_steps, 2);
    }
}
