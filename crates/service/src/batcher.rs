//! The shared serving tier: one resident evaluation-mode policy per
//! published registry version, answered on the caller's thread.
//!
//! Every warm session created off the same registry entry runs the same
//! actor network, so the [`PolicyServer`] keeps ONE
//! [`rl::SnapshotPolicy`] per snapshot version and K warm sessions share
//! it (and one `Arc<TrainedModel>`) instead of cloning weights K times.
//! A request is a lock, a version lookup, a width check and a single-row
//! actor forward. There is no queue and no batching: compute shards call
//! in synchronously, so at most `workers` requests are ever in flight —
//! nothing a batch could amortise over (DESIGN.md §13).
//!
//! Sessions reach the tier through the [`cdbtune::SharedPolicy`] trait.
//! The tier is strictly read-only over published snapshots: the moment a
//! session takes its first online gradient step it forks a private copy
//! (copy-on-write, handled by [`cdbtune::OnlineSession`]) and stops
//! calling in. A `None` reply — unknown or evicted version, a dimension
//! mismatch, or the tier shut down — tells the session to fork
//! immediately.

use cdbtune::{SharedPolicy, Telemetry, TrainedModel};
use rl::SnapshotPolicy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lifetime counters of one [`PolicyServer`] (monotone; read via
/// [`PolicyServer::stats`] and reported on the daemon's status line).
/// The shape dates from the microbatcher and is frozen by the wire
/// protocol and `benchmark/`: every request is its own forward pass, so
/// `batches == rows` and `deadline_flushes == 0`, always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Actor forward passes executed (equals `rows`).
    pub batches: u64,
    /// Actor-forward requests served.
    pub rows: u64,
    /// Always 0: nothing waits on a deadline any more.
    pub deadline_flushes: u64,
}

type Policies = Vec<(u64, SnapshotPolicy)>;

/// The shared serving tier. One per daemon; see the module docs.
pub struct PolicyServer {
    /// Resident policies by registry version; `None` once shut down.
    policies: Mutex<Option<Policies>>,
    rows: AtomicU64,
}

impl PolicyServer {
    /// An empty tier, open for [`PolicyServer::ensure`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self { policies: Mutex::new(Some(Vec::new())), rows: AtomicU64::new(0) })
    }

    // `benchmark/src/probes.rs` is the only caller: it was written against
    // the microbatcher's constructor and may not be edited. Batch height,
    // deadline and trace handle no longer mean anything and are ignored.
    #[doc(hidden)]
    pub fn spawn(_max_batch: usize, _deadline_us: u64, _telemetry: Telemetry) -> Arc<Self> {
        Self::new()
    }

    /// Runs `f` on the resident policies under the tier lock. `None` once
    /// the tier is shut down (or if a caller panicked mid-forward), which
    /// every entry point turns into a refusal.
    fn with<R>(&self, f: impl FnOnce(&mut Policies) -> R) -> Option<R> {
        // lint:allow(reactor) reason=the tier lock is held for an in-memory scan or one single-row forward pass
        self.policies.lock().ok()?.as_mut().map(f)
    }

    /// Registers a published snapshot under its registry version, building
    /// the evaluation-mode policy once. Idempotent: later calls with the
    /// same version are no-ops, so every warm session can call this.
    pub fn ensure(&self, version: u64, model: &TrainedModel) {
        let absent = |p: &mut Policies| p.iter().all(|(v, _)| *v != version);
        if self.with(absent) != Some(true) {
            return;
        }
        // Built outside the lock: a first sighting of a version must not
        // stall the other shards' `act`.
        let mut policy = SnapshotPolicy::from_snapshot(&model.snapshot);
        policy.prewarm(1);
        self.with(|p| {
            if absent(p) {
                p.push((version, policy));
            }
        });
    }

    /// Evicts every policy whose version is not in `live`. The registry
    /// replaces a beaten entry under a fresh id, so without this the tier
    /// keeps one policy per superseded entry for the daemon's lifetime. A
    /// session still borrowing an evicted version gets `None` and forks.
    pub fn retain(&self, live: &[u64]) {
        self.with(|p| p.retain(|(v, _)| live.contains(v)));
    }

    /// Registered snapshot versions, ascending.
    pub fn versions(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.with(|p| p.iter().map(|(v, _)| *v).collect()).unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BatchStats {
        let rows = self.rows.load(Ordering::Relaxed);
        BatchStats { batches: rows, rows, deadline_flushes: 0 }
    }

    /// Drops every resident policy and refuses all later requests.
    pub fn shutdown(&self) {
        if let Ok(mut policies) = self.policies.lock() {
            *policies = None;
        }
    }
}

impl SharedPolicy for PolicyServer {
    fn act(&self, version: u64, state: &[f32]) -> Option<Vec<f32>> {
        self.with(|p| {
            let (_, policy) = p.iter_mut().find(|(v, _)| *v == version)?;
            if state.len() != policy.state_dim() {
                return None;
            }
            // lint:allow(panic) reason=act_row only asserts the state width, checked just above
            let action = policy.act_row(state);
            self.rows.fetch_add(1, Ordering::Relaxed);
            Some(action)
        })
        .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdbtune::{EnvSpec, OnlineConfig, OnlineSession, RewardConfig};

    fn test_model(knobs: usize, seed: u64) -> TrainedModel {
        TrainedModel::cold((0..knobs).collect(), RewardConfig::default(), seed)
    }

    fn test_state(dim: usize, salt: u64) -> Vec<f32> {
        (0..dim).map(|i| ((i as u64 * 31 + salt * 7 + 3) % 100) as f32 / 100.0).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_version_answers_its_own_snapshots_row_bit_for_bit() {
        let models = [test_model(4, 15), test_model(4, 16)];
        let dim = models[0].snapshot.config.state_dim;
        let server = PolicyServer::new();
        server.ensure(1, &models[0]);
        server.ensure(2, &models[1]);
        server.ensure(1, &models[0]);
        assert_eq!(server.versions(), vec![1, 2], "ensure is idempotent");
        let mut references = models.each_ref().map(|m| SnapshotPolicy::from_snapshot(&m.snapshot));
        for salt in 0..8u64 {
            let state = test_state(dim, salt);
            let which = (salt % 2) as usize;
            let got = server.act(which as u64 + 1, &state).expect("registered version");
            assert_eq!(bits(&got), bits(&references[which].act_row(&state)), "salt {salt}");
        }
        assert_eq!(server.stats(), BatchStats { batches: 8, rows: 8, deadline_flushes: 0 });
        // Evicting one version leaves the other serving.
        server.retain(&[2]);
        assert_eq!(server.versions(), vec![2]);
        assert!(server.act(1, &test_state(dim, 0)).is_none());
        assert!(server.act(2, &test_state(dim, 0)).is_some());
    }

    #[test]
    fn unknown_versions_and_bad_rows_are_refused() {
        let model = test_model(4, 14);
        let dim = model.snapshot.config.state_dim;
        let server = PolicyServer::new();
        server.ensure(3, &model);
        assert_eq!(server.versions(), vec![3]);
        // Unregistered version: the reply is None, the session forks.
        assert!(server.act(99, &test_state(dim, 1)).is_none());
        // Wrong state dimension never reaches the forward pass.
        assert!(server.act(3, &test_state(dim - 1, 1)).is_none());
        assert_eq!(server.stats().rows, 0, "refusals are not served rows");
    }

    #[test]
    fn shutdown_refuses_and_a_live_session_forks_and_finishes() {
        let spec = EnvSpec {
            scale: 0.003,
            knobs: 4,
            seed: 17,
            warmup_txns: 10,
            measure_txns: 60,
            horizon: 8,
            ..EnvSpec::default()
        };
        let mut env = spec.build().expect("tiny instance builds");
        let indices = env.space().indices().to_vec();
        let model = Arc::new(TrainedModel::cold(indices, *env.reward_config(), spec.seed));
        let server = PolicyServer::new();
        server.ensure(1, &model);
        let tier: Arc<dyn SharedPolicy> = Arc::clone(&server) as Arc<dyn SharedPolicy>;
        let cfg = OnlineConfig::default();
        let mut session =
            OnlineSession::begin_shared(&mut env, Arc::clone(&model), &cfg, Some((1, tier)));
        assert!(session.step(&mut env).is_some());
        assert!(session.shares_model(), "the first step rides the tier");
        assert!(server.stats().rows > 0);

        server.shutdown();
        assert!(server.act(1, &test_state(model.snapshot.config.state_dim, 9)).is_none());
        server.ensure(1, &model);
        assert!(server.versions().is_empty(), "a shut-down tier admits nothing");

        assert!(session.step(&mut env).is_some(), "a refusal must not wedge the session");
        assert!(!session.shares_model(), "the refusal forks a private agent");
        while session.step(&mut env).is_some() {}
        assert_eq!(session.finish(&mut env).steps.len(), cfg.max_steps);
    }

    #[test]
    fn concurrent_callers_all_get_the_reference_reply() {
        const THREADS: u64 = 4;
        const CALLS: u64 = 50;
        let model = test_model(4, 12);
        let dim = model.snapshot.config.state_dim;
        let server = PolicyServer::new();
        server.ensure(1, &model);
        // All four callers leave the barrier together and contend for the
        // tier on every call; a failed assertion fails the scope.
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (server, barrier, model) = (&server, &barrier, &model);
                scope.spawn(move || {
                    let mut reference = SnapshotPolicy::from_snapshot(&model.snapshot);
                    barrier.wait();
                    for c in 0..CALLS {
                        let state = test_state(dim, t * CALLS + c);
                        let got = server.act(1, &state).expect("served");
                        assert_eq!(bits(&got), bits(&reference.act_row(&state)));
                    }
                });
            }
        });
        let n = THREADS * CALLS;
        assert_eq!(server.stats(), BatchStats { batches: n, rows: n, deadline_flushes: 0 });
    }
}
