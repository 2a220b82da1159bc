//! One tuning session inside the daemon.
//!
//! A [`TuningSession`] owns its simulated instance ([`DbEnv`] over
//! `simdb`), measures a baseline, fingerprints the workload, consults the
//! [`ModelRegistry`] for a warm start, and then advances an
//! [`OnlineSession`] one step per client request. Closing the session
//! publishes the fine-tuned model back to the registry; the shutdown
//! drain instead persists the live state as a
//! [`cdbtune::TrainingCheckpoint`].

use crate::batcher::PolicyServer;
use crate::fingerprint::WorkloadFingerprint;
use crate::registry::ModelRegistry;
use cdbtune::{
    DbEnv, EnvSpec, OnlineConfig, OnlineSession, OnlineStep, RecoveryStats, SafetyConfig,
    SharedPolicy, Telemetry, TraceEvent, TrainedModel, TuningOutcome,
};
use simdb::PerfMetrics;
use std::sync::Arc;

/// What a closed session reported.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Session id.
    pub id: u64,
    /// Tuning steps taken.
    pub steps: usize,
    /// The fine-tuned model was published to the registry.
    pub published: bool,
    /// The underlying tuning outcome (recommendation, metrics, model).
    pub outcome: TuningOutcome,
}

/// One live tuning session: environment + online tuner + registry context.
pub struct TuningSession {
    id: u64,
    spec: EnvSpec,
    env: DbEnv,
    inner: Option<OnlineSession>,
    fingerprint: WorkloadFingerprint,
    warm_start: bool,
    registry_distance: f64,
    telemetry: Telemetry,
    /// Re-tune epochs entered: bumped every time the drift detector fires
    /// mid-session (the tuner keeps running, but recovery accounting and
    /// the trust region restart against the new workload regime).
    epoch: u64,
    /// Recovery counters at the start of the current epoch — the per-epoch
    /// view is `env.recovery_stats().since(&epoch_base)`.
    epoch_base: RecoveryStats,
    seen_drifts: u64,
    /// (drift, rollback, epoch) counts already absorbed into the daemon's
    /// service-wide counters; see `take_status_deltas`.
    reported: (u64, u64, u64),
}

impl TuningSession {
    /// Opens a session: builds the instance, measures the baseline under
    /// the default configuration, fingerprints it, and warm-starts from
    /// the registry when allowed and a near-enough entry exists.
    ///
    /// A warm start no longer clones the matched weights: the session
    /// borrows the registry's resident snapshot (`Arc`) and serves its
    /// actor forwards through `serving`, the shared tier, until its first
    /// online gradient update forks a private copy. Each warm start also
    /// evicts the tier's policies for registry entries since superseded.
    #[allow(clippy::too_many_arguments)] // the benchmark links this signature
    pub fn create(
        id: u64,
        spec: EnvSpec,
        max_steps: usize,
        allow_warm_start: bool,
        safe: bool,
        registry: &ModelRegistry,
        max_distance: f64,
        serving: &Arc<PolicyServer>,
        telemetry: &Telemetry,
    ) -> Result<Self, String> {
        let mut env = spec.build()?;
        let defaults = env.engine().registry().default_config();
        env.try_reset_episode(defaults)
            .map_err(|e| format!("baseline unmeasurable: {e}"))?;
        let fingerprint = WorkloadFingerprint::measure(&spec, &env);

        let hit = if allow_warm_start {
            registry.lookup(&fingerprint, env.space().indices(), max_distance)
        } else {
            None
        };
        let cfg = OnlineConfig {
            max_steps,
            seed: spec.seed,
            safety: safe.then(SafetyConfig::default),
            ..OnlineConfig::default()
        };
        let (mut inner, warm_start, registry_distance, warm_action) = match hit {
            Some(m) => {
                serving.ensure(m.entry.id, &m.entry.model);
                serving.retain(&registry.ids());
                let tier: Arc<dyn SharedPolicy> = Arc::clone(serving) as Arc<dyn SharedPolicy>;
                let inner = OnlineSession::begin_shared(
                    &mut env,
                    Arc::clone(&m.entry.model),
                    &cfg,
                    Some((m.entry.id, tier)),
                );
                (inner, true, m.distance, Some(m.entry.best_action))
            }
            None => {
                let model = Arc::new(TrainedModel::cold(
                    env.space().indices().to_vec(),
                    *env.reward_config(),
                    spec.seed,
                ));
                (OnlineSession::begin_shared(&mut env, model, &cfg, None), false, 0.0, None)
            }
        };
        if let Some(action) = warm_action {
            inner.set_warm_action(action);
        }
        telemetry.emit(&TraceEvent::SessionOpen {
            session: id,
            workload: spec.workload.label().to_ascii_lowercase(),
            knobs: env.space().dim() as u64,
            warm_start,
            registry_distance,
        });
        let epoch_base = *env.recovery_stats();
        Ok(Self {
            id,
            spec,
            env,
            inner: Some(inner),
            fingerprint,
            warm_start,
            registry_distance,
            telemetry: telemetry.clone(),
            epoch: 0,
            epoch_base,
            seen_drifts: 0,
            reported: (0, 0, 0),
        })
    }

    /// Session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The spec the session was created with.
    pub fn spec(&self) -> &EnvSpec {
        &self.spec
    }

    /// The session warm-started from a registry entry.
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// True while the session still serves from the shared snapshot (no
    /// private weight copy has been forked yet).
    pub fn shares_model(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.shares_model())
    }

    /// Fingerprint distance to the chosen registry entry (0 when cold).
    pub fn registry_distance(&self) -> f64 {
        self.registry_distance
    }

    /// The session's workload fingerprint.
    pub fn fingerprint(&self) -> &WorkloadFingerprint {
        &self.fingerprint
    }

    /// Baseline metrics under the default configuration.
    pub fn initial_perf(&self) -> PerfMetrics {
        self.inner.as_ref().map(|s| s.initial_perf()).unwrap_or_default()
    }

    /// Best metrics observed so far.
    pub fn best_perf(&self) -> PerfMetrics {
        self.inner.as_ref().map(|s| s.best_perf()).unwrap_or_default()
    }

    /// Tuning steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.steps_taken())
    }

    /// True once the step budget is exhausted (or the session aborted).
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            Some(s) => s.is_finished(),
            None => true,
        }
    }

    /// Throughput gain of the current best over the baseline.
    pub fn throughput_gain(&self) -> f64 {
        let initial = self.initial_perf().throughput_tps;
        if initial <= 0.0 {
            0.0
        } else {
            self.best_perf().throughput_tps / initial - 1.0
        }
    }

    /// Knobs the current best configuration changes from the defaults.
    pub fn changed_knobs(&self) -> usize {
        match &self.inner {
            Some(s) => {
                let defaults = self.env.engine().registry().default_config();
                s.best_config().diff(&defaults).len()
            }
            None => 0,
        }
    }

    /// Advances the session one tuning step; `None` once finished. When
    /// the step's drift detector fired, the session enters a new re-tune
    /// epoch: recovery accounting restarts from the current counters while
    /// the tuner (whose trust region has already re-opened around the
    /// last safe configuration) adapts to the new workload regime.
    pub fn step(&mut self) -> Option<OnlineStep> {
        let inner = self.inner.as_mut()?;
        let out = inner.step(&mut self.env);
        let drifts = inner.drift_detections();
        if drifts > self.seen_drifts {
            self.seen_drifts = drifts;
            self.epoch += 1;
            self.epoch_base = *self.env.recovery_stats();
        }
        out
    }

    /// Workload-drift detections so far (0 when `safe` is off).
    pub fn drift_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.drift_detections())
    }

    /// Recovery rollbacks over the whole session — crash-triggered and
    /// safety-triggered alike.
    pub fn rollbacks(&self) -> u64 {
        self.env.recovery_stats().rollbacks
    }

    /// Re-tune epochs entered after drift detections.
    pub fn retune_epochs(&self) -> u64 {
        self.epoch
    }

    /// Recovery counters accumulated in the current re-tune epoch.
    pub fn recovery_epoch(&self) -> RecoveryStats {
        self.env.recovery_stats().since(&self.epoch_base)
    }

    /// Counter increases since the last call, for the daemon's
    /// service-wide totals: `(drift_events, rollbacks, retune_epochs)`.
    pub fn take_status_deltas(&mut self) -> (u64, u64, u64) {
        let now = (self.drift_events(), self.rollbacks(), self.retune_epochs());
        let delta = (
            now.0.saturating_sub(self.reported.0),
            now.1.saturating_sub(self.reported.1),
            now.2.saturating_sub(self.reported.2),
        );
        self.reported = now;
        delta
    }

    /// Persists the live session as a training checkpoint under
    /// `dir/session-<id>/checkpoint.json` (the shutdown drain path).
    pub fn drain_checkpoint(&self, dir: &str) -> std::io::Result<()> {
        let Some(inner) = self.inner.as_ref() else {
            return Ok(());
        };
        let ck = inner.drain_checkpoint(&self.env);
        let subdir = std::path::Path::new(dir).join(format!("session-{}", self.id));
        ck.save_atomic(&subdir.to_string_lossy())
    }

    /// Closes the session: finishes the online tuner, publishes the
    /// fine-tuned model to the registry when the session measured at least
    /// one healthy step, and emits the `session_close` telemetry bracket.
    /// `drained` marks closes forced by daemon shutdown.
    pub fn close(mut self, registry: &ModelRegistry, drained: bool) -> SessionOutcome {
        // lint:allow(panic) reason=inner is Some from construction until close(), which consumes self
        let inner = self.inner.take().expect("close runs once");
        let mut outcome = inner.finish(&mut self.env);
        // The environment lives exactly as long as the session, so its
        // lifetime counters ARE the session-cumulative recovery stats —
        // including retries spent measuring the baseline before the online
        // loop began, which the loop-relative delta in `finish` drops.
        outcome.recovery = *self.env.recovery_stats();
        let measured_steps =
            outcome.steps.iter().filter(|s| !s.crashed && !s.degraded).count();
        let mut published = false;
        if measured_steps > 0 {
            let best_action = self.env.space().from_config(&outcome.best_config);
            published = registry
                .publish(
                    self.fingerprint.clone(),
                    outcome.updated_model.clone(),
                    best_action,
                    outcome.best_perf.throughput_tps,
                    outcome.steps.len(),
                )
                .is_ok();
        }
        self.telemetry.emit(&TraceEvent::SessionClose {
            session: self.id,
            steps: outcome.steps.len() as u64,
            best_tps: outcome.best_perf.throughput_tps,
            drained,
            published,
        });
        SessionOutcome { id: self.id, steps: outcome.steps.len(), published, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdbtune::TraceLevel;
    use workload::WorkloadKind;

    fn tiny_spec(seed: u64) -> EnvSpec {
        EnvSpec {
            workload: WorkloadKind::SysbenchRw,
            scale: 0.003,
            knobs: 6,
            seed,
            warmup_txns: 10,
            measure_txns: 60,
            horizon: 8,
            ..EnvSpec::default()
        }
    }

    fn tiny_tier() -> Arc<PolicyServer> {
        PolicyServer::new()
    }

    #[test]
    fn cold_session_runs_to_budget_and_publishes() {
        let registry = ModelRegistry::in_memory();
        let telemetry = Telemetry::ring(32, TraceLevel::Summary);
        let mut s = TuningSession::create(
            1,
            tiny_spec(7),
            3,
            true,
            false,
            &registry,
            0.25,
            &tiny_tier(),
            &telemetry,
        )
        .expect("session opens");
        assert!(!s.warm_start(), "empty registry cannot warm-start");
        assert!(s.initial_perf().throughput_tps > 0.0);
        let mut steps = 0;
        while s.step().is_some() {
            steps += 1;
        }
        assert_eq!(steps, 3);
        assert!(s.is_finished());
        assert!(s.throughput_gain() >= 0.0);
        let out = s.close(&registry, false);
        assert_eq!(out.steps, 3);
        assert!(out.published, "healthy session publishes its model");
        assert_eq!(registry.len(), 1);
        let events = telemetry.drain_ring();
        let tags: Vec<&str> = events.iter().map(TraceEvent::type_tag).collect();
        assert_eq!(tags, ["session_open", "session_close"]);
    }

    #[test]
    fn near_identical_spec_warm_starts_from_the_registry() {
        let registry = ModelRegistry::in_memory();
        let telemetry = Telemetry::null();
        let mut first =
            TuningSession::create(1, tiny_spec(7), 3, true, false, &registry, 0.25, &tiny_tier(), &telemetry)
                .expect("first session opens");
        while first.step().is_some() {}
        let _ = first.close(&registry, false);

        // Same shape, different seed: close fingerprint, must warm-start.
        let second =
            TuningSession::create(2, tiny_spec(8), 3, true, false, &registry, 0.25, &tiny_tier(), &telemetry)
                .expect("second session opens");
        assert!(second.warm_start(), "near-identical fingerprint must hit the registry");
        assert!(second.registry_distance() < 0.25);

        // warm_start=false forces a cold start even with a perfect match.
        let forced_cold =
            TuningSession::create(3, tiny_spec(9), 3, false, false, &registry, 0.25, &tiny_tier(), &telemetry)
                .expect("cold session opens");
        assert!(!forced_cold.warm_start());
    }

    #[test]
    fn k_warm_sessions_borrow_one_snapshot_until_they_fine_tune() {
        let registry = ModelRegistry::in_memory();
        let telemetry = Telemetry::null();
        let tier = tiny_tier();
        let mut seeder =
            TuningSession::create(1, tiny_spec(7), 3, true, false, &registry, 0.25, &tier, &telemetry)
                .expect("seeder session opens");
        while seeder.step().is_some() {}
        let _ = seeder.close(&registry, false);
        assert_eq!(registry.len(), 1);

        // K warm sessions: all borrow the SAME resident snapshot — weight
        // memory is O(1) in the session count, not O(K).
        let sessions: Vec<TuningSession> = (0..3u64)
            .map(|k| {
                TuningSession::create(
                    10 + k,
                    tiny_spec(20 + k),
                    3,
                    true,
                    false,
                    &registry,
                    0.25,
                    &tier,
                    &telemetry,
                )
                .expect("warm session opens")
            })
            .collect();
        for s in &sessions {
            assert!(s.warm_start());
            assert!(s.shares_model(), "no private weights before the first update");
        }
        let models: Vec<&Arc<TrainedModel>> = sessions
            .iter()
            .map(|s| s.inner.as_ref().expect("live session").model().expect("shared"))
            .collect();
        for pair in models.windows(2) {
            assert!(Arc::ptr_eq(pair[0], pair[1]), "warm sessions must share one snapshot");
        }
        // References: the registry's entry + one per session. No copies.
        assert_eq!(Arc::strong_count(models[0]), 1 + sessions.len());

        // Stepping to the fine-tune threshold forks a private copy; the
        // shared snapshot itself stays immutable and stays resident.
        let mut tuned = sessions.into_iter().next().expect("one session");
        while tuned.step().is_some() {}
        assert!(!tuned.shares_model(), "fine-tuning must fork a private copy");
        let stats = tier.stats();
        assert!(stats.rows > 0, "pre-fork forwards must ride the shared tier");
        tier.shutdown();
    }

    #[test]
    fn superseded_registry_entries_leave_the_serving_tier() {
        let registry = ModelRegistry::in_memory();
        let telemetry = Telemetry::null();
        let tier = tiny_tier();
        let open = |id: u64| {
            TuningSession::create(id, tiny_spec(7), 3, true, false, &registry, 0.25, &tier, &telemetry)
                .expect("session opens")
        };
        let mut seeder = open(1);
        while seeder.step().is_some() {}
        let fingerprint = seeder.fingerprint().clone();
        let seeded = seeder.close(&registry, false).outcome;
        // Each round warm-starts a session off the live entry (registering
        // its id with the tier), then a publish that beats the entry
        // replaces it under a fresh id.
        for round in 1..=5u32 {
            assert!(open(10 + u64::from(round)).warm_start());
            assert!(
                tier.versions().len() <= registry.len(),
                "round {round}: tier holds {:?} for {} live entries",
                tier.versions(),
                registry.len()
            );
            let tps = seeded.best_perf.throughput_tps * f64::from(1 + round);
            registry
                .publish(fingerprint.clone(), seeded.updated_model.clone(), vec![0.5; 6], tps, 3)
                .expect("in-memory publish");
            assert_eq!(registry.len(), 1, "a better near-duplicate replaces, never appends");
        }
    }

    #[test]
    fn safe_session_runs_and_status_deltas_drain_exactly_once() {
        let registry = ModelRegistry::in_memory();
        let mut s = TuningSession::create(
            4,
            tiny_spec(11),
            3,
            false,
            true,
            &registry,
            0.25,
            &tiny_tier(),
            &Telemetry::null(),
        )
        .expect("safe session opens");
        while s.step().is_some() {}
        let totals = (s.drift_events(), s.rollbacks(), s.retune_epochs());
        let first = s.take_status_deltas();
        assert_eq!(first, totals, "first drain reports everything");
        assert_eq!(s.take_status_deltas(), (0, 0, 0), "second drain is empty");
        // Per-epoch recovery never exceeds the session-cumulative view.
        assert!(s.recovery_epoch().rollbacks <= s.env.recovery_stats().rollbacks);
        let out = s.close(&registry, false);
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn faulty_spec_sessions_report_session_cumulative_recovery() {
        // The spec's fault plan rides into the engine, and the outcome's
        // recovery counters cover the whole session — including retries
        // spent measuring the baseline, which predate the online loop.
        let registry = ModelRegistry::in_memory();
        let spec = EnvSpec {
            faults: Some("restart=0.5,seed=3".into()),
            ..tiny_spec(13)
        };
        let mut s = TuningSession::create(
            5,
            spec,
            3,
            false,
            false,
            &registry,
            0.25,
            &tiny_tier(),
            &Telemetry::null(),
        )
        .expect("faulty session opens");
        let baseline_retries = s.env.recovery_stats().retries;
        while s.step().is_some() {}
        let out = s.close(&registry, false);
        assert!(
            out.outcome.recovery.retries >= baseline_retries,
            "cumulative accounting keeps the baseline's {baseline_retries} retries"
        );
        assert!(
            out.outcome.recovery.retries > 0,
            "a 50% deploy-failure plan must force at least one retry"
        );
    }

    #[test]
    fn degenerate_spec_is_a_typed_create_error() {
        let registry = ModelRegistry::in_memory();
        let err = match TuningSession::create(
            1,
            EnvSpec { knobs: 0, ..tiny_spec(7) },
            3,
            true,
            false,
            &registry,
            0.25,
            &tiny_tier(),
            &Telemetry::null(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("0 knobs cannot open"),
        };
        assert!(err.contains("knobs"), "{err}");
    }
}
