//! The seeded session script the differential tests run two ways: over
//! the wire against a daemon ([`over_the_wire`]) and against a bare
//! [`TuningSession`] with no socket, reactor or shard worker in between
//! ([`in_process`]).
//!
//! The reactor's unit tests and `tests/service_e2e.rs` require the two to
//! agree byte for byte: framing, sharding, the worker hand-off and the
//! session → [`Response`] mapping must not perturb what a client sees.
//! Public only because integration tests link the crate from outside.

use crate::batcher::PolicyServer;
use crate::client::Client;
use crate::proto::{Request, Response};
use crate::reactor::ServiceConfig;
use crate::registry::ModelRegistry;
use crate::session::TuningSession;
use cdbtune::{EnvSpec, Telemetry};
use std::net::SocketAddr;
use std::time::Duration;

/// Runs the script — one cold, unguarded session, `steps` steps,
/// recommend, close — on a fresh connection to the daemon at `addr` and
/// returns every response re-encoded as its wire line.
pub fn over_the_wire(
    addr: SocketAddr,
    spec: &EnvSpec,
    max_steps: usize,
    steps: usize,
) -> Result<Vec<String>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.set_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("timeout: {e}"))?;
    let mut requests = vec![Request::CreateSession {
        spec: spec.clone(),
        max_steps,
        warm_start: false,
        safe: false,
        tenant: None,
    }];
    requests.extend((0..steps).map(|_| Request::Step));
    requests.extend([Request::Recommend, Request::CloseSession]);
    requests.iter().map(|req| Ok(client.request(req)?.to_json_line())).collect()
}

/// What a freshly booted default-configured daemon owes the client for
/// the same script run once per spec, in order: a cold in-memory registry
/// and session ids counting from 1, both carried from one script to the
/// next so a later close sees the earlier publishes.
pub fn in_process(
    specs: &[EnvSpec],
    max_steps: usize,
    steps: usize,
) -> Result<Vec<Vec<String>>, String> {
    let cfg = ServiceConfig::default();
    let registry = ModelRegistry::in_memory();
    let serving = PolicyServer::new();
    let scripts = specs
        .iter()
        .zip(1u64..)
        .map(|(spec, id)| {
            let mut s = TuningSession::create(
                id,
                spec.clone(),
                max_steps,
                false,
                false,
                &registry,
                cfg.max_distance,
                &serving,
                &Telemetry::null(),
            )?;
            let initial = s.initial_perf();
            let mut lines = vec![Response::SessionCreated {
                session: id,
                warm_start: s.warm_start(),
                registry_distance: s.registry_distance(),
                baseline_tps: initial.throughput_tps,
                baseline_p99_us: initial.p99_latency_us,
            }];
            for _ in 0..steps {
                let step = s.step().ok_or("the script steps past max_steps")?;
                lines.push(Response::StepDone {
                    session: s.id(),
                    step: step.step as u64,
                    throughput_tps: step.throughput_tps,
                    p99_latency_us: step.p99_latency_us,
                    reward: step.reward,
                    crashed: step.crashed,
                    degraded: step.degraded,
                    finished: s.is_finished(),
                });
            }
            lines.push(Response::Recommendation {
                session: s.id(),
                best_tps: s.best_perf().throughput_tps,
                best_p99_us: s.best_perf().p99_latency_us,
                throughput_gain: s.throughput_gain(),
                changed_knobs: s.changed_knobs() as u64,
                steps: s.steps_taken() as u64,
                drift_events: s.drift_events(),
                rollbacks: s.rollbacks(),
                retune_epochs: s.retune_epochs(),
                epoch_rollbacks: s.recovery_epoch().rollbacks,
            });
            let out = s.close(&registry, false);
            lines.push(Response::Closed {
                session: out.id,
                steps: out.steps as u64,
                published: out.published,
                drained: false,
            });
            Ok(lines.iter().map(Response::to_json_line).collect())
        })
        .collect();
    serving.shutdown();
    scripts
}
