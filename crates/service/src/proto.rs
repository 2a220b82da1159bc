//! The `cdbtuned` wire protocol: JSONL over TCP.
//!
//! One JSON object per line in each direction, versioned exactly like the
//! telemetry schema: every line carries `"v"` (the protocol version) and
//! `"type"` (the variant tag). Adding fields is a compatible change —
//! readers default missing fields; lines with `v` greater than
//! [`PROTO_VERSION`] are rejected so an old daemon never mis-parses a
//! newer client.
//!
//! A [`Response`] is declared once, in its `line_enum!` table
//! ([`cdbtune::jsonio`]), which generates the tag, the writer and the
//! reader. A [`Request`] is written out by hand, because decoding one is
//! policy as much as schema: spec defaults come from [`EnvSpec::default`],
//! a zero `max_steps` means the paper's 5, an empty tenant means none, and
//! a spec integer that does not fit its field is an error, not a wrapped
//! value. A `u64` from 2^53 on (a seed) travels as a decimal string.
//!
//! A connection serves at most one session: `create_session` opens it,
//! `step` advances it, `recommend` reads the best configuration found,
//! `close_session` ends it (publishing the fine-tuned model to the
//! registry). `status` and `shutdown` need no session.

use cdbtune::jsonio::{Json, LineField, Obj};
use cdbtune::persist::{field, PersistError};
use cdbtune::{line_enum, EnvSpec};
use simdb::EngineFlavor;
use workload::WorkloadKind;

/// Wire-protocol version stamped on (and checked against) every line.
pub const PROTO_VERSION: u64 = 1;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the connection's session against a freshly built instance.
    CreateSession {
        /// The instance/workload the session tunes.
        spec: EnvSpec,
        /// Online tuning step budget (the paper's default is 5).
        max_steps: usize,
        /// Allow warm-starting from the model registry (`false` forces a
        /// cold start — used by the warm-vs-cold comparison).
        warm_start: bool,
        /// Enable the safe-tuning layer for this session: trust-region
        /// clamping, drift detection, and automatic rollback. Absent on
        /// the wire means `false` (unguarded, the pre-safety behaviour).
        safe: bool,
        /// Tenant token for per-tenant quotas and fairness in the
        /// events runtime. Absent means anonymous/uncapped.
        tenant: Option<String>,
    },
    /// Advances the session by one tuning step.
    Step,
    /// Service-level counters (no session required).
    Status,
    /// The session's current recommendation.
    Recommend,
    /// Closes the session, publishing the fine-tuned model.
    CloseSession,
    /// Asks the daemon to drain and exit (tests and orchestration).
    Shutdown,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open and its baseline is measured.
    SessionCreated {
        /// Server-assigned session id.
        session: u64,
        /// The session warm-started from a registry entry.
        warm_start: bool,
        /// Fingerprint distance to the chosen entry (0 when cold).
        registry_distance: f64,
        /// Baseline throughput under the default configuration (txn/s).
        baseline_tps: f64,
        /// Baseline p99 latency (µs).
        baseline_p99_us: f64,
    },
    /// One tuning step completed.
    StepDone {
        /// Session id.
        session: u64,
        /// 1-based step index.
        step: u64,
        /// Measured throughput after deploying the recommendation.
        throughput_tps: f64,
        /// Measured p99 latency (µs).
        p99_latency_us: f64,
        /// Step reward.
        reward: f64,
        /// The recommendation crashed the instance.
        crashed: bool,
        /// The step could not be measured (infrastructure failure).
        degraded: bool,
        /// No further steps remain (budget, satisfaction, or abort).
        finished: bool,
    },
    /// Service-level counters.
    ServiceStatus {
        /// Sessions currently open.
        active_sessions: u64,
        /// Sessions opened since boot.
        total_sessions: u64,
        /// Connections waiting in the admission queue.
        queue_depth: u64,
        /// Workers currently serving a connection.
        busy_workers: u64,
        /// Sessions that warm-started from the registry.
        warm_hits: u64,
        /// Sessions that cold-started.
        warm_misses: u64,
        /// Connections rejected by the bounded queue.
        rejected: u64,
        /// Models currently in the registry.
        registry_len: u64,
        /// The daemon is draining toward shutdown.
        draining: bool,
        /// Workload-drift detections across all sessions.
        drift_events: u64,
        /// Recovery rollbacks (crash- and safety-triggered) across all
        /// sessions.
        recovery_rollbacks: u64,
        /// Re-tune epochs entered after drift detections, all sessions.
        retune_epochs: u64,
        /// Batched inference passes the shared serving tier executed.
        infer_batches: u64,
        /// Actor-forward rows served across all batched passes.
        infer_rows: u64,
        /// Batches flushed by the deadline rather than by filling up.
        infer_deadline_flushes: u64,
    },
    /// The session's best configuration so far.
    Recommendation {
        /// Session id.
        session: u64,
        /// Best measured throughput (txn/s).
        best_tps: f64,
        /// p99 latency at the best step (µs).
        best_p99_us: f64,
        /// Throughput gain over the baseline (0.25 = +25 %).
        throughput_gain: f64,
        /// Knobs the recommendation changes from the defaults.
        changed_knobs: u64,
        /// Tuning steps taken so far.
        steps: u64,
        /// Workload-drift detections in this session.
        drift_events: u64,
        /// Recovery rollbacks over the whole session — cumulative from
        /// baseline measurement onward, crash- and safety-triggered alike.
        rollbacks: u64,
        /// Re-tune epochs the session entered after drift detections.
        retune_epochs: u64,
        /// Rollbacks within the current re-tune epoch (resets on drift).
        epoch_rollbacks: u64,
    },
    /// The session is closed.
    Closed {
        /// Session id.
        session: u64,
        /// Tuning steps the session took.
        steps: u64,
        /// The fine-tuned model was published to the registry.
        published: bool,
        /// The close was forced by the shutdown drain.
        drained: bool,
    },
    /// Typed backpressure: the bounded admission queue had no room (or the
    /// daemon is draining). The client should retry later or elsewhere.
    Rejected {
        /// `"queue_full"`, `"draining"`, or `"tenant_quota"`.
        reason: String,
        /// Queue depth at decision time.
        queue_depth: u64,
    },
    /// The request failed. Most errors leave the connection usable;
    /// protocol violations (e.g. `frame_too_large`) carry a typed
    /// `code` and are followed by a server-side connection close.
    Error {
        /// Human-readable cause.
        message: String,
        /// Machine-readable error class (`""` for generic errors,
        /// `"frame_too_large"` when an input line overflowed the frame
        /// cap and the connection is being closed).
        code: String,
    },
}

line_enum!(Response {
    SessionCreated "session_created" {
        session, warm_start, registry_distance, baseline_tps, baseline_p99_us,
    },
    StepDone "step_done" {
        session, step, throughput_tps, p99_latency_us, reward, crashed, degraded, finished,
    },
    ServiceStatus "service_status" {
        active_sessions, total_sessions, queue_depth, busy_workers, warm_hits, warm_misses,
        rejected, registry_len, draining, drift_events, recovery_rollbacks, retune_epochs,
        infer_batches, infer_rows, infer_deadline_flushes,
    },
    Recommendation "recommendation" {
        session, best_tps, best_p99_us, throughput_gain, changed_knobs, steps, drift_events,
        rollbacks, retune_epochs, epoch_rollbacks,
    },
    Closed "closed" { session, steps, published, drained },
    Rejected "rejected" { reason, queue_depth },
    Error "error" { message, code ?= "" },
});

fn spec_to_obj(o: &mut Obj, spec: &EnvSpec) {
    o.str("flavor", &spec.flavor.to_string())
        .str("workload", &spec.workload.label().to_ascii_lowercase())
        .u64("ram_gb", u64::from(spec.ram_gb))
        .u64("disk_gb", u64::from(spec.disk_gb))
        .f64("scale", spec.scale)
        .u64("knobs", spec.knobs as u64);
    spec.seed.put(o, "seed");
    o.u64("warmup_txns", spec.warmup_txns as u64)
        .u64("measure_txns", spec.measure_txns as u64)
        .u64("horizon", spec.horizon as u64);
    if let Some(faults) = &spec.faults {
        o.str("faults", faults);
    }
}

fn spec_from_json(j: &Json) -> Result<EnvSpec, String> {
    let d = EnvSpec::default();
    let flavor: EngineFlavor = match j.get("flavor") {
        Some(Json::Str(s)) => s.parse()?,
        _ => d.flavor,
    };
    let workload: WorkloadKind = match j.get("workload") {
        Some(Json::Str(s)) => s.parse()?,
        _ => d.workload,
    };
    // An integer is range-checked, never narrowed: a negative, fractional or
    // too-large value is refused by name, and an absent one is the default.
    let named = |e: PersistError| format!("spec {e}");
    Ok(EnvSpec {
        flavor,
        workload,
        ram_gb: field(j, "ram_gb", Some(d.ram_gb)).map_err(named)?,
        disk_gb: field(j, "disk_gb", Some(d.disk_gb)).map_err(named)?,
        scale: if j.get("scale").is_some() { j.num("scale") } else { d.scale },
        knobs: field(j, "knobs", Some(d.knobs)).map_err(named)?,
        seed: field(j, "seed", Some(d.seed)).map_err(named)?,
        warmup_txns: field(j, "warmup_txns", Some(d.warmup_txns)).map_err(named)?,
        measure_txns: field(j, "measure_txns", Some(d.measure_txns)).map_err(named)?,
        horizon: field(j, "horizon", Some(d.horizon)).map_err(named)?,
        faults: match j.get("faults") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => d.faults,
        },
    })
}

fn versioned(type_tag: &str) -> Obj {
    let mut o = Obj::new();
    o.u64("v", PROTO_VERSION).str("type", type_tag);
    o
}

fn check_version(j: &Json) -> Result<(), String> {
    let v = j.u64("v");
    if v == 0 {
        return Err("line is missing the protocol version field 'v'".into());
    }
    if v > PROTO_VERSION {
        return Err(format!(
            "line has protocol version {v} but this build understands <= {PROTO_VERSION}"
        ));
    }
    Ok(())
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            Request::CreateSession { spec, max_steps, warm_start, safe, tenant } => {
                let mut o = versioned("create_session");
                o.obj("spec", |s| spec_to_obj(s, spec));
                // From 2^53 on a decimal string: a bare number would round.
                (*max_steps as u64).put(&mut o, "max_steps");
                o.bool("warm_start", *warm_start).bool("safe", *safe);
                if let Some(t) = tenant {
                    o.str("tenant", t);
                }
                o.finish()
            }
            Request::Step => versioned("step").finish(),
            Request::Status => versioned("status").finish(),
            Request::Recommend => versioned("recommend").finish(),
            Request::CloseSession => versioned("close_session").finish(),
            Request::Shutdown => versioned("shutdown").finish(),
        }
    }

    /// Decodes one JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let j = Json::parse(line)?;
        check_version(&j)?;
        match j.string("type").as_str() {
            "create_session" => {
                let spec = match j.get("spec") {
                    Some(spec) => spec_from_json(spec)?,
                    None => return Err("create_session is missing 'spec'".into()),
                };
                let max_steps = u64::take(&j, "max_steps") as usize;
                let tenant = match j.get("tenant") {
                    Some(Json::Str(s)) if !s.is_empty() => Some(s.clone()),
                    _ => None,
                };
                Ok(Request::CreateSession {
                    spec,
                    max_steps: if max_steps == 0 { 5 } else { max_steps },
                    warm_start: j.boolean("warm_start"),
                    safe: j.boolean("safe"),
                    tenant,
                })
            }
            "step" => Ok(Request::Step),
            "status" => Ok(Request::Status),
            "recommend" => Ok(Request::Recommend),
            "close_session" => Ok(Request::CloseSession),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type '{other}'")),
        }
    }
}

impl Response {
    /// A generic (untyped) error that leaves the connection usable.
    pub fn err(message: impl Into<String>) -> Self {
        Response::Error { message: message.into(), code: String::new() }
    }

    /// The typed `frame_too_large` protocol violation; the server closes
    /// the connection after sending this.
    pub fn frame_too_large(buffered: usize, limit: usize) -> Self {
        Response::Error {
            message: format!("input line of {buffered}+ bytes exceeds the {limit}-byte frame cap"),
            code: "frame_too_large".into(),
        }
    }

    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = versioned(self.type_tag());
        self.put_fields(&mut o);
        o.finish()
    }

    /// Decodes one JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let j = Json::parse(line)?;
        check_version(&j)?;
        let tag = j.string("type");
        Self::take_fields(&tag, &j).ok_or_else(|| format!("unknown response type '{tag}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn sample_spec() -> EnvSpec {
        EnvSpec {
            flavor: EngineFlavor::Postgres,
            workload: WorkloadKind::TpcC,
            ram_gb: 2,
            disk_gb: 25,
            scale: 0.05,
            knobs: 8,
            seed: 9,
            warmup_txns: 30,
            measure_txns: 120,
            horizon: 10,
            faults: Some("straggler=0.5x3,seed=1".into()),
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::CreateSession {
                spec: sample_spec(),
                max_steps: 4,
                warm_start: true,
                safe: true,
                tenant: Some("acme-prod".into()),
            },
            Request::CreateSession {
                spec: sample_spec(),
                max_steps: 4,
                warm_start: false,
                safe: false,
                tenant: None,
            },
            Request::Step,
            Request::Status,
            Request::Recommend,
            Request::CloseSession,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.to_json_line();
            assert!(line.contains("\"v\":1"), "unversioned line: {line}");
            assert_eq!(Request::from_json_line(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::SessionCreated {
                session: 3,
                warm_start: true,
                registry_distance: 0.04,
                baseline_tps: 5100.0,
                baseline_p99_us: 9000.5,
            },
            Response::StepDone {
                session: 3,
                step: 2,
                throughput_tps: 6200.0,
                p99_latency_us: 7800.25,
                reward: 0.31,
                crashed: false,
                degraded: true,
                finished: false,
            },
            Response::ServiceStatus {
                active_sessions: 2,
                total_sessions: 11,
                queue_depth: 1,
                busy_workers: 2,
                warm_hits: 4,
                warm_misses: 7,
                rejected: 3,
                registry_len: 5,
                draining: false,
                drift_events: 2,
                recovery_rollbacks: 1,
                retune_epochs: 2,
                infer_batches: 9,
                infer_rows: 40,
                infer_deadline_flushes: 3,
            },
            Response::Recommendation {
                session: 3,
                best_tps: 6200.0,
                best_p99_us: 7800.25,
                throughput_gain: 0.21,
                changed_knobs: 6,
                steps: 4,
                drift_events: 1,
                rollbacks: 2,
                retune_epochs: 1,
                epoch_rollbacks: 0,
            },
            Response::Closed { session: 3, steps: 4, published: true, drained: false },
            Response::Rejected { reason: "queue_full".into(), queue_depth: 4 },
            Response::Rejected { reason: "tenant_quota".into(), queue_depth: 0 },
            Response::err("no open session"),
            Response::frame_too_large(70000, 65536),
        ];
        for resp in responses {
            let line = resp.to_json_line();
            assert_eq!(Response::from_json_line(&line).unwrap(), resp, "{line}");
        }
    }

    /// The round-trip tests' requests beside the bytes the hand-written
    /// encoder wrote for them.
    fn request_lines() -> Vec<(Request, String)> {
        let spec = r#""spec":{"flavor":"postgres","workload":"tpc-c","ram_gb":2,"disk_gb":25,"scale":0.05,"knobs":8,"seed":9,"warmup_txns":30,"measure_txns":120,"horizon":10,"faults":"straggler=0.5x3,seed=1"}"#;
        let create = |warm_start, safe, tenant: Option<&str>| Request::CreateSession {
            spec: sample_spec(),
            max_steps: 4,
            warm_start,
            safe,
            tenant: tenant.map(String::from),
        };
        vec![
            (
                create(true, true, Some("acme-prod")),
                format!(
                    r#"{{"v":1,"type":"create_session",{spec},"max_steps":4,"warm_start":true,"safe":true,"tenant":"acme-prod"}}"#
                ),
            ),
            (
                create(false, false, None),
                format!(
                    r#"{{"v":1,"type":"create_session",{spec},"max_steps":4,"warm_start":false,"safe":false}}"#
                ),
            ),
            (Request::Step, r#"{"v":1,"type":"step"}"#.into()),
            (Request::Status, r#"{"v":1,"type":"status"}"#.into()),
            (Request::Recommend, r#"{"v":1,"type":"recommend"}"#.into()),
            (Request::CloseSession, r#"{"v":1,"type":"close_session"}"#.into()),
            (Request::Shutdown, r#"{"v":1,"type":"shutdown"}"#.into()),
        ]
    }

    /// The round-trip tests' responses beside the bytes the hand-written
    /// encoder wrote for them.
    fn response_lines() -> Vec<(Response, &'static str)> {
        vec![
            (
                Response::SessionCreated {
                    session: 3,
                    warm_start: true,
                    registry_distance: 0.04,
                    baseline_tps: 5100.0,
                    baseline_p99_us: 9000.5,
                },
                r#"{"v":1,"type":"session_created","session":3,"warm_start":true,"registry_distance":0.04,"baseline_tps":5100.0,"baseline_p99_us":9000.5}"#,
            ),
            (
                Response::StepDone {
                    session: 3,
                    step: 2,
                    throughput_tps: 6200.0,
                    p99_latency_us: 7800.25,
                    reward: 0.31,
                    crashed: false,
                    degraded: true,
                    finished: false,
                },
                r#"{"v":1,"type":"step_done","session":3,"step":2,"throughput_tps":6200.0,"p99_latency_us":7800.25,"reward":0.31,"crashed":false,"degraded":true,"finished":false}"#,
            ),
            (
                Response::ServiceStatus {
                    active_sessions: 2,
                    total_sessions: 11,
                    queue_depth: 1,
                    busy_workers: 2,
                    warm_hits: 4,
                    warm_misses: 7,
                    rejected: 3,
                    registry_len: 5,
                    draining: false,
                    drift_events: 2,
                    recovery_rollbacks: 1,
                    retune_epochs: 2,
                    infer_batches: 9,
                    infer_rows: 40,
                    infer_deadline_flushes: 3,
                },
                r#"{"v":1,"type":"service_status","active_sessions":2,"total_sessions":11,"queue_depth":1,"busy_workers":2,"warm_hits":4,"warm_misses":7,"rejected":3,"registry_len":5,"draining":false,"drift_events":2,"recovery_rollbacks":1,"retune_epochs":2,"infer_batches":9,"infer_rows":40,"infer_deadline_flushes":3}"#,
            ),
            (
                Response::Recommendation {
                    session: 3,
                    best_tps: 6200.0,
                    best_p99_us: 7800.25,
                    throughput_gain: 0.21,
                    changed_knobs: 6,
                    steps: 4,
                    drift_events: 1,
                    rollbacks: 2,
                    retune_epochs: 1,
                    epoch_rollbacks: 0,
                },
                r#"{"v":1,"type":"recommendation","session":3,"best_tps":6200.0,"best_p99_us":7800.25,"throughput_gain":0.21,"changed_knobs":6,"steps":4,"drift_events":1,"rollbacks":2,"retune_epochs":1,"epoch_rollbacks":0}"#,
            ),
            (
                Response::Closed { session: 3, steps: 4, published: true, drained: false },
                r#"{"v":1,"type":"closed","session":3,"steps":4,"published":true,"drained":false}"#,
            ),
            (
                Response::Rejected { reason: "queue_full".into(), queue_depth: 4 },
                r#"{"v":1,"type":"rejected","reason":"queue_full","queue_depth":4}"#,
            ),
            (
                Response::Rejected { reason: "tenant_quota".into(), queue_depth: 0 },
                r#"{"v":1,"type":"rejected","reason":"tenant_quota","queue_depth":0}"#,
            ),
            (
                Response::err("no open session"),
                r#"{"v":1,"type":"error","message":"no open session"}"#,
            ),
            (
                Response::frame_too_large(70000, 65536),
                r#"{"v":1,"type":"error","message":"input line of 70000+ bytes exceeds the 65536-byte frame cap","code":"frame_too_large"}"#,
            ),
        ]
    }

    /// How the protocol is declared may change, the lines may not.
    #[test]
    fn wire_lines_are_byte_identical() {
        for (req, line) in request_lines() {
            assert_eq!(req.to_json_line(), line);
        }
        for (resp, line) in response_lines() {
            assert_eq!(resp.to_json_line(), line);
        }
    }

    /// `line` after one to three seeded byte mutations: a bit flip, an
    /// inserted byte (JSON punctuation half the time), a deleted byte, a
    /// truncation or a duplicated span.
    fn mutate(line: &str, rng: &mut StdRng) -> String {
        let mut b = line.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=3u32) {
            let at = rng.gen_range(0..=b.len());
            match rng.gen_range(0..5u32) {
                0 if at < b.len() => b[at] ^= 1 << rng.gen_range(0..8u32),
                1 => {
                    let punct = br#"{}[]",:-.0e\"#;
                    let byte =
                        if rng.gen() { punct[rng.gen_range(0..punct.len())] } else { rng.gen() };
                    b.insert(at, byte);
                }
                2 if at < b.len() => {
                    b.remove(at);
                }
                3 => b.truncate(at),
                _ => {
                    let end = rng.gen_range(at..=b.len());
                    let span = b[at..end].to_vec();
                    b.splice(at..at, span);
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    /// Seeded decode fuzz over the wire lines above: no mutation may panic
    /// either decoder or the JSON parser under them. A failure prints the
    /// case number, the generator's seed.
    #[test]
    fn mutated_wire_lines_never_panic_the_decoders() {
        let lines: Vec<String> = request_lines()
            .into_iter()
            .map(|(_, line)| line)
            .chain(response_lines().into_iter().map(|(_, line)| line.to_string()))
            .collect();
        for case in 0..2048u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let line = mutate(&lines[rng.gen_range(0..lines.len())], &mut rng);
            let run = || {
                let _ = Request::from_json_line(&line);
                let _ = Response::from_json_line(&line);
                let _ = Json::parse(&line);
            };
            if std::panic::catch_unwind(run).is_err() {
                panic!("decode fuzz failed on case {case} (the generator's seed): {line:?}");
            }
        }
    }

    /// A random request of the `variant`-th kind (modulo 6). The wire's
    /// two defaults are left out: a zero budget reads back as the paper's 5
    /// and an empty tenant as none. The spec's integers stay below 2^53,
    /// the range its decoder takes (it refuses a larger one by name).
    fn arbitrary_request(variant: usize, rng: &mut StdRng) -> Request {
        use cdbtune::jsonio::Arbitrary;
        let flavors = [
            EngineFlavor::MySqlCdb,
            EngineFlavor::LocalMySql,
            EngineFlavor::Postgres,
            EngineFlavor::MongoDb,
        ];
        let usize_ = |rng: &mut StdRng| (u64::arbitrary(rng) % (1 << 53)) as usize;
        match variant % 6 {
            0 => Request::CreateSession {
                spec: EnvSpec {
                    flavor: flavors[rng.gen_range(0..flavors.len())],
                    workload: WorkloadKind::ALL[rng.gen_range(0..WorkloadKind::ALL.len())],
                    ram_gb: rng.gen(),
                    disk_gb: rng.gen(),
                    scale: f64::arbitrary(rng),
                    knobs: usize_(rng),
                    seed: u64::arbitrary(rng),
                    warmup_txns: usize_(rng),
                    measure_txns: usize_(rng),
                    horizon: usize_(rng),
                    faults: bool::arbitrary(rng).then(|| String::arbitrary(rng)),
                },
                max_steps: (u64::arbitrary(rng) as usize).max(1),
                warm_start: rng.gen(),
                safe: rng.gen(),
                tenant: Some(String::arbitrary(rng)).filter(|t| !t.is_empty()),
            },
            1 => Request::Step,
            2 => Request::Status,
            3 => Request::Recommend,
            4 => Request::CloseSession,
            _ => Request::Shutdown,
        }
    }

    /// Seeded encode fuzz: random requests and responses of every kind read
    /// back as written. A failure prints the case number, the generator's
    /// seed.
    #[test]
    fn random_wire_messages_round_trip() {
        let (mut requests, mut responses) = (BTreeSet::new(), BTreeSet::new());
        for case in 0..2048u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let req = arbitrary_request(rng.gen_range(0..6), &mut rng);
            let line = req.to_json_line();
            requests.insert(Json::parse(&line).map(|j| j.string("type")).unwrap_or_default());
            assert_eq!(
                Request::from_json_line(&line).as_ref(),
                Ok(&req),
                "encode fuzz failed on case {case} (the generator's seed): {line}"
            );
            let resp = Response::arbitrary(rng.gen_range(0..Response::VARIANTS), &mut rng);
            responses.insert(resp.type_tag());
            let line = resp.to_json_line();
            assert_eq!(
                Response::from_json_line(&line).as_ref(),
                Ok(&resp),
                "encode fuzz failed on case {case} (the generator's seed): {line}"
            );
        }
        assert_eq!(requests.len(), 6, "drawn: {requests:?}");
        assert_eq!(responses.len(), Response::VARIANTS, "drawn: {responses:?}");
    }

    #[test]
    fn nesting_past_64_levels_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(64)).is_ok());
        assert!(Json::parse(&nested(65)).unwrap_err().contains("nesting too deep"));
        // Under a wire line's own object, 64 more levels reach 65.
        let line = format!(r#"{{"v":1,"type":"step","x":{}}}"#, nested(64));
        assert!(Request::from_json_line(&line).unwrap_err().contains("nesting too deep"));
        assert!(Response::from_json_line(&line).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn seeds_from_2_pow_53_round_trip() {
        let spec = EnvSpec { seed: (1 << 53) + 1, ..sample_spec() };
        let req = Request::CreateSession {
            spec,
            max_steps: 4,
            warm_start: false,
            safe: false,
            tenant: None,
        };
        let line = req.to_json_line();
        assert!(line.contains(r#""seed":"9007199254740993""#), "{line}");
        assert_eq!(Request::from_json_line(&line).unwrap(), req);
    }

    /// The error a `create_session` with `spec` (JSON object text) decodes to.
    fn spec_error(spec: &str) -> String {
        let line = format!(r#"{{"v":1,"type":"create_session","spec":{spec}}}"#);
        Request::from_json_line(&line).expect_err(spec)
    }

    #[test]
    fn spec_integers_past_their_range_are_refused_by_name() {
        let err = spec_error(r#"{"ram_gb":4294967298}"#);
        assert!(err.contains("`ram_gb`") && err.contains("out of range"), "{err}");
    }

    #[test]
    fn negative_spec_integers_are_refused_by_name() {
        let err = spec_error(r#"{"knobs":-1}"#);
        assert!(err.contains("`knobs`") && err.contains("out of range"), "{err}");
    }

    #[test]
    fn fractional_spec_integers_are_refused_by_name() {
        let err = spec_error(r#"{"measure_txns":120.5}"#);
        assert!(err.contains("`measure_txns`") && err.contains("out of range"), "{err}");
    }

    #[test]
    fn future_versions_and_junk_are_rejected() {
        let future = "{\"v\":99,\"type\":\"step\"}";
        assert!(Request::from_json_line(future).unwrap_err().contains("version 99"));
        assert!(Request::from_json_line("{\"type\":\"step\"}")
            .unwrap_err()
            .contains("missing the protocol version"));
        assert!(Request::from_json_line("{\"v\":1,\"type\":\"warp\"}").is_err());
        assert!(Response::from_json_line("not json").is_err());
    }

    #[test]
    fn spec_labels_survive_the_wire() {
        // Every flavor/workload pair encodes to labels FromStr accepts.
        for flavor in
            [EngineFlavor::MySqlCdb, EngineFlavor::LocalMySql, EngineFlavor::Postgres, EngineFlavor::MongoDb]
        {
            for workload in WorkloadKind::ALL {
                let spec = EnvSpec { flavor, workload, ..EnvSpec::default() };
                let req = Request::CreateSession {
                    spec,
                    max_steps: 5,
                    warm_start: false,
                    safe: false,
                    tenant: None,
                };
                let back = Request::from_json_line(&req.to_json_line()).unwrap();
                assert_eq!(back, req);
            }
        }
    }

    #[test]
    fn missing_spec_fields_take_defaults() {
        let line = "{\"v\":1,\"type\":\"create_session\",\"spec\":{\"workload\":\"tpcc\"}}";
        let Request::CreateSession { spec, max_steps, warm_start, safe, tenant } =
            Request::from_json_line(line).unwrap()
        else {
            panic!("wrong variant");
        };
        let d = EnvSpec::default();
        assert_eq!(spec.workload, WorkloadKind::TpcC);
        assert_eq!(spec.flavor, d.flavor);
        assert_eq!(spec.knobs, d.knobs);
        assert_eq!(spec.faults, None, "absent faults means healthy infrastructure");
        assert_eq!(max_steps, 5, "absent budget falls back to the paper's 5");
        assert!(!warm_start);
        assert!(!safe, "absent safe flag means the unguarded pre-safety path");
        assert_eq!(tenant, None, "absent tenant token means anonymous/uncapped");
    }

    #[test]
    fn error_code_is_typed_but_optional_on_the_wire() {
        // Old daemons emit errors with no code; they decode as generic.
        let old = "{\"v\":1,\"type\":\"error\",\"message\":\"boom\"}";
        assert_eq!(Response::from_json_line(old).unwrap(), Response::err("boom"));
        // Generic errors do not serialize an empty code field.
        assert!(!Response::err("boom").to_json_line().contains("\"code\""));
        // frame_too_large carries its machine-readable class.
        let line = Response::frame_too_large(99, 64).to_json_line();
        let Response::Error { code, message } = Response::from_json_line(&line).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(code, "frame_too_large");
        assert!(message.contains("99"));
        // Empty tenant strings normalize to anonymous.
        let req = "{\"v\":1,\"type\":\"create_session\",\"spec\":{},\"tenant\":\"\"}";
        let Request::CreateSession { tenant, .. } = Request::from_json_line(req).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(tenant, None);
    }

    #[test]
    fn safety_fields_default_to_zero_on_old_wire_lines() {
        // A status/recommendation line from a pre-safety daemon decodes
        // with the new counters at zero — adding fields stays compatible.
        let status = "{\"v\":1,\"type\":\"service_status\",\"active_sessions\":1,\
                      \"total_sessions\":2,\"queue_depth\":0,\"busy_workers\":1,\
                      \"warm_hits\":1,\"warm_misses\":1,\"rejected\":0,\
                      \"registry_len\":1,\"draining\":false}";
        let Response::ServiceStatus {
            drift_events,
            recovery_rollbacks,
            retune_epochs,
            infer_batches,
            infer_rows,
            infer_deadline_flushes,
            ..
        } = Response::from_json_line(status).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!((drift_events, recovery_rollbacks, retune_epochs), (0, 0, 0));
        // Same rule for the batched-serving counters added after safety.
        assert_eq!((infer_batches, infer_rows, infer_deadline_flushes), (0, 0, 0));

        let rec = "{\"v\":1,\"type\":\"recommendation\",\"session\":3,\"best_tps\":10.0,\
                   \"best_p99_us\":20.0,\"throughput_gain\":0.1,\"changed_knobs\":2,\
                   \"steps\":4}";
        let Response::Recommendation { drift_events, rollbacks, retune_epochs, epoch_rollbacks, .. } =
            Response::from_json_line(rec).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!((drift_events, rollbacks, retune_epochs, epoch_rollbacks), (0, 0, 0, 0));
    }
}
