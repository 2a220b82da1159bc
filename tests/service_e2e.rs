//! End-to-end exercise of the `cdbtuned` service: boot the daemon on a
//! loopback port, drive concurrent sessions through the bench client,
//! hit the run-queue backpressure, and show the registry warm-start
//! converging in fewer steps than a cold session. The reactor must also
//! be observably equivalent to a bare in-process session on the same
//! seeded script, enforce per-tenant quotas over the wire, survive
//! adversarial byte-dribbled framing, and hold up under an open-loop
//! arrival schedule.

use bench::svc::{run_load, LoadSpec};
use bench::TraceSummary;
use cdbtune::{EnvSpec, Telemetry, TraceLevel};
use service::reference::{in_process, over_the_wire};
use service::{spawn, Client, EventsHandle, ReactorConfig, Request, Response, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
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

#[test]
fn three_concurrent_sessions_run_to_completion() {
    let telemetry = Telemetry::ring(512, TraceLevel::Step);
    let handle = spawn(
        ServiceConfig {
            workers: 3,
            queue_capacity: 4,
            telemetry: telemetry.clone(),
            ..ServiceConfig::default()
        },
        ReactorConfig::default(),
    )
    .expect("daemon boots on a loopback port");
    let report = run_load(&LoadSpec {
        addr: handle.addr().to_string(),
        sessions: 3,
        steps: 2,
        spec: tiny_spec(21),
        ..LoadSpec::default()
    });
    assert_eq!(report.errors(), 0, "{}", report.render());
    assert_eq!(report.rejected(), 0, "{}", report.render());
    assert_eq!(report.completed(), 3);
    for r in &report.results {
        assert_eq!(r.steps, 2, "slot {} stopped early: {:?}", r.slot, r.error);
        assert!(r.best_tps > 0.0);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.total_sessions, 3);
    assert_eq!(stats.drained_sessions, 0);

    // The service trace is balanced and summarizable by the bench tooling.
    let summary = TraceSummary::from_events(&telemetry.drain_ring());
    assert!(summary.issues.is_empty(), "daemon trace flagged: {:?}", summary.issues);
    assert_eq!(summary.mode, "serve");
    assert_eq!(summary.sessions.len(), 3);
    // The reactor admits twice per session: the connection at accept, then
    // the create at its shard's run queue.
    assert_eq!(summary.admissions, 6);
    assert!(summary.sessions.iter().all(|s| s.published));
}

#[test]
fn oversubscription_trips_the_bounded_queue() {
    let handle = spawn(
        ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() },
        ReactorConfig::default(),
    )
    .expect("daemon boots");
    let report = run_load(&LoadSpec {
        addr: handle.addr().to_string(),
        sessions: 8,
        steps: 1,
        spec: tiny_spec(31),
        ..LoadSpec::default()
    });
    assert_eq!(report.errors(), 0, "{}", report.render());
    assert!(
        report.rejected() >= 1,
        "8 sessions against 1 worker + queue of 1 must trip backpressure:\n{}",
        report.render()
    );
    assert!(report.completed() >= 1, "{}", report.render());
    assert!(report
        .results
        .iter()
        .filter_map(|r| r.rejected.as_deref())
        .all(|reason| reason == "queue_full"));
    let stats = handle.shutdown();
    assert!(stats.rejected >= 1);
}

#[test]
fn near_identical_session_warm_starts_and_converges_faster() {
    let handle = spawn(ServiceConfig::default(), ReactorConfig::default()).expect("daemon boots");
    let addr = handle.addr();

    // Cold reference session: tune from scratch, note how many steps it
    // took to first reach (98 % of) its own best throughput.
    let mut cold = Client::connect(addr).expect("cold client connects");
    let created = cold
        .request(&Request::CreateSession {
            spec: tiny_spec(7),
            max_steps: 5,
            warm_start: true,
            safe: false,
            tenant: None,
        })
        .expect("cold create");
    let Response::SessionCreated { warm_start, .. } = created else {
        panic!("unexpected response: {created:?}");
    };
    assert!(!warm_start, "empty registry cannot warm-start");
    let mut cold_tps = Vec::new();
    loop {
        match cold.request(&Request::Step).expect("cold step") {
            Response::StepDone { throughput_tps, finished, .. } => {
                cold_tps.push(throughput_tps);
                if finished {
                    break;
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let Response::Recommendation { best_tps: cold_best, .. } =
        cold.request(&Request::Recommend).expect("cold recommend")
    else {
        panic!("expected a recommendation");
    };
    let Response::Closed { published, .. } =
        cold.request(&Request::CloseSession).expect("cold close")
    else {
        panic!("expected a close ack");
    };
    assert!(published, "the cold session must publish to the registry");
    let target = 0.98 * cold_best;
    let cold_steps_to_best =
        cold_tps.iter().position(|&tps| tps >= target).expect("cold best is in-history") + 1;

    // Near-identical fingerprint (same spec, different seed): must hit the
    // registry and reach the cold session's best in no more steps, because
    // the registry's best action is replayed at step 1.
    let mut warm = Client::connect(addr).expect("warm client connects");
    let created = warm
        .request(&Request::CreateSession {
            spec: tiny_spec(7),
            max_steps: 5,
            warm_start: true,
            safe: false,
            tenant: None,
        })
        .expect("warm create");
    let Response::SessionCreated { warm_start, registry_distance, .. } = created else {
        panic!("unexpected response: {created:?}");
    };
    assert!(warm_start, "near-identical fingerprint must warm-start");
    assert!(registry_distance < 0.25, "distance {registry_distance}");
    let mut warm_steps_to_best = None;
    let mut steps = 0;
    loop {
        match warm.request(&Request::Step).expect("warm step") {
            Response::StepDone { throughput_tps, finished, .. } => {
                steps += 1;
                if warm_steps_to_best.is_none() && throughput_tps >= target {
                    warm_steps_to_best = Some(steps);
                }
                if finished {
                    break;
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let warm_steps_to_best = warm_steps_to_best
        .expect("the warm session replays the registry's best action and must reach target");
    assert!(
        warm_steps_to_best <= cold_steps_to_best,
        "warm start took {warm_steps_to_best} steps to reach {target:.0} txn/s, \
         cold took {cold_steps_to_best}"
    );
    // The warm session's pre-fork forwards rode the shared tier, one
    // forward pass per request and none of them held back on a timer.
    let Response::ServiceStatus { infer_batches, infer_rows, infer_deadline_flushes, .. } =
        warm.request(&Request::Status).expect("status")
    else {
        panic!("expected a status line");
    };
    assert!(infer_rows > 0, "a warm session must serve its first steps through the tier");
    assert_eq!(infer_rows, infer_batches);
    assert_eq!(infer_deadline_flushes, 0);
    let _ = warm.request(&Request::CloseSession).expect("warm close");
    handle.shutdown();
}

fn daemon(reactor: ReactorConfig) -> EventsHandle {
    spawn(ServiceConfig { workers: 2, queue_capacity: 16, ..ServiceConfig::default() }, reactor)
        .expect("daemon boots on a loopback port")
}

#[test]
fn wire_lines_match_the_in_process_reference_on_a_seeded_script() {
    let handle = daemon(ReactorConfig::default());
    let specs = [5u64, 23].map(tiny_spec);
    let expected = in_process(&specs, 6, 3).expect("reference scripts");
    for (spec, want) in specs.iter().zip(&expected) {
        let got = over_the_wire(handle.addr(), spec, 6, 3).expect("script over the wire");
        assert_eq!(
            &got, want,
            "seed {}: the daemon must be bit-identical to the in-process session on the wire",
            spec.seed
        );
    }
    handle.shutdown();
}

#[test]
fn a_huge_step_budget_is_answered_and_the_daemon_keeps_serving() {
    // The budget is the client's number. A session used to allocate its
    // step history up front by it, and 10^12 steps aborted the daemon.
    let handle = daemon(ReactorConfig::default());
    let create = |client: &mut Client, max_steps: usize| {
        client
            .request(&Request::CreateSession {
                spec: tiny_spec(9),
                max_steps,
                warm_start: false,
                safe: false,
                tenant: None,
            })
            .expect("create request")
    };
    let mut huge = Client::connect(handle.addr()).expect("connect");
    assert!(matches!(create(&mut huge, 1_000_000_000_000), Response::SessionCreated { .. }));
    let stepped = huge.request(&Request::Step).expect("step request");
    assert!(matches!(stepped, Response::StepDone { step: 1, finished: false, .. }), "{stepped:?}");
    let mut next = Client::connect(handle.addr()).expect("connect");
    assert!(matches!(create(&mut next, 2), Response::SessionCreated { .. }));
    let stepped = next.request(&Request::Step).expect("step request");
    assert!(matches!(stepped, Response::StepDone { step: 1, .. }), "{stepped:?}");
    let _ = huge.request(&Request::CloseSession).expect("close");
    let _ = next.request(&Request::CloseSession).expect("close");
    handle.shutdown();
}

#[test]
fn tenant_quota_is_enforced_over_the_wire() {
    let handle = daemon(ReactorConfig {
        tenant_max_sessions: 1,
        ..ReactorConfig::default()
    });
    let addr = handle.addr();
    let create = |client: &mut Client| {
        client
            .request(&Request::CreateSession {
                spec: tiny_spec(3),
                max_steps: 4,
                warm_start: false,
                safe: false,
                tenant: Some("acme".to_string()),
            })
            .expect("create request")
    };
    let mut first = Client::connect(addr).expect("connect");
    assert!(matches!(create(&mut first), Response::SessionCreated { .. }));
    let mut second = Client::connect(addr).expect("connect");
    match create(&mut second) {
        Response::Rejected { reason, .. } => assert_eq!(reason, "tenant_quota"),
        other => panic!("expected a typed tenant_quota rejection, got {other:?}"),
    }
    // Closing the first session frees the slot for the same tenant.
    let _ = first.request(&Request::CloseSession).expect("close");
    let mut third = Client::connect(addr).expect("connect");
    assert!(matches!(create(&mut third), Response::SessionCreated { .. }));
    handle.shutdown();
}

#[test]
fn byte_dribbled_frames_parse_and_oversized_frames_get_a_typed_error() {
    let handle = daemon(ReactorConfig::default());

    // Dribble a status request a few bytes at a time: the decoder must
    // reassemble it across arbitrary read boundaries.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let frame = Request::Status.to_json_line() + "\n";
    for chunk in frame.as_bytes().chunks(3) {
        raw.write_all(chunk).expect("dribble");
        raw.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut line = String::new();
    reader.read_line(&mut line).expect("status response");
    assert!(line.contains("\"service_status\""), "unexpected reply: {line}");

    // An unterminated oversized frame draws frame_too_large, then close.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    raw.write_all(&vec![b'a'; 70 * 1024]).expect("oversized blob");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert!(line.contains("frame_too_large"), "unexpected reply: {line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "daemon must close the conn");
    handle.shutdown();
}

#[test]
fn open_loop_arrivals_complete_under_the_reactor() {
    let handle = daemon(ReactorConfig::default());
    let report = run_load(&LoadSpec {
        addr: handle.addr().to_string(),
        sessions: 24,
        rate: 120.0,
        steps: 1,
        spec: tiny_spec(17),
        warm_start: false,
        ..LoadSpec::default()
    });
    assert_eq!(report.errors(), 0, "{}", report.render());
    assert_eq!(report.completed(), 24, "{}", report.render());
    assert!(report.rejection_rate() == 0.0, "{}", report.render());
    assert!(report.request_latency.p99_ms > 0.0);
    handle.shutdown();
}
