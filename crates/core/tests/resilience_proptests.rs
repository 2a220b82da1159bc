//! Property tests for the resilience layer: state sanitization under
//! arbitrary metric-dropout masks, and the determinism of the
//! fault-injection subsystem the recovery paths are exercised against.
//! Each property runs on `CASES` inputs drawn from generators seeded with
//! the case number; a failure prints that number.

use cdbtune::StateProcessor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::{FaultPlan, MetricsDelta, TOTAL_METRIC_COUNT};

const CASES: u64 = 256;

fn for_each_case(property: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let run = || property(&mut StdRng::seed_from_u64(case));
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            eprintln!("property failed on case {case} (the generator's seed)");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A delta of uniform draws from `[-1e9, 1e9)`.
fn delta(rng: &mut StdRng) -> MetricsDelta {
    let mut d = MetricsDelta::default();
    d.values.fill_with(|| rng.gen_range(-1e9f64..1e9));
    d
}

/// Whatever subset of metrics drops out (NaN/±∞), `sanitize` imputes
/// every poisoned entry and the resulting state vector is always finite.
#[test]
fn sanitized_states_never_contain_non_finite_values() {
    for_each_case(|rng| {
        let mut p = StateProcessor::new();
        for _ in 0..rng.gen_range(1..8) {
            p.observe(&delta(rng));
        }
        let mut d = delta(rng);
        let mut dropped = 0u64;
        for v in d.values.iter_mut() {
            if rng.gen() {
                *v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)];
                dropped += 1;
            }
        }
        let imputed = p.sanitize(&mut d);
        assert_eq!(imputed, dropped);
        assert!(d.values.iter().all(|v| v.is_finite()));
        let state = p.vectorize(&d);
        assert_eq!(state.len(), TOTAL_METRIC_COUNT);
        assert!(state.iter().all(|x| x.is_finite()));
    });
}

/// Even when dropped metrics bypass `sanitize`, `vectorize`/`observe`
/// never let a non-finite value through (defence in depth).
#[test]
fn vectorize_guards_unsanitized_dropouts() {
    for_each_case(|rng| {
        let mut p = StateProcessor::new();
        let mut d = MetricsDelta::default();
        for i in 0..TOTAL_METRIC_COUNT {
            d.values[i] = i as f64;
        }
        p.observe(&d);
        p.observe(&d);
        for v in d.values.iter_mut() {
            if rng.gen() {
                *v = f64::NAN;
            }
        }
        let state = p.vectorize(&d);
        assert!(state.iter().all(|x| x.is_finite()));
        // Observing the poisoned delta keeps the running stats finite too.
        p.observe(&d);
        let state = p.process(&MetricsDelta::default());
        assert!(state.iter().all(|x| x.is_finite()));
    });
}

/// Fault decisions are a pure function of (plan, tick): replaying the
/// same plan yields the same schedule, and outside the configured
/// half-open step window nothing ever fires.
#[test]
fn fault_plans_are_deterministic_and_window_bounded() {
    for_each_case(|rng| {
        let p = rng.gen_range(0.0f64..=1.0);
        let (from, len) = (rng.gen_range(0u64..500), rng.gen_range(1u64..500));
        let plan = FaultPlan::new(rng.gen())
            .with_restart_failure(p)
            .with_spurious_crash(p)
            .with_metric_dropout(p)
            .in_window(from, from + len);
        let replay = plan;
        for _ in 0..rng.gen_range(1..64) {
            let t = rng.gen_range(0u64..1000);
            assert_eq!(plan.restart_outcome(t).is_some(), replay.restart_outcome(t).is_some());
            assert_eq!(plan.crashes_window(t), replay.crashes_window(t));
            assert_eq!(plan.drops_metric(t, 7), replay.drops_metric(t, 7));
            if t < from || t >= from + len {
                assert!(plan.restart_outcome(t).is_none());
                assert!(!plan.crashes_window(t));
                assert!(!plan.drops_metric(t, 7));
            }
        }
    });
}

/// Any valid probability combination parses, and parsing is a pure
/// function of the spec string.
#[test]
fn fault_spec_parsing_accepts_valid_probabilities() {
    for_each_case(|rng| {
        let (restart, crash) = (rng.gen_range(0.0f64..=1.0), rng.gen_range(0.0f64..=1.0));
        let (dropout, seed) = (rng.gen_range(0.0f64..=1.0), rng.gen::<u64>());
        let spec = format!("restart={restart},crash={crash},dropout={dropout},seed={seed}");
        let plan = FaultPlan::parse(&spec).unwrap();
        let again = FaultPlan::parse(&spec).unwrap();
        assert_eq!(plan, again);
        for t in 0..50 {
            assert_eq!(plan.restart_outcome(t).is_some(), again.restart_outcome(t).is_some());
        }
    });
}
