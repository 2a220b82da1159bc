//! The reward function (Section 4.2, Eqs. 4–7) and the Appendix C.1.1
//! ablation variants.
//!
//! The reward encodes the DBA's judgement: compare current performance both
//! to the *previous* step (is the trend right?) and to the *initial*
//! configuration (is tuning actually paying off?). Throughput and latency
//! each produce a reward, blended with coefficients `C_T + C_L = 1`
//! (Eq. 7, Appendix C.1.2). A crashed instance earns a large negative
//! constant (§5.2.3) instead of having its knob ranges clamped.

use crate::telemetry::RewardTrace;

/// Reward punishment for crashing the instance (§5.2.3 uses −100).
pub const CRASH_REWARD: f64 = -100.0;

/// Which reward formulation to use (Appendix C.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// The paper's RF-CDBTune (Eq. 6 plus the zero-clamp rule).
    CdbTune,
    /// RF-A: compare only with the previous step.
    PrevOnly,
    /// RF-B: compare only with the initial settings.
    InitialOnly,
    /// RF-C: Eq. 6 without the zero-clamp rule (negative intermediate
    /// trends keep their raw value).
    NoClamp,
}

impl RewardKind {
    /// All variants in the Appendix C.1.1 reporting order.
    pub const ALL: [RewardKind; 4] =
        [RewardKind::PrevOnly, RewardKind::InitialOnly, RewardKind::NoClamp, RewardKind::CdbTune];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RewardKind::CdbTune => "RF-CDBTune",
            RewardKind::PrevOnly => "RF-A",
            RewardKind::InitialOnly => "RF-B",
            RewardKind::NoClamp => "RF-C",
        }
    }
}

/// External performance summary used by the reward (throughput up = good,
/// latency down = good).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perf {
    /// Throughput (txn/sec).
    pub throughput: f64,
    /// Latency (the paper reports the 99th percentile).
    pub latency: f64,
}

/// Reward function configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardConfig {
    /// Formulation.
    pub kind: RewardKind,
    /// Throughput coefficient `C_T`.
    pub c_t: f64,
    /// Latency coefficient `C_L` (`C_T + C_L = 1`).
    pub c_l: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        // §C.1.2: "In general, we set CT = CL = 0.5."
        Self { kind: RewardKind::CdbTune, c_t: 0.5, c_l: 0.5 }
    }
}

impl RewardConfig {
    /// Builds a config, validating `C_T + C_L = 1`.
    ///
    /// # Panics
    /// Panics if the coefficients do not sum to 1 (±1e-6) or are negative.
    pub fn new(kind: RewardKind, c_t: f64, c_l: f64) -> Self {
        assert!(
            (c_t + c_l - 1.0).abs() < 1e-6 && c_t >= 0.0 && c_l >= 0.0,
            "C_T + C_L must equal 1, got {c_t} + {c_l}"
        );
        Self { kind, c_t, c_l }
    }

    /// Computes the reward for the current performance given the previous
    /// step's and the initial configuration's performance (Eqs. 4–7).
    pub fn reward(&self, current: Perf, previous: Perf, initial: Perf) -> f64 {
        self.reward_traced(current, previous, initial).0
    }

    /// Like [`RewardConfig::reward`], but also returns the full term-by-term
    /// decomposition (every delta, both Eq.-6 metric rewards, and which
    /// saturation rules fired) for the telemetry layer.
    pub fn reward_traced(
        &self,
        current: Perf,
        previous: Perf,
        initial: Perf,
    ) -> (f64, RewardTrace) {
        let d0_t = throughput_delta(current.throughput, initial.throughput);
        let dp_t = throughput_delta(current.throughput, previous.throughput);
        let d0_l = latency_delta(current.latency, initial.latency);
        let dp_l = latency_delta(current.latency, previous.latency);
        let (r_t, zero_t) = metric_reward(self.kind, d0_t.value, dp_t.value);
        // Latency improves downward: Eq. (5) negates the deltas.
        let (r_l, zero_l) = metric_reward(self.kind, -d0_l.value, -dp_l.value);
        // The combined reward stays inside the crash punishment's magnitude
        // so crashing remains the worst possible outcome.
        let raw = self.c_t * r_t + self.c_l * r_l;
        let reward = raw.clamp(CRASH_REWARD, -CRASH_REWARD);
        let trace = RewardTrace {
            reward,
            throughput_term: r_t,
            latency_term: r_l,
            delta0_throughput: d0_t.value,
            delta_prev_throughput: dp_t.value,
            delta0_latency: -d0_l.value,
            delta_prev_latency: -dp_l.value,
            clamp_fired: d0_t.clamped || dp_t.clamped || d0_l.clamped || dp_l.clamped,
            epsilon_floored: d0_t.floored || dp_t.floored,
            zero_rule_fired: zero_t || zero_l,
            final_clamp_fired: reward != raw,
        };
        (reward, trace)
    }
}

/// Largest |rate of change| the reward distinguishes. A pathological
/// configuration (memory over-commit, redo-log thrash) can inflate p99 by
/// 1000×; unbounded Eq.-5 deltas then produce rewards near −10⁹ that poison
/// the critic's regression targets. Beyond a 5× swing the judgement is
/// saturated — "much worse" — exactly as a DBA's would be.
pub const DELTA_CLAMP: f64 = 5.0;

/// Smallest throughput reference the Eq.-4/5 denominators honour. A stalled
/// or crashed-to-zero baseline would otherwise divide by ~0 — and the old
/// guard that returned a 0 delta instead meant a step that *recovered*
/// throughput from such a baseline earned zero reward. Flooring the
/// denominator here makes any recovery from ~0 saturate at +[`DELTA_CLAMP`],
/// i.e. the strongest positive judgement the reward can express.
pub const DELTA_EPSILON: f64 = 1e-6;

/// One evaluated rate of change plus which saturation rules fired.
struct DeltaEval {
    value: f64,
    clamped: bool,
    floored: bool,
}

/// Throughput rate of change `(x_now − x_ref) / x_ref` (Eq. 4), with the
/// denominator floored at [`DELTA_EPSILON`] and the result saturated at
/// ±[`DELTA_CLAMP`].
fn throughput_delta(now: f64, reference: f64) -> DeltaEval {
    let floored = reference.abs() < DELTA_EPSILON;
    let denom = if floored { DELTA_EPSILON } else { reference };
    let raw = (now - reference) / denom;
    let value = raw.clamp(-DELTA_CLAMP, DELTA_CLAMP);
    DeltaEval { value, clamped: value != raw, floored }
}

/// Latency rate of change (Eq. 5's input, before negation). A ~0 latency
/// reference means *no measurement* (no transaction completed in the
/// window), not "infinitely fast" — flooring the denominator here would
/// punish a recovery step with a −[`DELTA_CLAMP`] latency delta that
/// cancels the throughput side's reward, so an unmeasurable reference
/// yields a neutral 0 delta instead.
fn latency_delta(now: f64, reference: f64) -> DeltaEval {
    if reference.abs() < DELTA_EPSILON {
        return DeltaEval { value: 0.0, clamped: false, floored: false };
    }
    let raw = (now - reference) / reference;
    let value = raw.clamp(-DELTA_CLAMP, DELTA_CLAMP);
    DeltaEval { value, clamped: value != raw, floored: false }
}

/// Eq. (6) for one metric, specialized per reward kind. Also reports
/// whether the §4.2 zero rule fired.
fn metric_reward(kind: RewardKind, d0: f64, d_prev: f64) -> (f64, bool) {
    let (d0, d_prev) = match kind {
        RewardKind::CdbTune | RewardKind::NoClamp => (d0, d_prev),
        RewardKind::PrevOnly => (d_prev, 0.0),
        RewardKind::InitialOnly => (d0, 0.0),
    };
    let r = if d0 > 0.0 {
        ((1.0 + d0).powi(2) - 1.0) * (1.0 + d_prev).abs()
    } else {
        -((1.0 - d0).powi(2) - 1.0) * (1.0 - d_prev).abs()
    };
    // §4.2: "when the result in Eq. (6) is positive and ∆_{t→t−1} is
    // negative, we set r = 0" — progress against the baseline that regressed
    // against the previous step earns nothing (RF-C skips this).
    if kind == RewardKind::CdbTune && r > 0.0 && d_prev < 0.0 {
        (0.0, true)
    } else {
        (r, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Perf = Perf { throughput: 1000.0, latency: 100.0 };

    fn perf(t: f64, l: f64) -> Perf {
        Perf { throughput: t, latency: l }
    }

    #[test]
    fn improvement_over_both_references_is_positive() {
        let rf = RewardConfig::default();
        let r = rf.reward(perf(1200.0, 80.0), perf(1100.0, 90.0), T0);
        assert!(r > 0.0, "r = {r}");
    }

    #[test]
    fn regression_below_initial_is_negative() {
        let rf = RewardConfig::default();
        let r = rf.reward(perf(800.0, 130.0), perf(900.0, 120.0), T0);
        assert!(r < 0.0, "r = {r}");
    }

    #[test]
    fn clamp_zeroes_positive_reward_with_negative_trend() {
        // Better than initial (+20 %) but worse than the previous step.
        let rf = RewardConfig::new(RewardKind::CdbTune, 1.0, 0.0);
        let r = rf.reward(perf(1200.0, 100.0), perf(1300.0, 100.0), T0);
        assert_eq!(r, 0.0);
        // RF-C keeps the raw positive value in the same situation.
        let rfc = RewardConfig::new(RewardKind::NoClamp, 1.0, 0.0);
        let r = rfc.reward(perf(1200.0, 100.0), perf(1300.0, 100.0), T0);
        assert!(r > 0.0);
    }

    #[test]
    fn rf_a_ignores_the_initial_baseline() {
        let rf = RewardConfig::new(RewardKind::PrevOnly, 1.0, 0.0);
        // Worse than initial but better than previous → RF-A still rewards.
        let r = rf.reward(perf(900.0, 100.0), perf(800.0, 100.0), T0);
        assert!(r > 0.0, "r = {r}");
        // The full RF-CDBTune punishes it (below initial).
        let full = RewardConfig::new(RewardKind::CdbTune, 1.0, 0.0);
        assert!(full.reward(perf(900.0, 100.0), perf(800.0, 100.0), T0) < 0.0);
    }

    #[test]
    fn rf_b_ignores_the_previous_step() {
        let rf = RewardConfig::new(RewardKind::InitialOnly, 1.0, 0.0);
        let up = rf.reward(perf(1200.0, 100.0), perf(1300.0, 100.0), T0);
        let same = rf.reward(perf(1200.0, 100.0), perf(700.0, 100.0), T0);
        assert_eq!(up, same, "RF-B cannot see the previous step");
        assert!(up > 0.0);
    }

    #[test]
    fn latency_reward_is_inverted() {
        // Throughput flat, latency halved → positive reward via C_L.
        let rf = RewardConfig::new(RewardKind::CdbTune, 0.0, 1.0);
        let r = rf.reward(perf(1000.0, 50.0), perf(1000.0, 60.0), T0);
        assert!(r > 0.0, "r = {r}");
        let worse = rf.reward(perf(1000.0, 200.0), perf(1000.0, 150.0), T0);
        assert!(worse < 0.0);
    }

    #[test]
    fn coefficients_weight_the_two_rewards() {
        // Throughput up 20 %, latency up (worse) 20 %.
        let current = perf(1200.0, 120.0);
        let prev = perf(1100.0, 110.0);
        let t_heavy = RewardConfig::new(RewardKind::CdbTune, 0.9, 0.1);
        let l_heavy = RewardConfig::new(RewardKind::CdbTune, 0.1, 0.9);
        assert!(t_heavy.reward(current, prev, T0) > l_heavy.reward(current, prev, T0));
    }

    #[test]
    fn quadratic_form_matches_eq6() {
        // ∆0 = +0.5, ∆prev = +0.25 → ((1.5)²−1)·|1.25| = 1.25·1.25 = 1.5625.
        let rf = RewardConfig::new(RewardKind::CdbTune, 1.0, 0.0);
        let r = rf.reward(perf(1500.0, 100.0), perf(1200.0, 100.0), T0);
        assert!((r - 1.5625).abs() < 1e-9, "r = {r}");
        // ∆0 = −0.5, ∆prev = −0.25 → −((1.5)²−1)·|1.25| = −1.5625.
        let r = rf.reward(perf(500.0, 100.0), perf(2000.0, 100.0), T0);
        let expected = -(1.5f64.powi(2) - 1.0) * (1.0f64 + 0.75).abs();
        assert!((r - expected).abs() < 1e-9, "r = {r}, expected {expected}");
    }

    #[test]
    fn zero_reference_is_safe() {
        let rf = RewardConfig::default();
        let r = rf.reward(perf(100.0, 10.0), perf(0.0, 0.0), perf(0.0, 0.0));
        assert!(r.is_finite());
    }

    #[test]
    fn recovery_from_zero_throughput_earns_strong_positive_reward() {
        // The instance stalled to zero throughput; this step recovers it.
        // Pre-fix, delta() returned 0 for the ~0 references and the reward
        // was exactly 0 — recovery went unrewarded. With the epsilon floor
        // both deltas saturate at +DELTA_CLAMP and the reward is strongly
        // positive (this assertion fails on the pre-fix code).
        let rf = RewardConfig::new(RewardKind::CdbTune, 1.0, 0.0);
        let r = rf.reward(perf(500.0, 120.0), perf(0.0, 0.0), perf(0.0, 0.0));
        assert!(r > 50.0, "recovery from zero earned only {r}");
        assert!(r <= -CRASH_REWARD);
    }

    #[test]
    fn near_zero_reference_saturates_instead_of_exploding() {
        let rf = RewardConfig::new(RewardKind::CdbTune, 1.0, 0.0);
        // A denormal-ish reference must not produce an astronomic reward:
        // the delta clamps at ±DELTA_CLAMP and the blend at ±100.
        let r = rf.reward(perf(500.0, 120.0), perf(1e-9, 120.0), perf(1e-9, 120.0));
        assert!(r.is_finite());
        assert!(r > 0.0 && r <= -CRASH_REWARD, "r = {r}");
        // Degradation *to* ~0 is already judged by the clamped negative
        // delta against the healthy reference — still finite.
        let down = rf.reward(perf(0.0, 120.0), perf(500.0, 120.0), perf(500.0, 120.0));
        assert!(down.is_finite() && down < 0.0, "down = {down}");
    }

    #[test]
    fn zero_latency_reference_is_neutral_not_punishing() {
        // Zero latency means "nothing completed" (no measurement), so the
        // latency side must not cancel the throughput side's recovery
        // reward with a spurious −DELTA_CLAMP delta.
        let rf = RewardConfig::default(); // C_T = C_L = 0.5
        let (r, trace) = rf.reward_traced(perf(500.0, 120.0), perf(0.0, 0.0), perf(0.0, 0.0));
        assert_eq!(trace.latency_term, 0.0, "latency term must stay neutral");
        assert!(r > 0.0, "blended recovery reward must stay positive, got {r}");
    }

    #[test]
    fn reward_traced_decomposition_is_consistent() {
        let rf = RewardConfig::default();
        let (r, trace) = rf.reward_traced(perf(1200.0, 80.0), perf(1100.0, 90.0), T0);
        assert_eq!(r, trace.reward);
        assert!(trace.is_finite());
        assert!(!trace.epsilon_floored && !trace.clamp_fired && !trace.final_clamp_fired);
        let blended = rf.c_t * trace.throughput_term + rf.c_l * trace.latency_term;
        assert!((blended - r).abs() < 1e-12, "terms must recompose: {blended} vs {r}");
        // Deltas carry the Eq. 4/5 signs: throughput up, latency down = all positive.
        assert!(trace.delta0_throughput > 0.0 && trace.delta_prev_throughput > 0.0);
        assert!(trace.delta0_latency > 0.0 && trace.delta_prev_latency > 0.0);
    }

    #[test]
    fn reward_traced_reports_rule_firings() {
        let rf = RewardConfig::new(RewardKind::CdbTune, 1.0, 0.0);
        // Better than initial, worse than previous → zero rule.
        let (r, trace) = rf.reward_traced(perf(1200.0, 100.0), perf(1300.0, 100.0), T0);
        assert_eq!(r, 0.0);
        assert!(trace.zero_rule_fired);
        // Recovery from zero → epsilon floor + delta clamp + final clamp.
        let (r, trace) = rf.reward_traced(perf(500.0, 100.0), perf(0.0, 100.0), perf(0.0, 100.0));
        assert!(trace.epsilon_floored && trace.clamp_fired);
        assert!(trace.final_clamp_fired, "r = {r} should have saturated at 100");
        assert_eq!(r, -CRASH_REWARD);
    }

    #[test]
    #[should_panic(expected = "must equal 1")]
    fn invalid_coefficients_panic() {
        let _ = RewardConfig::new(RewardKind::CdbTune, 0.7, 0.7);
    }

    #[test]
    fn labels_cover_all_variants() {
        let labels: std::collections::HashSet<_> =
            RewardKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
