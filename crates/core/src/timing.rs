//! Per-step timing breakdown (§5.1.1, Table 2).
//!
//! The paper reports, for one tuning step: stress-testing time (152.88 s),
//! metrics collection (0.86 ms), model update (28.76 ms), recommendation
//! (2.16 ms), deployment (16.68 s), plus ~2 min of restart excluded from
//! the step. Here the stress test runs in *simulated* time; every step
//! records the wall-clock cost of each component and the simulated seconds
//! its stress window represents in its [`crate::PhaseTiming`], which the
//! trainer emits with [`crate::TraceEvent::Step`]. This module holds the
//! table's other half, the per-tool step budgets.

/// Tuner step/time comparison rows (Table 2). Step counts come from the
/// paper's protocol; per-step minutes are the paper's reference numbers so
/// the harness reproduces the table's *shape* (who needs how many steps).
#[derive(Debug, Clone)]
pub struct TunerBudget {
    /// Tool name.
    pub tool: &'static str,
    /// Total online steps per request.
    pub total_steps: u32,
    /// Minutes per step.
    pub minutes_per_step: f64,
}

impl TunerBudget {
    /// Total minutes per tuning request.
    pub fn total_minutes(&self) -> f64 {
        f64::from(self.total_steps) * self.minutes_per_step
    }

    /// The paper's Table 2 rows: CDBTune 5×5 min, OtterTune 11×5 min,
    /// BestConfig 50×5 min, DBA 516×1 min.
    pub fn paper_rows() -> Vec<TunerBudget> {
        vec![
            TunerBudget { tool: "CDBTune", total_steps: 5, minutes_per_step: 5.0 },
            TunerBudget { tool: "OtterTune", total_steps: 11, minutes_per_step: 5.0 },
            TunerBudget { tool: "BestConfig", total_steps: 50, minutes_per_step: 5.0 },
            TunerBudget { tool: "DBA", total_steps: 516, minutes_per_step: 1.0 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_totals_match_table2() {
        let rows = TunerBudget::paper_rows();
        assert_eq!(rows[0].total_minutes(), 25.0);
        assert_eq!(rows[1].total_minutes(), 55.0);
        assert_eq!(rows[2].total_minutes(), 250.0);
        assert_eq!(rows[3].total_minutes(), 516.0);
        // CDBTune needs the fewest steps.
        assert!(rows.iter().all(|r| r.total_steps >= rows[0].total_steps));
    }
}
