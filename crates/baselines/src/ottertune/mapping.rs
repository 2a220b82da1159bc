//! Workload mapping — OtterTune's "map the target workload to the most
//! similar historical workload" stage.
//!
//! Each historical workload in the repository is summarized by the mean of
//! its observed (pruned) metric vectors; a new workload maps to the nearest
//! summary by Euclidean distance, and that workload's samples are reused to
//! warm the regression model. This is the stage whose dependence on
//! large repositories of similar historical data the paper critiques
//! (§5.3: "lacking relevant data in the training dataset will directly
//! bring a poor recommendation to OtterTune").

use crate::tuner::Evaluation;

/// A historical workload's observations.
#[derive(Debug, Clone, Default)]
pub struct WorkloadHistory {
    /// Identifier (e.g. "sysbench-rw@cdb-a").
    pub id: String,
    /// Evaluations collected when this workload was tuned.
    pub samples: Vec<Evaluation>,
}

impl WorkloadHistory {
    /// Mean metric signature over the samples (empty → zero vector of the
    /// given width).
    pub fn signature(&self, width: usize) -> Vec<f64> {
        let mut sig = vec![0.0; width];
        if self.samples.is_empty() {
            return sig;
        }
        for s in &self.samples {
            for (i, &m) in s.state.iter().take(width).enumerate() {
                sig[i] += f64::from(m);
            }
        }
        let n = self.samples.len() as f64;
        sig.iter_mut().for_each(|x| *x /= n);
        sig
    }
}

/// The repository of historical workloads.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRepository {
    /// Stored histories.
    pub workloads: Vec<WorkloadHistory>,
}

impl WorkloadRepository {
    /// Adds (or extends) a workload's history.
    pub fn record(&mut self, id: &str, samples: impl IntoIterator<Item = Evaluation>) {
        if let Some(w) = self.workloads.iter_mut().find(|w| w.id == id) {
            w.samples.extend(samples);
        } else {
            self.workloads
                .push(WorkloadHistory { id: id.to_string(), samples: samples.into_iter().collect() });
        }
    }

    /// Total stored samples.
    #[cfg(test)]
    pub fn sample_count(&self) -> usize {
        self.workloads.iter().map(|w| w.samples.len()).sum()
    }

    /// Maps target observations to the most similar historical workload and
    /// returns its samples (empty when the repository is empty).
    pub fn map_workload(&self, target: &[Evaluation]) -> &[Evaluation] {
        if self.workloads.is_empty() || target.is_empty() {
            return &[];
        }
        let width = target[0].state.len();
        let target_sig = WorkloadHistory {
            id: String::new(),
            samples: target.to_vec(),
        }
        .signature(width);
        let best = self
            .workloads
            .iter()
            .min_by(|a, b| {
                distance(&a.signature(width), &target_sig)
                    .total_cmp(&distance(&b.signature(width), &target_sig))
            })
            .expect("repository is non-empty");
        &best.samples
    }
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(state: Vec<f32>, thr: f64) -> Evaluation {
        Evaluation {
            action: vec![0.5],
            state,
            throughput: thr,
            p99_latency_us: 1.0,
            crashed: false,
        }
    }

    #[test]
    fn maps_to_nearest_signature() {
        let mut repo = WorkloadRepository::default();
        repo.record("read-heavy", vec![eval(vec![10.0, 0.0], 100.0); 3]);
        repo.record("write-heavy", vec![eval(vec![0.0, 10.0], 200.0); 3]);
        let target = vec![eval(vec![9.0, 1.0], 0.0)];
        let mapped = repo.map_workload(&target);
        assert_eq!(mapped[0].throughput, 100.0, "read-like target maps to read-heavy");
        let target = vec![eval(vec![1.0, 9.0], 0.0)];
        assert_eq!(repo.map_workload(&target)[0].throughput, 200.0);
    }

    #[test]
    fn empty_repository_maps_to_nothing() {
        let repo = WorkloadRepository::default();
        assert!(repo.map_workload(&[eval(vec![1.0], 0.0)]).is_empty());
    }

    #[test]
    fn record_extends_existing_workload() {
        let mut repo = WorkloadRepository::default();
        repo.record("w", vec![eval(vec![1.0], 1.0)]);
        repo.record("w", vec![eval(vec![2.0], 2.0)]);
        assert_eq!(repo.workloads.len(), 1);
        assert_eq!(repo.sample_count(), 2);
    }

    #[test]
    fn signature_is_the_sample_mean() {
        let h = WorkloadHistory {
            id: "x".into(),
            samples: vec![eval(vec![2.0, 4.0], 0.0), eval(vec![4.0, 8.0], 0.0)],
        };
        assert_eq!(h.signature(2), vec![3.0, 6.0]);
    }
}
