//! Workload trace recording and replay.
//!
//! Section 2.2.1: for online tuning, CDBTune "collect\[s\] the user's SQL
//! records in a period of time and then execute\[s\] them under the same
//! environment so as to restore the user's real behavior data". A
//! [`WorkloadTrace`] captures transaction windows from any generator (or a
//! live request stream) and replays them verbatim, optionally looping, so
//! fine-tuning steps see the user's actual op mix rather than a synthetic
//! one.

use crate::Workload;
use rand::rngs::StdRng;
use simdb::{Engine, Txn};

/// A recorded transaction trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadTrace {
    /// Captured transactions in arrival order.
    pub txns: Vec<Txn>,
    /// Client concurrency observed while recording.
    pub clients: u32,
    /// Name of the source workload (diagnostic).
    pub source: String,
}

impl WorkloadTrace {
    /// Records `n` transactions from a live workload generator.
    pub fn record(source: &mut dyn Workload, n: usize, rng: &mut StdRng) -> Self {
        Self {
            txns: source.window(n, rng),
            clients: source.default_clients(),
            source: source.name().to_string(),
        }
    }

    /// Number of captured transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// A replaying [`Workload`] over this trace. Windows larger than the
    /// trace wrap around (looping replay, as the paper's workload generator
    /// does during multi-step fine-tuning).
    pub fn replayer(&self) -> TraceReplayer {
        TraceReplayer { trace: self.clone(), cursor: 0 }
    }
}

/// Replays a [`WorkloadTrace`] as a [`Workload`].
pub struct TraceReplayer {
    trace: WorkloadTrace,
    cursor: usize,
}

impl Workload for TraceReplayer {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn default_clients(&self) -> u32 {
        self.trace.clients
    }

    fn setup(&mut self, _engine: &mut Engine) {
        // Replay targets the schema the trace was recorded against; the
        // engine already holds it.
    }

    fn window(&mut self, n: usize, _rng: &mut StdRng) -> Vec<Txn> {
        assert!(!self.trace.is_empty(), "cannot replay an empty trace");
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            // lint:allow(panic) reason=cursor stays below txns.len() via the modulo step and the assert above rejects empty traces
            out.push(self.trace.txns[self.cursor].clone());
            self.cursor = (self.cursor + 1) % self.trace.txns.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysbench::{SysbenchMode, SysbenchWorkload};
    use rand::SeedableRng;
    use simdb::{EngineFlavor, HardwareConfig};

    fn recorded() -> WorkloadTrace {
        let mut e = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
        let mut wl = SysbenchWorkload::new(SysbenchMode::ReadWrite, 0.01);
        wl.setup(&mut e);
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadTrace::record(&mut wl, 40, &mut rng)
    }

    #[test]
    fn records_the_requested_count() {
        let t = recorded();
        assert_eq!(t.len(), 40);
        assert_eq!(t.clients, 1500);
        assert_eq!(t.source, "sysbench-rw");
    }

    #[test]
    fn replay_is_verbatim_and_loops() {
        let t = recorded();
        let mut r = t.replayer();
        let mut rng = StdRng::seed_from_u64(2);
        let w1 = r.window(40, &mut rng);
        assert_eq!(w1, t.txns);
        // A 60-txn window wraps: the last 20 repeat the first 20.
        let w2 = r.window(60, &mut rng);
        assert_eq!(&w2[40..60], &t.txns[..20]);
    }

    #[test]
    fn replayed_txns_execute() {
        let mut e = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
        let mut wl = SysbenchWorkload::new(SysbenchMode::ReadWrite, 0.01);
        wl.setup(&mut e);
        let mut rng = StdRng::seed_from_u64(3);
        let trace = WorkloadTrace::record(&mut wl, 30, &mut rng);
        let mut r = trace.replayer();
        let txns = r.window(30, &mut rng);
        let perf = e.run(&txns, trace.clients).unwrap();
        assert!(perf.throughput_tps > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_replay_panics() {
        let t = WorkloadTrace::default();
        let mut r = t.replayer();
        let mut rng = StdRng::seed_from_u64(4);
        let _ = r.window(1, &mut rng);
    }
}
