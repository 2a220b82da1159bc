//! What every workload shares: run arguments, the result it fills in, the
//! step clock that times a product loop from its telemetry hook, and the
//! digest that pins same-seed determinism.

use cdbtune::{PhaseTiming, Telemetry, TelemetrySink, TraceEvent, TraceLevel};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Width of the `tinynn` worker pool during every workload (see
/// `run_workload`).
pub const POOL_THREADS: usize = 1;

/// One invocation of the driver.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds (set-up and warm-up come on top).
    pub seconds: f64,
    pub trace: bool,
    /// Tiny budgets: exercises every code path, produces no comparable number.
    pub smoke: bool,
    /// Where the trace and the result file go.
    pub out_dir: std::path::PathBuf,
}

/// Latency samples with the time each completed, in seconds since the
/// measurement began.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub at_s: Vec<f64>,
    pub ms: Vec<f64>,
}

impl Series {
    /// Records a sample of `ms` that completed at `done`.
    pub fn push(&mut self, began: Instant, done: Instant, ms: f64) {
        self.at_s.push(done.saturating_duration_since(began).as_secs_f64());
        self.ms.push(ms);
    }

    /// Appends `other`, whose clock started `offset_s` after this one's.
    pub fn append(&mut self, mut other: Series, offset_s: f64) {
        self.at_s.extend(other.at_s.iter().map(|t| t + offset_s));
        self.ms.append(&mut other.ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }
}

/// What a workload measured. The driver turns it into the metric lines.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (steps, plus the requests around them).
    pub attempted: u64,
    /// Degraded steps, protocol errors, rejections, time-outs, missed bars.
    pub failed: u64,
    /// Output checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// One sample per set-up.
    pub setup_s: Vec<f64>,
    /// One sample per step (see the workload for what a step is).
    pub step: Series,
    /// One sample per request (a training run, a tuning request, a session).
    pub request: Series,
    /// Peak resident set of a subprocess that did the work, if one did.
    pub child_peak_rss_kb: Option<u64>,
    /// Fingerprint of seed-determined outputs; equal between two runs of one
    /// build at one seed.
    pub digest: Option<u64>,
    /// Per-layer metrics of a traced run, by catalogue name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Other timing series worth printing with their tail (name → samples).
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl RunResult {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Records a per-layer metric; a metric with no sample behind it
    /// (`NaN`) reads 0.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Times `setup` at least three times, and until half a second has gone into
/// it (at most 25 times), so a cheap set-up still yields a steady median;
/// keeps the last one's product.
pub fn timed_setups<T>(smoke: bool, res: &mut RunResult, mut setup: impl FnMut() -> T) -> T {
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let product = setup();
        res.setup_s.push(t0.elapsed().as_secs_f64());
        let k = res.setup_s.len();
        if smoke || k == 25 || (k >= 3 && started.elapsed().as_secs_f64() >= 0.5) {
            return product;
        }
    }
}

/// FNV-1a over the bit patterns of a float series.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set (`VmHWM`, kB) of process `pid`, or of this process.
pub fn peak_rss_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What the step clock saw of one product step.
#[derive(Debug, Clone, Copy)]
pub struct StepTick {
    /// Wall time since the previous tick of the same episode, by the
    /// benchmark's clock.
    pub wall_ms: f64,
    pub at: Instant,
    /// The product's own phase split of the step.
    pub timing: PhaseTiming,
}

#[derive(Default)]
struct ClockState {
    last: Option<Instant>,
    ticks: Vec<StepTick>,
    cold_baseline_tps: Option<f64>,
}

/// A [`TelemetrySink`] that timestamps the product's `episode_start` and
/// `step` events with the benchmark's clock. This is how `train_offline` and
/// `OnlineSession::step`, which return nothing until they are done, are
/// timed step by step from outside: the event is the product's public hook,
/// the clock is ours.
#[derive(Clone, Default)]
pub struct StepClock(Arc<Mutex<ClockState>>);

impl StepClock {
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::with_sink(Box::new(self.clone()), TraceLevel::Step)
    }

    /// Takes the ticks recorded so far.
    pub fn drain(&self) -> Vec<StepTick> {
        std::mem::take(&mut self.0.lock().expect("step clock poisoned").ticks)
    }

    /// Baseline throughput of the first cold episode seen (the default
    /// configuration's), then forgets it.
    pub fn take_cold_baseline_tps(&self) -> Option<f64> {
        self.0.lock().expect("step clock poisoned").cold_baseline_tps.take()
    }
}

impl TelemetrySink for StepClock {
    fn record(&mut self, event: &TraceEvent) {
        let now = Instant::now();
        let mut st = self.0.lock().expect("step clock poisoned");
        match event {
            TraceEvent::EpisodeStart { warm_start, baseline_tps, .. } => {
                if !warm_start && st.cold_baseline_tps.is_none() {
                    st.cold_baseline_tps = Some(*baseline_tps);
                }
                st.last = Some(now);
            }
            TraceEvent::Step { timing, .. } => {
                if let Some(prev) = st.last {
                    let wall_ms = now.duration_since(prev).as_secs_f64() * 1e3;
                    st.ticks.push(StepTick { wall_ms, at: now, timing: *timing });
                }
                st.last = Some(now);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let a = digest([1.0, 2.0, 3.0]);
        assert_eq!(a, digest([1.0, 2.0, 3.0]));
        assert_ne!(a, digest([1.0, 3.0, 2.0]));
        assert_ne!(a, digest([1.0, 2.0, 3.0000000000000004]));
        assert_ne!(digest([0.0]), digest([-0.0]));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_kb(None).unwrap() > 0);
    }

    #[test]
    fn step_clock_measures_between_events_of_one_episode() {
        let clock = StepClock::default();
        let t = clock.telemetry();
        let step = TraceEvent::Step {
            step: 1,
            episode: 0,
            action: vec![],
            reward: Default::default(),
            throughput_tps: 1.0,
            p99_latency_us: 1.0,
            crashed: false,
            degraded: false,
            replay: Default::default(),
            recovery: Default::default(),
            engine: Default::default(),
            timing: PhaseTiming { stress_wall_us: 9, ..Default::default() },
        };
        // A step before any episode start has no interval to report.
        t.emit(&step);
        assert!(clock.drain().is_empty());
        t.emit(&TraceEvent::EpisodeStart {
            episode: 0,
            warm_start: false,
            baseline_tps: 123.0,
            baseline_p99_us: 1.0,
        });
        t.emit(&step);
        t.emit(&step);
        let ticks = clock.drain();
        assert_eq!(ticks.len(), 2);
        assert!(ticks.iter().all(|k| k.wall_ms >= 0.0 && k.timing.stress_wall_us == 9));
        assert_eq!(clock.take_cold_baseline_tps(), Some(123.0));
        assert_eq!(clock.take_cold_baseline_tps(), None);
    }
}
