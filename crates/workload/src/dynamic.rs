//! Time-varying workload traces: diurnal load curves, flash crowds, and
//! read/write mix shifts composed over the six static benchmark kinds.
//!
//! The paper tunes a static workload; production traffic drifts. This
//! module models that drift deterministically so the safety layer
//! (`cdbtune::drift`, `cdbtune::safety`) can be exercised end to end: a
//! [`DynamicSpec`] describes *what changes when* (in observation-window
//! indices), and [`DynamicWorkload`] wraps the static generators and
//! replays the trace window by window.
//!
//! Load variation is expressed as a multiplier on the number of
//! transactions per observation window — a flash crowd issues more work in
//! the same wall window, a diurnal trough issues less — which is exactly
//! how the simulated engine perceives offered load. Mix shifts swap the
//! active generator (e.g. read-write → write-only) without reloading
//! tables, matching how a live instance sees its query mix change.

use crate::spec::build_workload;
use crate::{Workload, WorkloadKind};
use rand::rngs::StdRng;
use simdb::{Engine, Txn};

/// A sinusoidal day/night load curve: the load multiplier oscillates
/// around 1.0 with the given amplitude over `period` observation windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Full cycle length in observation windows.
    pub period: u64,
    /// Peak-to-mean swing in `[0, 1)`: load ranges `1 ± amplitude`.
    pub amplitude: f64,
}

/// A flash crowd: load multiplied by `magnitude` for `duration` windows
/// starting at window `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// First window of the surge.
    pub at: u64,
    /// Number of windows the surge lasts.
    pub duration: u64,
    /// Load multiplier during the surge (e.g. 3.0 = 3× traffic).
    pub magnitude: f64,
}

/// A query-mix shift: from window `at` onward the trace issues `to`
/// instead of whatever was active before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixShift {
    /// Window index at which the shift takes effect.
    pub at: u64,
    /// The workload kind active from `at` onward (until the next shift).
    pub to: WorkloadKind,
}

/// A deterministic time-varying workload trace over observation windows.
///
/// Parses from the CLI form
/// `base=rw,scale=0.02,diurnal=16x0.4,flash=12+3x2.5,shift=10:wo,shift=20:rw`
/// (every component after `base=` optional, `shift=` repeatable).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSpec {
    /// Workload kind before any shift applies.
    pub base: WorkloadKind,
    /// Dataset scale shared by every phase (1.0 = paper-sized).
    pub scale: f64,
    /// Optional day/night curve.
    pub diurnal: Option<Diurnal>,
    /// Optional flash crowd.
    pub flash: Option<FlashCrowd>,
    /// Mix shifts in effect order (sorted by `at` on construction/parse).
    pub shifts: Vec<MixShift>,
}

impl DynamicSpec {
    /// A static trace of `base` at `scale`: no load curve, no shifts.
    pub fn steady(base: WorkloadKind, scale: f64) -> Self {
        DynamicSpec { base, scale, diurnal: None, flash: None, shifts: Vec::new() }
    }

    /// Adds a diurnal curve.
    pub fn with_diurnal(mut self, period: u64, amplitude: f64) -> Self {
        self.diurnal = Some(Diurnal { period: period.max(1), amplitude: amplitude.clamp(0.0, 0.95) });
        self
    }

    /// Adds a flash crowd.
    pub fn with_flash(mut self, at: u64, duration: u64, magnitude: f64) -> Self {
        self.flash = Some(FlashCrowd { at, duration: duration.max(1), magnitude: magnitude.max(1.0) });
        self
    }

    /// Adds a mix shift (kept sorted by window).
    pub fn with_shift(mut self, at: u64, to: WorkloadKind) -> Self {
        self.shifts.push(MixShift { at, to });
        self.shifts.sort_by_key(|s| s.at);
        self
    }

    /// The workload kind active at `window`.
    pub fn kind_at(&self, window: u64) -> WorkloadKind {
        self.shifts
            .iter()
            .rev()
            .find(|s| s.at <= window)
            .map(|s| s.to)
            .unwrap_or(self.base)
    }

    /// The load multiplier at `window` (diurnal curve × flash crowd).
    pub fn load_factor_at(&self, window: u64) -> f64 {
        let mut factor = 1.0;
        if let Some(d) = self.diurnal {
            let phase = (window % d.period) as f64 / d.period as f64;
            factor *= 1.0 + d.amplitude * (phase * std::f64::consts::TAU).sin();
        }
        if let Some(f) = self.flash {
            if window >= f.at && window < f.at + f.duration {
                factor *= f.magnitude;
            }
        }
        factor.max(0.05)
    }

    /// Windows at which an injected mix shift takes effect — the ground
    /// truth for drift-detector precision/recall checks.
    pub fn shift_windows(&self) -> Vec<u64> {
        self.shifts.iter().map(|s| s.at).collect()
    }

    /// True when the trace never changes kind or load: the control case
    /// on which a drift detector must stay silent.
    pub fn is_static(&self) -> bool {
        self.shifts.is_empty() && self.diurnal.is_none() && self.flash.is_none()
    }

    /// The distinct kinds the trace will ever issue, base first.
    pub fn kinds(&self) -> Vec<WorkloadKind> {
        let mut kinds = vec![self.base];
        for s in &self.shifts {
            if !kinds.contains(&s.to) {
                kinds.push(s.to);
            }
        }
        kinds
    }

    /// Renders back to the CLI spec form accepted by [`std::str::FromStr`].
    pub fn to_spec_string(&self) -> String {
        let mut out = format!("base={},scale={}", kind_token(self.base), self.scale);
        if let Some(d) = self.diurnal {
            out.push_str(&format!(",diurnal={}x{}", d.period, d.amplitude));
        }
        if let Some(f) = self.flash {
            out.push_str(&format!(",flash={}+{}x{}", f.at, f.duration, f.magnitude));
        }
        for s in &self.shifts {
            out.push_str(&format!(",shift={}:{}", s.at, kind_token(s.to)));
        }
        out
    }
}

fn kind_token(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::SysbenchRo => "ro",
        WorkloadKind::SysbenchWo => "wo",
        WorkloadKind::SysbenchRw => "rw",
        WorkloadKind::TpcC => "tpcc",
        WorkloadKind::TpcH => "tpch",
        WorkloadKind::Ycsb => "ycsb",
    }
}

impl std::str::FromStr for DynamicSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut base = None;
        let mut spec = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.1);
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("dynamic spec component '{part}' is not key=value"))?;
            match key {
                "base" => base = Some(value.parse::<WorkloadKind>()?),
                "scale" => {
                    spec.scale = value
                        .parse::<f64>()
                        .map_err(|e| format!("bad scale '{value}': {e}"))?;
                    if spec.scale <= 0.0 {
                        return Err(format!("scale must be positive, got {value}"));
                    }
                }
                "diurnal" => {
                    let (p, a) = value
                        .split_once('x')
                        .ok_or_else(|| format!("diurnal wants PERIODxAMPLITUDE, got '{value}'"))?;
                    let period = p.parse::<u64>().map_err(|e| format!("bad period '{p}': {e}"))?;
                    let amp = a.parse::<f64>().map_err(|e| format!("bad amplitude '{a}': {e}"))?;
                    spec = spec.with_diurnal(period, amp);
                }
                "flash" => {
                    let (at, rest) = value
                        .split_once('+')
                        .ok_or_else(|| format!("flash wants AT+DURATIONxMAGNITUDE, got '{value}'"))?;
                    let (dur, mag) = rest
                        .split_once('x')
                        .ok_or_else(|| format!("flash wants AT+DURATIONxMAGNITUDE, got '{value}'"))?;
                    spec = spec.with_flash(
                        at.parse().map_err(|e| format!("bad flash start '{at}': {e}"))?,
                        dur.parse().map_err(|e| format!("bad flash duration '{dur}': {e}"))?,
                        mag.parse().map_err(|e| format!("bad flash magnitude '{mag}': {e}"))?,
                    );
                }
                "shift" => {
                    let (at, to) = value
                        .split_once(':')
                        .ok_or_else(|| format!("shift wants AT:KIND, got '{value}'"))?;
                    spec = spec.with_shift(
                        at.parse().map_err(|e| format!("bad shift window '{at}': {e}"))?,
                        to.parse::<WorkloadKind>()?,
                    );
                }
                other => return Err(format!("unknown dynamic spec key '{other}'")),
            }
        }
        spec.base = base.ok_or_else(|| "dynamic spec needs base=<kind>".to_string())?;
        Ok(spec)
    }
}

/// A [`Workload`] that replays a [`DynamicSpec`] one observation window at
/// a time: each `window()` call advances the trace clock, delegates to the
/// generator active at that window, and scales the transaction count by
/// the load factor.
pub struct DynamicWorkload {
    spec: DynamicSpec,
    generators: Vec<(WorkloadKind, Box<dyn Workload>)>,
    window_idx: u64,
}

impl DynamicWorkload {
    /// Builds the trace and one generator per distinct kind it uses.
    pub fn new(spec: DynamicSpec) -> Self {
        let generators = spec
            .kinds()
            .into_iter()
            .map(|k| (k, build_workload(k, spec.scale)))
            .collect();
        DynamicWorkload { spec, generators, window_idx: 0 }
    }

    /// The trace being replayed.
    pub fn spec(&self) -> &DynamicSpec {
        &self.spec
    }

    fn generator_mut(&mut self, kind: WorkloadKind) -> &mut Box<dyn Workload> {
        let pos = self
            .generators
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("every kind the spec can produce has a generator"); // lint:allow(panic) reason=kinds() enumerates exactly the generator set built in new()
        &mut self.generators[pos].1
    }
}

impl Workload for DynamicWorkload {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn default_clients(&self) -> u32 {
        // lint:allow(panic) reason=new() builds one generator per kind and kinds() is never empty
        self.generators[0].1.default_clients()
    }

    fn setup(&mut self, engine: &mut Engine) {
        for (_, g) in &mut self.generators {
            g.setup(engine);
        }
    }

    fn window(&mut self, n: usize, rng: &mut StdRng) -> Vec<Txn> {
        let idx = self.window_idx;
        self.window_idx += 1;
        let kind = self.spec.kind_at(idx);
        let factor = self.spec.load_factor_at(idx);
        let scaled = ((n as f64 * factor).round() as usize).max(1);
        self.generator_mut(kind).window(scaled, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simdb::{EngineFlavor, HardwareConfig};

    fn trace() -> DynamicSpec {
        DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.002)
            .with_diurnal(8, 0.4)
            .with_flash(4, 2, 3.0)
            .with_shift(6, WorkloadKind::SysbenchWo)
            .with_shift(10, WorkloadKind::SysbenchRw)
    }

    #[test]
    fn spec_string_round_trips() {
        let spec = trace();
        let back: DynamicSpec = spec.to_spec_string().parse().unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<DynamicSpec>().is_err());
        assert!("scale=0.1".parse::<DynamicSpec>().is_err()); // no base
        assert!("base=rw,scale=-1".parse::<DynamicSpec>().is_err());
        assert!("base=rw,diurnal=8".parse::<DynamicSpec>().is_err());
        assert!("base=rw,flash=3x2".parse::<DynamicSpec>().is_err());
        assert!("base=rw,shift=5".parse::<DynamicSpec>().is_err());
        assert!("base=rw,wat=1".parse::<DynamicSpec>().is_err());
    }

    #[test]
    fn kind_follows_the_shift_schedule() {
        let spec = trace();
        assert_eq!(spec.kind_at(0), WorkloadKind::SysbenchRw);
        assert_eq!(spec.kind_at(5), WorkloadKind::SysbenchRw);
        assert_eq!(spec.kind_at(6), WorkloadKind::SysbenchWo);
        assert_eq!(spec.kind_at(9), WorkloadKind::SysbenchWo);
        assert_eq!(spec.kind_at(10), WorkloadKind::SysbenchRw);
        assert_eq!(spec.shift_windows(), vec![6, 10]);
    }

    #[test]
    fn flash_crowd_multiplies_load() {
        let spec = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.002).with_flash(4, 2, 3.0);
        assert!((spec.load_factor_at(3) - 1.0).abs() < 1e-12);
        assert!((spec.load_factor_at(4) - 3.0).abs() < 1e-12);
        assert!((spec.load_factor_at(5) - 3.0).abs() < 1e-12);
        assert!((spec.load_factor_at(6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_curve_oscillates_around_one() {
        let spec = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.002).with_diurnal(8, 0.4);
        let peak = spec.load_factor_at(2); // quarter period = sine peak
        let trough = spec.load_factor_at(6);
        assert!(peak > 1.3 && peak < 1.5, "peak {peak}");
        assert!(trough > 0.5 && trough < 0.7, "trough {trough}");
        assert!(spec.load_factor_at(0) > 0.99 && spec.load_factor_at(0) < 1.01);
    }

    #[test]
    fn static_trace_is_static() {
        assert!(DynamicSpec::steady(WorkloadKind::Ycsb, 0.01).is_static());
        assert!(!trace().is_static());
    }

    #[test]
    fn dynamic_workload_replays_the_trace() {
        let mut wl = DynamicWorkload::new(trace());
        let mut engine = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
        wl.setup(&mut engine);
        let mut rng = StdRng::seed_from_u64(7);

        // Windows 0–3: RW at ~diurnal factor; window 4: flash ×3.
        let w0 = wl.window(100, &mut rng);
        assert!((90..=110).contains(&w0.len()), "w0 {}", w0.len());
        for _ in 1..4 {
            wl.window(100, &mut rng);
        }
        assert_eq!(wl.window_idx, 4);
        let flash = wl.window(100, &mut rng);
        assert!(flash.len() > 200, "flash window only {} txns", flash.len());

        wl.window(100, &mut rng); // window 5
        assert_eq!(wl.spec.kind_at(wl.window_idx), WorkloadKind::SysbenchWo); // shift at 6
        let wo = wl.window(100, &mut rng);
        // Write-only windows contain no reads.
        assert!(wo
            .iter()
            .all(|t| t.ops.iter().all(|op| !matches!(op, simdb::Op::PointRead { .. }))));
    }
}
