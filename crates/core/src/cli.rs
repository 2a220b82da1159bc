//! Shared command-line plumbing for the `cdbtune` CLI and the `cdbtuned`
//! daemon.
//!
//! Both binaries accept the same environment-shaping flags (`--flavor`,
//! `--workload`, `--knobs`, `--ram-gb`, ...); keeping the parser and the
//! flag→[`DbEnv`] construction here means the daemon's sessions and the
//! one-shot CLI cannot drift apart. [`EnvSpec`] is the parsed, typed form
//! of those flags — it is also what a `cdbtuned` client ships over the
//! wire to describe the instance a session should tune.

use crate::env::{DbEnv, EnvConfig};
use crate::telemetry::{Telemetry, TraceLevel};
use crate::ActionSpace;
use simdb::{Engine, EngineFlavor, FaultPlan, HardwareConfig, MediaType};
use std::collections::HashMap;
use workload::{build_workload, WorkloadKind};

/// Minimal `--key value` flag parser (keeps the binaries dependency-free).
#[derive(Debug)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs; anything else is an error.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}' (flags are --key value)"));
            };
            let value =
                it.next().ok_or_else(|| format!("flag --{key} is missing its value"))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    /// Typed lookup with a default for absent flags.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// The flag's raw value, or an error naming the missing flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.raw(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// The flag's raw value if present.
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// True when the flag was passed at all.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Errors on the first (alphabetically) flag that `usage` does not
    /// document as a `--flag` token and `undocumented` (names without the
    /// `--`) does not list, so help and accepted flags cannot drift. The
    /// lookups above ignore flags nobody reads, so without this a removed or
    /// misspelt flag boots silently.
    pub fn reject_unknown(&self, usage: &str, undocumented: &[&str]) -> Result<(), String> {
        let documented: Vec<&str> = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let known = |k: &str| documented.contains(&k) || undocumented.contains(&k);
        match self.flags.keys().filter(|k| !known(k)).min() {
            Some(flag) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }
}

/// The typed description of one tunable instance: engine flavor, hardware,
/// workload, and the tuning subspace. Parsed from CLI flags by
/// [`EnvSpec::from_args`] and shipped over the `cdbtuned` wire protocol to
/// open a session.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvSpec {
    /// Engine flavor to simulate.
    pub flavor: EngineFlavor,
    /// Workload kind to drive.
    pub workload: WorkloadKind,
    /// Instance RAM, GB.
    pub ram_gb: u32,
    /// Instance disk, GB.
    pub disk_gb: u32,
    /// Dataset scale relative to the paper's setup.
    pub scale: f64,
    /// Tuned knob count (action dimension).
    pub knobs: usize,
    /// RNG seed for the engine and environment.
    pub seed: u64,
    /// Warmup transactions per measurement window.
    pub warmup_txns: usize,
    /// Measured transactions per window.
    pub measure_txns: usize,
    /// Steps per episode.
    pub horizon: usize,
    /// Fault-injection spec (same grammar as `--faults`), armed on the
    /// engine at build time. `None` runs on healthy infrastructure. Kept
    /// as the raw spec string so it ships over the `cdbtuned` wire
    /// unchanged and round-trips through [`simdb::FaultPlan`]'s parser.
    pub faults: Option<String>,
}

impl Default for EnvSpec {
    fn default() -> Self {
        Self {
            flavor: EngineFlavor::MySqlCdb,
            workload: WorkloadKind::SysbenchRw,
            ram_gb: 1,
            disk_gb: 12,
            scale: 0.1,
            knobs: 40,
            seed: 42,
            warmup_txns: 60,
            measure_txns: 300,
            horizon: 20,
            faults: None,
        }
    }
}

impl EnvSpec {
    /// Reads the shared environment flags (defaults per
    /// [`shared_flags_help`]).
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let d = Self::default();
        Ok(Self {
            flavor: args.get("flavor", d.flavor)?,
            workload: args.get("workload", d.workload)?,
            ram_gb: args.get("ram-gb", d.ram_gb)?,
            disk_gb: args.get("disk-gb", d.disk_gb)?,
            scale: args.get("scale", d.scale)?,
            knobs: args.get("knobs", d.knobs)?,
            seed: args.get("seed", d.seed)?,
            warmup_txns: args.get("warmup-txns", d.warmup_txns)?,
            measure_txns: args.get("measure-txns", d.measure_txns)?,
            horizon: args.get("horizon", d.horizon)?,
            faults: args.raw("faults").map(str::to_string),
        })
    }

    /// Builds the environment the spec describes.
    pub fn build(&self) -> Result<DbEnv, String> {
        if self.knobs == 0 {
            return Err("--knobs must be at least 1".into());
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("--scale must be positive (got {})", self.scale));
        }
        let hw = HardwareConfig::new(self.ram_gb, self.disk_gb, MediaType::Ssd, 12);
        let mut engine = Engine::new(self.flavor, hw, self.seed);
        if let Some(spec) = &self.faults {
            let plan: FaultPlan = spec.parse().map_err(|e| format!("--faults: {e}"))?;
            engine.set_fault_plan(Some(plan));
        }
        // The catalogue lists structural knobs first, so a prefix of the
        // tunable set is a sensible default subspace at any size.
        let space = ActionSpace::all_tunable(engine.registry()).truncated(self.knobs);
        let cfg = EnvConfig {
            warmup_txns: self.warmup_txns,
            measure_txns: self.measure_txns,
            horizon: self.horizon,
            seed: self.seed,
            ..EnvConfig::default()
        };
        Ok(DbEnv::new(engine, build_workload(self.workload, self.scale), space, cfg))
    }
}

/// Builds a [`Telemetry`] handle from `--trace-out`/`--trace-level`.
/// Returns the null handle when tracing is off; `--trace-level` without
/// `--trace-out` is an error.
pub fn telemetry_from_args(args: &Args) -> Result<Telemetry, String> {
    match args.raw("trace-out") {
        Some(path) => {
            let level = match args.raw("trace-level") {
                Some(s) => TraceLevel::parse(s).map_err(|e| format!("--trace-level: {e}"))?,
                None => TraceLevel::Step,
            };
            let telemetry = Telemetry::to_file(path, level)
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            eprintln!("tracing {level} events to {path}");
            Ok(telemetry)
        }
        None if args.has("trace-level") => Err("--trace-level needs --trace-out <path>".into()),
        None => Ok(Telemetry::null()),
    }
}

/// Builds the environment from the shared flags, arming `--faults` and
/// wiring `--trace-out`/`--trace-level` telemetry.
pub fn make_env(args: &Args) -> Result<DbEnv, String> {
    let spec = EnvSpec::from_args(args)?;
    let mut env = spec.build()?;
    if let Some(faults) = &spec.faults {
        eprintln!("fault injection armed: {faults}");
    }
    let telemetry = telemetry_from_args(args)?;
    if telemetry.level() != TraceLevel::Off {
        env.set_telemetry(telemetry);
    }
    Ok(env)
}

/// Help text for the environment/trace flags both binaries share — one
/// source so `cdbtune --help` and `cdbtuned --help` cannot drift.
pub fn shared_flags_help() -> &'static str {
    "SHARED FLAGS:
  --flavor    mysql | local-mysql | postgres | mongodb   (default mysql)
  --workload  rw | ro | wo | tpcc | tpch | ycsb          (default rw)
  --knobs     tuned knob count                           (default 40)
  --ram-gb / --disk-gb                                   (default 1 / 12)
  --scale     dataset scale vs the paper                 (default 0.1)
  --seed                                                  (default 42)
  --warmup-txns / --measure-txns  txns per measurement   (default 60 / 300)
  --horizon   env steps per episode                      (default 20)
  --faults    inject infrastructure faults, e.g.
              'restart=0.2,hang=0.05,crash=0.02,straggler=0.1x4,
               fsync=0.1x8,dropout=0.05,seed=7[,from=N,until=N]'
  --trace-out    write structured JSONL trace events to this file
  --trace-level  off | summary | step | debug       (default step, with --trace-out)"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let argv: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn parser_rejects_positional_and_dangling_flags() {
        let bad = ["positional".to_string()];
        assert!(Args::parse(&bad).unwrap_err().contains("unexpected argument"));
        let dangling = ["--knobs".to_string()];
        assert!(Args::parse(&dangling).unwrap_err().contains("missing its value"));
    }

    #[test]
    fn typed_lookup_defaults_and_errors() {
        let a = args(&[("knobs", "8")]);
        assert_eq!(a.get("knobs", 40usize).unwrap(), 8);
        assert_eq!(a.get("seed", 42u64).unwrap(), 42);
        assert!(a.get::<usize>("knobs", 0).is_ok());
        let bad = args(&[("knobs", "eight")]);
        assert!(bad.get("knobs", 40usize).unwrap_err().contains("--knobs"));
        assert!(a.required("out").unwrap_err().contains("--out"));
    }

    #[test]
    fn unknown_flags_are_named_not_ignored() {
        let usage = "tool [--knobs N]\n  --seed   (default 42)";
        assert!(args(&[("knobs", "8"), ("seed", "1")]).reject_unknown(usage, &[]).is_ok());
        assert!(args(&[]).reject_unknown(usage, &[]).is_ok());
        let typo = args(&[("knobs", "8"), ("wrokers", "8"), ("removed-flag", "32")]);
        let err = typo.reject_unknown(usage, &[]).unwrap_err();
        assert!(err.contains("--removed-flag"), "{err}");
        let err = typo.reject_unknown(usage, &["removed-flag"]).unwrap_err();
        assert!(err.contains("--wrokers"), "{err}");
    }

    #[test]
    fn env_spec_round_trips_the_shared_flags() {
        let a = args(&[
            ("flavor", "postgres"),
            ("workload", "tpcc"),
            ("knobs", "6"),
            ("scale", "0.01"),
            ("seed", "7"),
        ]);
        let spec = EnvSpec::from_args(&a).unwrap();
        assert_eq!(spec.flavor, EngineFlavor::Postgres);
        assert_eq!(spec.workload, WorkloadKind::TpcC);
        assert_eq!(spec.knobs, 6);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.measure_txns, EnvSpec::default().measure_txns);
        let env = spec.build().unwrap();
        assert_eq!(env.space().dim(), 6);
        let a = args(&[("warmup-txns", "2"), ("measure-txns", "8"), ("horizon", "2")]);
        let spec = EnvSpec::from_args(&a).unwrap();
        assert_eq!(spec.warmup_txns, 2);
        assert_eq!(spec.measure_txns, 8);
        assert_eq!(spec.horizon, 2);
    }

    #[test]
    fn faults_flag_lands_in_the_spec_and_is_validated_at_build() {
        let a = args(&[("faults", "straggler=1.0x4,seed=7")]);
        let spec = EnvSpec::from_args(&a).unwrap();
        assert_eq!(spec.faults.as_deref(), Some("straggler=1.0x4,seed=7"));
        assert!(spec.build().is_ok());
        let bad = EnvSpec { faults: Some("bogus=1".into()), ..EnvSpec::default() };
        let err = match bad.build() {
            Err(e) => e,
            Ok(_) => panic!("a bogus --faults spec must fail validation"),
        };
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn env_spec_validates_degenerate_values() {
        let mut spec = EnvSpec { knobs: 0, ..EnvSpec::default() };
        assert!(spec.build().is_err());
        spec.knobs = 4;
        spec.scale = -1.0;
        assert!(spec.build().is_err());
    }

    #[test]
    fn trace_level_without_trace_out_is_an_error() {
        let a = args(&[("trace-level", "debug")]);
        assert!(telemetry_from_args(&a).unwrap_err().contains("--trace-out"));
        let none = args(&[]);
        assert_eq!(telemetry_from_args(&none).unwrap().level(), TraceLevel::Off);
    }

    #[test]
    fn help_text_documents_the_pr2_flags() {
        let help = shared_flags_help();
        for flag in ["--trace-out", "--trace-level", "--faults"] {
            assert!(help.contains(flag), "shared help missing {flag}");
        }
    }
}
