//! Tunable configuration knobs.
//!
//! A [`KnobRegistry`] describes every tunable of an engine flavor: name,
//! domain, default, blacklist flag, and an [`effects::EffectProfile`] wiring
//! the knob into the cost model. A [`KnobConfig`] is a concrete assignment,
//! and the registry provides the `[0, 1]`-normalization used by the RL agent
//! (the DDPG actor emits values in a bounded box which are denormalized into
//! knob domains, mirroring §4.1's continuous action space).

pub mod effects;
pub mod mongodb;
pub mod mysql;
pub mod postgres;
pub mod versions;

pub use effects::{CostComponent, EffectMultipliers, EffectProfile};

use crate::error::{Result, SimDbError};
use std::collections::HashMap;
use std::sync::Arc;

/// The domain of a knob.
#[derive(Debug, Clone, PartialEq)]
pub enum KnobType {
    /// Integer in `[min, max]`. `log_scale` spreads the normalized axis
    /// logarithmically (buffer sizes span multiple orders of magnitude).
    Integer {
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
        /// Normalize on a log axis.
        log_scale: bool,
    },
    /// Float in `[min, max]`.
    Float {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// One of a fixed set of variants.
    Enum {
        /// Variant labels.
        variants: Vec<String>,
    },
    /// Boolean toggle.
    Bool,
}

/// A concrete knob value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobValue {
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Enum variant index.
    Enum(usize),
    /// Boolean value.
    Bool(bool),
}

impl KnobValue {
    /// Integer accessor (panics in debug if the variant is wrong — registry
    /// construction guarantees type agreement).
    pub fn as_i64(&self) -> i64 {
        match *self {
            KnobValue::Int(v) => v,
            KnobValue::Float(v) => v as i64,
            KnobValue::Enum(v) => v as i64,
            KnobValue::Bool(b) => i64::from(b),
        }
    }

    /// Float accessor.
    pub fn as_f64(&self) -> f64 {
        match *self {
            KnobValue::Int(v) => v as f64,
            KnobValue::Float(v) => v,
            KnobValue::Enum(v) => v as f64,
            KnobValue::Bool(b) => f64::from(u8::from(b)),
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> bool {
        match *self {
            KnobValue::Bool(b) => b,
            KnobValue::Int(v) => v != 0,
            KnobValue::Float(v) => v != 0.0,
            KnobValue::Enum(v) => v != 0,
        }
    }
}

/// Definition of a single knob.
#[derive(Debug, Clone)]
pub struct KnobDef {
    /// Knob name (engine variable name).
    pub name: String,
    /// Domain.
    pub ktype: KnobType,
    /// Engine default value.
    pub default: KnobValue,
    /// Not tunable by the agent (path names, dangerous toggles — §5.2).
    pub blacklisted: bool,
    /// How this knob enters the cost model.
    pub effect: EffectProfile,
}

impl KnobDef {
    /// Clamps and snaps a value into this knob's domain.
    pub fn clamp(&self, v: KnobValue) -> KnobValue {
        match &self.ktype {
            KnobType::Integer { min, max, .. } => KnobValue::Int(v.as_i64().clamp(*min, *max)),
            KnobType::Float { min, max } => KnobValue::Float(v.as_f64().clamp(*min, *max)),
            KnobType::Enum { variants } => {
                KnobValue::Enum((v.as_i64().max(0) as usize).min(variants.len() - 1))
            }
            KnobType::Bool => KnobValue::Bool(v.as_bool()),
        }
    }

    /// Maps a value into `[0, 1]`.
    pub fn normalize(&self, v: KnobValue) -> f64 {
        match &self.ktype {
            KnobType::Integer { min, max, log_scale } => {
                let (lo, hi, x) = (*min as f64, *max as f64, v.as_i64() as f64);
                if *log_scale && lo > 0.0 {
                    ((x.max(lo)).ln() - lo.ln()) / ((hi.ln() - lo.ln()).max(1e-12))
                } else {
                    (x - lo) / (hi - lo).max(1e-12)
                }
            }
            KnobType::Float { min, max } => (v.as_f64() - min) / (max - min).max(1e-12),
            KnobType::Enum { variants } => {
                if variants.len() <= 1 {
                    0.0
                } else {
                    v.as_i64() as f64 / (variants.len() - 1) as f64
                }
            }
            KnobType::Bool => f64::from(u8::from(v.as_bool())),
        }
        .clamp(0.0, 1.0)
    }

    /// Maps a `[0, 1]` coordinate back into the knob domain.
    pub fn denormalize(&self, x: f64) -> KnobValue {
        let x = x.clamp(0.0, 1.0);
        match &self.ktype {
            KnobType::Integer { min, max, log_scale } => {
                let (lo, hi) = (*min as f64, *max as f64);
                let v = if *log_scale && lo > 0.0 {
                    (lo.ln() + x * (hi.ln() - lo.ln())).exp()
                } else {
                    lo + x * (hi - lo)
                };
                KnobValue::Int((v.round() as i64).clamp(*min, *max))
            }
            KnobType::Float { min, max } => KnobValue::Float(min + x * (max - min)),
            KnobType::Enum { variants } => {
                let idx = (x * (variants.len().saturating_sub(1)) as f64).round() as usize;
                KnobValue::Enum(idx.min(variants.len() - 1))
            }
            KnobType::Bool => KnobValue::Bool(x >= 0.5),
        }
    }
}

/// The full knob catalogue of an engine flavor.
#[derive(Debug, Clone)]
pub struct KnobRegistry {
    defs: Vec<KnobDef>,
    by_name: HashMap<String, usize>,
}

impl KnobRegistry {
    /// Builds a registry from definitions.
    ///
    /// # Panics
    /// Panics on duplicate knob names (a construction bug, not user input).
    pub fn new(defs: Vec<KnobDef>) -> Self {
        let mut by_name = HashMap::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            let prev = by_name.insert(d.name.clone(), i);
            assert!(prev.is_none(), "duplicate knob name: {}", d.name);
        }
        Self { defs, by_name }
    }

    /// All knob definitions in index order.
    pub fn defs(&self) -> &[KnobDef] {
        &self.defs
    }

    /// Number of knobs (including blacklisted ones).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Number of knobs the agent may tune (non-blacklisted).
    pub fn tunable_count(&self) -> usize {
        self.defs.iter().filter(|d| !d.blacklisted).count()
    }

    /// Indices of tunable knobs, in catalogue order.
    pub fn tunable_indices(&self) -> Vec<usize> {
        self.defs.iter().enumerate().filter(|(_, d)| !d.blacklisted).map(|(i, _)| i).collect()
    }

    /// Looks up a knob index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Looks up a knob definition by name.
    pub fn def(&self, name: &str) -> Option<&KnobDef> {
        self.index_of(name).map(|i| &self.defs[i])
    }

    /// The engine-default configuration.
    pub fn default_config(self: &Arc<Self>) -> KnobConfig {
        KnobConfig {
            registry: Arc::clone(self),
            values: self.defs.iter().map(|d| d.default).collect(),
        }
    }

    /// Precomputes the marginal-knob cost multipliers for a configuration.
    pub fn effect_multipliers(&self, config: &KnobConfig) -> EffectMultipliers {
        effects::compute_multipliers(self, config)
    }
}

/// A concrete assignment of every knob in a registry.
#[derive(Debug, Clone)]
pub struct KnobConfig {
    registry: Arc<KnobRegistry>,
    values: Vec<KnobValue>,
}

impl KnobConfig {
    /// The registry this configuration belongs to.
    pub fn registry(&self) -> &Arc<KnobRegistry> {
        &self.registry
    }

    /// All values in catalogue order.
    pub fn values(&self) -> &[KnobValue] {
        &self.values
    }

    /// Reads a knob by name.
    pub fn get(&self, name: &str) -> Option<KnobValue> {
        self.registry.index_of(name).and_then(|i| self.values.get(i).copied())
    }

    /// Reads a knob by index.
    ///
    /// # Panics
    /// Panics when `index` is outside the catalogue; callers iterate the
    /// registry's own indices.
    pub fn get_index(&self, index: usize) -> KnobValue {
        // lint:allow(panic) reason=callers iterate the registry's own catalogue indices
        self.values[index]
    }

    /// Sets a knob by name, clamping into its domain. Blacklisted knobs are
    /// rejected, matching the recommender's contract (§5.2).
    pub fn set(&mut self, name: &str, v: KnobValue) -> Result<()> {
        let idx = self
            .registry
            .index_of(name)
            .ok_or_else(|| SimDbError::UnknownKnob { name: name.to_string() })?;
        let def = &self.registry.defs()[idx];
        if def.blacklisted {
            return Err(SimDbError::BlacklistedKnob { name: name.to_string() });
        }
        self.values[idx] = def.clamp(v);
        Ok(())
    }

    /// Normalizes the knobs at `indices` into a `[0, 1]` action vector.
    /// Out-of-catalogue indices (impossible for `ActionSpace`-derived
    /// index sets) normalize to the midpoint rather than panicking, so
    /// the action vector keeps its width.
    pub fn normalize_subset(&self, indices: &[usize]) -> Vec<f64> {
        indices
            .iter()
            .map(|&i| match (self.registry.defs().get(i), self.values.get(i)) {
                (Some(def), Some(v)) => def.normalize(*v),
                _ => 0.5,
            })
            .collect()
    }

    /// Knobs whose values differ from `other`, as
    /// `(name, self value, other value)` — the "what did the recommendation
    /// change" view a user reads before approving a deployment (§2.2.3: the
    /// controller deploys only "after acquiring the DBA's or user's
    /// license").
    pub fn diff<'a>(&'a self, other: &KnobConfig) -> Vec<(&'a str, KnobValue, KnobValue)> {
        assert!(
            Arc::ptr_eq(&self.registry, &other.registry),
            "diff requires configurations from the same registry"
        );
        self.registry
            .defs()
            .iter()
            .zip(self.values.iter().zip(&other.values))
            .filter(|(_, (a, b))| a != b)
            .map(|(d, (a, b))| (d.name.as_str(), *a, *b))
            .collect()
    }

    /// Overwrites the knobs at `indices` from a `[0, 1]` action vector.
    ///
    /// # Panics
    /// Panics if lengths disagree (an agent wiring bug).
    pub fn apply_normalized(&mut self, indices: &[usize], action: &[f64]) {
        assert_eq!(indices.len(), action.len(), "action width mismatch");
        for (&i, &x) in indices.iter().zip(action) {
            let Some(def) = self.registry.defs().get(i) else { continue };
            if !def.blacklisted {
                if let Some(v) = self.values.get_mut(i) {
                    *v = def.denormalize(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Arc<KnobRegistry> {
        Arc::new(KnobRegistry::new(vec![
            KnobDef {
                name: "size".into(),
                ktype: KnobType::Integer { min: 16, max: 1024, log_scale: true },
                default: KnobValue::Int(64),
                blacklisted: false,
                effect: EffectProfile::Structural,
            },
            KnobDef {
                name: "pct".into(),
                ktype: KnobType::Float { min: 0.0, max: 100.0 },
                default: KnobValue::Float(50.0),
                blacklisted: false,
                effect: EffectProfile::None,
            },
            KnobDef {
                name: "mode".into(),
                ktype: KnobType::Enum {
                    variants: vec!["off".into(), "on".into(), "demand".into()],
                },
                default: KnobValue::Enum(0),
                blacklisted: false,
                effect: EffectProfile::None,
            },
            KnobDef {
                name: "datadir_lock".into(),
                ktype: KnobType::Bool,
                default: KnobValue::Bool(true),
                blacklisted: true,
                effect: EffectProfile::None,
            },
        ]))
    }

    #[test]
    fn normalize_roundtrip_integer_log() {
        let r = reg();
        let def = r.def("size").unwrap();
        for v in [16i64, 64, 128, 512, 1024] {
            let x = def.normalize(KnobValue::Int(v));
            let back = def.denormalize(x).as_i64();
            assert!(
                (back - v).abs() <= v / 50 + 1,
                "roundtrip {v} -> {x} -> {back}"
            );
        }
    }

    #[test]
    fn normalize_bounds() {
        let r = reg();
        let def = r.def("pct").unwrap();
        assert_eq!(def.normalize(KnobValue::Float(0.0)), 0.0);
        assert_eq!(def.normalize(KnobValue::Float(100.0)), 1.0);
        assert_eq!(def.normalize(KnobValue::Float(250.0)), 1.0); // clamped
    }

    #[test]
    fn enum_denormalize_snaps() {
        let r = reg();
        let def = r.def("mode").unwrap();
        assert_eq!(def.denormalize(0.0), KnobValue::Enum(0));
        assert_eq!(def.denormalize(0.5), KnobValue::Enum(1));
        assert_eq!(def.denormalize(1.0), KnobValue::Enum(2));
    }

    #[test]
    fn config_set_clamps_and_respects_blacklist() {
        let r = reg();
        let mut c = r.default_config();
        c.set("size", KnobValue::Int(999_999)).unwrap();
        assert_eq!(c.get("size").unwrap().as_i64(), 1024);
        let err = c.set("datadir_lock", KnobValue::Bool(false)).unwrap_err();
        assert!(matches!(err, SimDbError::BlacklistedKnob { .. }));
        let err = c.set("nope", KnobValue::Int(0)).unwrap_err();
        assert!(matches!(err, SimDbError::UnknownKnob { .. }));
    }

    #[test]
    fn tunable_counts_exclude_blacklist() {
        let r = reg();
        assert_eq!(r.len(), 4);
        assert_eq!(r.tunable_count(), 3);
        assert_eq!(r.tunable_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn apply_normalized_roundtrips_subset() {
        let r = reg();
        let mut c = r.default_config();
        let idx = r.tunable_indices();
        c.apply_normalized(&idx, &[1.0, 0.0, 1.0]);
        assert_eq!(c.get("size").unwrap().as_i64(), 1024);
        assert_eq!(c.get("pct").unwrap().as_f64(), 0.0);
        assert_eq!(c.get("mode").unwrap(), KnobValue::Enum(2));
        let norm = c.normalize_subset(&idx);
        assert!((norm[0] - 1.0).abs() < 1e-9);
        assert!((norm[1]).abs() < 1e-9);
        assert!((norm[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diff_lists_only_changes() {
        let r = reg();
        let a = r.default_config();
        let mut b = r.default_config();
        b.set("size", KnobValue::Int(512)).unwrap();
        b.set("mode", KnobValue::Enum(2)).unwrap();
        let d = b.diff(&a);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|(n, now, was)| *n == "size"
            && now.as_i64() == 512
            && was.as_i64() == 64));
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate knob name")]
    fn duplicate_names_panic() {
        let d = KnobDef {
            name: "x".into(),
            ktype: KnobType::Bool,
            default: KnobValue::Bool(false),
            blacklisted: false,
            effect: EffectProfile::None,
        };
        let _ = KnobRegistry::new(vec![d.clone(), d]);
    }
}
