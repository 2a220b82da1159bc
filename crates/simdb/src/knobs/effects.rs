//! Marginal knob effect profiles.
//!
//! The handful of *structural* knobs (buffer pool size, log sizing, flush
//! policy, I/O threads, …) are consumed directly by the engine components and
//! the cost model. Everything else — the long tail that makes the action
//! space 266-dimensional — carries an [`EffectProfile`] describing a small,
//! smooth influence on one cost component. The profiles are deliberately
//! nonlinear (Gaussian sweet spots, saturating monotones, pairwise
//! interactions) so the aggregate surface reproduces Figure 1(d): no
//! monotone direction, unseen dependencies between knobs.

use super::{KnobConfig, KnobRegistry};

/// Cost components a marginal knob can scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CostComponent {
    /// CPU time per operation.
    CpuPerOp = 0,
    /// Random-read I/O service time.
    ReadIo,
    /// Page-write I/O service time.
    WriteIo,
    /// Durable-commit (fsync) cost.
    CommitSync,
    /// Lock acquisition / contention cost.
    LockWait,
    /// Checkpoint / background-flush pressure.
    Checkpoint,
    /// Memory overhead charged against the buffer pool budget.
    MemoryOverhead,
}

/// Number of cost components.
pub const COST_COMPONENT_COUNT: usize = 7;

/// How a knob enters the cost model.
#[derive(Debug, Clone, PartialEq)]
pub enum EffectProfile {
    /// No performance effect (the realistic majority).
    None,
    /// Consumed directly by the engine / cost model under its well-known
    /// name; excluded from the marginal multiplier product.
    Structural,
    /// Gaussian sweet spot: cost multiplier
    /// `1 - magnitude * exp(-((x - center) / width)^2)` over the knob's
    /// normalized value `x`. Cost is minimized at `center`.
    Sweet {
        /// Component scaled.
        component: CostComponent,
        /// Normalized sweet-spot location in `[0, 1]`.
        center: f64,
        /// Gaussian width.
        width: f64,
        /// Peak relative cost reduction (0.01 = 1 %).
        magnitude: f64,
    },
    /// Saturating monotone: cost multiplier
    /// `1 + magnitude * (s - s0)` with `s = x/(x + 0.5)` (diminishing
    /// returns), negative `magnitude` meaning "bigger is cheaper".
    Monotone {
        /// Component scaled.
        component: CostComponent,
        /// Relative effect at full range; sign picks the direction.
        magnitude: f64,
    },
    /// Pairwise interaction with the knob at catalogue index `partner`:
    /// cost multiplier `1 + magnitude * (x - x_partner)^2`. Cheapest when
    /// the two knobs move together — an explicit "unseen dependency".
    Interact {
        /// Component scaled.
        component: CostComponent,
        /// Catalogue index of the partner knob.
        partner: usize,
        /// Penalty scale for disagreement.
        magnitude: f64,
    },
}

/// Aggregated per-component multipliers of all marginal knobs for one
/// configuration; the cost model multiplies each base cost by these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectMultipliers {
    multipliers: [f64; COST_COMPONENT_COUNT],
}

impl Default for EffectMultipliers {
    fn default() -> Self {
        Self { multipliers: [1.0; COST_COMPONENT_COUNT] }
    }
}

impl EffectMultipliers {
    /// Multiplier for a component (≈1.0; <1 is cheaper).
    #[inline]
    pub fn get(&self, c: CostComponent) -> f64 {
        // lint:allow(panic) reason=CostComponent discriminants are < COST_COMPONENT_COUNT by construction
        self.multipliers[c as usize]
    }

    fn apply(&mut self, c: CostComponent, m: f64) {
        // Clamp individual factors: no single marginal knob may dominate.
        // lint:allow(panic) reason=CostComponent discriminants are < COST_COMPONENT_COUNT by construction
        self.multipliers[c as usize] *= m.clamp(0.5, 2.0);
    }
}

/// Computes the marginal multipliers for a configuration.
pub fn compute_multipliers(registry: &KnobRegistry, config: &KnobConfig) -> EffectMultipliers {
    let mut out = EffectMultipliers::default();
    for (i, def) in registry.defs().iter().enumerate() {
        let x = def.normalize(config.get_index(i));
        match &def.effect {
            EffectProfile::None | EffectProfile::Structural => {}
            EffectProfile::Sweet { component, center, width, magnitude } => {
                let z = (x - center) / width.max(1e-6);
                out.apply(*component, 1.0 - magnitude * (-z * z).exp());
            }
            EffectProfile::Monotone { component, magnitude } => {
                let s = x / (x + 0.5);
                let s0 = 0.5 / (0.5 + 0.5); // value at x = 0.5
                out.apply(*component, 1.0 + magnitude * (s - s0));
            }
            EffectProfile::Interact { component, partner, magnitude } => {
                // A dangling partner index (impossible for catalogue-built
                // profiles) contributes no interaction term.
                let y = match registry.defs().get(*partner) {
                    Some(p) => p.normalize(config.get_index(*partner)),
                    None => x,
                };
                out.apply(*component, 1.0 + magnitude * (x - y) * (x - y));
            }
        }
    }
    // Final guard: aggregate multipliers stay in a sane band even with
    // hundreds of marginal knobs.
    for m in &mut out.multipliers {
        *m = m.clamp(0.25, 4.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{KnobDef, KnobType, KnobValue};
    use std::sync::Arc;

    fn reg_with(effects: Vec<EffectProfile>) -> Arc<KnobRegistry> {
        let defs = effects
            .into_iter()
            .enumerate()
            .map(|(i, effect)| KnobDef {
                name: format!("k{i}"),
                ktype: KnobType::Float { min: 0.0, max: 1.0 },
                default: KnobValue::Float(0.5),
                blacklisted: false,
                effect,
            })
            .collect();
        Arc::new(KnobRegistry::new(defs))
    }

    #[test]
    fn none_and_structural_are_neutral() {
        let r = reg_with(vec![EffectProfile::None, EffectProfile::Structural]);
        let c = r.default_config();
        let m = compute_multipliers(&r, &c);
        for comp in [CostComponent::CpuPerOp, CostComponent::ReadIo, CostComponent::LockWait] {
            assert_eq!(m.get(comp), 1.0);
        }
    }

    #[test]
    fn sweet_spot_minimizes_cost_at_center() {
        let r = reg_with(vec![EffectProfile::Sweet {
            component: CostComponent::CpuPerOp,
            center: 0.7,
            width: 0.2,
            magnitude: 0.1,
        }]);
        let mut c = r.default_config();
        c.set("k0", KnobValue::Float(0.7)).unwrap();
        let at_center = compute_multipliers(&r, &c).get(CostComponent::CpuPerOp);
        c.set("k0", KnobValue::Float(0.0)).unwrap();
        let far = compute_multipliers(&r, &c).get(CostComponent::CpuPerOp);
        assert!(at_center < far, "{at_center} !< {far}");
        assert!((at_center - 0.9).abs() < 1e-9);
    }

    #[test]
    fn monotone_direction_follows_sign() {
        let r = reg_with(vec![EffectProfile::Monotone {
            component: CostComponent::ReadIo,
            magnitude: -0.2,
        }]);
        let mut c = r.default_config();
        c.set("k0", KnobValue::Float(0.0)).unwrap();
        let low = compute_multipliers(&r, &c).get(CostComponent::ReadIo);
        c.set("k0", KnobValue::Float(1.0)).unwrap();
        let high = compute_multipliers(&r, &c).get(CostComponent::ReadIo);
        assert!(high < low, "negative magnitude means bigger is cheaper");
    }

    #[test]
    fn interaction_penalizes_disagreement() {
        let r = reg_with(vec![
            EffectProfile::Interact {
                component: CostComponent::LockWait,
                partner: 1,
                magnitude: 0.5,
            },
            EffectProfile::None,
        ]);
        let mut c = r.default_config();
        c.set("k0", KnobValue::Float(0.9)).unwrap();
        c.set("k1", KnobValue::Float(0.9)).unwrap();
        let agree = compute_multipliers(&r, &c).get(CostComponent::LockWait);
        c.set("k1", KnobValue::Float(0.1)).unwrap();
        let disagree = compute_multipliers(&r, &c).get(CostComponent::LockWait);
        assert!(agree < disagree);
    }

    #[test]
    fn multipliers_are_bounded() {
        // 50 aggressive monotone knobs must not blow the multiplier up.
        let effects = (0..50)
            .map(|_| EffectProfile::Monotone {
                component: CostComponent::CommitSync,
                magnitude: 1.0,
            })
            .collect();
        let r = reg_with(effects);
        let idx = r.tunable_indices();
        let mut c = r.default_config();
        c.apply_normalized(&idx, &vec![1.0; 50]);
        let m = compute_multipliers(&r, &c).get(CostComponent::CommitSync);
        assert!((0.25..=4.0).contains(&m), "multiplier {m} escaped the band");
    }
}
