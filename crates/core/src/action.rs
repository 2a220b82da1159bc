//! Action space: mapping between the DDPG actor's `[0, 1]^m` output and
//! concrete knob configurations (§3.2 "Action", §4.1).
//!
//! The tuned subset defaults to every non-blacklisted knob (266 for CDB) but
//! can be any ordered subset — the knob-count experiments (Figs. 6–8) sweep
//! subsets chosen by DBA ranking, OtterTune ranking, or random nesting.

use simdb::{KnobConfig, KnobRegistry, SimDbError};

/// An ordered subset of tunable knobs forming the RL action space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionSpace {
    indices: Vec<usize>,
}

impl ActionSpace {
    /// Every non-blacklisted knob of the registry.
    pub fn all_tunable(registry: &KnobRegistry) -> Self {
        Self { indices: registry.tunable_indices() }
    }

    /// A specific subset by registry indices. Blacklisted knobs are
    /// silently dropped (the recommender may never touch them, §5.2).
    pub fn from_indices(registry: &KnobRegistry, indices: impl IntoIterator<Item = usize>) -> Self {
        let defs = registry.defs();
        Self {
            indices: indices
                .into_iter()
                .filter(|&i| i < defs.len() && !defs[i].blacklisted)
                .collect(),
        }
    }

    /// A subset by knob names.
    ///
    /// # Errors
    /// Returns [`SimDbError::UnknownKnob`] for unknown names.
    pub fn from_names<S: AsRef<str>>(
        registry: &KnobRegistry,
        names: impl IntoIterator<Item = S>,
    ) -> Result<Self, SimDbError> {
        let mut indices = Vec::new();
        for name in names {
            let name = name.as_ref();
            let idx = registry
                .index_of(name)
                .ok_or_else(|| SimDbError::UnknownKnob { name: name.to_string() })?;
            // lint:allow(panic) reason=index_of returns indices into the registry's own catalogue
            if !registry.defs()[idx].blacklisted {
                indices.push(idx);
            }
        }
        Ok(Self { indices })
    }

    /// The first `n` knobs of this space (nested subsets for Fig. 8:
    /// "the 40 selected knobs must contain the 20 selected knobs").
    pub fn truncated(&self, n: usize) -> Self {
        // lint:allow(panic) reason=the range is clamped to indices.len()
        Self { indices: self.indices[..n.min(self.indices.len())].to_vec() }
    }

    /// Action dimensionality.
    pub fn dim(&self) -> usize {
        self.indices.len()
    }

    /// Registry indices in action order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Materializes an actor output into a configuration, starting from
    /// `base` (untuned knobs keep their base values).
    pub fn to_config(&self, base: &KnobConfig, action: &[f32]) -> KnobConfig {
        assert_eq!(action.len(), self.indices.len(), "action width mismatch");
        let mut cfg = base.clone();
        let action_f64: Vec<f64> = action.iter().map(|&x| f64::from(x)).collect();
        cfg.apply_normalized(&self.indices, &action_f64);
        cfg
    }

    /// Reads a configuration back into normalized action coordinates.
    pub fn from_config(&self, config: &KnobConfig) -> Vec<f32> {
        config.normalize_subset(&self.indices).into_iter().map(|x| x as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::knobs::mysql::{mysql_registry, names};
    use simdb::HardwareConfig;
    use std::sync::Arc;

    fn registry() -> Arc<KnobRegistry> {
        mysql_registry(&HardwareConfig::cdb_a())
    }

    #[test]
    fn all_tunable_excludes_blacklist() {
        let reg = registry();
        let space = ActionSpace::all_tunable(&reg);
        assert_eq!(space.dim(), reg.tunable_count());
        let bl = reg.index_of("general_log").unwrap();
        assert!(!space.indices().contains(&bl));
    }

    #[test]
    fn roundtrip_through_config() {
        let reg = registry();
        let space =
            ActionSpace::from_names(&reg, [names::BUFFER_POOL_SIZE, names::READ_IO_THREADS])
                .unwrap();
        assert_eq!(space.dim(), 2);
        let base = reg.default_config();
        let cfg = space.to_config(&base, &[1.0, 0.5]);
        let back = space.from_config(&cfg);
        assert!((back[0] - 1.0).abs() < 0.02, "{back:?}");
        assert!((back[1] - 0.5).abs() < 0.02, "{back:?}");
        // Untuned knobs keep base values.
        assert_eq!(cfg.get(names::LOG_FILE_SIZE), base.get(names::LOG_FILE_SIZE));
    }

    #[test]
    fn unknown_name_errors() {
        let reg = registry();
        let err = ActionSpace::from_names(&reg, ["no_such_knob"]).unwrap_err();
        assert!(matches!(err, SimDbError::UnknownKnob { .. }));
    }

    #[test]
    fn truncation_nests() {
        let reg = registry();
        let space = ActionSpace::all_tunable(&reg);
        let small = space.truncated(20);
        let big = space.truncated(40);
        assert_eq!(small.dim(), 20);
        assert_eq!(&big.indices()[..20], small.indices());
    }

    #[test]
    fn blacklisted_names_are_dropped_silently() {
        let reg = registry();
        let space = ActionSpace::from_names(&reg, ["general_log", names::BUFFER_POOL_SIZE])
            .unwrap();
        assert_eq!(space.dim(), 1);
    }

    #[test]
    #[should_panic(expected = "action width mismatch")]
    fn wrong_action_width_panics() {
        let reg = registry();
        let space = ActionSpace::from_names(&reg, [names::BUFFER_POOL_SIZE]).unwrap();
        let base = reg.default_config();
        let _ = space.to_config(&base, &[0.1, 0.2]);
    }
}
