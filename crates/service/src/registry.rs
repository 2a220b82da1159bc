//! The model registry: fine-tuned models keyed by workload fingerprint.
//!
//! Every session that completes at least one measured tuning step
//! publishes its fine-tuned [`TrainedModel`], the best normalized action
//! it found, and its [`WorkloadFingerprint`]. A new session looks up the
//! nearest compatible fingerprint and, when it is close enough,
//! warm-starts: the registry model replaces the cold network and the
//! stored best action is deployed at step 1 (OtterTune-style experience
//! reuse), with online fine-tuning adapting from there.
//!
//! Persistence is split per entry: `entry-<id>.json` (fingerprint +
//! lookup metadata) and `model-<id>.json` (the [`TrainedModel`] in
//! `cdbtune::persist`'s format, the same file `cdbtune train --out`
//! writes). An in-memory mode backs tests and `--registry-dir`-less runs.

use crate::fingerprint::WorkloadFingerprint;
use cdbtune::jsonio::Json;
use cdbtune::persist::Persist;
use cdbtune::{persist_struct, TrainedModel};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published model and the fingerprint it was earned under.
///
/// The model is behind an [`Arc`]: an entry is an immutable published
/// snapshot, and every warm session served from it borrows the same
/// resident copy of the weights. Cloning an entry bumps a refcount; it
/// does not duplicate weight matrices.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// Registry-assigned entry id (the snapshot version the serving tier
    /// batches inference under).
    pub id: u64,
    /// Fingerprint of the session that published the entry.
    pub fingerprint: WorkloadFingerprint,
    /// The fine-tuned model (shared, immutable snapshot).
    pub model: Arc<TrainedModel>,
    /// Best normalized action the session deployed (warm sessions replay
    /// it at step 1).
    pub best_action: Vec<f32>,
    /// Throughput that action reached (txn/s).
    pub best_tps: f64,
    /// Tuning steps the publishing session took.
    pub steps: usize,
}

/// What `entry-<id>.json` holds: a [`RegistryEntry`] without its model.
struct EntryMeta {
    id: u64,
    best_action: Vec<f32>,
    best_tps: f64,
    steps: usize,
    fingerprint: WorkloadFingerprint,
}
persist_struct!(EntryMeta { id, best_action, best_tps, steps, fingerprint });

/// A warm-start lookup hit.
#[derive(Debug, Clone)]
pub struct RegistryMatch {
    /// The matched entry. The weights inside are shared with the registry
    /// (and every other hit on the same entry) behind an `Arc` — a hit is
    /// O(metadata), not O(model).
    pub entry: RegistryEntry,
    /// Fingerprint distance between the query and the entry.
    pub distance: f64,
}

/// Publishes whose fingerprint lands within this distance of an existing
/// same-knob entry are folded into it instead of appended. Without the
/// fold, a 10k-session warm fleet tuning one workload family republishes
/// 10k near-identical snapshots: the registry retains a full model clone
/// per close, every later warm lookup scans (and the serving tier loads)
/// the pile, and close-wave tail latency balloons. Kept well under the
/// daemon's warm-start radius (0.25): anything this close would have
/// warm-started from the entry it duplicates.
pub const FOLD_DISTANCE: f64 = 0.1;

/// Thread-safe store of [`RegistryEntry`]s with optional disk persistence.
pub struct ModelRegistry {
    dir: Option<PathBuf>,
    entries: Mutex<Vec<RegistryEntry>>,
    next_id: AtomicU64,
}

impl ModelRegistry {
    /// A registry that lives only as long as the process.
    pub fn in_memory() -> Self {
        Self { dir: None, entries: Mutex::new(Vec::new()), next_id: AtomicU64::new(1) }
    }

    /// Opens (creating if needed) a disk-backed registry, loading every
    /// `entry-*.json`/`model-*.json` pair already present. Unreadable
    /// entries are skipped, not fatal — a half-written pair from a crash
    /// must not brick the daemon.
    pub fn open(dir: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut entries = Vec::new();
        let mut max_id = 0u64;
        for item in std::fs::read_dir(dir)? {
            let path = item?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(id) = name
                .strip_prefix("entry-")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|r| r.parse::<u64>().ok())
            else {
                continue;
            };
            match Self::load_entry(dir.as_ref(), id) {
                Ok(entry) => {
                    max_id = max_id.max(id);
                    entries.push(entry);
                }
                Err(e) => eprintln!("registry: skipping entry {id}: {e}"),
            }
        }
        entries.sort_by_key(|e| e.id);
        Ok(Self {
            dir: Some(PathBuf::from(dir)),
            entries: Mutex::new(entries),
            next_id: AtomicU64::new(max_id + 1),
        })
    }

    fn load_entry(dir: &Path, id: u64) -> Result<RegistryEntry, String> {
        let meta_path = dir.join(format!("entry-{id}.json"));
        let text = std::fs::read_to_string(&meta_path).map_err(|e| e.to_string())?;
        let meta = EntryMeta::decode(&Json::parse(&text)?).map_err(|e| e.to_string())?;
        let model_path = dir.join(format!("model-{id}.json"));
        let model_text = std::fs::read_to_string(&model_path).map_err(|e| e.to_string())?;
        let model = TrainedModel::from_json(&model_text).map_err(|e| e.to_string())?;
        if meta.best_action.len() != model.action_indices.len() {
            return Err(format!(
                "best_action has {} values for a {}-knob model",
                meta.best_action.len(),
                model.action_indices.len()
            ));
        }
        Ok(RegistryEntry {
            id,
            fingerprint: meta.fingerprint,
            model: Arc::new(model),
            best_action: meta.best_action,
            best_tps: meta.best_tps,
            steps: meta.steps,
        })
    }

    /// Published entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().map(|e| e.len()).unwrap_or(0)
    }

    /// Ids of the live entries (a superseded entry's id is gone for good).
    pub fn ids(&self) -> Vec<u64> {
        // lint:allow(reactor) reason=the registry lock bounds a short read-only scan
        self.entries.lock().map(|e| e.iter().map(|e| e.id).collect()).unwrap_or_default()
    }

    /// True when no entry has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes a model under a fingerprint, returning the id it is now
    /// served under — a fresh id, or the id of a near-duplicate entry the
    /// publish folded into (see [`FOLD_DISTANCE`]). With
    /// a disk-backed registry the entry is also written out (model first,
    /// then metadata, so a crash between the two leaves no dangling
    /// metadata for [`ModelRegistry::open`] to trip on). Non-finite
    /// fingerprint summaries (a metric-dropout fault can leave NaN/Inf in
    /// the observed state) are sanitized to zero so the stored entry stays
    /// matchable under [`WorkloadFingerprint::distance`]'s finite-only rule.
    pub fn publish(
        &self,
        fingerprint: WorkloadFingerprint,
        model: TrainedModel,
        best_action: Vec<f32>,
        best_tps: f64,
        steps: usize,
    ) -> std::io::Result<u64> {
        let mut fingerprint = fingerprint;
        if fingerprint.sanitize() {
            eprintln!("registry: sanitized non-finite fingerprint summaries at publish");
        }
        // Near-duplicate fold (see [`FOLD_DISTANCE`]): a publish that adds
        // nothing over its nearest neighbour returns the neighbour's id; a
        // strictly better one replaces the neighbour under a fresh id, so
        // entries stay immutable snapshots (the serving tier caches
        // per-id) while the registry stays bounded under fleet churn.
        let replaced: Option<u64> = {
            let mut entries =
                // lint:allow(reactor) reason=the registry lock bounds a short in-memory fold; disk writes happen after release
                self.entries.lock().map_err(|_| std::io::Error::other("registry poisoned"))?;
            let nearest = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.model.action_indices == model.action_indices)
                .map(|(i, e)| (i, fingerprint.distance(&e.fingerprint)))
                .filter(|&(_, d)| d.is_finite() && d <= FOLD_DISTANCE)
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match nearest {
                // lint:allow(panic) reason=i comes from enumerating entries under the same lock
                Some((i, _)) if best_tps <= entries[i].best_tps => return Ok(entries[i].id),
                Some((i, _)) => Some(entries.remove(i).id),
                None => None,
            }
            // A concurrent lookup between this unlock and the re-insert
            // below misses the folded entry and cold-starts — benign, and
            // it keeps disk writes out of the lookup lock's critical path.
        };
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let entry =
            RegistryEntry { id, fingerprint, model: Arc::new(model), best_action, best_tps, steps };
        if let Some(dir) = &self.dir {
            std::fs::write(dir.join(format!("model-{id}.json")), entry.model.to_json())?;
            let meta = EntryMeta {
                id,
                best_action: entry.best_action.clone(),
                best_tps: entry.best_tps,
                steps: entry.steps,
                fingerprint: entry.fingerprint.clone(),
            };
            std::fs::write(dir.join(format!("entry-{id}.json")), meta.encode().to_text())?;
        }
        // lint:allow(reactor) reason=the registry lock guards one in-memory push
        if let Ok(mut entries) = self.entries.lock() {
            entries.push(entry);
        }
        // New pair is on disk before the superseded one goes away, so a
        // crash mid-replacement leaves a loadable registry either way.
        if let (Some(dir), Some(old)) = (&self.dir, replaced) {
            let _ = std::fs::remove_file(dir.join(format!("entry-{old}.json")));
            let _ = std::fs::remove_file(dir.join(format!("model-{old}.json")));
        }
        Ok(id)
    }

    /// Nearest compatible entry within `max_distance`, or `None`. Entries
    /// whose model tunes a different knob subset than the session expects
    /// are skipped even when the fingerprint shape matches.
    pub fn lookup(
        &self,
        fp: &WorkloadFingerprint,
        expected_indices: &[usize],
        max_distance: f64,
    ) -> Option<RegistryMatch> {
        // lint:allow(reactor) reason=the registry lock bounds a short read-only scan
        let entries = self.entries.lock().ok()?;
        let mut best: Option<(f64, &RegistryEntry)> = None;
        for entry in entries.iter() {
            if entry.model.action_indices != expected_indices {
                continue;
            }
            let d = fp.distance(&entry.fingerprint);
            if !d.is_finite() || d > max_distance {
                continue;
            }
            let better = match best {
                None => true,
                Some((best_d, _)) => d < best_d,
            };
            if better {
                best = Some((d, entry));
            }
        }
        // `entry.clone()` bumps the model `Arc` and copies a few words of
        // metadata — it must never deep-copy weight matrices (K concurrent
        // warm sessions hold K references to ONE resident model).
        best.map(|(distance, entry)| RegistryMatch { entry: entry.clone(), distance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdbtune::RewardConfig;
    use simdb::EngineFlavor;
    use workload::WorkloadKind;
    use crate::fingerprint::StateStats;

    fn fp(tps: f64) -> WorkloadFingerprint {
        WorkloadFingerprint {
            flavor: EngineFlavor::MySqlCdb,
            workload: WorkloadKind::SysbenchRw,
            scale: 0.05,
            knobs: 3,
            ram_gb: 1,
            disk_gb: 12,
            baseline_tps: tps,
            baseline_p99_us: 9000.0,
            stats: StateStats::of(&[tps, 2.0, 3.0]),
        }
    }

    fn model(indices: &[usize], seed: u64) -> TrainedModel {
        TrainedModel::cold(indices.to_vec(), RewardConfig::default(), seed)
    }

    #[test]
    fn lookup_returns_the_nearest_compatible_entry() {
        let reg = ModelRegistry::in_memory();
        let near =
            reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.5; 3], 5200.0, 4).unwrap();
        let _far =
            reg.publish(fp(9500.0), model(&[0, 1, 2], 2), vec![0.9; 3], 9900.0, 5).unwrap();
        assert_eq!(reg.len(), 2);
        let hit = reg.lookup(&fp(5050.0), &[0, 1, 2], 0.5).expect("near entry within range");
        assert_eq!(hit.entry.id, near);
        assert!(hit.distance < 0.1, "distance {}", hit.distance);
    }

    #[test]
    fn lookup_ties_resolve_to_the_lowest_id_deterministically() {
        // Two entries with *identical* fingerprints are exactly
        // equidistant from any query. publish() folds such duplicates
        // nowadays, but a registry directory written before the fold rule
        // can still load them — forge the pair directly. The entries vec
        // is id-ordered (open() sorts by id) and lookup only replaces its
        // candidate on a strictly smaller distance, so a tie always
        // resolves to the lowest id — the warm-start choice cannot depend
        // on scan or load order.
        let reg = ModelRegistry::in_memory();
        for (id, seed) in [(1u64, 1u64), (2, 2)] {
            reg.entries.lock().unwrap().push(RegistryEntry {
                id,
                fingerprint: fp(5000.0),
                model: Arc::new(model(&[0, 1, 2], seed)),
                best_action: vec![0.1 * seed as f32; 3],
                best_tps: 5100.0 + 100.0 * seed as f64,
                steps: 3,
            });
        }
        for _ in 0..10 {
            let hit = reg.lookup(&fp(5000.0), &[0, 1, 2], 0.5).expect("tie within range");
            assert_eq!(hit.entry.id, 1, "tie must resolve to the lowest id");
        }
    }

    #[test]
    fn near_duplicate_publishes_fold_instead_of_growing_the_registry() {
        let reg = ModelRegistry::in_memory();
        let first =
            reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.5; 3], 5200.0, 4).unwrap();
        // Same fingerprint, no better: folded into the existing entry.
        let folded =
            reg.publish(fp(5000.0), model(&[0, 1, 2], 2), vec![0.6; 3], 5150.0, 4).unwrap();
        assert_eq!(folded, first);
        assert_eq!(reg.len(), 1);
        let hit = reg.lookup(&fp(5000.0), &[0, 1, 2], 0.5).unwrap();
        assert_eq!(hit.entry.best_action, vec![0.5; 3], "loser must not clobber the entry");
        // Same fingerprint, strictly better: replaces under a fresh id
        // (entries are immutable snapshots; the serving tier caches by id).
        let better =
            reg.publish(fp(5000.0), model(&[0, 1, 2], 3), vec![0.7; 3], 6000.0, 5).unwrap();
        assert!(better > first);
        assert_eq!(reg.len(), 1);
        let hit = reg.lookup(&fp(5000.0), &[0, 1, 2], 0.5).unwrap();
        assert_eq!(hit.entry.id, better);
        assert_eq!(hit.entry.best_tps, 6000.0);
        // A genuinely different workload still appends.
        reg.publish(fp(9500.0), model(&[0, 1, 2], 4), vec![0.9; 3], 9900.0, 5).unwrap();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn disk_replacement_persists_only_the_winning_pair() {
        let dir = std::env::temp_dir()
            .join(format!("cdbtuned-registry-fold-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        {
            let reg = ModelRegistry::open(&dir).unwrap();
            let first =
                reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.5; 3], 5200.0, 4).unwrap();
            let better =
                reg.publish(fp(5000.0), model(&[0, 1, 2], 2), vec![0.7; 3], 6000.0, 5).unwrap();
            assert!(better > first);
            // Exactly one entry/model pair remains on disk: the winner's.
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names.len(), 2, "stale pair must be removed: {names:?}");
            assert!(names.contains(&format!("entry-{better}.json")));
            assert!(names.contains(&format!("model-{better}.json")));
        }
        let reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.lookup(&fp(5000.0), &[0, 1, 2], 0.5).unwrap().entry.best_tps, 6000.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_misses_when_everything_is_too_far_or_mismatched() {
        let reg = ModelRegistry::in_memory();
        assert!(reg.lookup(&fp(5000.0), &[0, 1, 2], 1.0).is_none(), "empty registry");
        reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.5; 3], 5200.0, 4).unwrap();
        // Tight threshold excludes a 2x-throughput fingerprint.
        assert!(reg.lookup(&fp(10_000.0), &[0, 1, 2], 0.05).is_none());
        // A different knob subset never matches, whatever the distance.
        assert!(reg.lookup(&fp(5000.0), &[0, 1, 3], 10.0).is_none());
        // Incompatible shape (knob count) never matches either.
        let mut other = fp(5000.0);
        other.knobs = 8;
        assert!(reg.lookup(&other, &[0, 1, 2], 10.0).is_none());
    }

    #[test]
    fn a_poisoned_entry_never_wins_a_lookup() {
        let reg = ModelRegistry::in_memory();
        // Forge a poisoned entry directly (bypassing publish's sanitizer),
        // as an old registry directory could carry NaN summaries written
        // before the finite-only distance rule existed.
        let mut bad = fp(5050.0);
        bad.stats.mean = f64::NAN;
        bad.stats.l2 = f64::NAN;
        reg.entries.lock().unwrap().push(RegistryEntry {
            id: 101,
            fingerprint: bad,
            model: Arc::new(model(&[0, 1, 2], 1)),
            best_action: vec![0.5; 3],
            best_tps: 5100.0,
            steps: 3,
        });
        // Alone, the poisoned entry never matches — whatever the threshold.
        assert!(reg.lookup(&fp(5050.0), &[0, 1, 2], 1e9).is_none());
        // Next to a clean entry it always loses, even though the clean
        // fingerprint is measurably farther from the query.
        reg.entries.lock().unwrap().push(RegistryEntry {
            id: 102,
            fingerprint: fp(6000.0),
            model: Arc::new(model(&[0, 1, 2], 2)),
            best_action: vec![0.7; 3],
            best_tps: 6100.0,
            steps: 3,
        });
        let hit = reg.lookup(&fp(5050.0), &[0, 1, 2], 10.0).expect("clean entry wins");
        assert_eq!(hit.entry.id, 102);
        // publish() sanitizes, so a fingerprint poisoned at publish time is
        // stored finite (and therefore stays matchable).
        let mut poisoned_pub = fp(5050.0);
        poisoned_pub.baseline_p99_us = f64::INFINITY;
        reg.publish(poisoned_pub, model(&[0, 1, 2], 3), vec![0.5; 3], 5100.0, 2).unwrap();
        let entries = reg.entries.lock().unwrap();
        assert!(entries.last().unwrap().fingerprint.is_finite());
    }

    #[test]
    fn warm_hits_share_one_resident_model() {
        let reg = ModelRegistry::in_memory();
        reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.5; 3], 5200.0, 4).unwrap();
        let hits: Vec<RegistryMatch> = (0..4)
            .map(|_| reg.lookup(&fp(5050.0), &[0, 1, 2], 0.5).expect("warm hit"))
            .collect();
        for pair in hits.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0].entry.model, &pair[1].entry.model),
                "every hit must reference the same resident model"
            );
        }
        // K hits hold K + 1 references (registry + hits) to ONE model:
        // warm-session weight memory is O(1) in the session count.
        assert_eq!(Arc::strong_count(&hits[0].entry.model), hits.len() + 1);
    }

    #[test]
    fn warm_lookup_allocates_no_weight_sized_buffers() {
        let reg = ModelRegistry::in_memory();
        reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.5; 3], 5200.0, 4).unwrap();
        // Warm up once so lazy one-time costs don't bill the measured run.
        let _ = reg.lookup(&fp(5050.0), &[0, 1, 2], 0.5).expect("warm hit");
        let (hit, bytes, largest) = crate::test_alloc::measure(|| {
            reg.lookup(&fp(5050.0), &[0, 1, 2], 0.5).expect("warm hit")
        });
        assert_eq!(hit.entry.id, 1);
        // The paper-shaped actor/critic stack is hundreds of KiB of f32
        // matrices; a hit must be O(metadata). Before the Arc'd entry this
        // deep-copied all four networks and fails both bounds.
        assert!(largest < 4096, "largest lookup allocation was {largest} bytes");
        assert!(bytes < 16_384, "lookup allocated {bytes} bytes in total");
    }

    #[test]
    fn disk_registry_persists_entries_across_reopen() {
        let dir = std::env::temp_dir()
            .join(format!("cdbtuned-registry-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        {
            let reg = ModelRegistry::open(&dir).unwrap();
            assert!(reg.is_empty());
            reg.publish(fp(5000.0), model(&[0, 1, 2], 1), vec![0.25, 0.5, 0.75], 5200.0, 4)
                .unwrap();
        }
        let reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.len(), 1);
        let hit = reg.lookup(&fp(5000.0), &[0, 1, 2], 0.5).expect("entry survived reopen");
        assert_eq!(hit.entry.best_action, vec![0.25, 0.5, 0.75]);
        assert_eq!(hit.entry.best_tps, 5200.0);
        assert_eq!(hit.entry.steps, 4);
        assert_eq!(hit.entry.model.action_indices, vec![0, 1, 2]);
        // A fresh publish continues the id sequence instead of clobbering.
        let id = reg
            .publish(fp(6000.0), model(&[0, 1, 2], 3), vec![0.5; 3], 6100.0, 2)
            .unwrap();
        assert_eq!(id, 2);
        drop(reg);

        // A model file cut short by a crash costs that entry, not the
        // registry: reopening skips it (and says so on stderr).
        let model_2 = std::path::Path::new(&dir).join("model-2.json");
        let text = std::fs::read_to_string(&model_2).unwrap();
        std::fs::write(&model_2, &text[..text.len() / 2]).unwrap();
        let reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.ids(), vec![1]);
        assert!(reg.lookup(&fp(5000.0), &[0, 1, 2], 0.5).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
