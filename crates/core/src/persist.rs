//! The on-disk format of what the product persists — the trained "standard
//! model" ([`TrainedModel`], §2.1: trained offline once, reused by every
//! online request and by the `cdbtuned` registry) and the crash-safe
//! [`TrainingCheckpoint`] — and of the experiment result rows in `bench`.
//!
//! Everything is a JSON document over [`crate::jsonio`]: a struct is an
//! object keyed by its field names ([`persist_struct!`](crate::persist_struct)),
//! a tuple an array, `None` is `null` — the layout the serde derives wrote,
//! so files from earlier builds load. What the field lists do not show:
//!
//! * **Numbers.** [`Json`] holds every number as an `f64`. An `f32` is
//!   widened on write (exact) and printed in the shortest form that reads
//!   back to the same `f64`, so weights round-trip bit for bit. A `u64`
//!   (seeds, counters, quarantined cell hashes) is written as a decimal
//!   string, because its range does not fit an `f64`; a bare integer below
//!   2^53 is accepted on read.
//! * **Reading is checking.** The text comes from outside the program.
//!   Truncated text, a missing or wrong-typed field, a matrix whose
//!   `rows * cols` is not its data length, networks whose layer shapes
//!   disagree with their `DdpgConfig`, or a normalizer of the wrong width
//!   is a [`PersistError`] naming the field, never a panic, and nothing is
//!   allocated from a length the document merely claims. Unknown keys are
//!   ignored.
//! * **Versions.** A model carries `version` = [`FORMAT_VERSION`]; absent
//!   means 1 (what the derives wrote), and a newer one is refused. A
//!   checkpoint carries [`CHECKPOINT_VERSION`] and is read at exactly that
//!   version: an older one lacks the state a resume needs, and no fallback
//!   reconstructs it.

use crate::env::{EnvCarry, RecoveryStats};
use crate::jsonio::Json;
use crate::reward::{RewardConfig, RewardKind};
use crate::state::StateProcessor;
use crate::telemetry::PhaseTiming;
use crate::trainer::{TrainedModel, TrainingCheckpoint, TrainingReport, DEFAULT_REWARD_SCALE};
use rl::{DdpgConfig, DdpgSnapshot, LearnerState, PriorityState, RingState, Transition};
use simdb::{EngineFlavor, TOTAL_METRIC_COUNT};
use std::fmt;
use tinynn::{AdamState, Matrix, NetState};
use workload::WorkloadKind;

/// 1: the serde layout (`u64` as bare numbers, no `version` in a model).
/// 2: `u64` as decimal strings.
/// 3: a checkpoint's evaluation curve holds `[step, tps]` pairs, and it has
/// no convergence tracker. A model is as in 2, and is written at 3.
pub const FORMAT_VERSION: u32 = 3;

/// 4: a checkpoint is the trainer's whole state at an episode end — the
/// learner state with both optimizers, the exact replay pool, the trainer's
/// and the environment's streams — and has no position inside an episode.
/// Only this version is read.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Why persisted text could not be turned back into a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Not a JSON document (truncated or malformed); the parser's message.
    Syntax(String),
    /// Written by a newer build than this one reads.
    Version(u32),
    /// A checkpoint of an older format than [`CHECKPOINT_VERSION`], which
    /// lacks the state a resume needs.
    Superseded(u32),
    /// The value at `path` (dotted, from the document root) is missing, has
    /// the wrong type or range, or contradicts another field.
    Invalid {
        /// Where in the document.
        path: String,
        /// What is wrong there.
        problem: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Syntax(msg) => write!(f, "not a JSON document: {msg}"),
            PersistError::Version(v) => {
                write!(f, "format version {v} is newer than this build reads")
            }
            PersistError::Superseded(v) => write!(
                f,
                "checkpoint format version {v} predates {CHECKPOINT_VERSION} and cannot resume \
                 a run"
            ),
            PersistError::Invalid { path, problem } => write!(f, "`{path}`: {problem}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Prefixes the path with the field (or index) the error was found under.
    fn under(mut self, seg: impl fmt::Display) -> Self {
        if let PersistError::Invalid { path, .. } = &mut self {
            *path = if path.is_empty() { seg.to_string() } else { format!("{seg}.{path}") };
        }
        self
    }
}

fn invalid(problem: impl Into<String>) -> PersistError {
    PersistError::Invalid { path: String::new(), problem: problem.into() }
}

/// A value with a place in a persisted document.
pub trait Persist: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;
    /// The value back from JSON, checked.
    fn decode(j: &Json) -> Result<Self, PersistError>;
}

/// Field `key` of object `o`; `default` stands in for an absent one, and
/// without a default absence is an error. (`persist_struct!`'s reader.)
pub fn field<T: Persist>(o: &Json, key: &str, default: Option<T>) -> Result<T, PersistError> {
    let Json::Obj(_) = o else { return Err(invalid("expected an object")) };
    match (o.get(key), default) {
        (Some(v), _) => T::decode(v).map_err(|e| e.under(key)),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(invalid("missing").under(key)),
    }
}

/// Implements [`Persist`](crate::persist::Persist) for a struct as an
/// object keyed by the field names listed. `field ?= default` makes a field
/// optional on read.
#[macro_export]
macro_rules! persist_struct {
    ($ty:ty { $($field:ident $(?= $default:expr)?),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn encode(&self) -> $crate::jsonio::Json {
                $crate::jsonio::Json::obj([
                    $((stringify!($field), $crate::persist::Persist::encode(&self.$field))),+
                ])
            }

            fn decode(j: &$crate::jsonio::Json) -> Result<Self, $crate::persist::PersistError> {
                Ok(Self {
                    $($field: $crate::persist::field(
                        j,
                        stringify!($field),
                        None $(.or(Some($default)))?,
                    )?),+
                })
            }
        }
    };
}

/// [`Persist`] for a scalar: `$enc` makes the JSON, `$dec` reads the value
/// out of a matching one, anything else is "expected `$what`".
macro_rules! persist_scalar {
    ($($ty:ty, $what:literal, |$v:ident| $enc:expr, $dec:pat => $out:expr;)+) => {$(
        impl Persist for $ty {
            fn encode(&self) -> Json {
                let $v = self;
                $enc
            }

            fn decode(j: &Json) -> Result<Self, PersistError> {
                match j {
                    $dec => $out.ok_or_else(|| invalid(concat!("out of range for ", $what))),
                    _ => Err(invalid(concat!("expected ", $what))),
                }
            }
        }
    )+};
}

/// The non-negative integers an `f64` holds exactly.
fn whole(n: f64) -> Option<f64> {
    (n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n)).then_some(n)
}

persist_scalar! {
    // The writer turns a non-finite number into `null`, which is refused.
    f64, "a finite number", |v| Json::Num(*v), Json::Num(n) => Some(*n);
    f32, "an f32", |v| Json::Num(f64::from(*v)),
        Json::Num(n) => Some(*n as f32).filter(|v| v.is_finite());
    usize, "a non-negative integer below 2^53", |v| Json::Num(*v as f64),
        Json::Num(n) => whole(*n).map(|n| n as usize);
    u32, "a u32", |v| Json::Num(f64::from(*v)),
        Json::Num(n) => whole(*n).and_then(|n| u32::try_from(n as u64).ok());
    u128, "a non-negative integer below 2^53", |v| Json::Num(*v as f64),
        Json::Num(n) => whole(*n).map(|n| n as u128);
    bool, "true or false", |v| Json::Bool(*v), Json::Bool(b) => Some(*b);
    String, "a string", |v| Json::Str(v.clone()), Json::Str(s) => Some(s.clone());
    EngineFlavor, "an engine flavor", |v| Json::Str(v.to_string()), Json::Str(s) => s.parse().ok();
    WorkloadKind, "a workload kind", |v| Json::Str(v.label().to_ascii_lowercase()),
        Json::Str(s) => s.parse().ok();
    RewardKind, "a reward-function name", |v| Json::Str(format!("{v:?}")),
        Json::Str(s) => RewardKind::ALL.into_iter().find(|k| format!("{k:?}") == *s);
}

impl Persist for u64 {
    fn encode(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn decode(j: &Json) -> Result<Self, PersistError> {
        match j {
            Json::Str(s) => s.parse().map_err(|_| invalid("expected a decimal u64")),
            _ => usize::decode(j).map(|n| n as u64),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(j: &Json) -> Result<Self, PersistError> {
        let Json::Arr(items) = j else { return Err(invalid("expected an array")) };
        items.iter().enumerate().map(|(i, v)| T::decode(v).map_err(|e| e.under(i))).collect()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }

    fn decode(j: &Json) -> Result<Self, PersistError> {
        if *j == Json::Null {
            Ok(None)
        } else {
            T::decode(j).map(Some)
        }
    }
}

macro_rules! persist_tuple {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: Persist),+> Persist for ($($t,)+) {
            fn encode(&self) -> Json {
                Json::Arr(vec![$(self.$i.encode()),+])
            }

            fn decode(j: &Json) -> Result<Self, PersistError> {
                match j {
                    Json::Arr(v) if v.len() == $n => {
                        Ok(($($t::decode(&v[$i]).map_err(|e| e.under($i))?,)+))
                    }
                    _ => Err(invalid(concat!("expected an array of ", $n))),
                }
            }
        }
    };
}

persist_tuple!(2: A 0, B 1);
persist_tuple!(3: A 0, B 1, C 2);
persist_tuple!(4: A 0, B 1, C 2, D 3);
persist_tuple!(7: A 0, B 1, C 2, D 3, E 4, F 5, G 6);

impl Persist for Matrix {
    fn encode(&self) -> Json {
        Json::obj([
            ("rows", self.rows().encode()),
            ("cols", self.cols().encode()),
            ("data", Json::Arr(self.as_slice().iter().map(f32::encode).collect())),
        ])
    }

    fn decode(j: &Json) -> Result<Self, PersistError> {
        let (rows, cols): (usize, usize) = (field(j, "rows", None)?, field(j, "cols", None)?);
        let data: Vec<f32> = field(j, "data", None)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(invalid(format!("{rows}x{cols} matrix holds {} values", data.len())));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

persist_struct!(NetState { layers });
persist_struct!(DdpgConfig {
    state_dim, action_dim, actor_hidden, critic_hidden, actor_lr, critic_lr, gamma, tau,
    batch_size, dropout, seed,
});
persist_struct!(DdpgSnapshot { config, actor, critic, actor_target, critic_target });
persist_struct!(StateProcessor { count, mean, m2 });
persist_struct!(RewardConfig { kind, c_t, c_l });
persist_struct!(TrainedModel {
    snapshot, processor, reward, action_indices, reward_scale ?= DEFAULT_REWARD_SCALE,
});
persist_struct!(Transition { state, action, reward, next_state, done });
persist_struct!(RecoveryStats {
    retries, backoff_ms, rollbacks, forced_restarts, quarantined_configs, quarantine_hits,
    degraded_steps, imputed_metrics, checkpoints_written, checkpoints_loaded,
});
persist_struct!(TrainingReport {
    total_steps, reward_history, throughput_history, latency_history, best_throughput,
    best_latency_us, best_action, actor_eval_history, crashes, wall_seconds,
    recovery ?= RecoveryStats::default(),
});
persist_struct!(PhaseTiming {
    stress_wall_us, stress_simulated_sec, metrics_wall_us, model_update_wall_us,
    recommendation_wall_us, deployment_wall_us,
});
persist_struct!(AdamState { t, m, v });
persist_struct!(LearnerState { snapshot, actor_opt, critic_opt, smoothing_rng, dropout_rngs });
persist_struct!(RingState { slots, write });
persist_struct!(PriorityState {
    leaves, sums, sets_since_rebuild, rebuilds, beta, max_priority, fallback_hits,
});
persist_struct!(EnvCarry { processor, workload_rng, engine_streams, quarantined, crash_streaks });
persist_struct!(TrainingCheckpoint {
    version, seed, episode, learner, replay, priorities, rng, noise_sigma, env, report, best_eval,
    best_snapshot,
});

/// Parses a document and reads its version (absent means 1).
fn document(text: &str) -> Result<(Json, u32), PersistError> {
    let doc = Json::parse(text).map_err(PersistError::Syntax)?;
    let version = field(&doc, "version", Some(1u32))?;
    Ok((doc, version))
}

/// What the decoders cannot see field by field: networks
/// [`rl::Ddpg::from_snapshot`] accepts over the 63-metric state, and a
/// normalizer of that width.
fn check(snapshot: &DdpgSnapshot, processor: &StateProcessor) -> Result<(), PersistError> {
    check_snapshot(snapshot).map_err(|e| e.under("snapshot"))?;
    check_processor(processor).map_err(|e| e.under("processor"))
}

fn check_snapshot(snapshot: &DdpgSnapshot) -> Result<(), PersistError> {
    let metrics = snapshot.config.state_dim;
    if metrics != TOTAL_METRIC_COUNT {
        return Err(invalid(format!("networks read {metrics} metrics, not {TOTAL_METRIC_COUNT}")));
    }
    snapshot.validate().map_err(invalid)
}

fn check_processor(processor: &StateProcessor) -> Result<(), PersistError> {
    let metrics = TOTAL_METRIC_COUNT;
    if processor.mean.len() != metrics || processor.m2.len() != metrics {
        return Err(invalid(format!("expected {metrics} means and variances")));
    }
    Ok(())
}

pub(crate) fn model_to_json(m: &TrainedModel) -> String {
    let mut doc = m.encode();
    if let Json::Obj(fields) = &mut doc {
        fields.insert(0, ("version".to_string(), FORMAT_VERSION.encode()));
    }
    doc.to_text()
}

pub(crate) fn model_from_json(text: &str) -> Result<TrainedModel, PersistError> {
    let (doc, version) = document(text)?;
    if version > FORMAT_VERSION {
        return Err(PersistError::Version(version));
    }
    let model = TrainedModel::decode(&doc)?;
    check(&model.snapshot, &model.processor)?;
    if model.action_indices.len() != model.snapshot.config.action_dim {
        let outputs = model.snapshot.config.action_dim;
        return Err(invalid(format!("an actor with {outputs} outputs")).under("action_indices"));
    }
    Ok(model)
}

pub(crate) fn checkpoint_to_json(c: &TrainingCheckpoint) -> String {
    c.encode().to_text()
}

pub(crate) fn checkpoint_from_json(text: &str) -> Result<TrainingCheckpoint, PersistError> {
    let (doc, version) = document(text)?;
    match version {
        v if v > CHECKPOINT_VERSION => return Err(PersistError::Version(v)),
        v if v < CHECKPOINT_VERSION => return Err(PersistError::Superseded(v)),
        _ => {}
    }
    let ck = TrainingCheckpoint::decode(&doc)?;
    check_snapshot(&ck.learner.snapshot).map_err(|e| e.under("snapshot").under("learner"))?;
    ck.learner.validate().map_err(|e| invalid(e).under("learner"))?;
    check_processor(&ck.env.processor).map_err(|e| e.under("processor").under("env"))?;
    if let Some((snapshot, processor)) = &ck.best_snapshot {
        check(snapshot, processor).map_err(|e| e.under("best_snapshot"))?;
        let (outputs, knobs) = (snapshot.config.action_dim, ck.learner.snapshot.config.action_dim);
        if outputs != knobs {
            let problem = format!("an actor with {outputs} outputs, not the learner's {knobs}");
            return Err(invalid(problem).under("best_snapshot"));
        }
    }
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TrainedModel {
        let mut m = TrainedModel::cold(vec![3, 1, 4], RewardConfig::default(), u64::MAX);
        // Small networks keep the documents (and the test) small.
        let (actor_hidden, critic_hidden) = (vec![8, 8, 4], vec![8, 4]);
        let small = DdpgConfig { actor_hidden, critic_hidden, ..m.snapshot.config };
        m.snapshot = rl::Ddpg::new(small).snapshot();
        m.processor.count = u64::MAX - 1;
        m.processor.mean[5] = -0.0;
        m.processor.m2[6] = f64::MIN_POSITIVE;
        m
    }

    fn checkpoint() -> TrainingCheckpoint {
        let m = model();
        let t = Transition {
            state: vec![0.1; TOTAL_METRIC_COUNT],
            action: vec![f32::MIN_POSITIVE, 1.0 - f32::EPSILON, 0.3],
            reward: -10.0,
            next_state: vec![-0.0; TOTAL_METRIC_COUNT],
            done: true,
        };
        // A learner past its first update, so the moments are not empty.
        let mut agent = rl::Ddpg::from_snapshot(&m.snapshot);
        let _ = agent.train_step(&[&t, &t], None, None);
        let mut pool = crate::MemoryPool::new(crate::MemoryKind::Prioritized, 4);
        for _ in 0..3 {
            pool.push(t.clone());
        }
        pool.update_priorities(Some(&[1]), &[0.25]);
        let (replay, priorities) = pool.state();
        TrainingCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: u64::MAX,
            episode: 2,
            learner: agent.learner_state(),
            replay,
            priorities,
            rng: u64::MAX - 2,
            noise_sigma: 0.3,
            env: EnvCarry {
                processor: m.processor.clone(),
                workload_rng: 1 << 63,
                engine_streams: (u64::MAX, 7),
                quarantined: vec![0, 1 << 53, u64::MAX],
                crash_streaks: vec![(u64::MAX - 1, 2)],
            },
            report: TrainingReport {
                total_steps: 27,
                reward_history: vec![0.1, -100.0],
                throughput_history: vec![1e3],
                latency_history: vec![f64::MAX],
                best_throughput: 1e3,
                best_latency_us: f64::MAX,
                best_action: vec![0.5; 3],
                actor_eval_history: vec![(21, 1234.5), (41, 0.0)],
                crashes: 1,
                wall_seconds: 0.25,
                recovery: RecoveryStats { retries: 3, checkpoints_loaded: 1, ..Default::default() },
            },
            best_eval: f64::MIN,
            best_snapshot: Some((m.snapshot, m.processor)),
        }
    }

    #[test]
    fn documents_round_trip_exactly_with_full_range_integers() {
        let m = model();
        let back = model_from_json(&model_to_json(&m)).unwrap();
        assert_eq!(back.snapshot, m.snapshot, "f32 weights bit for bit");
        assert_eq!(back.snapshot.config.seed, u64::MAX);
        assert_eq!(back.processor, m.processor);
        assert!(back.processor.mean[5].is_sign_negative());
        assert_eq!(model_to_json(&back), model_to_json(&m), "encode is a fixed point");

        let c = checkpoint();
        let back = checkpoint_from_json(&checkpoint_to_json(&c)).unwrap();
        assert_eq!(back.env, c.env, "full-range stream words and quarantine keys");
        assert_eq!((back.seed, back.episode, back.rng), (u64::MAX, 2, u64::MAX - 2));
        assert!(back.learner == c.learner, "weights, moments and streams bit for bit");
        assert_eq!((&back.replay, &back.priorities), (&c.replay, &c.priorities));
        assert_eq!(back.report.actor_eval_history, c.report.actor_eval_history);
        assert_eq!(back.best_eval, f64::MIN);
        assert_eq!(checkpoint_to_json(&back), checkpoint_to_json(&c));
    }

    /// `text` with the value at `path` replaced (`None` removes the key).
    fn edited(text: &str, path: &[&str], to: Option<Json>) -> String {
        fn go(j: &mut Json, path: &[&str], to: Option<Json>) {
            let Json::Obj(fields) = j else { panic!("an object above {path:?}") };
            let at = fields.iter().position(|(k, _)| k == path[0]).expect("the key exists");
            match (path.len(), to) {
                (1, Some(v)) => fields[at].1 = v,
                (1, None) => drop(fields.remove(at)),
                (_, to) => go(&mut fields[at].1, &path[1..], to),
            }
        }
        let mut doc = Json::parse(text).unwrap();
        go(&mut doc, path, to);
        doc.to_text()
    }

    #[test]
    fn the_serde_layout_still_loads() {
        // What earlier builds wrote: no `version`, bare-number u64, no
        // `reward_scale`; `recovery` and `quarantined` absent from old
        // checkpoints. Unknown keys are ignored.
        let mut text = model_to_json(&model()).replacen('{', "{\"candidates\":4,", 1);
        for key in ["version", "reward_scale"] {
            text = edited(&text, &[key], None);
        }
        let text = edited(&text, &["processor", "count"], Some(Json::Num(20.0)));
        let m = model_from_json(&text).unwrap();
        assert_eq!((m.reward_scale, m.processor.observations()), (DEFAULT_REWARD_SCALE, 20));

        // A checkpoint without a version is a version-1 one, which lacks the
        // state a resume needs; `recovery` absent from its report still
        // defaults.
        let text = checkpoint_to_json(&checkpoint());
        let unversioned = edited(&text, &["version"], None);
        assert_eq!(checkpoint_from_json(&unversioned).unwrap_err(), PersistError::Superseded(1));
        let c = checkpoint_from_json(&edited(&text, &["report", "recovery"], None)).unwrap();
        assert_eq!(c.report.recovery, RecoveryStats::default());
    }

    #[test]
    fn checkpoints_before_version_4_are_refused_by_version() {
        // Versions 1–3 hold the networks without their optimizers, the
        // transitions without their priorities, and no stream: a resume
        // from them would be another run, so none is read.
        let text = checkpoint_to_json(&checkpoint());
        for v in 1..CHECKPOINT_VERSION {
            let old = edited(&text, &["version"], Some(Json::Num(f64::from(v))));
            let err = checkpoint_from_json(&old).unwrap_err();
            assert_eq!(err, PersistError::Superseded(v));
            assert!(err.to_string().contains(&format!("version {v}")), "{err}");
        }
        // A model of version 3 still loads: its format has not changed.
        assert!(model_from_json(&model_to_json(&model())).is_ok());
    }

    #[test]
    fn damaged_documents_are_typed_errors_not_panics() {
        let good = model_to_json(&model());
        for cut in (0..good.len()).step_by(good.len() / 13) {
            assert!(model_from_json(&good[..cut]).is_err(), "accepted a prefix of {cut} bytes");
        }
        assert!(matches!(model_from_json("{\"snapshot\""), Err(PersistError::Syntax(_))));

        let n = |v: f64| Some(Json::Num(v));
        let cases: [(&[&str], Option<Json>, &str); 13] = [
            // Missing and wrong-typed fields name their path.
            (&["snapshot"], None, "snapshot"),
            (&["reward", "c_t"], Some(Json::Str("half".into())), "reward.c_t"),
            (&["reward", "kind"], Some(Json::Str("Best".into())), "reward.kind"),
            (&["snapshot", "config", "seed"], n(-1.0), "snapshot.config.seed"),
            (&["snapshot", "config", "batch_size"], n(0.5), "snapshot.config.batch_size"),
            (&["snapshot", "config", "tau"], n(1e300), "snapshot.config.tau"),
            (&["snapshot", "actor", "layers"], n(1.0), "snapshot.actor.layers"),
            // Layer shapes, batch size, state width or dropout the networks
            // would assert (or allocate) on; a knob list that is not the
            // actor's width; a short normalizer.
            (&["snapshot", "config", "actor_hidden"], Some(vec![9usize, 8, 4].encode()), "snapshot"),
            (&["snapshot", "config", "batch_size"], n(9_007_199_254_740_992.0), "snapshot"),
            (&["snapshot", "config", "state_dim"], n(62.0), "snapshot"),
            (&["snapshot", "config", "dropout"], n(1.0), "snapshot"),
            (&["action_indices"], Some(vec![3usize, 1].encode()), "action_indices"),
            (&["processor", "m2"], Some(vec![0.0f64; 62].encode()), "processor"),
        ];
        for (path, to, want) in cases {
            match model_from_json(&edited(&good, path, to)) {
                Err(PersistError::Invalid { path: at, .. }) => assert_eq!(at, want, "{path:?}"),
                other => panic!("{path:?}: expected an invalid field, got {other:?}"),
            }
        }
        // A matrix that claims more than it holds allocates nothing.
        let text = good.replacen("\"rows\":63,", "\"rows\":9007199254740992,", 1);
        let err = model_from_json(&text).unwrap_err().to_string();
        assert_eq!(err, "`snapshot.actor.layers.0.0`: 9007199254740992x8 matrix holds 504 values");

        // A newer format is refused by number, in either document.
        let newer = edited(&good, &["version"], n(4.0));
        assert_eq!(model_from_json(&newer).unwrap_err(), PersistError::Version(4));
        let newer = checkpoint_to_json(&TrainingCheckpoint { version: 9, ..checkpoint() });
        assert_eq!(checkpoint_from_json(&newer).unwrap_err(), PersistError::Version(9));
        let text = checkpoint_to_json(&checkpoint());
        let bad = edited(&text, &["best_snapshot"], Some(Json::Arr(vec![])));
        assert!(matches!(checkpoint_from_json(&bad), Err(PersistError::Invalid { .. })));

        // A best snapshot whose actor has another width than the learner's,
        // moments that do not match the networks, and a stream word short.
        let mut c = checkpoint();
        let mut wide = c.learner.snapshot.config.clone();
        wide.action_dim = 5;
        c.best_snapshot = Some((rl::Ddpg::new(wide).snapshot(), c.env.processor.clone()));
        let err = checkpoint_from_json(&checkpoint_to_json(&c)).unwrap_err().to_string();
        assert_eq!(err, "`best_snapshot`: an actor with 5 outputs, not the learner's 3");
        let mut c = checkpoint();
        c.learner.critic_opt.v.pop();
        let err = checkpoint_from_json(&checkpoint_to_json(&c)).unwrap_err().to_string();
        assert_eq!(err, "`learner`: critic_opt moments do not match the networks' parameters");
        let mut c = checkpoint();
        c.learner.dropout_rngs.pop();
        let err = checkpoint_from_json(&checkpoint_to_json(&c)).unwrap_err();
        assert!(matches!(err, PersistError::Invalid { ref path, .. } if path == "learner"), "{err}");
    }
}
