//! Versioned on-disk snapshots of suspended MCTS sessions.
//!
//! A checkpoint captures *everything* the episode loop reads between
//! episodes: the search tree (exact arena numbering), the what-if cache
//! (exact stored order, so derived costs answer bit-identically), the
//! budget meter, the layout trace, the telemetry counters, the RNG state
//! (raw xoshiro256** words), the priors vector, the best-explored
//! configuration, the convergence trace, the idle-streak counter, and the
//! AMAF table when RAVE updates are configured. Suspension happens only at
//! episode boundaries, so no mid-episode state exists to capture; resuming
//! replays the remaining episodes exactly as the uninterrupted run would
//! have executed them.
//!
//! The format is line-oriented JSON (one document) with an explicit
//! [`SNAPSHOT_VERSION`]; readers reject other versions rather than guess.
//! `f64` values survive the JSON round trip bit-exactly (see the vendored
//! `serde_json` docs) — the one excluded value is NaN, which the cache
//! snapshot never emits (NaN cells mean "unknown" and are skipped).

use crate::budget::{BudgetMeter, SessionTelemetry};
use crate::derived::CacheSnapshot;
use crate::mcts::policy::AmafTable;
use crate::mcts::tree::TreeSnapshot;
use crate::tuner::TuningRequest;
use ixtune_common::{IndexSet, QueryId};
use serde::{Deserialize, Serialize};

/// Current checkpoint format version. Bump on any incompatible change to
/// [`MctsCheckpoint`] or the snapshot types it embeds.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Serialized state of a suspended MCTS tuning session.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MctsCheckpoint {
    /// Format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// `Tuner::name()` of the capturing tuner — resume refuses a
    /// differently-configured tuner, which would diverge silently.
    pub algorithm: String,
    /// The original request (constraints, budget, seed, threads).
    pub req: TuningRequest,
    /// Raw xoshiro256** state of the episode RNG.
    pub rng: (u64, u64, u64, u64),
    /// Singleton priors η(W, {I_i}) from the (already completed) priors
    /// phase.
    pub priors: Vec<f64>,
    /// Search tree with exact arena numbering.
    pub tree: TreeSnapshot,
    /// What-if cache in exact stored order.
    pub cache: CacheSnapshot,
    /// Budget consumption at suspension.
    pub meter: BudgetMeter,
    /// Chronological budget-consuming calls (the layout under
    /// construction).
    pub trace: Vec<(QueryId, IndexSet)>,
    /// Telemetry counters *excluding* cache derivations (those are
    /// restored with the cache).
    pub counters: SessionTelemetry,
    /// Best evaluated configuration and its estimated cost.
    pub best: Option<(IndexSet, f64)>,
    /// Convergence trace so far.
    pub conv: Vec<f64>,
    /// Consecutive budget-free episodes at suspension.
    pub idle_streak: usize,
    /// AMAF statistics (RAVE updates only).
    pub amaf: Option<AmafTable>,
}

/// Why [`MctsTuner::resume`](crate::mcts::MctsTuner::resume) refused a
/// checkpoint. Each variant is a mismatch between the checkpoint and the
/// resuming tuner or context that would otherwise diverge silently or
/// index out of bounds.
#[derive(Clone, Debug, PartialEq)]
pub enum ResumeError {
    /// Written by another format version.
    Version { found: u32 },
    /// Captured by a differently configured tuner.
    Algorithm { found: String, resuming: String },
    /// Root-parallel sessions have no checkpoint form.
    RootParallel,
    /// The cache's workload shape differs from the context's.
    Shape {
        universe: usize,
        queries: usize,
        context_universe: usize,
        context_queries: usize,
    },
    /// The priors vector does not have one entry per candidate.
    PriorsLen { len: usize, universe: usize },
    /// A prior is negative (−0 included) or not finite; Algorithm 4 emits
    /// fractions in `[0, 1]`, and selection reads priors as sampling
    /// weights.
    PriorValue { index: usize, value: f64 },
    /// The AMAF visit counts or values do not have one entry per candidate.
    AmafLen { n: usize, q: usize, universe: usize },
    /// The best configuration ranges over another candidate universe.
    BestUniverse { universe: usize, context: usize },
    /// A tree node's configuration ranges over another candidate universe.
    TreeUniverse {
        node: usize,
        universe: usize,
        context: usize,
    },
    /// A tree node holds statistics for, or a child under, an action
    /// outside the candidate universe.
    TreeAction {
        node: usize,
        action: usize,
        universe: usize,
    },
    /// The cache or tree snapshot is malformed.
    Snapshot(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Version { found } => write!(
                f,
                "checkpoint version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            ResumeError::Algorithm { found, resuming } => write!(
                f,
                "checkpoint belongs to \"{found}\", resuming tuner is \"{resuming}\""
            ),
            ResumeError::RootParallel => write!(f, "root-parallel sessions are not suspendable"),
            ResumeError::Shape {
                universe,
                queries,
                context_universe,
                context_queries,
            } => write!(
                f,
                "checkpoint workload shape ({universe} candidates × {queries} queries) does not \
                 match the context ({context_universe} × {context_queries})"
            ),
            ResumeError::PriorsLen { len, universe } => {
                write!(f, "checkpoint has {len} priors for {universe} candidates")
            }
            ResumeError::PriorValue { index, value } => {
                write!(
                    f,
                    "checkpoint prior {index} is {value}, not a finite fraction"
                )
            }
            ResumeError::AmafLen { n, q, universe } => write!(
                f,
                "checkpoint AMAF table has {n} visit counts and {q} values for {universe} \
                 candidates"
            ),
            ResumeError::BestUniverse { universe, context } => write!(
                f,
                "checkpoint best configuration ranges over {universe} candidates, the context \
                 over {context}"
            ),
            ResumeError::TreeUniverse {
                node,
                universe,
                context,
            } => write!(
                f,
                "checkpoint tree node {node} ranges over {universe} candidates, the context over \
                 {context}"
            ),
            ResumeError::TreeAction {
                node,
                action,
                universe,
            } => write!(
                f,
                "checkpoint tree node {node} names action {action}, outside the {universe} \
                 candidates"
            ),
            ResumeError::Snapshot(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl MctsCheckpoint {
    /// Compact JSON encoding (a single line — fits the service's
    /// line-delimited file layout).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Parse a checkpoint from JSON. Structural validation (tree links,
    /// cache ordering, workload shape) happens in `MctsTuner::resume`.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("malformed checkpoint: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcts::{MctsOutcome, MctsTuner};
    use crate::stop::StopSignal;
    use crate::tuner::TuningContext;
    use ixtune_candidates::generate_default;
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::synth;

    fn capture(seed: u64, budget: usize, pause: usize) -> MctsCheckpoint {
        capture_with(&MctsTuner::default(), seed, budget, pause)
    }

    fn capture_with(tuner: &MctsTuner, seed: u64, budget: usize, pause: usize) -> MctsCheckpoint {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let req = crate::tuner::TuningRequest::cardinality(3, budget).with_seed(seed);
        let stop = StopSignal::armed().suspend_after_calls(pause);
        match tuner.run_resumable(&ctx, &req, &stop) {
            MctsOutcome::Suspended(ckpt) => *ckpt,
            MctsOutcome::Finished(..) => panic!("expected suspension at {pause} calls"),
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let ckpt = capture(3, 120, 60);
        assert_eq!(ckpt.version, SNAPSHOT_VERSION);
        assert!(ckpt.meter.used() >= 60, "suspended after the trigger");
        let json = ckpt.to_json();
        assert!(!json.contains('\n'), "one line for line-delimited files");
        let back = MctsCheckpoint::from_json(&json).unwrap();
        // Re-encoding the parsed checkpoint must reproduce the bytes —
        // field order and every f64 bit pattern survive.
        assert_eq!(back.to_json(), json);
        assert_eq!(back.tree, ckpt.tree);
        assert_eq!(back.cache, ckpt.cache);
        assert_eq!(back.meter, ckpt.meter);
        assert_eq!(back.counters, ckpt.counters);
        assert_eq!(back.rng, ckpt.rng);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MctsCheckpoint::from_json("").is_err());
        assert!(MctsCheckpoint::from_json("{\"version\": 1}").is_err());
        assert!(MctsCheckpoint::from_json("not json").is_err());
    }

    #[test]
    fn resume_rejects_version_and_algorithm_mismatch() {
        let inst = synth::instance(5);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let mut ckpt = capture(5, 100, 50);

        let tuner = MctsTuner::default();
        ckpt.version = SNAPSHOT_VERSION + 1;
        assert!(tuner.resume(&ctx, &ckpt, &StopSignal::never()).is_err());
        ckpt.version = SNAPSHOT_VERSION;

        let other = MctsTuner::default().with_root_workers(2);
        assert!(other.resume(&ctx, &ckpt, &StopSignal::never()).is_err());

        assert!(tuner.resume(&ctx, &ckpt, &StopSignal::never()).is_ok());
    }

    /// Resume `ckpt` against the synth instance it was captured on.
    fn resume_err(tuner: &MctsTuner, seed: u64, ckpt: &MctsCheckpoint) -> ResumeError {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        match tuner.resume(&ctx, ckpt, &StopSignal::never()) {
            Ok(_) => panic!("malformed checkpoint was accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn resume_rejects_short_priors() {
        let mut ckpt = capture(5, 100, 50);
        let universe = ckpt.priors.len();
        ckpt.priors.pop();
        assert_eq!(
            resume_err(&MctsTuner::default(), 5, &ckpt),
            ResumeError::PriorsLen {
                len: universe - 1,
                universe
            }
        );
    }

    #[test]
    fn resume_rejects_priors_that_are_not_fractions() {
        let mut ckpt = capture(5, 100, 50);
        for bad in [f64::INFINITY, f64::NAN, -0.5, -0.0] {
            ckpt.priors[2] = bad;
            let err = resume_err(&MctsTuner::default(), 5, &ckpt);
            assert!(
                matches!(err, ResumeError::PriorValue { index: 2, value }
                    if value.to_bits() == bad.to_bits()),
                "{err}"
            );
        }
    }

    #[test]
    fn resume_rejects_amaf_of_another_universe() {
        let tuner = MctsTuner::default().with_update(crate::mcts::UpdatePolicy::Rave { k: 20.0 });
        let mut ckpt = capture_with(&tuner, 5, 100, 50);
        let universe = ckpt.priors.len();
        ckpt.amaf = Some(AmafTable::new(universe - 1, 20.0));
        assert_eq!(
            resume_err(&tuner, 5, &ckpt),
            ResumeError::AmafLen {
                n: universe - 1,
                q: universe - 1,
                universe
            }
        );
    }

    #[test]
    fn resume_rejects_best_of_another_universe() {
        let mut ckpt = capture(5, 100, 50);
        let universe = ckpt.priors.len();
        let (_, cost) = ckpt.best.clone().expect("a best configuration by call 50");
        ckpt.best = Some((IndexSet::empty(universe + 1), cost));
        assert_eq!(
            resume_err(&MctsTuner::default(), 5, &ckpt),
            ResumeError::BestUniverse {
                universe: universe + 1,
                context: universe
            }
        );
    }

    #[test]
    fn resume_rejects_tree_of_another_universe() {
        let mut ckpt = capture(5, 100, 50);
        let universe = ckpt.priors.len();
        ckpt.tree = crate::mcts::tree::Tree::new(universe + 64).snapshot();
        assert_eq!(
            resume_err(&MctsTuner::default(), 5, &ckpt),
            ResumeError::TreeUniverse {
                node: 0,
                universe: universe + 64,
                context: universe
            }
        );
    }

    #[test]
    fn resume_rejects_tree_actions_outside_the_universe() {
        use crate::mcts::tree::Tree;
        let ckpt = capture(5, 100, 50);
        let universe = ckpt.priors.len();
        let outside = ixtune_common::IndexId::new(universe as u32);
        let expect = ResumeError::TreeAction {
            node: 0,
            action: universe,
            universe,
        };
        // Statistics for an action past the last candidate.
        let mut tree = Tree::new(universe);
        tree.update_path(&[(Tree::ROOT, outside)], Tree::ROOT, 0.5);
        let mut bad = ckpt.clone();
        bad.tree = tree.snapshot();
        assert_eq!(resume_err(&MctsTuner::default(), 5, &bad), expect);
        // A child reached by one.
        let mut tree = Tree::new(universe);
        tree.node_mut(Tree::ROOT)
            .children
            .insert(outside, Tree::ROOT);
        let mut bad = ckpt;
        bad.tree = tree.snapshot();
        assert_eq!(resume_err(&MctsTuner::default(), 5, &bad), expect);
    }
}
