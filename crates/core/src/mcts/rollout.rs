//! Rollout policies (§6.2 of the paper).
//!
//! After reaching an unvisited leaf, MCTS completes the episode by randomly
//! inserting indexes. The paper's standard policy draws a look-ahead step
//! size `l ∈ {0, 1, …, K − d}` uniformly; the *myopic* variant fixes `l`
//! (step 0 — evaluate the leaf itself — is the setting that performed best
//! together with Best-Greedy extraction). Index choice is uniform under
//! UCT and prior-proportional under ε-greedy.

use crate::mcts::policy::{ActionWeights, Actions, SelectionPolicy};
use crate::tuner::{Constraints, TuningContext};
use ixtune_common::{IndexId, IndexSet};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Rollout step-size policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RolloutPolicy {
    /// `l ~ Uniform{0, …, K − d}` (the standard, unbiased policy).
    RandomStep,
    /// Fixed (myopic) step size.
    FixedStep(usize),
}

impl RolloutPolicy {
    /// Label used in the ablation figures.
    pub fn label(&self) -> String {
        match self {
            RolloutPolicy::RandomStep => "random-step".into(),
            RolloutPolicy::FixedStep(l) => format!("fixed-step({l})"),
        }
    }

    /// Run a rollout from `config` (at depth `d = |config|`): sample the
    /// step size, then insert that many admissible indexes chosen per the
    /// action-selection flavor ([`SelectionPolicy::rollout_pick`] over the
    /// priors in `weights`). Each insertion is reported as
    /// `on_insert(configuration before it, inserted index)` — the MCTS
    /// episode extends its per-query costs this way.
    #[allow(clippy::too_many_arguments)]
    pub fn rollout(
        &self,
        ctx: &TuningContext<'_>,
        constraints: &Constraints,
        selection: &SelectionPolicy,
        weights: &ActionWeights,
        config: &IndexSet,
        rng: &mut StdRng,
        mut on_insert: impl FnMut(&IndexSet, IndexId),
    ) -> IndexSet {
        let depth = config.len();
        let max_step = constraints.k.saturating_sub(depth);
        let steps = match *self {
            RolloutPolicy::RandomStep => {
                if max_step == 0 {
                    0
                } else {
                    rng.random_range(0..=max_step)
                }
            }
            RolloutPolicy::FixedStep(l) => l.min(max_step),
        };

        let mut out = config.clone();
        for _ in 0..steps {
            let actions = Actions::new(ctx, constraints, &out);
            let Some(a) = selection.rollout_pick(&actions, weights, rng) else {
                break;
            };
            on_insert(&out, a);
            out.insert(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_common::rng::seeded;
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::synth;

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn fixed_step_zero_returns_input() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        let c = Constraints::cardinality(5);
        let cfg = IndexSet::singleton(ctx.universe(), IndexId::new(0));
        let mut rng = seeded(1);
        let out = RolloutPolicy::FixedStep(0).rollout(
            &ctx,
            &c,
            &SelectionPolicy::uct(),
            &ActionWeights::new(&vec![0.0; ctx.universe()]),
            &cfg,
            &mut rng,
            |_, _| {},
        );
        assert_eq!(out, cfg);
    }

    #[test]
    fn fixed_step_adds_exactly_l_when_possible() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        assert!(ctx.universe() >= 4);
        let c = Constraints::cardinality(4);
        let cfg = IndexSet::empty(ctx.universe());
        let mut rng = seeded(2);
        let out = RolloutPolicy::FixedStep(2).rollout(
            &ctx,
            &c,
            &SelectionPolicy::uct(),
            &ActionWeights::new(&vec![0.0; ctx.universe()]),
            &cfg,
            &mut rng,
            |_, _| {},
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn random_step_respects_cardinality() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let k = 3;
        let c = Constraints::cardinality(k);
        let mut rng = seeded(3);
        for _ in 0..100 {
            let out = RolloutPolicy::RandomStep.rollout(
                &ctx,
                &c,
                &SelectionPolicy::uct(),
                &ActionWeights::new(&vec![0.0; ctx.universe()]),
                &IndexSet::empty(ctx.universe()),
                &mut rng,
                |_, _| {},
            );
            assert!(out.len() <= k);
        }
    }

    #[test]
    fn rollout_from_full_depth_is_identity() {
        let (opt, cands) = setup(4);
        let ctx = TuningContext::new(&opt, &cands);
        let n = ctx.universe();
        assert!(n >= 2);
        let c = Constraints::cardinality(2);
        let cfg = IndexSet::from_ids(n, [IndexId::new(0), IndexId::new(1)]);
        let mut rng = seeded(4);
        let out = RolloutPolicy::RandomStep.rollout(
            &ctx,
            &c,
            &SelectionPolicy::uct(),
            &ActionWeights::new(&vec![0.0; ctx.universe()]),
            &cfg,
            &mut rng,
            |_, _| {},
        );
        assert_eq!(out, cfg);
    }

    #[test]
    fn prior_weighted_rollout_prefers_high_prior_indexes() {
        let (opt, cands) = setup(5);
        let ctx = TuningContext::new(&opt, &cands);
        let n = ctx.universe();
        assert!(n >= 3);
        let mut priors = vec![0.0; n];
        priors[1] = 0.9;
        let weights = ActionWeights::new(&priors);
        let c = Constraints::cardinality(1);
        let mut rng = seeded(5);
        for _ in 0..30 {
            let out = RolloutPolicy::FixedStep(1).rollout(
                &ctx,
                &c,
                &SelectionPolicy::EpsilonGreedyPrior,
                &weights,
                &IndexSet::empty(n),
                &mut rng,
                |_, _| {},
            );
            assert!(out.contains(IndexId::new(1)), "only positive-prior index");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(RolloutPolicy::RandomStep.label(), "random-step");
        assert_eq!(RolloutPolicy::FixedStep(0).label(), "fixed-step(0)");
    }
}
