//! Action selection policies (§6.1 of the paper).
//!
//! * [`SelectionPolicy::Uct`] — the UCB1 criterion (Eq. 5) with λ = √2 by
//!   default; unvisited actions have infinite UCB score and are therefore
//!   visited first (the slow-start behaviour the paper discusses).
//! * [`SelectionPolicy::EpsilonGreedyPrior`] — the paper's ε-greedy
//!   variant (Eq. 6): sample an action with probability proportional to
//!   its estimated value, seeding unvisited actions with the singleton
//!   prior η(W, {a}) computed by Algorithm 4.
//!
//! Tree selection ([`SelectionPolicy::select`]) and rollout insertion
//! ([`SelectionPolicy::rollout_pick`]) share one allocation-free sampler.
//! It walks the admissible [`Actions`] block by block in ascending id
//! order and reads per-candidate values from the dense [`ActionWeights`]
//! buffer; nothing is collected per pick.

use crate::mcts::tree::Node;
use crate::tuner::{Constraints, ExtensionFilter, TuningContext};
use ixtune_common::rng::{clean_weight, weighted_pick, WeightedSeq};
use ixtune_common::{IndexId, IndexSet};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// Which action selection policy MCTS uses.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// UCB1 with exploration constant `lambda`.
    Uct { lambda: f64 },
    /// Value-proportional sampling with singleton priors (Eq. 6).
    EpsilonGreedyPrior,
    /// Boltzmann exploration (§6.1): `Pr(a|s) ∝ exp(Q̂(s,a)/τ)`, with
    /// unvisited actions seeded by the singleton priors. The paper derives
    /// its Eq. 6 variant from this policy to drop the temperature
    /// hyperparameter; we keep Boltzmann for the ablation.
    Boltzmann { tau: f64 },
    /// Classic ε-greedy: the best-known action with probability `1 − ε`,
    /// a uniformly random other action otherwise. Included as the §6.1
    /// strawman the paper's variant improves on.
    ClassicEpsilon { epsilon: f64 },
}

impl SelectionPolicy {
    /// The paper's UCT configuration (λ = √2, following \[38\]).
    pub fn uct() -> Self {
        SelectionPolicy::Uct {
            lambda: std::f64::consts::SQRT_2,
        }
    }

    /// Short label used in the ablation figures ("UCT" / "Prior").
    pub fn label(&self) -> &'static str {
        match self {
            SelectionPolicy::Uct { .. } => "UCT",
            SelectionPolicy::EpsilonGreedyPrior => "Prior",
            SelectionPolicy::Boltzmann { .. } => "Boltzmann",
            SelectionPolicy::ClassicEpsilon { .. } => "EpsGreedy",
        }
    }

    /// Whether the policy consumes singleton priors (Algorithm 4).
    pub fn uses_priors(&self) -> bool {
        !matches!(self, SelectionPolicy::Uct { .. })
    }

    /// Select an action at `node` among its admissible `actions`. An
    /// untaken action's value is its prior from `weights` (UCT's priors
    /// are all zero); a taken action's is its observed `Q̂(s,a)`, floored
    /// at zero. With an [`AmafTable`] (RAVE updates) every value is blended
    /// with the all-moves-as-first statistics. Returns `None`, drawing
    /// nothing, when no action is admissible.
    ///
    /// The node's statistics are written over `weights` for the pick and
    /// restored after it.
    pub fn select(
        &self,
        node: &Node,
        actions: &Actions<'_>,
        weights: &mut ActionWeights,
        amaf: Option<&AmafTable>,
        rng: &mut StdRng,
    ) -> Option<IndexId> {
        let needs_visits = matches!(self, SelectionPolicy::Uct { .. }) || amaf.is_some();
        // Plain ε-greedy reads the buffer as its Eq. 6 weights, so the
        // observed values it writes must be cleaned like the priors.
        let cleaned = amaf.is_none() && matches!(self, SelectionPolicy::EpsilonGreedyPrior);
        weights.overlay(node, needs_visits, cleaned);
        let est = Estimates {
            value: &weights.value,
            visits: &weights.visits,
            amaf,
        };
        let pick = self.sample(node, actions, &est, rng);
        weights.restore();
        pick
    }

    fn sample(
        &self,
        node: &Node,
        actions: &Actions<'_>,
        est: &Estimates<'_>,
        rng: &mut StdRng,
    ) -> Option<IndexId> {
        match *self {
            SelectionPolicy::Uct { lambda } => {
                // Unvisited actions first (infinite UCB score) — unless
                // RAVE already has an estimate for them.
                if let Some(a) = actions.uniform(rng, |a| est.unvisited(a)) {
                    return Some(a);
                }
                let total = node.n_visits.max(1) as f64;
                actions.argmax(|a| {
                    let n = est.visits(a).max(1) as f64;
                    est.value(a) + lambda * (total.ln() / n).sqrt()
                })
            }
            SelectionPolicy::EpsilonGreedyPrior => {
                weighted_pick(rng, &actions.weighted(|a| est.weight(a)))
            }
            SelectionPolicy::Boltzmann { tau } => {
                let tau = tau.max(1e-6);
                // Softmax with max-shift for numeric stability.
                let mut peak = f64::NEG_INFINITY;
                let _ = actions.walk(|a| {
                    peak = peak.max(est.value(a));
                    ControlFlow::<()>::Continue(())
                });
                weighted_pick(
                    rng,
                    &actions.weighted(|a| clean_weight(((est.value(a) - peak) / tau).exp())),
                )
            }
            SelectionPolicy::ClassicEpsilon { epsilon } => {
                let best = actions.argmax(|a| est.value(a))?;
                let explore = rng.random::<f64>() < epsilon;
                if !explore {
                    return Some(best);
                }
                actions.uniform(rng, |a| a != best).or(Some(best))
            }
        }
    }

    /// The index a rollout inserts next (§6.2): prior-proportional for the
    /// policies that use priors, uniform under UCT. Reads the priors in
    /// `weights` with no node statistics over them. Returns `None`,
    /// drawing nothing, when no action is admissible.
    pub fn rollout_pick(
        &self,
        actions: &Actions<'_>,
        weights: &ActionWeights,
        rng: &mut StdRng,
    ) -> Option<IndexId> {
        if self.uses_priors() {
            weighted_pick(rng, &actions.weighted(|a| weights.value[a.index()]))
        } else {
            actions.uniform(rng, |_| true)
        }
    }
}

/// The admissible actions `A(s)` at one state: the candidates outside its
/// configuration that the constraints let it grow by, visited in ascending
/// id order one `u64` block of the configuration at a time.
pub struct Actions<'a> {
    ctx: &'a TuningContext<'a>,
    config: &'a IndexSet,
    filter: ExtensionFilter,
}

impl<'a> Actions<'a> {
    /// The admissible extensions of `config` under `constraints`.
    pub fn new(
        ctx: &'a TuningContext<'a>,
        constraints: &Constraints,
        config: &'a IndexSet,
    ) -> Self {
        Self {
            ctx,
            config,
            filter: constraints.extension_filter(ctx, config),
        }
    }

    /// Visit the actions in ascending id order until `f` breaks.
    #[inline]
    pub(crate) fn walk<B>(&self, f: impl FnMut(IndexId) -> ControlFlow<B>) -> ControlFlow<B> {
        self.filter.try_for_each_admitted(self.ctx, self.config, f)
    }

    /// A uniform pick among the actions `keep` accepts: the same
    /// `random_range(0..count)` draw as choosing from them collected in
    /// order. `None`, drawing nothing, when `keep` accepts none.
    fn uniform(&self, rng: &mut StdRng, keep: impl Fn(IndexId) -> bool) -> Option<IndexId> {
        let mut count = 0usize;
        let _ = self.walk(|a| {
            count += usize::from(keep(a));
            ControlFlow::<()>::Continue(())
        });
        if count == 0 {
            return None;
        }
        let mut nth = rng.random_range(0..count);
        self.walk(|a| {
            if keep(a) {
                if nth == 0 {
                    return ControlFlow::Break(a);
                }
                nth -= 1;
            }
            ControlFlow::Continue(())
        })
        .break_value()
    }

    /// The action with the highest score under `f64::total_cmp`, the last
    /// one on ties (as `Iterator::max_by` keeps it).
    fn argmax(&self, score: impl Fn(IndexId) -> f64) -> Option<IndexId> {
        let mut best: Option<(IndexId, f64)> = None;
        let _ = self.walk(|a| {
            let s = score(a);
            if best.is_none_or(|(_, b)| b.total_cmp(&s).is_le()) {
                best = Some((a, s));
            }
            ControlFlow::<()>::Continue(())
        });
        best.map(|(a, _)| a)
    }

    /// The actions paired with already-cleaned weights, for
    /// [`weighted_pick`].
    fn weighted<W: Fn(IndexId) -> f64>(&self, weight: W) -> Weighted<'_, 'a, W> {
        Weighted {
            actions: self,
            weight,
        }
    }
}

struct Weighted<'s, 'a, W> {
    actions: &'s Actions<'a>,
    weight: W,
}

impl<W: Fn(IndexId) -> f64> WeightedSeq for Weighted<'_, '_, W> {
    type Item = IndexId;

    #[inline]
    fn walk<B>(&self, mut f: impl FnMut(IndexId, f64) -> ControlFlow<B>) -> ControlFlow<B> {
        self.actions.walk(|a| f(a, (self.weight)(a)))
    }
}

/// Per-action estimates at the node being selected from, as the policies
/// read them: the buffer, blended with the all-moves-as-first statistics
/// under RAVE.
struct Estimates<'w> {
    value: &'w [f64],
    visits: &'w [u32],
    amaf: Option<&'w AmafTable>,
}

impl Estimates<'_> {
    /// The action's value: its observed `Q̂` floored at zero or its prior,
    /// RAVE-blended where configured.
    fn value(&self, a: IndexId) -> f64 {
        let v = self.value[a.index()];
        match self.amaf {
            None => v,
            Some(t) => t.blended(a, self.visits(a), v),
        }
    }

    /// The action's Eq. 6 sampling weight: its value, cleaned. Without
    /// RAVE the buffer already holds cleaned weights whenever ε-greedy
    /// samples from it.
    fn weight(&self, a: IndexId) -> f64 {
        match self.amaf {
            None => self.value[a.index()],
            Some(_) => clean_weight(self.value(a)),
        }
    }

    /// `n(s,a)`.
    fn visits(&self, a: IndexId) -> u32 {
        self.visits[a.index()]
    }

    /// Whether UCT's first sweep still owes the action a visit.
    fn unvisited(&self, a: IndexId) -> bool {
        self.visits(a) == 0 && self.amaf.is_none_or(|t| t.visits(a) == 0)
    }
}

/// Dense, universe-sized selection scratch: built once per episode loop
/// from the singleton priors and never checkpointed (a resumed search
/// rebuilds it). Between picks `value` holds every candidate's prior,
/// cleaned as weighted sampling reads it, and `visits` is all zero.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionWeights {
    /// Per candidate: the cleaned prior; during a pick, the observed `Q̂`
    /// (floored at zero, and cleaned for plain ε-greedy) of each action
    /// taken at the node.
    value: Vec<f64>,
    /// Per candidate: `n(s,a)` during a pick when the policy reads visit
    /// counts (UCT, RAVE), zero otherwise.
    visits: Vec<u32>,
    /// The values the current pick overwrote, restored after it.
    saved: Vec<(IndexId, f64)>,
}

impl ActionWeights {
    /// Weights over a universe of `priors.len()` candidates. Priors are
    /// finite and non-negative (Algorithm 4 emits fractions in `[0, 1]`),
    /// so cleaning leaves each one as the policies read it.
    pub fn new(priors: &[f64]) -> Self {
        Self {
            value: priors.iter().map(|&p| clean_weight(p)).collect(),
            visits: vec![0; priors.len()],
            saved: Vec::new(),
        }
    }

    /// Write `node`'s per-action statistics over the priors: `Q̂` floored
    /// at zero, `cleaned` as weighted sampling reads it on request, and
    /// `n(s,a)` when the policy reads visit counts.
    fn overlay(&mut self, node: &Node, with_visits: bool, cleaned: bool) {
        for (&a, stats) in &node.actions {
            let i = a.index();
            self.saved.push((a, self.value[i]));
            let q = stats.q.max(0.0);
            self.value[i] = if cleaned { clean_weight(q) } else { q };
            if with_visits {
                self.visits[i] = stats.n;
            }
        }
    }

    /// Undo [`overlay`](Self::overlay).
    fn restore(&mut self) {
        for (a, v) in self.saved.drain(..) {
            self.value[a.index()] = v;
            self.visits[a.index()] = 0;
        }
    }
}

/// All-moves-as-first statistics for RAVE (Gelly & Silver \[33\], pointed at
/// by §8 of the paper): every index appearing in an evaluated episode
/// configuration contributes the episode reward to its AMAF average,
/// regardless of the tree depth it was chosen at. The blend
/// `Q̃ = (1−β)·local + β·AMAF` with `β = k / (k + n_local)` trusts AMAF
/// early and the local estimate asymptotically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AmafTable {
    n: Vec<u32>,
    q: Vec<f64>,
    /// Equivalence parameter `k`.
    pub k: f64,
}

impl AmafTable {
    pub fn new(universe: usize, k: f64) -> Self {
        Self {
            n: vec![0; universe],
            q: vec![0.0; universe],
            k,
        }
    }

    /// Record an episode `reward` for every index in the evaluated
    /// configuration.
    pub fn update(&mut self, config: &ixtune_common::IndexSet, reward: f64) {
        for id in config.iter() {
            let i = id.index();
            self.n[i] += 1;
            self.q[i] += (reward - self.q[i]) / self.n[i] as f64;
        }
    }

    /// Lengths of the visit-count and value columns (one entry per
    /// candidate in a well-formed table).
    pub(crate) fn lens(&self) -> (usize, usize) {
        (self.n.len(), self.q.len())
    }

    /// AMAF visit count for an action.
    pub fn visits(&self, a: IndexId) -> u32 {
        self.n[a.index()]
    }

    /// Blend the local estimate (`fallback`, backed by `n_local` visits)
    /// with the AMAF estimate.
    pub fn blended(&self, a: IndexId, n_local: u32, fallback: f64) -> f64 {
        let i = a.index();
        if self.n[i] == 0 {
            return fallback;
        }
        let beta = self.k / (self.k + n_local as f64);
        (1.0 - beta) * fallback + beta * self.q[i].max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcts::tree::Tree;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_common::rng::seeded;
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::tpch;

    fn id(i: u32) -> IndexId {
        IndexId::new(i)
    }

    /// An optimizer over the first `n` TPC-H candidates.
    fn fixture(n: usize) -> (SimulatedOptimizer, CandidateSet) {
        let inst = tpch::generate(1.0);
        let mut cands = generate_default(&inst);
        cands.indexes.truncate(n);
        for ids in &mut cands.per_query {
            ids.retain(|a| a.index() < n);
        }
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    /// Selection at one node of a cardinality-constrained search over the
    /// fixture's universe.
    struct Picker<'a> {
        ctx: TuningContext<'a>,
        constraints: Constraints,
        weights: ActionWeights,
    }

    impl<'a> Picker<'a> {
        fn new(fx: &'a (SimulatedOptimizer, CandidateSet), k: usize, priors: &[f64]) -> Self {
            assert_eq!(priors.len(), fx.1.len());
            Self {
                ctx: TuningContext::new(&fx.0, &fx.1),
                constraints: Constraints::cardinality(k),
                weights: ActionWeights::new(priors),
            }
        }

        fn pick(
            &mut self,
            policy: SelectionPolicy,
            node: &Node,
            amaf: Option<&AmafTable>,
            rng: &mut StdRng,
        ) -> Option<IndexId> {
            let actions = Actions::new(&self.ctx, &self.constraints, &node.config);
            policy.select(node, &actions, &mut self.weights, amaf, rng)
        }
    }

    #[test]
    fn empty_action_set_returns_none() {
        let fx = fixture(4);
        let mut t = Tree::new(4);
        let mut rng = seeded(1);
        // K = 0 admits nothing at the root.
        let mut p = Picker::new(&fx, 0, &[0.5; 4]);
        for policy in [
            SelectionPolicy::uct(),
            SelectionPolicy::EpsilonGreedyPrior,
            SelectionPolicy::Boltzmann { tau: 1.0 },
            SelectionPolicy::ClassicEpsilon { epsilon: 1.0 },
        ] {
            assert_eq!(p.pick(policy, t.node(Tree::ROOT), None, &mut rng), None);
            assert_eq!(
                policy.rollout_pick(
                    &Actions::new(&p.ctx, &p.constraints, &t.node(Tree::ROOT).config),
                    &p.weights,
                    &mut rng
                ),
                None
            );
        }
        // A full configuration has no actions left either.
        let mut node = Tree::ROOT;
        for i in 0..4 {
            node = t.get_or_create_child(node, id(i));
        }
        let mut p = Picker::new(&fx, 10, &[0.5; 4]);
        assert_eq!(
            p.pick(
                SelectionPolicy::EpsilonGreedyPrior,
                t.node(node),
                None,
                &mut rng
            ),
            None
        );
        // Nothing was drawn.
        let mut fresh = seeded(1);
        assert_eq!(rng.random::<u64>(), fresh.random::<u64>());
    }

    #[test]
    fn uct_visits_unvisited_actions_first() {
        let fx = fixture(3);
        let mut t = Tree::new(3);
        let c = t.get_or_create_child(Tree::ROOT, id(0));
        t.update_path(&[(Tree::ROOT, id(0))], c, 1.0); // id(0) visited, reward 1
        let mut p = Picker::new(&fx, 3, &[0.0; 3]);
        let mut rng = seeded(2);
        // Despite id(0)'s perfect reward, unvisited ids must be picked.
        for _ in 0..20 {
            let a = p
                .pick(SelectionPolicy::uct(), t.node(Tree::ROOT), None, &mut rng)
                .unwrap();
            assert_ne!(a, id(0));
        }
    }

    #[test]
    fn uct_exploits_after_all_visited() {
        let fx = fixture(3);
        let mut t = Tree::new(3);
        for (i, r) in [(0u32, 0.9), (1, 0.1), (2, 0.1)] {
            let c = t.get_or_create_child(Tree::ROOT, id(i));
            // Visit each action several times so exploration bonuses level.
            for _ in 0..50 {
                t.update_path(&[(Tree::ROOT, id(i))], c, r);
            }
        }
        let mut p = Picker::new(&fx, 3, &[0.0; 3]);
        let mut rng = seeded(3);
        let a = p
            .pick(SelectionPolicy::uct(), t.node(Tree::ROOT), None, &mut rng)
            .unwrap();
        assert_eq!(a, id(0));
    }

    #[test]
    fn epsilon_greedy_respects_priors_for_unvisited() {
        let fx = fixture(3);
        let t = Tree::new(3);
        let mut p = Picker::new(&fx, 3, &[0.0, 0.0, 0.8]);
        let mut rng = seeded(4);
        for _ in 0..50 {
            let a = p
                .pick(
                    SelectionPolicy::EpsilonGreedyPrior,
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(a, id(2), "only nonzero-prior action should be sampled");
        }
    }

    #[test]
    fn epsilon_greedy_mixes_observed_values_and_priors() {
        let fx = fixture(3);
        let mut t = Tree::new(3);
        let c = t.get_or_create_child(Tree::ROOT, id(0));
        for _ in 0..10 {
            t.update_path(&[(Tree::ROOT, id(0))], c, 0.5);
        }
        let mut p = Picker::new(&fx, 3, &[0.1, 0.5, 0.0]);
        let mut rng = seeded(5);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            let a = p
                .pick(
                    SelectionPolicy::EpsilonGreedyPrior,
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            counts[a.index()] += 1;
        }
        // Pr ∝ {0.5 (observed), 0.5 (prior), 0}.
        assert_eq!(counts[2], 0);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn select_restores_the_prior_weights() {
        let fx = fixture(3);
        let mut t = Tree::new(3);
        for (i, r) in [(0u32, 0.9), (2, f64::NAN)] {
            let c = t.get_or_create_child(Tree::ROOT, id(i));
            t.update_path(&[(Tree::ROOT, id(i))], c, r);
        }
        let priors = [0.1, 0.5, 0.25];
        let mut p = Picker::new(&fx, 3, &priors);
        let mut table = AmafTable::new(3, 5.0);
        table.update(&IndexSet::full(3), 0.5);
        let mut rng = seeded(6);
        for policy in [
            SelectionPolicy::uct(),
            SelectionPolicy::EpsilonGreedyPrior,
            SelectionPolicy::Boltzmann { tau: 0.5 },
            SelectionPolicy::ClassicEpsilon { epsilon: 0.5 },
        ] {
            for amaf in [None, Some(&table)] {
                p.pick(policy, t.node(Tree::ROOT), amaf, &mut rng).unwrap();
                assert_eq!(p.weights.value, priors);
                assert_eq!(p.weights.visits, [0; 3]);
                assert!(p.weights.saved.is_empty());
            }
        }
    }

    #[test]
    fn storage_limit_filters_actions() {
        let fx = fixture(40);
        let ctx = TuningContext::new(&fx.0, &fx.1);
        let smallest = (0..40u32)
            .map(id)
            .min_by_key(|&a| fx.0.candidate_size_bytes(a))
            .unwrap();
        let limit = fx.0.candidate_size_bytes(smallest);
        let constraints = Constraints::with_storage(5, limit);
        let empty = IndexSet::empty(40);
        let actions = Actions::new(&ctx, &constraints, &empty);
        let mut admitted = Vec::new();
        let _ = actions.walk(|a| {
            admitted.push(a);
            ControlFlow::<()>::Continue(())
        });
        let expect: Vec<IndexId> = (0..40u32)
            .map(id)
            .filter(|&a| fx.0.candidate_size_bytes(a) <= limit)
            .collect();
        assert_eq!(admitted, expect);
        assert!(admitted.contains(&smallest) && admitted.len() < 40);
    }

    #[test]
    fn boltzmann_prefers_high_values_at_low_temperature() {
        let fx = fixture(3);
        let t = Tree::new(3);
        let mut p = Picker::new(&fx, 3, &[0.1, 0.9, 0.2]);
        let mut rng = seeded(11);
        let mut counts = [0usize; 3];
        for _ in 0..500 {
            let a = p
                .pick(
                    SelectionPolicy::Boltzmann { tau: 0.05 },
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            counts[a.index()] += 1;
        }
        assert!(counts[1] > 480, "low τ ≈ argmax, got {counts:?}");
        // High temperature approaches uniform.
        let mut hot = [0usize; 3];
        for _ in 0..3_000 {
            let a = p
                .pick(
                    SelectionPolicy::Boltzmann { tau: 100.0 },
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            hot[a.index()] += 1;
        }
        assert!(
            hot.iter().all(|&c| c > 700),
            "high τ ≈ uniform, got {hot:?}"
        );
    }

    #[test]
    fn classic_epsilon_exploits_and_explores() {
        let fx = fixture(3);
        let t = Tree::new(3);
        let mut p = Picker::new(&fx, 3, &[0.1, 0.9, 0.2]);
        let mut rng = seeded(12);
        // ε = 0: always the best.
        for _ in 0..50 {
            let a = p
                .pick(
                    SelectionPolicy::ClassicEpsilon { epsilon: 0.0 },
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(a, id(1));
        }
        // ε = 1: never the best (uniform over the rest).
        for _ in 0..50 {
            let a = p
                .pick(
                    SelectionPolicy::ClassicEpsilon { epsilon: 1.0 },
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_ne!(a, id(1));
        }
    }

    #[test]
    fn amaf_table_blends_towards_local_with_visits() {
        let mut table = AmafTable::new(4, 10.0);
        let cfg: IndexSet = [id(0), id(2)].into_iter().collect::<IndexSet>();
        // Give action 0 a strong AMAF signal.
        let full = IndexSet::from_ids(4, cfg.iter());
        for _ in 0..20 {
            table.update(&full, 0.8);
        }
        assert_eq!(table.visits(id(0)), 20);
        assert_eq!(table.visits(id(1)), 0);
        // No local visits → pure AMAF.
        assert!((table.blended(id(0), 0, 0.1) - 0.8).abs() < 1e-9);
        // Unknown action → fallback.
        assert_eq!(table.blended(id(1), 0, 0.3), 0.3);
        // Many local visits → mostly local.
        let b = table.blended(id(0), 1_000, 0.1);
        assert!(b < 0.12, "blend {b} should be near the local value");
    }

    #[test]
    fn rave_lets_uct_skip_the_unvisited_sweep() {
        let fx = fixture(3);
        let t = Tree::new(3);
        let mut table = AmafTable::new(3, 5.0);
        table.update(&IndexSet::full(3), 0.5);
        let mut p = Picker::new(&fx, 3, &[0.0; 3]);
        let mut rng = seeded(13);
        // All actions have AMAF data, so UCT must go straight to UCB
        // scoring instead of the unvisited-first sweep, which would draw.
        let got = p
            .pick(
                SelectionPolicy::uct(),
                t.node(Tree::ROOT),
                Some(&table),
                &mut rng,
            )
            .unwrap();
        assert!([id(0), id(1), id(2)].contains(&got));
        let mut fresh = seeded(13);
        assert_eq!(rng.random::<u64>(), fresh.random::<u64>());
    }

    #[test]
    fn uses_priors_classification() {
        assert!(!SelectionPolicy::uct().uses_priors());
        assert!(SelectionPolicy::EpsilonGreedyPrior.uses_priors());
        assert!(SelectionPolicy::Boltzmann { tau: 1.0 }.uses_priors());
        assert!(SelectionPolicy::ClassicEpsilon { epsilon: 0.1 }.uses_priors());
    }

    #[test]
    fn epsilon_greedy_uniform_when_all_zero() {
        let fx = fixture(3);
        let t = Tree::new(3);
        let mut p = Picker::new(&fx, 3, &[0.0; 3]);
        let mut rng = seeded(6);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let a = p
                .pick(
                    SelectionPolicy::EpsilonGreedyPrior,
                    t.node(Tree::ROOT),
                    None,
                    &mut rng,
                )
                .unwrap();
            seen[a.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
