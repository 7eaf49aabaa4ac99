//! Property tests pinning MCTS action selection to the slice-based policy
//! it replaced. Tree selection and rollout insertion now walk the
//! admissible actions block by block over a dense per-candidate weight
//! buffer; the reference below collects the admissible actions into a
//! vector and builds per-pick value and visit-count vectors over it, as
//! the shipped code once did. Both must return the same action and leave
//! the RNG at the same word, for every policy with RAVE on and off.
//!
//! Inputs cover universes that end inside, on and past a 64-bit block
//! boundary; random configurations and node statistics whose `Q̂` may be
//! NaN, negative or infinite; all-zero priors (the uniform branch of
//! weighted sampling); and storage limits that admit no, some or all
//! candidates. Priors are what Algorithm 4 emits: fractions in `[0, 1]`.
//! The reference carries its own copy of the slice-based weighted-sampling
//! rule, so a change to the shared rule cannot hide behind it.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_common::rng::{seeded, weighted_choice};
use ixtune_common::{IndexId, IndexSet};
use ixtune_core::mcts::policy::{ActionWeights, Actions, AmafTable, SelectionPolicy};
use ixtune_core::mcts::rollout::RolloutPolicy;
use ixtune_core::mcts::tree::{ActionStats, Node, Tree};
use ixtune_core::tuner::{Constraints, TuningContext};
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::tpch;
use proptest::prelude::*;
use rand::prelude::IndexedRandom;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

const UNIVERSES: [usize; 5] = [1, 63, 64, 65, 130];

/// The reference weighted-sampling rule: the slice-based `weighted_choice`
/// that every weighted pick once called, verbatim apart from its name.
fn oracle_weighted_choice<R: Rng>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    if weights.is_empty() {
        return None;
    }
    let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
    let total: f64 = weights.iter().copied().map(clean).sum();
    if total <= 0.0 {
        return Some(rng.random_range(0..weights.len()));
    }
    let mut target = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= clean(w);
        if target <= 0.0 {
            return Some(i);
        }
    }
    // Floating-point slack: fall back to the last positive-weight element.
    weights.iter().rposition(|&w| clean(w) > 0.0)
}

/// The reference tree-selection policy: the slice-based
/// `SelectionPolicy::select`, verbatim apart from being a free function.
fn oracle_select(
    policy: &SelectionPolicy,
    node: &Node,
    actions: &[IndexId],
    priors: &[f64],
    amaf: Option<&AmafTable>,
    rng: &mut StdRng,
) -> Option<IndexId> {
    if actions.is_empty() {
        return None;
    }
    let mut values: Vec<f64> = actions
        .iter()
        .map(|&a| priors.get(a.index()).copied().unwrap_or(0.0).max(0.0))
        .collect();
    let mut local_n: Vec<u32> = vec![0; actions.len()];
    for (&a, stats) in &node.actions {
        if let Ok(pos) = actions.binary_search(&a) {
            values[pos] = stats.q.max(0.0);
            local_n[pos] = stats.n;
        }
    }
    if let Some(table) = amaf {
        for (i, &a) in actions.iter().enumerate() {
            values[i] = table.blended(a, local_n[i], values[i]);
        }
    }

    match *policy {
        SelectionPolicy::Uct { lambda } => {
            let unvisited: Vec<IndexId> = actions
                .iter()
                .enumerate()
                .filter(|(i, &a)| local_n[*i] == 0 && amaf.is_none_or(|t| t.visits(a) == 0))
                .map(|(_, &a)| a)
                .collect();
            if !unvisited.is_empty() {
                return unvisited.choose(rng).copied();
            }
            let total = node.n_visits.max(1) as f64;
            actions
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let n = local_n[i].max(1) as f64;
                    (a, values[i] + lambda * (total.ln() / n).sqrt())
                })
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .map(|(a, _)| a)
        }
        SelectionPolicy::EpsilonGreedyPrior => {
            oracle_weighted_choice(rng, &values).map(|i| actions[i])
        }
        SelectionPolicy::Boltzmann { tau } => {
            let tau = tau.max(1e-6);
            let peak = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = values.iter().map(|v| ((v - peak) / tau).exp()).collect();
            oracle_weighted_choice(rng, &weights).map(|i| actions[i])
        }
        SelectionPolicy::ClassicEpsilon { epsilon } => {
            let explore = rng.random::<f64>() < epsilon;
            let best_pos = values
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.total_cmp(y.1))
                .map(|(i, _)| i)?;
            if !explore || actions.len() == 1 {
                Some(actions[best_pos])
            } else {
                let others: Vec<IndexId> = actions
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != best_pos)
                    .map(|(_, &a)| a)
                    .collect();
                others.choose(rng).copied()
            }
        }
    }
}

/// The reference rollout: `RolloutPolicy::rollout` with its collected
/// action and weight vectors, verbatim apart from being a free function.
#[allow(clippy::too_many_arguments)]
fn oracle_rollout(
    policy: &RolloutPolicy,
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    selection: &SelectionPolicy,
    priors: &[f64],
    config: &IndexSet,
    rng: &mut StdRng,
    mut on_insert: impl FnMut(&IndexSet, IndexId),
) -> IndexSet {
    let depth = config.len();
    let max_step = constraints.k.saturating_sub(depth);
    let steps = match *policy {
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
    let mut actions: Vec<IndexId> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for _ in 0..steps {
        let filter = constraints.extension_filter(ctx, &out);
        actions.clear();
        actions.extend(out.complement_iter().filter(|&a| filter.admits(ctx, a)));
        if actions.is_empty() {
            break;
        }
        let pick = if selection.uses_priors() {
            weights.clear();
            weights.extend(
                actions
                    .iter()
                    .map(|a| priors.get(a.index()).copied().unwrap_or(0.0).max(0.0)),
            );
            oracle_weighted_choice(rng, &weights).map(|i| actions[i])
        } else {
            actions.choose(rng).copied()
        };
        match pick {
            Some(a) => {
                on_insert(&out, a);
                out.insert(a);
            }
            None => break,
        }
    }
    out
}

/// Optimizers over the first `n` TPC-H candidates, one per universe size.
fn fixtures() -> &'static [(SimulatedOptimizer, CandidateSet)] {
    static FIXTURES: OnceLock<Vec<(SimulatedOptimizer, CandidateSet)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let inst = tpch::generate(1.0);
        let full = generate_default(&inst);
        UNIVERSES
            .iter()
            .map(|&n| {
                let mut cands = full.clone();
                cands.indexes.truncate(n);
                for ids in &mut cands.per_query {
                    ids.retain(|a| a.index() < n);
                }
                let opt = SimulatedOptimizer::new(
                    inst.clone(),
                    cands.indexes.clone(),
                    CostModel::default(),
                );
                (opt, cands)
            })
            .collect()
    })
}

/// A `Q̂` value: mostly an ordinary reward, sometimes NaN, negative or ±∞.
fn any_q(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8) {
        0 => f64::NAN,
        1 => -rng.random::<f64>(),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        _ => rng.random::<f64>(),
    }
}

/// One random selection problem.
struct Case {
    fixture: usize,
    config: IndexSet,
    constraints: Constraints,
    priors: Vec<f64>,
    stats: Vec<(IndexId, ActionStats)>,
    n_visits: u32,
    amaf: AmafTable,
}

fn case(seed: u64) -> Case {
    let mut rng = seeded(seed);
    let fixture = rng.random_range(0..UNIVERSES.len());
    let n = UNIVERSES[fixture];
    let opt = &fixtures()[fixture].0;

    let density = [0.0, 0.1, 0.5, 0.9, 1.0][rng.random_range(0..5usize)];
    let config = IndexSet::from_ids(
        n,
        (0..n)
            .map(IndexId::from)
            .filter(|_| rng.random::<f64>() < density),
    );
    // K at or above |C|: K = |C| admits nothing.
    let k = config.len() + rng.random_range(0..4usize);
    let used = opt.config_size_bytes(&config);
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| opt.candidate_size_bytes(IndexId::from(i)))
        .collect();
    sizes.sort_unstable();
    let constraints = match rng.random_range(0..4) {
        0 => Constraints::cardinality(k),
        // Admits nothing: below the smallest candidate.
        1 => Constraints::with_storage(k, used + sizes[0] - 1),
        // Admits some: up to the median candidate.
        2 => Constraints::with_storage(k, used + sizes[n / 2]),
        // Admits all.
        _ => Constraints::with_storage(k, used + sizes[n - 1]),
    };

    let priors: Vec<f64> = if rng.random_range(0..4) == 0 {
        vec![0.0; n]
    } else {
        (0..n)
            .map(|_| {
                if rng.random_range(0..3) == 0 {
                    0.0
                } else {
                    rng.random::<f64>()
                }
            })
            .collect()
    };

    // Statistics for a random share of the actions (and a few ids inside
    // the configuration, which no policy may read).
    let taken_share = rng.random::<f64>();
    let mut stats: Vec<(IndexId, ActionStats)> = Vec::new();
    for a in (0..n).map(IndexId::from) {
        let share = if config.contains(a) {
            0.05
        } else {
            taken_share
        };
        if rng.random::<f64>() < share {
            let n = rng.random_range(0..6);
            stats.push((
                a,
                ActionStats {
                    n,
                    q: any_q(&mut rng),
                },
            ));
        }
    }
    let n_visits = rng.random_range(0..40);

    let mut amaf = AmafTable::new(n, [0.5, 20.0, 50.0][rng.random_range(0..3usize)]);
    for _ in 0..rng.random_range(0..6) {
        let share = rng.random::<f64>();
        let seen = IndexSet::from_ids(
            n,
            (0..n)
                .map(IndexId::from)
                .filter(|_| rng.random::<f64>() < share),
        );
        let reward = if rng.random_range(0..4) == 0 {
            any_q(&mut rng)
        } else {
            rng.random::<f64>()
        };
        amaf.update(&seen, reward);
    }

    Case {
        fixture,
        config,
        constraints,
        priors,
        stats,
        n_visits,
        amaf,
    }
}

fn policies(seed: u64) -> [SelectionPolicy; 4] {
    let mut rng = seeded(seed ^ 0x9e37);
    [
        SelectionPolicy::Uct {
            lambda: [0.0, std::f64::consts::SQRT_2, 5.0][rng.random_range(0..3usize)],
        },
        SelectionPolicy::EpsilonGreedyPrior,
        SelectionPolicy::Boltzmann {
            tau: [0.0, 0.05, 1.0, 100.0][rng.random_range(0..4usize)],
        },
        SelectionPolicy::ClassicEpsilon {
            epsilon: [0.0, 0.3, 1.0][rng.random_range(0..3usize)],
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The slice wrapper over the shared rule: same position, same next
    /// RNG word, on empty, all-zero and NaN/negative/∞-laden weights.
    #[test]
    fn weighted_choice_matches_the_slice_rule(seed in any::<u64>()) {
        let mut gen = seeded(seed);
        let len = gen.random_range(0..70usize);
        let zeros = gen.random_range(0..4) == 0;
        let weights: Vec<f64> = (0..len)
            .map(|_| if zeros { 0.0 } else { any_q(&mut gen) })
            .collect();
        let mut want_rng = seeded(seed.rotate_left(7));
        let mut got_rng = want_rng.clone();
        let want = oracle_weighted_choice(&mut want_rng, &weights);
        let got = weighted_choice(&mut got_rng, &weights);
        prop_assert!(got == want, "{weights:?}: {got:?} != {want:?}");
        prop_assert!(got_rng.random::<u64>() == want_rng.random::<u64>(), "RNG drifted");
    }

    /// Tree selection: same action, same next RNG word, weights restored.
    #[test]
    fn tree_selection_matches_the_slice_oracle(seed in any::<u64>()) {
        let c = case(seed);
        let (opt, cands) = &fixtures()[c.fixture];
        let ctx = TuningContext::new(opt, cands);
        let mut tree = Tree::new(ctx.universe());
        {
            let node = tree.node_mut(Tree::ROOT);
            node.config = c.config.clone();
            node.n_visits = c.n_visits;
            node.actions = c.stats.iter().copied().collect();
        }
        let node = tree.node(Tree::ROOT);
        let filter = c.constraints.extension_filter(&ctx, &c.config);
        let listed: Vec<IndexId> = c
            .config
            .complement_iter()
            .filter(|&a| filter.admits(&ctx, a))
            .collect();
        let actions = Actions::new(&ctx, &c.constraints, &c.config);
        let fresh = ActionWeights::new(&c.priors);
        let mut weights = fresh.clone();
        for policy in policies(seed) {
            for amaf in [None, Some(&c.amaf)] {
                let mut want_rng = seeded(seed.rotate_left(17));
                let mut got_rng = want_rng.clone();
                let want = oracle_select(&policy, node, &listed, &c.priors, amaf, &mut want_rng);
                let got = policy.select(node, &actions, &mut weights, amaf, &mut got_rng);
                let rave = amaf.is_some();
                prop_assert!(got == want, "{policy:?}, RAVE {rave}: {got:?} != {want:?}");
                prop_assert!(
                    got_rng.random::<u64>() == want_rng.random::<u64>(),
                    "{policy:?}, RAVE {rave}: RNG drifted"
                );
                prop_assert!(weights == fresh, "{policy:?}: weights not restored");
            }
        }
    }

    /// Rollout insertion: same completed configuration, same insertion
    /// sequence, same next RNG word.
    #[test]
    fn rollouts_match_the_slice_oracle(seed in any::<u64>()) {
        let c = case(seed);
        let (opt, cands) = &fixtures()[c.fixture];
        let ctx = TuningContext::new(opt, cands);
        let weights = ActionWeights::new(&c.priors);
        for selection in policies(seed) {
            for rollout in [
                RolloutPolicy::RandomStep,
                RolloutPolicy::FixedStep(1),
                RolloutPolicy::FixedStep(3),
            ] {
                let mut want_rng = seeded(seed.rotate_left(29));
                let mut got_rng = want_rng.clone();
                let mut want_steps = Vec::new();
                let want = oracle_rollout(
                    &rollout,
                    &ctx,
                    &c.constraints,
                    &selection,
                    &c.priors,
                    &c.config,
                    &mut want_rng,
                    |cfg, a| want_steps.push((cfg.len(), a)),
                );
                let mut got_steps = Vec::new();
                let got = rollout.rollout(
                    &ctx,
                    &c.constraints,
                    &selection,
                    &weights,
                    &c.config,
                    &mut got_rng,
                    |cfg, a| got_steps.push((cfg.len(), a)),
                );
                prop_assert!(
                    got == want && got_steps == want_steps,
                    "{selection:?} / {rollout:?}: {got_steps:?} != {want_steps:?}"
                );
                prop_assert!(
                    got_rng.random::<u64>() == want_rng.random::<u64>(),
                    "{selection:?} / {rollout:?}: RNG drifted"
                );
            }
        }
    }
}
