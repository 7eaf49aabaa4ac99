//! Property tests pinning the incremental derivation engine to the full
//! rescan it replaced. The enumerators were rewritten around
//! `DerivationState` + `WhatIfCache::derived_with_extra` on the promise of
//! *bit-for-bit* equality with fresh `derived_workload` recomputation —
//! these tests check `==` on `f64`s, not approximate closeness. The
//! linear-scan oracle for `derived_with_extra` lives here, not in the
//! shipped cache.
//!
//! Caches are generated monotone (cost of a superset never exceeds the
//! cost of a subset), matching Assumption 1 of the paper; the exact-hit
//! shortcut in `WhatIfCache::derived` relies on it. The exception is the
//! MCTS oracle at the end, which drops monotonicity on purpose: subset
//! minima carried along a path (`WhatIfCache::extend_costs`) and settled
//! at its end (`WhatIfCache::settle_derived`) must equal `derived` on any
//! cache.

use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::{frozen_argmin, DerivationState, FrozenEval, Obs, WhatIfCache};
use proptest::prelude::*;

const UNIVERSE: usize = 12;
const QUERIES: usize = 3;

/// Deterministic monotone cost model: `c(q, C) = empty_q · Π_{i∈C} f_{q,i}`
/// with every factor in `[0.5, 1)`. A function of the set, so repeated
/// inserts of the same configuration are consistent, and adding an index
/// never increases the cost.
fn true_cost(empty: f64, factors: &[f64], config: &IndexSet) -> f64 {
    config
        .iter()
        .fold(empty, |acc, id| acc * factors[id.index()])
}

fn build_set(ids: &[usize]) -> IndexSet {
    IndexSet::from_ids(UNIVERSE, ids.iter().map(|&i| IndexId::from(i)))
}

/// A random cache primed with what-if results for random configurations.
/// Returns the cache and the list of distinct non-empty configs inserted.
fn primed(
    empties: &[f64],
    factors: &[Vec<f64>],
    entries: &[(usize, Vec<usize>)],
) -> (WhatIfCache, Vec<(usize, IndexSet)>) {
    let mut cache = WhatIfCache::new(UNIVERSE, empties.to_vec());
    let mut inserted = Vec::new();
    for (q, ids) in entries {
        let config = build_set(ids);
        if config.is_empty() {
            continue;
        }
        let cost = true_cost(empties[*q], &factors[*q], &config);
        if cache.put(QueryId::from(*q), &config, cost) {
            inserted.push((*q, config));
        }
    }
    (cache, inserted)
}

/// Linear-scan oracle for `WhatIfCache::derived_with_extra`: every multi
/// entry in ascending-cost order instead of the postings for `extra`.
fn derived_with_extra_scan(
    cache: &WhatIfCache,
    q: QueryId,
    config: &IndexSet,
    extra: IndexId,
    current: f64,
) -> f64 {
    let mut best = current;
    if let Some(s) = cache.singleton_cost(q, extra) {
        if s < best {
            best = s;
        }
    }
    for (set, cost) in cache.multi_entries(q) {
        if *cost >= best {
            break;
        }
        if set.contains(extra) && set.without(extra).is_subset(config) {
            best = *cost;
        }
    }
    best
}

/// The whole workload at the empty configuration.
fn workload_state(cache: &WhatIfCache) -> DerivationState {
    let queries: Vec<QueryId> = (0..cache.num_queries()).map(QueryId::from).collect();
    DerivationState::for_queries(cache.universe(), queries, cache.empty_costs().to_vec())
}

/// Per-query empty costs, per-(query, index) cost factors, and a batch of
/// (query, config) what-if results to prime the cache with.
type CacheInputs = (Vec<f64>, Vec<Vec<f64>>, Vec<(usize, Vec<usize>)>);

fn cache_inputs() -> impl Strategy<Value = CacheInputs> {
    (
        prop::collection::vec(50.0..150.0f64, QUERIES),
        prop::collection::vec(prop::collection::vec(0.5..1.0f64, UNIVERSE), QUERIES),
        prop::collection::vec(
            (0..QUERIES, prop::collection::vec(0..UNIVERSE, 0..4)),
            0..40,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The postings-guided `derived_with_extra` equals the linear-scan
    /// oracle *and* a fresh full derivation of `C ∪ {x}`, exactly.
    #[test]
    fn with_extra_equals_scan_and_fresh_derivation(
        (empties, factors, entries) in cache_inputs(),
        config_ids in prop::collection::vec(0..UNIVERSE, 0..5),
        extra in 0..UNIVERSE,
    ) {
        let (cache, _) = primed(&empties, &factors, &entries);
        let mut config = build_set(&config_ids);
        config.remove(IndexId::from(extra));
        let x = IndexId::from(extra);
        for q in 0..QUERIES {
            let q = QueryId::from(q);
            let current = cache.derived(q, &config);
            let fast = cache.derived_with_extra(q, &config, x, current);
            let scan = derived_with_extra_scan(&cache, q, &config, x, current);
            let fresh = cache.derived(q, &config.with(x));
            prop_assert_eq!(fast.to_bits(), scan.to_bits());
            prop_assert_eq!(fast.to_bits(), fresh.to_bits());
        }
    }

    /// Probe / commit sequences over a random action list agree exactly
    /// with fresh `derived_workload` recomputation, for both commit
    /// flavors, and the derivation telemetry counter advances by exactly
    /// one per (query, probe):
    ///
    /// * the metered greedy's serial path — `probe_with` over
    ///   `derived_with_extra`, staged and committed for free;
    /// * the derivation-only greedy's path — the frozen-cache kernel prices
    ///   the probe and `commit_values` adopts the winner's per-query
    ///   `derived_with_extra` values (the crate-private `winner_values`
    ///   computes the same values without counting them).
    #[test]
    fn state_tracks_fresh_recomputation(
        (empties, factors, entries) in cache_inputs(),
        actions in prop::collection::vec((0..UNIVERSE, any::<bool>()), 1..8),
    ) {
        let (cache, _) = primed(&empties, &factors, &entries);
        cache.freeze();
        let mut state = workload_state(&cache);
        prop_assert_eq!(state.total().to_bits(), cache.empty_workload_cost().to_bits());

        for (idx, staged_commit) in actions {
            let x = IndexId::from(idx);
            if state.config().contains(x) {
                continue;
            }

            let before = cache.derivations();
            let probed = if staged_commit {
                state.probe_with(x, &mut |q, cfg, extra, cur| {
                    cache.derived_with_extra(q, cfg, extra, cur)
                })
            } else {
                let (best, _) = frozen_argmin(
                    &cache,
                    state.queries(),
                    state.per_query(),
                    state.config(),
                    &[(0, x)],
                    FrozenEval::Derive,
                    1,
                    &Obs::disabled(),
                );
                best.expect("one admissible candidate").2
            };
            prop_assert_eq!(cache.derivations(), before + QUERIES);

            let fresh = cache.derived_workload(&state.config().with(x));
            prop_assert_eq!(probed.to_bits(), fresh.to_bits());

            if staged_commit {
                state.stage_probe();
                state.commit_staged(x, probed);
            } else {
                let values: Vec<f64> = state
                    .queries()
                    .iter()
                    .zip(state.per_query())
                    .map(|(&q, &cur)| cache.derived_with_extra(q, state.config(), x, cur))
                    .collect();
                state.commit_values(x, &values, probed);
            }

            prop_assert_eq!(
                state.total().to_bits(),
                cache.derived_workload(state.config()).to_bits()
            );
            for (i, &v) in state.per_query().iter().enumerate() {
                let fresh_q = cache.derived(QueryId::from(i), state.config());
                prop_assert_eq!(v.to_bits(), fresh_q.to_bits());
            }
        }
    }

    /// `put_new` (the unchecked insert used by `MeteredWhatIf::what_if`)
    /// builds a cache indistinguishable from one built with checked `put`s.
    #[test]
    fn put_new_cache_is_indistinguishable(
        (empties, factors, entries) in cache_inputs(),
        probe_ids in prop::collection::vec(0..UNIVERSE, 0..5),
    ) {
        let (checked, _) = primed(&empties, &factors, &entries);
        let mut unchecked = WhatIfCache::new(UNIVERSE, empties.clone());
        for (q, ids) in &entries {
            let config = build_set(ids);
            if config.is_empty() {
                continue;
            }
            let q = QueryId::from(*q);
            if unchecked.get(q, &config).is_none() {
                let cost = true_cost(empties[q.index()], &factors[q.index()], &config);
                unchecked.put_new(q, &config, cost);
            }
        }
        prop_assert_eq!(checked.stored_results(), unchecked.stored_results());
        let probe = build_set(&probe_ids);
        for q in 0..QUERIES {
            let q = QueryId::from(q);
            prop_assert_eq!(
                checked.derived(q, &probe).to_bits(),
                unchecked.derived(q, &probe).to_bits()
            );
        }
    }
}

/// Queries in the MCTS oracle — more than the cache has shards, so rows
/// wrap and the shard-major loops visit local rows past the first.
const ORACLE_QUERIES: usize = 11;

/// Costs come from a coarse grid so equal costs (ties in the sorted multi
/// lists) are common.
fn grid_cost(level: u32) -> f64 {
    10.0 * f64::from(level)
}

/// Settle a copy of the carried costs for `config` and compare it, bit for
/// bit and derivation for derivation, with a fresh `derived` per query.
fn assert_settles_to_derived(
    cache: &WhatIfCache,
    config: &IndexSet,
    carried: &[f64],
) -> Result<(), TestCaseError> {
    let mut settled = carried.to_vec();
    let before = cache.derivations();
    cache.settle_derived(config, &mut settled);
    let settle_count = cache.derivations() - before;
    let before = cache.derivations();
    for (i, v) in settled.iter().enumerate() {
        let fresh = cache.derived(QueryId::from(i), config);
        prop_assert!(
            v.to_bits() == fresh.to_bits(),
            "query {} config {:?}: settled {} != derived {}",
            i,
            config,
            v,
            fresh
        );
    }
    prop_assert_eq!(settle_count, cache.derivations() - before);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The MCTS episode's cost vector: extended along a random path with
    /// `extend_costs` and settled at every prefix, it equals a fresh
    /// `derived` of that prefix for every query — on caches with
    /// out-of-order inserts, cost ties, and exact entries priced above
    /// their stored subsets (where the exact value must win). Prefixes of
    /// size 0, 1 and more are all settled.
    #[test]
    fn path_carried_costs_settle_to_fresh_derivation(
        empties in prop::collection::vec(50.0..150.0f64, ORACLE_QUERIES),
        entries in prop::collection::vec(
            (0..ORACLE_QUERIES, prop::collection::vec(0..UNIVERSE, 1..4), 1..16u32),
            0..80,
        ),
        path in prop::collection::vec(0..UNIVERSE, 0..7),
        on_path in prop::collection::vec((0..ORACLE_QUERIES, any::<bool>(), 1..16u32), 7),
    ) {
        let mut steps = Vec::new();
        let mut seen = IndexSet::empty(UNIVERSE);
        for x in path {
            if seen.insert(IndexId::from(x)) {
                steps.push(IndexId::from(x));
            }
        }
        let mut cache = WhatIfCache::new(UNIVERSE, empties);
        // Exact entries for the path's own prefixes, priced off the grid
        // regardless of their subsets — often above one of them.
        let mut prefix = IndexSet::empty(UNIVERSE);
        for (&x, &(q, put, level)) in steps.iter().zip(&on_path) {
            prefix.insert(x);
            if put {
                cache.put(QueryId::from(q), &prefix, grid_cost(level));
            }
        }
        for (q, ids, level) in &entries {
            cache.put(QueryId::from(*q), &build_set(ids), grid_cost(*level));
        }

        let mut costs = cache.empty_costs().to_vec();
        let mut config = IndexSet::empty(UNIVERSE);
        assert_settles_to_derived(&cache, &config, &costs)?;
        for x in steps {
            cache.extend_costs(&config, x, &mut costs);
            config.insert(x);
            assert_settles_to_derived(&cache, &config, &costs)?;
        }
    }
}
