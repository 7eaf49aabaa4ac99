//! Bit-identity property tests for the compiled what-if kernel.
//!
//! DESIGN.md §9 promises that the compiled per-query plan tables are a
//! pure performance change: every cost the compiled kernel produces is
//! bit-for-bit the value the interpreted reference model
//! (`CostModel::query_cost`) computes, including the deterministic
//! `quirk_eps` jitter (which hashes the scan slots and the accumulated
//! total, so any float-op reordering would show up immediately). The
//! kernel serves every what-if call, so these tests re-price costs with
//! the interpreted model and require equal bits: raw cells, and every
//! cost a whole tuning session read — across synthetic instances, all
//! five paper benchmark instances, quirk on/off, all five enumerators,
//! and serial/parallel session threads. A session is a deterministic
//! function of the costs it reads, so equal costs mean an equal result.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::prelude::*;
use ixtune_optimizer::{CostModel, SimulatedOptimizer, WhatIfOptimizer};
use ixtune_workload::gen::BenchmarkKind;
use proptest::prelude::*;

fn model(quirk: bool) -> CostModel {
    let mut m = CostModel::default();
    if quirk {
        m.quirk_eps = 0.05;
    }
    m
}

fn context(seed: u64, quirk: bool) -> (SimulatedOptimizer, CandidateSet) {
    let inst = ixtune_workload::gen::synth::instance(seed);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), model(quirk));
    (opt, cands)
}

/// The interpreted reference cost of `(q, config)`: the cost model walked
/// over the configuration's candidates on each scan slot's table, in
/// ascending id order.
fn oracle_cost(opt: &SimulatedOptimizer, q: QueryId, config: &IndexSet) -> f64 {
    let query = opt.query(q);
    opt.cost_model().query_cost(opt.schema(), query, &|slot| {
        config
            .iter()
            .map(|id| opt.candidate(id))
            .filter(|c| c.table == query.table_of(slot))
            .collect()
    })
}

/// The `(query, configuration)` cells a session's result depends on:
/// every budgeted call in its layout (root-parallel workers' calls
/// included), plus `∅` and the recommended configuration for every query
/// (the oracle improvement).
fn cells_read(opt: &SimulatedOptimizer, r: &TuningResult) -> Vec<(QueryId, IndexSet)> {
    let empty = IndexSet::empty(opt.num_candidates());
    let mut cells = r.layout.cells().to_vec();
    for qi in 0..opt.num_queries() {
        let q = QueryId::from(qi);
        cells.push((q, empty.clone()));
        cells.push((q, r.config.clone()));
    }
    cells
}

/// The first cell on which the kernel and the oracle disagree, if any.
fn first_mismatch(
    opt: &SimulatedOptimizer,
    cells: &[(QueryId, IndexSet)],
) -> Option<(QueryId, IndexSet, f64, f64)> {
    cells.iter().find_map(|(q, cfg)| {
        let got = opt.what_if_cost(*q, cfg);
        let want = oracle_cost(opt, *q, cfg);
        (got.to_bits() != want.to_bits()).then(|| (*q, cfg.clone(), got, want))
    })
}

fn tuners() -> Vec<(&'static str, Box<dyn Tuner>)> {
    vec![
        ("vanilla", Box::new(VanillaGreedy)),
        ("two-phase", Box::new(TwoPhaseGreedy)),
        ("autoadmin", Box::new(AutoAdminGreedy::default())),
        ("mcts", Box::new(MctsTuner::default())),
        (
            "mcts-root4",
            Box::new(MctsTuner::default().with_root_workers(4)),
        ),
    ]
}

/// A small deterministic family of configurations over an `n`-candidate
/// universe: empty, singletons, pairs, and triples spread by a fixed
/// stride.
fn config_sweep(n: usize, count: usize) -> Vec<IndexSet> {
    (0..count)
        .map(|i| {
            IndexSet::from_ids(
                n,
                (0..i % 4).map(move |j| IndexId::from((i * 31 + j * 17 + 1) % n)),
            )
        })
        .collect()
}

proptest! {
    // Each case runs 5 enumerators and re-prices every cell they read.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whole tuning sessions read only costs the interpreted reference
    /// model agrees with bit for bit, for every enumerator and for serial
    /// and parallel session threads.
    #[test]
    fn compiled_kernel_never_changes_the_result(
        inst_seed in 0u64..200,
        seed in 0u64..16,
        k in 2usize..5,
        budget in 10usize..40,
        thread_choice in 0usize..2,
        quirk in any::<bool>(),
    ) {
        let threads = [1usize, 4][thread_choice];
        let (opt, cands) = context(inst_seed, quirk);
        let req = TuningRequest::cardinality(k, budget)
            .with_seed(seed)
            .with_session_threads(threads);
        for (name, tuner) in &tuners() {
            let r = tuner.tune(&TuningContext::new(&opt, &cands), &req);
            prop_assert!(!r.layout.is_empty(), "{} spent no budget", name);
            let mismatch = first_mismatch(&opt, &cells_read(&opt, &r));
            prop_assert!(mismatch.is_none(), "{}: compiled vs interpreted {:?}", name, mismatch);
        }
    }

    /// Individual what-if costs match the interpreted oracle bit for bit
    /// on arbitrary (query, configuration) cells.
    #[test]
    fn compiled_costs_are_bit_identical(
        inst_seed in 0u64..300,
        quirk in any::<bool>(),
        picks in proptest::collection::vec((0usize..4096, 0usize..1024), 1..40),
    ) {
        let (opt, _) = context(inst_seed, quirk);
        let n = WhatIfOptimizer::num_candidates(&opt);
        let m = WhatIfOptimizer::num_queries(&opt);
        for (ci, qi) in picks {
            let cfg = IndexSet::from_ids(
                n,
                (0..ci % 4).map(|j| IndexId::from((ci * 31 + j * 17 + 1) % n)),
            );
            let q = QueryId::from(qi % m);
            let got = opt.what_if_cost(q, &cfg);
            let want = oracle_cost(&opt, q, &cfg);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}

/// Every paper benchmark instance, quirk on and off: a deterministic
/// sweep of configuration cells plus every cell one greedy session per
/// instance read, compiled versus interpreted.
#[test]
fn benchmark_instances_compile_bit_identically() {
    for kind in BenchmarkKind::ALL {
        for quirk in [false, true] {
            let inst = kind.generate();
            let cands = generate_default(&inst);
            let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), model(quirk));
            let n = cands.len();
            let m = WhatIfOptimizer::num_queries(&opt);
            let sweep: Vec<(QueryId, IndexSet)> = config_sweep(n, 64)
                .into_iter()
                .flat_map(|cfg| (0..m.min(10)).map(move |qi| (QueryId::from(qi), cfg.clone())))
                .collect();
            if let Some((q, cfg, got, want)) = first_mismatch(&opt, &sweep) {
                panic!(
                    "{kind:?} quirk={quirk} {q:?} {cfg:?}: compiled {got} vs interpreted {want}"
                );
            }

            // One full greedy session per instance: every cost it read
            // must be the interpreted model's.
            let req = TuningRequest::cardinality(4, 30).with_seed(7);
            let r = VanillaGreedy.tune(&TuningContext::new(&opt, &cands), &req);
            if let Some((q, cfg, got, want)) = first_mismatch(&opt, &cells_read(&opt, &r)) {
                panic!("{kind:?} quirk={quirk} session {q:?} {cfg:?}: compiled {got} vs interpreted {want}");
            }
        }
    }
}
