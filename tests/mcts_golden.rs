//! Golden tuning sessions. Every pinned value below was captured on an
//! earlier implementation of the same algorithms and must be reproduced bit
//! for bit — configuration, budget use, oracle improvement, the call
//! layout, the derivation and cache-hit counters, and the stop reason.
//!
//! * The MCTS rows predate carrying per-query costs down the selection
//!   path; they were produced by an episode loop that re-derived each
//!   query's cost from scratch at the leaf (`WhatIfCache::derived` per
//!   query per episode). The last six MCTS variants of every dataset
//!   (classic ε-greedy, UCT with RAVE, Boltzmann with RAVE, prior-weighted
//!   fixed-step-2 and random-step rollouts, and the default tuner under a
//!   storage limit) predate the block-wise action sampler: they were
//!   produced by a selection policy that collected each node's admissible
//!   actions into a vector and built per-pick value and visit-count
//!   vectors over it.
//! * The greedy rows (vanilla, two-phase, AutoAdmin) predate the single
//!   derivation-only greedy: Best-Greedy extraction and the salvage after
//!   an interrupted phase 1 each ran their own probe/commit loop. The
//!   cancelled two-phase and AutoAdmin rows stop mid-phase-1 and salvage a
//!   configuration from the partial union; the cancelled vanilla row stops
//!   between greedy steps.
//!
//! Each row also re-prices, with the interpreted reference model
//! (`CostModel::query_cost`), every cost its session read: each cell of
//! the call layout, and `∅` and the recommended configuration for every
//! query. The bits must equal the compiled kernel's, so the pinned values
//! are the interpreted model's too.

use ixtune::candidates::{generate_default, CandidateSet};
use ixtune::common::{IndexSet, QueryId};
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer, WhatIfOptimizer};
use ixtune::workload::gen::{synth, tpch};
use ixtune::workload::BenchmarkInstance;

/// What one session must reproduce.
struct Golden {
    config: &'static [u32],
    calls_used: usize,
    improvement_bits: u64,
    fingerprint: u64,
    derivations: usize,
    cache_hits: usize,
    stop_reason: StopReason,
}

/// One pinned session: a tuner run under a stop signal, on the plain or
/// the non-monotone cost model (`quirk_eps = 0.2`), with the dataset's
/// request as is or rewritten by a per-session override (pinned session
/// threads, a storage limit).
struct Session {
    name: &'static str,
    tuner: Box<dyn Tuner>,
    stop: StopSignal,
    quirk: bool,
    request: Box<dyn Fn(TuningRequest) -> TuningRequest>,
}

impl Session {
    fn new(name: &'static str, tuner: impl Tuner + 'static) -> Self {
        Self {
            name,
            tuner: Box::new(tuner),
            stop: StopSignal::never(),
            quirk: false,
            request: Box::new(|req| req),
        }
    }

    fn quirk(mut self) -> Self {
        self.quirk = true;
        self
    }

    fn request(mut self, rewrite: impl Fn(TuningRequest) -> TuningRequest + 'static) -> Self {
        self.request = Box::new(rewrite);
        self
    }

    fn threads(self, threads: usize) -> Self {
        self.request(move |req| req.with_session_threads(threads))
    }

    fn cancel_after(mut self, calls: usize) -> Self {
        self.stop = StopSignal::armed().cancel_after_calls(calls);
        self
    }
}

/// The MCTS variants, in the order of every dataset's MCTS golden rows.
/// The last one runs the default tuner under a storage limit of
/// `storage_bytes`, chosen per dataset to admit some candidates but not
/// all.
fn mcts_sessions(storage_bytes: u64) -> Vec<Session> {
    vec![
        Session::new("default", MctsTuner::default()),
        Session::new(
            "uct-random-bce",
            MctsTuner::default()
                .with_selection(SelectionPolicy::uct())
                .with_rollout(RolloutPolicy::RandomStep)
                .with_extraction(Extraction::Bce),
        ),
        Session::new(
            "rave-50",
            MctsTuner::default().with_update(UpdatePolicy::Rave { k: 50.0 }),
        ),
        Session::new(
            "boltzmann",
            MctsTuner::default().with_selection(SelectionPolicy::Boltzmann { tau: 0.1 }),
        ),
        Session::new("root-workers-4", MctsTuner::default().with_root_workers(4)),
        Session::new("default-quirk", MctsTuner::default()).quirk(),
        Session::new(
            "classic-eps-0.2",
            MctsTuner::default().with_selection(SelectionPolicy::ClassicEpsilon { epsilon: 0.2 }),
        ),
        Session::new(
            "uct-rave-20",
            MctsTuner::default()
                .with_selection(SelectionPolicy::uct())
                .with_update(UpdatePolicy::Rave { k: 20.0 }),
        ),
        Session::new(
            "boltzmann-rave-50",
            MctsTuner::default()
                .with_selection(SelectionPolicy::Boltzmann { tau: 0.1 })
                .with_update(UpdatePolicy::Rave { k: 50.0 }),
        ),
        Session::new(
            "prior-fixed-step-2",
            MctsTuner::default().with_rollout(RolloutPolicy::FixedStep(2)),
        ),
        Session::new(
            "prior-random-step",
            MctsTuner::default().with_rollout(RolloutPolicy::RandomStep),
        ),
        Session::new("default-storage", MctsTuner::default())
            .request(move |req| req.with_storage(storage_bytes)),
    ]
}

/// The greedy sessions, in the order of every dataset's greedy golden
/// rows: each enumerator uninterrupted and cancelled (two-phase and
/// AutoAdmin mid-phase-1, after 3 or 17 calls or at half the budget), on
/// both cost models and at 1 and 4 session threads.
fn greedy_sessions(budget: usize) -> Vec<Session> {
    vec![
        Session::new("vanilla", VanillaGreedy).threads(1),
        Session::new("vanilla-cancel-17", VanillaGreedy)
            .cancel_after(17)
            .quirk()
            .threads(4),
        Session::new("two-phase", TwoPhaseGreedy).quirk().threads(4),
        Session::new("two-phase-cancel-17", TwoPhaseGreedy)
            .cancel_after(17)
            .threads(1),
        Session::new("two-phase-cancel-half", TwoPhaseGreedy)
            .cancel_after(budget / 2)
            .threads(4),
        Session::new("autoadmin", AutoAdminGreedy::default()).threads(4),
        Session::new("autoadmin-cancel-17", AutoAdminGreedy::default())
            .cancel_after(17)
            .quirk()
            .threads(1),
        Session::new("autoadmin-cancel-3", AutoAdminGreedy::default())
            .cancel_after(3)
            .threads(4),
    ]
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

/// Every cost `r` depends on — its layout cells, then `∅` and `r.config`
/// for every query — priced by the kernel and by the oracle: the first
/// cell whose bits differ, if any.
fn oracle_mismatch(opt: &SimulatedOptimizer, r: &TuningResult) -> Option<(QueryId, IndexSet)> {
    let empty = IndexSet::empty(opt.num_candidates());
    let answers = (0..opt.num_queries()).flat_map(|qi| {
        let q = QueryId::from(qi);
        [(q, empty.clone()), (q, r.config.clone())]
    });
    r.layout
        .cells()
        .iter()
        .cloned()
        .chain(answers)
        .find(|(q, cfg)| opt.what_if_cost(*q, cfg).to_bits() != oracle_cost(opt, *q, cfg).to_bits())
}

fn check(
    label: &str,
    inst: BenchmarkInstance,
    req: TuningRequest,
    sessions: Vec<Session>,
    golden: &[Golden],
) {
    let cands: CandidateSet = generate_default(&inst);
    let plain = SimulatedOptimizer::new(inst.clone(), cands.indexes.clone(), CostModel::default());
    let quirky = SimulatedOptimizer::new(
        inst,
        cands.indexes.clone(),
        CostModel {
            quirk_eps: 0.2,
            ..CostModel::default()
        },
    );
    assert_eq!(sessions.len(), golden.len(), "{label}: one row per session");
    for (s, want) in sessions.into_iter().zip(golden) {
        let opt = if s.quirk { &quirky } else { &plain };
        let ctx = TuningContext::new(opt, &cands);
        let req = (s.request)(req);
        let r = s.tuner.tune_with_stop(&ctx, &req, &s.stop);
        let config: Vec<u32> = r.config.iter().map(|i| i.0).collect();
        let got = format!(
            "config: &{:?}, calls_used: {}, improvement_bits: {:#018x}, \
             fingerprint: {:#018x}, derivations: {}, cache_hits: {}, \
             stop_reason: {:?}",
            config,
            r.calls_used,
            r.improvement.to_bits(),
            r.layout.fingerprint(),
            r.telemetry.derivations,
            r.telemetry.cache_hits,
            r.stop_reason,
        );
        let ok = config == want.config
            && r.calls_used == want.calls_used
            && r.improvement.to_bits() == want.improvement_bits
            && r.layout.fingerprint() == want.fingerprint
            && r.telemetry.derivations == want.derivations
            && r.telemetry.cache_hits == want.cache_hits
            && r.stop_reason == Some(want.stop_reason);
        assert!(
            ok,
            "{label}/{} drifted from its golden row; got {{ {got} }}",
            s.name
        );
        if let Some((q, cfg)) = oracle_mismatch(opt, &r) {
            panic!(
                "{label}/{}: compiled and interpreted costs differ at {q:?} {cfg:?}",
                s.name
            );
        }
    }
}

#[test]
fn tpch_sessions_match_golden() {
    check(
        "tpch",
        tpch::generate(1.0),
        TuningRequest::cardinality(5, 200).with_seed(1),
        mcts_sessions(100_000_000),
        &[
            Golden {
                config: &[0, 66, 111, 132, 143],
                calls_used: 200,
                improvement_bits: 0x3fd8e4090955212c,
                fingerprint: 0x3ccf496db656b2d3,
                derivations: 36247,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[69, 128, 155, 178, 246],
                calls_used: 200,
                improvement_bits: 0x3fcd77c7a72342e8,
                fingerprint: 0x126a4f3a772ba182,
                derivations: 4400,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[0, 66, 111, 132, 143],
                calls_used: 200,
                improvement_bits: 0x3fd8e4090955212c,
                fingerprint: 0xb6b93c561ddd472f,
                derivations: 36287,
                cache_hits: 2,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[0, 66, 132, 143, 178],
                calls_used: 200,
                improvement_bits: 0x3fda5af532890f2a,
                fingerprint: 0x008b9d0ac36a3a14,
                derivations: 36312,
                cache_hits: 2,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 68, 132, 143, 181],
                calls_used: 200,
                improvement_bits: 0x3fdf77157e497358,
                fingerprint: 0x156ec6b5cf127322,
                derivations: 36245,
                cache_hits: 3,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[4, 66, 68, 132, 143],
                calls_used: 200,
                improvement_bits: 0x3fda8dda769a0aa0,
                fingerprint: 0x6341db3f2ab2a453,
                derivations: 36266,
                cache_hits: 1,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[0, 66, 132, 143, 178],
                calls_used: 200,
                improvement_bits: 0x3fda5af532890f2a,
                fingerprint: 0xab3b42baf37a5567,
                derivations: 36512,
                cache_hits: 34,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[115, 116, 134, 150, 184],
                calls_used: 200,
                improvement_bits: 0x3fde5af14b5137b8,
                fingerprint: 0x9c24a2e2f3bc6ed2,
                derivations: 38500,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[66, 132, 143, 178, 201],
                calls_used: 200,
                improvement_bits: 0x3fdaf30d6496cf88,
                fingerprint: 0xd27fa149924ca6e9,
                derivations: 36306,
                cache_hits: 2,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[0, 66, 132, 143, 178],
                calls_used: 200,
                improvement_bits: 0x3fda5af532890f2a,
                fingerprint: 0x0915b5cad629c2de,
                derivations: 36300,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[0, 66, 132, 143, 178],
                calls_used: 200,
                improvement_bits: 0x3fda5af532890f2a,
                fingerprint: 0xa556fab81530001f,
                derivations: 36294,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[29, 49, 233],
                calls_used: 200,
                improvement_bits: 0x3fb3868db074ef70,
                fingerprint: 0xf025524c2343585a,
                derivations: 13709,
                cache_hits: 2,
                stop_reason: StopReason::BudgetExhausted,
            },
        ],
    );
}

#[test]
fn synth_seed_3_sessions_match_golden() {
    check(
        "synth-3",
        synth::instance(3),
        TuningRequest::cardinality(3, 80).with_seed(7),
        mcts_sessions(3_100_000),
        &[
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0xff27439b0f273cb3,
                derivations: 929,
                cache_hits: 3,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[6, 18, 28],
                calls_used: 80,
                improvement_bits: 0x3fe741741451965c,
                fingerprint: 0xa6f927b5114dc2e7,
                derivations: 485,
                cache_hits: 1,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0xd19daa729720e420,
                derivations: 953,
                cache_hits: 8,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0x158940cdb76c8a8d,
                derivations: 996,
                cache_hits: 110,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[15, 28, 31],
                calls_used: 80,
                improvement_bits: 0x3fee81e797adf487,
                fingerprint: 0x4f7c078042fda5a8,
                derivations: 969,
                cache_hits: 13,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe760c7d3950322,
                fingerprint: 0xff27439b0f273cb3,
                derivations: 929,
                cache_hits: 3,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0x41471f8c91539899,
                derivations: 975,
                cache_hits: 24,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[18, 28],
                calls_used: 80,
                improvement_bits: 0x3fe72a0da34eee5d,
                fingerprint: 0xcaac92d31a5f18ae,
                derivations: 1162,
                cache_hits: 1,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0x32f454ba3c96bbc6,
                derivations: 971,
                cache_hits: 17,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[15, 24, 28],
                calls_used: 80,
                improvement_bits: 0x3fee81e97d2d2cfe,
                fingerprint: 0x1ba0800843bb94dd,
                derivations: 929,
                cache_hits: 1,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[15, 28, 31],
                calls_used: 80,
                improvement_bits: 0x3fee81e797adf487,
                fingerprint: 0x829317f5296032c0,
                derivations: 932,
                cache_hits: 2,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[10, 20, 27],
                calls_used: 80,
                improvement_bits: 0x3fd8d4d794301fb8,
                fingerprint: 0x1408bd8723920136,
                derivations: 981,
                cache_hits: 71,
                stop_reason: StopReason::BudgetExhausted,
            },
        ],
    );
}

#[test]
fn synth_seed_8_sessions_match_golden() {
    check(
        "synth-8",
        synth::instance(8),
        TuningRequest::cardinality(4, 120).with_seed(5),
        mcts_sessions(1_000_000),
        &[
            Golden {
                config: &[2, 3, 8, 11],
                calls_used: 120,
                improvement_bits: 0x3fe99049a501e994,
                fingerprint: 0x44a28c5f17ae5170,
                derivations: 1244,
                cache_hits: 4,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[3, 14, 22, 30],
                calls_used: 120,
                improvement_bits: 0x3fe85621ae76ebd2,
                fingerprint: 0x3b81487433295938,
                derivations: 719,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 8, 11, 29],
                calls_used: 120,
                improvement_bits: 0x3fe98dddf618810a,
                fingerprint: 0xee2ce3ce751a000b,
                derivations: 1241,
                cache_hits: 4,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 3, 8, 11],
                calls_used: 120,
                improvement_bits: 0x3fe99049a501e994,
                fingerprint: 0xac4dbe76b1c96d5a,
                derivations: 1362,
                cache_hits: 67,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[3, 8, 11, 12],
                calls_used: 120,
                improvement_bits: 0x3fe9de32f1541580,
                fingerprint: 0xa8388fbc9766a601,
                derivations: 1224,
                cache_hits: 4,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 3, 8, 11],
                calls_used: 120,
                improvement_bits: 0x3fe99d46ed759f73,
                fingerprint: 0xa8837120ca664d07,
                derivations: 1244,
                cache_hits: 4,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 8, 11, 25],
                calls_used: 120,
                improvement_bits: 0x3fe9ff4f205ce9d3,
                fingerprint: 0x8015fbca78ae294e,
                derivations: 1270,
                cache_hits: 32,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1, 8, 20, 29],
                calls_used: 120,
                improvement_bits: 0x3fe910db5a142f5f,
                fingerprint: 0x471e0a904fe9f4d4,
                derivations: 1457,
                cache_hits: 3,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 8, 11, 29],
                calls_used: 120,
                improvement_bits: 0x3fe98dddf618810a,
                fingerprint: 0x33bf5b084d5d6a2d,
                derivations: 1247,
                cache_hits: 7,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 8, 11, 29],
                calls_used: 120,
                improvement_bits: 0x3fe98dddf618810a,
                fingerprint: 0xa477bcd87acc10a1,
                derivations: 1246,
                cache_hits: 0,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[2, 8, 11, 29],
                calls_used: 120,
                improvement_bits: 0x3fe98dddf618810a,
                fingerprint: 0x70034d9f0a6cd6fb,
                derivations: 1248,
                cache_hits: 1,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[8, 13, 24, 26],
                calls_used: 120,
                improvement_bits: 0x3fb47c84a04343d0,
                fingerprint: 0x3278ee5d48bcdca6,
                derivations: 845,
                cache_hits: 5,
                stop_reason: StopReason::BudgetExhausted,
            },
        ],
    );
}

#[test]
fn tpch_greedy_sessions_match_golden() {
    check(
        "tpch",
        tpch::generate(1.0),
        TuningRequest::cardinality(5, 200).with_seed(1),
        greedy_sessions(200),
        &[
            Golden {
                config: &[0, 1, 3, 9],
                calls_used: 200,
                improvement_bits: 0x3fc1c572002ffc84,
                fingerprint: 0x1bdfc09244211a11,
                derivations: 33790,
                cache_hits: 22,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1],
                calls_used: 200,
                improvement_bits: 0x3fc14e0dc3c0d098,
                fingerprint: 0x1bdfc09244211a11,
                derivations: 6642,
                cache_hits: 22,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1, 9, 26, 53, 67],
                calls_used: 200,
                improvement_bits: 0x3fd5a2ab3a66a708,
                fingerprint: 0xdfb84b2890c0dd8c,
                derivations: 873,
                cache_hits: 50,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1, 26],
                calls_used: 54,
                improvement_bits: 0x3fc2ca6412232ffc,
                fingerprint: 0x03c0da04734ddd49,
                derivations: 66,
                cache_hits: 2,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1, 9, 15, 26],
                calls_used: 129,
                improvement_bits: 0x3fc355e769faadd4,
                fingerprint: 0x460040c6c5f41457,
                derivations: 220,
                cache_hits: 2,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[67, 79, 94, 103, 132],
                calls_used: 200,
                improvement_bits: 0x3fd4a535f87ac718,
                fingerprint: 0x4e5a2ab36d4ec77b,
                derivations: 1671,
                cache_hits: 56,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1, 26],
                calls_used: 47,
                improvement_bits: 0x3fc2e6a209b14b0c,
                fingerprint: 0x404a1cc3ccc635f4,
                derivations: 73,
                cache_hits: 2,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1],
                calls_used: 8,
                improvement_bits: 0x3fc13b4df1f4e338,
                fingerprint: 0x8f4852bc8d623205,
                derivations: 22,
                cache_hits: 1,
                stop_reason: StopReason::Cancelled,
            },
        ],
    );
}

#[test]
fn synth_seed_3_greedy_sessions_match_golden() {
    check(
        "synth-3",
        synth::instance(3),
        TuningRequest::cardinality(3, 80).with_seed(7),
        greedy_sessions(80),
        &[
            Golden {
                config: &[3, 11],
                calls_used: 80,
                improvement_bits: 0x3f815383072270c0,
                fingerprint: 0x5891a6a1d315eda9,
                derivations: 586,
                cache_hits: 6,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[11],
                calls_used: 80,
                improvement_bits: 0x3f7cd67a459c5580,
                fingerprint: 0x5891a6a1d315eda9,
                derivations: 148,
                cache_hits: 6,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[15, 22, 28],
                calls_used: 80,
                improvement_bits: 0x3fee80a0bcfaed78,
                fingerprint: 0x8ebfe865db9c27c5,
                derivations: 173,
                cache_hits: 23,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1, 3, 13],
                calls_used: 20,
                improvement_bits: 0x3f78d8c8e1129800,
                fingerprint: 0xaa8e9f797c5c024e,
                derivations: 54,
                cache_hits: 3,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[11, 13, 15],
                calls_used: 46,
                improvement_bits: 0x3fd3128e823835e6,
                fingerprint: 0xb845f81291f0c93f,
                derivations: 108,
                cache_hits: 4,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[15, 28, 29],
                calls_used: 80,
                improvement_bits: 0x3fee81e97d2d2cfe,
                fingerprint: 0x154d8e3bde1ae561,
                derivations: 158,
                cache_hits: 24,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[3, 11, 13],
                calls_used: 21,
                improvement_bits: 0x3f89036dea5b85c0,
                fingerprint: 0x79cda881eb1ff02b,
                derivations: 63,
                cache_hits: 3,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[3],
                calls_used: 4,
                improvement_bits: 0x3f57a8bfe1de9a00,
                fingerprint: 0xce6f2a0ff99c73c9,
                derivations: 6,
                cache_hits: 1,
                stop_reason: StopReason::Cancelled,
            },
        ],
    );
}

#[test]
fn synth_seed_8_greedy_sessions_match_golden() {
    check(
        "synth-8",
        synth::instance(8),
        TuningRequest::cardinality(4, 120).with_seed(5),
        greedy_sessions(120),
        &[
            Golden {
                config: &[1, 8, 11, 13],
                calls_used: 120,
                improvement_bits: 0x3fe9de33215b3bf5,
                fingerprint: 0x858cde947ba13c25,
                derivations: 588,
                cache_hits: 6,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1],
                calls_used: 120,
                improvement_bits: 0x3fe844cb91fac9d3,
                fingerprint: 0x858cde947ba13c25,
                derivations: 66,
                cache_hits: 6,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1, 8, 12, 13],
                calls_used: 120,
                improvement_bits: 0x3fea0449f019551e,
                fingerprint: 0xacf39d276343d7d9,
                derivations: 212,
                cache_hits: 24,
                stop_reason: StopReason::BudgetExhausted,
            },
            Golden {
                config: &[1, 8, 11],
                calls_used: 19,
                improvement_bits: 0x3fe99049d5091009,
                fingerprint: 0x8e15792a29a59d1c,
                derivations: 36,
                cache_hits: 3,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1, 8, 11, 20],
                calls_used: 61,
                improvement_bits: 0x3fe992b583f27893,
                fingerprint: 0x95cf64914e26e2fe,
                derivations: 180,
                cache_hits: 5,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1, 8, 12, 13],
                calls_used: 85,
                improvement_bits: 0x3fe9f82b90214a99,
                fingerprint: 0x43dcf7e20f96fe4c,
                derivations: 155,
                cache_hits: 21,
                stop_reason: StopReason::Completed,
            },
            Golden {
                config: &[1, 8, 10, 11],
                calls_used: 17,
                improvement_bits: 0x3fea0449a74eafc2,
                fingerprint: 0x9f4131a02659f734,
                derivations: 92,
                cache_hits: 4,
                stop_reason: StopReason::Cancelled,
            },
            Golden {
                config: &[1],
                calls_used: 7,
                improvement_bits: 0x3fe83e0e16733a92,
                fingerprint: 0x61a1ccb5fd9a0cf5,
                derivations: 6,
                cache_hits: 1,
                stop_reason: StopReason::Cancelled,
            },
        ],
    );
}
