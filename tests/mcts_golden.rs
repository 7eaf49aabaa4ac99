//! Golden MCTS sessions: every pinned value below was produced by the
//! episode loop that re-derived each query's cost from scratch at the leaf
//! (`WhatIfCache::derived` per query per episode). The loop now carries
//! per-query costs down the selection path instead; these sessions must
//! still reproduce the old results bit for bit — configuration, budget
//! use, oracle improvement, the call layout, and the derivation and
//! cache-hit counters.
//!
//! The values hold for the compiled and the interpreted what-if kernel
//! alike (`IXTUNE_COMPILED=0`).

use ixtune::candidates::{generate_default, CandidateSet};
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer};
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
}

/// The tuner variants, in the order of every dataset's golden rows. The
/// last variant runs on a non-monotone cost model (`quirk_eps = 0.2`).
fn variants() -> Vec<(&'static str, MctsTuner, bool)> {
    vec![
        ("default", MctsTuner::default(), false),
        (
            "uct-random-bce",
            MctsTuner::default()
                .with_selection(SelectionPolicy::uct())
                .with_rollout(RolloutPolicy::RandomStep)
                .with_extraction(Extraction::Bce),
            false,
        ),
        (
            "rave-50",
            MctsTuner::default().with_update(UpdatePolicy::Rave { k: 50.0 }),
            false,
        ),
        (
            "boltzmann",
            MctsTuner::default().with_selection(SelectionPolicy::Boltzmann { tau: 0.1 }),
            false,
        ),
        (
            "root-workers-4",
            MctsTuner::default().with_root_workers(4),
            false,
        ),
        ("default-quirk", MctsTuner::default(), true),
    ]
}

fn check(label: &str, inst: BenchmarkInstance, req: TuningRequest, golden: &[Golden]) {
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
    let variants = variants();
    assert_eq!(variants.len(), golden.len(), "{label}: one row per variant");
    for ((name, tuner, quirk), want) in variants.into_iter().zip(golden) {
        let opt = if quirk { &quirky } else { &plain };
        let ctx = TuningContext::new(opt, &cands);
        let r = tuner.tune(&ctx, &req);
        let config: Vec<u32> = r.config.iter().map(|i| i.0).collect();
        let got = format!(
            "config: &{:?}, calls_used: {}, improvement_bits: {:#018x}, \
             fingerprint: {:#018x}, derivations: {}, cache_hits: {}",
            config,
            r.calls_used,
            r.improvement.to_bits(),
            r.layout.fingerprint(),
            r.telemetry.derivations,
            r.telemetry.cache_hits,
        );
        let ok = config == want.config
            && r.calls_used == want.calls_used
            && r.improvement.to_bits() == want.improvement_bits
            && r.layout.fingerprint() == want.fingerprint
            && r.telemetry.derivations == want.derivations
            && r.telemetry.cache_hits == want.cache_hits;
        assert!(
            ok,
            "{label}/{name} drifted from its golden row; got {{ {got} }}"
        );
    }
}

#[test]
fn tpch_sessions_match_golden() {
    check(
        "tpch",
        tpch::generate(1.0),
        TuningRequest::cardinality(5, 200).with_seed(1),
        &[
            Golden {
                config: &[0, 66, 111, 132, 143],
                calls_used: 200,
                improvement_bits: 0x3fd8e4090955212c,
                fingerprint: 0x3ccf496db656b2d3,
                derivations: 36247,
                cache_hits: 0,
            },
            Golden {
                config: &[69, 128, 155, 178, 246],
                calls_used: 200,
                improvement_bits: 0x3fcd77c7a72342e8,
                fingerprint: 0x126a4f3a772ba182,
                derivations: 4400,
                cache_hits: 0,
            },
            Golden {
                config: &[0, 66, 111, 132, 143],
                calls_used: 200,
                improvement_bits: 0x3fd8e4090955212c,
                fingerprint: 0xb6b93c561ddd472f,
                derivations: 36287,
                cache_hits: 2,
            },
            Golden {
                config: &[0, 66, 132, 143, 178],
                calls_used: 200,
                improvement_bits: 0x3fda5af532890f2a,
                fingerprint: 0x008b9d0ac36a3a14,
                derivations: 36312,
                cache_hits: 2,
            },
            Golden {
                config: &[2, 68, 132, 143, 181],
                calls_used: 200,
                improvement_bits: 0x3fdf77157e497358,
                fingerprint: 0x156ec6b5cf127322,
                derivations: 36245,
                cache_hits: 3,
            },
            Golden {
                config: &[4, 66, 68, 132, 143],
                calls_used: 200,
                improvement_bits: 0x3fda8dda769a0aa0,
                fingerprint: 0x6341db3f2ab2a453,
                derivations: 36266,
                cache_hits: 1,
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
        &[
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0xff27439b0f273cb3,
                derivations: 929,
                cache_hits: 3,
            },
            Golden {
                config: &[6, 18, 28],
                calls_used: 80,
                improvement_bits: 0x3fe741741451965c,
                fingerprint: 0xa6f927b5114dc2e7,
                derivations: 485,
                cache_hits: 1,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0xd19daa729720e420,
                derivations: 953,
                cache_hits: 8,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe7588cf383eee1,
                fingerprint: 0x158940cdb76c8a8d,
                derivations: 996,
                cache_hits: 110,
            },
            Golden {
                config: &[15, 28, 31],
                calls_used: 80,
                improvement_bits: 0x3fee81e797adf487,
                fingerprint: 0x4f7c078042fda5a8,
                derivations: 969,
                cache_hits: 13,
            },
            Golden {
                config: &[10, 15, 28],
                calls_used: 80,
                improvement_bits: 0x3fe760c7d3950322,
                fingerprint: 0xff27439b0f273cb3,
                derivations: 929,
                cache_hits: 3,
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
        &[
            Golden {
                config: &[2, 3, 8, 11],
                calls_used: 120,
                improvement_bits: 0x3fe99049a501e994,
                fingerprint: 0x44a28c5f17ae5170,
                derivations: 1244,
                cache_hits: 4,
            },
            Golden {
                config: &[3, 14, 22, 30],
                calls_used: 120,
                improvement_bits: 0x3fe85621ae76ebd2,
                fingerprint: 0x3b81487433295938,
                derivations: 719,
                cache_hits: 0,
            },
            Golden {
                config: &[2, 8, 11, 29],
                calls_used: 120,
                improvement_bits: 0x3fe98dddf618810a,
                fingerprint: 0xee2ce3ce751a000b,
                derivations: 1241,
                cache_hits: 4,
            },
            Golden {
                config: &[2, 3, 8, 11],
                calls_used: 120,
                improvement_bits: 0x3fe99049a501e994,
                fingerprint: 0xac4dbe76b1c96d5a,
                derivations: 1362,
                cache_hits: 67,
            },
            Golden {
                config: &[3, 8, 11, 12],
                calls_used: 120,
                improvement_bits: 0x3fe9de32f1541580,
                fingerprint: 0xa8388fbc9766a601,
                derivations: 1224,
                cache_hits: 4,
            },
            Golden {
                config: &[2, 3, 8, 11],
                calls_used: 120,
                improvement_bits: 0x3fe99d46ed759f73,
                fingerprint: 0xa8837120ca664d07,
                derivations: 1244,
                cache_hits: 4,
            },
        ],
    );
}
