//! Benchmark preparation, timed layer by layer: workload generation
//! (`BenchmarkKind::generate`), candidate generation (`generate_default`)
//! and optimizer construction (`SimulatedOptimizer::new`).

use crate::stats::median;
use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::tuner::TuningContext;
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::BenchmarkKind;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One prepared benchmark: what a tuning session reads.
pub struct Bench {
    pub kind: BenchmarkKind,
    pub cands: CandidateSet,
    pub opt: SimulatedOptimizer,
    pub queries: usize,
}

impl Bench {
    pub fn ctx(&self) -> TuningContext<'_> {
        TuningContext::new(&self.opt, &self.cands)
    }

    /// The name the daemon's workload specs use.
    pub fn wire_name(&self) -> &'static str {
        match self.kind {
            BenchmarkKind::TpcH => "tpch",
            BenchmarkKind::TpcDs => "tpcds",
            BenchmarkKind::Job => "job",
            BenchmarkKind::RealD => "reald",
            BenchmarkKind::RealM => "realm",
        }
    }
}

/// Median set-up time per layer over the repetitions, milliseconds.
#[derive(Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub candidates_ms: f64,
    pub optimizer_ms: f64,
}

/// Prepare every benchmark in `kinds`, [`SETUP_REPS`] times over. `extra`
/// runs at the end of each repetition and is timed with it (the daemon
/// workload starts a daemon there). Returns the last repetition's
/// benchmarks, the median repetition time in seconds, and the per-layer
/// medians.
pub fn setup(
    kinds: &[BenchmarkKind],
    mut extra: impl FnMut(usize),
) -> (Vec<Bench>, f64, SetupTimes) {
    let mut rep_s = Vec::new();
    let mut layers = [Vec::new(), Vec::new(), Vec::new()];
    let mut benches = Vec::new();
    for rep in 0..SETUP_REPS {
        benches.clear();
        let start = Instant::now();
        let mut sums = [0.0; 3];
        for &kind in kinds {
            let t = Instant::now();
            let inst = kind.generate();
            sums[0] += ms_since(t);
            let queries = inst.workload.queries.len();
            let t = Instant::now();
            let cands = generate_default(&inst);
            sums[1] += ms_since(t);
            let t = Instant::now();
            let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
            sums[2] += ms_since(t);
            benches.push(Bench {
                kind,
                cands,
                opt,
                queries,
            });
        }
        extra(rep);
        rep_s.push(start.elapsed().as_secs_f64());
        for (l, s) in layers.iter_mut().zip(sums) {
            l.push(s);
        }
    }
    let times = SetupTimes {
        generate_ms: median(&layers[0]),
        candidates_ms: median(&layers[1]),
        optimizer_ms: median(&layers[2]),
    };
    (benches, median(&rep_s), times)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
