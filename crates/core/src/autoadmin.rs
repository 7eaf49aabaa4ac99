//! AutoAdmin greedy (§4.2.2, Figure 5(d) of the paper): the two-phase
//! framework where budgeted what-if calls are spent **only on atomic
//! configurations** — singletons plus single-join pairs — and every other
//! configuration is priced by cost derivation.

use crate::budget::MeteredWhatIf;
use crate::derivation_state::DerivationState;
use crate::greedy::{derived_greedy, greedy_enumerate_metered};
use crate::matrix::Layout;
use crate::parallel::FrozenEval;
use crate::stop::StopSignal;
use crate::tuner::{Tuner, TuningContext, TuningRequest, TuningResult};
use crate::twophase::TwoPhaseGreedy;
use ixtune_candidates::atomic::single_join_pairs;
use ixtune_common::sync::effective_threads;
use ixtune_common::{IndexSet, QueryId};
use std::collections::HashSet;

/// AutoAdmin-style greedy with atomic-configuration budget allocation.
#[derive(Clone, Copy, Debug)]
pub struct AutoAdminGreedy {
    /// Cap on precomputed single-join atomic pairs.
    pub max_join_pairs: usize,
}

impl Default for AutoAdminGreedy {
    fn default() -> Self {
        Self {
            max_join_pairs: 2_000,
        }
    }
}

impl Tuner for AutoAdminGreedy {
    fn name(&self) -> String {
        "AutoAdmin Greedy".into()
    }

    fn tune(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> TuningResult {
        self.tune_with_stop(ctx, req, &StopSignal::never())
    }

    fn tune_with_stop(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        stop: &StopSignal,
    ) -> TuningResult {
        let constraints = &req.constraints;
        let threads = effective_threads(req.session_threads);
        let src = ctx.source();
        let mut mw = MeteredWhatIf::new(&src, req.budget);
        let obs = ctx.obs().clone();
        let atomic_pairs: HashSet<IndexSet> =
            single_join_pairs(ctx.opt.workload(), ctx.cands, self.max_join_pairs)
                .into_iter()
                .collect();

        // Atomic cost mode: what-if for singletons and single-join pairs,
        // derived for everything else (the scratch set handed to the
        // evaluator is the extension `C ∪ {x}`; the non-atomic branch
        // derives incrementally off the committed per-query cost).
        let mode = FrozenEval::Atomic(&atomic_pairs);

        // Phase 1 (per query) restricted to atomic what-if calls.
        let p1_t0 = obs.span_start();
        let (union, mut interrupt) =
            TwoPhaseGreedy::phase1(ctx, constraints, &mut mw, mode, threads, stop);
        if let Some(t0) = p1_t0 {
            obs.span_end(
                t0,
                "phase1",
                "autoadmin",
                vec![("union".into(), union.len().to_string())],
            );
        }

        let config = if interrupt.is_some() {
            // Interrupted mid-phase-1: derive-only salvage over the
            // partial union, no further budget spend.
            let t0 = obs.span_start();
            let config = derived_greedy(ctx, constraints, mw.cache(), &union, threads);
            if let Some(t0) = t0 {
                obs.span_end(t0, "salvage", "autoadmin", vec![]);
            }
            config
        } else {
            // Phase 2 over the union, still atomic-restricted.
            let t0 = obs.span_start();
            let universe = ctx.universe();
            let empty = IndexSet::empty(universe);
            let queries: Vec<QueryId> = (0..ctx.num_queries()).map(QueryId::from).collect();
            let init: Vec<f64> = queries.iter().map(|&q| mw.cost_fcfs(q, &empty)).collect();
            let mut state = DerivationState::for_queries(universe, queries, init);
            let (config, i2) = greedy_enumerate_metered(
                ctx,
                constraints,
                &union,
                &mut state,
                &mut mw,
                mode,
                threads,
                stop,
            );
            if let Some(t0) = t0 {
                obs.span_end(t0, "phase2", "autoadmin", vec![]);
            }
            interrupt = i2;
            config
        };
        mw.publish_obs();
        let used = mw.meter().used();
        let reason = mw.stop_reason(interrupt);
        let mut telemetry = mw.telemetry();
        telemetry.session_threads = threads;
        TuningResult::evaluate(self.name(), ctx, config, used, Layout::new(mw.into_trace()))
            .with_telemetry(telemetry)
            .with_stop_reason(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::{synth, tpch};

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn only_atomic_configs_receive_calls() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = AutoAdminGreedy::default().tune(&ctx, &TuningRequest::cardinality(10, 500));
        let sizes = r.layout.calls_by_config_size();
        // All budgeted calls are for configurations of size ≤ 2 (singletons
        // and join pairs).
        assert!(
            sizes.keys().all(|&s| s <= 2),
            "atomic layout has sizes {sizes:?}"
        );
    }

    #[test]
    fn respects_budget_and_cardinality() {
        let (opt, cands) = setup(21);
        let ctx = TuningContext::new(&opt, &cands);
        for (budget, k) in [(0usize, 2usize), (9, 2), (200, 4)] {
            let r = AutoAdminGreedy::default().tune(&ctx, &TuningRequest::cardinality(k, budget));
            assert!(r.calls_used <= budget);
            assert!(r.config.len() <= k);
        }
    }

    #[test]
    fn finds_improvement_with_ample_budget() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = AutoAdminGreedy::default().tune(&ctx, &TuningRequest::cardinality(10, 10_000));
        assert!(r.improvement > 0.0, "TPC-H should be improvable");
    }
}
