//! The in-process, closed-loop workloads: one thread tunes a fixed cycle of
//! sessions back to back through `Tuner::tune`, checks every result, and
//! repeats the cycle until the measuring time is spent.

use crate::prep::{ms_since, Bench};
use crate::stats::{mean, median, percentile, ratio, Digest, Rng};
use crate::Report;
use ixtune_common::{IndexId, IndexSet};
use ixtune_core::prelude::*;
use ixtune_obs::{MetricsRegistry, SpanRecord, TraceRecorder};
use ixtune_service::ResultPayload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cardinality constraint of every session.
pub const K: usize = 10;

/// Least sessions per run, so the session percentiles rest on at least
/// 100 samples even when the cycle is long.
const MIN_SESSIONS: usize = 100;

/// Spans kept per traced session; far above what any session here records.
const TRACE_CAPACITY: usize = 1 << 21;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Mcts,
    Vanilla,
    TwoPhase,
    AutoAdmin,
}

impl Algo {
    pub const ALL: [Algo; 4] = [Algo::Mcts, Algo::Vanilla, Algo::TwoPhase, Algo::AutoAdmin];
    pub const GREEDY: [Algo; 3] = [Algo::Vanilla, Algo::TwoPhase, Algo::AutoAdmin];
}

/// One session to run: which prepared benchmark, budget, tuner and seed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub bench: usize,
    pub budget: usize,
    pub algo: Algo,
    pub seed: u64,
}

/// What a session returned, in the form both the in-process and the wire
/// results reduce to.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub config: Vec<u32>,
    pub calls_used: usize,
    pub layout_len: usize,
    /// Bits of the reported oracle improvement.
    pub improvement: u64,
    pub stop_reason: Option<StopReason>,
    pub layout_fingerprint: u64,
}

impl Outcome {
    pub fn of_result(r: &TuningResult) -> Self {
        Self::of_payload(&ResultPayload::from_result(r))
    }

    pub fn of_payload(p: &ResultPayload) -> Self {
        Self {
            config: p.config.clone(),
            calls_used: p.calls_used,
            layout_len: p.layout_len,
            improvement: p.improvement.to_bits(),
            stop_reason: p.stop_reason,
            layout_fingerprint: p.layout_fingerprint,
        }
    }

    pub fn improvement_pct(&self) -> f64 {
        f64::from_bits(self.improvement) * 100.0
    }

    /// The fields two runs of the same spec must agree on.
    pub fn identity(&self) -> (&[u32], usize, u64, u64) {
        (
            &self.config,
            self.calls_used,
            self.improvement,
            self.layout_fingerprint,
        )
    }

    pub fn digest_into(&self, d: &mut Digest) {
        d.word(self.config.len() as u64);
        for &id in &self.config {
            d.word(u64::from(id));
        }
        d.word(self.calls_used as u64);
        d.word(self.improvement);
        d.word(self.layout_fingerprint);
    }
}

/// Per-session correctness checks: the budget and the cardinality
/// constraint hold, the layout records every budgeted call, the reported
/// improvement is the oracle's to the bit, and the session finished
/// normally.
pub fn check(b: &Bench, budget: usize, o: &Outcome) -> Result<(), String> {
    if o.calls_used > budget {
        return Err(format!("calls_used {} > budget {budget}", o.calls_used));
    }
    if o.layout_len != o.calls_used {
        return Err(format!(
            "layout has {} calls, calls_used is {}",
            o.layout_len, o.calls_used
        ));
    }
    if o.config.len() > K {
        return Err(format!("|config| = {} > K = {K}", o.config.len()));
    }
    let universe = b.cands.len();
    if let Some(bad) = o.config.iter().find(|&&id| id as usize >= universe) {
        return Err(format!("index {bad} outside the {universe} candidates"));
    }
    let set = IndexSet::from_ids(universe, o.config.iter().map(|&id| IndexId::new(id)));
    let oracle = b.ctx().oracle_improvement(&set).max(0.0);
    if oracle.to_bits() != o.improvement {
        return Err(format!(
            "improvement {} differs from the oracle's {oracle}",
            f64::from_bits(o.improvement)
        ));
    }
    match o.stop_reason {
        Some(StopReason::BudgetExhausted | StopReason::Completed) => Ok(()),
        other => Err(format!("stop reason {other:?}")),
    }
}

/// Run one session, single-threaded, with observability `obs`.
pub fn tune(b: &Bench, s: &Spec, obs: Obs) -> TuningResult {
    let ctx = b.ctx().with_obs(obs);
    let req = TuningRequest::cardinality(K, s.budget)
        .with_seed(s.seed)
        .with_session_threads(1);
    match s.algo {
        Algo::Mcts => MctsTuner::default().tune(&ctx, &req),
        Algo::Vanilla => VanillaGreedy.tune(&ctx, &req),
        Algo::TwoPhase => TwoPhaseGreedy.tune(&ctx, &req),
        Algo::AutoAdmin => AutoAdminGreedy::default().tune(&ctx, &req),
    }
}

/// `mcts-paper`: MCTS on TPC-DS at B = 2000 and 3000 and on Real-M at
/// B = 1000, eight seeds each, in a seeded order. Eight seeds per budget
/// keep the seed-to-seed spread of session time and improvement small.
pub fn mcts_cycle(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 1);
    let mut cycle = Vec::new();
    for (bench, budget) in [(0, 2000), (0, 3000), (1, 1000)] {
        for _ in 0..8 {
            cycle.push(Spec {
                bench,
                budget,
                algo: Algo::Mcts,
                seed: rng.next_u64() >> 16,
            });
        }
    }
    rng.shuffle(&mut cycle);
    cycle
}

/// `greedy-sweep`: the three greedy variants over all five benchmarks
/// (TPC-H, TPC-DS, JOB, Real-D, Real-M in that bench order), small
/// benchmarks at B ∈ {200, 1000}, large ones at B ∈ {1000, 3000}, in a
/// seeded order.
pub fn greedy_cycle(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 2);
    let mut cycle = Vec::new();
    for (bench, budgets) in [
        (0, [200, 1000]),
        (1, [1000, 3000]),
        (2, [200, 1000]),
        (3, [1000, 3000]),
        (4, [1000, 3000]),
    ] {
        for budget in budgets {
            for algo in Algo::GREEDY {
                cycle.push(Spec {
                    bench,
                    budget,
                    algo,
                    seed: rng.next_u64() >> 16,
                });
            }
        }
    }
    rng.shuffle(&mut cycle);
    cycle
}

/// Per-layer sums over the traced sessions.
#[derive(Default)]
struct Layers {
    sessions: f64,
    wall_ms: f64,
    covered_ms: f64,
    whatif_ms: f64,
    whatif_calls: f64,
    episode_calls: f64,
    derivations: f64,
    cache_hits: f64,
    episodes: f64,
    episode_ms: f64,
    priors_ms: f64,
    extraction_ms: f64,
    steps: f64,
    step_ms: f64,
    phase1_ms: f64,
    phase2_ms: f64,
    scans: f64,
    scan_ms: f64,
}

impl Layers {
    fn add(&mut self, wall_ms: f64, r: &TuningResult, reg: &MetricsRegistry, spans: &[SpanRecord]) {
        let t = &r.telemetry;
        self.sessions += 1.0;
        self.wall_ms += wall_ms;
        self.covered_ms += covered_ms(spans);
        for kernel in ["compiled", "interpreted"] {
            let h = reg.histogram(
                "ixtune_whatif_latency_seconds",
                "",
                &[("kernel", kernel)],
                &[],
            );
            self.whatif_ms += h.sum() * 1e3;
        }
        self.whatif_calls += t.what_if_calls as f64;
        self.episode_calls += (t.selection_calls + t.rollout_calls) as f64;
        self.derivations += t.derivations as f64;
        self.cache_hits += t.cache_hits as f64;
        for s in spans.iter().filter(|s| !s.instant) {
            let ms = s.dur_us as f64 / 1e3;
            match s.name.as_str() {
                "episode" => {
                    self.episodes += 1.0;
                    self.episode_ms += ms;
                }
                "priors" => self.priors_ms += ms,
                "extraction" => self.extraction_ms += ms,
                "greedy-step" => {
                    self.steps += 1.0;
                    self.step_ms += ms;
                }
                "phase1" => self.phase1_ms += ms,
                "phase2" => self.phase2_ms += ms,
                "scan-chunk" => {
                    self.scans += 1.0;
                    self.scan_ms += ms;
                }
                _ => {}
            }
        }
    }

    fn report(&self, r: &mut Report) {
        let n = self.sessions;
        let per = |v: f64| ratio(v, n);
        // What-if time inside episodes, apportioned by the episode share of
        // the budgeted calls (the latency histogram is per session, not per
        // phase).
        let episode_whatif_ms = self.whatif_ms * ratio(self.episode_calls, self.whatif_calls);
        r.set("optimizer.whatif_calls", per(self.whatif_calls));
        r.set("optimizer.whatif_ms", per(self.whatif_ms));
        r.set(
            "optimizer.whatif_share",
            ratio(self.whatif_ms, self.wall_ms),
        );
        r.set("core.derivations", per(self.derivations));
        r.set(
            "core.derivations_per_call",
            ratio(self.derivations, self.whatif_calls),
        );
        r.set("core.cache_hits", per(self.cache_hits));
        r.set("core.mcts.episodes", per(self.episodes));
        r.set("core.mcts.episode_ms", per(self.episode_ms));
        r.set(
            "core.mcts.episode_self_ms",
            per(self.episode_ms - episode_whatif_ms),
        );
        r.set(
            "core.mcts.us_per_episode",
            ratio(self.episode_ms * 1e3, self.episodes),
        );
        r.set("core.mcts.priors_ms", per(self.priors_ms));
        r.set("core.mcts.extraction_ms", per(self.extraction_ms));
        r.set("core.greedy.steps", per(self.steps));
        r.set("core.greedy.step_ms", per(self.step_ms));
        r.set("core.greedy.phase1_ms", per(self.phase1_ms));
        r.set("core.greedy.phase2_ms", per(self.phase2_ms));
        r.set("core.parallel.scans", per(self.scans));
        r.set("core.parallel.scan_ms", per(self.scan_ms));
        r.set("session.traced_ms", per(self.wall_ms));
        r.set(
            "session.unaccounted_ms",
            per(self.wall_ms - self.covered_ms),
        );
    }
}

/// Time covered by the union of the spans, milliseconds.
fn covered_ms(spans: &[SpanRecord]) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !s.instant)
        .map(|s| (s.ts_us, s.ts_us + s.dur_us))
        .collect();
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total as f64 / 1e3
}

/// Run `cycle` over and over, closed-loop, for at least `seconds` and at
/// least [`MIN_SESSIONS`] sessions, always finishing a cycle. With `trace`,
/// every second cycle runs with an enabled `Obs` and a `TraceRecorder`,
/// and the per-layer metrics come from those cycles; the others give the
/// untraced times that `trace_overhead_pct` compares against.
///
/// Timings are medians across cycles, so a few seconds of host contention
/// do not move them: the session percentiles are taken over each spec's
/// median session time, and `sessions_per_s` is the cycle length over the
/// sum of each spec's median busy time (session plus checks).
pub fn run(benches: &[Bench], cycle: &[Spec], seconds: f64, trace: bool, r: &mut Report) {
    let start = Instant::now();
    let mut first: Vec<Option<Outcome>> = vec![None; cycle.len()];
    // Untraced session times of each spec, and busy times (session and
    // checks, not the host-speed samples between them) of each spec in
    // untraced and traced cycles.
    let mut spec_ms: Vec<Vec<f64>> = vec![Vec::new(); cycle.len()];
    let mut busy_ms: [Vec<Vec<f64>>; 2] =
        [vec![Vec::new(); cycle.len()], vec![Vec::new(); cycle.len()]];
    let mut cycles = [0usize; 2];
    let mut layers = Layers::default();
    let mut sessions = 0usize;
    loop {
        let traced = trace && cycles[0] > cycles[1];
        for (i, spec) in cycle.iter().enumerate() {
            let b = &benches[spec.bench];
            let (obs, rec) = if traced {
                let reg = Arc::new(MetricsRegistry::new());
                let tracer = Arc::new(TraceRecorder::new(TRACE_CAPACITY));
                let obs = Obs::enabled(Arc::clone(&reg), Some(Arc::clone(&tracer)), 1);
                (obs, Some((reg, tracer)))
            } else {
                (Obs::disabled(), None)
            };
            r.sample_host();
            let t = Instant::now();
            let result = tune(b, spec, obs);
            let ms = ms_since(t);
            r.attempted += 1;
            let out = Outcome::of_result(&result);
            let verdict = check(b, spec.budget, &out).and_then(|()| match &first[i] {
                // A later cycle (traced or not) must repeat the first one.
                Some(f) if f.identity() != out.identity() => {
                    Err("result differs from the first run of the same spec".to_string())
                }
                _ => Ok(()),
            });
            if let Err(e) = verdict {
                r.fail(format!(
                    "{} {:?} B={} seed={}: {e}",
                    b.kind.name(),
                    spec.algo,
                    spec.budget,
                    spec.seed
                ));
            }
            match rec {
                Some((reg, tracer)) => {
                    if tracer.dropped() > 0 {
                        r.fail("trace ring overflowed".to_string());
                    }
                    layers.add(ms, &result, &reg, &tracer.records(None));
                }
                None => spec_ms[i].push(ms),
            }
            first[i].get_or_insert(out);
            busy_ms[usize::from(traced)][i].push(ms_since(t));
        }
        cycles[usize::from(traced)] += 1;
        sessions += cycle.len();
        let done = start.elapsed() >= Duration::from_secs_f64(seconds)
            && sessions >= MIN_SESSIONS
            && (!trace || cycles[0] == cycles[1]);
        if done {
            break;
        }
    }

    let mut digest = Digest::default();
    let mut improvements = Vec::new();
    for (i, out) in first.iter().enumerate() {
        let out = out.as_ref().expect("every spec ran at least once");
        digest.word(i as u64);
        out.digest_into(&mut digest);
        improvements.push(out.improvement_pct());
    }
    let typical_ms: Vec<f64> = spec_ms.iter().map(|v| median(v)).collect();
    r.info(format!(
        "result_digest {} over {} specs",
        digest.hex(),
        cycle.len()
    ));
    r.info(format!(
        "sessions {sessions}: {} untraced and {} traced cycles of {}; \
         session percentiles over {} per-spec medians of {} samples each",
        cycles[0],
        cycles[1],
        cycle.len(),
        typical_ms.len(),
        cycles[0]
    ));

    // A typical cycle: the sum of each spec's median busy time.
    let cycle_ms = |b: &[Vec<f64>]| b.iter().map(|v| median(v)).sum::<f64>();
    let untraced_ms = cycle_ms(&busy_ms[0]);
    r.set_rate(
        "sessions_per_s",
        ratio(cycle.len() as f64 * 1e3, untraced_ms),
    );
    r.set_time("session_ms_p50", percentile(&typical_ms, 50.0));
    r.set_time("session_ms_p90", percentile(&typical_ms, 90.0));
    r.set("improvement_pct_mean", mean(&improvements));
    if trace {
        r.set(
            "trace_overhead_pct",
            100.0 * (ratio(cycle_ms(&busy_ms[1]), untraced_ms) - 1.0),
        );
        layers.report(r);
    }
}
