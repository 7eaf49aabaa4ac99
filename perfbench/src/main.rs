//! End-to-end benchmark of ixtune.
//!
//! ```text
//! perfbench --workload mcts-paper|greedy-sweep|daemon-open --seed N
//!           --seconds S --trace 0|1 --ixtuned PATH --run-dir DIR
//! ```
//!
//! Prints report lines, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/run.py` builds the binaries and invokes this; see
//! `perfbench/README.md` for the workloads and metrics.

mod daemon;
mod inproc;
mod prep;
mod stats;

use ixtune_workload::gen::BenchmarkKind;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("improvement_pct_mean", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that
/// bypasses a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 45] = [
    ("workload.generate_ms", "ms"),
    ("candidates.generate_ms", "ms"),
    ("optimizer.build_ms", "ms"),
    ("optimizer.whatif_calls", "count"),
    ("optimizer.whatif_ms", "ms"),
    ("optimizer.whatif_share", "ratio"),
    ("core.derivations", "count"),
    ("core.derivations_per_call", "ratio"),
    ("core.cache_hits", "count"),
    ("core.mcts.episodes", "count"),
    ("core.mcts.episode_ms", "ms"),
    ("core.mcts.episode_self_ms", "ms"),
    ("core.mcts.us_per_episode", "us"),
    ("core.mcts.priors_ms", "ms"),
    ("core.mcts.extraction_ms", "ms"),
    ("core.greedy.steps", "count"),
    ("core.greedy.step_ms", "ms"),
    ("core.greedy.phase1_ms", "ms"),
    ("core.greedy.phase2_ms", "ms"),
    ("core.parallel.scans", "count"),
    ("core.parallel.scan_ms", "ms"),
    ("session.traced_ms", "ms"),
    ("session.unaccounted_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("service.submit_rtt_ms_p50", "ms"),
    ("service.status_rtt_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.submit_done_ms_p50", "ms"),
    ("service.submit_done_ms_p90", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("service.rejected", "count"),
    ("service.resumed", "count"),
    ("persist.records", "count"),
    ("persist.fsyncs_per_session", "count"),
    ("persist.bytes_per_session", "bytes"),
    ("persist.recovery_ms", "ms"),
    ("warm.repeat_share", "ratio"),
    ("warm.hit_ratio", "ratio"),
    ("warm.entries", "count"),
    ("warm.bytes", "bytes"),
    ("warm.evictions", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.polls_per_session", "count"),
    ("host.companion_ms", "ms"),
];

/// How an end-to-end value is scaled to the reference host speed.
#[derive(Clone, Copy, PartialEq)]
enum Scale {
    /// Not a time: printed as measured.
    None,
    /// A duration: divided by the host factor.
    Time,
    /// A rate: multiplied by the host factor.
    Rate,
}

/// What a run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, Scale)>,
    lines: Vec<String>,
    companion: stats::Companion,
    host_ms: Vec<f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, Scale::None));
    }

    /// An end-to-end duration, reported at the reference host speed.
    pub fn set_time(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, Scale::Time));
    }

    /// An end-to-end rate, reported at the reference host speed.
    pub fn set_rate(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, Scale::Rate));
    }

    /// Time the companion once; call it where the program is idle.
    pub fn sample_host(&mut self) {
        let ms = self.companion.time_ms();
        self.host_ms.push(ms);
    }

    /// Median companion time over the nominal one: above 1 on a host
    /// slower than the reference.
    fn host_factor(&self) -> f64 {
        stats::median(&self.host_ms) / stats::COMPANION_NOMINAL_MS
    }

    /// Count a failed operation; the first few reasons are printed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn info(&mut self, line: String) {
        self.lines.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ixtuned: PathBuf,
    run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        ixtuned: take("--ixtuned")?.into(),
        run_dir: take("--run-dir")?.into(),
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(args),
    }
}

fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    use BenchmarkKind::*;
    let kinds: &[BenchmarkKind] = match args.workload.as_str() {
        "mcts-paper" => &[TpcDs, RealM],
        "greedy-sweep" => &[TpcH, TpcDs, Job, RealD, RealM],
        "daemon-open" => &[TpcH, Job, TpcDs],
        other => return Err(format!("unknown workload {other}")),
    };
    for _ in 0..prep::SETUP_REPS {
        r.sample_host();
    }
    let mut daemons = Vec::new();
    let mut spawn_error = None;
    let (benches, setup_s, times) = prep::setup(kinds, |rep| {
        if args.workload != "daemon-open" || spawn_error.is_some() {
            return;
        }
        let started = daemon::fresh_dir(&args.run_dir, &format!("data-{rep}"))
            .and_then(|dir| daemon::Daemon::spawn(&args.ixtuned, &dir, &args.run_dir));
        match started {
            Ok((d, _)) => daemons.push(d),
            Err(e) => spawn_error = Some(e),
        }
    });
    if let Some(e) = spawn_error {
        return Err(e);
    }
    for b in &benches {
        r.info(format!(
            "bench {}: {} queries, {} candidates",
            b.kind.name(),
            b.queries,
            b.cands.len()
        ));
    }
    r.set_time("setup_s", setup_s);
    r.set("workload.generate_ms", times.generate_ms);
    r.set("candidates.generate_ms", times.candidates_ms);
    r.set("optimizer.build_ms", times.optimizer_ms);

    match args.workload.as_str() {
        "mcts-paper" => {
            let cycle = inproc::mcts_cycle(args.seed);
            inproc::run(&benches, &cycle, args.seconds, args.trace, r);
        }
        "greedy-sweep" => {
            let cycle = inproc::greedy_cycle(args.seed);
            inproc::run(&benches, &cycle, args.seconds, args.trace, r);
        }
        _ => {
            let d = daemons.pop().expect("one daemon per set-up repetition");
            for old in daemons.drain(..) {
                old.shutdown();
            }
            daemon::run(&benches, d, args.seed, args.seconds, args.trace, r)?;
        }
    }
    if args.workload != "daemon-open" {
        let rss = stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
        r.set("peak_rss_mb", rss);
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} host_threads {host_threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut r = Report::default();
    if let Err(e) = run(&args, &mut r) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
    let factor = r.host_factor();
    r.set("host.companion_ms", stats::median(&r.host_ms));
    for line in &r.lines {
        println!("{line}");
    }
    println!(
        "host companion median {:.6} ms over {} samples; timings below are scaled by the factor {factor:.6} to a {} ms companion",
        stats::median(&r.host_ms),
        r.host_ms.len(),
        stats::COMPANION_NOMINAL_MS
    );
    for why in &r.failures {
        println!("FAILED {why}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match r.metrics.get(name) {
            Some(&(v, Scale::None)) => v,
            Some(&(v, scale)) if !args.trace => {
                println!("raw {name} = {v} {unit}");
                if scale == Scale::Time {
                    v / factor
                } else {
                    v * factor
                }
            }
            Some(&(v, _)) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                exit(1);
            }
        };
        println!("metric {name} = {value} {unit}");
        let entry = Value::Obj(vec![
            ("value".into(), Value::F64(value)),
            ("unit".into(), Value::Str(unit.into())),
        ]);
        metrics.push((name.to_string(), entry));
    }
    println!(
        "attempted {} failed {} (operations: tuning sessions)",
        r.attempted, r.failed
    );
    let out = Value::Obj(vec![
        ("correct".into(), Value::Bool(r.failed == 0)),
        ("attempted".into(), Value::U64(r.attempted)),
        ("failed".into(), Value::U64(r.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).expect("a JSON tree always renders")
    );
}
