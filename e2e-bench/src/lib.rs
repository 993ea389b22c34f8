//! End-to-end benchmark of the mobile-server workspace.
//!
//! Four workloads time what users of this repository wait on: pricing
//! `alg/OPT` over a sweep (`line-opt`, `plane-opt`) and the throughput of
//! a streaming Move-to-Center session that carries a live ratio probe
//! (`live-probe`) or a checkpoint journal (`replay-journal`). Every
//! number is timed from outside the library, around calls into its public
//! API. See `README.md` next to this crate for the workloads, the metrics
//! and how to read a traced run.

pub mod golden;
pub mod spans;
pub mod stats;
pub mod workloads;

use golden::Golden;
use msp_analysis::obs::{self, MetricsSnapshot};
use msp_analysis::sweep;
use spans::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed whose outputs are pinned by the golden files.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Relative tolerance of every golden comparison and cost invariant: the
/// tolerance of the repository's own oracles.
pub const REL_TOL: f64 = 1e-9;

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("late_early_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("line_dp.solve_s", "s"),
    ("line_dp.steps", "count"),
    ("line_dp.step_us_t1000", "us"),
    ("line_dp.step_us_t4000", "us"),
    ("probe.observe_s", "s"),
    ("probe.bound_ns_mean", "ns"),
    ("probe.grid_bounds", "count"),
    ("grid_dp.solve_s", "s"),
    ("grid_dp.steps", "count"),
    ("grid.smawk_rows", "count"),
    ("grid.warm_reuse_cells", "count"),
    ("convex.solve_s", "s"),
    ("convex.solves", "count"),
    ("sim.batch_s", "s"),
    ("sim.feed_s", "s"),
    ("stream.steps", "count"),
    ("median.solves", "count"),
    ("median.iters_per_solve", "count"),
    ("median.warm_start_frac", "frac"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.bytes_per_step", "B"),
    ("journal.append_s", "s"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("journal.recover_s", "s"),
    ("executor.dispatches", "count"),
    ("executor.steals", "count"),
    ("executor.dispatch_ns_mean", "ns"),
    ("sweep.busy_frac", "frac"),
    ("gen.materialize_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1-D time-to-ratio: the exact line DP prices MtC runs.
    LineOpt,
    /// 2-D time-to-ratio: grid DP and convex solver, fanned over the pool.
    PlaneOpt,
    /// A planar streaming session with a live `RatioProbe`.
    LiveProbe,
    /// Trace encode, replay, checkpoint journal and recovery.
    ReplayJournal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LineOpt,
        Workload::PlaneOpt,
        Workload::LiveProbe,
        Workload::ReplayJournal,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LineOpt => "line-opt",
            Workload::PlaneOpt => "plane-opt",
            Workload::LiveProbe => "live-probe",
            Workload::ReplayJournal => "replay-journal",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark, `Tiny` keeps every code path
/// but runs in well under a second in a debug build (for tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Minimal sizes for tests.
    Tiny,
}

/// Pass/fail tally of the output checks.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// True when `a` and `b` agree to [`REL_TOL`] relative.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// What the timed rounds report besides their outputs.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Duration of every tick (one priced instance or one session tick).
    pub ticks_ns: Vec<u64>,
    /// Samples of the early part of the horizon, for `late_early_ratio`.
    pub early: Vec<f64>,
    /// Samples of the late part of the horizon.
    pub late: Vec<f64>,
    /// Input steps consumed.
    pub steps: u64,
    /// Workload-specific totals (`trace.bytes`, `journal.bytes`, ...).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// Adds `v` to the workload-specific total `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.extra.entry(key).or_insert(0.0) += v;
    }

    /// Appends what another recorder saw (one fanned-out item's share).
    pub fn merge(&mut self, other: Recorder) {
        self.ticks_ns.extend(other.ticks_ns);
        self.early.extend(other.early);
        self.late.extend(other.late);
        self.steps += other.steps;
        for (k, v) in other.extra {
            self.add(k, v);
        }
    }

    /// Records the ticks of one stream: each is a latency sample, and the
    /// first and last tenth feed `late_early_ratio`.
    pub fn stream_ticks(&mut self, ticks: &[u64]) {
        let tenth = (ticks.len() / 10).max(1);
        self.ticks_ns.extend_from_slice(ticks);
        self.early.extend(ticks[..tenth].iter().map(|&t| t as f64));
        self.late
            .extend(ticks[ticks.len() - tenth..].iter().map(|&t| t as f64));
    }
}

/// A workload: set-up, one round of the timed region, and its checks.
pub trait Bench: Sized + Sync {
    /// One round's output.
    type Out;

    /// Builds every input of the run; timed as set-up.
    fn setup(shape: Shape, seed: u64) -> Self;

    /// Time spent materializing scenario instances in the last `setup`.
    fn materialize_ns(&self) -> u64;

    /// One round of the timed region. Round `r` of every pass sees the
    /// same inputs. Rounds fan their items over the sweep pool: with
    /// every core busy, timings do not swing with whatever else shares a
    /// physical core with an idle one.
    fn round(&self, r: usize, tr: &Tracer, rec: &mut Recorder) -> Self::Out;

    /// Checks one round's output against invariants that hold on any
    /// seed; runs after timing.
    fn verify(&mut self, out: &Self::Out, checks: &mut Checks);

    /// `late_early_ratio` from a pass's samples: the ratio of the
    /// medians of the late and the early samples.
    fn late_early(rec: &Recorder) -> f64 {
        stats::median(&rec.late) / stats::median(&rec.early)
    }

    /// Named output values: pinned by the golden file for round 0 and
    /// compared bitwise between the untraced and traced passes.
    fn values(out: &Self::Out) -> Vec<(String, f64)>;

    /// Inputs of the run, for the record line.
    fn inputs(&self) -> Vec<(&'static str, String)>;
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input sizes.
    pub shape: Shape,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed region; at least one round always runs.
    pub seconds: f64,
    /// Traced run: an untraced pass and a traced pass of `seconds / 2`
    /// each, reporting the per-layer metrics.
    pub trace: bool,
    /// Round-0 values to match, if any.
    pub golden: Option<Golden>,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Inputs and sample counts of the run.
    pub inputs: Vec<(&'static str, String)>,
    /// Round-0 output values of the last pass (the traced one, if any).
    pub values: Vec<(String, f64)>,
    /// Spans of the traced pass (empty when untraced).
    pub spans: Vec<Span>,
}

impl Report {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// The record line: the run's inputs as one JSON object.
    pub fn inputs_json(&self) -> String {
        let fields: Vec<String> = self
            .inputs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"inputs\": {{{}}}}}", fields.join(", "))
    }
}

/// A finite number as JSON (full round-trip digits); non-finite as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Report {
    match cfg.workload {
        Workload::LineOpt => run_bench::<workloads::line_opt::LineOpt>(cfg),
        Workload::PlaneOpt => run_bench::<workloads::plane_opt::PlaneOpt>(cfg),
        Workload::LiveProbe => run_bench::<workloads::live_probe::LiveProbe>(cfg),
        Workload::ReplayJournal => run_bench::<workloads::replay_journal::ReplayJournal>(cfg),
    }
}

struct Pass<O> {
    outs: Vec<O>,
    round_ns: Vec<u64>,
    timed_ns: u64,
    rec: Recorder,
    spans: Vec<Span>,
    snap: Option<MetricsSnapshot>,
}

fn pass<B: Bench>(bench: &B, seconds: f64, traced: bool) -> Pass<B::Out> {
    let tr = Tracer::new(traced);
    if traced {
        obs::enable();
        obs::reset();
    }
    let mut rec = Recorder::default();
    let mut outs = Vec::new();
    let mut round_ns = Vec::new();
    let t0 = Instant::now();
    loop {
        let r0 = Instant::now();
        outs.push(bench.round(outs.len(), &tr, &mut rec));
        round_ns.push(stats::ns_since(r0));
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let timed_ns = stats::ns_since(t0);
    let snap = traced.then(obs::snapshot);
    if traced {
        obs::disable();
    }
    Pass {
        outs,
        round_ns,
        timed_ns,
        rec,
        spans: tr.into_spans(),
        snap,
    }
}

fn run_bench<B: Bench>(cfg: &RunConfig) -> Report {
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    let mut materialize_ns = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        warm_pool();
        let b = B::setup(cfg.shape, cfg.seed);
        setup_ns.push(stats::ns_since(t0));
        materialize_ns.push(b.materialize_ns());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let first = pass(&bench, seconds, false);
    let traced = cfg.trace.then(|| pass(&bench, seconds, true));

    let mut checks = Checks::default();
    for out in &first.outs {
        bench.verify(out, &mut checks);
    }
    if let Some(golden) = &cfg.golden {
        golden.compare(&B::values(&first.outs[0]), &mut checks);
    }
    let values = B::values(&traced.as_ref().unwrap_or(&first).outs[0]);
    if let Some(t) = &traced {
        for out in &t.outs {
            bench.verify(out, &mut checks);
        }
        // Tracing is read-only: every round both passes ran must agree
        // bit for bit.
        for (r, (a, b)) in first.outs.iter().zip(&t.outs).enumerate() {
            let (a, b) = (B::values(a), B::values(b));
            let same = a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
            checks.check(same, || {
                format!("round {r}: traced and untraced outputs differ")
            });
        }
    }

    let mut inputs = vec![
        ("workload", format!("\"{}\"", cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_num(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("pool_threads", sweep::pool_threads().to_string()),
        ("nproc", stats::nproc().to_string()),
        ("rounds", first.outs.len().to_string()),
        ("ticks", first.rec.ticks_ns.len().to_string()),
        ("steps", first.rec.steps.to_string()),
        ("golden", cfg.golden.is_some().to_string()),
    ];
    inputs.extend(bench.inputs());
    if !checks.failures.is_empty() {
        let shown: Vec<String> = checks
            .failures
            .iter()
            .take(8)
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect();
        inputs.push(("failures", format!("[{}]", shown.join(", "))));
    }

    let setup_s = stats::median_u64(&setup_ns) / 1e9;
    let metrics = match &traced {
        None => end_to_end(&first, setup_s, B::late_early(&first.rec)),
        Some(t) => per_layer(&first, t, stats::median_u64(&materialize_ns) / 1e9),
    };
    Report {
        checks,
        metrics,
        inputs,
        values,
        spans: traced.map(|t| t.spans).unwrap_or_default(),
    }
}

/// Starts the sweep pool's workers so their spawn is paid in set-up.
fn warm_pool() {
    let items: Vec<usize> = (0..4 * sweep::pool_threads()).collect();
    let sum: usize = sweep::parallel_map_indexed(&items, 0, |_, &i| i)
        .iter()
        .sum();
    std::hint::black_box(sum);
}

fn end_to_end<O>(
    p: &Pass<O>,
    setup_s: f64,
    late_early: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let timed_s = p.timed_ns as f64 / 1e9;
    let values = [
        setup_s,
        stats::median_u64(&p.round_ns) / 1e9,
        p.rec.steps as f64 / timed_s,
        stats::quantile_u64(&p.rec.ticks_ns, 0.50) / 1e6,
        stats::quantile_u64(&p.rec.ticks_ns, 0.95) / 1e6,
        late_early,
        stats::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

fn per_layer<O>(
    base: &Pass<O>,
    t: &Pass<O>,
    materialize_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    use spans::{child_totals, child_totals_under, roots_ns, roots_self_ns};
    let snap = t.snap.as_ref().expect("traced pass snapshots the registry");
    let counter = |name: &str| snap.counter(name).expect("registry counter") as f64;
    // The registry's quantiles are power-of-two bucket bounds, so the
    // histograms are read as measured: their mean.
    let hist_mean = |name: &str| {
        let h = snap.hist(name).expect("registry histogram");
        stats::ratio(h.sum as f64, h.count as f64)
    };
    let secs = |name: &str| child_totals(&t.spans, name).0 as f64 / 1e9;
    // µs per step of `solve_line` on the shortest and the longest
    // `walk-line` horizon (0 on the workloads that run no line DP).
    let walk_roots = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == workloads::line_opt::WALK_ROOT);
    let t_short = walk_roots.clone().map(|s| s.steps).min().unwrap_or(0);
    let t_long = walk_roots.map(|s| s.steps).max().unwrap_or(0);
    let per_step_us = |t_len: u64| {
        let (ns, _, steps) = child_totals_under(&t.spans, "line_dp.solve", |root| {
            root.name == workloads::line_opt::WALK_ROOT && root.steps == t_len
        });
        stats::ratio(ns as f64 / 1e3, steps as f64)
    };
    let timed = t.timed_ns as f64;
    let median_solves = counter("median.solves");
    let extra = |k: &str| t.rec.extra.get(k).copied().unwrap_or(0.0);
    let wall = |p: &Pass<O>| stats::median_u64(&p.round_ns);
    let values = [
        secs("line_dp.solve"),
        child_totals(&t.spans, "line_dp.solve").2 as f64,
        per_step_us(t_short),
        per_step_us(t_long),
        secs("probe.observe"),
        hist_mean("probe.bound_ns"),
        counter("probe.grid_bounds"),
        secs("grid_dp.solve_warm"),
        counter("grid_dp.steps"),
        counter("grid.smawk_rows"),
        counter("grid.warm_reuse_cells"),
        secs("convex.solve"),
        child_totals(&t.spans, "convex.solve").1 as f64,
        secs("sim.run_batch"),
        secs("sim.feed"),
        counter("stream.steps"),
        median_solves,
        stats::ratio(counter("median.iterations"), median_solves),
        stats::ratio(counter("median.warm_starts"), median_solves),
        secs("trace.encode"),
        secs("trace.decode"),
        stats::ratio(extra("trace.bytes"), extra("trace.steps")),
        secs("journal.append"),
        counter("journal.appends"),
        extra("journal.bytes"),
        secs("journal.recover"),
        counter("executor.dispatches"),
        counter("executor.steals"),
        hist_mean("executor.dispatch_ns"),
        roots_ns(&t.spans) as f64 / (sweep::pool_threads() as f64 * timed),
        materialize_s,
        roots_self_ns(&t.spans) as f64 / 1e9,
        wall(t) / wall(base) - 1.0,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}
