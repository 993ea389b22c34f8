//! `line-opt`: 1-D time to a ratio table.
//!
//! Each instance is priced the way `batch_line_ratios` prices it: one
//! strict `run_batch_with` over the δ set under both serving orders, then
//! one exact `solve_line` per order. The instances of a table fan out over
//! the sweep pool, largest first; each solve runs on one thread. A tick is
//! one priced instance.

use super::{derive_seed, fan, json_list, json_names, order_label, scenario_set, DELTAS, ORDERS};
use crate::spans::Tracer;
use crate::{stats, Bench, Checks, Recorder, Shape, REL_TOL};
use msp_core::model::Instance;
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{run_batch_with, BatchOptions};
use msp_offline::solve_line;

/// Root span name of the `walk-line` instances.
pub const WALK_ROOT: &str = "line-opt.walk-line";

/// Distinct tables; round `r` prices table `r % SETS`.
const SETS: usize = 4;

/// Seeds per instance kind in one table.
const SEEDS: usize = 2;

/// `(scenario, root span name, horizon)` of the instance kinds of a
/// table, largest first: a long and a short `walk-line` (their per-step
/// costs give `late_early_ratio`) and the Theorem 1 adversary at the long
/// horizon. With equal counts of the three kinds, the tick median falls
/// on the adversary and the tick p95 inside the long walks, never on the
/// edge between two instance sizes.
fn plan(shape: Shape) -> [(&'static str, &'static str, usize); 3] {
    let (short, long) = match shape {
        Shape::Full => (1000, 4000),
        Shape::Tiny => (40, 160),
    };
    [
        ("walk-line", WALK_ROOT, long),
        ("adv-thm1", "line-opt.adv-thm1", long),
        ("walk-line", WALK_ROOT, short),
    ]
}

struct Priced {
    name: &'static str,
    root: &'static str,
    inst: Instance<1>,
}

/// The `line-opt` workload.
pub struct LineOpt {
    shape: Shape,
    sets: Vec<Vec<Priced>>,
    materialize_ns: u64,
}

/// One priced instance.
pub struct InstOut {
    key: String,
    /// MtC costs, δ-major and order-minor.
    alg: Vec<f64>,
    /// `solve_line` optimum per order.
    opt: [f64; 2],
}

fn price(i: usize, p: &Priced, tr: &Tracer, short: usize, long: usize) -> (InstOut, Recorder) {
    let t = p.inst.horizon();
    let mut g = tr.group(p.root, t as u64);
    let alg: Vec<f64> = g
        .call("sim.run_batch", (t * DELTAS.len()) as u64, || {
            run_batch_with(
                &p.inst,
                &MoveToCenter::new(),
                &DELTAS,
                &ORDERS,
                BatchOptions::strict(),
            )
        })
        .iter()
        .map(|res| res.total_cost())
        .collect();
    let opt = ORDERS.map(|o| g.call("line_dp.solve", t as u64, || solve_line(&p.inst, o).cost));
    let ns = g.finish();
    let mut rec = Recorder {
        ticks_ns: vec![ns],
        steps: t as u64,
        ..Recorder::default()
    };
    let per_step = ns as f64 / t as f64;
    if p.name == "walk-line" && t == short {
        rec.early.push(per_step);
    }
    if p.name == "walk-line" && t == long {
        rec.late.push(per_step);
    }
    let key = format!("{}.t{t}.{i}", p.name);
    (InstOut { key, alg, opt }, rec)
}

impl Bench for LineOpt {
    type Out = Vec<InstOut>;

    fn setup(shape: Shape, seed: u64) -> Self {
        let mut jobs = Vec::new();
        for s in 0..SETS {
            for (k, &(name, _, t)) in plan(shape).iter().enumerate() {
                for j in 0..SEEDS {
                    jobs.push((name, derive_seed(seed, s as u64, (k * SEEDS + j) as u64), t));
                }
            }
        }
        let (insts, materialize_ns) = scenario_set::<1>(&jobs);
        let kinds: Vec<_> = plan(shape)
            .iter()
            .flat_map(|&(name, root, _)| [(name, root); SEEDS])
            .collect();
        let per_set = kinds.len();
        let mut insts = insts.into_iter();
        let sets = (0..SETS)
            .map(|_| {
                kinds
                    .iter()
                    .zip(insts.by_ref().take(per_set))
                    .map(|(&(name, root), inst)| Priced { name, root, inst })
                    .collect()
            })
            .collect();
        LineOpt {
            shape,
            sets,
            materialize_ns,
        }
    }

    fn materialize_ns(&self) -> u64 {
        self.materialize_ns
    }

    fn round(&self, r: usize, tr: &Tracer, rec: &mut Recorder) -> Self::Out {
        let set = &self.sets[r % SETS];
        let [(_, _, long), _, (_, _, short)] = plan(self.shape);
        fan(set, rec, |i, p| price(i, p, tr, short, long))
    }

    /// Per-step cost of a class is its summed time over its summed steps:
    /// the mean of the per-step samples, since every sample of a class
    /// has the same horizon. A short walk prices in ~60 ms, so the median
    /// of a run's short walks jumps with the machine's speed from one
    /// second to the next; the mean does not.
    fn late_early(rec: &Recorder) -> f64 {
        stats::mean(&rec.late) / stats::mean(&rec.early)
    }

    fn verify(&mut self, out: &Self::Out, checks: &mut Checks) {
        for inst in out {
            for (o, order) in ORDERS.iter().enumerate() {
                // δ = 0 is MtC under the offline budget: a feasible
                // trajectory, so never below the exact optimum.
                let alg0 = inst.alg[o];
                let opt = inst.opt[o];
                checks.check(opt > 0.0 && alg0 >= opt * (1.0 - REL_TOL), || {
                    format!(
                        "{} {order:?}: δ=0 MtC cost {alg0} below OPT {opt}",
                        inst.key
                    )
                });
            }
        }
    }

    fn values(out: &Self::Out) -> Vec<(String, f64)> {
        let mut v = Vec::new();
        for inst in out {
            for (o, order) in ORDERS.iter().enumerate() {
                v.push((
                    format!("{}.opt.{}", inst.key, order_label(*order)),
                    inst.opt[o],
                ));
            }
            for (d, delta) in DELTAS.iter().enumerate() {
                for (o, order) in ORDERS.iter().enumerate() {
                    v.push((
                        format!("{}.alg.d{delta}.{}", inst.key, order_label(*order)),
                        inst.alg[d * ORDERS.len() + o],
                    ));
                }
            }
        }
        v
    }

    fn inputs(&self) -> Vec<(&'static str, String)> {
        let plan = plan(self.shape);
        let requests: usize = self.sets[0].iter().map(|p| p.inst.total_requests()).sum();
        vec![
            ("scenarios", json_names(plan.iter().map(|p| p.0))),
            ("horizons", json_list(plan.iter().map(|p| p.2))),
            ("seeds_per_kind", SEEDS.to_string()),
            ("tables", SETS.to_string()),
            ("requests_per_table", requests.to_string()),
            ("deltas", json_list(DELTAS)),
            ("orders", json_names(ORDERS.iter().map(|&o| order_label(o)))),
        ]
    }
}
