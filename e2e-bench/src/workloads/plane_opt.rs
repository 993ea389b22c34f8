//! `plane-opt`: 2-D time to a ratio table, instances fanned over the
//! sweep pool.
//!
//! Each instance gets one strict `run_batch_with` over the δ set under
//! both serving orders, one `ConvexSolver::solve` and a warm
//! `GridDp::solve_warm` prefix sweep at the marks T/4, T/2 and T — how
//! the planar experiments price their ratios. A tick is one priced
//! instance.

use super::{derive_seed, fan, json_list, json_names, order_label, scenario_set, DELTAS, ORDERS};
use crate::spans::Tracer;
use crate::{stats, Bench, Checks, Recorder, Shape, REL_TOL};
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{run_batch_with, BatchOptions};
use msp_offline::{ConvexSolver, GridDp, TransitionKernel};
use std::time::Instant;

/// Distinct instance sets; round `r` prices set `r % SETS`.
const SETS: usize = 4;

/// Scenarios of every set, each with its root span name, the most
/// requests per step first so the pool's dynamic claiming ends a fan with
/// the cheapest instances.
const SCENARIOS: [(&str, &str); 3] = [
    ("car-fleet", "plane-opt.car-fleet"),
    ("district-clusters", "plane-opt.district-clusters"),
    ("walk-plane", "plane-opt.walk-plane"),
];

/// `(horizon, seeds per scenario, grid cells per axis)`.
fn sizes(shape: Shape) -> (usize, usize, usize) {
    match shape {
        Shape::Full => (256, 4, 41),
        Shape::Tiny => (24, 1, 9),
    }
}

/// The order the convex solver and the grid DP price.
const OPT_ORDER: ServingOrder = ServingOrder::MoveFirst;

struct Priced {
    name: &'static str,
    root: &'static str,
    inst: Instance<2>,
}

/// The `plane-opt` workload.
pub struct PlaneOpt {
    shape: Shape,
    sets: Vec<Vec<Priced>>,
    materialize_ns: u64,
}

/// One priced instance.
pub struct InstOut {
    key: String,
    /// MtC costs, δ-major and order-minor.
    alg: Vec<f64>,
    /// Convex-solver cost (an upper bound on OPT).
    convex: f64,
    /// Grid-DP optimum at each prefix mark.
    grid: [f64; 3],
}

fn marks(t: usize) -> [usize; 3] {
    [t / 4, t / 2, t]
}

impl PlaneOpt {
    fn price(&self, i: usize, p: &Priced, tr: &Tracer) -> (InstOut, Recorder) {
        let cells = sizes(self.shape).2;
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
        let convex = g.call("convex.solve", t as u64, || {
            ConvexSolver::new().solve(&p.inst, OPT_ORDER).cost
        });
        let mut dp = g.call("grid_dp.solve_warm", 0, || GridDp::new(&p.inst, cells));
        let mut prefix = Instance::new(
            p.inst.d,
            p.inst.max_move,
            p.inst.start,
            Vec::with_capacity(t),
        );
        let mut grid = [0.0; 3];
        let mut seg_ns = [0; 3];
        let mut done = 0;
        let marks = marks(t);
        for (k, &mark) in marks.iter().enumerate() {
            prefix.steps.extend_from_slice(&p.inst.steps[done..mark]);
            let t0 = Instant::now();
            grid[k] = g.call("grid_dp.solve_warm", (mark - done) as u64, || {
                dp.solve_warm(&prefix, OPT_ORDER, TransitionKernel::DistanceTransform)
            });
            seg_ns[k] = stats::ns_since(t0);
            done = mark;
        }
        // Per-step grid cost of the last prefix segment against the first.
        let rec = Recorder {
            ticks_ns: vec![g.finish()],
            early: vec![seg_ns[0] as f64 / marks[0] as f64],
            late: vec![seg_ns[2] as f64 / (marks[2] - marks[1]) as f64],
            steps: t as u64,
            ..Recorder::default()
        };
        let out = InstOut {
            key: format!("{}.{i}", p.name),
            alg,
            convex,
            grid,
        };
        (out, rec)
    }
}

impl Bench for PlaneOpt {
    type Out = Vec<InstOut>;

    fn setup(shape: Shape, seed: u64) -> Self {
        let (t, seeds, _) = sizes(shape);
        let kinds: Vec<(&str, &str)> = SCENARIOS
            .iter()
            .flat_map(|&kind| std::iter::repeat_n(kind, seeds))
            .collect();
        let jobs: Vec<_> = (0..SETS as u64)
            .flat_map(|s| {
                kinds
                    .iter()
                    .enumerate()
                    .map(move |(k, &(name, _))| (name, derive_seed(seed, s, k as u64), t))
            })
            .collect();
        let (insts, materialize_ns) = scenario_set::<2>(&jobs);
        let mut insts = insts.into_iter();
        let sets = (0..SETS)
            .map(|_| {
                kinds
                    .iter()
                    .zip(insts.by_ref().take(kinds.len()))
                    .map(|(&(name, root), inst)| Priced { name, root, inst })
                    .collect()
            })
            .collect();
        PlaneOpt {
            shape,
            sets,
            materialize_ns,
        }
    }

    fn materialize_ns(&self) -> u64 {
        self.materialize_ns
    }

    fn round(&self, r: usize, tr: &Tracer, rec: &mut Recorder) -> Self::Out {
        fan(&self.sets[r % SETS], rec, |i, p| self.price(i, p, tr))
    }

    fn verify(&mut self, out: &Self::Out, checks: &mut Checks) {
        for inst in out {
            // The convex solver starts from MtC at δ = 0 and keeps its
            // best trajectory, so it never ends above that run.
            let alg0 = inst.alg[0];
            checks.check(
                inst.convex > 0.0 && inst.convex <= alg0 * (1.0 + REL_TOL),
                || {
                    format!(
                        "{}: convex cost {} above δ=0 MtC {alg0}",
                        inst.key, inst.convex
                    )
                },
            );
            // Costs are nonnegative, so prefix optima never decrease.
            checks.check(
                inst.grid[0] >= 0.0 && inst.grid[0] <= inst.grid[1] && inst.grid[1] <= inst.grid[2],
                || format!("{}: grid prefix optima {:?} decrease", inst.key, inst.grid),
            );
        }
    }

    fn values(out: &Self::Out) -> Vec<(String, f64)> {
        let mut v = Vec::new();
        for inst in out {
            for (d, delta) in DELTAS.iter().enumerate() {
                for (o, order) in ORDERS.iter().enumerate() {
                    v.push((
                        format!("{}.alg.d{delta}.{}", inst.key, order_label(*order)),
                        inst.alg[d * ORDERS.len() + o],
                    ));
                }
            }
            v.push((format!("{}.convex", inst.key), inst.convex));
            for (k, g) in inst.grid.iter().enumerate() {
                v.push((format!("{}.grid.m{k}", inst.key), *g));
            }
        }
        v
    }

    fn inputs(&self) -> Vec<(&'static str, String)> {
        let (t, seeds, cells) = sizes(self.shape);
        vec![
            ("scenarios", json_names(SCENARIOS.iter().map(|s| s.0))),
            ("horizon", t.to_string()),
            ("seeds_per_scenario", seeds.to_string()),
            ("instance_sets", SETS.to_string()),
            ("grid_cells", cells.to_string()),
            ("grid_marks", json_list(marks(t))),
            (
                "requests_per_set",
                self.sets[0]
                    .iter()
                    .map(|p| p.inst.total_requests())
                    .sum::<usize>()
                    .to_string(),
            ),
            ("deltas", json_list(DELTAS)),
            ("orders", json_names(ORDERS.iter().map(|&o| order_label(o)))),
        ]
    }
}
