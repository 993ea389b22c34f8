//! Parity tests for the fast paths: every optimization must return the
//! same answers as the slow path it replaced.
//!
//! * warm-started [`MedianSolver`] vs the cold free function vs the seed's
//!   classic solver,
//! * closed-form and anchor-certified medians vs the classic solver, with
//!   the subgradient residual as the arbiter where the classic iteration
//!   itself stops short,
//! * `run_batch` vs repeated `run` calls,
//! * the grid DP's transition kernels vs the all-pairs scan: windowed is
//!   exactly equal (the pruned window provably enumerates the same
//!   transition set); the distance transform is never below and within
//!   tie-breaking tolerance (the full kernel matrix lives in
//!   `tests/transition_kernels.rs`),
//! * (PR 3) the chunked SoA distance kernels vs their scalar oracles —
//!   proptests with explicit f64 tolerance bounds, bit-equality where the
//!   kernel promises it,
//! * (PR 3) the lane-parallel / cross-lane-seeded batch engines vs the
//!   sequential path: bit-equal under `BatchOptions::strict`, within
//!   solver tolerance under the seeded default, and streaming-vs-batch
//!   bit-equal across the stream-block boundary.

use mobile_server::core::cost::{service_cost, service_cost_naive, ServingOrder};
use mobile_server::core::simulator::{
    run, run_batch, run_batch_with, run_streaming_batch_with, BatchOptions,
};
use mobile_server::geometry::median::{
    collinear, median_optimality_gap, sum_of_distances, weighted_center, weighted_center_classic,
    weighted_center_weighted, weighted_sum_of_distances, MedianOptions, MedianSolver,
};
use mobile_server::geometry::sample::SeededSampler;
use mobile_server::geometry::soa::{
    self, nearest_index_points, sum_distances_points, sum_distances_points_scalar,
    weighted_sum_distances_points, weighted_sum_distances_points_scalar, SoaPoints,
};
use mobile_server::offline::{grid_optimum, grid_optimum_unpruned, GridDp, TransitionKernel};
use mobile_server::prelude::*;
use proptest::prelude::*;

/// Drifting random clusters: the workload shape the warm start targets.
fn drifting_sets(seed: u64, n: usize, steps: usize) -> Vec<Vec<P2>> {
    let mut s = SeededSampler::new(seed);
    let offsets: Vec<P2> = (0..n).map(|_| s.point_in_cube(3.0)).collect();
    (0..steps)
        .map(|t| {
            let c = P2::xy(0.04 * t as f64, -0.03 * t as f64);
            offsets
                .iter()
                .map(|o| c + *o + s.point_in_cube(0.1))
                .collect()
        })
        .collect()
}

#[test]
fn warm_median_matches_cold_and_classic_within_1e9() {
    // Five or more points: sets of three or four have a closed form and
    // never reach the warm iterative path (checked below).
    for seed in 0..4u64 {
        let sets = drifting_sets(seed, 5 + seed as usize * 7, 120);
        let reference = P2::xy(0.5, -0.5);
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        for (t, pts) in sets.iter().enumerate() {
            let warm = solver.center(pts, &reference);
            let cold = weighted_center(pts, &reference, MedianOptions::default());
            let classic = weighted_center_classic(
                pts,
                &vec![1.0; pts.len()],
                &reference,
                MedianOptions::default(),
            );
            assert!(
                warm.distance(&cold) < 1e-9,
                "seed {seed} step {t}: warm {warm:?} vs cold {cold:?}"
            );
            assert!(
                warm.distance(&classic) < 1e-9,
                "seed {seed} step {t}: warm {warm:?} vs classic {classic:?}"
            );
            assert!(
                median_optimality_gap(pts, &warm) < 1e-6,
                "seed {seed} step {t}: warm center not optimal"
            );
        }
        // The warm start must actually engage on this workload.
        assert!(solver.telemetry.warm_starts > 0);
    }
    // Three and four points: every solve is exact — no iterations, no
    // warm start — and still matches both oracles.
    for n in [3, 4] {
        let sets = drifting_sets(n as u64, n, 120);
        let reference = P2::xy(0.5, -0.5);
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        for (t, pts) in sets.iter().enumerate() {
            let warm = solver.center(pts, &reference);
            assert_eq!(solver.telemetry.last_iterations, 0, "n {n} step {t}");
            let cold = weighted_center(pts, &reference, MedianOptions::default());
            let classic =
                weighted_center_classic(pts, &vec![1.0; n], &reference, MedianOptions::default());
            assert_eq!(warm, cold, "n {n} step {t}: the closed form is start-free");
            assert!(
                warm.distance(&classic) < 1e-9,
                "n {n} step {t}: exact {warm:?} vs classic {classic:?}"
            );
        }
        assert_eq!(solver.telemetry.warm_starts, 0, "n {n}");
        assert_eq!(solver.telemetry.iterations, 0, "n {n}");
        assert_eq!(solver.telemetry.exact, 120, "n {n}");
    }
}

/// Weighted subgradient residual `‖Σ_{x_i ≠ c} w_i·(c − x_i)/d_i‖ − W_c`,
/// computed here so the tests certify centers without trusting the solver.
fn weighted_gap<const N: usize>(pts: &[Point<N>], w: &[f64], c: &Point<N>) -> f64 {
    let mut pull = Point::<N>::origin();
    let mut own = 0.0;
    for (p, wi) in pts.iter().zip(w) {
        let d = p.distance(c);
        if d <= 1e-12 {
            own += wi;
        } else {
            pull += (*c - *p) * (wi / d);
        }
    }
    pull.norm() - own
}

/// One solve on a fresh solver, checked against the cold free function
/// (bit-equal: the closed form ignores the start) and the classic oracle.
/// Returns the center and whether the closed form took the solve (one
/// exact solve, no Weiszfeld iteration).
///
/// A closed-form center must lie within 1e-9 of the oracle's, an
/// iterative one within the hybrid path's 1e-7
/// (`hybrid_median_matches_classic_oracle`), unless the oracle is the one
/// that is off. On thin configurations the objective is flat enough that
/// the classic iteration stops ~1e-9 short; and when it stalls beside an
/// anchor that is not optimal, its exhaustive snap returns that anchor
/// (seen 3e-3 from the optimum on a weighted 4-point set, on the parent
/// solver too). Then the center must match the oracle's objective to
/// float resolution, and its subgradient residual must not exceed the
/// oracle's or the residual's own float resolution.
fn exact_parity<const N: usize>(pts: &[Point<N>], w: &[f64]) -> (Point<N>, bool) {
    let opts = MedianOptions::default();
    let reference = Point::origin();
    let mut solver = MedianSolver::<N>::new(opts);
    let mut c = Point::origin();
    solver.weighted_center_into(pts, w, &reference, &mut c);
    let classic = weighted_center_classic(pts, w, &reference, opts);
    let t = solver.telemetry;
    let exact = t.exact == 1 && t.last_iterations == 0;
    if exact {
        assert_eq!(c, weighted_center_weighted(pts, w, &reference, opts));
    }
    let tol = if exact { 1e-9 } else { 1e-7 };
    if c.distance(&classic) >= tol {
        let context = format!("{pts:?} w {w:?}: {c:?} vs classic {classic:?}");
        let f = |y: &Point<N>| weighted_sum_of_distances(pts, w, y);
        assert!(
            f(&c) <= f(&classic) * (1.0 + 4.0 * f64::EPSILON),
            "{context}"
        );
        let resolution = 1e-12 * w.iter().sum::<f64>();
        let gap = weighted_gap(pts, w, &c);
        assert!(
            gap <= weighted_gap(pts, w, &classic).max(resolution),
            "{context}"
        );
    }
    (c, exact)
}

/// `k` points around `anchor` at evenly spaced angles jittered by at most
/// `0.5/k` radians, so their unit pulls on the anchor sum to at most 0.5:
/// the anchor is the median.
fn balanced_star(s: &mut SeededSampler, anchor: P2, k: usize) -> Vec<P2> {
    let mut pts = vec![anchor];
    for i in 0..k {
        let angle = std::f64::consts::TAU * i as f64 / k as f64 + s.uniform(-0.5, 0.5) / k as f64;
        let r = s.uniform(0.5, 5.0);
        pts.push(anchor + P2::xy(angle.cos(), angle.sin()) * r);
    }
    pts
}

/// A planar workload with varying request counts for the batch parity run.
fn batch_instance(seed: u64, horizon: usize) -> Instance<2> {
    let mut s = SeededSampler::new(seed);
    let steps = (0..horizon)
        .map(|t| {
            let r = s.int_inclusive(0, 4);
            let c = P2::xy((t as f64 * 0.1).sin() * 5.0, 0.05 * t as f64);
            Step::new((0..r).map(|_| c + s.point_in_cube(1.5)).collect())
        })
        .collect();
    Instance::new(3.0, 0.8, P2::origin(), steps)
}

#[test]
fn run_batch_matches_repeated_runs_for_all_algorithms() {
    let inst = batch_instance(9, 80);
    let deltas = [0.0, 0.15, 0.6];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

    // MtC (warm-started) and the coin-flip baseline (internally seeded RNG,
    // reseeded at reset) both have state that run_batch must reset per lane.
    let batch_mtc = run_batch(&inst, &MoveToCenter::new(), &deltas, &orders);
    let batch_coin = run_batch(&inst, &RandomizedCoinFlip::<2>::new(7), &deltas, &orders);

    let mut i = 0;
    for &delta in &deltas {
        for &order in &orders {
            let mut mtc = MoveToCenter::new();
            let single = run(&inst, &mut mtc, delta, order);
            let b = &batch_mtc[i];
            assert_eq!(b.algorithm, single.algorithm);
            for (p, q) in b.positions.iter().zip(&single.positions) {
                assert!(p.distance(q) < 1e-9, "mtc δ={delta} {order:?}");
            }
            assert!(
                (b.total_cost() - single.total_cost()).abs() < 1e-9 * (1.0 + single.total_cost()),
                "mtc δ={delta} {order:?}"
            );

            let mut coin = RandomizedCoinFlip::<2>::new(7);
            let single = run(&inst, &mut coin, delta, order);
            let b = &batch_coin[i];
            // The coin-flip stream is reset-deterministic, so batch lanes
            // must reproduce the sequential trajectories exactly.
            assert_eq!(b.positions, single.positions, "coin δ={delta} {order:?}");
            assert_eq!(b.total_cost(), single.total_cost());
            i += 1;
        }
    }
}

#[test]
fn grid_dp_kernels_agree_with_all_pairs_on_random_instances() {
    for seed in 0..3u64 {
        let mut s = SeededSampler::new(100 + seed);
        let steps: Vec<Step<2>> = (0..5)
            .map(|_| {
                let r = s.int_inclusive(1, 3);
                Step::new((0..r).map(|_| s.point_in_cube(1.2)).collect())
            })
            .collect();
        let inst = Instance::new(1.0 + seed as f64, 0.5, P2::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            for cells in [11, 19, 27] {
                let mut dp = GridDp::new(&inst, cells);
                let full = dp.solve_with(&inst, order, TransitionKernel::AllPairs);
                let pruned = dp.solve_with(&inst, order, TransitionKernel::Windowed);
                let dt = dp.solve_with(&inst, order, TransitionKernel::DistanceTransform);
                assert_eq!(
                    pruned, full,
                    "seed {seed} {order:?} cells={cells}: {pruned} vs {full}"
                );
                // The DT kernel admits only oracle-feasible candidates at
                // oracle-identical values: never below, and off only by
                // envelope tie-breaking.
                assert!(dt >= full, "seed {seed} {order:?} cells={cells}");
                assert!(
                    (dt - full).abs() <= 1e-9 * (1.0 + full.abs()),
                    "seed {seed} {order:?} cells={cells}: dt {dt} vs {full}"
                );
                // grid_optimum is the DT kernel: same numbers, one shot.
                assert_eq!(dt, grid_optimum(&inst, cells, order));
            }
        }
    }
}

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<P2>> {
    prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| P2::xy(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_center_matches_classic_on_small_planar_sets(
        pts in arb_cloud(5), w in prop::collection::vec(0.25f64..4.0, 4)
    ) {
        let n = pts.len();
        let (_, exact) = exact_parity(&pts, &vec![1.0; n]);
        // Non-collinear equal-weight sets of three and four planar points
        // always have a closed form.
        prop_assert!(exact || n < 3 || collinear(&pts, 1e-12).is_some());
        exact_parity(&pts, &w[..n]);
    }

    #[test]
    fn fermat_point_matches_classic_in_three_dimensions(seed in any::<u64>()) {
        let mut s = SeededSampler::new(seed);
        let pts: Vec<P3> = (0..3).map(|_| s.point_in_cube(10.0)).collect();
        let (_, exact) = exact_parity(&pts, &[1.0; 3]);
        prop_assert!(exact);
    }

    #[test]
    fn apex_angles_near_120_degrees_match_classic(
        seed in any::<u64>(), decade in 1usize..13, above in any::<bool>()
    ) {
        // Apex at `a`, legs of random length at 120° ± 10^-decade: the
        // optimum moves off the apex exactly as the angle drops below 120°.
        let mut s = SeededSampler::new(seed);
        let a = s.point_in_cube::<2>(10.0);
        let base = s.uniform(0.0, std::f64::consts::TAU);
        let dev = if above { 1.0 } else { -1.0 } * 10f64.powi(-(decade as i32));
        let apex = 2.0 * std::f64::consts::FRAC_PI_3 + dev;
        let pts = [
            a,
            a + P2::xy(base.cos(), base.sin()) * s.uniform(0.5, 5.0),
            a + P2::xy((base + apex).cos(), (base + apex).sin()) * s.uniform(0.5, 5.0),
        ];
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        let c = solver.center(&pts, &P2::origin());
        prop_assert_eq!(solver.telemetry.exact, 1);
        if above {
            prop_assert_eq!(c, a);
        }
        // Near 120° the objective is flat to first order at the apex, so
        // an objective-driven solver resolves the optimum only to about
        // √(ε·f·leg) ≈ 1e-7. The classic oracle stops short there, and
        // below 120° its exhaustive snap returns the apex (measured 1e-5
        // from the Fermat point at 120° − 1e-5). Where it misses by 1e-9
        // or more, the closed form must match its objective to float
        // resolution and, while the residual is still resolvable (angles
        // at least 1e-7 from 120°), have the smaller one.
        let opts = MedianOptions::default();
        let classic = weighted_center_classic(&pts, &[1.0; 3], &P2::origin(), opts);
        if c.distance(&classic) >= 1e-9 {
            let f_classic = sum_of_distances(&pts, &classic);
            prop_assert!(sum_of_distances(&pts, &c) <= f_classic * (1.0 + 4.0 * f64::EPSILON));
            if decade <= 7 {
                let gap = weighted_gap(&pts, &[1.0; 3], &c);
                prop_assert!(gap < weighted_gap(&pts, &[1.0; 3], &classic), "gap {gap}");
            }
        }
    }

    #[test]
    fn degenerate_small_sets_certify_their_anchor(seed in any::<u64>()) {
        let mut s = SeededSampler::new(seed);
        let [p, q, r]: [P2; 3] = std::array::from_fn(|_| s.point_in_cube(10.0));
        // A coincident pair outweighs the pull of the other two points.
        let (c, exact) = exact_parity(&[q, p, r, p], &[1.0; 4]);
        prop_assert!(exact);
        prop_assert_eq!(c, p);
        // A point strictly inside the triangle of the other three.
        let b: [f64; 3] = std::array::from_fn(|_| s.uniform(0.05, 1.0));
        let inner = (p * b[0] + q * b[1] + r * b[2]) / (b[0] + b[1] + b[2]);
        let (c, exact) = exact_parity(&[p, q, inner, r], &[1.0; 4]);
        prop_assert!(exact);
        prop_assert_eq!(c, inner);
        // A near-collinear triple: the middle point sees the others at
        // almost 180°.
        let along = s.uniform(0.2, 0.8);
        let off = 10f64.powi(-(s.int_inclusive(3, 8) as i32));
        let normal = P2::xy(q[1] - p[1], p[0] - q[0]) / p.distance(&q);
        let mid = p + (q - p) * along + normal * off;
        prop_assume!(collinear(&[p, mid, q], 1e-12).is_none());
        let (c, exact) = exact_parity(&[p, mid, q], &[1.0; 3]);
        prop_assert!(exact);
        prop_assert_eq!(c, mid);
    }

    #[test]
    fn convex_quadrilaterals_meet_at_the_diagonal_crossing(seed in any::<u64>()) {
        // Four points on a random ellipse are in convex position.
        let mut s = SeededSampler::new(seed);
        let center = s.point_in_cube::<2>(10.0);
        let (rx, ry, tilt) = (s.uniform(0.5, 5.0), s.uniform(0.5, 5.0), s.uniform(0.0, 3.2));
        let pts: Vec<P2> = (0..4)
            .map(|i| {
                let t = std::f64::consts::FRAC_PI_2 * (i as f64 + s.uniform(-0.3, 0.3));
                let (x, y) = (rx * t.cos(), ry * t.sin());
                center + P2::xy(x * tilt.cos() - y * tilt.sin(), x * tilt.sin() + y * tilt.cos())
            })
            .collect();
        // Any input order: the closed form finds the crossing pairing.
        let order = [[0, 1, 2, 3], [0, 2, 1, 3], [1, 3, 0, 2]][s.int_inclusive(0, 2)];
        let shuffled: Vec<P2> = order.iter().map(|&i| pts[i]).collect();
        let (c, exact) = exact_parity(&shuffled, &[1.0; 4]);
        prop_assert!(exact);
        let diagonals = pts[0].distance(&pts[2]) + pts[1].distance(&pts[3]);
        prop_assert!((sum_of_distances(&pts, &c) - diagonals).abs() <= 1e-12 * diagonals);
    }

    #[test]
    fn anchor_optima_of_five_or_more_points_are_returned_bit_exactly(
        seed in any::<u64>(), k in 4usize..24
    ) {
        let mut s = SeededSampler::new(seed);
        let anchor = s.point_in_cube::<2>(10.0);
        let pts = balanced_star(&mut s, anchor, k);
        let ones = vec![1.0; pts.len()];
        let opts = MedianOptions::default();
        prop_assert_eq!(weighted_center_weighted(&pts, &ones, &P2::origin(), opts), anchor);
        let (c, _) = exact_parity(&pts, &ones);
        prop_assert_eq!(c, anchor);
        // A heavy anchor wins under any weights on the others.
        let mut w: Vec<f64> = (0..pts.len()).map(|_| s.uniform(0.25, 4.0)).collect();
        w[0] = w[1..].iter().sum();
        let scattered: Vec<P2> = (0..pts.len())
            .map(|i| if i == 0 { anchor } else { s.point_in_cube(10.0) })
            .collect();
        let (c, _) = exact_parity(&scattered, &w);
        prop_assert_eq!(c, anchor);
    }

    #[test]
    fn unequal_weight_interior_sets_take_the_iterative_path(
        seed in any::<u64>(), n in 3usize..5
    ) {
        // A jittered regular polygon with weights in [0.8, 1.2]: every
        // anchor's pull exceeds its weight, so no certificate applies and
        // unequal weights rule out the equal-weight closed forms.
        let mut s = SeededSampler::new(seed);
        let center = s.point_in_cube::<2>(10.0);
        let pts: Vec<P2> = (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * (i as f64 + s.uniform(-0.05, 0.05)) / n as f64;
                center + P2::xy(t.cos(), t.sin()) * s.uniform(1.0, 1.2)
            })
            .collect();
        let mut w: Vec<f64> = (0..n).map(|_| s.uniform(0.8, 1.2)).collect();
        w[0] = 1.25;
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        let mut c = P2::origin();
        solver.weighted_center_into(&pts, &w, &P2::origin(), &mut c);
        prop_assert!(solver.telemetry.last_iterations > 0);
        prop_assert_eq!(solver.telemetry.exact, 0);
        exact_parity(&pts, &w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chunked_sum_of_distances_matches_scalar_oracle(
        pts in arb_cloud(200), cx in -20.0f64..20.0, cy in -20.0f64..20.0
    ) {
        let c = P2::xy(cx, cy);
        let fast = sum_distances_points(&pts, &c);
        let slow = sum_distances_points_scalar(&pts, &c);
        // Multi-accumulator kernel: equal up to f64 reassociation error.
        prop_assert!((fast - slow).abs() <= 1e-11 * (1.0 + slow), "{fast} vs {slow}");
        // The naive/chunked service-cost pair is the same contract.
        prop_assert_eq!(service_cost(&c, &pts).to_bits(), fast.to_bits());
        prop_assert!((service_cost_naive(&c, &pts) - slow).abs() == 0.0);
        // The SoA twin promises bit-equality with the AoS kernel.
        let soa_buf = SoaPoints::from_points(&pts);
        prop_assert_eq!(soa_buf.sum_distances(&c).to_bits(), fast.to_bits());
    }

    #[test]
    fn chunked_weighted_sum_is_bit_equal_to_scalar_oracle(
        pts in arb_cloud(120), wseed in any::<u64>()
    ) {
        let mut s = SeededSampler::new(wseed);
        let w: Vec<f64> = (0..pts.len()).map(|_| s.uniform(0.1, 5.0)).collect();
        let c = P2::xy(0.5, -0.25);
        // In-order kernel: bit-identical, not merely close.
        prop_assert_eq!(
            weighted_sum_distances_points(&pts, &w, &c).to_bits(),
            weighted_sum_distances_points_scalar(&pts, &w, &c).to_bits()
        );
    }

    #[test]
    fn chunked_weiszfeld_accumulator_is_bit_equal_to_scalar_oracle(
        cloud in arb_cloud(120), pick in any::<u64>()
    ) {
        let mut pts = cloud;
        // Sometimes place the iterate exactly on an input point so the
        // coincident (Vardi–Zhang) branch is exercised.
        let y = if pick % 2 == 0 {
            pts[pick as usize % pts.len()]
        } else {
            P2::xy(0.1, 0.9)
        };
        pts.push(P2::xy(-3.0, 2.0));
        let w: Vec<f64> = (0..pts.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let fast = soa::weiszfeld_accumulate(&pts, &w, &y, 1e-14);
        let slow = soa::weiszfeld_accumulate_scalar(&pts, &w, &y, 1e-14);
        prop_assert_eq!(fast.denom.to_bits(), slow.denom.to_bits());
        prop_assert_eq!(fast.coincident_weight.to_bits(), slow.coincident_weight.to_bits());
        for i in 0..2 {
            prop_assert_eq!(fast.num.0[i].to_bits(), slow.num.0[i].to_bits());
            prop_assert_eq!(fast.r_vec.0[i].to_bits(), slow.r_vec.0[i].to_bits());
        }
    }

    #[test]
    fn nearest_scan_matches_scalar_argmin(pts in arb_cloud(150)) {
        let c = P2::xy(1.0, 1.0);
        let (idx, dist) = nearest_index_points(&pts, &c).unwrap();
        let best = pts.iter().map(|p| p.distance(&c)).fold(f64::INFINITY, f64::min);
        prop_assert!((dist - best).abs() < 1e-12);
        prop_assert!((pts[idx].distance(&c) - best).abs() < 1e-12);
    }

    #[test]
    fn soa_service_scan_is_bit_equal_to_per_node_loop(
        nodes in arb_cloud(80), reqs in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 0..12)
    ) {
        let reqs: Vec<P2> = reqs.into_iter().map(|(x, y)| P2::xy(x, y)).collect();
        let soa_nodes = SoaPoints::from_points(&nodes);
        let mut out = vec![f64::NAN; nodes.len()];
        soa_nodes.service_costs_into(&reqs, &mut out);
        for (k, node) in nodes.iter().enumerate() {
            let mut expect = 0.0f64;
            for r in &reqs {
                expect += r.distance(node);
            }
            prop_assert_eq!(out[k].to_bits(), expect.to_bits(), "node {}", k);
        }
    }

    #[test]
    fn hybrid_median_matches_classic_oracle(pts in arb_cloud(24), wseed in any::<u64>()) {
        let mut s = SeededSampler::new(wseed);
        let w: Vec<f64> = (0..pts.len()).map(|_| s.uniform(0.2, 4.0)).collect();
        let reference = P2::xy(0.3, 0.7);
        let fast = mobile_server::geometry::median::weighted_center_weighted(
            &pts, &w, &reference, MedianOptions::default(),
        );
        let classic = weighted_center_classic(&pts, &w, &reference, MedianOptions::default());
        prop_assert!(fast.distance(&classic) < 1e-7, "{:?} vs {:?}", fast, classic);
    }
}

/// The strict (unseeded, one-lane-per-group) batch engine must reproduce
/// sequential `run` **bit for bit**: every lane performs exactly the same
/// arithmetic, parallel fan-out only reorders wall-clock execution.
#[test]
fn strict_parallel_run_batch_is_bit_equal_to_sequential_runs() {
    let inst = batch_instance(21, 70);
    let deltas = [0.0, 0.2, 0.5, 0.9];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
    for opts in [BatchOptions::strict(), BatchOptions::sequential()] {
        let batch = run_batch_with(&inst, &MoveToCenter::new(), &deltas, &orders, opts);
        let mut i = 0;
        for &delta in &deltas {
            for &order in &orders {
                let mut alg = MoveToCenter::new();
                let single = run(&inst, &mut alg, delta, order);
                let b = &batch[i];
                assert_eq!(b.positions, single.positions, "δ={delta} {order:?}");
                assert_eq!(
                    b.total_cost().to_bits(),
                    single.total_cost().to_bits(),
                    "δ={delta} {order:?}"
                );
                i += 1;
            }
        }
    }
}

/// The default engine adds cross-lane warm seeding: decisions may differ
/// from sequential runs only within solver tolerance (the hint is a
/// starting iterate, never policy).
#[test]
fn seeded_run_batch_stays_within_solver_tolerance_of_runs() {
    let inst = batch_instance(33, 90);
    let deltas = [0.0, 0.1, 0.3, 0.6, 1.0];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
    let batch = run_batch(&inst, &MoveToCenter::new(), &deltas, &orders);
    let mut i = 0;
    for &delta in &deltas {
        for &order in &orders {
            let mut alg = MoveToCenter::new();
            let single = run(&inst, &mut alg, delta, order);
            let b = &batch[i];
            for (t, (p, q)) in b.positions.iter().zip(&single.positions).enumerate() {
                assert!(
                    p.distance(q) < 1e-8,
                    "δ={delta} {order:?} step {t}: {p:?} vs {q:?}"
                );
            }
            assert!(
                (b.total_cost() - single.total_cost()).abs() < 1e-8 * (1.0 + single.total_cost()),
                "δ={delta} {order:?}"
            );
            i += 1;
        }
    }
}

/// Streaming batch must mirror in-memory batch bit for bit under the same
/// options, including when the horizon crosses the internal stream-block
/// boundary (256 steps) and seeding is active.
#[test]
fn streaming_batch_bit_equals_batch_across_block_boundary() {
    let inst = batch_instance(5, 600);
    let deltas = [0.0, 0.25, 0.75];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
    for opts in [
        BatchOptions::default(),
        BatchOptions::strict(),
        BatchOptions {
            threads: 1,
            lane_chunk: 2,
            cross_lane_seed: true,
        },
    ] {
        let batch = run_batch_with(&inst, &MoveToCenter::new(), &deltas, &orders, opts);
        let streamed = run_streaming_batch_with(
            &inst.params(),
            inst.steps.iter().cloned(),
            &MoveToCenter::new(),
            &deltas,
            &orders,
            opts,
        );
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!(s.delta, b.delta);
            assert_eq!(s.order, b.order);
            assert_eq!(s.movement.to_bits(), b.cost.movement.to_bits());
            assert_eq!(s.service.to_bits(), b.cost.service.to_bits());
            assert_eq!(s.final_position, *b.positions.last().unwrap());
        }
    }
}

/// A fully grouped, seeded batch must agree with isolated strict lanes —
/// the hint pattern (every lane seeded from its left neighbor at the same
/// step) is pure numerics.
#[test]
fn fully_grouped_seeded_batch_matches_strict_lanes() {
    let inst = batch_instance(2, 120);
    let deltas = [0.0, 0.1, 0.2, 0.4, 0.8];
    let orders = [ServingOrder::MoveFirst];
    let seeded = run_batch_with(
        &inst,
        &MoveToCenter::new(),
        &deltas,
        &orders,
        BatchOptions {
            threads: 1,
            lane_chunk: deltas.len(),
            cross_lane_seed: true,
        },
    );
    let strict = run_batch_with(
        &inst,
        &MoveToCenter::new(),
        &deltas,
        &orders,
        BatchOptions::sequential(),
    );
    // Same answers (within tolerance)…
    for (s, b) in seeded.iter().zip(&strict) {
        assert!((s.total_cost() - b.total_cost()).abs() < 1e-8 * (1.0 + b.total_cost()));
    }
}

#[test]
fn grid_dp_reuse_matches_one_shot_solves() {
    let mut s = SeededSampler::new(77);
    let steps: Vec<Step<2>> = (0..4)
        .map(|_| {
            let r = s.int_inclusive(1, 10);
            Step::new((0..r).map(|_| s.point_in_cube(1.0)).collect())
        })
        .collect();
    let inst = Instance::new(1.5, 0.6, P2::origin(), steps);
    let mut dp = GridDp::new(&inst, 15);
    for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
        let pruned = dp.solve(&inst, order);
        let full = dp.solve_unpruned(&inst, order);
        let dt = dp.solve_with(&inst, order, TransitionKernel::DistanceTransform);
        assert_eq!(pruned, full, "{order:?}");
        assert_eq!(full, grid_optimum_unpruned(&inst, 15, order), "{order:?}");
        assert_eq!(dt, grid_optimum(&inst, 15, order), "{order:?}");
    }
}

#[test]
fn pruned_grid_dp_still_upper_bounds_the_exact_line_optimum() {
    use mobile_server::offline::solve_line;
    let mut s = SeededSampler::new(5);
    let steps: Vec<Step<1>> = (0..8)
        .map(|_| Step::single(P1::new([s.uniform(-2.0, 2.0)])))
        .collect();
    let inst = Instance::new(2.0, 0.7, P1::origin(), steps);
    let exact = solve_line(&inst, ServingOrder::MoveFirst).cost;
    let grid = grid_optimum(&inst, 201, ServingOrder::MoveFirst);
    assert!(grid >= exact - 0.1, "grid {grid} undercuts exact {exact}");
    assert!((grid - exact).abs() < 0.15, "grid {grid} vs exact {exact}");
}
