//! Exact offline optimum on the line.
//!
//! Dynamic program over convex piecewise-linear cost-to-go functions
//! ([`crate::pwl::ConvexPwl`]):
//!
//! * Move-First: `f_t = move_transform(f_{t−1}) + service_t`
//!   (the server moves knowing the requests, then serves from the new
//!   position);
//! * Answer-First: `f_t = move_transform(f_{t−1} + service_t)`
//!   (serve from the old position, then move).
//!
//! `OPT = min_p f_T(p)`. Both transforms are exact for convex PWL input,
//! so the result is the true optimum up to floating-point rounding — the
//! reference every line experiment measures competitive ratios against.

use crate::pwl::ConvexPwl;
use msp_core::cost::{evaluate_trajectory, ServingOrder};
use msp_core::model::Instance;
use msp_geometry::P1;

/// Result of the exact line solver.
#[derive(Clone, Debug)]
pub struct LineSolution {
    /// The optimal total cost `C_Opt`.
    pub cost: f64,
    /// An optimal final position (any minimizer of `f_T`).
    pub final_position: f64,
}

/// Computes the exact offline optimum value for a 1-D instance.
///
/// Each step costs `O(k_t)`, where `k_t` is the breakpoint count of the
/// cost-to-go at step `t`, and allocates nothing once its buffers have
/// grown. Collinear pruning does not keep `k_t` small: the steep tails
/// near the reachable domain's ends gain a breakpoint per step, so
/// `k_t ≈ 1.4·t` on a random walk and `≈ t` on the Theorem 1 adversary,
/// and a solve costs `Θ(T²)`. ROADMAP item 3 (the "slope trick") removes
/// that growth.
pub fn solve_line(instance: &Instance<1>, order: ServingOrder) -> LineSolution {
    let mut dp =
        IncrementalLineOpt::unchecked(instance.d, instance.max_move, instance.start.x(), order);
    for step in &instance.steps {
        dp.push(step.requests.iter().map(|v| v.x()));
    }
    let (cost, arg_lo, arg_hi) = dp.f.min();
    LineSolution {
        cost,
        final_position: (arg_lo + arg_hi) / 2.0,
    }
}

/// Computes the exact optimum **and** recovers an optimal trajectory by a
/// backward pass over the stored per-step cost-to-go functions.
///
/// Memory is `O(Σ_t k_t)`; use [`solve_line`] when only the value matters.
/// The returned trajectory has `T + 1` positions starting at `P_0`, is
/// feasible for the movement limit `m`, and its evaluated cost equals the
/// returned optimum (asserted in debug builds).
pub fn solve_line_with_trajectory(
    instance: &Instance<1>,
    order: ServingOrder,
) -> (LineSolution, Vec<P1>) {
    let m = instance.max_move;
    let d = instance.d;

    // Forward pass, keeping every cost-to-go. `pre_move[t]` is the function
    // *before* the move of step t is resolved (what the backward pass needs
    // to price a chosen landing point), `post[t]` after the full step.
    let mut dp = IncrementalLineOpt::unchecked(d, m, instance.start.x(), order);
    let mut post: Vec<ConvexPwl> = Vec::with_capacity(instance.horizon() + 1);
    post.push(dp.f.clone());
    for step in &instance.steps {
        dp.push(step.requests.iter().map(|v| v.x()));
        post.push(dp.f.clone());
    }

    let (cost, arg_lo, arg_hi) = post[instance.horizon()].min();
    let mut positions = vec![P1::new([(arg_lo + arg_hi) / 2.0]); instance.horizon() + 1];

    // Backward pass: given the landing point p_t, choose
    //   p_{t−1} = argmin_{|q − p_t| ≤ m} post[t−1](q) + D·|p_t − q| + serve(q)
    // where serve(q) is the step-t service term charged at q under
    // Answer-First (it is charged at p_t under Move-First and is then a
    // constant w.r.t. q).
    for t in (1..=instance.horizon()).rev() {
        let p = positions[t].x();
        let candidate_fn = match order {
            ServingOrder::MoveFirst => &post[t - 1],
            ServingOrder::AnswerFirst => {
                dp.sort_requests(instance.steps[t - 1].requests.iter().map(|v| v.x()));
                post[t - 1].add_service_into(&dp.reqs, &mut dp.spare);
                &dp.spare
            }
        };
        // Minimize candidate_fn(q) + D·|p − q| over the reachable window.
        let (lo, hi) = (p - m, p + m);
        let q = argmin_with_move(candidate_fn, p, d, lo, hi);
        positions[t - 1] = P1::new([q]);
    }
    positions[0] = instance.start;

    #[cfg(debug_assertions)]
    {
        let priced = evaluate_trajectory(instance, &positions, order);
        debug_assert!(
            (priced.total() - cost).abs() <= 1e-6 * (1.0 + cost.abs()),
            "recovered trajectory cost {} != optimum {}",
            priced.total(),
            cost
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = evaluate_trajectory::<1>; // keep the import used in release builds

    (
        LineSolution {
            cost,
            final_position: positions[instance.horizon()].x(),
        },
        positions,
    )
}

/// Incremental exact optimum on the line: feed steps as they arrive and
/// query the optimum-so-far at any time.
///
/// The PWL dynamic program is naturally online — each step is one
/// transform of the rolling cost-to-go — so tracking "what would the
/// offline optimum have paid up to now" costs the same as solving once at
/// the end. This powers regret-over-time diagnostics: an online
/// algorithm's cumulative cost divided by
/// [`IncrementalLineOpt::current_opt`] is its competitive ratio *so far*.
#[derive(Clone, Debug)]
pub struct IncrementalLineOpt {
    d: f64,
    m: f64,
    order: ServingOrder,
    /// The cost-to-go of the processed prefix.
    f: ConvexPwl,
    /// The buffer each operation writes into before it is swapped with
    /// `f`, so a step allocates nothing once both have grown.
    spare: ConvexPwl,
    /// The current step's requests, sorted by [`f64::total_cmp`].
    reqs: Vec<f64>,
    steps: usize,
}

impl IncrementalLineOpt {
    /// Starts tracking from position `start` under the given model
    /// parameters and serving order.
    pub fn new(d: f64, m: f64, start: f64, order: ServingOrder) -> Self {
        assert!(d >= 1.0, "D must be ≥ 1");
        assert!(m > 0.0, "m must be positive");
        Self::unchecked(d, m, start, order)
    }

    /// [`IncrementalLineOpt::new`] for parameters an [`Instance`] has
    /// already validated.
    fn unchecked(d: f64, m: f64, start: f64, order: ServingOrder) -> Self {
        IncrementalLineOpt {
            d,
            m,
            order,
            f: ConvexPwl::point(start),
            spare: ConvexPwl::point(start),
            reqs: Vec::new(),
            steps: 0,
        }
    }

    /// Processes the next step's requests (positions on the line).
    pub fn push_step(&mut self, requests: &[f64]) {
        self.push(requests.iter().copied());
    }

    /// One DP step: `f ← move(f) + service` (Move-First) or
    /// `f ← move(f + service)` (Answer-First), each operation writing into
    /// `spare` and swapping it in. An empty batch adds nothing.
    fn push(&mut self, requests: impl Iterator<Item = f64>) {
        self.sort_requests(requests);
        match self.order {
            ServingOrder::MoveFirst => {
                self.apply_move();
                self.apply_service();
            }
            ServingOrder::AnswerFirst => {
                self.apply_service();
                self.apply_move();
            }
        }
        self.steps += 1;
    }

    fn sort_requests(&mut self, requests: impl Iterator<Item = f64>) {
        self.reqs.clear();
        self.reqs.extend(requests);
        self.reqs.sort_unstable_by(f64::total_cmp);
    }

    fn apply_move(&mut self) {
        self.f.move_transform_into(self.d, self.m, &mut self.spare);
        std::mem::swap(&mut self.f, &mut self.spare);
    }

    fn apply_service(&mut self) {
        if !self.reqs.is_empty() {
            self.f.add_service_into(&self.reqs, &mut self.spare);
            std::mem::swap(&mut self.f, &mut self.spare);
        }
    }

    /// The exact offline optimum of the prefix processed so far.
    pub fn current_opt(&self) -> f64 {
        self.f.min().0
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Cheapest cost of the processed prefix *conditioned on ending at
    /// position `p`* (`∞` when `p` is unreachable within the movement
    /// budget). Useful for "what would OPT pay to be where my server is".
    pub fn opt_ending_at(&self, p: f64) -> f64 {
        self.f.eval(p)
    }
}

/// Minimizes `g(q) + D·|p − q|` over `q ∈ [lo, hi] ∩ dom(g)` for convex
/// PWL `g`. The objective is convex PWL in `q` with breakpoints at `g`'s
/// breakpoints and at `p`; ternary search over the candidate breakpoints
/// would work, but direct evaluation of all candidates inside the window is
/// simplest and exact.
fn argmin_with_move(g: &ConvexPwl, p: f64, d: f64, lo: f64, hi: f64) -> f64 {
    let (dlo, dhi) = g.domain();
    let lo = lo.max(dlo);
    let hi = hi.min(dhi);
    debug_assert!(lo <= hi + 1e-9, "empty feasible window");
    let hi = hi.max(lo);

    let obj = |q: f64| g.eval(q) + d * (p - q).abs();
    // Candidates: window ends, p (the move kink), and g's breakpoints in
    // the window. g.min_on gives the minimizer of g alone, also a
    // candidate. Convexity makes the best candidate globally optimal
    // because the objective is PWL with kinks only at these points.
    let mut best_q = lo;
    let mut best_v = obj(lo);
    let mut consider = |q: f64| {
        if q >= lo && q <= hi {
            let v = obj(q);
            if v < best_v {
                best_v = v;
                best_q = q;
            }
        }
    };
    consider(hi);
    consider(p);
    let (_, qg) = g.min_on(lo, hi);
    consider(qg);
    for &x in g.breakpoints() {
        consider(x);
    }
    best_q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pwl::oracle;
    use msp_core::cost::first_move_violation;
    use msp_core::model::{Instance, Step};
    use msp_scenarios::{materialize, must_lookup, ScenarioKnobs};

    fn inst(d: f64, m: f64, reqs: &[&[f64]]) -> Instance<1> {
        let steps = reqs
            .iter()
            .map(|r| Step::new(r.iter().map(|x| P1::new([*x])).collect()))
            .collect();
        Instance::new(d, m, P1::origin(), steps)
    }

    #[test]
    fn stationary_requests_on_start_cost_zero() {
        let i = inst(2.0, 1.0, &[&[0.0], &[0.0], &[0.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!(s.cost.abs() < 1e-12);
    }

    #[test]
    fn single_far_request_move_first() {
        // One request at distance 3, m = 1: OPT moves 1 (cost D·1) and
        // serves from distance 2 — or stays. D = 1: move 1 → 1 + 2 = 3;
        // stay → 3. Both 3.
        let i = inst(1.0, 1.0, &[&[3.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn answer_first_cannot_use_move_for_first_request() {
        // Same instance, Answer-First: serving happens before moving, so
        // the request is served from 0 at cost 3; moving afterwards only
        // adds cost. OPT = 3.
        let i = inst(1.0, 1.0, &[&[3.0]]);
        let s = solve_line(&i, ServingOrder::AnswerFirst);
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chasing_stream_pays_movement() {
        // Requests at 1, 2, 3 with m = 1, D = 1 (Move-First): the server
        // can sit on every request: cost = D·1 per step = 3.
        let i = inst(1.0, 1.0, &[&[1.0], &[2.0], &[3.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_d_prefers_staying() {
        // D = 100, single request at 1, m = 1: moving the full distance
        // costs 100, staying costs 1. OPT stays.
        let i = inst(100.0, 1.0, &[&[1.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_requests_amortize_the_move() {
        // 50 steps of a request at 1, D = 10, m = 1: OPT moves to 1 in the
        // first step (cost 10) and serves everything at 0. Staying costs 50.
        let reqs: Vec<&[f64]> = (0..50).map(|_| &[1.0][..]).collect();
        let i = inst(10.0, 1.0, &reqs);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 10.0).abs() < 1e-9, "got {}", s.cost);
    }

    #[test]
    fn movement_limit_binds() {
        // Request at 10 for 2 steps, m = 1, D = 1 (Move-First):
        // move 1 each step: serve at 9 then 8, movement 2 → total 19.
        // Alternatives are worse (staying: 20).
        let i = inst(1.0, 1.0, &[&[10.0], &[10.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 19.0).abs() < 1e-9, "got {}", s.cost);
    }

    #[test]
    fn multi_request_steps_use_median() {
        // Requests {−1, 0, 1} each step for 3 steps: OPT stays at 0, cost
        // 2 per step.
        let i = inst(1.0, 1.0, &[&[-1.0, 0.0, 1.0][..]; 3]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 6.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_is_feasible_and_prices_to_optimum() {
        let reqs: Vec<Vec<f64>> = (0..30)
            .map(|t| vec![(t as f64 * 0.7).sin() * 4.0, (t as f64 * 0.3).cos() * 2.0])
            .collect();
        let slices: Vec<&[f64]> = reqs.iter().map(|r| r.as_slice()).collect();
        let i = inst(3.0, 0.5, &slices);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let (sol, traj) = solve_line_with_trajectory(&i, order);
            assert_eq!(traj.len(), 31);
            assert_eq!(first_move_violation(&traj, i.max_move, 1e-9), None);
            let priced = evaluate_trajectory(&i, &traj, order);
            assert!(
                (priced.total() - sol.cost).abs() < 1e-6,
                "{order:?}: trajectory {} vs optimum {}",
                priced.total(),
                sol.cost
            );
        }
    }

    #[test]
    fn answer_first_is_never_cheaper_than_move_first() {
        // Any Answer-First trajectory is priced ≥ the Move-First optimum of
        // the same instance can be violated in general; but for OPT the
        // Answer-First optimum is ≥ Move-First optimum minus nothing…
        // Actually: for every trajectory, AF cost differs from MF cost only
        // in the serving endpoint. OPT_AF ≥ OPT_MF does NOT hold pointwise,
        // but empirically on forward-moving workloads it does; we assert
        // the weaker, always-true property OPT_AF ≥ 0 and cross-check one
        // concrete instance where the gap is known.
        let i = inst(1.0, 1.0, &[&[2.0], &[2.0]]);
        let mf = solve_line(&i, ServingOrder::MoveFirst).cost;
        let af = solve_line(&i, ServingOrder::AnswerFirst).cost;
        // MF: move 1, serve 1; move 1, serve 0 → 3. AF: serve 2, move 1;
        // serve 1, move 0 → 4 (or serve 2 stay, serve 2 → 4).
        assert!((mf - 3.0).abs() < 1e-9);
        assert!((af - 4.0).abs() < 1e-9);
    }

    #[test]
    fn silent_steps_are_free_for_opt() {
        let i = inst(2.0, 1.0, &[&[], &[], &[]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!(s.cost.abs() < 1e-12);
    }

    #[test]
    fn incremental_tracker_matches_batch_solver() {
        let reqs: Vec<Vec<f64>> = (0..40)
            .map(|t| vec![(t as f64 * 0.6).sin() * 3.0])
            .collect();
        let slices: Vec<&[f64]> = reqs.iter().map(|r| r.as_slice()).collect();
        let full = inst(2.0, 1.0, &slices);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let mut inc = IncrementalLineOpt::new(2.0, 1.0, 0.0, order);
            for (t, r) in reqs.iter().enumerate() {
                inc.push_step(r);
                let batch = solve_line(&full.prefix(t + 1), order).cost;
                assert!(
                    (inc.current_opt() - batch).abs() < 1e-9 * (1.0 + batch),
                    "{order:?} t={t}: incremental {} vs batch {batch}",
                    inc.current_opt()
                );
            }
            assert_eq!(inc.steps(), 40);
        }
    }

    #[test]
    fn incremental_conditional_opt_bounds_unconditional() {
        let mut inc = IncrementalLineOpt::new(1.0, 1.0, 0.0, ServingOrder::MoveFirst);
        inc.push_step(&[2.0]);
        inc.push_step(&[2.0]);
        // Ending anywhere costs at least the unconditional optimum.
        for p in [-1.0, 0.0, 1.0, 2.0] {
            assert!(inc.opt_ending_at(p) >= inc.current_opt() - 1e-12);
        }
        // Unreachable endpoint is infeasible.
        assert!(inc.opt_ending_at(50.0).is_infinite());
    }

    #[test]
    fn final_position_is_a_minimizer() {
        let i = inst(1.0, 1.0, &[&[5.0][..]; 10]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        // After 10 steps the server can reach 5; the optimum parks there.
        assert!((s.final_position - 5.0).abs() < 1e-9);
    }

    /// One step of `solve_line` as it was: the oracle operations, one
    /// fresh function per operation.
    fn oracle_step(f: &ConvexPwl, i: &Instance<1>, t: usize, order: ServingOrder) -> ConvexPwl {
        let reqs: Vec<f64> = i.steps[t].requests.iter().map(|v| v.x()).collect();
        match order {
            ServingOrder::MoveFirst => {
                oracle::add_service(&oracle::move_transform(f, i.d, i.max_move), &reqs)
            }
            ServingOrder::AnswerFirst => {
                oracle::move_transform(&oracle::add_service(f, &reqs), i.d, i.max_move)
            }
        }
    }

    /// The final cost-to-go of the oracle fold.
    fn oracle_fold(i: &Instance<1>, order: ServingOrder) -> ConvexPwl {
        (0..i.horizon()).fold(ConvexPwl::point(i.start.x()), |f, t| {
            oracle_step(&f, i, t, order)
        })
    }

    const LINE_FAMILIES: [&str; 4] = ["walk-line", "adv-thm1", "adv-thm2", "regime-shift-line"];
    const ORDERS: [ServingOrder; 2] = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

    fn family(name: &str, seed: u64, horizon: usize) -> Instance<1> {
        materialize::<1>(&must_lookup(name), seed, &ScenarioKnobs::horizon(horizon)).unwrap()
    }

    #[test]
    fn solve_line_is_bit_equal_to_the_oracle_fold() {
        for name in LINE_FAMILIES {
            for (seed, horizon) in [(1, 1000), (2, 300), (3, 64)] {
                let i = family(name, seed, horizon);
                for order in ORDERS {
                    let want = oracle_fold(&i, order).min();
                    let got = solve_line(&i, order);
                    let tag = format!("{name} seed {seed} T={horizon} {order:?}");
                    assert_eq!(got.cost.to_bits(), want.0.to_bits(), "{tag}: cost");
                    let mid = (want.1 + want.2) / 2.0;
                    assert_eq!(got.final_position.to_bits(), mid.to_bits(), "{tag}");
                }
            }
        }
    }

    #[test]
    fn trajectory_is_bit_equal_to_the_parent_solver() {
        for name in LINE_FAMILIES {
            let i = family(name, 4, 120);
            for order in ORDERS {
                // Every step of the rolling DP matches the oracle fold.
                let mut want = ConvexPwl::point(i.start.x());
                let mut dp = IncrementalLineOpt::new(i.d, i.max_move, i.start.x(), order);
                for t in 0..i.horizon() {
                    want = oracle_step(&want, &i, t, order);
                    dp.push(i.steps[t].requests.iter().map(|v| v.x()));
                    assert_eq!(dp.f.bits(), want.bits(), "{name} {order:?} t={t}");
                }
                // The trajectory solver stores those same functions, so
                // its optimum and final position are the batch solver's.
                let (sol, traj) = solve_line_with_trajectory(&i, order);
                let batch = solve_line(&i, order);
                assert_eq!(sol.cost.to_bits(), batch.cost.to_bits(), "{name} {order:?}");
                assert_eq!(traj.len(), i.horizon() + 1);
            }
        }
    }

    #[test]
    fn incremental_opt_is_bit_equal_to_solve_line_on_every_prefix() {
        for name in LINE_FAMILIES {
            let i = family(name, 5, 150);
            for order in ORDERS {
                let mut inc = IncrementalLineOpt::new(i.d, i.max_move, i.start.x(), order);
                for t in 0..i.horizon() {
                    let reqs: Vec<f64> = i.steps[t].requests.iter().map(|v| v.x()).collect();
                    inc.push_step(&reqs);
                    let batch = solve_line(&i.prefix(t + 1), order).cost;
                    assert_eq!(
                        inc.current_opt().to_bits(),
                        batch.to_bits(),
                        "{name} {order:?} t={t}"
                    );
                }
            }
        }
    }
}
