//! Convex piecewise-linear functions on a bounded interval.
//!
//! The exact 1-D offline solver represents its cost-to-go `f_t(p)` — "the
//! cheapest way to have processed steps `1..t` and be parked at `p`" — as a
//! convex piecewise-linear (PWL) function. Two operations drive the DP:
//!
//! 1. **Move transform** ([`ConvexPwl::move_transform`]):
//!    `h(p) = min_{|p−q| ≤ m} f(q) + D·|p−q|`. For convex `f` this has a
//!    closed form: let `a` be the leftmost point where the slope of `f`
//!    reaches `−D` and `b` the rightmost where it is still `≤ D`. Then `h`
//!    equals `f` on `[a, b]`, extends with slope `±D` for `m` on each side,
//!    and beyond that window equals `f` shifted outward by `m` and lifted
//!    by `D·m` (the server pays a full-budget move). The domain widens by
//!    `m` on both ends.
//! 2. **Service addition** ([`ConvexPwl::add_service`]): add
//!    `Σ_i |p − v_i|`, itself convex PWL.
//!
//! Both preserve convexity, so the invariant — secant slopes nondecreasing
//! — is checked in debug builds after every operation.
//!
//! The line DP runs both through their `_into` forms, which write into a
//! caller's buffer: each is one linear pass over the breakpoints (the
//! move transform bisects for `a` and `b`; service addition is a merge
//! walk) followed by an in-place canonicalization, so a DP step allocates
//! nothing once its buffers have grown. The allocating forms wrap them.
//! The test-only `oracle` module keeps a direct form of both operations
//! as the reference the tests require them to match bit for bit.
//!
//! Because the initial function is the indicator of the start position
//! (domain a single point) and every transform widens the domain by `m`,
//! all domains are finite intervals; the function is `+∞` outside.

/// A convex piecewise-linear function on the finite interval
/// `[xs[0], xs[last]]`, linearly interpolating the samples `(xs[i], ys[i])`
/// and `+∞` outside.
#[derive(Clone, Debug)]
pub struct ConvexPwl {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl ConvexPwl {
    /// The indicator of a single point: domain `{x0}`, value 0.
    pub fn point(x0: f64) -> Self {
        ConvexPwl {
            xs: vec![x0],
            ys: vec![0.0],
        }
    }

    /// Builds a function from breakpoint samples.
    ///
    /// # Panics
    /// Panics unless `xs` is strictly increasing, the lengths match, and
    /// the samples are convex (nondecreasing secant slopes, with a small
    /// tolerance).
    pub fn from_samples(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "need at least one sample");
        for w in xs.windows(2) {
            assert!(w[0] < w[1], "xs must be strictly increasing");
        }
        let f = ConvexPwl { xs, ys };
        f.check_convex(); // unconditional: this is a public constructor
        f
    }

    /// An empty buffer for an operation's output: not a valid function
    /// until an operation writes into it.
    fn with_capacity(n: usize) -> Self {
        ConvexPwl {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
    }

    /// Domain `[lo, hi]` of finiteness.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().unwrap())
    }

    /// The breakpoint abscissas (sorted, strictly increasing). Exposed for
    /// the trajectory-recovery backward pass, which enumerates kink
    /// candidates.
    pub fn breakpoints(&self) -> &[f64] {
        &self.xs
    }

    /// Number of stored breakpoints.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// A PWL function always has at least one breakpoint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates the function; `+∞` outside the domain.
    pub fn eval(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo || x > hi {
            return f64::INFINITY;
        }
        match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => self.ys[i],
            Err(i) => {
                // lo < x < hi and x not a breakpoint → 1 ≤ i ≤ len-1.
                let (x0, x1) = (self.xs[i - 1], self.xs[i]);
                let (y0, y1) = (self.ys[i - 1], self.ys[i]);
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            }
        }
    }

    /// Minimum value and the interval of minimizers `[arg_lo, arg_hi]`.
    /// By convexity the minimum is attained on a (possibly degenerate)
    /// sub-interval whose endpoints are breakpoints.
    pub fn min(&self) -> (f64, f64, f64) {
        let mut best = f64::INFINITY;
        for &y in &self.ys {
            if y < best {
                best = y;
            }
        }
        // All breakpoints within tolerance of the minimum form the flat
        // bottom (convexity ⇒ they are contiguous).
        let tol = 1e-12 * (1.0 + best.abs());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (x, y) in self.xs.iter().zip(&self.ys) {
            if *y <= best + tol {
                lo = lo.min(*x);
                hi = hi.max(*x);
            }
        }
        (best, lo, hi)
    }

    /// Minimizes the function over `[lo, hi] ∩ domain`.
    ///
    /// Returns `(value, argmin)`, with the argmin chosen closest to the
    /// unconstrained minimizer interval. Used by the trajectory recovery
    /// backward pass.
    ///
    /// # Panics
    /// Panics when the window misses the domain entirely.
    pub fn min_on(&self, lo: f64, hi: f64) -> (f64, f64) {
        let (dlo, dhi) = self.domain();
        let lo = lo.max(dlo);
        let hi = hi.min(dhi);
        assert!(
            lo <= hi + 1e-12,
            "window [{lo}, {hi}] misses the domain [{dlo}, {dhi}]"
        );
        let hi = hi.max(lo);
        let (_, mlo, mhi) = self.min();
        // Convexity: restrict the minimizer interval to the window by
        // clamping; if disjoint, the best point is the window end nearest
        // the minimizer.
        let x = if mhi < lo {
            lo
        } else if mlo > hi {
            hi
        } else {
            // Overlap: any common point is optimal; pick the clamped center
            // of the overlap for stability.
            (mlo.max(lo) + mhi.min(hi)) / 2.0
        };
        (self.eval(x), x)
    }

    /// The move transform `h(p) = min_{|p−q| ≤ m} f(q) + D·|p−q|` described
    /// in the module docs. `m > 0`, `d ≥ 0`.
    ///
    /// Allocates the result; the line DP calls
    /// `move_transform_into` with a reused buffer instead.
    pub fn move_transform(&self, d: f64, m: f64) -> ConvexPwl {
        let mut out = ConvexPwl::with_capacity(self.len() + 2);
        self.move_transform_into(d, m, &mut out);
        out
    }

    /// [`ConvexPwl::move_transform`] written into `out`, whose previous
    /// contents are discarded and whose allocation is reused.
    pub(crate) fn move_transform_into(&self, d: f64, m: f64, out: &mut ConvexPwl) {
        assert!(m > 0.0, "movement limit must be positive");
        assert!(d >= 0.0, "movement weight must be non-negative");
        let (xs, ys) = (&self.xs[..], &self.ys[..]);
        let n = xs.len();
        let (dlo, dhi) = self.domain();

        // Locate a: the leftmost breakpoint from which the right-slope is
        // ≥ −D, and b: the rightmost up to which the left-slope is ≤ D.
        // Segment i joins breakpoints i and i+1; convexity makes its slope
        // nondecreasing in i, so both searches bisect over the segments.
        let slope = |i: usize| (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]);
        let ia = first_false(0, n - 1, |i| slope(i) < -d);
        // Every slope left of `ia` is < −D ≤ D, so `b` lies at or after `a`.
        let ib = first_false(ia, n - 1, |i| slope(i) <= d);
        let (a, fa) = (xs[ia], ys[ia]);
        let (b, fb) = (xs[ib], ys[ib]);
        let lift = d * m;

        out.clear();
        // Steep left tail (slopes < −D): original breakpoints shifted left
        // by m, lifted by D·m — for p < a − m the constrained optimum is a
        // full-budget move to q = p + m.
        out.xs.extend(xs[..ia].iter().map(|x| x - m));
        out.ys.extend(ys[..ia].iter().map(|y| y + lift));
        // Slope −D connector on [a − m, a] (a − m < a strictly: m > 0).
        out.xs.push(a - m);
        out.ys.push(fa + lift);
        // The untouched middle [a, b] (slopes within [−D, D]): stay put.
        out.xs.extend_from_slice(&xs[ia..=ib]);
        out.ys.extend_from_slice(&ys[ia..=ib]);
        // Slope +D connector on [b, b + m].
        out.xs.push(b + m);
        out.ys.push(fb + lift);
        // Steep right tail shifted right by m.
        out.xs.extend(xs[ib + 1..].iter().map(|x| x + m));
        out.ys.extend(ys[ib + 1..].iter().map(|y| y + lift));

        debug_assert!(out.xs[0] <= dlo - m + 1e-9 && *out.xs.last().unwrap() >= dhi + m - 1e-9);
        out.dedupe();
        out.assert_convex();
    }

    /// Adds the service cost `p ↦ Σ_i |p − v_i|` of a request batch.
    ///
    /// The result's breakpoints are the union of the current breakpoints
    /// and the requests that fall inside the domain (requests outside add
    /// a linear — not kinked — contribution there). Requests must be
    /// finite.
    ///
    /// Allocates the result; the line DP calls
    /// `add_service_into` with reused buffers instead.
    pub fn add_service(&self, requests: &[f64]) -> ConvexPwl {
        let mut sorted = requests.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let mut out = ConvexPwl::with_capacity(self.len() + sorted.len());
        self.add_service_into(&sorted, &mut out);
        out
    }

    /// [`ConvexPwl::add_service`] of a batch already sorted by
    /// [`f64::total_cmp`], written into `out`, whose previous contents are
    /// discarded and whose allocation is reused.
    ///
    /// One merge walk over the breakpoints and the in-domain requests in
    /// `total_cmp` order, dropping an abscissa equal (`==`) to the last
    /// one kept. A breakpoint keeps its value; a request between two
    /// breakpoints takes [`ConvexPwl::eval`]'s interpolation.
    pub(crate) fn add_service_into(&self, sorted: &[f64], out: &mut ConvexPwl) {
        debug_assert!(sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        if sorted.is_empty() {
            out.xs.clone_from(&self.xs);
            out.ys.clone_from(&self.ys);
            return;
        }
        let (xs, ys) = (&self.xs[..], &self.ys[..]);
        let (dlo, dhi) = self.domain();
        let mut service = ServiceSum::new(sorted);
        out.clear();
        out.xs.reserve(xs.len() + sorted.len());
        out.ys.reserve(xs.len() + sorted.len());
        let mut j = 0;
        for v in sorted.iter().filter(|v| **v > dlo && **v < dhi) {
            // Breakpoints up to v in total order; one equal to v goes
            // first, so v is then dropped as a duplicate.
            let end = j + xs[j..].partition_point(|x| x.total_cmp(v).is_le());
            service.extend(out, &xs[j..end], &ys[j..end]);
            j = end;
            if out.xs.last() != Some(v) {
                // dlo < v < dhi and xs[j−1] < v < xs[j] in total order,
                // so 1 ≤ j ≤ len − 1: `eval`'s interpolation branch.
                let (x0, x1) = (xs[j - 1], xs[j]);
                let (y0, y1) = (ys[j - 1], ys[j]);
                let fv = y0 + (y1 - y0) * (v - x0) / (x1 - x0);
                service.extend(out, std::slice::from_ref(v), &[fv]);
            }
        }
        service.extend(out, &xs[j..], &ys[j..]);
        out.dedupe();
        out.assert_convex();
    }

    /// Canonicalizes the representation in place: merges breakpoints with
    /// nearly identical abscissas (whose secant slopes would be numerical
    /// garbage), then removes interior breakpoints collinear with their
    /// neighbours. Keeps the representation small and well-conditioned
    /// across thousands of DP steps.
    fn dedupe(&mut self) {
        let (xs, ys) = (&mut self.xs, &mut self.ys);
        // Pass 1: merge near-duplicate abscissas. Such pairs arise when a
        // request lands within float-epsilon of an existing breakpoint or
        // when transform connectors collide with shifted tail points; the
        // merged point takes the smaller value (the functions are pointwise
        // minima, so this errs by at most slope·1e-9 downward). Points
        // `..w` are kept; `w ≤ i` keeps every unread point intact.
        let n = xs.len();
        let near = |last: f64, x: f64| x - last <= 1e-9 * (1.0 + x.abs().max(last.abs()));
        // Points before the first near-duplicate pair stay where they are.
        if let Some(p) = xs.windows(2).position(|w| near(w[0], w[1])) {
            let mut w = p + 1;
            for i in p + 1..n {
                let (x, y) = (xs[i], ys[i]);
                if near(xs[w - 1], x) {
                    // Keep the right abscissa when merging the final point
                    // so the domain's upper end is preserved.
                    if i == n - 1 {
                        xs[w - 1] = x;
                    }
                    if y < ys[w - 1] {
                        ys[w - 1] = y;
                    }
                } else {
                    xs[w] = x;
                    ys[w] = y;
                    w += 1;
                }
            }
            xs.truncate(w);
            ys.truncate(w);
        }
        // Pass 2: drop interior points whose secant slopes to the last kept
        // point and to the next point agree. When point i−1 was kept, the
        // slope into i is the previous iteration's `s12`, bit for bit, so
        // only a dropped point costs a second division.
        let n = xs.len();
        if n <= 2 {
            return;
        }
        let mut w = 1;
        let mut s01 = (ys[1] - ys[0]) / (xs[1] - xs[0]);
        for i in 1..n - 1 {
            let (x0, y0) = (xs[w - 1], ys[w - 1]);
            let (x1, y1) = (xs[i], ys[i]);
            let (x2, y2) = (xs[i + 1], ys[i + 1]);
            let s12 = (y2 - y1) / (x2 - x1);
            let scale = 1.0 + s01.abs().max(s12.abs());
            if (s12 - s01).abs() > 1e-12 * scale {
                xs[w] = x1;
                ys[w] = y1;
                w += 1;
                s01 = s12;
            } else {
                s01 = (y2 - y0) / (x2 - x0);
            }
        }
        xs[w] = xs[n - 1];
        ys[w] = ys[n - 1];
        xs.truncate(w + 1);
        ys.truncate(w + 1);
    }

    /// Debug-build convexity audit on the hot DP path.
    fn assert_convex(&self) {
        #[cfg(debug_assertions)]
        self.check_convex();
    }

    /// Convexity check: secant slopes must be nondecreasing (with a small
    /// relative tolerance for float drift).
    fn check_convex(&self) {
        let mut prev = f64::NEG_INFINITY;
        for w in self.xs.windows(2).zip(self.ys.windows(2)) {
            let s = (w.1[1] - w.1[0]) / (w.0[1] - w.0[0]);
            let scale = 1.0 + s.abs().max(prev.abs());
            assert!(
                s >= prev - 1e-7 * scale,
                "convexity violated: slope {s} after {prev}"
            );
            prev = s;
        }
    }
}

#[cfg(test)]
impl ConvexPwl {
    /// The bit patterns of every sample, for bit-parity assertions.
    pub(crate) fn bits(&self) -> Vec<(u64, u64)> {
        let xs = self.xs.iter().map(|x| x.to_bits());
        xs.zip(self.ys.iter().map(|y| y.to_bits())).collect()
    }
}

/// The service cost `p ↦ Σ_i |p − v_i|` of a sorted batch, priced along
/// increasing abscissas from a running count and prefix sum of the
/// requests `≤ p`.
struct ServiceSum<'a> {
    sorted: &'a [f64],
    total: f64,
    /// Requests `≤` the last abscissa priced, and their sum.
    k: usize,
    below: f64,
}

impl<'a> ServiceSum<'a> {
    fn new(sorted: &'a [f64]) -> Self {
        ServiceSum {
            sorted,
            total: sorted.iter().fold(0.0, |acc, v| acc + v),
            k: 0,
            below: 0.0,
        }
    }

    /// Appends `(x, y + service(x))` for the increasing abscissas `xs`
    /// (which must not lie below the last one priced), dropping a first
    /// `x` equal to the last abscissa already in `out`.
    fn extend(&mut self, out: &mut ConvexPwl, mut xs: &[f64], mut ys: &[f64]) {
        if !xs.is_empty() && xs.first() == out.xs.last() {
            (xs, ys) = (&xs[1..], &ys[1..]);
        }
        let r = self.sorted.len();
        while let Some(&x0) = xs.first() {
            while self.k < r && self.sorted[self.k] <= x0 {
                self.below += self.sorted[self.k];
                self.k += 1;
            }
            // The run of abscissas below the next request shares the count.
            let run = match self.sorted.get(self.k) {
                Some(v) => xs.partition_point(|x| x < v),
                None => xs.len(),
            };
            let (below, above) = (self.below, self.total - self.below);
            let (k, rest) = (self.k as f64, (r - self.k) as f64);
            out.xs.extend_from_slice(&xs[..run]);
            out.ys.extend(
                xs[..run]
                    .iter()
                    .zip(&ys[..run])
                    .map(|(&x, &y)| y + (x * k - below + (above - x * rest))),
            );
            (xs, ys) = (&xs[run..], &ys[run..]);
        }
    }
}

/// The first index in `lo..hi` at which `pred` is false, for a `pred` that
/// is true on a prefix of the range and false after it; `hi` when it is
/// true throughout.
fn first_false(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Direct forms of the two operations: a fresh function per call, linear
/// scans for `a` and `b`, and for service addition a sort of all merged
/// abscissas with a binary-searched [`ConvexPwl::eval`] per breakpoint.
/// The bit-parity reference of [`ConvexPwl::move_transform_into`] and
/// [`ConvexPwl::add_service_into`].
#[cfg(test)]
pub(crate) mod oracle {
    use super::ConvexPwl;

    /// The move transform `h(p) = min_{|p−q| ≤ m} f(q) + D·|p−q|` described
    /// in the module docs. `m > 0`, `d ≥ 0`.
    pub(crate) fn move_transform(f: &ConvexPwl, d: f64, m: f64) -> ConvexPwl {
        assert!(m > 0.0, "movement limit must be positive");
        assert!(d >= 0.0, "movement weight must be non-negative");
        let n = f.xs.len();
        let (dlo, dhi) = f.domain();

        // Locate a: the leftmost point where the right-slope is ≥ −D, and
        // b: the rightmost point where the left-slope is ≤ D. Slopes of
        // segment i (between breakpoints i and i+1).
        let slope = |i: usize| (f.ys[i + 1] - f.ys[i]) / (f.xs[i + 1] - f.xs[i]);
        // index of first breakpoint from which slopes are ≥ −D
        let mut ia = 0;
        while ia + 1 < n && slope(ia) < -d {
            ia += 1;
        }
        // index of last breakpoint up to which slopes are ≤ D
        let mut ib = n - 1;
        while ib > 0 && slope(ib - 1) > d {
            ib -= 1;
        }
        // Convexity guarantees ia ≤ ib.
        debug_assert!(ia <= ib);
        let a = f.xs[ia];
        let b = f.xs[ib];
        let fa = f.ys[ia];
        let fb = f.ys[ib];

        let mut xs = Vec::with_capacity(n + 4);
        let mut ys = Vec::with_capacity(n + 4);

        // Steep left tail (slopes < −D): original breakpoints shifted left
        // by m, lifted by D·m — for p < a − m the constrained optimum is a
        // full-budget move to q = p + m.
        for i in 0..ia {
            xs.push(f.xs[i] - m);
            ys.push(f.ys[i] + d * m);
        }
        // Slope −D connector on [a − m, a].
        xs.push(a - m);
        ys.push(fa + d * m);
        // The untouched middle [a, b] (slopes within [−D, D]): stay put.
        for i in ia..=ib {
            // Avoid duplicating `a` when it already equals the connector
            // endpoint — cannot happen since m > 0, so a − m < a strictly.
            xs.push(f.xs[i]);
            ys.push(f.ys[i]);
        }
        // Slope +D connector on [b, b + m].
        xs.push(b + m);
        ys.push(fb + d * m);
        // Steep right tail shifted right by m.
        for i in ib + 1..n {
            xs.push(f.xs[i] + m);
            ys.push(f.ys[i] + d * m);
        }

        debug_assert!(xs[0] <= dlo - m + 1e-9 && *xs.last().unwrap() >= dhi + m - 1e-9);
        let mut out = ConvexPwl { xs, ys };
        dedupe(&mut out);
        out.assert_convex();
        out
    }

    /// Adds the service cost `p ↦ Σ_i |p − v_i|` of a request batch.
    ///
    /// The result's breakpoints are the union of the current breakpoints
    /// and the requests that fall inside the domain (requests outside add
    /// a linear — not kinked — contribution there).
    pub(crate) fn add_service(f: &ConvexPwl, requests: &[f64]) -> ConvexPwl {
        if requests.is_empty() {
            return f.clone();
        }
        let mut vs: Vec<f64> = requests.to_vec();
        vs.sort_by(f64::total_cmp);
        // Prefix sums for O(log r) service evaluation.
        let mut prefix = Vec::with_capacity(vs.len() + 1);
        prefix.push(0.0);
        for v in &vs {
            prefix.push(prefix.last().unwrap() + v);
        }
        let total: f64 = *prefix.last().unwrap();
        let service = |p: f64| -> f64 {
            // #requests ≤ p
            let k = vs.partition_point(|v| *v <= p);
            let below = prefix[k];
            let above = total - below;
            p * k as f64 - below + (above - p * (vs.len() - k) as f64)
        };

        let (dlo, dhi) = f.domain();
        // Merged breakpoint set: existing xs plus in-domain requests.
        let mut merged: Vec<f64> = f.xs.clone();
        merged.extend(vs.iter().copied().filter(|v| *v > dlo && *v < dhi));
        merged.sort_by(f64::total_cmp);
        merged.dedup_by(|a, b| *a == *b);

        let ys = merged.iter().map(|&x| f.eval(x) + service(x)).collect();
        let mut out = ConvexPwl { xs: merged, ys };
        dedupe(&mut out);
        out.assert_convex();
        out
    }

    /// Canonicalizes the representation: merges breakpoints with nearly
    /// identical abscissas (whose secant slopes would be numerical
    /// garbage), then removes interior breakpoints collinear with their
    /// neighbours. Keeps the representation small and well-conditioned
    /// across thousands of DP steps.
    pub(crate) fn dedupe(f: &mut ConvexPwl) {
        // Pass 1: merge near-duplicate abscissas. Such pairs arise when a
        // request lands within float-epsilon of an existing breakpoint or
        // when transform connectors collide with shifted tail points; the
        // merged point takes the smaller value (the functions are pointwise
        // minima, so this errs by at most slope·1e-9 downward).
        if f.xs.len() >= 2 {
            let mut xs = Vec::with_capacity(f.xs.len());
            let mut ys = Vec::with_capacity(f.ys.len());
            xs.push(f.xs[0]);
            ys.push(f.ys[0]);
            for i in 1..f.xs.len() {
                let last = *xs.last().unwrap();
                let x = f.xs[i];
                let y = f.ys[i];
                if x - last <= 1e-9 * (1.0 + x.abs().max(last.abs())) {
                    // Keep the right abscissa when merging the final point
                    // so the domain's upper end is preserved.
                    if i == f.xs.len() - 1 {
                        *xs.last_mut().unwrap() = x;
                    }
                    let ly = ys.last_mut().unwrap();
                    if y < *ly {
                        *ly = y;
                    }
                } else {
                    xs.push(x);
                    ys.push(y);
                }
            }
            f.xs = xs;
            f.ys = ys;
        }
        if f.xs.len() <= 2 {
            return;
        }
        let mut keep_xs = Vec::with_capacity(f.xs.len());
        let mut keep_ys = Vec::with_capacity(f.ys.len());
        keep_xs.push(f.xs[0]);
        keep_ys.push(f.ys[0]);
        for i in 1..f.xs.len() - 1 {
            let (x0, y0) = (*keep_xs.last().unwrap(), *keep_ys.last().unwrap());
            let (x1, y1) = (f.xs[i], f.ys[i]);
            let (x2, y2) = (f.xs[i + 1], f.ys[i + 1]);
            let s01 = (y1 - y0) / (x1 - x0);
            let s12 = (y2 - y1) / (x2 - x1);
            let scale = 1.0 + s01.abs().max(s12.abs());
            if (s12 - s01).abs() > 1e-12 * scale {
                keep_xs.push(x1);
                keep_ys.push(y1);
            }
        }
        keep_xs.push(*f.xs.last().unwrap());
        keep_ys.push(*f.ys.last().unwrap());
        f.xs = keep_xs;
        f.ys = keep_ys;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force reference for the move transform.
    fn brute_move(f: &ConvexPwl, d: f64, m: f64, p: f64, grid: usize) -> f64 {
        let (lo, hi) = f.domain();
        let qlo = (p - m).max(lo);
        let qhi = (p + m).min(hi);
        if qlo > qhi {
            return f64::INFINITY;
        }
        let mut best = f64::INFINITY;
        for k in 0..=grid {
            let q = qlo + (qhi - qlo) * k as f64 / grid as f64;
            best = best.min(f.eval(q) + d * (p - q).abs());
        }
        // Also test breakpoints inside the window and q = p (kink of the
        // move term) — together with the window ends these are the exact
        // candidates, so the reference is exact despite the coarse grid.
        for (x, y) in f.xs.iter().zip(&f.ys) {
            if *x >= qlo && *x <= qhi {
                best = best.min(y + d * (p - x).abs());
            }
        }
        if p >= qlo && p <= qhi {
            best = best.min(f.eval(p));
        }
        best
    }

    #[test]
    fn point_indicator_evaluates() {
        let f = ConvexPwl::point(2.0);
        assert_eq!(f.eval(2.0), 0.0);
        assert!(f.eval(2.1).is_infinite());
        assert_eq!(f.min(), (0.0, 2.0, 2.0));
    }

    #[test]
    fn eval_interpolates_linearly() {
        let f = ConvexPwl::from_samples(vec![0.0, 1.0, 2.0], vec![1.0, 0.0, 3.0]);
        assert_eq!(f.eval(0.5), 0.5);
        assert_eq!(f.eval(1.5), 1.5);
        assert!(f.eval(-0.1).is_infinite());
    }

    #[test]
    fn move_transform_of_point_is_vee() {
        // From the indicator of 0: h(p) = D|p| on [−m, m].
        let f = ConvexPwl::point(0.0);
        let h = f.move_transform(3.0, 2.0);
        assert_eq!(h.domain(), (-2.0, 2.0));
        assert!((h.eval(0.0) - 0.0).abs() < 1e-12);
        assert!((h.eval(1.0) - 3.0).abs() < 1e-12);
        assert!((h.eval(-2.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn move_transform_keeps_shallow_middle() {
        // f with slopes ±1, D = 5 ⇒ nothing is steeper than D: h = f
        // extended by slope ±D connectors… wait, slopes within [−D, D]
        // means a = dom_lo, b = dom_hi: connectors extend from the ends.
        let f = ConvexPwl::from_samples(vec![-1.0, 0.0, 1.0], vec![1.0, 0.0, 1.0]);
        let h = f.move_transform(5.0, 1.0);
        assert_eq!(h.domain(), (-2.0, 2.0));
        assert!((h.eval(0.5) - 0.5).abs() < 1e-12); // middle untouched
        assert!((h.eval(2.0) - (1.0 + 5.0)).abs() < 1e-12); // full-budget move
    }

    #[test]
    fn move_transform_clamps_steep_tails() {
        // f = 10·|p| (slopes ∓10), D = 2, m = 1. For p ∈ [0, 1]:
        // h(p) = min_q 10|q| + 2|p−q| = 2p (go to 0 — reachable). For p > 1:
        // q = p − 1: h(p) = 10(p−1) + 2.
        let f = ConvexPwl::from_samples(vec![-3.0, 0.0, 3.0], vec![30.0, 0.0, 30.0]);
        let h = f.move_transform(2.0, 1.0);
        assert!((h.eval(0.5) - 1.0).abs() < 1e-12);
        assert!((h.eval(1.0) - 2.0).abs() < 1e-12);
        assert!((h.eval(2.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn move_transform_matches_brute_force() {
        let f = ConvexPwl::from_samples(
            vec![-2.0, -1.0, 0.5, 1.0, 3.0],
            vec![8.0, 2.0, 0.5, 1.0, 9.0],
        );
        for (d, m) in [(1.0, 0.5), (3.0, 1.0), (0.5, 2.0), (10.0, 0.3)] {
            let h = f.move_transform(d, m);
            let (lo, hi) = h.domain();
            for k in 0..=60 {
                let p = lo + (hi - lo) * k as f64 / 60.0;
                let want = brute_move(&f, d, m, p, 2000);
                let got = h.eval(p);
                assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want.abs()),
                    "D={d} m={m} p={p}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn add_service_single_request() {
        let f = ConvexPwl::from_samples(vec![-1.0, 1.0], vec![0.0, 0.0]);
        let g = f.add_service(&[0.0]);
        assert!((g.eval(0.0) - 0.0).abs() < 1e-12);
        assert!((g.eval(1.0) - 1.0).abs() < 1e-12);
        assert!((g.eval(-0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_service_outside_domain_adds_linear_part() {
        let f = ConvexPwl::from_samples(vec![0.0, 1.0], vec![0.0, 0.0]);
        // Request at 5: inside the domain the service is 5 − p (linear).
        let g = f.add_service(&[5.0]);
        assert!((g.eval(0.0) - 5.0).abs() < 1e-12);
        assert!((g.eval(1.0) - 4.0).abs() < 1e-12);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn add_service_batch() {
        let f = ConvexPwl::from_samples(vec![-2.0, 2.0], vec![0.0, 0.0]);
        let g = f.add_service(&[-1.0, 0.0, 1.0]);
        // At 0: |−1| + 0 + |1| = 2; at 2: 3 + 2 + 1 = 6.
        assert!((g.eval(0.0) - 2.0).abs() < 1e-12);
        assert!((g.eval(2.0) - 6.0).abs() < 1e-12);
        let (min, lo, hi) = g.min();
        assert!((min - 2.0).abs() < 1e-12);
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn add_empty_service_is_identity() {
        let f = ConvexPwl::from_samples(vec![0.0, 1.0], vec![1.0, 2.0]);
        let g = f.add_service(&[]);
        assert_eq!(g.eval(0.5), f.eval(0.5));
    }

    #[test]
    fn min_on_window_clamps_to_minimizer() {
        let f = ConvexPwl::from_samples(vec![-1.0, 0.0, 1.0], vec![1.0, 0.0, 1.0]);
        let (v, x) = f.min_on(-2.0, 2.0);
        assert_eq!((v, x), (0.0, 0.0));
        let (v, x) = f.min_on(0.5, 2.0);
        assert!((v - 0.5).abs() < 1e-12);
        assert!((x - 0.5).abs() < 1e-12);
        let (v, x) = f.min_on(-2.0, -0.75);
        assert!((v - 0.75).abs() < 1e-12);
        assert!((x + 0.75).abs() < 1e-12);
    }

    #[test]
    fn dedupe_removes_collinear_points() {
        // Build with a redundant midpoint via service addition of nothing…
        // construct directly: three collinear samples should collapse when
        // run through an operation.
        let f = ConvexPwl::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]);
        let h = f.move_transform(10.0, 1.0);
        // Slope-1 stretch survives as a single segment: endpoints plus the
        // two connectors only.
        assert!(h.len() <= 4, "got {} breakpoints", h.len());
    }

    #[test]
    fn dedupe_tests_collinearity_against_the_last_kept_point() {
        // Slopes 1, 1 + 8e-13, 1 − 1.4e-12: point 1 is collinear within
        // the 1e-12 tolerance and goes. Point 2 is then tested against the
        // slope from point 0 (1 + 4e-13, within tolerance: it goes too),
        // not against the dropped point's outgoing slope (1 + 8e-13,
        // outside it).
        let xs = vec![0.0, 1.0, 2.0, 3.0];
        let ys = vec![0.0, 1.0, 2.0 + 8e-13, 3.0 - 6e-13];
        let mut f = ConvexPwl::from_samples(xs, ys);
        let mut want = f.clone();
        f.dedupe();
        oracle::dedupe(&mut want);
        assert_eq!(f.bits(), want.bits());
        assert_eq!(f.breakpoints(), &[0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_samples_rejects_unsorted() {
        let _ = ConvexPwl::from_samples(vec![1.0, 0.0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "convexity")]
    fn from_samples_rejects_concave() {
        let _ = ConvexPwl::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn repeated_transforms_keep_convexity_and_grow_domain() {
        let mut f = ConvexPwl::point(0.0);
        for t in 0..50 {
            f = f.move_transform(2.0, 1.0);
            f = f.add_service(&[(t as f64 * 0.37).sin() * 5.0]);
        }
        let (lo, hi) = f.domain();
        assert!((lo + 50.0).abs() < 1e-9);
        assert!((hi - 50.0).abs() < 1e-9);
        // Convexity asserted internally; evaluate a few points for sanity.
        assert!(f.eval(0.0).is_finite());
    }

    /// Strategy: a convex PWL from gaps and nondecreasing slopes, with
    /// breakpoint `zero % n` moved to `0.0` (`zero < n`) or `−0.0`
    /// (`n ≤ zero < 2n`) by a shift, or left alone.
    fn arb_pwl() -> impl Strategy<Value = ConvexPwl> {
        (
            prop::collection::vec(0.05f64..3.0, 0..10),
            prop::collection::vec(0.0f64..4.0, 10),
            -10.0f64..10.0,
            -20.0f64..2.0,
            -5.0f64..5.0,
            0usize..30,
        )
            .prop_map(|(gaps, slope_incs, x0, s0, y0, zero)| {
                let n = gaps.len() + 1;
                let mut xs = vec![x0];
                for g in &gaps {
                    xs.push(xs.last().unwrap() + g);
                }
                if zero < 2 * n {
                    let shift = xs[zero % n];
                    xs.iter_mut().for_each(|x| *x -= shift);
                    xs[zero % n] = if zero < n { 0.0 } else { -0.0 };
                }
                let mut ys = vec![y0];
                let mut slope = s0;
                for i in 0..n - 1 {
                    ys.push(ys[i] + slope * (xs[i + 1] - xs[i]));
                    slope += slope_incs[i];
                }
                ConvexPwl::from_samples(xs, ys)
            })
    }

    /// A request batch for `f` from `(kind, index, raw)` codes: free
    /// values, breakpoints, segment midpoints, the domain ends and points
    /// beyond them, `±0.0` and duplicates.
    fn batch(f: &ConvexPwl, codes: &[(usize, usize, f64)]) -> Vec<f64> {
        let (lo, hi) = f.domain();
        let n = f.len();
        let mut out: Vec<f64> = Vec::new();
        for &(kind, idx, raw) in codes {
            let v = match kind {
                0 => raw,
                1 => f.xs[idx % n],
                2 if n > 1 => (f.xs[idx % (n - 1)] + f.xs[idx % (n - 1) + 1]) / 2.0,
                3 => lo,
                4 => hi,
                5 => lo - raw.abs(),
                6 => hi + raw.abs(),
                7 => 0.0,
                8 => -0.0,
                _ => out.last().copied().unwrap_or(raw),
            };
            out.push(v);
        }
        out
    }

    fn arb_codes() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
        prop::collection::vec((0usize..10, 0usize..16, -15.0f64..15.0), 0..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ops_are_bit_equal_to_the_oracle(
            f in arb_pwl(),
            d in 0.0f64..6.0,
            m in 0.05f64..3.0,
            codes in arb_codes(),
            garbage in arb_pwl(),
        ) {
            let reqs = batch(&f, &codes);
            let mut sorted = reqs.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            // The `_into` forms must not depend on what `out` held before.
            let mut out = garbage.clone();
            f.add_service_into(&sorted, &mut out);
            prop_assert_eq!(out.bits(), oracle::add_service(&f, &reqs).bits());
            prop_assert_eq!(f.add_service(&reqs).bits(), out.bits());
            let mut out = garbage;
            f.move_transform_into(d, m, &mut out);
            prop_assert_eq!(out.bits(), oracle::move_transform(&f, d, m).bits());
            prop_assert_eq!(f.move_transform(d, m).bits(), out.bits());
        }

        #[test]
        fn dp_chains_are_bit_equal_to_the_oracle(
            f in arb_pwl(),
            d in 0.0f64..6.0,
            m in 0.05f64..3.0,
            steps in prop::collection::vec(arb_codes(), 1..24),
        ) {
            // Chained steps grow the ≈ ±D connector slopes and shifted
            // tails the crossing searches bisect over.
            let (mut want, mut got, mut spare) = (f.clone(), f.clone(), f);
            for (t, codes) in steps.iter().enumerate() {
                let reqs = batch(&want, codes);
                let mut sorted = reqs.clone();
                sorted.sort_unstable_by(f64::total_cmp);
                want = oracle::add_service(&oracle::move_transform(&want, d, m), &reqs);
                got.move_transform_into(d, m, &mut spare);
                spare.add_service_into(&sorted, &mut got);
                prop_assert_eq!(got.bits(), want.bits(), "step {}", t);
            }
        }
    }
}
