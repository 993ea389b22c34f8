//! `live-probe`: planar `walk-plane` streaming sessions, each with a
//! default `RatioProbe` riding along; a round streams two independent
//! sessions side by side over the sweep pool.
//!
//! A tick is 32 steps of `observe_step` + `feed` plus one ratio sample,
//! the cadence of `examples/live_ratio.rs`. The probe's per-axis
//! `IncrementalLineOpt` runs the line DP one step at a time, so its
//! per-step cost growth shows in `late_early_ratio`.

use super::{derive_seed, fan, scenario_set};
use crate::spans::Tracer;
use crate::{Bench, Checks, Recorder, Shape, REL_TOL};
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::StreamingSim;
use msp_offline::{ConvexSolver, ProbeOptions, RatioProbe};

/// Distinct sessions; round `r` streams sessions `2r` and `2r + 1`
/// (mod `SESSIONS`).
const SESSIONS: usize = 8;

/// Sessions streamed side by side in one round.
const PER_ROUND: usize = 2;

/// Steps per tick (one ratio sample each).
const TICK: usize = 32;

/// Augmentation of the streaming sessions.
const DELTA: f64 = 0.2;

/// Serving order of the sessions and the probes.
const ORDER: ServingOrder = ServingOrder::MoveFirst;

fn horizon(shape: Shape) -> usize {
    match shape {
        Shape::Full => 4096,
        Shape::Tiny => 320,
    }
}

/// The `live-probe` workload.
pub struct LiveProbe {
    shape: Shape,
    sessions: Vec<Instance<2>>,
    /// `ConvexSolver` cost of each session, computed on first check.
    convex: Vec<Option<f64>>,
    materialize_ns: u64,
}

/// One streamed session.
pub struct SessionOut {
    session: usize,
    /// `(lower bound, alg cost, ratio upper bound)` after every tick.
    samples: Vec<(f64, f64, f64)>,
    movement: f64,
    service: f64,
}

fn stream(session: usize, inst: &Instance<2>, tr: &Tracer) -> (SessionOut, Recorder) {
    let params = inst.params();
    let mut sim = StreamingSim::new(&params, MoveToCenter::<2>::new(), DELTA, ORDER);
    let mut probe = RatioProbe::new(&params, ORDER, ProbeOptions::default());
    let mut samples = Vec::with_capacity(inst.horizon() / TICK + 1);
    let mut ticks = Vec::with_capacity(samples.capacity());
    for chunk in inst.steps.chunks(TICK) {
        let mut g = tr.group("live-probe.tick", chunk.len() as u64);
        for step in chunk {
            g.call("probe.observe", 1, || probe.observe_step(&step.requests));
            g.call("sim.feed", 1, || sim.feed(step));
        }
        let alg = sim.total_cost();
        let ratio = probe.ratio_upper_bound(alg).unwrap_or(0.0);
        samples.push((probe.lower_bound(), alg, ratio));
        ticks.push(g.finish());
    }
    let mut rec = Recorder {
        steps: inst.horizon() as u64,
        ..Recorder::default()
    };
    rec.stream_ticks(&ticks);
    let res = sim.finish();
    let out = SessionOut {
        session,
        samples,
        movement: res.movement,
        service: res.service,
    };
    (out, rec)
}

impl Bench for LiveProbe {
    type Out = Vec<SessionOut>;

    fn setup(shape: Shape, seed: u64) -> Self {
        let jobs: Vec<_> = (0..SESSIONS as u64)
            .map(|s| ("walk-plane", derive_seed(seed, s, 0), horizon(shape)))
            .collect();
        let (sessions, materialize_ns) = scenario_set::<2>(&jobs);
        LiveProbe {
            shape,
            convex: vec![None; sessions.len()],
            sessions,
            materialize_ns,
        }
    }

    fn materialize_ns(&self) -> u64 {
        self.materialize_ns
    }

    fn round(&self, r: usize, tr: &Tracer, rec: &mut Recorder) -> Self::Out {
        let picked: Vec<usize> = (0..PER_ROUND)
            .map(|k| (PER_ROUND * r + k) % SESSIONS)
            .collect();
        fan(&picked, rec, |_, &s| stream(s, &self.sessions[s], tr))
    }

    fn verify(&mut self, out: &Self::Out, checks: &mut Checks) {
        for s in out {
            checks.check(s.samples.windows(2).all(|w| w[0].0 <= w[1].0), || {
                format!("session {}: probe bound decreased", s.session)
            });
            let inst = &self.sessions[s.session];
            let convex = *self.convex[s.session]
                .get_or_insert_with(|| ConvexSolver::new().solve(inst, ORDER).cost);
            let bound = s.samples.last().map_or(0.0, |x| x.0);
            // The probe certifies a lower bound on OPT; the convex
            // solver's trajectory is feasible, so its cost is an upper
            // bound on OPT.
            checks.check(bound > 0.0 && bound <= convex * (1.0 + REL_TOL), || {
                format!(
                    "session {}: probe bound {bound} above convex cost {convex}",
                    s.session
                )
            });
        }
    }

    fn values(out: &Self::Out) -> Vec<(String, f64)> {
        let mut v = Vec::new();
        for s in out {
            let (bound, alg, ratio) = s.samples.last().copied().unwrap_or_default();
            let mid = s.samples[s.samples.len() / 2].0;
            let k = s.session;
            v.push((format!("s{k}.movement"), s.movement));
            v.push((format!("s{k}.service"), s.service));
            v.push((format!("s{k}.bound.mid"), mid));
            v.push((format!("s{k}.bound.final"), bound));
            v.push((format!("s{k}.alg.final"), alg));
            v.push((format!("s{k}.ratio.final"), ratio));
        }
        v
    }

    fn inputs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenario", "\"walk-plane\"".into()),
            ("horizon", horizon(self.shape).to_string()),
            ("sessions", SESSIONS.to_string()),
            ("sessions_per_round", PER_ROUND.to_string()),
            ("tick_steps", TICK.to_string()),
            (
                "requests_per_session",
                self.sessions[0].total_requests().to_string(),
            ),
            ("delta", DELTA.to_string()),
            ("order", "\"mf\"".into()),
        ]
    }
}
