//! `replay-journal`: record streams to in-memory block-v3 traces, replay
//! them through a streaming session with a checkpoint journal, recover.
//!
//! Per stream and round: `TraceWriter` encodes the steps, then
//! `BlockTraceReader::next_frame` feeds `StreamingSim::feed_requests`
//! with an in-memory `JournalWriter::append_sim` every 256 steps (a
//! tick), then `recover_journal` reads the journal back. The streams of a
//! round fan out over the sweep pool. No OPT layer runs. The journal
//! writes to memory, so the numbers measure the codec, not a disk's fsync.

use super::{derive_seed, fan, json_list, json_names, scenario_set};
use crate::spans::Tracer;
use crate::{Bench, Checks, Recorder, Shape};
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{StreamRunResult, StreamingSim};
use msp_scenarios::journal::{recover_journal, JournalWriter};
use msp_scenarios::registry::{must_lookup, ScenarioKnobs};
use msp_scenarios::stream::RequestStream;
use msp_scenarios::trace::{BlockTraceReader, TraceFormat, TraceWriter};

/// Scenarios replayed every round, the busiest first.
const SCENARIOS: [&str; 3] = ["car-fleet", "district-clusters", "edge-drift"];

/// Streams (seeds) per scenario.
const SEEDS: usize = 2;

/// Steps per tick; one journal append closes each tick.
const TICK: usize = 256;

/// Steps per block-v3 trace block.
const BLOCK: usize = 64;

/// Augmentation of the replayed sessions.
const DELTA: f64 = 0.25;

/// Serving order of the replayed sessions.
const ORDER: ServingOrder = ServingOrder::MoveFirst;

fn horizon(shape: Shape) -> usize {
    match shape {
        Shape::Full => 170_000,
        Shape::Tiny => 1_000,
    }
}

struct Recorded {
    name: &'static str,
    seed: u64,
    inst: Instance<2>,
}

/// The `replay-journal` workload.
pub struct ReplayJournal {
    streams: Vec<Recorded>,
    /// Totals of a session fed straight from each generator, computed on
    /// first check.
    reference: Vec<Option<StreamRunResult<2>>>,
    materialize_ns: u64,
}

/// One replayed stream.
pub struct StreamOut {
    stream: usize,
    totals: StreamRunResult<2>,
    appends: u64,
    /// `(generation, step, movement, service)` that `recover_journal`
    /// returned, and whether it reported a torn tail.
    recovered: (u64, usize, f64, f64, bool),
}

fn replay(k: usize, inst: &Instance<2>, tr: &Tracer) -> (StreamOut, Recorder) {
    let mut rec = Recorder::default();
    let t = inst.horizon();
    let params = inst.params();

    let mut g = tr.group("replay-journal.encode", t as u64);
    let trace = g
        .call("trace.encode", t as u64, || {
            let format = TraceFormat::BlockV3 { block: BLOCK };
            let mut w = TraceWriter::new(Vec::new(), format, &params)?;
            for step in &inst.steps {
                w.write_step(step)?;
            }
            w.finish()
        })
        .expect("in-memory trace encodes");
    g.finish();
    rec.add("trace.bytes", trace.len() as f64);
    rec.add("trace.steps", t as f64);

    let mut reader = BlockTraceReader::<2>::open(&trace).expect("fresh trace opens");
    let mut sim = StreamingSim::new(&params, MoveToCenter::<2>::new(), DELTA, ORDER);
    let mut journal =
        JournalWriter::new(Vec::new(), &params, DELTA, ORDER).expect("in-memory journal opens");
    let mut ticks = Vec::with_capacity(t / TICK + 1);
    let mut more = true;
    while more {
        let mut g = tr.group("replay-journal.tick", TICK as u64);
        for _ in 0..TICK {
            let frame = g
                .call("trace.decode", 1, || reader.next_frame())
                .expect("fresh trace decodes");
            match frame {
                Some(requests) => {
                    g.call("sim.feed", 1, || sim.feed_requests(requests));
                }
                None => {
                    more = false;
                    break;
                }
            }
        }
        g.call("journal.append", 0, || journal.append_sim(&sim))
            .expect("in-memory journal appends");
        ticks.push(g.finish());
    }
    rec.stream_ticks(&ticks);
    rec.steps += t as u64;
    let appends = journal.generations();
    let bytes = journal.into_inner();
    rec.add("journal.bytes", bytes.len() as f64);

    let mut g = tr.group("replay-journal.recover", 0);
    let recovered = g
        .call("journal.recover", 0, || recover_journal::<2>(&bytes))
        .expect("in-memory journal recovers");
    g.finish();
    let out = StreamOut {
        stream: k,
        totals: sim.finish(),
        appends,
        recovered: (
            recovered.generation,
            recovered.checkpoint.step,
            recovered.checkpoint.movement,
            recovered.checkpoint.service,
            recovered.torn_tail.is_some(),
        ),
    };
    (out, rec)
}

impl Bench for ReplayJournal {
    type Out = Vec<StreamOut>;

    fn setup(shape: Shape, seed: u64) -> Self {
        let jobs: Vec<_> = SCENARIOS
            .iter()
            .flat_map(|&name| std::iter::repeat_n(name, SEEDS))
            .enumerate()
            .map(|(k, name)| (name, derive_seed(seed, 0, k as u64), horizon(shape)))
            .collect();
        let (insts, materialize_ns) = scenario_set::<2>(&jobs);
        let streams: Vec<Recorded> = jobs
            .iter()
            .zip(insts)
            .map(|(&(name, seed, _), inst)| Recorded { name, seed, inst })
            .collect();
        ReplayJournal {
            reference: vec![None; streams.len()],
            streams,
            materialize_ns,
        }
    }

    fn materialize_ns(&self) -> u64 {
        self.materialize_ns
    }

    fn round(&self, _r: usize, tr: &Tracer, rec: &mut Recorder) -> Self::Out {
        fan(&self.streams, rec, |k, s| replay(k, &s.inst, tr))
    }

    fn verify(&mut self, out: &Self::Out, checks: &mut Checks) {
        for s in out {
            let src = &self.streams[s.stream];
            let want = self.reference[s.stream].get_or_insert_with(|| {
                // A session fed straight from the scenario generator.
                let mut stream = must_lookup(src.name)
                    .stream_with::<2>(src.seed, &ScenarioKnobs::horizon(src.inst.horizon()))
                    .expect("catalog scenario opens");
                let mut sim =
                    StreamingSim::new(&stream.params(), MoveToCenter::<2>::new(), DELTA, ORDER);
                while let Some(step) = stream.next_step() {
                    sim.feed(&step);
                }
                sim.finish()
            });
            let got = &s.totals;
            let bit_equal = got.steps == want.steps
                && got.movement.to_bits() == want.movement.to_bits()
                && got.service.to_bits() == want.service.to_bits()
                && got.max_step_used.to_bits() == want.max_step_used.to_bits()
                && got.final_position == want.final_position;
            checks.check(bit_equal, || {
                format!(
                    "{} #{}: replayed totals differ from the generator's",
                    src.name, s.stream
                )
            });
            // The last append closed the stream, so recovery returns the
            // final generation at the final step with the final totals.
            let (generation, step, movement, service, torn) = s.recovered;
            checks.check(
                !torn
                    && generation + 1 == s.appends
                    && step == got.steps
                    && movement.to_bits() == got.movement.to_bits()
                    && service.to_bits() == got.service.to_bits(),
                || {
                    format!(
                        "{} #{}: recovered {:?} after {} appends",
                        src.name, s.stream, s.recovered, s.appends
                    )
                },
            );
        }
    }

    fn values(out: &Self::Out) -> Vec<(String, f64)> {
        let mut v = Vec::new();
        for s in out {
            let key = format!("{}.{}", SCENARIOS[s.stream / SEEDS], s.stream);
            v.push((format!("{key}.movement"), s.totals.movement));
            v.push((format!("{key}.service"), s.totals.service));
            v.push((format!("{key}.final_x"), s.totals.final_position[0]));
            v.push((format!("{key}.final_y"), s.totals.final_position[1]));
        }
        v
    }

    fn inputs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenarios", json_names(self.streams.iter().map(|s| s.name))),
            (
                "horizons",
                json_list(self.streams.iter().map(|s| s.inst.horizon())),
            ),
            (
                "requests",
                json_list(self.streams.iter().map(|s| s.inst.total_requests())),
            ),
            ("tick_steps", TICK.to_string()),
            ("trace_block", BLOCK.to_string()),
            ("delta", DELTA.to_string()),
            ("order", "\"mf\"".into()),
        ]
    }
}
