//! The four workloads and the inputs they share.

pub mod line_opt;
pub mod live_probe;
pub mod plane_opt;
pub mod replay_journal;

use crate::Recorder;
use msp_analysis::sweep::parallel_map_indexed;
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_scenarios::engine::materialize;
use msp_scenarios::registry::{must_lookup, ScenarioKnobs};
use std::time::Instant;

/// The δ set every ratio table prices.
pub const DELTAS: [f64; 4] = [0.0, 0.1, 0.5, 1.0];

/// Both serving orders, in the order `run_batch_with` prices them.
pub const ORDERS: [ServingOrder; 2] = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

/// Short label of a serving order, for output keys.
pub fn order_label(order: ServingOrder) -> &'static str {
    match order {
        ServingOrder::MoveFirst => "mf",
        ServingOrder::AnswerFirst => "af",
    }
}

/// Seed of input `k` of set `set` under the run seed (splitmix64 mix).
pub fn derive_seed(seed: u64, set: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(set.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(k.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Materializes every `(scenario, seed, horizon)` job, fanned over the
/// sweep pool, and returns the instances in job order with the wall time
/// taken.
///
/// # Panics
/// Panics when a scenario is missing or of another dimension: the
/// workloads name catalog entries of the right dimension.
pub fn scenario_set<const N: usize>(jobs: &[(&str, u64, usize)]) -> (Vec<Instance<N>>, u64) {
    let t0 = Instant::now();
    let insts = parallel_map_indexed(jobs, 0, |_, &(name, seed, horizon)| {
        materialize::<N>(&must_lookup(name), seed, &ScenarioKnobs::horizon(horizon))
            .expect("catalog scenario materializes")
    });
    (insts, crate::stats::ns_since(t0))
}

/// Runs `f` on every item over the sweep pool and merges each item's
/// recorder into `rec` in item order, so the merged samples do not depend
/// on which worker finished first.
pub fn fan<I: Sync, O: Send>(
    items: &[I],
    rec: &mut Recorder,
    f: impl Fn(usize, &I) -> (O, Recorder) + Sync,
) -> Vec<O> {
    parallel_map_indexed(items, 0, f)
        .into_iter()
        .map(|(out, r)| {
            rec.merge(r);
            out
        })
        .collect()
}

/// A list of numbers as a JSON array.
pub fn json_list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let parts: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

/// A list of names as a JSON array of strings.
pub fn json_names<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    json_list(items.into_iter().map(|s| format!("\"{s}\"")))
}
