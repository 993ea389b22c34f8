//! Golden output values: the round-0 outputs of the default seed, one
//! `key value` line each, matched to [`crate::REL_TOL`] relative.

use crate::{close, Checks, Workload};
use std::collections::BTreeMap;

/// A parsed golden file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Golden(pub BTreeMap<String, f64>);

impl Golden {
    /// The golden file stored with the benchmark for `workload`.
    pub fn stored(workload: Workload) -> Golden {
        Golden::parse(match workload {
            Workload::LineOpt => include_str!("../golden/line-opt.txt"),
            Workload::PlaneOpt => include_str!("../golden/plane-opt.txt"),
            Workload::LiveProbe => include_str!("../golden/live-probe.txt"),
            Workload::ReplayJournal => include_str!("../golden/replay-journal.txt"),
        })
    }

    /// Parses `key value` lines; blank lines and `#` comments are skipped.
    ///
    /// # Panics
    /// Panics on a malformed line: the files are part of the benchmark.
    pub fn parse(text: &str) -> Golden {
        let map = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (k, v) = l.split_once(' ').expect("golden line is `key value`");
                let v = v.trim().parse::<f64>().expect("golden value is a number");
                (k.to_string(), v)
            })
            .collect();
        Golden(map)
    }

    /// Renders values in the format [`Golden::parse`] reads, with every
    /// digit needed to round-trip.
    pub fn render(values: &[(String, f64)]) -> String {
        values.iter().map(|(k, v)| format!("{k} {v:?}\n")).collect()
    }

    /// One check per golden key: the value of that name must be present
    /// and agree to the relative tolerance.
    pub fn compare(&self, values: &[(String, f64)], checks: &mut Checks) {
        let actual: BTreeMap<&str, f64> = values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for (k, &want) in &self.0 {
            let got = actual.get(k.as_str()).copied();
            checks.check(got.is_some_and(|g| close(g, want)), || {
                format!("golden {k}: want {want:?}, got {got:?}")
            });
        }
    }
}
