//! End-to-end check: every experiment in the suite runs at Smoke scale,
//! produces a non-trivial table, findings, and well-formed JSON.

use msp_bench::{all_experiments, Scale};

#[test]
fn every_experiment_runs_at_smoke_scale() {
    for (id, f) in all_experiments() {
        let report = f(Scale::Smoke);
        assert_eq!(report.id, id);
        assert!(!report.table.is_empty(), "{id}: empty table");
        assert!(!report.findings.is_empty(), "{id}: no findings");
        assert!(!report.claim.is_empty(), "{id}: no claim");
        let md = report.to_markdown();
        assert!(md.contains(&id.to_uppercase()), "{id}: malformed markdown");
        let json = report.json.to_string();
        assert!(
            json.starts_with('[') && json.ends_with(']'),
            "{id}: JSON not an array"
        );
        assert!(json.len() > 10, "{id}: JSON suspiciously small");
        // Minimal well-formedness: balanced braces/brackets outside strings.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "{id}: unbalanced JSON");
        }
        assert_eq!(depth, 0, "{id}: unbalanced JSON");
        assert!(!in_str, "{id}: unterminated string in JSON");
    }
}

#[test]
fn experiment_ids_are_unique_and_stable() {
    let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate experiment ids");
    // The ARCHITECTURE.md experiment index promises exactly these experiments.
    for expected in [
        "e1", "e2", "e3", "e4a", "e4b", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
        "a1", "a2", "a3", "a4", "v1",
    ] {
        assert!(ids.contains(&expected), "missing experiment {expected}");
    }
}
