//! Tiny shapes of every workload: the checks pass and can fail, every
//! metric is printed with its unit, and tracing does not change outputs.

use msp_e2e_bench::golden::Golden;
use msp_e2e_bench::{run, Report, RunConfig, Shape, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool, golden: Option<Golden>) -> Report {
    run(&RunConfig {
        workload,
        shape: Shape::Tiny,
        seed,
        seconds: 0.0,
        trace,
        golden,
    })
}

#[test]
fn tiny_shapes_pass_every_check_and_print_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = tiny(w, 5, trace, None);
            assert!(r.checks.attempted > 0, "{w:?}: no checks ran");
            assert_eq!(r.checks.failed, 0, "{w:?}: {:?}", r.checks.failures);
            let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let printed: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(printed, catalog, "{w:?} trace={trace}");
            assert!(
                r.metrics.iter().all(|m| m.1.is_finite()),
                "{w:?}: {:?}",
                r.metrics
            );
            let line = r.result_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in catalog {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{w:?}: {name} missing from {line}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
            }
            if !trace {
                for name in ["wall_s", "steps_per_s", "tick_p50_ms", "peak_rss_mb"] {
                    assert!(r.metric(name).is_some_and(|v| v > 0.0), "{w:?}: {name}");
                }
            } else {
                assert!(!r.spans.is_empty(), "{w:?}: a traced run records spans");
            }
        }
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let spec = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names a metric the benchmark does not print"
    );
    for w in Workload::ALL {
        assert!(
            spec.contains(&format!("\"name\": \"{}\"", w.name())),
            "{w:?}"
        );
    }
}

#[test]
fn a_perturbed_golden_value_fails_the_run() {
    for w in Workload::ALL {
        let base = tiny(w, DEFAULT_SEED, false, None);
        let mut golden = Golden(base.values.into_iter().collect());
        let same = tiny(w, DEFAULT_SEED, false, Some(golden.clone()));
        assert_eq!(same.checks.failed, 0, "{w:?}: {:?}", same.checks.failures);

        let v = golden
            .0
            .values_mut()
            .find(|v| **v != 0.0)
            .expect("a nonzero golden value");
        *v *= 1.0 + 1e-6;
        let bad = tiny(w, DEFAULT_SEED, false, Some(golden));
        assert_eq!(bad.checks.failed, 1, "{w:?}: {:?}", bad.checks.failures);
        assert!(bad.result_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn traced_and_untraced_runs_are_bit_equal() {
    for w in Workload::ALL {
        let plain = tiny(w, 7, false, None);
        let traced = tiny(w, 7, true, None);
        assert_eq!(
            traced.checks.failed, 0,
            "{w:?}: {:?}",
            traced.checks.failures
        );
        assert_eq!(plain.values.len(), traced.values.len());
        for (a, b) in plain.values.iter().zip(&traced.values) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{w:?}: {} differs", a.0);
        }
    }
}

#[test]
fn stored_golden_files_cover_the_default_seed() {
    for w in Workload::ALL {
        let golden = Golden::stored(w);
        assert!(!golden.0.is_empty(), "{w:?}: empty golden file");
        assert!(golden.0.values().all(|v| v.is_finite()));
    }
}
