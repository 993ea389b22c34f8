//! Command line of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <line-opt|plane-opt|live-probe|replay-journal> \
//!     --seed <n> --seconds <s> --trace <0|1> [--emit-golden]
//! ```
//!
//! Prints a record line with the run's inputs, then the result line: one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics). A
//! traced run also writes its spans to `e2e-bench/out/`. `--emit-golden`
//! prints the round-0 output values in the golden-file format instead.

use msp_e2e_bench::golden::Golden;
use msp_e2e_bench::{run, spans, RunConfig, Shape, Workload, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_golden: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut emit_golden) =
        (None, None, None, false, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--emit-golden" => emit_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace,
        emit_golden,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let golden =
        (args.seed == DEFAULT_SEED && !args.emit_golden).then(|| Golden::stored(args.workload));
    let cfg = RunConfig {
        workload: args.workload,
        shape: Shape::Full,
        seed: args.seed,
        seconds: if args.emit_golden { 0.0 } else { args.seconds },
        trace: args.trace && !args.emit_golden,
        golden,
    };
    let report = run(&cfg);
    if args.emit_golden {
        print!("{}", Golden::render(&report.values));
        return ExitCode::SUCCESS;
    }
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::to_tsv(&report.spans)));
        if let Err(e) = written {
            eprintln!("e2e-bench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "e2e-bench: {} spans in {}",
            report.spans.len(),
            path.display()
        );
    }
    println!("{}", report.inputs_json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
