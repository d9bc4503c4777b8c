//! Benchmark of record for DisMASTD streaming steps.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform-bulk --seed 1 --seconds 20 --trace 0
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     compare perfbench/results/A.json perfbench/results/B.json
//! ```
//!
//! The last line of standard output is the result object; every metric is
//! also printed above it by name, unit and sample count, and saved with the
//! host fingerprint under `perfbench/results/`.  The exit code is non-zero
//! when any correctness check failed.

use dismastd_perfbench::report::{compare, result_file, Fingerprint};
use dismastd_perfbench::workload::Workload;
use dismastd_perfbench::{endtoend, traced, Params};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"expected a finite number of seconds >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = Fingerprint::detect(nproc);
    println!("host: {fingerprint:?}");
    let workload = Workload::new(&args.workload, args.seed, 1.0)?;
    let t = Instant::now();
    let stream = workload.stream()?;
    println!(
        "workload {} seed {}: {} snapshots, cold start {} nnz, warm steps add {:?} nnz (generated in {:.2} s)",
        workload.name,
        args.seed,
        stream.snapshots.len(),
        stream.snapshots[0].nnz(),
        stream.new_nnz,
        t.elapsed().as_secs_f64()
    );
    let params = Params {
        seconds: args.seconds,
        nproc,
    };
    let (outcome, tracer) = if args.trace {
        let (outcome, tracer) = traced::run(&stream, &params);
        (outcome, Some(tracer))
    } else {
        (endtoend::run(&stream, &params), None)
    };
    for m in &outcome.metrics {
        println!(
            "{:<30} {:>18.9} {:<14} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "failed_step_ratio {} / {} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for why in outcome.failures.iter().chain(&outcome.run_failures) {
        println!("FAILED: {why}");
    }

    let dir = results_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(
        &path,
        result_file(&fingerprint, workload.name, args.seed, args.trace, &outcome),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("saved {}", path.display());
    if let Some(tracer) = tracer {
        let path = dir.join(format!("{stem}-spans.json"));
        let spans = serde_json::to_string(&tracer.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("saved {}", path.display());
    }

    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        return match files.as_slice() {
            [old, new] => match compare(old, new) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: perfbench compare <old.json> <new.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
