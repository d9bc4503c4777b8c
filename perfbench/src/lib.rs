//! Benchmark of record for DisMASTD streaming steps.
//!
//! One closed-loop client feeds a workload's nested snapshot stream through
//! two `StreamingSession`s, one after the other: `serial`
//! (`ExecutionMode::Serial`) and `dist2` (`ClusterConfig::new(2)`).  The
//! end-to-end run ([`endtoend`]) times every `ingest` with tracing off; the
//! traced run ([`traced`]) replays every warm step layer by layer through
//! the public API and reports per-layer numbers.  Both runs check the
//! program's outputs; see the package README for the metrics.

pub mod affinity;
pub mod endtoend;
pub mod report;
pub mod trace;
pub mod traced;
pub mod workload;

use dismastd_core::{ClusterConfig, DecompConfig, ExecutionMode, StepReport, ThreadPolicy};
use report::Outcome;
use std::time::{Duration, Instant};
use workload::Stream;

/// Relative loss tolerance between the `dist2` and `serial` sessions, the
/// one `dismastd-core`'s serial-vs-distributed proptest uses.
pub const LOSS_TOLERANCE: f64 = 1e-6;

/// Fewest cold starts a run times, so `setup_s` is a median.
pub const MIN_SETUPS: usize = 5;

/// Ranks of the distributed session.
pub const RANKS: usize = 2;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Measurement budget: passes over the stream start while the
    /// previous passes' average says the next one ends within it.  At
    /// least one pass always runs.
    pub seconds: f64,
    /// Kernel lanes the sessions pin (`ThreadPolicy::Fixed`).
    pub nproc: usize,
}

/// The decomposition settings both sessions share: the defaults (`R=10`,
/// `μ=0.8`, 10 iterations, tolerance 0) with the thread policy pinned, so
/// `DISMASTD_THREADS` cannot change a number.
pub fn decomp_config(nproc: usize) -> DecompConfig {
    DecompConfig::default().with_threads(ThreadPolicy::Fixed(nproc))
}

/// The two sessions every pass runs, by label.
pub fn sessions() -> [(&'static str, ExecutionMode); 2] {
    [
        ("serial", ExecutionMode::Serial),
        (
            "dist2",
            ExecutionMode::Distributed(ClusterConfig::new(RANKS)),
        ),
    ]
}

/// Checks one `ingest` report against the benchmark's own count of the
/// stream: a cold start processes the whole first snapshot, warm step `k`
/// processes exactly `nnz(X_k) − nnz(X_{k−1})` nonzeros, and the fit is
/// finite.
///
/// # Errors
/// Describes the first failed check.
pub fn check_report(stream: &Stream, k: usize, r: &StepReport) -> Result<(), String> {
    let expected = match k {
        0 => stream.snapshots[0].nnz(),
        _ => stream.new_nnz[k - 1],
    };
    if r.cold_start != (k == 0) {
        return Err(format!("cold_start = {} at step {k}", r.cold_start));
    }
    if r.processed_nnz != expected {
        return Err(format!(
            "processed_nnz {} != own count {expected}",
            r.processed_nnz
        ));
    }
    if !r.fit.is_finite() {
        return Err(format!("fit {} is not finite", r.fit));
    }
    Ok(())
}

/// `dist2` loss agrees with `serial` within [`LOSS_TOLERANCE`] relative.
pub fn losses_agree(serial: f64, dist: f64) -> bool {
    (serial - dist).abs() < LOSS_TOLERANCE * (1.0 + serial.abs())
}

/// Runs `pass` until the budget would be exceeded by one more pass (at
/// least once).  Returns the number of passes run.
pub fn run_passes(params: &Params, mut pass: impl FnMut(usize)) -> usize {
    let budget = Duration::from_secs_f64(params.seconds.max(0.0));
    let start = Instant::now();
    let mut passes = 0;
    loop {
        pass(passes);
        passes += 1;
        let elapsed = start.elapsed();
        if elapsed + elapsed / passes as u32 > budget {
            return passes;
        }
    }
}

/// Counts the rest of a session's stream, from step `k` on, as failed
/// after an `ingest` returned an error.
pub fn fail_rest(
    out: &mut Outcome,
    stream: &Stream,
    label: &str,
    k: usize,
    err: &dyn std::fmt::Display,
) {
    out.fail(format!("{label} step {k}: {err}"));
    let rest = (stream.snapshots.len() - k - 1) as u64;
    out.attempted += rest;
    out.failed += rest;
}
