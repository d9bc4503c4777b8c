//! The end-to-end run: tracing off, every `ingest` timed.

use crate::affinity::Rotation;
use crate::report::{median, peak_rss_mb, Outcome};
use crate::workload::Stream;
use crate::{
    check_report, decomp_config, fail_rest, losses_agree, run_passes, sessions, Params, MIN_SETUPS,
};
use dismastd_core::{ExecutionMode, StepReport, StreamingSession};
use dismastd_tensor::{Result, SparseTensor};
use std::time::Instant;

/// One session's trip through the stream.
#[derive(Debug, Default)]
struct SessionPass {
    /// Cold-start `ingest` seconds, when it succeeded.
    cold_s: Option<f64>,
    /// Per warm step: (seconds, processed nnz, loss) when it passed.
    warm: Vec<Option<(f64, usize, f64)>>,
    /// Fit on the last snapshot, when the whole stream passed.
    final_fit: Option<f64>,
}

/// One timed `ingest`, pinned by `pin` when given (the serial session).
fn timed_ingest(
    session: &mut StreamingSession,
    snapshot: &SparseTensor,
    pin: Option<&mut Rotation>,
) -> (Result<StepReport>, f64) {
    let mut call = || {
        let t = Instant::now();
        let r = session.ingest(snapshot);
        (r, t.elapsed().as_secs_f64())
    };
    match pin {
        Some(rotation) => rotation.run(call),
        None => call(),
    }
}

fn run_session(
    stream: &Stream,
    label: &str,
    mode: ExecutionMode,
    nproc: usize,
    mut pin: Option<&mut Rotation>,
    out: &mut Outcome,
) -> SessionPass {
    let mut session = StreamingSession::new(decomp_config(nproc), mode);
    let mut pass = SessionPass::default();
    for (k, snapshot) in stream.snapshots.iter().enumerate() {
        out.attempted += 1;
        let (report, secs) = timed_ingest(&mut session, snapshot, pin.as_deref_mut());
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                fail_rest(out, stream, label, k, &e);
                return pass;
            }
        };
        let ok = match check_report(stream, k, &report) {
            Ok(()) => true,
            Err(why) => {
                out.fail(format!("{label} step {k}: {why}"));
                false
            }
        };
        if k == 0 {
            pass.cold_s = ok.then_some(secs);
        } else {
            pass.warm
                .push(ok.then_some((secs, report.processed_nnz, report.loss)));
        }
        if k + 1 == stream.snapshots.len() && ok {
            pass.final_fit = Some(report.fit);
        }
    }
    pass
}

/// Times one cold start in a fresh session.
fn cold_start(
    stream: &Stream,
    label: &str,
    mode: ExecutionMode,
    nproc: usize,
    pin: Option<&mut Rotation>,
    out: &mut Outcome,
) -> Option<f64> {
    let mut session = StreamingSession::new(decomp_config(nproc), mode);
    out.attempted += 1;
    let (report, secs) = timed_ingest(&mut session, &stream.snapshots[0], pin);
    let checked = report
        .map_err(|e| e.to_string())
        .and_then(|r| check_report(stream, 0, &r));
    match checked {
        Ok(()) => Some(secs),
        Err(why) => {
            out.fail(format!("{label} extra cold start: {why}"));
            None
        }
    }
}

/// Runs passes of both sessions over the stream for the budget, checks
/// every step, and reports the end-to-end metrics.
pub fn run(stream: &Stream, params: &Params) -> Outcome {
    let mut out = Outcome::default();
    // Per session: cold-start seconds, warm-step seconds, and per pass the
    // warm nonzeros over the summed warm-step seconds.
    let mut cold: [Vec<f64>; 2] = Default::default();
    let mut warm: [Vec<f64>; 2] = Default::default();
    let mut rate: [Vec<f64>; 2] = Default::default();
    let mut final_fit = f64::NAN;
    // The serial session is single-threaded: it takes the cores in turn.
    let mut rotation = Rotation::default();
    run_passes(params, |p| {
        // Each session runs its whole stream as one block: interleaving the
        // two sessions step by step slows `dist2` by a third on the
        // reference host, as each session's step evicts the other's
        // working set.  Which one goes first alternates.
        let order: [usize; 2] = if p % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut passes: [SessionPass; 2] = Default::default();
        for i in order {
            let (label, mode) = sessions()[i].clone();
            passes[i] = run_session(
                stream,
                label,
                mode.clone(),
                params.nproc,
                (i == 0).then_some(&mut rotation),
                &mut out,
            );
            // A second cold start per pass: one cold start is a single
            // short call, so setup needs more samples than the warm steps
            // to hold steady.
            cold[i].extend(cold_start(
                stream,
                label,
                mode,
                params.nproc,
                (i == 0).then_some(&mut rotation),
                &mut out,
            ));
        }
        for k in 0..stream.warm_steps() {
            let s = passes[0].warm.get(k).copied().flatten();
            let d = passes[1].warm.get(k).copied().flatten();
            if let (Some((_, _, ls)), Some((_, _, ld))) = (s, d) {
                if !losses_agree(ls, ld) {
                    out.fail(format!(
                        "pass {p} warm step {}: dist2 loss {ld} vs serial {ls}",
                        k + 1
                    ));
                }
            }
        }
        for (i, sp) in passes.iter().enumerate() {
            cold[i].extend(sp.cold_s);
            let steps: Vec<(f64, usize, f64)> = sp.warm.iter().flatten().copied().collect();
            warm[i].extend(steps.iter().map(|w| w.0));
            let secs: f64 = steps.iter().map(|w| w.0).sum();
            let nnz: usize = steps.iter().map(|w| w.1).sum();
            if secs > 0.0 {
                rate[i].push(nnz as f64 / secs);
            }
        }
        if let Some(f) = passes[1].final_fit {
            final_fit = f;
        }
    });
    for (i, (label, mode)) in sessions().into_iter().enumerate() {
        while cold[i].len() < MIN_SETUPS {
            let pin = (i == 0).then_some(&mut rotation);
            match cold_start(stream, label, mode.clone(), params.nproc, pin, &mut out) {
                Some(s) => cold[i].push(s),
                None => break,
            }
        }
    }

    // Throughput is the median over passes, so a pass that ran through a
    // slow spell of the host does not drag the whole run.
    let (ser, dis) = (0, 1);
    out.push("setup_s", median(&cold[dis]), "s", cold[dis].len());
    out.push("serial.setup_s", median(&cold[ser]), "s", cold[ser].len());
    out.push("dist2.step_p50_s", median(&warm[dis]), "s", warm[dis].len());
    out.push(
        "serial.step_p50_s",
        median(&warm[ser]),
        "s",
        warm[ser].len(),
    );
    out.push(
        "dist2.nnz_per_s",
        median(&rate[dis]),
        "nnz/s",
        rate[dis].len(),
    );
    out.push(
        "serial.nnz_per_s",
        median(&rate[ser]),
        "nnz/s",
        rate[ser].len(),
    );
    out.push("fit", final_fit, "ratio", 1);
    out.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out
}
