//! The benchmark's workloads and the nested snapshot streams cut from them.
//!
//! Every workload is one of the scaled dataset profiles in
//! `dismastd_data::datasets`, regenerated from the run's seed, cut into a
//! cold-start snapshot plus a fixed number of warm steps.  The box fractions
//! are chosen from the data so that every warm step adds (close to) the same
//! number of new nonzeros: the warm-step latencies are then samples of one
//! distribution, which the paper's fixed 5% box steps would not give.

use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_tensor::SparseTensor;

/// Workloads the benchmark can run.  `BENCHMARK.json` lists
/// `uniform-bulk` and `skew-trickle`; `wide-skew` is kept for manual runs
/// only (see the README).
pub const WORKLOADS: [&str; 3] = ["uniform-bulk", "wide-skew", "skew-trickle"];

/// How much new data each warm step brings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSize {
    /// The warm steps split everything outside the cold-start box evenly,
    /// so the last snapshot is the whole tensor.
    FillRemainder,
    /// Every warm step adds this share of the tensor's nonzeros.
    ShareOfTotal(f64),
}

/// One benchmark workload: a dataset recipe and its stream schedule.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// The dataset recipe, with its seed replaced by the run's seed.
    pub spec: DatasetSpec,
    /// Box fraction of the cold-start snapshot (every mode).
    pub cold_fraction: f64,
    /// Warm steps after the cold start.
    pub warm_steps: usize,
    /// New nonzeros per warm step.
    pub step_size: StepSize,
}

impl Workload {
    /// The named workload with its dataset seeded by `seed`.  `scale`
    /// multiplies the profile's own scale; the benchmark runs at 1.0 and
    /// the tests shrink it.
    ///
    /// # Errors
    /// Names no workload of [`WORKLOADS`].
    pub fn new(name: &str, seed: u64, scale: f64) -> Result<Self, String> {
        let (name, spec, cold_fraction, warm_steps, step_size) = match name {
            // Kernel-bound: uniform cube, ~34% of the nonzeros at the cold
            // start and 12 bulk steps of ~110k nonzeros.
            "uniform-bulk" => (
                WORKLOADS[0],
                DatasetSpec::synthetic(scale),
                0.7,
                12,
                StepSize::FillRemainder,
            ),
            // Row-bound: rows far outnumber nonzeros per row, so solve,
            // Gram and row exchange outweigh the kernel.
            "wide-skew" => (
                WORKLOADS[1],
                DatasetSpec::clothing(scale),
                0.7,
                12,
                StepSize::FillRemainder,
            ),
            // Snapshot-bound: dense and skewed, 20 small steps of 1% each,
            // so costs that scale with the snapshot dominate a step.
            "skew-trickle" => (
                WORKLOADS[2],
                DatasetSpec::netflix(0.5 * scale),
                0.8,
                20,
                StepSize::ShareOfTotal(0.01),
            ),
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {WORKLOADS:?}"
                ))
            }
        };
        let mut spec = spec;
        spec.seed = seed;
        Ok(Workload {
            name,
            spec,
            cold_fraction,
            warm_steps,
            step_size,
        })
    }

    /// Generates the tensor and cuts it into the workload's stream.
    ///
    /// # Errors
    /// Generation or cutting failed, or the tensor has too few distinct
    /// entry levels to give every warm step new nonzeros.
    pub fn stream(&self) -> Result<Stream, String> {
        let full = self.spec.generate().map_err(|e| e.to_string())?;
        let fractions = step_fractions(&full, self.cold_fraction, self.warm_steps, self.step_size)?;
        let seq = StreamSequence::cut(&full, &fractions).map_err(|e| e.to_string())?;
        let snapshots = seq.into_snapshots();
        let new_nnz = snapshots
            .windows(2)
            .map(|w| w[1].nnz() - w[0].nnz())
            .collect();
        Ok(Stream { snapshots, new_nnz })
    }
}

/// A nested snapshot stream `X_0 ⊆ X_1 ⊆ …` (Def. 4: every mode grows).
#[derive(Debug, Clone)]
pub struct Stream {
    /// `snapshots[0]` is the cold start; the rest are warm steps.
    pub snapshots: Vec<SparseTensor>,
    /// `new_nnz[k-1] = nnz(X_k) − nnz(X_{k−1})`: the benchmark's own count
    /// of what warm step `k` must process.
    pub new_nnz: Vec<usize>,
}

impl Stream {
    /// Warm steps in the stream.
    pub fn warm_steps(&self) -> usize {
        self.snapshots.len() - 1
    }
}

/// The fraction of its mode size at which an entry enters the box: the
/// entry is in the snapshot cut at fraction `f` exactly when `entry_fraction
/// < f`, because `StreamSequence::cut` keeps index `i` of a mode of size
/// `I` when `i < ⌈f·I⌉`, i.e. when `i < f·I`.
fn entry_fraction(idx: &[usize], shape: &[usize]) -> f64 {
    idx.iter()
        .zip(shape)
        .map(|(&i, &s)| i as f64 / s as f64)
        .fold(0.0, f64::max)
}

/// Box fractions for a cold start at `cold` and `warm_steps` warm steps of
/// (close to) equal new-nonzero counts.  Entries with equal entry
/// fractions enter together, so each step ends at the level whose count is
/// closest to its target, kept strictly after the previous step's level so
/// that every step adds nonzeros.  The fraction itself sits
/// halfway to the next level, so the cut is exact and immune to rounding.
fn step_fractions(
    full: &SparseTensor,
    cold: f64,
    warm_steps: usize,
    step_size: StepSize,
) -> Result<Vec<f64>, String> {
    let mut enter: Vec<f64> = full
        .iter()
        .map(|(idx, _)| entry_fraction(idx, full.shape()))
        .collect();
    enter.sort_by(f64::total_cmp);
    let total = enter.len();
    let cold_nnz = enter.partition_point(|&e| e < cold);
    // Distinct entry fractions past the cold box, each with the number of
    // entries at or below it.
    let mut levels: Vec<(f64, usize)> = Vec::new();
    for (i, &e) in enter.iter().enumerate().skip(cold_nnz) {
        match levels.last_mut() {
            Some(last) if last.0 == e => last.1 = i + 1,
            _ => levels.push((e, i + 1)),
        }
    }
    if levels.len() < warm_steps {
        return Err(format!(
            "{} entry levels past the cold box are too few for {warm_steps} warm steps",
            levels.len()
        ));
    }
    let step = match step_size {
        StepSize::FillRemainder => (total - cold_nnz) as f64 / warm_steps as f64,
        StepSize::ShareOfTotal(share) => share * total as f64,
    };
    let mut fractions = vec![cold];
    let mut next_free = 0;
    for k in 1..=warm_steps {
        let target = (cold_nnz as f64 + step * k as f64).round() as usize;
        let last_free = levels.len() - 1 - (warm_steps - k);
        let up = levels.partition_point(|l| l.1 < target);
        let closest = match (up.checked_sub(1), levels.get(up)) {
            (Some(below), Some(at)) if target - levels[below].1 < at.1 - target => below,
            (Some(below), None) => below,
            _ => up,
        };
        let j = closest.clamp(next_free, last_free);
        fractions.push(match levels.get(j + 1) {
            Some(next) => (levels[j].0 + next.0) / 2.0,
            None => 1.0,
        });
        next_free = j + 1;
    }
    Ok(fractions)
}
