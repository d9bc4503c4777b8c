//! The traced run: both sessions ingest the stream as in the end-to-end
//! run, and every step is then replayed through each layer's public
//! functions with the inputs the session saw, inside spans recorded by
//! this module.
//!
//! Span tree of a warm step (`step` is the root):
//!
//! ```text
//! step
//! ├─ session.serial, session.dist2        the sessions' own ingest
//! ├─ replay                               the dist2 step, call by call
//! │  ├─ tensor.complement                 SparseTensor::complement
//! │  ├─ core.dtd                          dtd (serial factors, bit-checked)
//! │  ├─ core.dismastd                     dismastd_with_cache (bit-checked)
//! │  └─ tensor.fit                        KruskalTensor::fit
//! └─ layers                               the layers under core, one by one
//!    ├─ partition.grid                    GridPartition::build_with
//!    ├─ tensor.plan_build                 CellKernel::select over the cells
//!    ├─ tensor.mttkrp
//!    │  ├─ tensor.mttkrp.plan             MttkrpPlan::build_with
//!    │  ├─ tensor.mttkrp.t1 / .tN         pooled MTTKRP, 1 and nproc lanes
//!    ├─ tensor.gram, tensor.solve         Matrix::gram, RobustSolver
//!    ├─ cluster.spawn                     an empty 2-rank run
//!    ├─ cluster.allreduce  └─ rank0/1     3R² f64 allreduces
//!    └─ cluster.exchange   └─ rank0/1     the step's per-rank bytes
//! ```
//!
//! A cold step holds the sessions and `core.cold_start` (`dms_mg`) /
//! `core.cold_start.serial` (`cp_als`).

use crate::report::{median, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::workload::Stream;
use crate::{check_report, decomp_config, fail_rest, losses_agree, run_passes, Params, RANKS};
use dismastd_cluster::{AllreduceAlgo, Cluster, ClusterOptions, ClusterResult, Payload, WorkerCtx};
use dismastd_core::als::cp_als;
use dismastd_core::{
    dismastd_with_cache, dms_mg, dtd, ClusterConfig, DecompConfig, ExecutionMode, PlanCache,
    StepReport, StreamingSession,
};
use dismastd_partition::GridPartition;
use dismastd_tensor::ops::hadamard_skip;
use dismastd_tensor::{
    AdaptivePolicy, CellKernel, KruskalTensor, Matrix, MttkrpPlan, RobustSolver, SparseTensor,
    SparseTensorBuilder, ThreadPool,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics read from span self times: (span, metric).  The value
/// is the median over steps of the span's self time in that step.
const SPAN_METRICS: [(&str, &str); 14] = [
    ("tensor.complement", "tensor.complement_s"),
    ("tensor.fit", "tensor.fit_s"),
    ("tensor.mttkrp.t1", "tensor.mttkrp_s.t1"),
    ("tensor.mttkrp.tN", "tensor.mttkrp_s.tN"),
    ("tensor.plan_build", "tensor.plan_build_s"),
    ("tensor.gram", "tensor.gram_s"),
    ("tensor.solve", "tensor.solve_s"),
    ("partition.grid", "partition.grid_s"),
    ("cluster.spawn", "cluster.spawn_s"),
    ("core.dtd", "core.dtd_s"),
    ("core.dismastd", "core.dismastd_s"),
    ("core.cold_start", "core.cold_start_s"),
    ("core.cold_start.serial", "core.cold_start_s.serial"),
    ("step", "trace.step_self_s"),
];

/// Per-step values that are not span self times, collected by name.
#[derive(Debug, Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// Bitwise equality of two decompositions.
fn same_bits(a: &KruskalTensor, b: &KruskalTensor) -> bool {
    a.factors().len() == b.factors().len()
        && a.factors().iter().zip(b.factors()).all(|(x, y)| {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Everything the traced run carries across steps.
struct Run<'a> {
    stream: &'a Stream,
    cfg: DecompConfig,
    cluster: ClusterConfig,
    nproc: usize,
    tracer: Tracer,
    samples: Samples,
    out: Outcome,
    next_step: usize,
}

/// Runs traced passes for the budget and reports the per-layer metrics,
/// with every recorded span.
pub fn run(stream: &Stream, params: &Params) -> (Outcome, Tracer) {
    let mut run = Run {
        stream,
        cfg: decomp_config(params.nproc),
        cluster: ClusterConfig::new(RANKS),
        nproc: params.nproc,
        tracer: Tracer::default(),
        samples: Samples::default(),
        out: Outcome::default(),
        next_step: 0,
    };
    run_passes(params, |_| run.pass());
    if let Err(why) = run.tracer.check_nesting() {
        run.out.run_failures.push(why);
    }
    run.finish()
}

impl Run<'_> {
    /// One trip of both sessions through the stream, every step traced.
    fn pass(&mut self) {
        let mut serial = StreamingSession::new(self.cfg, ExecutionMode::Serial);
        let mut dist =
            StreamingSession::new(self.cfg, ExecutionMode::Distributed(self.cluster.clone()));
        let (mut hits0, mut lookups0) = (0, 0);
        for k in 0..self.stream.snapshots.len() {
            let step = self.next_step;
            self.next_step += 1;
            let root = self.tracer.begin_step("step", step);
            let ok = if k == 0 {
                self.cold_step(root, &mut serial, &mut dist)
            } else {
                self.warm_step(root, k, &mut serial, &mut dist)
            };
            self.tracer.end(root);
            if !ok {
                return;
            }
            if k == 0 {
                hits0 = dist.plan_cache().hits();
                lookups0 = hits0 + dist.plan_cache().misses();
            }
        }
        let hits = dist.plan_cache().hits() - hits0;
        let lookups = dist.plan_cache().hits() + dist.plan_cache().misses() - lookups0;
        self.samples.add(
            "core.plan_cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
    }

    /// Ingests snapshot `k` into both sessions under `root`.  Returns the
    /// reports, or `None` after counting the failure (the pass stops).
    fn ingest_both(
        &mut self,
        root: SpanId,
        k: usize,
        serial: &mut StreamingSession,
        dist: &mut StreamingSession,
    ) -> Option<(StepReport, StepReport)> {
        let snapshot = &self.stream.snapshots[k];
        let mut reports = Vec::with_capacity(2);
        for (name, label, session) in [
            ("session.serial", "serial", &mut *serial),
            ("session.dist2", "dist2", &mut *dist),
        ] {
            self.out.attempted += 1;
            match self
                .tracer
                .child(name, root, |_, _| session.ingest(snapshot))
            {
                Ok(r) => {
                    if let Err(why) = check_report(self.stream, k, &r) {
                        self.out.fail(format!("{label} step {k}: {why}"));
                    }
                    reports.push(r);
                }
                Err(e) => {
                    fail_rest(&mut self.out, self.stream, label, k, &e);
                    return None;
                }
            }
        }
        let d = reports.pop()?;
        let s = reports.pop()?;
        Some((s, d))
    }

    /// The cold start under `root`: both sessions, then `dms_mg` and
    /// `cp_als` replayed and bit-checked.
    fn cold_step(
        &mut self,
        root: SpanId,
        serial: &mut StreamingSession,
        dist: &mut StreamingSession,
    ) -> bool {
        if self.ingest_both(root, 0, serial, dist).is_none() {
            return false;
        }
        let snapshot = &self.stream.snapshots[0];
        let (cfg, cluster) = (self.cfg, &self.cluster);
        let replay_d = self.tracer.child("core.cold_start", root, |_, _| {
            dms_mg(snapshot, &cfg, cluster)
        });
        let replay_s = self.tracer.child("core.cold_start.serial", root, |_, _| {
            cp_als(snapshot, &cfg)
        });
        let mut ok = true;
        for (label, replay, session) in [
            ("dms_mg", replay_d.map(|o| o.kruskal), &*dist),
            ("cp_als", replay_s.map(|o| o.kruskal), &*serial),
        ] {
            match (replay, session.factors()) {
                (Ok(r), Some(f)) if same_bits(&r, f) => {}
                (Ok(_), _) => self.out.fail(format!(
                    "cold start: replayed {label} factors differ from the session's"
                )),
                (Err(e), _) => {
                    self.out.fail(format!("cold start: replayed {label}: {e}"));
                    ok = false;
                }
            }
        }
        ok
    }

    /// Warm step `k` under `root`: both sessions, the replayed step and the
    /// layers under it.
    fn warm_step(
        &mut self,
        root: SpanId,
        k: usize,
        serial: &mut StreamingSession,
        dist: &mut StreamingSession,
    ) -> bool {
        let (Some(old_s), Some(old_d)) = (serial.factors().cloned(), dist.factors().cloned())
        else {
            self.out
                .fail(format!("warm step {k}: a session has no factors"));
            return false;
        };
        let prev_shape = dist.shape().to_vec();
        let Some((rs, rd)) = self.ingest_both(root, k, serial, dist) else {
            return false;
        };
        if !losses_agree(rs.loss, rd.loss) {
            self.out.fail(format!(
                "warm step {k}: dist2 loss {} vs serial {}",
                rd.loss, rs.loss
            ));
        }
        let (Some(new_s), Some(new_d)) = (serial.factors().cloned(), dist.factors().cloned())
        else {
            self.out
                .fail(format!("warm step {k}: a session lost its factors"));
            return false;
        };
        let snapshot = &self.stream.snapshots[k];
        let (cfg, cluster) = (self.cfg, &self.cluster);

        // ---- replay of the session step, call by call ------------------
        let replayed = self.tracer.child("replay", root, |t, replay| {
            let comp = t.child("tensor.complement", replay, |_, _| {
                snapshot.complement(&prev_shape)
            })?;
            let s = t.child("core.dtd", replay, |_, _| dtd(&comp, old_s.factors(), &cfg))?;
            let mut cache = PlanCache::new();
            let d = t.child("core.dismastd", replay, |_, _| {
                dismastd_with_cache(&comp, old_d.factors(), &cfg, cluster, &mut cache)
            })?;
            let fit = t.child("tensor.fit", replay, |_, _| d.kruskal.fit(snapshot))?;
            Ok::<_, dismastd_tensor::TensorError>((comp, s, d, fit))
        });
        let (comp, s, d, fit) = match replayed {
            Ok(x) => x,
            Err(e) => {
                self.out.fail(format!("warm step {k}: replay: {e}"));
                return false;
            }
        };
        if !same_bits(&s.kruskal, &new_s) {
            self.out.fail(format!(
                "warm step {k}: replayed dtd factors differ from the serial session's"
            ));
        }
        if !same_bits(&d.kruskal, &new_d) {
            self.out.fail(format!(
                "warm step {k}: replayed dismastd factors differ from the dist2 session's"
            ));
        }
        if fit.to_bits() != rd.fit.to_bits() {
            self.out.fail(format!(
                "warm step {k}: replayed fit {fit} vs session {}",
                rd.fit
            ));
        }
        self.samples.add(
            "core.dismastd_prep_s",
            (d.elapsed - d.iter_elapsed).as_secs_f64(),
        );
        self.samples.add("core.iterations", rd.iterations as f64);
        if let Some(c) = &rd.comm {
            self.samples.add("cluster.bytes_per_step", c.bytes as f64);
            self.samples
                .add("cluster.wire_bytes_per_step", c.wire_bytes() as f64);
            self.samples
                .add("cluster.messages_per_step", c.messages as f64);
            self.samples
                .add("cluster.collectives_per_step", c.collectives as f64);
        }

        // ---- the layers under core, one by one -------------------------
        let bytes_by_rank = rd
            .comm
            .as_ref()
            .map(|c| c.bytes_by_sender.clone())
            .unwrap_or_default();
        let layers = self.tracer.child("layers", root, |t, layers| {
            replay_layers(
                t,
                layers,
                &comp,
                &new_d,
                &cfg,
                cluster,
                self.nproc,
                rd.iterations,
                &bytes_by_rank,
            )
        });
        match layers {
            Ok(values) => {
                for (name, v) in values {
                    self.samples.add(name, v);
                }
                true
            }
            Err(e) => {
                self.out.fail(format!("warm step {k}: layers: {e}"));
                false
            }
        }
    }

    /// Turns spans and samples into the per-layer metrics.
    fn finish(mut self) -> (Outcome, Tracer) {
        // Self time of every span, summed per (step, name).
        let mut per_step: BTreeMap<(&str, usize), f64> = BTreeMap::new();
        for (id, span) in self.tracer.spans().iter().enumerate() {
            *per_step.entry((span.name, span.step)).or_default() +=
                self.tracer.self_time_ns(id) as f64 / 1e9;
        }
        let by_name = |name: &str| -> Vec<f64> {
            per_step
                .range((name, 0)..=(name, usize::MAX))
                .map(|(_, &v)| v)
                .collect()
        };
        // Overhead and session overhead compare, per warm step, the
        // session's dist2 ingest with the replayed calls that make it up.
        let mut overhead = Vec::new();
        let mut session_overhead = Vec::new();
        for (&(name, step), &ingest) in
            per_step.range(("session.dist2", 0)..=("session.dist2", usize::MAX))
        {
            debug_assert_eq!(name, "session.dist2");
            let part = |n: &str| per_step.get(&(n, step)).copied();
            if let (Some(c), Some(d), Some(f)) = (
                part("tensor.complement"),
                part("core.dismastd"),
                part("tensor.fit"),
            ) {
                overhead.push((c + d + f) / ingest);
                session_overhead.push(ingest - (c + d + f));
            }
        }
        let out = &mut self.out;
        for (span, metric) in SPAN_METRICS {
            let v = by_name(span);
            out.push(metric, median(&v), "s", v.len());
        }
        for (name, unit) in [
            ("cluster.exchange_s", "s"),
            ("core.dismastd_prep_s", "s"),
            ("cluster.allreduce_s", "s"),
            ("cluster.allreduce_wait_s", "s"),
            ("tensor.mttkrp_flops", "flop.computed"),
            ("tensor.mttkrp_bytes", "B.computed"),
            ("partition.imbalance", "ratio"),
            ("cluster.bytes_per_step", "B"),
            ("cluster.wire_bytes_per_step", "B"),
            ("cluster.messages_per_step", "count"),
            ("cluster.collectives_per_step", "count"),
            ("core.plan_cache_hit_ratio", "ratio"),
            ("core.iterations", "count"),
        ] {
            let v = self.samples.0.get(name).cloned().unwrap_or_default();
            out.push(name, median(&v), unit, v.len());
        }
        out.push(
            "core.session_overhead_s",
            median(&session_overhead),
            "s",
            session_overhead.len(),
        );
        out.push(
            "trace.overhead_ratio",
            median(&overhead),
            "ratio",
            overhead.len(),
        );
        (self.out, self.tracer)
    }
}

/// Replays the layers under `core` for one warm step: partitioning, plan
/// build, MTTKRP, Gram, solve and the cluster primitives, each in its own
/// span.  Returns the non-span values (computed work, imbalance, rank
/// timings).
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    t: &mut Tracer,
    parent: SpanId,
    comp: &SparseTensor,
    factors: &KruskalTensor,
    cfg: &DecompConfig,
    cluster: &ClusterConfig,
    nproc: usize,
    iterations: usize,
    bytes_by_rank: &[u64],
) -> Result<Vec<(&'static str, f64)>, String> {
    let err = |e: dismastd_tensor::TensorError| e.to_string();
    let factors = factors.factors();
    let order = comp.order();
    let rank = cfg.rank;
    let mut values = Vec::new();

    // Partitioning and per-cell kernel selection, as `run_distributed` does them.
    let parts = vec![RANKS; order];
    let grid = t
        .child("partition.grid", parent, |_, _| {
            GridPartition::build_with(
                comp,
                cluster.partitioner,
                &parts,
                RANKS,
                cluster.cell_assignment,
            )
        })
        .map_err(err)?;
    let loads = grid.worker_loads(comp);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    values.push((
        "partition.imbalance",
        *loads.iter().max().unwrap_or(&0) as f64 / mean,
    ));
    let build_pool = ThreadPool::new(cfg.threads.resolve());
    let kernels = t
        .child("tensor.plan_build", parent, |_, _| {
            let mut cells: BTreeMap<usize, SparseTensorBuilder> = BTreeMap::new();
            for (idx, v) in comp.iter() {
                cells
                    .entry(grid.cell_of(idx))
                    .or_insert_with(|| SparseTensorBuilder::new(comp.shape().to_vec()))
                    .push(idx, v)?;
            }
            let policy = AdaptivePolicy::default();
            cells
                .into_values()
                .map(|b| CellKernel::select(b.build()?, &policy, &build_pool))
                .collect::<dismastd_tensor::Result<Vec<_>>>()
        })
        .map_err(err)?;
    black_box(kernels);

    // MTTKRP over all modes, once per ALS iteration, at 1 and nproc lanes.
    let lanes_1 = ThreadPool::new(1);
    let lanes_n = ThreadPool::new(nproc);
    t.child("tensor.mttkrp", parent, |t, mttkrp| {
        let plan = t
            .child("tensor.mttkrp.plan", mttkrp, |_, _| {
                MttkrpPlan::build_with(comp, &lanes_n)
            })
            .map_err(err)?;
        let mut outs: Vec<Matrix> = factors
            .iter()
            .map(|f| Matrix::zeros(f.rows(), rank))
            .collect();
        for (name, pool) in [
            ("tensor.mttkrp.t1", &lanes_1),
            ("tensor.mttkrp.tN", &lanes_n),
        ] {
            t.child(name, mttkrp, |_, _| {
                for _ in 0..iterations {
                    for (mode, out) in outs.iter_mut().enumerate() {
                        plan.mttkrp_into_pooled(factors, mode, out, pool)?;
                    }
                }
                Ok::<_, dismastd_tensor::TensorError>(())
            })
            .map_err(err)?;
        }
        black_box(&outs);
        // Computed, not measured: per nonzero and output column a sweep
        // of one mode does N−1 multiplies by the other modes' rows, one by
        // the value and one add; it reads the layout tables and the factor
        // rows and writes the output rows.
        let nnz = comp.nnz() as f64;
        let sweeps = iterations as f64;
        let rows: usize = factors.iter().map(Matrix::rows).sum();
        values.push((
            "tensor.mttkrp_flops",
            sweeps * (order * order) as f64 * nnz * rank as f64,
        ));
        values.push((
            "tensor.mttkrp_bytes",
            sweeps * (plan.layout_bytes() + order * rows * rank * 8) as f64,
        ));
        Ok::<_, String>(())
    })?;

    // Gram and solve per mode, once per ALS iteration.
    let grams: Vec<Matrix> = factors.iter().map(Matrix::gram).collect();
    let denominators: Vec<Matrix> = (0..order)
        .map(|n| hadamard_skip(&grams, n))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    t.child("tensor.gram", parent, |_, _| {
        for _ in 0..iterations {
            for f in factors {
                black_box(f.gram());
            }
        }
    });
    let solver = RobustSolver::new(cfg.numerics.solver);
    t.child("tensor.solve", parent, |_, _| {
        for _ in 0..iterations {
            for (f, d) in factors.iter().zip(&denominators) {
                let decision = solver.decide(d)?;
                black_box(solver.apply(f, d, &decision)?);
            }
        }
        Ok::<_, dismastd_tensor::TensorError>(())
    })
    .map_err(err)?;

    // Cluster primitives on a 2-rank run.
    let opts = ClusterOptions::default();
    t.child("cluster.spawn", parent, |_, _| {
        Cluster::try_run_with_opts(RANKS, &opts, |_| Ok(()))
    })
    .map_err(|e| e.to_string())?;
    // One allreduce of the fused Gram triple per mode per iteration, plus
    // the setup round.
    let rounds = (iterations + 1) * order;
    let allreduce = |ctx: &mut WorkerCtx| -> ClusterResult<(Instant, Instant)> {
        let mut buf = vec![1.0f64; 3 * rank * rank];
        let start = Instant::now();
        for _ in 0..rounds {
            ctx.try_allreduce_sum_with(&mut buf, AllreduceAlgo::Auto)?;
        }
        Ok((start, Instant::now()))
    };
    let (slowest, fastest) = rank_spans(t, parent, "cluster.allreduce", &opts, allreduce)?;
    values.push(("cluster.allreduce_s", slowest));
    values.push(("cluster.allreduce_wait_s", slowest - fastest));
    // One exchange moving each rank's bytes of the step to its peer.
    let exchange = |ctx: &mut WorkerCtx| -> ClusterResult<(Instant, Instant)> {
        let me = ctx.rank();
        let n = bytes_by_rank.get(me).copied().unwrap_or(0) as usize / 8;
        let outgoing = (0..ctx.world())
            .map(|d| {
                if d == me {
                    Payload::Empty
                } else {
                    Payload::F64(vec![0.0; n])
                }
            })
            .collect();
        let start = Instant::now();
        black_box(ctx.try_exchange(outgoing)?);
        Ok((start, Instant::now()))
    };
    let (slowest, _) = rank_spans(t, parent, "cluster.exchange", &opts, exchange)?;
    values.push(("cluster.exchange_s", slowest));
    Ok(values)
}

/// Runs `body` on a 2-rank cluster inside a span named `name`, recording
/// each rank's timed interval as a child span.  Returns the slowest and the
/// fastest rank's seconds.
fn rank_spans(
    t: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    opts: &ClusterOptions,
    body: impl Fn(&mut WorkerCtx) -> ClusterResult<(Instant, Instant)> + Sync,
) -> Result<(f64, f64), String> {
    const RANK_SPANS: [&str; RANKS] = ["rank0", "rank1"];
    t.child(name, parent, |t, span| {
        let (intervals, _) =
            Cluster::try_run_with_opts(RANKS, opts, &body).map_err(|e| e.to_string())?;
        let secs: Vec<f64> = intervals
            .into_iter()
            .zip(RANK_SPANS)
            .map(|((start, end), rank)| {
                t.record(rank, span, start, end);
                (end - start).as_secs_f64()
            })
            .collect();
        let slowest = secs.iter().copied().fold(0.0, f64::max);
        let fastest = secs.iter().copied().fold(f64::INFINITY, f64::min);
        Ok((slowest, fastest))
    })
}
