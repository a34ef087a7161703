//! Runs one workload: set-up, the failure-free reference, the per-layer
//! probes (traced runs only), then cycles of jobs until the measuring time
//! is up. Every job's output is checked against the reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imitator::{run_edge_cut, run_vertex_cut, RecoveryReport, RunConfig, RunReport};
use imitator_algos::{als_rmse, Als, PageRank, Sssp};
use imitator_cluster::FailurePlan;
use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::{Graph, Vid};
use imitator_metrics::{CommBreakdown, CommStats, PhaseTimes, PoolStats, SuspicionStats};
use imitator_partition::{
    EdgeCut, EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCut, VertexCutPartitioner,
};
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::{Dfs, DfsConfig, DfsStats};

use crate::check;
use crate::probe::{self, Probes};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{Engine, JobSpec, Mode, Workload, NODES, SCALE};

/// Graphs per run, each from its own seed. Cycles rotate over them, so a
/// run's medians average over graph structure (load balance, frontier
/// shapes) instead of depending on one draw; each graph is also one
/// repetition of the set-up.
pub const GRAPHS: usize = 4;
/// REP commit gaps a run collects at least, so the p90 rule holds.
const MIN_REP_GAPS: usize = 100;

/// Training RMSE of a value vector, for programs the ALS rule applies to.
pub type RmseFn<V> = fn(&Graph, &[V]) -> f64;

/// A partitioning, per engine.
pub enum Cut {
    /// Edge-cut placement.
    Ec(EdgeCut),
    /// Vertex-cut placement.
    Vc(VertexCut),
}

/// What one job reported, with its output check.
#[derive(Debug, Clone)]
pub struct JobRec {
    /// The job's spec.
    pub spec: JobSpec,
    /// Sequence number within the run (1-based).
    pub id: u64,
    /// Wall time of the run call.
    pub wall: Duration,
    /// `RunReport::elapsed`.
    pub elapsed: Duration,
    /// Gaps between consecutive commit stamps, ms, crash stall excluded.
    pub gaps_ms: Vec<f64>,
    /// Longest commit gap of a crash job, ms.
    pub stall_ms: Option<f64>,
    /// Logical sync traffic (`RunReport::comm`).
    pub comm: CommStats,
    /// Fabric traffic by kind.
    pub fabric: CommBreakdown,
    /// Suppressed sync records.
    pub suppressed: u64,
    /// Runner phase breakdown (max across nodes).
    pub phases: PhaseTimes,
    /// Worker-pool counters.
    pub pool: PoolStats,
    /// Checkpoint write time.
    pub ckpt_time: Duration,
    /// Checkpoint epochs committed (commits at a multiple of the interval).
    pub ckpt_epochs: u64,
    /// Recovery episodes.
    pub recoveries: Vec<RecoveryReport>,
    /// Sum of per-node state bytes.
    pub mem_bytes: usize,
    /// Extra FT replicas.
    pub extra_replicas: usize,
    /// Detector activity.
    pub suspicion: SuspicionStats,
    /// DFS activity.
    pub dfs: DfsStats,
    /// Vertices differing bitwise from the reference.
    pub mismatched: usize,
    /// Why the job failed (panic or output check), if it did.
    pub failure: Option<String>,
    /// Whether the failure has exactly the signature of the job's known
    /// defect (see [`JobSpec::known_defect`]).
    pub known_defect: bool,
}

impl JobRec {
    /// Whether the runner returned (it did not panic).
    pub fn ran(&self) -> bool {
        self.wall > Duration::ZERO
    }

    /// Wall time of the call outside `RunReport::elapsed`: in-run load and
    /// teardown.
    pub fn outside(&self) -> Duration {
        self.wall.saturating_sub(self.elapsed)
    }
}

/// One cycle: the jobs plus process CPU time over the cycle.
#[derive(Debug, Clone)]
pub struct CycleRec {
    /// The cycle's jobs.
    pub jobs: Vec<JobRec>,
    /// User+sys CPU seconds of the process during the cycle.
    pub cpu_s: f64,
    /// Wall time of the whole cycle, checks included.
    pub wall: Duration,
    /// Whether spans were recorded for this cycle.
    pub traced: bool,
    /// Share of host CPU time stolen by the hypervisor during the cycle.
    pub steal_share: f64,
    /// Host calibration time measured before the cycle, ms.
    pub calib_ms: f64,
}

/// Everything a run measured.
pub struct RunData {
    /// Graph generation time per set-up repetition.
    pub gen: Vec<Duration>,
    /// Partitioning time per set-up repetition.
    pub partition: Vec<Duration>,
    /// Measured cycles.
    pub cycles: Vec<CycleRec>,
    /// Per-layer probes (traced runs only).
    pub probes: Option<Probes>,
    /// Whether the reference run completed.
    pub reference_ok: bool,
    /// Graph size, for the banner.
    pub vertices: usize,
    /// Graph size, for the banner.
    pub edges: usize,
    /// Peak resident memory at the end of the run.
    pub peak_rss_mib: f64,
    /// Spans of a traced run.
    pub tracer: Tracer,
}

/// The program under test with its graph, partitioning and reference.
pub struct Prepared<P: VertexProgram> {
    /// Input graph.
    pub g: Graph,
    /// Partitioning.
    pub cut: Cut,
    /// Vertex program.
    pub prog: Arc<P>,
    /// Degrees of `g`.
    pub degrees: Degrees,
    /// Iteration budget.
    pub max_iters: u64,
    /// Failure-free `FtMode::None` values.
    pub reference: Vec<P::Value>,
    /// RMSE of the reference, for the ALS rule.
    pub reference_rmse: Option<f64>,
    /// RMSE of a value vector, for programs the ALS rule applies to.
    pub rmse: Option<RmseFn<P::Value>>,
    /// Sync records per node and superstep in the reference run.
    pub records_per_step: usize,
}

/// Runs `workload` and returns what it measured.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunData {
    match workload {
        Workload::PagerankEc | Workload::CrashEc => drive(
            workload,
            seed,
            seconds,
            traced,
            |_| PageRank::new(0.85, 0.0),
            None,
        ),
        Workload::SsspRoadHb => drive(
            workload,
            seed,
            seconds,
            traced,
            |_| Sssp::from_source(Vid::new(0)),
            None,
        ),
        Workload::AlsVc => drive(
            workload,
            seed,
            seconds,
            traced,
            |g| Als::for_bipartite(8, 0.1, 1e-4, g.num_vertices() * 10 / 11),
            Some(als_rmse),
        ),
    }
}

fn partition(engine: Engine, g: &Graph) -> Cut {
    match engine {
        Engine::EdgeCut => Cut::Ec(HashEdgeCut.partition(g, NODES)),
        Engine::VertexCut => Cut::Vc(RandomVertexCut.partition(g, NODES)),
    }
}

impl<P> Prepared<P>
where
    P: VertexProgram,
    P::Value: Encode + Decode + imitator_metrics::MemSize,
    P::Accum: Encode + Decode,
{
    /// Runs one job through the public runner, timing the call from
    /// outside. A panic inside the runner is caught and returned.
    pub fn execute(
        &self,
        cfg: RunConfig,
        failures: Vec<FailurePlan>,
    ) -> Result<(RunReport<P::Value>, DfsStats, Duration), String> {
        let dfs = Dfs::new(DfsConfig::hdfs_like());
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| match &self.cut {
            Cut::Ec(c) => run_edge_cut(
                &self.g,
                c,
                Arc::clone(&self.prog),
                cfg,
                failures,
                dfs.clone(),
            ),
            Cut::Vc(c) => run_vertex_cut(
                &self.g,
                c,
                Arc::clone(&self.prog),
                cfg,
                failures,
                dfs.clone(),
            ),
        }));
        let wall = t.elapsed();
        match out {
            Ok(report) => Ok((report, dfs.stats(), wall)),
            Err(e) => Err(e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "runner panicked".into())),
        }
    }

    fn job(&self, spec: JobSpec, id: u64, tracer: &mut Tracer) -> JobRec {
        let run = tracer.span("runner", id, || {
            self.execute(spec.config(self.max_iters), spec.failures())
        });
        let check_span = tracer.enter("check", id);
        let rec = match run {
            Ok((r, dfs, wall)) => self.record(spec, id, r, dfs, wall),
            Err(msg) => JobRec {
                spec,
                id,
                wall: Duration::ZERO,
                elapsed: Duration::ZERO,
                gaps_ms: Vec::new(),
                stall_ms: None,
                comm: CommStats::default(),
                fabric: CommBreakdown::default(),
                suppressed: 0,
                phases: PhaseTimes::new(),
                pool: PoolStats::default(),
                ckpt_time: Duration::ZERO,
                ckpt_epochs: 0,
                recoveries: Vec::new(),
                mem_bytes: 0,
                extra_replicas: 0,
                suspicion: SuspicionStats::default(),
                dfs: DfsStats::default(),
                mismatched: self.reference.len(),
                failure: Some(format!("panicked: {msg}")),
                known_defect: false,
            },
        };
        tracer.exit(check_span);
        rec
    }

    fn record(
        &self,
        spec: JobSpec,
        id: u64,
        r: RunReport<P::Value>,
        dfs: DfsStats,
        wall: Duration,
    ) -> JobRec {
        let mut gaps_ms: Vec<f64> = r
            .timeline
            .windows(2)
            .map(|w| (w[1].1.saturating_sub(w[0].1)).as_secs_f64() * 1e3)
            .collect();
        let stall_ms = spec.crash.and_then(|_| {
            let (i, &max) = gaps_ms
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))?;
            gaps_ms.remove(i);
            Some(max)
        });
        let ckpt_epochs = match spec.mode {
            Mode::Ckpt => r
                .timeline
                .iter()
                .filter(|(it, _)| it % crate::workload::CKPT_INTERVAL == 0)
                .count() as u64,
            _ => 0,
        };
        let mismatched = check::mismatches(&r.values, &self.reference);
        let rmse = self
            .rmse
            .zip(self.reference_rmse)
            .map(|(f, want)| (f(&self.g, &r.values), want));
        let failure = check::verdict(spec.rule, mismatched.len(), rmse)
            .err()
            .map(|why| match mismatched.first() {
                Some(&v) if v < r.values.len() && v < self.reference.len() => format!(
                    "{why}; first v{v}: got {:?}, reference {:?}",
                    r.values[v], self.reference[v]
                ),
                _ => why,
            });
        let known_defect = failure.is_some()
            && spec.known_defect.is_some()
            && check::only_isolated_at_initial(
                &mismatched,
                |v| {
                    let vid = Vid::from_index(v);
                    self.degrees.in_degree(vid) == 0 && self.degrees.out_degree(vid) == 0
                },
                |v| r.values.get(v) == Some(&self.prog.init(Vid::from_index(v), &self.degrees)),
            );
        JobRec {
            spec,
            id,
            wall,
            elapsed: r.elapsed,
            gaps_ms,
            stall_ms,
            comm: r.comm,
            fabric: r.fabric,
            suppressed: r.suppressed_syncs,
            phases: r.phases,
            pool: r.pool,
            ckpt_time: r.ckpt_time,
            ckpt_epochs,
            recoveries: r.recoveries,
            mem_bytes: r.mem_bytes.iter().sum(),
            extra_replicas: r.extra_replicas,
            suspicion: r.suspicion,
            dfs,
            mismatched: mismatched.len(),
            failure,
            known_defect,
        }
    }
}

/// The graph seeds of a run: `GRAPHS` consecutive seeds derived from the
/// benchmark seed, so two benchmark seeds never share a graph.
pub fn graph_seeds(seed: u64) -> Vec<u64> {
    (0..GRAPHS as u64)
        .map(|i| seed.wrapping_mul(GRAPHS as u64).wrapping_add(i))
        .collect()
}

fn drive<P, F>(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    make_prog: F,
    rmse: Option<RmseFn<P::Value>>,
) -> RunData
where
    P: VertexProgram,
    P::Value: Encode + Decode + imitator_metrics::MemSize,
    P::Accum: Encode + Decode,
    F: Fn(&Graph) -> P,
{
    let mut tracer = Tracer::new(traced);
    let root = tracer.enter("bench", 0);

    // Set-up, once per graph: generation, partitioning, and the
    // failure-free reference (which is excluded from every metric).
    let (mut gen, mut part) = (Vec::new(), Vec::new());
    let mut preps = Vec::new();
    let mut reference_ok = true;
    for graph_seed in graph_seeds(seed) {
        let t = Instant::now();
        let g = tracer.span("graph.gen", 0, || {
            workload.dataset().generate(SCALE, graph_seed)
        });
        gen.push(t.elapsed());
        let t = Instant::now();
        let cut = tracer.span("partition", 0, || partition(workload.engine(), &g));
        part.push(t.elapsed());
        let prog = Arc::new(make_prog(&g));
        let mut prep = Prepared {
            degrees: Degrees::of(&g),
            g,
            cut,
            prog,
            max_iters: workload.max_iters(),
            reference: Vec::new(),
            reference_rmse: None,
            rmse,
            records_per_step: 1,
        };
        let reference = tracer.span("reference", 0, || {
            prep.execute(JobSpec::reference_config(prep.max_iters), Vec::new())
        });
        match reference {
            Ok((r, _, _)) => {
                let offered = r.comm.messages + r.suppressed_syncs;
                prep.records_per_step =
                    (offered / r.iterations.max(1) / NODES as u64).max(1) as usize;
                prep.reference_rmse = prep.rmse.map(|f| f(&prep.g, &r.values));
                prep.reference = r.values;
            }
            Err(msg) => {
                eprintln!("reference run on graph seed {graph_seed} failed: {msg}");
                reference_ok = false;
            }
        }
        preps.push(prep);
    }

    let probes = (traced && reference_ok).then(|| probe::run(&preps[0], workload, &mut tracer));

    // Cycles rotate over the graphs; a run ends after whole rounds. A
    // traced run needs an untraced round too, for the tracing overhead.
    let min_cycles = if traced { 2 * GRAPHS } else { GRAPHS };
    let mut cycles: Vec<CycleRec> = Vec::new();
    let mut rep_gaps = 0usize;
    let mut next_id = 1u64;
    let start = Instant::now();
    while reference_ok
        && (!cycles.len().is_multiple_of(GRAPHS)
            || cycles.len() < min_cycles
            || rep_gaps < MIN_REP_GAPS
            || start.elapsed().as_secs_f64() < seconds)
    {
        let prep = &preps[cycles.len() % GRAPHS];
        // A traced run alternates traced and untraced rounds; the
        // difference of their cycle wall times is the tracing overhead.
        // Untraced cycles keep one wrapper span, so their time is not
        // counted as unattributed.
        let trace_this = traced && (cycles.len() / GRAPHS).is_multiple_of(2);
        let calib = sys::calibrate().as_secs_f64() * 1e3;
        let t = Instant::now();
        let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
        let st0 = sys::host_steal_jiffies().unwrap_or((0, 1));
        let span = tracer.enter(
            if trace_this || !traced {
                "cycle"
            } else {
                "cycle.untraced"
            },
            0,
        );
        tracer.set_on(trace_this);
        let mut jobs = Vec::new();
        for spec in workload.cycle() {
            let id_span = tracer.enter("job", next_id);
            jobs.push(prep.job(spec, next_id, &mut tracer));
            tracer.exit(id_span);
            next_id += 1;
        }
        tracer.set_on(traced);
        tracer.exit(span);
        let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - cpu0;
        let st1 = sys::host_steal_jiffies().unwrap_or((0, 1));
        rep_gaps += jobs
            .iter()
            .filter(|j| matches!(j.spec.mode, Mode::Rep(_)))
            .map(|j| j.gaps_ms.len())
            .sum::<usize>();
        cycles.push(CycleRec {
            jobs,
            cpu_s,
            wall: t.elapsed(),
            traced: trace_this,
            steal_share: (st1.0 - st0.0) as f64 / (st1.1 - st0.1).max(1) as f64,
            calib_ms: calib,
        });
    }
    tracer.exit(root);

    RunData {
        gen,
        partition: part,
        cycles,
        probes,
        reference_ok,
        vertices: preps[0].g.num_vertices(),
        edges: preps[0].g.num_edges(),
        peak_rss_mib: sys::peak_rss_mib().unwrap_or(0.0),
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_seeds_are_disjoint_across_benchmark_seeds() {
        let a = graph_seeds(7);
        let b = graph_seeds(8);
        assert_eq!(a.len(), GRAPHS);
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(a, graph_seeds(7), "same seed, same inputs");
    }
}
