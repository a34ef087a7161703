//! Per-layer probes of a traced run: the set-up calls a job makes
//! internally (FT plan, local-graph build), one compute kernel pass on node
//! 0's local graph, the sync-frame codec on this workload's value type and
//! record count, and the barrier round trip of this workload's detector.
//! Each is timed from outside through the public entry point.

use std::hint::black_box;
use std::time::{Duration, Instant};

use imitator::plan::compute_ft_plan;
use imitator::wire::{decode_sync_frame, encode_sync_frame, SyncRecEnc};
use imitator_cluster::{BarrierOutcome, Cluster, NodeId, TransportKind};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, ec_compute_par, vc_partial_gather_par, Degrees,
    FtPlan, VcGatherIndex, VertexProgram,
};
use imitator_storage::codec::{Decode, Encode};

use crate::bench::{Cut, Prepared};
use crate::trace::Tracer;
use crate::workload::{Mode, Workload, NODES};

/// Repetitions of each probe.
const REPS: usize = 7;
/// Barrier round trips timed.
const BARRIERS: usize = 1_000;

/// What the probes measured; each vector holds one sample per repetition.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `compute_ft_plan` (K = 1, selfish optimisation on).
    pub plan: Vec<Duration>,
    /// `build_*_graphs` with the FT plan.
    pub build_rep: Vec<Duration>,
    /// `build_*_graphs` without FT replicas.
    pub build_none: Vec<Duration>,
    /// One compute pass at one thread on node 0's local graph.
    pub kernel: Vec<Duration>,
    /// Records per sync frame probed.
    pub records: usize,
    /// `encode_sync_frame` of one frame.
    pub encode: Vec<Duration>,
    /// `decode_sync_frame` of one frame.
    pub decode: Vec<Duration>,
    /// One `enter_barrier` round trip on node 0.
    pub barrier: Vec<Duration>,
    /// Barriers that reported a failure (expected zero).
    pub barrier_failures: usize,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Runs every probe against the prepared workload.
pub fn run<P>(prep: &Prepared<P>, workload: Workload, tracer: &mut Tracer) -> Probes
where
    P: VertexProgram,
    P::Value: Encode + Decode + imitator_metrics::MemSize,
    P::Accum: Encode + Decode,
{
    let mut p = Probes::default();
    let degrees = Degrees::of(&prep.g);
    let prog = &*prep.prog;
    let none = FtPlan::none(prep.g.num_vertices());
    let mut plan = none.clone();
    for _ in 0..REPS {
        let (out, d) = tracer.span("plan", 0, || {
            timed(|| match &prep.cut {
                Cut::Ec(c) => compute_ft_plan(&prep.g, c, 1, true, prog.selfish_compatible(), 0xF7),
                Cut::Vc(c) => compute_ft_plan(&prep.g, c, 1, true, prog.selfish_compatible(), 0xF7),
            })
        });
        plan = out;
        p.plan.push(d);
    }

    match &prep.cut {
        Cut::Ec(c) => {
            let mut lgs = Vec::new();
            for (ft, out) in [(&none, &mut p.build_none), (&plan, &mut p.build_rep)] {
                for _ in 0..REPS {
                    // The previous build is freed inside the span, so the
                    // layer owns the cost of its own data.
                    let (g, d) = tracer.span("engine.build", 0, || {
                        drop(std::mem::take(&mut lgs));
                        timed(|| build_edge_cut_graphs(&prep.g, c, ft, prog, &degrees))
                    });
                    out.push(d);
                    lgs = g;
                }
            }
            for _ in 0..REPS {
                let (_, d) = tracer.span("engine.kernel", 0, || {
                    timed(|| black_box(ec_compute_par(&lgs[0], prog, &degrees, 0, 1)))
                });
                p.kernel.push(d);
            }
        }
        Cut::Vc(c) => {
            let mut lgs = Vec::new();
            for (ft, out) in [(&none, &mut p.build_none), (&plan, &mut p.build_rep)] {
                for _ in 0..REPS {
                    // The previous build is freed inside the span, so the
                    // layer owns the cost of its own data.
                    let (g, d) = tracer.span("engine.build", 0, || {
                        drop(std::mem::take(&mut lgs));
                        timed(|| build_vertex_cut_graphs(&prep.g, c, ft, prog, &degrees))
                    });
                    out.push(d);
                    lgs = g;
                }
            }
            let index = VcGatherIndex::build(&lgs[0]);
            let mut partials = Vec::new();
            for _ in 0..REPS {
                let (_, d) = tracer.span("engine.kernel", 0, || {
                    timed(|| {
                        vc_partial_gather_par(&lgs[0], prog, &index, 1, &mut partials);
                        black_box(&partials);
                    })
                });
                p.kernel.push(d);
            }
        }
    }

    // Sync-frame codec on one superstep's records toward one node, with
    // this workload's values.
    p.records = prep.records_per_step;
    let values: Vec<Vec<u8>> = (0..p.records)
        .map(|i| {
            let mut b = Vec::new();
            prep.reference[i % prep.reference.len()].encode(&mut b);
            b
        })
        .collect();
    let recs: Vec<SyncRecEnc<'_>> = values
        .iter()
        .enumerate()
        .map(|(i, v)| SyncRecEnc {
            pos: i as u32,
            activate: i % 2 == 0,
            value: v,
            span: None,
        })
        .collect();
    let mut frame = Vec::new();
    for _ in 0..REPS {
        frame.clear();
        let (_, d) = tracer.span("wire.encode", 0, || {
            timed(|| encode_sync_frame(&recs, &mut frame))
        });
        p.encode.push(d);
    }
    for _ in 0..REPS {
        let (out, d) = tracer.span("wire.decode", 0, || {
            timed(|| decode_sync_frame::<P::Value>(black_box(&frame), |_| Vec::new()))
        });
        let n = out.expect("a self-encoded frame decodes").len();
        assert_eq!(n, p.records, "decoded record count");
        p.decode.push(d);
    }

    // Barrier round trips on a cluster with this workload's detector.
    let detector = workload
        .cycle()
        .into_iter()
        .find(|j| matches!(j.mode, Mode::Rep(_)))
        .expect("every workload runs a replication job")
        .config(prep.max_iters)
        .detector_config();
    let (barrier, failures) = tracer.span("coord.barrier", 0, || {
        let cluster: Cluster<()> =
            Cluster::with_detector(NODES, 0, detector, TransportKind::Channel);
        let ctxs: Vec<_> = (0..NODES)
            .map(|i| cluster.take_ctx(NodeId::from_index(i)))
            .collect();
        std::thread::scope(|s| {
            let mut ctxs = ctxs.into_iter();
            let me = ctxs.next().expect("node 0");
            let peers: Vec<_> = ctxs
                .map(|ctx| {
                    s.spawn(move || {
                        for _ in 0..BARRIERS {
                            ctx.enter_barrier();
                        }
                    })
                })
                .collect();
            let mut rtt = Vec::with_capacity(BARRIERS);
            let mut failed = 0;
            for _ in 0..BARRIERS {
                let (out, d) = timed(|| me.enter_barrier());
                failed += usize::from(matches!(out, BarrierOutcome::Failed(_)));
                rtt.push(d);
            }
            for h in peers {
                h.join().expect("barrier peer thread");
            }
            (rtt, failed)
        })
    });
    p.barrier = barrier;
    p.barrier_failures = failures;
    p
}
