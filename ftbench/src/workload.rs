//! The four workloads: what one cycle runs, on which graph and engine.
//!
//! Every job uses 4 simulated nodes, one worker thread per node, K = 1 and
//! an HDFS-like DFS. The load is a closed loop with one client: one thread
//! runs the jobs of a cycle back to back, then the next cycle.

use std::time::Duration;

use imitator::{DetectorKind, FtMode, RecoveryStrategy, RunConfig};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_graph::gen::Dataset;

use crate::check::Rule;

/// Simulated nodes per job.
pub const NODES: usize = 4;
/// Dataset scale (fraction of the paper's vertex count).
pub const SCALE: f64 = 0.05;
/// CKPT snapshot period in iterations.
pub const CKPT_INTERVAL: u64 = 4;
/// Relative RMSE distance allowed for vertex-cut Migration on ALS.
pub const ALS_RMSE_REL: f64 = 1e-6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EC PageRank: BASE, REP-Rebirth and CKPT per cycle.
    PagerankEc,
    /// EC SSSP on the road graph: BASE, then REP under the heartbeat
    /// detector.
    SsspRoadHb,
    /// EC PageRank with a crash: BASE, then REP-Rebirth, REP-Migration and
    /// CKPT under the heartbeat detector.
    CrashEc,
    /// Vertex-cut ALS with a crash: BASE, REP-Rebirth, REP-Migration.
    AlsVc,
}

/// Which engine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Edge-cut (`run_edge_cut`, hash partitioning).
    EdgeCut,
    /// Vertex-cut (`run_vertex_cut`, random vertex-cut).
    VertexCut,
}

/// The fault-tolerance mode of one job, as reports group them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No fault tolerance.
    None,
    /// Replication with the given recovery strategy.
    Rep(RecoveryStrategy),
    /// Checkpointing every [`CKPT_INTERVAL`] iterations, full snapshots.
    Ckpt,
}

/// One job of a cycle.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Short label for reports.
    pub label: &'static str,
    /// Fault-tolerance mode.
    pub mode: Mode,
    /// Failure detector.
    pub detector: DetectorKind,
    /// `(node, iteration)` of a crash before that iteration's barrier.
    pub crash: Option<(usize, u64)>,
    /// How the job's output is checked.
    pub rule: Rule,
    /// A known program defect that makes this job fail its check; the
    /// failure is still counted in `failed`.
    pub known_defect: Option<&'static str>,
}

/// EC Migration with the selfish-vertex optimisation leaves isolated
/// vertices mastered on the crashed node at their initial value.
pub const EC_MIGRATION_SELFISH_DEFECT: &str =
    "EC Migration with selfish_opt leaves isolated vertices of the crashed node at their initial value";

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PagerankEc,
        Workload::SsspRoadHb,
        Workload::CrashEc,
        Workload::AlsVc,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PagerankEc => "pagerank-ec",
            Workload::SsspRoadHb => "sssp-road-hb",
            Workload::CrashEc => "crash-ec",
            Workload::AlsVc => "als-vc",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated input graph.
    pub fn dataset(self) -> Dataset {
        match self {
            Workload::PagerankEc | Workload::CrashEc => Dataset::GWeb,
            Workload::SsspRoadHb => Dataset::RoadCa,
            Workload::AlsVc => Dataset::SynGl,
        }
    }

    /// The engine the jobs run on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::AlsVc => Engine::VertexCut,
            _ => Engine::EdgeCut,
        }
    }

    /// Iteration budget of every job (SSSP runs to quiescence).
    pub fn max_iters(self) -> u64 {
        match self {
            Workload::PagerankEc => 30,
            Workload::SsspRoadHb => 5_000,
            Workload::CrashEc => 20,
            Workload::AlsVc => 10,
        }
    }

    /// The jobs of one cycle, in run order. Every cycle opens with a
    /// failure-free BASE job (`FtMode::None`, oracle detector), the
    /// denominator of `ft_slowdown`: the jobs it is compared with run
    /// seconds later, so a change in host speed moves both.
    pub fn cycle(self) -> Vec<JobSpec> {
        let job = |label, mode, detector, crash| JobSpec {
            label,
            mode,
            detector,
            crash,
            rule: Rule::Bitwise,
            known_defect: None,
        };
        let (oracle, hb) = (DetectorKind::Oracle, DetectorKind::Heartbeat);
        let (rebirth, migration) = (RecoveryStrategy::Rebirth, RecoveryStrategy::Migration);
        match self {
            Workload::PagerankEc => vec![
                job("none", Mode::None, oracle, None),
                job("rep-rebirth", Mode::Rep(rebirth), oracle, None),
                job("ckpt", Mode::Ckpt, oracle, None),
            ],
            Workload::SsspRoadHb => vec![
                job("none", Mode::None, oracle, None),
                job("rep-rebirth", Mode::Rep(rebirth), hb, None),
            ],
            Workload::CrashEc => {
                let crash = Some((1, 10));
                vec![
                    job("none", Mode::None, oracle, None),
                    job("rep-rebirth", Mode::Rep(rebirth), hb, crash),
                    JobSpec {
                        known_defect: Some(EC_MIGRATION_SELFISH_DEFECT),
                        ..job("rep-migration", Mode::Rep(migration), hb, crash)
                    },
                    job("ckpt", Mode::Ckpt, hb, crash),
                ]
            }
            Workload::AlsVc => {
                let crash = Some((1, 5));
                vec![
                    job("none", Mode::None, oracle, None),
                    job("rep-rebirth", Mode::Rep(rebirth), oracle, crash),
                    JobSpec {
                        rule: Rule::RmseRel(ALS_RMSE_REL),
                        ..job("rep-migration", Mode::Rep(migration), oracle, crash)
                    },
                ]
            }
        }
    }
}

impl JobSpec {
    /// The run configuration of this job.
    pub fn config(&self, max_iters: u64) -> RunConfig {
        let ft = match self.mode {
            Mode::None => FtMode::None,
            Mode::Rep(recovery) => FtMode::Replication {
                tolerance: 1,
                selfish_opt: true,
                recovery,
            },
            Mode::Ckpt => FtMode::Checkpoint {
                interval: CKPT_INTERVAL,
                incremental: false,
            },
        };
        let mut cfg = RunConfig {
            num_nodes: NODES,
            max_iters,
            ft,
            detector: self.detector,
            hb_interval: Duration::from_millis(10),
            hb_timeout: Duration::from_millis(60),
            threads_per_node: 1,
            ..RunConfig::default()
        };
        cfg.standbys = cfg.standbys_needed();
        cfg
    }

    /// The injected failures of this job.
    pub fn failures(&self) -> Vec<FailurePlan> {
        self.crash
            .map(|(node, iteration)| FailurePlan {
                node: NodeId::from_index(node),
                iteration,
                point: FailPoint::BeforeBarrier,
            })
            .into_iter()
            .collect()
    }

    /// The failure-free reference configuration for this job's output.
    pub fn reference_config(max_iters: u64) -> RunConfig {
        JobSpec {
            label: "reference",
            mode: Mode::None,
            detector: DetectorKind::Oracle,
            crash: None,
            rule: Rule::Bitwise,
            known_defect: None,
        }
        .config(max_iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_cycle_has_a_replication_job_and_fixed_settings() {
        for w in Workload::ALL {
            let jobs = w.cycle();
            assert!(jobs.iter().any(|j| matches!(j.mode, Mode::Rep(_))));
            for j in jobs {
                let cfg = j.config(w.max_iters());
                assert_eq!(cfg.num_nodes, NODES);
                assert_eq!(cfg.threads_per_node, 1);
            }
        }
    }

    #[test]
    fn every_cycle_opens_with_a_base_job() {
        for w in Workload::ALL {
            let jobs = w.cycle();
            assert_eq!(jobs[0].mode, Mode::None, "{}", w.name());
            assert!(jobs[0].crash.is_none());
            assert!(jobs[1..].iter().all(|j| j.mode != Mode::None));
        }
    }

    #[test]
    fn only_vertex_cut_migration_uses_the_rmse_rule() {
        for w in Workload::ALL {
            for j in w.cycle() {
                let expect_rmse =
                    w == Workload::AlsVc && j.mode == Mode::Rep(RecoveryStrategy::Migration);
                assert_eq!(
                    matches!(j.rule, Rule::RmseRel(_)),
                    expect_rmse,
                    "{} {}",
                    w.name(),
                    j.label
                );
            }
        }
    }
}
