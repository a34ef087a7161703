//! Turns a run's records into named metrics with units and sample counts,
//! prints them, and builds the result line.

use std::fmt::Write as _;
use std::time::Duration;

use imitator::RecoveryStrategy;
use imitator_cluster::TICKS_PER_MS;
use imitator_metrics::CommKind;
use imitator_storage::DfsConfig;

use crate::bench::{JobRec, RunData};
use crate::stats::{self, median};
use crate::workload::{Mode, NODES};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics every workload reports, with bounds in
/// `BENCHMARK.json`.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("ft_slowdown", "ratio"),
    def("wire_mib", "MiB"),
    def("state_mib", "MiB"),
    def("peak_rss_mib", "MiB"),
];

/// Wall-clock and CPU end-to-end figures. On a shared host they move with
/// co-tenant load by more than any useful bound, so they are printed on
/// every run and carried with the per-layer metrics instead of being gated.
pub const UNGATED_END_TO_END: &[Def] = &[
    def("cycle_s", "s"),
    def("step_ms_rep", "ms"),
    def("step_ms_rep_p90", "ms"),
    def("cpu_s", "s"),
    def("step_ms_none", "ms"),
];

/// End-to-end metrics of particular modes: printed where they apply and
/// carried with the per-layer metrics (zero where they do not apply).
pub const MODE_END_TO_END: &[Def] = &[
    def("step_ms_ckpt", "ms"),
    def("ckpt_write_ms", "ms"),
    def("rebirth_ms", "ms"),
    def("migration_ms", "ms"),
    def("ckpt_recovery_ms", "ms"),
    def("interruption_ms", "ms"),
    def("error_rate", "ratio"),
];

/// Per-layer metrics; module names are the layer names.
pub const PER_LAYER: &[Def] = &[
    def("graph.gen_ms", "ms"),
    def("partition.ms", "ms"),
    def("plan.ms", "ms"),
    def("plan.extra_replicas", "count"),
    def("engine.build_ms", "ms"),
    def("driver.outside_ms", "ms"),
    def("engine.kernel_ms", "ms"),
    def("runner.compute_ms", "ms"),
    def("runner.send_ms", "ms"),
    def("runner.commit_ms", "ms"),
    def("pool.chunk_jobs", "count"),
    def("wire.encode_us_per_krec", "us"),
    def("wire.decode_us_per_krec", "us"),
    def("wire.bytes_per_rec", "B"),
    def("suppress.skipped_share", "ratio"),
    def("transport.sync_mib", "MiB"),
    def("transport.gather_mib", "MiB"),
    def("transport.recovery_mib", "MiB"),
    def("transport.msgs", "count"),
    def("transport.retries", "count"),
    def("transport.redelivered", "count"),
    def("coord.barrier_wait_ms", "ms"),
    def("coord.barrier_rtt_us", "us"),
    def("detector.hb_msgs", "count"),
    def("detector.suspected", "count"),
    def("detector.retracted", "count"),
    def("detector.confirmed", "count"),
    def("detector.detect_ms", "ms"),
    def("recovery.reload_ms", "ms"),
    def("recovery.reconstruct_ms", "ms"),
    def("recovery.replay_ms", "ms"),
    def("recovery.fence_ms", "ms"),
    def("recovery.migration_rounds_ms", "ms"),
    def("recovery.vertices", "count"),
    def("recovery.edges", "count"),
    def("recovery.attempts", "count"),
    def("recovery.aborts", "count"),
    def("recovery.outside_ms", "ms"),
    def("recovery.bitwise_mismatch", "count"),
    def("dfs.write_ops", "count"),
    def("dfs.write_mib", "MiB"),
    def("dfs.read_ops", "count"),
    def("dfs.read_mib", "MiB"),
    def("ckpt.encode_ms", "ms"),
    def("trace.overhead_ms", "ms"),
    def("trace.unattributed_share", "ratio"),
    def("host.calib_ms", "ms"),
    def("host.steal_share", "ratio"),
];

/// One computed figure: a median (or single reading) and its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    /// The value, when the run produced samples for it.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
}

impl Figure {
    fn of(xs: &[f64]) -> Self {
        Figure {
            value: median(xs),
            n: xs.len(),
        }
    }

    fn one(x: f64) -> Self {
        Figure {
            value: Some(x),
            n: 1,
        }
    }

    const NONE: Figure = Figure { value: None, n: 0 };
}

const MIB: f64 = 1024.0 * 1024.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every metric of a run, by name.
pub struct Metrics {
    figures: Vec<(&'static str, Figure)>,
}

impl Metrics {
    /// The figure for `name`.
    pub fn get(&self, name: &str) -> Figure {
        self.figures
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Figure::NONE, |(_, f)| *f)
    }

    fn put(&mut self, name: &'static str, f: Figure) {
        debug_assert!(self.figures.iter().all(|(n, _)| *n != name), "{name} twice");
        self.figures.push((name, f));
    }
}

fn is_rep(j: &JobRec) -> bool {
    matches!(j.spec.mode, Mode::Rep(_))
}

/// Computes every metric of `data`.
pub fn compute(data: &RunData) -> Metrics {
    let mut m = Metrics {
        figures: Vec::new(),
    };
    let cycles = &data.cycles;
    let jobs: Vec<&JobRec> = cycles
        .iter()
        .flat_map(|c| &c.jobs)
        .filter(|j| j.ran())
        .collect();
    let rep: Vec<&JobRec> = jobs.iter().copied().filter(|j| is_rep(j)).collect();
    let per_cycle = |f: &dyn Fn(&JobRec) -> f64| -> Vec<f64> {
        cycles
            .iter()
            .map(|c| c.jobs.iter().filter(|j| j.ran()).map(f).sum())
            .collect()
    };
    let gaps = |keep: &dyn Fn(&JobRec) -> bool| -> Vec<f64> {
        jobs.iter()
            .filter(|j| keep(j))
            .flat_map(|j| j.gaps_ms.iter().copied())
            .collect()
    };

    // End to end.
    let setup: Vec<f64> = data
        .gen
        .iter()
        .zip(&data.partition)
        .map(|(g, p)| (*g + *p).as_secs_f64())
        .collect();
    let outside = per_cycle(&|j| j.outside().as_secs_f64());
    m.put(
        "setup_s",
        Figure {
            value: median(&setup).zip(median(&outside)).map(|(a, b)| a + b),
            n: outside.len(),
        },
    );
    m.put(
        "cycle_s",
        Figure::of(&per_cycle(&|j| j.elapsed.as_secs_f64())),
    );
    let rep_gaps = gaps(&|j| is_rep(j));
    m.put("step_ms_rep", Figure::of(&rep_gaps));
    m.put(
        "step_ms_rep_p90",
        Figure {
            value: stats::percentile(&rep_gaps, 900),
            n: rep_gaps.len(),
        },
    );
    m.put(
        "wire_mib",
        Figure::of(&per_cycle(&|j| j.fabric.total().bytes as f64 / MIB)),
    );
    let state: Vec<f64> = cycles
        .iter()
        .filter(|c| !c.jobs.is_empty())
        .map(|c| c.jobs.iter().map(|j| j.mem_bytes as f64).sum::<f64>() / c.jobs.len() as f64 / MIB)
        .collect();
    m.put("state_mib", Figure::of(&state));
    m.put("peak_rss_mib", Figure::one(data.peak_rss_mib));
    let cpu: Vec<f64> = cycles.iter().map(|c| c.cpu_s).collect();
    m.put("cpu_s", Figure::of(&cpu));
    // Per cycle: the FT jobs' mean elapsed over the BASE job's elapsed.
    let slowdown: Vec<f64> = cycles
        .iter()
        .filter_map(|c| {
            let base = c
                .jobs
                .iter()
                .find(|j| j.spec.mode == Mode::None && j.ran())?;
            let ft: Vec<f64> = c
                .jobs
                .iter()
                .filter(|j| j.spec.mode != Mode::None && j.ran())
                .map(|j| j.elapsed.as_secs_f64())
                .collect();
            (!ft.is_empty() && base.elapsed > Duration::ZERO)
                .then(|| ft.iter().sum::<f64>() / ft.len() as f64 / base.elapsed.as_secs_f64())
        })
        .collect();
    m.put("ft_slowdown", Figure::of(&slowdown));
    m.put(
        "step_ms_none",
        Figure::of(&gaps(&|j| j.spec.mode == Mode::None)),
    );

    // End to end, per mode.
    m.put(
        "step_ms_ckpt",
        Figure::of(&gaps(&|j| j.spec.mode == Mode::Ckpt)),
    );
    let ckpt_jobs: Vec<&JobRec> = jobs
        .iter()
        .copied()
        .filter(|j| j.spec.mode == Mode::Ckpt && j.ckpt_epochs > 0)
        .collect();
    let ckpt_write: Vec<f64> = ckpt_jobs
        .iter()
        .map(|j| ms(j.ckpt_time) / j.ckpt_epochs as f64)
        .collect();
    m.put("ckpt_write_ms", Figure::of(&ckpt_write));
    let episodes = |mode: Mode, f: &dyn Fn(&imitator::RecoveryReport) -> f64| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.spec.mode == mode)
            .flat_map(|j| j.recoveries.iter().map(f))
            .collect()
    };
    let total = |r: &imitator::RecoveryReport| ms(r.total());
    m.put(
        "rebirth_ms",
        Figure::of(&episodes(Mode::Rep(RecoveryStrategy::Rebirth), &total)),
    );
    m.put(
        "migration_ms",
        Figure::of(&episodes(Mode::Rep(RecoveryStrategy::Migration), &total)),
    );
    m.put(
        "ckpt_recovery_ms",
        Figure::of(&episodes(Mode::Ckpt, &total)),
    );
    let interruption: Vec<f64> = cycles
        .iter()
        .filter_map(|c| {
            let stalls: Vec<f64> = c.jobs.iter().filter_map(|j| j.stall_ms).collect();
            (!stalls.is_empty()).then(|| stalls.iter().sum::<f64>() / stalls.len() as f64)
        })
        .collect();
    m.put("interruption_ms", Figure::of(&interruption));
    let (attempted, failed) = counts(data);
    m.put(
        "error_rate",
        Figure {
            value: (attempted > 0).then(|| failed as f64 / attempted as f64),
            n: attempted,
        },
    );

    // Set-up layers.
    let to_ms = |v: &[Duration]| v.iter().copied().map(ms).collect::<Vec<f64>>();
    m.put("graph.gen_ms", Figure::of(&to_ms(&data.gen)));
    m.put("partition.ms", Figure::of(&to_ms(&data.partition)));
    let probes = data.probes.as_ref();
    let probe = |f: &dyn Fn(&crate::probe::Probes) -> &Vec<Duration>| {
        probes.map_or(Figure::NONE, |p| Figure::of(&to_ms(f(p))))
    };
    let plan_ms = probe(&|p| &p.plan);
    let build_rep = probe(&|p| &p.build_rep);
    let build_none = probe(&|p| &p.build_none);
    m.put("plan.ms", plan_ms);
    m.put(
        "plan.extra_replicas",
        Figure::of(
            &rep.iter()
                .map(|j| j.extra_replicas as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put("engine.build_ms", build_rep);
    let outside_unexplained: Vec<f64> = match (plan_ms.value, build_rep.value, build_none.value) {
        (Some(plan), Some(rep_build), Some(none_build)) => jobs
            .iter()
            .map(|j| {
                let explained = if is_rep(j) {
                    plan + rep_build
                } else {
                    none_build
                };
                ms(j.outside()) - explained
            })
            .collect(),
        _ => Vec::new(),
    };
    m.put("driver.outside_ms", Figure::of(&outside_unexplained));

    // Compute layers.
    m.put("engine.kernel_ms", probe(&|p| &p.kernel));
    let phase = |j: &JobRec, names: &[&str]| -> f64 {
        names.iter().filter_map(|n| j.phases.get(n)).map(ms).sum()
    };
    let over_rep =
        |f: &dyn Fn(&JobRec) -> f64| Figure::of(&rep.iter().map(|j| f(j)).collect::<Vec<_>>());
    m.put(
        "runner.compute_ms",
        over_rep(&|j| phase(j, &["compute", "gather", "apply"])),
    );
    m.put("runner.send_ms", over_rep(&|j| phase(j, &["send"])));
    m.put("runner.commit_ms", over_rep(&|j| phase(j, &["commit"])));
    m.put("pool.chunk_jobs", over_rep(&|j| j.pool.jobs as f64));

    // Wire layers.
    let per_krec = |f: &dyn Fn(&crate::probe::Probes) -> &Vec<Duration>| {
        probes.map_or(Figure::NONE, |p| {
            let us: Vec<f64> = f(p)
                .iter()
                .map(|d| d.as_secs_f64() * 1e6 / p.records as f64 * 1e3)
                .collect();
            Figure::of(&us)
        })
    };
    m.put("wire.encode_us_per_krec", per_krec(&|p| &p.encode));
    m.put("wire.decode_us_per_krec", per_krec(&|p| &p.decode));
    let with_records: Vec<&JobRec> = rep
        .iter()
        .copied()
        .filter(|j| j.comm.messages > 0)
        .collect();
    m.put(
        "wire.bytes_per_rec",
        Figure::of(
            &with_records
                .iter()
                .map(|j| j.comm.bytes as f64 / j.comm.messages as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "suppress.skipped_share",
        Figure::of(
            &with_records
                .iter()
                .map(|j| j.suppressed as f64 / (j.comm.messages + j.suppressed) as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // Transport layers, per cycle.
    let kind_mib = |k: CommKind| Figure::of(&per_cycle(&|j| j.fabric.kind(k).bytes as f64 / MIB));
    m.put("transport.sync_mib", kind_mib(CommKind::Sync));
    m.put("transport.gather_mib", kind_mib(CommKind::Gather));
    m.put("transport.recovery_mib", kind_mib(CommKind::Recovery));
    m.put(
        "transport.msgs",
        Figure::of(&per_cycle(&|j| j.fabric.total().messages as f64)),
    );
    m.put(
        "transport.retries",
        Figure::of(&per_cycle(&|j| j.fabric.retries as f64)),
    );
    m.put(
        "transport.redelivered",
        Figure::of(&per_cycle(&|j| j.fabric.redelivered as f64)),
    );

    // Coordination and detection.
    m.put(
        "coord.barrier_wait_ms",
        over_rep(&|j| ms(j.fabric.barrier_wait)),
    );
    m.put(
        "coord.barrier_rtt_us",
        probes.map_or(Figure::NONE, |p| {
            Figure::of(
                &p.barrier
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            )
        }),
    );
    m.put(
        "detector.hb_msgs",
        Figure::of(&per_cycle(&|j| {
            j.fabric.kind(CommKind::Heartbeat).messages as f64
        })),
    );
    m.put(
        "detector.suspected",
        Figure::of(&per_cycle(&|j| j.suspicion.suspected as f64)),
    );
    m.put(
        "detector.retracted",
        Figure::of(&per_cycle(&|j| j.suspicion.retracted as f64)),
    );
    m.put(
        "detector.confirmed",
        Figure::of(&per_cycle(&|j| j.suspicion.confirmed as f64)),
    );
    m.put(
        "detector.detect_ms",
        Figure::of(
            &jobs
                .iter()
                .filter(|j| j.suspicion.confirmed > 0)
                .map(|j| {
                    j.suspicion.detect_ticks as f64
                        / j.suspicion.confirmed as f64
                        / TICKS_PER_MS as f64
                })
                .collect::<Vec<_>>(),
        ),
    );

    // Recovery, per episode.
    let all_episodes = |f: &dyn Fn(&imitator::RecoveryReport) -> f64| -> Figure {
        Figure::of(
            &jobs
                .iter()
                .flat_map(|j| j.recoveries.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    m.put("recovery.reload_ms", all_episodes(&|r| ms(r.reload)));
    m.put(
        "recovery.reconstruct_ms",
        all_episodes(&|r| ms(r.reconstruct)),
    );
    m.put("recovery.replay_ms", all_episodes(&|r| ms(r.replay)));
    m.put(
        "recovery.fence_ms",
        all_episodes(&|r| r.phases.get("fence").map_or(0.0, ms)),
    );
    m.put(
        "recovery.migration_rounds_ms",
        all_episodes(&|r| {
            r.phases
                .iter()
                .filter(|(n, _)| n.starts_with("migration_round"))
                .map(|(_, d)| ms(d))
                .sum()
        }),
    );
    m.put(
        "recovery.vertices",
        all_episodes(&|r| r.vertices_recovered as f64),
    );
    m.put(
        "recovery.edges",
        all_episodes(&|r| r.edges_recovered as f64),
    );
    m.put(
        "recovery.attempts",
        all_episodes(&|r| f64::from(r.counters.attempts)),
    );
    m.put(
        "recovery.aborts",
        all_episodes(&|r| f64::from(r.counters.aborts)),
    );
    m.put(
        "recovery.outside_ms",
        Figure::of(
            &jobs
                .iter()
                .filter_map(|j| {
                    let total: f64 = j.recoveries.iter().map(|r| ms(r.total())).sum();
                    j.stall_ms.map(|s| s - total)
                })
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "recovery.bitwise_mismatch",
        Figure::of(
            &cycles
                .iter()
                .map(|c| c.jobs.iter().map(|j| j.mismatched as f64).sum())
                .collect::<Vec<_>>(),
        ),
    );

    // Checkpoint and storage, per cycle.
    m.put(
        "dfs.write_ops",
        Figure::of(&per_cycle(&|j| j.dfs.writes.messages as f64)),
    );
    m.put(
        "dfs.write_mib",
        Figure::of(&per_cycle(&|j| j.dfs.writes.bytes as f64 / MIB)),
    );
    m.put(
        "dfs.read_ops",
        Figure::of(&per_cycle(&|j| j.dfs.reads.messages as f64)),
    );
    m.put(
        "dfs.read_mib",
        Figure::of(&per_cycle(&|j| j.dfs.reads.bytes as f64 / MIB)),
    );
    let dfs = DfsConfig::hdfs_like();
    m.put(
        "ckpt.encode_ms",
        Figure::of(
            &ckpt_jobs
                .iter()
                .map(|j| {
                    let epochs = j.ckpt_epochs as f64;
                    let per_node = epochs * NODES as f64;
                    let sleep_ms = j.dfs.writes.messages as f64 / per_node * ms(dfs.latency)
                        + f64::from(dfs.replication) * j.dfs.writes.bytes as f64
                            / per_node
                            / dfs.bandwidth_bytes_per_sec
                            * 1e3;
                    ms(j.ckpt_time) / epochs - sleep_ms
                })
                .collect::<Vec<_>>(),
        ),
    );

    // Tracing.
    let wall_ms = |traced: bool| -> Vec<f64> {
        cycles
            .iter()
            .filter(|c| c.traced == traced)
            .map(|c| ms(c.wall))
            .collect()
    };
    let (on, off) = (wall_ms(true), wall_ms(false));
    m.put(
        "trace.overhead_ms",
        Figure {
            value: median(&on).zip(median(&off)).map(|(a, b)| a - b),
            n: on.len().min(off.len()),
        },
    );
    let budget = data.tracer.budget();
    let total: u64 = budget.iter().map(|b| b.self_ns).sum();
    m.put(
        "trace.unattributed_share",
        match budget.iter().find(|b| b.name == "bench") {
            Some(root) if total > 0 => Figure::one(root.self_ns as f64 / total as f64),
            _ => Figure::NONE,
        },
    );

    // Host context: a fixed walk timed before each cycle, and the share of
    // host CPU time the hypervisor gave to other guests during cycles.
    m.put(
        "host.calib_ms",
        Figure::of(&cycles.iter().map(|c| c.calib_ms).collect::<Vec<_>>()),
    );
    m.put(
        "host.steal_share",
        Figure::of(&cycles.iter().map(|c| c.steal_share).collect::<Vec<_>>()),
    );
    m
}

/// `(attempted, failed)` jobs of the measured cycles.
pub fn counts(data: &RunData) -> (usize, usize) {
    let jobs = data.cycles.iter().flat_map(|c| &c.jobs);
    let attempted = jobs.clone().count();
    let failed = jobs.filter(|j| j.failure.is_some()).count();
    (attempted, failed)
}

/// Whether the run's outputs are correct: the reference completed, and
/// every job either passed its check or failed with exactly the signature
/// of its named known defect (such jobs still count in `failed`).
pub fn correct(data: &RunData) -> bool {
    data.reference_ok
        && !data.cycles.is_empty()
        && data
            .cycles
            .iter()
            .flat_map(|c| &c.jobs)
            .all(|j| j.failure.is_none() || j.known_defect)
}

fn fmt_value(v: f64) -> String {
    let v = v + 0.0; // an empty f64 sum is -0.0
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints one table of metrics.
pub fn print_table(title: &str, defs: &[Def], m: &Metrics) {
    println!("-- {title}");
    for d in defs {
        let f = m.get(d.name);
        match f.value {
            Some(v) => println!(
                "  {:<28} {:>14} {:<6} n={}",
                d.name,
                fmt_value(v),
                d.unit,
                f.n
            ),
            None => println!("  {:<28} {:>14} {:<6} n=0", d.name, "n/a", d.unit),
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics` over
/// `defs`. Figures a run could not produce are written as zero.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[Def],
    m: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = m.get(d.name).value.filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END
            .iter()
            .chain(UNGATED_END_TO_END)
            .chain(MODE_END_TO_END)
            .chain(PER_LAYER)
            .collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let all = END_TO_END
            .iter()
            .chain(UNGATED_END_TO_END)
            .chain(MODE_END_TO_END)
            .chain(PER_LAYER);
        for d in all {
            assert!(
                listed.contains(&d.name),
                "{} missing from BENCHMARK.json",
                d.name
            );
        }
        let known =
            END_TO_END.len() + UNGATED_END_TO_END.len() + MODE_END_TO_END.len() + PER_LAYER.len();
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(
            listed.len(),
            known + workloads,
            "BENCHMARK.json lists other names"
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m = Metrics {
            figures: vec![("setup_s", Figure::one(0.5)), ("cycle_s", Figure::NONE)],
        };
        let defs = [def("setup_s", "s"), def("cycle_s", "s")];
        let line = result_json(true, 3, 1, &defs, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"cycle_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
