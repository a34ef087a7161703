//! End-to-end and per-layer benchmark of the Imitator reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path ftbench/Cargo.toml -- \
//!     --workload pagerank-ec --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload's report ends with a JSON result line: with `--trace 0` it
//! holds the gated end-to-end metrics, with `--trace 1` the others and the
//! per-layer metrics, and the spans recorded around each call are written
//! to `.ftbench_out/trace-<workload>-<seed>.jsonl`. `--workload all` runs
//! the four workloads in turn.

mod bench;
mod check;
mod probe;
mod report;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use bench::GRAPHS;
use report::{Def, END_TO_END, MODE_END_TO_END, PER_LAYER, UNGATED_END_TO_END};
use workload::{Workload, NODES};

const USAGE: &str = "usage: ftbench --workload <pagerank-ec|sssp-road-hb|crash-ec|als-vc|all> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("--workload: unknown {value:?}"))?]
                }
            }
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad {value:?}"))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: bad {value:?}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// Runs one workload and prints its report, ending with its result line.
fn run_one(w: Workload, args: &Args) {
    let data = bench::run(w, args.seed, args.seconds, args.trace);
    let m = report::compute(&data);
    let (attempted, failed) = report::counts(&data);
    let correct = report::correct(&data);
    let jobs_per_cycle = w.cycle().len();
    println!(
        "== ftbench {} · seed {} · {GRAPHS} graphs of ~{} V / {} E · {NODES} nodes x 1 thread · {} cycles of {jobs_per_cycle} job(s){}",
        w.name(),
        args.seed,
        data.vertices,
        data.edges,
        data.cycles.len(),
        if args.trace { " · traced" } else { "" },
    );
    println!(
        "   host: {} CPUs, calibration {:.1} ms, {:.1}% of host CPU time stolen during cycles",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        m.get("host.calib_ms").value.unwrap_or(0.0),
        100.0 * m.get("host.steal_share").value.unwrap_or(0.0),
    );
    let applicable: Vec<Def> = MODE_END_TO_END
        .iter()
        .copied()
        .filter(|d| m.get(d.name).value.is_some())
        .collect();
    report::print_table("end-to-end, gated (median; n = samples)", END_TO_END, &m);
    report::print_table(
        "end-to-end, wall clock and CPU (not gated)",
        UNGATED_END_TO_END,
        &m,
    );
    report::print_table("end-to-end, where the mode runs", &applicable, &m);
    if let Some(p) = stats::highest_percentile(m.get("step_ms_rep").n) {
        println!(
            "  (percentile rule: {} is the highest with >= {} of {} REP gaps beyond it)",
            stats::percentile_label(p),
            stats::MIN_BEYOND,
            m.get("step_ms_rep").n
        );
    }
    for j in data.cycles.iter().flat_map(|c| &c.jobs) {
        if let Some(why) = &j.failure {
            let known = match j.spec.known_defect {
                Some(d) if j.known_defect => format!(" [known defect: {d}]"),
                _ => String::new(),
            };
            println!("  FAILED job {} ({}): {why}{known}", j.id, j.spec.label);
        }
    }
    println!("  jobs: {attempted} attempted, {failed} failed; outputs correct: {correct}");
    if args.trace {
        report::print_table("per layer (traced run)", PER_LAYER, &m);
        if let Some(p) = data.probes.as_ref().filter(|p| p.barrier_failures > 0) {
            println!(
                "  coord.barrier probe: {} barriers reported a failure",
                p.barrier_failures
            );
        }
        println!("-- layer budget from spans (self time; the root's self time is unattributed)");
        let budget = data.tracer.budget();
        let total: u64 = budget.iter().map(|b| b.self_ns).sum::<u64>().max(1);
        for b in &budget {
            let name = if b.name == "bench" {
                "unattributed"
            } else {
                b.name
            };
            println!(
                "  {name:<28} {:>12.3} ms {:>7.2}% n={}",
                b.self_ns as f64 / 1e6,
                100.0 * b.self_ns as f64 / total as f64,
                b.count
            );
        }
        let dir = std::path::Path::new(".ftbench_out");
        let path = dir.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, data.tracer.to_jsonl()))
        {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let defs: Vec<Def> = if args.trace {
        UNGATED_END_TO_END
            .iter()
            .chain(MODE_END_TO_END)
            .chain(PER_LAYER)
            .copied()
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &defs, &m)
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        run_one(w, &args);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload crash-ec --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::CrashEc]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(args("--workload all").expect("valid").workloads.len(), 4);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload als-vc --trace 2").is_err());
        assert!(args("--workload als-vc --seconds -1").is_err());
        assert!(args("--workload als-vc --seed").is_err());
    }
}
