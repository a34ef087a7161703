//! Process-level readings from `/proc`: CPU time and peak resident memory.

/// User plus system CPU time of this process so far, in seconds, read from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it start
    // behind its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPU jiffies `(steal, total)` from `/proc/stat`: on a shared virtual
/// machine, time the hypervisor gave to other guests slows every wall-clock
/// figure, so reports print the stolen share next to them.
pub fn host_steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*v.get(7)?, v.iter().sum()))
}

/// Times a fixed BSP workload that shares no code with the system under
/// test: 4 threads run 20 PageRank-style supersteps over a frozen random
/// graph (50k vertices, 300k edges), meeting at a barrier after each. Its
/// wall time moves only with the host's speed (co-tenants, stolen time,
/// memory contention), so reports print it next to the system's timings.
pub fn calibrate() -> std::time::Duration {
    use std::sync::{Barrier, OnceLock};
    const V: usize = 50_000;
    const DEG: usize = 6;
    const THREADS: usize = 4;
    const STEPS: usize = 20;
    static GRAPH: OnceLock<Vec<u32>> = OnceLock::new();
    // In-neighbours of vertex v are src[v * DEG .. (v + 1) * DEG].
    let src = GRAPH.get_or_init(|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..V * DEG)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % V as u64) as u32
            })
            .collect()
    });
    let mut rank = vec![1.0f64 / V as f64; V];
    let mut next = vec![0.0f64; V];
    let barrier = Barrier::new(THREADS);
    let t = std::time::Instant::now();
    for _ in 0..STEPS {
        let old = &rank;
        std::thread::scope(|s| {
            for (i, out) in next.chunks_mut(V / THREADS).enumerate() {
                let barrier = &barrier;
                s.spawn(move || {
                    let base = i * (V / THREADS);
                    for (k, slot) in out.iter_mut().enumerate() {
                        let v = base + k;
                        let sum: f64 = src[v * DEG..(v + 1) * DEG]
                            .iter()
                            .map(|&u| old[u as usize])
                            .sum();
                        *slot = 0.15 / V as f64 + 0.85 * sum / DEG as f64;
                    }
                    barrier.wait();
                });
            }
        });
        std::mem::swap(&mut rank, &mut next);
    }
    std::hint::black_box(&rank);
    t.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
