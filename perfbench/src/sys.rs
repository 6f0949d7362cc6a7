//! Process measurements read from `/proc` and the provenance stamp.

use std::time::Instant;

/// Peak resident set size (VmHWM) in MiB, or 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU time of the whole process, in seconds. Linux
/// reports it in clock ticks, 100 per second on every mainstream
/// configuration.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Wall and CPU time over a stretch of work, for CPU utilization.
pub struct Usage {
    wall: Instant,
    cpu: f64,
}

impl Usage {
    /// Starts measuring.
    pub fn start() -> Usage {
        Usage {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Process CPU time over wall time times `threads`, since `start`.
    pub fn util(&self, threads: usize) -> f64 {
        let (cpu, wall) = self.spent();
        cpu / (wall * threads as f64)
    }

    /// Process CPU seconds and wall seconds since `start`.
    pub fn spent(&self) -> (f64, f64) {
        (cpu_seconds() - self.cpu, self.wall.elapsed().as_secs_f64())
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Key/value provenance of a run: program revision, host and knobs.
pub fn provenance(seed: u64, workload: &str) -> Vec<(String, String)> {
    let mut out = vec![
        ("workload".to_string(), workload.to_string()),
        ("seed".to_string(), seed.to_string()),
        ("git_rev".to_string(), git_rev()),
        ("nproc".to_string(), nproc().to_string()),
        (
            "pool_threads".to_string(),
            rayon::current_num_threads().to_string(),
        ),
        ("cpu".to_string(), cpu_model()),
        (
            "simd_level".to_string(),
            ann_data::simd_level().name().to_string(),
        ),
    ];
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k == "PARLAY_NUM_THREADS" || k.starts_with("PARLAYANN_"))
        .collect();
    env.sort();
    if !env.iter().any(|(k, _)| k == "PARLAY_NUM_THREADS") {
        out.push(("PARLAY_NUM_THREADS".to_string(), "unset".to_string()));
    }
    out.extend(env);
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// only (a source export has none and reports "unknown").
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}
