//! `batch_qps` — per-query search loop vs `search_batch` throughput.
//!
//! Builds a Vamana index, runs the same query set two ways — independent
//! per-query `search` calls, batch-parallel, and the trait's
//! `search_batch` (the query engine over pooled per-query scratch) —
//! checks both return **bit-identical** results, prints a QPS table, and
//! appends a machine-readable record to `BENCH_batch.json` so the perf
//! trajectory accumulates across PRs.
//!
//! ```text
//! cargo run --release -p parlayann_bench --bin batch_qps [n] [out.json]
//! ```
//!
//! Defaults: `n` = 10 000 points (or `PARLAYANN_SCALE`), output
//! `BENCH_batch.json` in the current directory. The result fingerprint is
//! thread-count-independent, so CI diffs it across `PARLAY_NUM_THREADS`
//! settings.

use ann_data::bigann_like;
use parlayann::{AnnIndex, QueryParams, SearchStats, VamanaIndex, VamanaParams};
use std::time::Instant;

/// Order-sensitive digest over every query's `(id, dist-bits)` sequence.
fn fingerprint(results: &[(Vec<(u32, f32)>, SearchStats)]) -> u64 {
    results.iter().fold(0x9e3779b97f4a7c15, |acc, (res, _)| {
        res.iter().fold(acc, |acc, &(id, d)| {
            parlay::hash64_pair(parlay::hash64_pair(acc, id as u64), d.to_bits() as u64)
        })
    })
}

/// Best-of-`reps` wall-clock seconds for `f` (warm-cache QPS practice).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .or_else(|| {
            std::env::var("PARLAYANN_SCALE")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(10_000);
    let out_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "BENCH_batch.json".to_string());
    let threads = parlay::num_threads();
    let num_queries = 200.min(n / 2).max(10);

    println!("batch_qps: Vamana search, n = {n}, {num_queries} queries, {threads} worker threads");
    let data = bigann_like(n, num_queries, 42);
    let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
    let params = QueryParams {
        beam: 64,
        ..QueryParams::default()
    };
    let queries = &data.queries;
    let nq = queries.len() as f64;

    // Reference: independent per-query searches, batch-parallel.
    let single_loop =
        || parlay::tabulate(queries.len(), |q| index.search(queries.point(q), &params));
    let single: Vec<(Vec<(u32, f32)>, SearchStats)> = single_loop();
    let fp = fingerprint(&single);
    let secs_single = best_secs(3, || assert_eq!(fingerprint(&single_loop()), fp));
    let qps_single = nq / secs_single;

    // The batch entry point must reproduce the per-query results bit for
    // bit, stats included.
    let batched = index.search_batch(queries, &params);
    let identical = batched.len() == single.len()
        && batched
            .iter()
            .zip(&single)
            .all(|((ra, sa), (rb, sb))| ra == rb && sa == sb);
    let secs_batch = best_secs(3, || {
        assert_eq!(fingerprint(&index.search_batch(queries, &params)), fp)
    });
    let qps_batch = nq / secs_batch;

    println!("\n  path               QPS      vs single");
    println!("  per-query loop  {qps_single:>8.0}       1.00x");
    println!(
        "  search_batch    {qps_batch:>8.0}       {:>4.2}x",
        qps_batch / qps_single
    );
    println!(
        "\n  results: {} (fingerprint 0x{fp:016x})",
        if identical {
            "bit-identical across both paths"
        } else {
            "MISMATCH — search_batch diverged from per-query search"
        }
    );

    // Append one JSON record through the shared serializer.
    let record = parlayann_bench::JsonRecord::new("batch_qps")
        .str("algo", "vamana")
        .uint("n", n as u64)
        .uint("queries", queries.len() as u64)
        .uint("threads", threads as u64)
        .uint("beam", params.beam as u64)
        .float("qps_single", qps_single, 1)
        .float("qps_batch", qps_batch, 1)
        .str("fingerprint", &format!("0x{fp:016x}"))
        .bool("identical", identical)
        .finish();
    parlayann_bench::append_record(&out_path, &record).expect("failed to write bench record");
    println!("  appended record to {out_path}");
    println!("FINGERPRINT 0x{fp:016x}");

    if !identical {
        std::process::exit(1);
    }
}
