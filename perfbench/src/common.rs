//! Pieces shared by the workloads: the closed-loop query phases, the
//! end-to-end metric set every workload reports, and the per-layer probes
//! of the traced run.

use crate::host;
use crate::report::Report;
use crate::stats::{median, Tail};
use crate::sys::{self, Usage};
use crate::trace::{timed, Tracer};
use ann_data::{GroundTruth, Metric, PointSet, VectorElem};
use parlayann::{AnnIndex, IndexStats, QueryEngine, QueryParams};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A searchable index shared across threads.
pub type Index<T> = dyn AnnIndex<T> + Send + Sync;

/// Top-k answers, one list per query.
pub type Answers = Vec<Vec<(u32, f32)>>;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUPS: usize = 5;

/// The values of one measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    /// Throughput of the workload's query path, queries/s.
    pub qps: f64,
    /// Light-load latency p50/p90, us.
    pub low: (f64, f64),
    /// Heavy-load latency p50/p90, us.
    pub high: (f64, f64),
    /// CPU utilization of the pool during the throughput phase.
    pub cpu_util: f64,
}

/// The end-to-end values every workload reports besides its window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Headline {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// recall@10 of the workload's Vamana graph at its query beam.
    pub recall10: f64,
    /// Vamana build time, s.
    pub build_vamana_s: f64,
    /// Time of every graph build in the workload, s.
    pub build_all_s: f64,
}

/// Adds the end-to-end metrics of `BENCHMARK.json`, in its order. The
/// window's latencies are detail lines only (see `METRICS.md`).
pub fn emit_e2e(rep: &mut Report, h: &Headline, w: &Window) {
    rep.metric("setup_s", h.setup_s, "s");
    rep.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.metric("ok_share", ok, "share");
    rep.metric("recall10", h.recall10, "share");
    rep.metric("qps", w.qps, "1/s");
    rep.metric("build_s.vamana", h.build_vamana_s, "s");
    rep.metric("build_s.all", h.build_all_s, "s");
}

/// Adds the tracing-overhead metrics: how much worse the traced window
/// is than the untraced one, as a share of the untraced value.
pub fn emit_overhead(rep: &mut Report, plain: &Window, traced: &Window) {
    // Relative change of `traced` against `plain`; 0 when `plain` is 0
    // (a serve ladder with no passing rung), where no share exists.
    let rel = |p: f64, t: f64| if p == 0.0 { 0.0 } else { t / p - 1.0 };
    rep.metric("trace.overhead.qps", -rel(plain.qps, traced.qps), "share");
    rep.metric(
        "trace.overhead.p50_us.low",
        rel(plain.low.0, traced.low.0),
        "share",
    );
    rep.metric(
        "trace.overhead.p90_us.high",
        rel(plain.high.1, traced.high.1),
        "share",
    );
}

/// recall@10 of `answers` against `gt`.
pub fn recall10(gt: &GroundTruth, answers: &Answers) -> f64 {
    let ids: Vec<Vec<u32>> = answers
        .iter()
        .map(|a| a.iter().map(|&(id, _)| id).collect())
        .collect();
    ann_data::recall_ids(gt, &ids, 10, 10)
}

/// Order-sensitive digest of ids and distance bits.
pub fn digest(answers: &Answers) -> u64 {
    answers.iter().flatten().fold(0, |h, &(id, d)| {
        parlay::hash64_pair(parlay::hash64_pair(h, id as u64), d.to_bits() as u64)
    })
}

/// Per-query `search` answers: the reference every other path must match
/// bit for bit.
pub fn reference<T: VectorElem>(
    index: &Index<T>,
    queries: &PointSet<T>,
    params: &QueryParams,
) -> Answers {
    (0..queries.len())
        .map(|q| index.search(queries.point(q), params).0)
        .collect()
}

/// A query set with the index it runs on, the search parameters, and the
/// answers every query path must return bit for bit.
pub struct Queries<'a, T: VectorElem> {
    /// The index under test.
    pub index: &'a Index<T>,
    /// The queries.
    pub queries: &'a PointSet<T>,
    /// Search parameters of every call.
    pub params: &'a QueryParams,
    /// Per-query reference answers.
    pub expected: &'a Answers,
}

/// Closed loop of `search_batch` over the whole query set for `dur` (at
/// least one call), the calls bracketed by host probes (see
/// [`crate::host`]). Every answer is checked against the reference.
pub fn batch_phase<T: VectorElem>(
    rep: &mut Report,
    tr: Option<&Tracer>,
    w: &Queries<T>,
    dur: Duration,
) -> BatchRates {
    let end = Instant::now() + dur;
    let mut wrong = 0;
    // CPU and wall time of the calls alone, without the probes.
    let (mut cpu, mut wall) = (0.0, 0.0);
    let calls = host::bracketed(
        |_| Instant::now() < end,
        |call| {
            let usage = Usage::start();
            let out = timed(tr, "core.search_batch", 0, call as u64, |_| {
                w.index.search_batch(w.queries, w.params)
            });
            let (c, t) = usage.spent();
            cpu += c;
            wall += t;
            let rate = w.queries.len() as f64 / t;
            wrong += out
                .iter()
                .zip(w.expected)
                .filter(|((got, _), want)| got != *want)
                .count() as u64;
            rate
        },
    );
    rep.ops((calls.len() * w.queries.len()) as u64, wrong);
    BatchRates {
        qps: median(&calls.iter().map(|c| c.0).collect::<Vec<_>>()),
        slowdowns: calls.iter().map(|c| c.1).collect(),
        cpu_util: cpu / (wall * rayon::current_num_threads() as f64),
    }
}

/// What [`batch_phase`] measured.
pub struct BatchRates {
    /// Median measured throughput, queries/s.
    pub qps: f64,
    /// Host slowdown over each call.
    pub slowdowns: Vec<f64>,
    /// CPU utilization of the pool during the calls.
    pub cpu_util: f64,
}

/// `clients` threads each issue single `search` calls back to back for
/// `dur`. Returns every call's latency in ns, in order of start time;
/// wrong answers count as misses.
pub fn single_phase<T: VectorElem>(
    rep: &mut Report,
    tr: Option<&Tracer>,
    w: &Queries<T>,
    clients: usize,
    dur: Duration,
) -> Tail {
    let start = Instant::now();
    let end = start + dur;
    let nq = w.queries.len();
    let per_client: Vec<Vec<(Duration, f64)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut q = c * nq / clients;
                    while lat.is_empty() || Instant::now() < end {
                        q = (q + 1) % nq;
                        let req = ((c as u64) << 32) + lat.len() as u64;
                        let t = Instant::now();
                        let (got, _) = timed(tr, "core.search", 0, req, |_| {
                            w.index.search(w.queries.point(q), w.params)
                        });
                        let ns = t.elapsed().as_nanos() as f64;
                        let ns = if got == w.expected[q] {
                            ns
                        } else {
                            f64::INFINITY
                        };
                        lat.push((t - start, ns));
                    }
                    lat
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all: Vec<(Duration, f64)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|&(at, _)| at);
    let lat: Vec<f64> = all.into_iter().map(|(_, ns)| ns).collect();
    let wrong = lat.iter().filter(|x| x.is_infinite()).count() as u64;
    rep.ops(lat.len() as u64, wrong);
    Tail::of(&lat)
}

/// The closed-loop window of the batch-knn and build-ood workloads:
/// single `search` latency from one client (light load) and from one
/// client per core (heavy load) on the last query set, then
/// `search_batch` throughput on each set for an equal share of the last
/// half. `qps` is the mean over the sets of each set's median, scaled to
/// the reference host by the median slowdown over all the calls.
pub fn closed_window<T: VectorElem>(
    rep: &mut Report,
    tr: Option<&Tracer>,
    sets: &[Queries<T>],
    dur: Duration,
) -> Window {
    let w = sets.last().expect("at least one query set");
    let low = single_phase(rep, tr, w, 1, dur / 4);
    let high = single_phase(rep, tr, w, sys::nproc(), dur / 4);
    let per_set = dur / 2 / sets.len() as u32;
    let rates: Vec<BatchRates> = sets
        .iter()
        .map(|q| batch_phase(rep, tr, q, per_set))
        .collect();
    let mean = |f: fn(&BatchRates) -> f64| rates.iter().map(f).sum::<f64>() / rates.len() as f64;
    let slowdowns: Vec<f64> = rates.iter().flat_map(|r| r.slowdowns.clone()).collect();
    let slowdown = median(&slowdowns);
    let low = rep.tail_details("latency", ".low", &low);
    let high = rep.tail_details("latency", ".high", &high);
    let raw = mean(|r| r.qps);
    rep.detail(
        "qps.raw",
        raw,
        "1/s",
        format!("search_batch, unscaled, {} query sets", sets.len()),
    );
    rep.detail(
        "host.slowdown.qps",
        slowdown,
        "x",
        format!("median over {} calls", slowdowns.len()),
    );
    Window {
        qps: host::rate_at_ref(raw, slowdown),
        low,
        high,
        cpu_util: mean(|r| r.cpu_util),
    }
}

/// Mean ns per dispatched `ann_data::distance` call over random row pairs
/// of `points`.
pub fn kernel_ns<T: VectorElem>(points: &PointSet<T>, metric: Metric, seed: u64) -> f64 {
    const PAIRS: usize = 4096;
    const ROUNDS: usize = 200;
    let rng = parlay::Random::new(seed);
    let n = points.len() as u64;
    let pairs: Vec<(usize, usize)> = (0..PAIRS as u64)
        .map(|i| {
            (
                rng.ith_range(2 * i, n) as usize,
                rng.ith_range(2 * i + 1, n) as usize,
            )
        })
        .collect();
    let mut per_round = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for &(a, b) in &pairs {
            acc += ann_data::distance(
                black_box(points.point(a)),
                black_box(points.point(b)),
                metric,
            );
        }
        black_box(acc);
        per_round.push(t.elapsed().as_nanos() as f64 / PAIRS as f64);
    }
    median(&per_round)
}

/// Both kernel probes. `u8_rows`/`f32_rows` are the workload's own corpus
/// when it has that element type; otherwise a sample of the matching
/// generator is made here.
pub fn kernel_probes(
    rep: &mut Report,
    seed: u64,
    u8_rows: Option<&PointSet<u8>>,
    f32_rows: Option<&PointSet<f32>>,
) -> (f64, f64) {
    let u8_ns = match u8_rows {
        Some(p) => kernel_ns(p, Metric::SquaredEuclidean, seed),
        None => kernel_ns(
            &ann_data::bigann_like(8192, 1, seed).points,
            Metric::SquaredEuclidean,
            seed,
        ),
    };
    let f32_ns = match f32_rows {
        Some(p) => kernel_ns(p, Metric::InnerProduct, seed),
        None => kernel_ns(
            &ann_data::text2image_like(8192, 1, seed).points,
            Metric::InnerProduct,
            seed,
        ),
    };
    rep.metric("data.kernel_ns.u8_l2_d128", u8_ns, "ns");
    rep.metric("data.kernel_ns.f32_ip_d200", f32_ns, "ns");
    (u8_ns, f32_ns)
}

/// Single-query `search` on one worker thread, and the engine at block
/// sizes 1 and 16. `kernel_ns` is the dispatched kernel cost of the
/// index's element type, for the kernel share of a query.
pub fn search_probes<T: VectorElem>(
    rep: &mut Report,
    tr: Option<&Tracer>,
    index: &Index<T>,
    queries: &PointSet<T>,
    params: &QueryParams,
    kernel_ns: f64,
) {
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let (us, comps, hops) = one.install(|| {
        let mut us = Vec::with_capacity(queries.len());
        let (mut comps, mut hops) = (0usize, 0usize);
        for q in 0..queries.len() {
            let t = Instant::now();
            let (res, st) = timed(tr, "probe.core.search", 0, q as u64, |_| {
                index.search(queries.point(q), params)
            });
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
            black_box(res);
            comps += st.dist_comps;
            hops += st.hops;
        }
        (us, comps, hops)
    });
    let nq = queries.len() as f64;
    let mean_us = us.iter().sum::<f64>() / nq;
    let tail = Tail::of(&us);
    let p50 = rep.reportable("core.search.us_p50", tail.p50, tail.n);
    let p99 = rep.reportable("core.search.us_p99", tail.p99, tail.n);
    rep.metric("core.search.us_p50", p50, "us");
    rep.metric("core.search.us_p99", p99, "us");
    rep.metric("core.search.dist_comps", comps as f64 / nq, "count");
    rep.metric("core.search.hops", hops as f64 / nq, "count");
    rep.metric(
        "core.search.kernel_share",
        comps as f64 / nq * kernel_ns / (mean_us * 1e3),
        "share",
    );
    for (block, name) in [(1, "core.engine.qps_q1"), (16, "core.engine.qps_q16")] {
        let engine = QueryEngine::with_block_size(block);
        let rates: Vec<f64> = (0..3)
            .map(|r| {
                let t = Instant::now();
                let out = timed(tr, "probe.core.engine", 0, r, |_| {
                    index.search_batch_in(queries, params, &engine)
                });
                black_box(out);
                queries.len() as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        rep.metric(name, median(&rates), "1/s");
    }
}

/// Build-side layer metrics of a Vamana graph (or of all shards of one),
/// from its structural summary.
pub fn vamana_build_metrics(rep: &mut Report, st: &IndexStats, cpu_util: f64) {
    rep.metric(
        "core.build.dist_comps_per_point.vamana",
        st.build.dist_comps as f64 / st.points as f64,
        "count",
    );
    rep.metric("core.build.avg_degree.vamana", st.avg_degree(), "count");
    rep.metric("parlay.cpu_util.build.vamana", cpu_util, "share");
}

/// Runs `setup` [`SETUPS`] times, dropping each result before the next
/// starts so peak memory holds one copy, bracketed by host probes.
/// Returns the set-up times in seconds, every result's `keep` projection
/// with the host slowdown over its set-up, and the last result.
pub fn repeat_setup<S, K>(
    mut setup: impl FnMut() -> S,
    keep: impl Fn(&S) -> K,
) -> (Vec<f64>, Vec<(K, f64)>, S) {
    let mut last = None;
    let runs = host::bracketed(
        |i| i < SETUPS,
        |_| {
            drop(last.take());
            let t = Instant::now();
            let s = setup();
            let secs = t.elapsed().as_secs_f64();
            let k = keep(&s);
            last = Some(s);
            (secs, k)
        },
    );
    let times = runs.iter().map(|r| r.0 .0).collect();
    let kept = runs.into_iter().map(|((_, k), h)| (k, h)).collect();
    (times, kept, last.expect("at least one set-up"))
}

/// Median of `(build seconds, host slowdown)` pairs, scaled to the
/// reference host by the median slowdown; the unscaled median and the
/// median slowdown become detail lines.
pub fn build_at_ref(rep: &mut Report, builds: &[(f64, f64)]) -> f64 {
    let raw: Vec<f64> = builds.iter().map(|b| b.0).collect();
    let slow: Vec<f64> = builds.iter().map(|b| b.1).collect();
    let n = format!("builds={}", builds.len());
    rep.detail("build_s.vamana.raw", median(&raw), "s", n.clone());
    rep.detail("host.slowdown", median(&slow), "x", n);
    host::time_at_ref(median(&raw), median(&slow))
}

/// Writes the spans of `tr` to `out/trace-<workload>-<seed>.jsonl` and
/// adds per-name count, total and self time as detail lines.
pub fn finish_trace(rep: &mut Report, tr: &Tracer, workload: &str, seed: u64) {
    let spans = tr.spans();
    let dir = crate::out_dir();
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|_| crate::trace::write_jsonl(&path, &spans)) {
        Ok(()) => rep.detail(
            "trace.spans",
            spans.len() as f64,
            "count",
            path.display().to_string(),
        ),
        Err(e) => rep.check("trace written", false, e.to_string()),
    }
    for (name, t) in crate::trace::totals(&spans) {
        rep.detail(
            &format!("span.{name}.self_ms"),
            t.self_ns as f64 / 1e6,
            "ms",
            format!("count={} total_ms={:.3}", t.count, t.total_ns as f64 / 1e6),
        );
    }
}
