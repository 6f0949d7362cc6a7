//! `serve-sharded`: serving over a sharded store.
//!
//! A `Server` with the default `ServerConfig` (beam 64, 1 ms budget per
//! request) fronts a 4-way hash-partitioned `ShardedIndex` of Vamana
//! shards over `bigann_like` u8 data, with full fan-out. Set-up saves the
//! store with `save_manifest` and serves the copy `load_manifest` returns.
//! Poisson arrivals come at fixed absolute rates: a low rate where the
//! coalescer's deadline wait dominates, a high rate where engine and
//! fan-out service dominate (with one live reload of a freshly loaded
//! generation halfway through), and a fixed ladder for the highest rate
//! that meets the latency limit. Last, a closed loop with a fixed number
//! of requests in flight gives the sustained throughput.

use crate::common::{self, Answers, Headline, Window};
use crate::host;
use crate::loadgen::{self, Clock, Wall};
use crate::report::Report;
use crate::stats::{median, Tail};
use crate::sys::Usage;
use crate::trace::{timed, Tracer};
use crate::Args;
use ann_data::{bigann_like, compute_ground_truth, Dataset, GroundTruth, PointSet};
use parlayann::{AnnIndex, IndexStats, QueryEngine, QueryParams};
use parlayann_serve::{DispatchReason, Server, ServerConfig};
use parlayann_store::{
    build_sharded_vamana, load_manifest, merge_topk, save_manifest, ShardedIndex,
};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Corpus size.
pub const N: usize = 30_000;
/// Distinct queries; requests cycle through them.
pub const NQ: usize = 2_000;
/// Hash-partitioned shards.
pub const SHARDS: usize = 4;
/// Server beam width.
pub const BEAM: usize = 64;
/// Latency budget of every request.
pub const BUDGET: Duration = Duration::from_millis(1);
/// The low offered rate, requests/s.
pub const RATE_LOW: f64 = 500.0;
/// The high offered rate, requests/s.
pub const RATE_HIGH: f64 = 1_500.0;
/// Shares of the window at the low and the high rate and in the closed
/// loop; the ladder gets the rest, though each rung runs for at least
/// [`RUNG_MIN_REQUESTS`]. The closed loop is longest because it gives the
/// gated `qps`, the high phase next because its p99 is the noisiest
/// latency.
const LOW_SHARE: f64 = 0.15;
const HIGH_SHARE: f64 = 0.3;
const CLOSED_SHARE: f64 = 0.5;
/// Offered rates tried, in order, for the highest rate meeting the limit.
pub const LADDER: [f64; 12] = [
    2_000.0, 3_000.0, 3_500.0, 3_750.0, 4_000.0, 4_300.0, 4_600.0, 5_000.0, 5_400.0, 5_800.0,
    6_200.0, 6_600.0,
];
/// p99 latency limit of a ladder rung, us.
pub const LIMIT_US: f64 = 50_000.0;
/// Requests the closed-loop client keeps in flight; the gated `qps` is
/// the completion rate it sustains.
pub const CLOSED_INFLIGHT: usize = 64;
/// Closed-loop segment between host probes.
const SEGMENT: Duration = Duration::from_millis(300);
/// Fewest requests a ladder rung offers, so its p99 has a tail.
const RUNG_MIN_REQUESTS: f64 = 3_000.0;
/// Most requests left in flight when a rung's sender finishes that still
/// counts as no growing backlog.
const BACKLOG_MAX: usize = 64;

struct State {
    data: Dataset<u8>,
    gt: GroundTruth,
    store: Arc<ShardedIndex<u8>>,
    built: Option<ShardedIndex<u8>>,
    built_stats: IndexStats,
    gen_s: f64,
    gt_s: f64,
    build_s: f64,
    build_util: f64,
    save_s: f64,
    load_s: f64,
}

fn params() -> QueryParams {
    QueryParams {
        k: 10,
        beam: BEAM,
        ..QueryParams::default()
    }
}

fn answers(index: &dyn AnnIndex<u8>, queries: &PointSet<u8>) -> Answers {
    index
        .search_batch(queries, &params())
        .into_iter()
        .map(|(a, _)| a)
        .collect()
}

fn setup(seed: u64, tr: Option<&Tracer>, dir: &Path) -> State {
    let t = Instant::now();
    let data = timed(tr, "data.gen", 0, 0, |_| bigann_like(N, NQ, seed));
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let gt = timed(tr, "data.gt", 0, 0, |_| {
        compute_ground_truth(&data.points, &data.queries, 10, data.metric)
    });
    let gt_s = t.elapsed().as_secs_f64();
    let usage = Usage::start();
    let t = Instant::now();
    let built = timed(tr, "store.build", 0, 0, |_| {
        build_sharded_vamana(&data.points, data.metric, SHARDS, seed)
    });
    let build_s = t.elapsed().as_secs_f64();
    let build_util = usage.util(rayon::current_num_threads());
    let t = Instant::now();
    timed(tr, "store.save_manifest", 0, 0, |_| {
        save_manifest(dir, &built)
    })
    .expect("saving the store manifest");
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let store = timed(tr, "store.load_manifest", 0, 0, |_| {
        load_manifest::<u8>(dir)
    })
    .map(Arc::new)
    .expect("loading the store manifest");
    let load_s = t.elapsed().as_secs_f64();
    State {
        built_stats: built.stats(),
        built: Some(built),
        data,
        gt,
        store,
        gen_s,
        gt_s,
        build_s,
        build_util,
        save_s,
        load_s,
    }
}

/// What the collector keeps of one response.
struct Reply {
    ok: bool,
    queue_ns: u64,
    batch_size: usize,
    deadline: bool,
    probed: u32,
    generation: u64,
    span: u64,
}

/// One open-loop phase at a fixed offered rate.
#[derive(Default)]
struct Phase {
    rate: f64,
    secs: f64,
    /// Due-to-completion latency per request, ns; misses are infinite.
    latency: Vec<f64>,
    queue: Vec<f64>,
    service: Vec<f64>,
    submit: Vec<f64>,
    late: Vec<f64>,
    answered: usize,
    shed: usize,
    failed: usize,
    batch_sum: f64,
    deadline: usize,
    probed_sum: f64,
    /// `Server::pending()` when the sender finished: queued, undispatched.
    backlog_end: usize,
    /// `Server::inflight()` when the sender finished: queued or executing.
    inflight_end: usize,
    generations: BTreeSet<u64>,
    /// `(load_manifest seconds, reload call us)` of a live reload.
    reload: Option<(f64, f64)>,
    cpu_util: f64,
}

impl Phase {
    fn tail(&self) -> Tail {
        Tail::of(&self.latency)
    }
}

#[allow(clippy::too_many_arguments)]
fn phase(
    server: &Server<u8>,
    queries: &PointSet<u8>,
    expected: &Answers,
    rate: f64,
    dur: Duration,
    seed: u64,
    tr: Option<&Tracer>,
    reload_from: Option<&Path>,
) -> Phase {
    let schedule = loadgen::poisson_schedule(rate, dur, seed);
    let usage = Usage::start();
    let wall = Wall::new();
    let (tx, rx) = mpsc::channel();
    let (done, (shed, backlog_end, inflight_end), reload) = std::thread::scope(|s| {
        let wall = &wall;
        let schedule = &schedule;
        let sender = s.spawn(move || {
            let mut shed = 0;
            loadgen::send(
                wall,
                schedule,
                |i| {
                    let q = i % queries.len();
                    let span = tr.map_or(0, |t| t.id());
                    let r = timed(tr, "serve.submit", span, i as u64, |_| {
                        server.submit(queries.point(q), 10, BUDGET)
                    });
                    shed += r.is_err() as usize;
                    r.ok().map(|h| (i as u64, q, span, h))
                },
                |sent| tx.send(sent).expect("collector alive"),
            );
            (shed, server.pending(), server.inflight())
        });
        let collector = s.spawn(move || {
            loadgen::collect(wall, rx, |(i, q, span, h)| {
                let r = timed(tr, "serve.wait", span, i, |_| {
                    catch_unwind(AssertUnwindSafe(|| h.wait())).ok()
                })?;
                Some(Reply {
                    ok: r.neighbors == expected[q],
                    queue_ns: r.queue_ns,
                    batch_size: r.batch_size,
                    deadline: r.reason == DispatchReason::Deadline,
                    probed: r.probed_shards,
                    generation: r.generation,
                    span,
                })
            })
        });
        let reload = reload_from.map(|dir| {
            wall.sleep_until(dur.as_nanos() as u64 / 2);
            let t = Instant::now();
            let fresh = timed(tr, "store.load_manifest", 0, 0, |_| {
                load_manifest::<u8>(dir)
            })
            .expect("loading the store manifest for reload");
            let load_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            timed(tr, "serve.reload", 0, 0, |_| server.reload(Arc::new(fresh)))
                .expect("reload of a same-dimension store");
            (load_s, t.elapsed().as_nanos() as f64 / 1e3)
        });
        let sent = sender.join().expect("sender thread panicked");
        let done = collector.join().expect("collector thread panicked");
        (done, sent, reload)
    });
    let mut p = Phase {
        rate,
        secs: dur.as_secs_f64(),
        shed,
        backlog_end,
        inflight_end,
        reload,
        cpu_util: usage.util(rayon::current_num_threads()),
        ..Phase::default()
    };
    for d in done {
        p.late.push(d.late_ns as f64);
        p.submit.push(d.submit_ns as f64);
        let (Some(r), Some(lat)) = (d.reply, d.latency_ns) else {
            p.latency.push(f64::INFINITY);
            continue;
        };
        if let Some(t) = tr {
            let start = wall.instant(d.due_ns);
            t.record(
                r.span,
                "client.request",
                0,
                d.idx as u64,
                start,
                start + Duration::from_nanos(lat),
            );
        }
        if !r.ok {
            p.latency.push(f64::INFINITY);
            continue;
        }
        p.answered += 1;
        p.latency.push(lat as f64);
        p.queue.push(r.queue_ns as f64);
        p.service.push(lat.saturating_sub(r.queue_ns) as f64);
        p.batch_sum += r.batch_size as f64;
        p.deadline += r.deadline as usize;
        p.probed_sum += r.probed as f64;
        p.generations.insert(r.generation);
    }
    p.failed = p.latency.len() - p.answered;
    p
}

/// Everything one measured window produced.
struct Served {
    window: Window,
    low: Phase,
    high: Phase,
    slo_rung: Option<Phase>,
}

fn window(
    rep: &mut Report,
    tr: Option<&Tracer>,
    s: &State,
    expected: &Answers,
    dir: &Path,
    seed: u64,
    dur: Duration,
) -> Served {
    let config = ServerConfig {
        params: params(),
        ..ServerConfig::default()
    };
    let mut server = Server::start(s.store.clone(), config);
    let q = &s.data.queries;
    let low = phase(
        &server,
        q,
        expected,
        RATE_LOW,
        dur.mul_f64(LOW_SHARE),
        seed ^ 0x10,
        tr,
        None,
    );
    let high = phase(
        &server,
        q,
        expected,
        RATE_HIGH,
        dur.mul_f64(HIGH_SHARE),
        seed ^ 0x20,
        tr,
        Some(dir),
    );
    // Every rung runs; the ladder stops early only once the backlog grows,
    // since later rungs would only queue deeper.
    let mut slo_rung: Option<Phase> = None;
    let mut ladder = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let rung_dur = dur
            .mul_f64((1.0 - LOW_SHARE - HIGH_SHARE - CLOSED_SHARE) / LADDER.len() as f64)
            .max(Duration::from_secs_f64(RUNG_MIN_REQUESTS / rate));
        let p = phase(
            &server,
            q,
            expected,
            rate,
            rung_dur,
            seed ^ (0x30 + i as u64),
            tr,
            None,
        );
        let t = p.tail();
        let backlog = p.inflight_end > BACKLOG_MAX;
        let pass = p.failed == 0 && !backlog && t.p99.is_some_and(|x| x <= LIMIT_US * 1e3);
        let p99_us = t.p99.map_or(f64::NAN, |x| x / 1e3);
        ladder.push(format!(
            "{rate}/s p99 {p99_us:.0}us inflight {} {}",
            p.inflight_end,
            if pass { "ok" } else { "miss" }
        ));
        count(rep, &p);
        if pass {
            slo_rung = Some(p);
        } else if backlog {
            break;
        }
    }
    let (qps, raw_qps) = closed_phase(rep, &server, q, expected, dur.mul_f64(CLOSED_SHARE));
    rep.detail(
        "qps.raw",
        raw_qps,
        "1/s",
        format!("closed loop, {CLOSED_INFLIGHT} in flight, unscaled"),
    );
    server.shutdown();
    count(rep, &low);
    count(rep, &high);
    rep.check(
        "reload swaps generation mid-phase",
        high.generations == BTreeSet::from([0, 1]) && high.reload.is_some(),
        format!("high phase served generations {:?}", high.generations),
    );
    // No passing rung is a measurement (the limit was met at no rate on
    // the ladder), not a failed operation.
    let slo = slo_rung
        .as_ref()
        .map_or(0.0, |p| p.answered as f64 / p.secs);
    rep.detail(
        "slo_qps",
        slo,
        "1/s",
        format!("limit p99<={LIMIT_US}us, ladder {ladder:?}"),
    );
    let low_us = rep.tail_details("latency", ".low", &low.tail());
    let high_us = rep.tail_details("latency", ".high", &high.tail());
    Served {
        window: Window {
            qps,
            low: low_us,
            high: high_us,
            cpu_util: high.cpu_util,
        },
        low,
        high,
        slo_rung,
    }
}

/// Closed loop into `server` for `dur`: one client keeps
/// [`CLOSED_INFLIGHT`] requests in flight, in segments that each end
/// drained, bracketed by host probes. Every answer is checked; refused,
/// panicked or wrong ones are failures. Returns the median segment
/// completion rate scaled to the reference host by the median slowdown,
/// and unscaled.
fn closed_phase(
    rep: &mut Report,
    server: &Server<u8>,
    queries: &PointSet<u8>,
    expected: &Answers,
    dur: Duration,
) -> (f64, f64) {
    let end = Instant::now() + dur;
    let (mut attempted, mut failed, mut next) = (0u64, 0u64, 0usize);
    let segments = host::bracketed(
        |_| Instant::now() < end,
        |_| {
            let t = Instant::now();
            let mut inflight = VecDeque::with_capacity(CLOSED_INFLIGHT);
            let mut done = 0usize;
            loop {
                while t.elapsed() < SEGMENT && inflight.len() < CLOSED_INFLIGHT {
                    let q = next % queries.len();
                    next += 1;
                    attempted += 1;
                    match server.submit(queries.point(q), 10, BUDGET) {
                        Ok(h) => inflight.push_back((q, h)),
                        Err(_) => failed += 1,
                    }
                }
                let Some((q, h)) = inflight.pop_front() else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(|| h.wait())) {
                    Ok(r) if r.neighbors == expected[q] => done += 1,
                    _ => failed += 1,
                }
            }
            done as f64 / t.elapsed().as_secs_f64()
        },
    );
    rep.ops(attempted, failed);
    let raw = median(&segments.iter().map(|r| r.0).collect::<Vec<_>>());
    let slowdown = median(&segments.iter().map(|r| r.1).collect::<Vec<_>>());
    rep.detail(
        "host.slowdown.qps",
        slowdown,
        "x",
        format!("median over {} segments", segments.len()),
    );
    (host::rate_at_ref(raw, slowdown), raw)
}

fn count(rep: &mut Report, p: &Phase) {
    rep.ops(p.latency.len() as u64, p.failed as u64);
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let dir = crate::out_dir().join(format!("store-{}-{}", args.seed, std::process::id()));
    let rep = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

fn run_in(args: &Args, dir: &Path) -> Report {
    let mut rep = Report::default();
    std::fs::create_dir_all(dir).expect("creating the store directory");
    if !args.trace {
        let (setup_s, kept, mut s) =
            common::repeat_setup(|| setup(args.seed, None, dir), |s| s.build_s);
        let expected = reference(&mut rep, &mut s);
        let served = window(&mut rep, None, &s, &expected, dir, args.seed, args.seconds);
        let build_s = common::build_at_ref(&mut rep, &kept);
        let h = Headline {
            setup_s: median(&setup_s),
            recall10: common::recall10(&s.gt, &expected),
            build_vamana_s: build_s,
            build_all_s: build_s,
        };
        common::emit_e2e(&mut rep, &h, &served.window);
        return rep;
    }
    let tr = Tracer::new();
    let mut s = setup(args.seed, Some(&tr), dir);
    let expected = reference(&mut rep, &mut s);
    let plain = window(&mut rep, None, &s, &expected, dir, args.seed, args.seconds);
    let traced = window(
        &mut rep,
        Some(&tr),
        &s,
        &expected,
        dir,
        args.seed,
        args.seconds,
    );
    let (u8_ns, _) = common::kernel_probes(&mut rep, args.seed, Some(&s.data.points), None);
    rep.metric("data.gen_s", s.gen_s, "s");
    rep.metric("data.gt_s", s.gt_s, "s");
    common::search_probes(
        &mut rep,
        Some(&tr),
        &*s.store,
        &s.data.queries,
        &params(),
        u8_ns,
    );
    common::vamana_build_metrics(&mut rep, &s.built_stats, s.build_util);
    rep.metric("parlay.cpu_util.batch", plain.window.cpu_util, "share");
    common::emit_overhead(&mut rep, &plain.window, &traced.window);
    serve_details(&mut rep, &traced);
    rep.detail("store.save_s", s.save_s, "s", "set-up");
    rep.detail("store.load_s", s.load_s, "s", "set-up");
    let batch = traced.high.batch_sum / traced.high.answered.max(1) as f64;
    store_details(&mut rep, Some(&tr), &s, &expected, batch);
    common::finish_trace(&mut rep, &tr, &args.workload, args.seed);
    rep
}

/// Direct `search_batch` answers of the served store, checked against
/// the store as built before the manifest round trip.
fn reference(rep: &mut Report, s: &mut State) -> Answers {
    let expected = answers(&*s.store, &s.data.queries);
    let built = s.built.take().expect("built store kept by set-up");
    rep.check(
        "manifest round trip answers bit-identically",
        answers(&built, &s.data.queries) == expected,
        format!("{NQ} queries, digest {:016x}", common::digest(&expected)),
    );
    expected
}

/// Serve-layer metrics of both fixed-rate phases, suffixed by rate.
fn serve_details(rep: &mut Report, served: &Served) {
    for (sfx, p) in [(".low", &served.low), (".high", &served.high)] {
        let n = p.latency.len() as f64;
        let answered = p.answered.max(1) as f64;
        rep.tail_details("serve.queue_us", sfx, &Tail::of(&p.queue));
        rep.tail_details("serve.service_us", sfx, &Tail::of(&p.service));
        rep.tail_details("serve.submit_us", sfx, &Tail::of(&p.submit));
        rep.tail_details("serve.gen_late_us", sfx, &Tail::of(&p.late));
        let rate = format!("rate={}", p.rate);
        rep.detail(
            &format!("serve.batch_mean{sfx}"),
            p.batch_sum / answered,
            "count",
            rate.clone(),
        );
        rep.detail(
            &format!("serve.deadline_share{sfx}"),
            p.deadline as f64 / answered,
            "share",
            rate.clone(),
        );
        rep.detail(
            &format!("serve.shed_share{sfx}"),
            p.shed as f64 / n,
            "share",
            rate.clone(),
        );
        rep.detail(
            &format!("serve.backlog_end{sfx}"),
            p.backlog_end as f64,
            "count",
            rate.clone(),
        );
        let finite: Vec<f64> = p
            .latency
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rep.detail(
            &format!("serve.queue_share{sfx}"),
            mean(&p.queue) / mean(&finite),
            "share",
            rate,
        );
        rep.detail(
            &format!("store.probed_shards{sfx}"),
            p.probed_sum / answered,
            "count",
            "",
        );
    }
    if let Some((load_s, reload_us)) = served.high.reload {
        rep.detail(
            "serve.reload_us",
            reload_us,
            "us",
            "live reload, high phase",
        );
        rep.detail(
            "store.load_s.reload",
            load_s,
            "s",
            "load_manifest during the high phase",
        );
    }
    if let Some(p) = &served.slo_rung {
        rep.tail_details("latency", ".slo_rung", &p.tail());
    }
}

/// Times the store's fan-out against direct calls to each shard and the
/// merge, on batches of the served mean batch size, on one worker so
/// that the difference is the store's own work. The merged direct
/// answers must equal the fan-out's.
fn store_details(rep: &mut Report, tr: Option<&Tracer>, s: &State, expected: &Answers, batch: f64) {
    let b = (batch.round() as usize).clamp(1, NQ);
    let params = params();
    let engine = QueryEngine::with_block_size(ServerConfig::default().max_block);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let (mut fan, mut direct, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatched = 0;
    one.install(|| {
        for (c, lo) in (0..NQ).step_by(b).enumerate() {
            let ids: Vec<u32> = (lo as u32..(lo + b).min(NQ) as u32).collect();
            let qs = s.data.queries.gather(&ids);
            let t = Instant::now();
            let fanned = timed(tr, "store.fanout", 0, c as u64, |_| {
                s.store.search_batch_in(&qs, &params, &engine)
            });
            fan.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let lists: Vec<Vec<Vec<(u32, f32)>>> = s
                .store
                .shards()
                .iter()
                .map(|sh| {
                    timed(tr, "store.shard", 0, c as u64, |_| {
                        sh.index.search_batch_in(&qs, &params, &engine)
                    })
                    .into_iter()
                    .map(|(res, _)| {
                        res.into_iter()
                            .map(|(id, d)| (sh.globals[id as usize], d))
                            .collect()
                    })
                    .collect()
                })
                .collect();
            direct.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let merged: Vec<Vec<(u32, f32)>> = timed(tr, "store.merge", 0, c as u64, |_| {
                (0..qs.len())
                    .map(|q| {
                        let per_shard: Vec<&[(u32, f32)]> =
                            lists.iter().map(|l| l[q].as_slice()).collect();
                        merge_topk(&per_shard, params.k)
                    })
                    .collect()
            });
            merge.push(t.elapsed().as_nanos() as f64);
            mismatched += merged
                .iter()
                .zip(&fanned)
                .zip(&expected[lo..])
                .filter(|((m, (f, _)), want)| *m != f || f != *want)
                .count();
        }
    });
    rep.check(
        "fan-out equals merged direct shard answers",
        mismatched == 0,
        format!("{mismatched} of {NQ} differ, batch {b}"),
    );
    let (f, d) = (fan.iter().sum::<f64>(), direct.iter().sum::<f64>());
    let note = format!("batch={b}, batches={}, 1 worker", fan.len());
    rep.detail("store.fanout_us", median(&fan) / 1e3, "us", note.clone());
    rep.detail("store.shards_us", median(&direct) / 1e3, "us", note.clone());
    rep.detail("store.merge_us", median(&merge) / 1e3, "us", note.clone());
    rep.detail("store.overhead_share", (f - d) / f, "share", note);
}
