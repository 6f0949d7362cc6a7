//! `build-ood`: builds all four graph families over out-of-distribution
//! inner-product data.
//!
//! Each round builds Vamana, HNSW, HCNNG and PyNNDescent over its own
//! `text2image_like` f32 d=200 corpus and follows each build with a
//! fixed-beam recall pass over queries drawn from a different mixture.
//! A fixed number of rounds runs first, so the memory high-water mark
//! does not depend on host speed; the rest of the window queries the
//! rounds' Vamana graphs. The builders and the f32 kernels do the work; the build
//! runs the same beam search as queries, with build-time parameters.

use crate::common::{self, Answers, Headline, Index, Queries, Window};
use crate::host;
use crate::report::Report;
use crate::stats::median;
use crate::sys::Usage;
use crate::trace::{timed, Tracer};
use crate::Args;
use ann_data::io::BinaryElem;
use ann_data::{
    bigann_like, compute_ground_truth, text2image_like, Dataset, GroundTruth, Metric, PointSet,
    VectorElem,
};
use parlayann::{
    HcnngIndex, HcnngParams, HnswIndex, HnswParams, IndexStats, PyNNDescentIndex,
    PyNNDescentParams, QueryParams, VamanaIndex, VamanaParams,
};
use std::time::{Duration, Instant};

/// Corpus size.
pub const N: usize = 8_000;
/// Query set size.
pub const NQ: usize = 1_000;
/// Build rounds per window, each over its own corpus. OOD recall of one
/// corpus swings widely with the seed (0.68 to 0.93 at beam 256 over ten
/// seeds); the mean over several corpora is steadier.
pub const ROUNDS: usize = 3;
/// Beam width of the recall passes and the query phases. OOD recall at
/// beam 64 swings from 0.47 to 0.77 across seeds; at 256 it is closer to
/// saturation.
pub const BEAM: usize = 256;
/// The graph families, in build order.
pub const FAMILIES: [&str; 4] = ["vamana", "hnsw", "hcnng", "pynndescent"];
const SPANS: [&str; 4] = [
    "core.build.vamana",
    "core.build.hnsw",
    "core.build.hcnng",
    "core.build.pynndescent",
];
/// Least share of the window left for the query phases after the rounds.
const QUERY_SHARE: f64 = 0.6;

/// In-distribution recall@10 floors per family and the data and beam
/// they are set at: `bigann_like(1_500, 80, 2026)` at beam 64, as in the
/// repository's `tests/recall.rs`.
const FLOOR_BEAM: usize = 64;
const FLOOR_N: usize = 1_500;
const FLOOR_NQ: usize = 80;
const FLOOR_SEED: u64 = 2026;
const FLOORS: [f64; 4] = [0.97, 0.97, 0.97, 0.90];

/// One seeded instance: corpus, OOD queries and their ground truth.
struct Corpus {
    data: Dataset<f32>,
    gt: GroundTruth,
}

struct State {
    /// One corpus per round.
    corpora: Vec<Corpus>,
    gen_s: f64,
    gt_s: f64,
}

fn setup(seed: u64, tr: Option<&Tracer>) -> State {
    let (mut gen_s, mut gt_s) = (0.0, 0.0);
    let corpora = (0..ROUNDS as u64)
        .map(|r| {
            let sub = seed.wrapping_mul(ROUNDS as u64).wrapping_add(r);
            let t = Instant::now();
            let data = timed(tr, "data.gen", 0, r, |_| text2image_like(N, NQ, sub));
            gen_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let gt = timed(tr, "data.gt", 0, r, |_| {
                compute_ground_truth(&data.points, &data.queries, 10, data.metric)
            });
            gt_s += t.elapsed().as_secs_f64();
            Corpus { data, gt }
        })
        .collect();
    State {
        corpora,
        gen_s,
        gt_s,
    }
}

/// One built graph and what its build cost.
struct Built<T: VectorElem> {
    index: Box<Index<T>>,
    build_s: f64,
    util: f64,
    fingerprint: Option<u64>,
}

/// Builds family `f` with its default parameters; only Vamana exposes
/// its graph for a fingerprint.
fn build<T: VectorElem + BinaryElem>(
    tr: Option<&Tracer>,
    f: usize,
    points: &PointSet<T>,
    metric: Metric,
) -> Built<T> {
    let usage = Usage::start();
    let t = Instant::now();
    let (index, fingerprint): (Box<Index<T>>, Option<u64>) = timed(tr, SPANS[f], 0, 0, |_| {
        let p = points.clone();
        match f {
            0 => {
                let v = VamanaIndex::build(p, metric, &VamanaParams::default());
                let fp = v.graph.fingerprint();
                (Box::new(v) as Box<Index<T>>, Some(fp))
            }
            1 => (
                Box::new(HnswIndex::build(p, metric, &HnswParams::default())) as Box<Index<T>>,
                None,
            ),
            2 => (
                Box::new(HcnngIndex::build(p, metric, &HcnngParams::default())) as Box<Index<T>>,
                None,
            ),
            _ => (
                Box::new(PyNNDescentIndex::build(
                    p,
                    metric,
                    &PyNNDescentParams::default(),
                )) as Box<Index<T>>,
                None,
            ),
        }
    });
    Built {
        build_s: t.elapsed().as_secs_f64(),
        util: usage.util(rayon::current_num_threads()),
        index,
        fingerprint,
    }
}

fn params(beam: usize) -> QueryParams {
    QueryParams {
        k: 10,
        beam,
        ..QueryParams::default()
    }
}

/// One family's outcome in one round.
#[derive(Clone, Copy)]
struct FamilyRound {
    build_s: f64,
    util: f64,
    recall: f64,
    stats: IndexStats,
}

/// What a window measured besides its [`Window`].
struct Rounds {
    /// `rounds[r][f]`.
    rounds: Vec<[FamilyRound; 4]>,
    /// Median host slowdown over the builds.
    slowdown: f64,
    /// Fingerprint of the first round's Vamana graph.
    vamana_fp: u64,
    /// Each round's Vamana graph.
    vamanas: Vec<Box<Index<f32>>>,
}

fn window(rep: &mut Report, tr: Option<&Tracer>, s: &State, dur: Duration) -> (Window, Rounds) {
    let params = params(BEAM);
    let start = Instant::now();
    let mut fingerprints = Vec::new();
    let mut vamanas = Vec::new();
    // Build i is family i % 4 on corpus i / 4.
    let builds = host::bracketed(
        |i| i < ROUNDS * FAMILIES.len(),
        |i| {
            let (c, f) = (&s.corpora[i / FAMILIES.len()], i % FAMILIES.len());
            let b = build(tr, f, &c.data.points, c.data.metric);
            let answers: Answers = timed(tr, "core.search_batch", 0, f as u64, |_| {
                b.index.search_batch(&c.data.queries, &params)
            })
            .into_iter()
            .map(|(a, _)| a)
            .collect();
            rep.ops(1 + NQ as u64, 0);
            let out = (
                b.build_s,
                b.util,
                common::recall10(&c.gt, &answers),
                b.index.stats(),
            );
            if let Some(fp) = b.fingerprint {
                fingerprints.push(fp);
                vamanas.push(b.index);
            }
            out
        },
    );
    let rounds: Vec<[FamilyRound; 4]> = builds
        .chunks(FAMILIES.len())
        .map(|round| {
            std::array::from_fn(|f| {
                let ((build_s, util, recall, stats), _) = round[f];
                FamilyRound {
                    build_s,
                    util,
                    recall,
                    stats,
                }
            })
        })
        .collect();
    let slowdown = median(&builds.iter().map(|b| b.1).collect::<Vec<_>>());
    let expected: Vec<Answers> = vamanas
        .iter()
        .zip(&s.corpora)
        .map(|(v, c)| common::reference(&**v, &c.data.queries, &params))
        .collect();
    let sets: Vec<Queries<f32>> = vamanas
        .iter()
        .zip(&s.corpora)
        .zip(&expected)
        .map(|((v, c), e)| Queries {
            index: &**v,
            queries: &c.data.queries,
            params: &params,
            expected: e,
        })
        .collect();
    let rest = dur.saturating_sub(start.elapsed());
    let w = common::closed_window(rep, tr, &sets, rest.max(dur.mul_f64(QUERY_SHARE)));
    drop(sets);
    (
        w,
        Rounds {
            rounds,
            slowdown,
            vamana_fp: fingerprints[0],
            vamanas,
        },
    )
}

fn family_median(r: &Rounds, f: usize, get: impl Fn(&FamilyRound) -> f64) -> f64 {
    median(&r.rounds.iter().map(|x| get(&x[f])).collect::<Vec<_>>())
}

fn family_mean(r: &Rounds, f: usize, get: impl Fn(&FamilyRound) -> f64) -> f64 {
    r.rounds.iter().map(|x| get(&x[f])).sum::<f64>() / r.rounds.len() as f64
}

/// Build times are means over the rounds, not medians: each round has
/// its own corpus, and the builders' work varies with it (PyNNDescent's
/// by about 20%), so the mean averages that variation out; host noise is
/// taken out by the probes.
fn headline(setup_s: f64, r: &Rounds) -> Headline {
    let all = |x: &[FamilyRound; 4]| x.iter().map(|f| f.build_s).sum::<f64>();
    let mean_all = r.rounds.iter().map(all).sum::<f64>() / r.rounds.len() as f64;
    Headline {
        setup_s,
        recall10: family_mean(r, 0, |f| f.recall),
        build_vamana_s: host::time_at_ref(family_mean(r, 0, |f| f.build_s), r.slowdown),
        build_all_s: host::time_at_ref(mean_all, r.slowdown),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    if !args.trace {
        let (setup_s, _, s) = common::repeat_setup(|| setup(args.seed, None), |_| ());
        let (w, r) = window(&mut rep, None, &s, args.seconds);
        family_details(&mut rep, &r, false);
        checks(&mut rep, &s, &r, args.seed);
        common::emit_e2e(&mut rep, &headline(median(&setup_s), &r), &w);
        return rep;
    }
    let tr = Tracer::new();
    let s = setup(args.seed, Some(&tr));
    let (plain, r) = window(&mut rep, None, &s, args.seconds);
    let (traced, _) = window(&mut rep, Some(&tr), &s, args.seconds);
    let first = &s.corpora[0].data;
    let last = &s.corpora[ROUNDS - 1].data;
    let (_, f32_ns) = common::kernel_probes(&mut rep, args.seed, None, Some(&first.points));
    rep.metric("data.gen_s", s.gen_s, "s");
    rep.metric("data.gt_s", s.gt_s, "s");
    common::search_probes(
        &mut rep,
        Some(&tr),
        &*r.vamanas[ROUNDS - 1],
        &last.queries,
        &params(BEAM),
        f32_ns,
    );
    let vamana_util = family_median(&r, 0, |f| f.util);
    common::vamana_build_metrics(&mut rep, &r.rounds[0][0].stats, vamana_util);
    rep.metric("parlay.cpu_util.batch", plain.cpu_util, "share");
    common::emit_overhead(&mut rep, &plain, &traced);
    family_details(&mut rep, &r, true);
    checks(&mut rep, &s, &r, args.seed);
    common::finish_trace(&mut rep, &tr, &args.workload, args.seed);
    rep
}

/// Per-family build time and OOD recall; with `layers`, also the
/// per-family layer metrics of the traced run.
fn family_details(rep: &mut Report, r: &Rounds, layers: bool) {
    let n = format!("rounds={}", r.rounds.len());
    rep.detail("host.slowdown", r.slowdown, "x", "median over the builds");
    for (f, fam) in FAMILIES.iter().enumerate() {
        rep.detail(
            &format!("build_s.{fam}.ref"),
            host::time_at_ref(family_mean(r, f, |x| x.build_s), r.slowdown),
            "s",
            format!("{n}, scaled to the reference host"),
        );
        rep.detail(
            &format!("build_s.{fam}.raw"),
            family_mean(r, f, |x| x.build_s),
            "s",
            n.clone(),
        );
        rep.detail(
            &format!("core.build.recall10.{fam}"),
            family_mean(r, f, |x| x.recall),
            "share",
            format!("mean over {n}, beam={BEAM}, OOD queries"),
        );
        if layers {
            rep.detail(
                &format!("core.build.dist_comps_per_point.{fam}"),
                family_median(r, f, |x| {
                    x.stats.build.dist_comps as f64 / x.stats.points as f64
                }),
                "count",
                n.clone(),
            );
            rep.detail(
                &format!("core.build.avg_degree.{fam}"),
                family_median(r, f, |x| x.stats.avg_degree()),
                "count",
                n.clone(),
            );
            rep.detail(
                &format!("parlay.cpu_util.build.{fam}"),
                family_median(r, f, |x| x.util),
                "share",
                n.clone(),
            );
        }
    }
}

/// The Vamana graph is identical when built on one worker thread, and
/// every family clears its in-distribution recall floor.
fn checks(rep: &mut Report, s: &State, r: &Rounds, seed: u64) {
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let first = &s.corpora[0].data;
    let b1 = one.install(|| build(None, 0, &first.points, first.metric));
    let fp1 = b1.fingerprint.expect("vamana fingerprint");
    rep.check(
        "vamana graph identical at 1 and pool threads",
        fp1 == r.vamana_fp,
        format!(
            "1 thread {fp1:016x}, {} threads {:016x}",
            rayon::current_num_threads(),
            r.vamana_fp
        ),
    );
    rep.detail(
        "core.build.speedup_2t.vamana",
        b1.build_s / family_median(r, 0, |x| x.build_s),
        "ratio",
        format!(
            "1-thread build {:.3} s vs {} threads",
            b1.build_s,
            rayon::current_num_threads()
        ),
    );
    // The floors are gated on the data they were set on; the same
    // measurement on the run's seed is reported beside them.
    for (data_seed, gate) in [(FLOOR_SEED, true), (seed, false)] {
        let d = bigann_like(FLOOR_N, FLOOR_NQ, data_seed);
        let gt = compute_ground_truth(&d.points, &d.queries, 10, d.metric);
        for (f, fam) in FAMILIES.iter().enumerate() {
            let b = build(None, f, &d.points, d.metric);
            let answers: Answers = b
                .index
                .search_batch(&d.queries, &params(FLOOR_BEAM))
                .into_iter()
                .map(|(a, _)| a)
                .collect();
            let recall = common::recall10(&gt, &answers);
            let what = format!("bigann_like n={FLOOR_N} seed {data_seed}, beam {FLOOR_BEAM}");
            if gate {
                rep.check(
                    &format!("{fam} in-distribution recall floor"),
                    recall >= FLOORS[f],
                    format!("recall@10 {recall:.4} >= {} ({what})", FLOORS[f]),
                );
            } else {
                let note = format!("{what}; floor {} holds at seed {FLOOR_SEED}", FLOORS[f]);
                rep.detail(&format!("recall10.in_dist.{fam}"), recall, "share", note);
            }
        }
    }
}
