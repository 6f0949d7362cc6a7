//! `batch-knn`: offline batch k-NN over large Vamana graphs.
//!
//! Each set-up draws its own `bigann_like` u8 d=128 corpus and builds one
//! Vamana graph over it. The window measures single-query latency from
//! one client and from one client per core on the last graph, then a
//! closed loop of `AnnIndex::search_batch` (the query-blocked engine) on
//! each graph in turn. The beam loop and the u8 kernels do nearly all the
//! work; the store and serve layers do none.

use crate::common::{self, Answers, Headline, Queries, SETUPS};
use crate::host;
use crate::report::Report;
use crate::stats::median;
use crate::sys::Usage;
use crate::trace::{timed, Tracer};
use crate::Args;
use ann_data::{bigann_like, compute_ground_truth, Dataset, GroundTruth};
use parlayann::{AnnIndex, QueryParams, VamanaIndex, VamanaParams};
use std::time::Instant;

/// Corpus size.
pub const N: usize = 20_000;
/// Query set size.
pub const NQ: usize = 1_000;
/// Query beam width.
pub const BEAM: usize = 192;

struct State {
    data: Dataset<u8>,
    gt: GroundTruth,
    index: VamanaIndex<u8>,
    gen_s: f64,
    gt_s: f64,
    build_s: f64,
    build_util: f64,
}

fn setup(seed: u64, tr: Option<&Tracer>) -> State {
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
    let index = timed(tr, "core.build.vamana", 0, 0, |_| {
        VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default())
    });
    State {
        build_s: t.elapsed().as_secs_f64(),
        build_util: usage.util(rayon::current_num_threads()),
        data,
        gt,
        index,
        gen_s,
        gt_s,
    }
}

/// Seed of the `i`-th corpus of a run.
fn corpus_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SETUPS as u64).wrapping_add(i as u64)
}

fn params() -> QueryParams {
    QueryParams {
        k: 10,
        beam: BEAM,
        ..QueryParams::default()
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let params = params();
    if !args.trace {
        // Each set-up draws its own corpus, so `qps` and the build time
        // average over SETUPS corpora rather than resting on one draw:
        // a single corpus's throughput swings by about 20% with the seed.
        let runs = host::bracketed(
            |i| i < SETUPS,
            |i| {
                let t = Instant::now();
                let s = setup(corpus_seed(args.seed, i), None);
                (t.elapsed().as_secs_f64(), s)
            },
        );
        let setup_s: Vec<f64> = runs.iter().map(|r| r.0 .0).collect();
        let builds: Vec<(f64, f64)> = runs.iter().map(|((_, s), h)| (s.build_s, *h)).collect();
        let states: Vec<State> = runs.into_iter().map(|((_, s), _)| s).collect();
        let first = &states[0];
        let again = VamanaIndex::build(
            first.data.points.clone(),
            first.data.metric,
            &VamanaParams::default(),
        );
        let fps = [first.index.graph.fingerprint(), again.graph.fingerprint()];
        rep.check(
            "vamana build repeats bit-identically",
            fps[0] == fps[1],
            format!("first corpus built twice, fingerprints {fps:016x?}"),
        );
        drop(again);
        let expected: Vec<Answers> = states
            .iter()
            .map(|s| reference(&mut rep, s, &params))
            .collect();
        let sets: Vec<Queries<u8>> = states
            .iter()
            .zip(&expected)
            .map(|(s, e)| queries(s, &params, e))
            .collect();
        let w = common::closed_window(&mut rep, None, &sets, args.seconds);
        let build_s = common::build_at_ref(&mut rep, &builds);
        let recall: f64 = states
            .iter()
            .zip(&expected)
            .map(|(s, e)| common::recall10(&s.gt, e))
            .sum();
        let h = Headline {
            setup_s: median(&setup_s),
            recall10: recall / states.len() as f64,
            build_vamana_s: build_s,
            build_all_s: build_s,
        };
        common::emit_e2e(&mut rep, &h, &w);
        return rep;
    }
    let tr = Tracer::new();
    let s = setup(corpus_seed(args.seed, 0), Some(&tr));
    let expected = reference(&mut rep, &s, &params);
    let q = queries(&s, &params, &expected);
    let plain = common::closed_window(&mut rep, None, std::slice::from_ref(&q), args.seconds);
    let traced = common::closed_window(&mut rep, Some(&tr), std::slice::from_ref(&q), args.seconds);
    let (u8_ns, _) = common::kernel_probes(&mut rep, args.seed, Some(&s.data.points), None);
    rep.metric("data.gen_s", s.gen_s, "s");
    rep.metric("data.gt_s", s.gt_s, "s");
    common::search_probes(
        &mut rep,
        Some(&tr),
        &s.index,
        &s.data.queries,
        &params,
        u8_ns,
    );
    common::vamana_build_metrics(&mut rep, &s.index.stats(), s.build_util);
    rep.metric("parlay.cpu_util.batch", plain.cpu_util, "share");
    common::emit_overhead(&mut rep, &plain, &traced);
    common::finish_trace(&mut rep, &tr, &args.workload, args.seed);
    rep
}

fn queries<'a>(s: &'a State, params: &'a QueryParams, expected: &'a Answers) -> Queries<'a, u8> {
    Queries {
        index: &s.index,
        queries: &s.data.queries,
        params,
        expected,
    }
}

/// Per-query `search` answers, and the check that one `search_batch`
/// pass matches them.
fn reference(rep: &mut Report, s: &State, params: &QueryParams) -> Answers {
    let expected = common::reference(&s.index, &s.data.queries, params);
    let batch: Answers = s
        .index
        .search_batch(&s.data.queries, params)
        .into_iter()
        .map(|(a, _)| a)
        .collect();
    rep.check(
        "search_batch bit-identical to per-query search",
        batch == expected,
        format!("{} queries, digest {:016x}", NQ, common::digest(&expected)),
    );
    expected
}
