//! PQ-compressed graph search — the paper's Open Question 3.
//!
//! *"How can quantization methods be efficiently parallelized and made
//! deterministic, and how do such methods affect the choice of ANNS
//! algorithms?"* (§7). This module provides one concrete answer:
//!
//! * PQ training here **is** deterministic (fixed-chunk f64 accumulation in
//!   [`crate::kmeans`]), so a compressed index inherits the library's
//!   determinism guarantee;
//! * [`PqVamanaIndex`] (8-bit codes) and [`Pq4VamanaIndex`] (4-bit packed
//!   codes, in-register shuffle scans) walk a Vamana graph using **ADC
//!   distances over compressed codes** instead of raw vectors, then
//!   re-rank the final beam exactly — the memory/accuracy trade DiskANN
//!   uses for its SSD variant, applied to the in-memory graph.
//!
//! Both indexes run one shared beam loop ([`adc_search_into`]) built from
//! the *same* ordering/admission/merge helpers as the core engine
//! (`parlayann::beam`), parameterized by an [`AdcScorer`]. Scoring a whole
//! out-neighborhood per call is what lets the 4-bit scorer gather
//! candidates into 32-point groups and scan them with one `vpshufb` per
//! subspace pair. `search_batch_in` is overridden to run the batch in
//! chunks of the [`QueryEngine`](parlayann::QueryEngine)'s grain: the
//! queries of a chunk share one scratch — zero steady-state allocation —
//! and single-query [`search`](AnnIndex::search) runs the identical
//! routine, so batched and per-query results are bit-identical by
//! construction.

use crate::kmeans::to_f32_vec;
use crate::pq::{PqParams, ProductQuantizer};
use crate::pq4::{self, gather_group, Lut4, Pq4Params, ProductQuantizer4, GROUP};
use ann_data::{distance_batch, Metric, PointSet, VectorElem};
use parlayann::beam::{
    admission_bounds, cmp_dist, merge_dedup_into, sorted_difference_into, GraphView,
};
use parlayann::visited::VisitedFilter;
use parlayann::{
    AnnIndex, BuildStats, FlatGraph, IndexKind, IndexStats, QueryEngine, QueryParams, SearchStats,
    VamanaIndex, VamanaParams,
};
use rayon::prelude::*;

/// Approximate-distance scoring over compressed codes, pluggable into the
/// shared ADC beam loop. A scorer is stateless across queries; per-query
/// state lives in the `Lut` and reusable buffers in the `Scratch`.
pub trait AdcScorer: Sync {
    /// Per-query lookup state (the ADC table in whatever layout the
    /// scorer's scan kernel wants).
    type Lut: Send;
    /// Reusable per-worker scan buffers (cleared/overwritten per call).
    type Scratch: Default + Send;

    /// Builds the per-query lookup state.
    fn make_lut(&self, query: &[f32], metric: Metric) -> Self::Lut;

    /// Approximate distances for `ids`, written to `out` (resized to
    /// `ids.len()`).
    fn score_into(
        &self,
        lut: &Self::Lut,
        scratch: &mut Self::Scratch,
        ids: &[u32],
        out: &mut Vec<f32>,
    );
}

/// 8-bit ADC: one gathered f32 table entry per subspace per candidate
/// (the classic IVFADC loop). The baseline the 4-bit shuffle scan is
/// benchmarked against in `kernel_bench`.
pub struct Pq8Scorer<'a> {
    pq: &'a ProductQuantizer,
    /// Codes, `n × code_len` row-major.
    codes: &'a [u8],
}

impl AdcScorer for Pq8Scorer<'_> {
    type Lut = Vec<f32>;
    type Scratch = ();

    fn make_lut(&self, query: &[f32], metric: Metric) -> Vec<f32> {
        self.pq.adc_table(query, metric)
    }

    fn score_into(&self, lut: &Vec<f32>, _s: &mut (), ids: &[u32], out: &mut Vec<f32>) {
        let cl = self.pq.code_len();
        out.clear();
        out.extend(ids.iter().map(|&id| {
            self.pq
                .adc_distance(lut, &self.codes[id as usize * cl..(id as usize + 1) * cl])
        }));
    }
}

/// Reusable buffers for the 4-bit group scan.
#[derive(Default)]
pub struct Pq4Scratch {
    gbuf: Vec<u8>,
    sums: [u16; GROUP],
}

/// 4-bit ADC: candidates are gathered 32 at a time into the transposed
/// group layout and scanned in-register ([`pq4::scan_group`] — one
/// `vpshufb` covers a subspace pair across the whole group).
pub struct Pq4Scorer<'a> {
    pq: &'a ProductQuantizer4,
    /// Per-point packed codes, `n × pairs` row-major.
    codes: &'a [u8],
}

impl AdcScorer for Pq4Scorer<'_> {
    type Lut = Lut4;
    type Scratch = Pq4Scratch;

    fn make_lut(&self, query: &[f32], metric: Metric) -> Lut4 {
        self.pq.lut(query, metric)
    }

    fn score_into(&self, lut: &Lut4, s: &mut Pq4Scratch, ids: &[u32], out: &mut Vec<f32>) {
        let pairs = self.pq.pairs();
        out.clear();
        for chunk in ids.chunks(GROUP) {
            gather_group(self.codes, pairs, chunk, &mut s.gbuf);
            pq4::scan_group(&lut.entries, &s.gbuf, pairs, &mut s.sums);
            out.extend(s.sums[..chunk.len()].iter().map(|&x| lut.distance(x)));
        }
    }
}

/// Reusable working state for the ADC beam loop — the ADC analogue of the
/// core engine's `SearchScratch`, shared by every query of a block.
pub struct AdcScratch<S: AdcScorer> {
    frontier: Vec<(u32, f32)>,
    visited: Vec<(u32, f32)>,
    unvisited: Vec<(u32, f32)>,
    candidates: Vec<(u32, f32)>,
    merge_buf: Vec<(u32, f32)>,
    cand_ids: Vec<u32>,
    dists: Vec<f32>,
    filter: VisitedFilter,
    scan: S::Scratch,
}

impl<S: AdcScorer> Default for AdcScratch<S> {
    fn default() -> Self {
        AdcScratch {
            frontier: Vec::new(),
            visited: Vec::new(),
            unvisited: Vec::new(),
            candidates: Vec::with_capacity(64),
            merge_buf: Vec::new(),
            cand_ids: Vec::with_capacity(64),
            dists: Vec::new(),
            filter: VisitedFilter::new(true, 64),
            scan: S::Scratch::default(),
        }
    }
}

/// The shared ADC beam search: `beam_search_into` with approximate
/// scoring. Identical control flow, ordering ([`cmp_dist`]), admission
/// ([`admission_bounds`]) and merge helpers as the core loop — only the
/// distance evaluations differ — so every structural guarantee (sorted
/// frontier, visited-set semantics, ε-cut) carries over. Scoring happens
/// one out-neighborhood per call, which is what the 4-bit scorer turns
/// into whole-group register scans. The final frontier is left in
/// `scratch.frontier` (closest first, up to `beam` entries).
fn adc_search_into<S: AdcScorer, G: GraphView>(
    scorer: &S,
    lut: &S::Lut,
    scratch: &mut AdcScratch<S>,
    view: &G,
    starts: &[u32],
    params: &QueryParams,
) -> SearchStats {
    use parlayann::VisitedMode;
    let mut stats = SearchStats::default();
    let track = params.stats.enabled();
    scratch
        .filter
        .reset(params.visited == VisitedMode::Approx, params.beam);

    // Seed: score the deduplicated start vertices, admit everything.
    scratch.cand_ids.clear();
    scratch.cand_ids.extend(
        starts
            .iter()
            .copied()
            .filter(|&s| !scratch.filter.test_and_insert(s)),
    );
    scorer.score_into(
        lut,
        &mut scratch.scan,
        &scratch.cand_ids,
        &mut scratch.dists,
    );
    if track {
        stats.dist_comps += scratch.cand_ids.len();
    }
    scratch.frontier.clear();
    scratch.frontier.extend(
        scratch
            .cand_ids
            .iter()
            .copied()
            .zip(scratch.dists.iter().copied()),
    );
    scratch.frontier.sort_by(cmp_dist);
    scratch.frontier.truncate(params.beam);

    scratch.visited.clear();
    scratch.unvisited.clear();
    scratch.unvisited.extend_from_slice(&scratch.frontier);

    while let Some(&current) = scratch.unvisited.first() {
        if scratch.visited.len() >= params.limit {
            break;
        }
        let pos = scratch
            .visited
            .binary_search_by(|x| cmp_dist(x, &current))
            .unwrap_or_else(|e| e);
        scratch.visited.insert(pos, current);
        if track {
            stats.hops += 1;
        }

        let (worst, cut_bound) = admission_bounds(&scratch.frontier, params);

        // Score the whole unvisited out-neighborhood in one call — the
        // 4-bit scorer's group scans need the ids batched.
        scratch.cand_ids.clear();
        for &w in view.out_neighbors(current.0) {
            if !scratch.filter.test_and_insert(w) {
                scratch.cand_ids.push(w);
            }
        }
        scorer.score_into(
            lut,
            &mut scratch.scan,
            &scratch.cand_ids,
            &mut scratch.dists,
        );
        if track {
            stats.dist_comps += scratch.cand_ids.len();
        }
        scratch.candidates.clear();
        for (&w, &d) in scratch.cand_ids.iter().zip(scratch.dists.iter()) {
            if d >= worst || d > cut_bound {
                continue;
            }
            scratch.candidates.push((w, d));
        }
        scratch.candidates.sort_by(cmp_dist);

        merge_dedup_into(
            &scratch.frontier,
            &scratch.candidates,
            params.beam,
            &mut scratch.merge_buf,
        );
        std::mem::swap(&mut scratch.frontier, &mut scratch.merge_buf);
        sorted_difference_into(&scratch.frontier, &scratch.visited, &mut scratch.merge_buf);
        std::mem::swap(&mut scratch.unvisited, &mut scratch.merge_buf);
    }

    stats
}

/// Exact re-rank of the top `rerank_factor × k` ADC candidates through
/// one batched, prefetched `distance_batch` call (rerank 0 disables).
fn rerank_exact<T: VectorElem>(
    query: &[T],
    frontier: &mut Vec<(u32, f32)>,
    points: &PointSet<T>,
    metric: Metric,
    rerank_factor: usize,
    params: &QueryParams,
    stats: &mut SearchStats,
) {
    let keep = if rerank_factor > 0 {
        (rerank_factor * params.k).min(frontier.len())
    } else {
        params.k.min(frontier.len())
    };
    frontier.truncate(keep);
    if rerank_factor > 0 {
        let ids: Vec<u32> = frontier.iter().map(|&(id, _)| id).collect();
        let mut exact = Vec::new();
        distance_batch(query, &ids, points, metric, &mut exact);
        if params.stats.enabled() {
            stats.dist_comps += ids.len();
        }
        for (cand, d) in frontier.iter_mut().zip(exact) {
            cand.1 = d;
        }
        frontier.sort_by(cmp_dist);
    }
    frontier.truncate(params.k);
}

/// One query through scorer + walk + re-rank over a caller-owned scratch.
#[allow(clippy::too_many_arguments)]
fn adc_search_one<T: VectorElem, S: AdcScorer>(
    scorer: &S,
    scratch: &mut AdcScratch<S>,
    query: &[T],
    graph: &FlatGraph,
    start: u32,
    points: &PointSet<T>,
    metric: Metric,
    rerank_factor: usize,
    params: &QueryParams,
) -> (Vec<(u32, f32)>, SearchStats) {
    let lut = scorer.make_lut(&to_f32_vec(query), metric);
    let mut stats = adc_search_into(scorer, &lut, scratch, graph, &[start], params);
    rerank_exact(
        query,
        &mut scratch.frontier,
        points,
        metric,
        rerank_factor,
        params,
        &mut stats,
    );
    (scratch.frontier.clone(), stats)
}

/// The batch entry shared by both compressed indexes: queries are split
/// into chunks of `chunk` processed in parallel; each chunk runs its
/// queries through **one** reused [`AdcScratch`] (zero allocation per
/// query at steady state). Identical per-query routine to single `search`
/// ⇒ bit-identical results at any chunk size.
#[allow(clippy::too_many_arguments)]
fn adc_search_batch<T: VectorElem, S: AdcScorer>(
    scorer: &S,
    queries: &PointSet<T>,
    graph: &FlatGraph,
    start: u32,
    points: &PointSet<T>,
    metric: Metric,
    rerank_factor: usize,
    params: &QueryParams,
    chunk: usize,
) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
    let nq = queries.len();
    let per_chunk: Vec<Vec<(Vec<(u32, f32)>, SearchStats)>> = (0..nq.div_ceil(chunk))
        .into_par_iter()
        .map(|c| {
            let mut scratch = AdcScratch::<S>::default();
            (c * chunk..((c + 1) * chunk).min(nq))
                .map(|q| {
                    adc_search_one(
                        scorer,
                        &mut scratch,
                        queries.point(q),
                        graph,
                        start,
                        points,
                        metric,
                        rerank_factor,
                        params,
                    )
                })
                .collect()
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Build parameters for [`PqVamanaIndex`].
#[derive(Clone, Copy, Debug)]
pub struct PqVamanaParams {
    /// Graph construction parameters (build uses the *uncompressed*
    /// vectors, as DiskANN does).
    pub vamana: VamanaParams,
    /// Compression parameters.
    pub pq: PqParams,
    /// Re-rank the top `rerank_factor × k` beam entries with exact
    /// distances (0 disables re-ranking).
    pub rerank_factor: usize,
}

impl Default for PqVamanaParams {
    fn default() -> Self {
        PqVamanaParams {
            vamana: VamanaParams::default(),
            pq: PqParams::default(),
            rerank_factor: 4,
        }
    }
}

/// A Vamana graph searched through 8-bit PQ codes.
pub struct PqVamanaIndex<T> {
    /// The proximity graph (identical to the uncompressed index's).
    pub graph: FlatGraph,
    /// Search entry point.
    pub start: u32,
    /// Scoring metric.
    pub metric: Metric,
    /// Build statistics.
    pub build_stats: BuildStats,
    pq: ProductQuantizer,
    /// Codes, `n × code_len` row-major.
    codes: Vec<u8>,
    rerank_factor: usize,
    points: PointSet<T>,
}

impl<T: VectorElem> PqVamanaIndex<T> {
    /// Builds the graph on raw vectors, then compresses every vector.
    pub fn build(points: PointSet<T>, metric: Metric, params: &PqVamanaParams) -> Self {
        let inner = VamanaIndex::build(points, metric, &params.vamana);
        Self::from_index(inner, &params.pq, params.rerank_factor)
    }

    /// Compresses an existing uncompressed index.
    pub fn from_index(index: VamanaIndex<T>, pq_params: &PqParams, rerank_factor: usize) -> Self {
        let pq = ProductQuantizer::train(index.points(), pq_params);
        let code_len = pq.code_len();
        let n = index.len();
        let codes: Vec<u8> = (0..n)
            .into_par_iter()
            .flat_map_iter(|i| pq.encode(&to_f32_vec(index.points().point(i))))
            .collect();
        debug_assert_eq!(codes.len(), n * code_len);
        let (graph, start, metric, build_stats, points) = index.into_parts();
        PqVamanaIndex {
            graph,
            start,
            metric,
            build_stats,
            pq,
            codes,
            rerank_factor,
            points,
        }
    }

    /// Code bytes per vector.
    pub fn code_len(&self) -> usize {
        self.pq.code_len()
    }

    fn scorer(&self) -> Pq8Scorer<'_> {
        Pq8Scorer {
            pq: &self.pq,
            codes: &self.codes,
        }
    }

    /// Beam search over the graph scoring candidates by ADC distance, with
    /// exact re-ranking of the final beam. Single-threaded per query.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        adc_search_one(
            &self.scorer(),
            &mut AdcScratch::default(),
            query,
            &self.graph,
            self.start,
            &self.points,
            self.metric,
            self.rerank_factor,
            params,
        )
    }

    /// The indexed points (kept for re-ranking).
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }
}

impl<T: VectorElem> AnnIndex<T> for PqVamanaIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        PqVamanaIndex::search(self, query, params)
    }

    fn search_batch_in(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
        engine: &QueryEngine<T>,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        adc_search_batch(
            &self.scorer(),
            queries,
            &self.graph,
            self.start,
            &self.points,
            self.metric,
            self.rerank_factor,
            params,
            engine.block_size(),
        )
    }

    fn name(&self) -> String {
        format!("PQ{}-DiskANN", self.code_len())
    }

    fn kind(&self) -> IndexKind {
        IndexKind::PqVamana
    }

    fn stats(&self) -> IndexStats {
        IndexStats::for_graph(&self.graph, self.points.dim(), self.build_stats)
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }
}

/// Build parameters for [`Pq4VamanaIndex`].
#[derive(Clone, Copy, Debug)]
pub struct Pq4VamanaParams {
    /// Graph construction parameters.
    pub vamana: VamanaParams,
    /// 4-bit compression parameters.
    pub pq: Pq4Params,
    /// Re-rank the top `rerank_factor × k` beam entries exactly.
    pub rerank_factor: usize,
}

impl Default for Pq4VamanaParams {
    fn default() -> Self {
        Pq4VamanaParams {
            vamana: VamanaParams::default(),
            pq: Pq4Params::default(),
            // 4-bit ADC orders the beam more noisily than 8-bit (16-entry
            // codebooks + u8 LUT quantization), so re-rank twice as deep —
            // one batched exact pass per query either way.
            rerank_factor: 8,
        }
    }
}

/// A Vamana graph searched through 4-bit packed PQ codes with in-register
/// shuffle-LUT scans ([`crate::pq4`]). Same bytes per vector as the 8-bit
/// index at the default parameters (32 subspaces × ½ byte), but candidate
/// scoring runs 32 points per `vpshufb` instead of one table gather per
/// subspace.
pub struct Pq4VamanaIndex<T> {
    /// The proximity graph (identical to the uncompressed index's).
    pub graph: FlatGraph,
    /// Search entry point.
    pub start: u32,
    /// Scoring metric.
    pub metric: Metric,
    /// Build statistics.
    pub build_stats: BuildStats,
    pq: ProductQuantizer4,
    /// Per-point packed codes, `n × pairs` row-major.
    codes: Vec<u8>,
    rerank_factor: usize,
    points: PointSet<T>,
}

impl<T: VectorElem> Pq4VamanaIndex<T> {
    /// Builds the graph on raw vectors, then compresses every vector.
    pub fn build(points: PointSet<T>, metric: Metric, params: &Pq4VamanaParams) -> Self {
        let inner = VamanaIndex::build(points, metric, &params.vamana);
        Self::from_index(inner, &params.pq, params.rerank_factor)
    }

    /// Compresses an existing uncompressed index.
    pub fn from_index(index: VamanaIndex<T>, pq_params: &Pq4Params, rerank_factor: usize) -> Self {
        let pq = ProductQuantizer4::train(index.points(), pq_params);
        let (_grouped, codes) = pq.encode_all(index.points());
        let (graph, start, metric, build_stats, points) = index.into_parts();
        Pq4VamanaIndex {
            graph,
            start,
            metric,
            build_stats,
            pq,
            codes,
            rerank_factor,
            points,
        }
    }

    /// Code bytes per vector.
    pub fn code_len(&self) -> usize {
        self.pq.code_len()
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer4 {
        &self.pq
    }

    fn scorer(&self) -> Pq4Scorer<'_> {
        Pq4Scorer {
            pq: &self.pq,
            codes: &self.codes,
        }
    }

    /// ADC beam search with group-scanned 4-bit codes + exact re-rank.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        adc_search_one(
            &self.scorer(),
            &mut AdcScratch::default(),
            query,
            &self.graph,
            self.start,
            &self.points,
            self.metric,
            self.rerank_factor,
            params,
        )
    }

    /// The indexed points (kept for re-ranking).
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }
}

impl<T: VectorElem> AnnIndex<T> for Pq4VamanaIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        Pq4VamanaIndex::search(self, query, params)
    }

    fn search_batch_in(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
        engine: &QueryEngine<T>,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        adc_search_batch(
            &self.scorer(),
            queries,
            &self.graph,
            self.start,
            &self.points,
            self.metric,
            self.rerank_factor,
            params,
            engine.block_size(),
        )
    }

    fn name(&self) -> String {
        format!("PQ4x{}-DiskANN", self.pq.m())
    }

    fn kind(&self) -> IndexKind {
        IndexKind::PqVamana
    }

    fn stats(&self) -> IndexStats {
        IndexStats::for_graph(&self.graph, self.points.dim(), self.build_stats)
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::{bigann_like, compute_ground_truth, recall_ids};

    #[test]
    fn compressed_search_reaches_good_recall_with_rerank() {
        let data = bigann_like(2_000, 40, 71);
        let index =
            PqVamanaIndex::build(data.points.clone(), data.metric, &PqVamanaParams::default());
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let results: Vec<Vec<u32>> = (0..data.queries.len())
            .map(|q| {
                index
                    .search(data.queries.point(q), &qp)
                    .0
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let r = recall_ids(&gt, &results, 10, 10);
        assert!(r > 0.8, "PQ-graph recall {r}");
    }

    #[test]
    fn pq4_search_reaches_good_recall_with_rerank() {
        let data = bigann_like(2_000, 40, 71);
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let index = Pq4VamanaIndex::build(
            data.points.clone(),
            data.metric,
            &Pq4VamanaParams::default(),
        );
        let results: Vec<Vec<u32>> = (0..data.queries.len())
            .map(|q| {
                index
                    .search(data.queries.point(q), &qp)
                    .0
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let r = recall_ids(&gt, &results, 10, 10);
        // Lower than the 8-bit floor by design: same bytes per vector
        // (m=32 nibbles vs m=16 bytes) but coarser per-subspace tables;
        // the deeper re-rank recovers most of the gap.
        assert!(r > 0.75, "PQ4-graph recall {r}");
    }

    #[test]
    fn rerank_improves_over_raw_adc() {
        let data = bigann_like(2_000, 40, 72);
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let recall_of = |rerank: usize| {
            let index = PqVamanaIndex::build(
                data.points.clone(),
                data.metric,
                &PqVamanaParams {
                    rerank_factor: rerank,
                    ..PqVamanaParams::default()
                },
            );
            let results: Vec<Vec<u32>> = (0..data.queries.len())
                .map(|q| {
                    index
                        .search(data.queries.point(q), &qp)
                        .0
                        .into_iter()
                        .map(|(id, _)| id)
                        .collect()
                })
                .collect();
            recall_ids(&gt, &results, 10, 10)
        };
        assert!(recall_of(4) > recall_of(0), "re-ranking must help");
    }

    #[test]
    fn batched_matches_single_query_bitwise() {
        // The batch path must be unobservable: same ids, same bits, any
        // engine grain, for both the 8-bit and 4-bit scorers.
        let data = bigann_like(1_000, 17, 74);
        let qp = QueryParams {
            beam: 32,
            ..QueryParams::default()
        };
        let check = |index: &dyn AnnIndex<u8>| {
            let single: Vec<(Vec<(u32, f32)>, SearchStats)> = (0..data.queries.len())
                .map(|q| index.search(data.queries.point(q), &qp))
                .collect();
            for g in [1usize, 4, 16, 64] {
                let batched =
                    index.search_batch_in(&data.queries, &qp, &QueryEngine::with_block_size(g));
                assert_eq!(batched.len(), single.len());
                for (q, ((br, bstats), (sr, sstats))) in batched.iter().zip(&single).enumerate() {
                    assert_eq!(br.len(), sr.len(), "{} g={g} q={q}", index.name());
                    for (a, b) in br.iter().zip(sr) {
                        assert_eq!(a.0, b.0, "{} g={g} q={q}", index.name());
                        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{} g={g} q={q}", index.name());
                    }
                    assert_eq!(bstats, sstats, "{} g={g} q={q}", index.name());
                }
            }
        };
        check(&PqVamanaIndex::build(
            data.points.clone(),
            data.metric,
            &PqVamanaParams::default(),
        ));
        check(&Pq4VamanaIndex::build(
            data.points.clone(),
            data.metric,
            &Pq4VamanaParams::default(),
        ));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = bigann_like(800, 5, 73);
        let params = PqVamanaParams::default();
        let run = || {
            let idx = PqVamanaIndex::build(data.points.clone(), data.metric, &params);
            // Digest graph + codes.
            let mut h = idx.graph.fingerprint();
            for &c in &idx.codes {
                h = parlay::hash64_pair(h, c as u64);
            }
            h
        };
        let a = parlay::with_threads(1, run);
        let b = parlay::with_threads(2, run);
        assert_eq!(a, b);
    }

    #[test]
    fn pq4_deterministic_across_thread_counts() {
        let data = bigann_like(800, 5, 73);
        let params = Pq4VamanaParams::default();
        let run = || {
            let idx = Pq4VamanaIndex::build(data.points.clone(), data.metric, &params);
            let mut h = idx.graph.fingerprint();
            for &c in &idx.codes {
                h = parlay::hash64_pair(h, c as u64);
            }
            h
        };
        let a = parlay::with_threads(1, run);
        let b = parlay::with_threads(2, run);
        assert_eq!(a, b);
    }
}
