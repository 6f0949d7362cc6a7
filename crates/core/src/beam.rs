//! Greedy beam search (paper Alg. 1 with the §4.5 optimizations).
//!
//! The search maintains a width-`beam` frontier of nearest-neighbor
//! candidates sorted by distance, repeatedly expanding the closest
//! unvisited frontier vertex. The two paper optimizations are included:
//!
//! * an [approximate visited table](crate::visited) with one-sided errors
//!   instead of an exact set;
//! * the (1+ε) cut of Iwasaki & Miyazaki: candidates farther than
//!   `cut × d_k` (current k-th nearest distance) are not admitted, trading
//!   a bounded recall loss for fewer distance evaluations.
//!
//! Each query is processed by a single thread (queries are batch-parallel
//! *across* queries), and every step is a pure function of the graph and
//! query, so search results are deterministic.

use crate::graph::FlatGraph;
use crate::stats::{SearchStats, StatsMode};
use crate::visited::VisitedFilter;
use ann_data::{distance_batch, Metric, PointSet, VectorElem};

/// Which visited-set implementation a search uses (§4.5 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisitedMode {
    /// The paper's approximate hash table (default; faster).
    Approx,
    /// An exact hash set (reference; used by the ablation).
    Exact,
}

/// Beam-search knobs. The recall/QPS tradeoff curves in the paper are swept
/// over `beam` and `cut` (§4.5: "we sweep two parameters: the beam size and ε").
#[derive(Clone, Copy, Debug)]
pub struct QueryParams {
    /// Number of neighbors to report (`k`).
    pub k: usize,
    /// Beam width `L ≥ k`.
    pub beam: usize,
    /// The (1+ε) cut multiplier; values ≤ 1.0 disable the cut. The paper
    /// bounds ε at 0.25 (`cut ≤ 1.25`). Only applied for non-negative
    /// distances (it is meaningless for inner-product scores).
    pub cut: f32,
    /// Maximum number of vertex expansions (`usize::MAX` = unlimited).
    pub limit: usize,
    /// Visited-set implementation.
    pub visited: VisitedMode,
    /// Whether to collect per-query counters (see [`StatsMode`]); results
    /// are unaffected, only the returned [`SearchStats`] is.
    pub stats: StatsMode,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            k: 10,
            beam: 64,
            cut: 1.25,
            limit: usize::MAX,
            visited: VisitedMode::Approx,
            stats: StatsMode::Counters,
        }
    }
}

/// Result of one beam search.
#[derive(Clone, Debug)]
pub struct BeamResult {
    /// The final frontier: up to `beam` nearest candidates, closest first.
    pub beam: Vec<(u32, f32)>,
    /// All expanded (visited) vertices with their distances, sorted by
    /// `(distance, id)` — the candidate pool used for pruning during builds.
    pub visited: Vec<(u32, f32)>,
    /// Distance-evaluation and hop counts.
    pub stats: SearchStats,
}

impl BeamResult {
    /// The `k` nearest ids from the frontier.
    pub fn knn(&self, k: usize) -> Vec<u32> {
        self.beam.iter().take(k).map(|&(id, _)| id).collect()
    }
}

/// Anything a beam search can walk: `FlatGraph` directly, or an HNSW layer.
pub trait GraphView: Sync {
    /// Out-neighbors of `v`.
    fn out_neighbors(&self, v: u32) -> &[u32];
}

impl GraphView for FlatGraph {
    #[inline]
    fn out_neighbors(&self, v: u32) -> &[u32] {
        self.neighbors(v)
    }
}

/// Ordering used throughout the query layer: by distance, ties by id.
/// Public so out-of-crate search loops (the baselines' ADC walk) order
/// candidates identically to the core engine.
#[inline]
pub fn cmp_dist(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Reusable per-search working state: the frontier, candidate pool,
/// visited filter, and padded query buffer a beam search needs.
///
/// Allocating these per query dominates the fixed cost of small searches,
/// so the [query engine](crate::query::QueryEngine) keeps scratches in a
/// pool and reuses one across every query a worker processes. A fresh
/// scratch and a reused one produce bit-identical results: every buffer is
/// cleared (and the filter [reset](VisitedFilter::reset)) at the start of
/// [`beam_search_into`].
pub struct SearchScratch<T> {
    padded_query: Vec<T>,
    cand_ids: Vec<u32>,
    cand_dists: Vec<f32>,
    frontier: Vec<(u32, f32)>,
    visited: Vec<(u32, f32)>,
    unvisited: Vec<(u32, f32)>,
    candidates: Vec<(u32, f32)>,
    merge_buf: Vec<(u32, f32)>,
    filter: VisitedFilter,
}

impl<T: VectorElem> SearchScratch<T> {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        SearchScratch {
            padded_query: Vec::new(),
            cand_ids: Vec::with_capacity(64),
            cand_dists: Vec::with_capacity(64),
            frontier: Vec::new(),
            visited: Vec::new(),
            unvisited: Vec::new(),
            candidates: Vec::with_capacity(64),
            merge_buf: Vec::new(),
            filter: VisitedFilter::new(true, 64),
        }
    }

    /// The final frontier of the last search (closest first).
    pub fn frontier(&self) -> &[(u32, f32)] {
        &self.frontier
    }

    /// The expanded vertices of the last search, sorted by `(dist, id)`.
    pub fn visited(&self) -> &[(u32, f32)] {
        &self.visited
    }
}

impl<T: VectorElem> Default for SearchScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Greedy beam search for `query` over `view`, starting from `starts`.
pub fn beam_search<T: VectorElem, G: GraphView>(
    query: &[T],
    points: &PointSet<T>,
    metric: Metric,
    view: &G,
    starts: &[u32],
    params: &QueryParams,
) -> BeamResult {
    let mut scratch = SearchScratch::new();
    let stats = beam_search_into(&mut scratch, query, points, metric, view, starts, params);
    BeamResult {
        beam: std::mem::take(&mut scratch.frontier),
        visited: std::mem::take(&mut scratch.visited),
        stats,
    }
}

/// [`beam_search`] over caller-owned scratch: results are left in
/// [`SearchScratch::frontier`] / [`SearchScratch::visited`] and only the
/// stats are returned, so a reused scratch performs no per-query
/// allocation once its buffers have grown to steady state.
pub fn beam_search_into<T: VectorElem, G: GraphView>(
    scratch: &mut SearchScratch<T>,
    query: &[T],
    points: &PointSet<T>,
    metric: Metric,
    view: &G,
    starts: &[u32],
    params: &QueryParams,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let track = params.stats.enabled();
    scratch
        .filter
        .reset(params.visited == VisitedMode::Approx, params.beam);

    // Pad the query once so every batched distance evaluation takes the
    // kernels' aligned full-block path (bit-identical to the logical path;
    // see `ann_data::simd`). The dimension check `pad_query` used to do
    // stays: zero-filling a wrong-length query would otherwise return
    // silently wrong neighbors.
    assert_eq!(query.len(), points.dim(), "query dimensionality mismatch");
    scratch.padded_query.clear();
    scratch.padded_query.extend_from_slice(query);
    scratch
        .padded_query
        .resize(points.padded_dim(), T::from_f32(0.0));

    // Seed the frontier with the start points, scored in one batch.
    scratch.cand_ids.clear();
    scratch.cand_ids.extend(
        starts
            .iter()
            .copied()
            .filter(|&s| !scratch.filter.test_and_insert(s)),
    );
    distance_batch(
        &scratch.padded_query,
        &scratch.cand_ids,
        points,
        metric,
        &mut scratch.cand_dists,
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
            .zip(scratch.cand_dists.iter().copied()),
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
        // Move `current` from the unvisited frontier into the visited list.
        let pos = scratch
            .visited
            .binary_search_by(|x| cmp_dist(x, &current))
            .unwrap_or_else(|e| e);
        scratch.visited.insert(pos, current);
        if track {
            stats.hops += 1;
        }

        let (worst, cut_bound) = admission_bounds(&scratch.frontier, params);

        // Score the whole unvisited out-neighborhood in one batched call:
        // one kernel invocation per neighbor, with the next candidates'
        // rows prefetched while the current one is scored (paper §4.5's
        // memory-layout observation, applied to the hot loop).
        scratch.cand_ids.clear();
        for &w in view.out_neighbors(current.0) {
            if !scratch.filter.test_and_insert(w) {
                scratch.cand_ids.push(w);
            }
        }
        distance_batch(
            &scratch.padded_query,
            &scratch.cand_ids,
            points,
            metric,
            &mut scratch.cand_dists,
        );
        if track {
            stats.dist_comps += scratch.cand_ids.len();
        }
        scratch.candidates.clear();
        for (&w, &d) in scratch.cand_ids.iter().zip(scratch.cand_dists.iter()) {
            if d >= worst || d > cut_bound {
                continue;
            }
            scratch.candidates.push((w, d));
        }
        scratch.candidates.sort_by(cmp_dist);

        // Merge candidates into the frontier (both sorted), dedup, truncate.
        merge_dedup_into(
            &scratch.frontier,
            &scratch.candidates,
            params.beam,
            &mut scratch.merge_buf,
        );
        std::mem::swap(&mut scratch.frontier, &mut scratch.merge_buf);
        // Unvisited = frontier \ visited (both sorted by (dist, id)).
        sorted_difference_into(&scratch.frontier, &scratch.visited, &mut scratch.merge_buf);
        std::mem::swap(&mut scratch.unvisited, &mut scratch.merge_buf);
    }

    stats
}

/// Admission thresholds for one expansion: the beam's worst member, and
/// the (1+ε) cut around the current k-th nearest candidate. Shared between
/// the loop above and the baselines' ADC walk so the paths cannot drift.
#[inline]
pub fn admission_bounds(frontier: &[(u32, f32)], params: &QueryParams) -> (f32, f32) {
    let worst = if frontier.len() == params.beam {
        frontier.last().expect("nonempty").1
    } else {
        f32::INFINITY
    };
    let kth = if frontier.len() >= params.k {
        frontier[params.k - 1].1
    } else {
        f32::INFINITY
    };
    let cut_bound = if params.cut > 1.0 && kth.is_finite() && kth > 0.0 {
        params.cut * kth
    } else {
        f32::INFINITY
    };
    (worst, cut_bound)
}

/// Merges two `(dist, id)`-sorted lists, removing duplicate ids (equal ids
/// carry equal distances, so duplicates are adjacent), keeping `cap` items.
/// `out` is cleared first (scratch-reuse path).
pub fn merge_dedup_into(a: &[(u32, f32)], b: &[(u32, f32)], cap: usize, out: &mut Vec<(u32, f32)>) {
    out.clear();
    out.reserve((a.len() + b.len()).min(cap));
    let (mut i, mut j) = (0, 0);
    while out.len() < cap && (i < a.len() || j < b.len()) {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => cmp_dist(x, y) != std::cmp::Ordering::Greater,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        let item = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if out.last().map(|&(id, _)| id) != Some(item.0) {
            out.push(item);
        }
    }
}

/// `a \ b` for `(dist, id)`-sorted lists; `out` is cleared first.
pub fn sorted_difference_into(a: &[(u32, f32)], b: &[(u32, f32)], out: &mut Vec<(u32, f32)>) {
    out.clear();
    out.reserve(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && cmp_dist(&b[j], &x) == std::cmp::Ordering::Less {
            j += 1;
        }
        if j >= b.len() || b[j].0 != x.0 {
            out.push(x);
        }
    }
}

#[cfg(test)]
fn merge_dedup(a: &[(u32, f32)], b: &[(u32, f32)], cap: usize) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    merge_dedup_into(a, b, cap, &mut out);
    out
}

#[cfg(test)]
fn sorted_difference(a: &[(u32, f32)], b: &[(u32, f32)]) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    sorted_difference_into(a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::PointSet;

    /// The worked example of paper Fig. 2: eight points A..H, a query near
    /// H, beam width 3, starting at A. The search must terminate with H as
    /// the nearest neighbor found.
    #[test]
    fn figure2_trace() {
        // Layout chosen to match the figure's qualitative geometry:
        // A is the start (far left), the query sits next to H.
        let coords = vec![
            vec![0.0f32, 0.0], // A = 0
            vec![4.0, 2.5],    // B = 1
            vec![6.5, -0.5],   // C = 2
            vec![3.0, 0.5],    // D = 3
            vec![9.0, 3.0],    // E = 4
            vec![7.0, 1.5],    // F = 5
            vec![9.5, 0.5],    // G = 6
            vec![7.5, 0.0],    // H = 7
        ];
        let points = PointSet::from_rows(&coords);
        let mut g = FlatGraph::new(8, 4);
        g.set_neighbors(0, &[1, 3, 7]); // A -> B, D, H
        g.set_neighbors(1, &[4, 0]); // B -> E, A
        g.set_neighbors(2, &[6, 5]); // C -> G, F
        g.set_neighbors(3, &[2, 1]); // D -> C, B
        g.set_neighbors(4, &[6]); // E -> G
        g.set_neighbors(5, &[3, 2]); // F -> D, C
        g.set_neighbors(6, &[4]); // G -> E
        g.set_neighbors(7, &[5, 3]); // H -> F, D
        let query = vec![7.8f32, -0.4];
        let params = QueryParams {
            k: 1,
            beam: 3,
            cut: 1.0,
            ..QueryParams::default()
        };
        let res = beam_search(&query, &points, Metric::SquaredEuclidean, &g, &[0], &params);
        assert_eq!(res.beam[0].0, 7, "nearest neighbor found must be H");
        // Everything in the final beam was either visited or a neighbor of a
        // visited vertex.
        assert!(res.stats.dist_comps > 0);
        assert!(!res.visited.is_empty());
    }

    fn line_graph(n: usize) -> (PointSet<f32>, FlatGraph) {
        // Points on a line, each connected to its neighbors at distance 1 & 2.
        let points = PointSet::from_rows(&(0..n).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
        let mut g = FlatGraph::new(n, 4);
        for i in 0..n {
            let mut nbrs = Vec::new();
            if i > 0 {
                nbrs.push((i - 1) as u32);
            }
            if i + 1 < n {
                nbrs.push((i + 1) as u32);
            }
            if i + 2 < n {
                nbrs.push((i + 2) as u32);
            }
            g.set_neighbors(i as u32, &nbrs);
        }
        (points, g)
    }

    #[test]
    fn walks_to_the_target() {
        let (points, g) = line_graph(100);
        let query = vec![87.2f32, 0.0];
        let res = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams::default(),
        );
        assert_eq!(res.beam[0].0, 87);
    }

    #[test]
    fn visited_is_sorted_and_consistent() {
        let (points, g) = line_graph(60);
        let query = vec![30.0f32, 0.0];
        let res = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams::default(),
        );
        for w in res.visited.windows(2) {
            assert!(cmp_dist(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
        // Distances recorded match recomputation.
        for &(id, d) in &res.visited {
            let want =
                ann_data::distance(&query, points.point(id as usize), Metric::SquaredEuclidean);
            assert_eq!(d, want);
        }
    }

    #[test]
    fn limit_caps_expansions() {
        let (points, g) = line_graph(200);
        let query = vec![199.0f32, 0.0];
        let res = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                limit: 5,
                ..QueryParams::default()
            },
        );
        assert!(res.visited.len() <= 5);
    }

    #[test]
    fn larger_beam_never_hurts_on_exact_walk() {
        let (points, g) = line_graph(120);
        let query = vec![64.3f32, 0.0];
        for beam in [2usize, 4, 16, 64] {
            let res = beam_search(
                &query,
                &points,
                Metric::SquaredEuclidean,
                &g,
                &[0],
                &QueryParams {
                    beam,
                    k: 1,
                    ..QueryParams::default()
                },
            );
            assert_eq!(res.beam[0].0, 64, "beam {beam} failed");
        }
    }

    #[test]
    fn eps_cut_reduces_distance_comparisons() {
        let (points, g) = line_graph(300);
        let query = vec![250.0f32, 0.0];
        let loose = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                cut: 1.0,
                beam: 32,
                ..QueryParams::default()
            },
        );
        let tight = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                cut: 1.05,
                beam: 32,
                ..QueryParams::default()
            },
        );
        assert!(tight.stats.dist_comps <= loose.stats.dist_comps);
        assert_eq!(tight.beam[0].0, 250);
    }

    #[test]
    fn exact_and_approx_visited_agree_on_results() {
        let (points, g) = line_graph(150);
        let query = vec![99.0f32, 0.0];
        let a = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                visited: VisitedMode::Approx,
                ..QueryParams::default()
            },
        );
        let e = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                visited: VisitedMode::Exact,
                ..QueryParams::default()
            },
        );
        assert_eq!(a.beam[0].0, e.beam[0].0);
    }

    #[test]
    fn merge_dedup_drops_duplicate_ids() {
        let a = vec![(1u32, 1.0f32), (2, 2.0)];
        let b = vec![(2u32, 2.0f32), (3, 3.0)];
        let m = merge_dedup(&a, &b, 10);
        assert_eq!(m, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
    }

    #[test]
    fn sorted_difference_removes_members() {
        let a = vec![(1u32, 1.0f32), (2, 2.0), (3, 3.0)];
        let b = vec![(2u32, 2.0f32)];
        assert_eq!(sorted_difference(&a, &b), vec![(1, 1.0), (3, 3.0)]);
    }

    #[test]
    fn empty_starts_yields_empty_result() {
        let (points, g) = line_graph(10);
        let res = beam_search(
            &[0.0f32, 0.0],
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[],
            &QueryParams::default(),
        );
        assert!(res.beam.is_empty());
        assert!(res.visited.is_empty());
    }
}
