//! The unified query engine: one execution layer for every index.
//!
//! The paper's search side (Alg. 1, §4.5) is batch-parallel *across*
//! queries, and each query runs its beam search on its own; this module is
//! the layer that owns that batch. It has two pieces:
//!
//! * [`AnnIndex`] — the uniform interface every index in the workspace
//!   implements (the four graph algorithms plus the IVF/PQ/LSH
//!   baselines): single-query [`search`](AnnIndex::search), batched
//!   [`search_batch`](AnnIndex::search_batch) and
//!   [`search_batch_in`](AnnIndex::search_batch_in), fixed-radius
//!   [`range_search`](AnnIndex::range_search), introspection
//!   ([`stats`](AnnIndex::stats), [`kind`](AnnIndex::kind)), and the
//!   persistence hook [`save_index`](AnnIndex::save_index) backing the
//!   kind-tagged v2 file format in [`crate::io`].
//!
//! * [`QueryEngine`] — owns a pool of reusable [`SearchScratch`]
//!   (frontier, candidate pool, visited filter, padded query) so
//!   steady-state query execution performs **no per-query allocation**: a
//!   worker takes one scratch, runs a chunk of queries through it one at a
//!   time, and returns it to the pool. Every buffer is cleared per query,
//!   so which scratch a query gets never affects its result: batched
//!   results are **bit-identical** to one-at-a-time
//!   [`beam_search`](crate::beam::beam_search) at every chunk size and
//!   thread count — the property tests assert exactly this.

use crate::beam::{beam_search_into, GraphView, QueryParams, SearchScratch};
use crate::graph::FlatGraph;
use crate::range::RangeParams;
use crate::stats::{BuildStats, SearchStats};
use ann_data::{Metric, PointSet, VectorElem};
use rayon::prelude::*;
use std::sync::Mutex;

/// Which index family an [`AnnIndex`] implementation belongs to — the tag
/// persisted in the v2 index file header (see [`crate::io`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// DiskANN/Vamana ([`crate::diskann::VamanaIndex`]).
    Vamana,
    /// HNSW ([`crate::hnsw::HnswIndex`]).
    Hnsw,
    /// HCNNG ([`crate::hcnng::HcnngIndex`]).
    Hcnng,
    /// PyNNDescent ([`crate::pynndescent::PyNNDescentIndex`]).
    PyNNDescent,
    /// Inverted-file baseline (`ann_baselines::IvfIndex`).
    Ivf,
    /// Hyperplane LSH baseline (`ann_baselines::LshIndex`).
    Lsh,
    /// PQ-compressed Vamana (`ann_baselines::PqVamanaIndex`).
    PqVamana,
    /// Multi-shard store (`parlayann_store::ShardedIndex`) — persisted as
    /// a manifest *directory*, not a single kind-tagged file.
    Sharded,
    /// Anything else (ad-hoc wrappers, test doubles).
    Custom,
}

impl IndexKind {
    /// The byte tag written into v2 index files.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::Vamana => 0,
            IndexKind::Hnsw => 1,
            IndexKind::Hcnng => 2,
            IndexKind::PyNNDescent => 3,
            IndexKind::Ivf => 4,
            IndexKind::Lsh => 5,
            IndexKind::PqVamana => 6,
            IndexKind::Sharded => 7,
            IndexKind::Custom => 255,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(t: u8) -> Option<IndexKind> {
        Some(match t {
            0 => IndexKind::Vamana,
            1 => IndexKind::Hnsw,
            2 => IndexKind::Hcnng,
            3 => IndexKind::PyNNDescent,
            4 => IndexKind::Ivf,
            5 => IndexKind::Lsh,
            6 => IndexKind::PqVamana,
            7 => IndexKind::Sharded,
            255 => IndexKind::Custom,
            _ => return None,
        })
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Vamana => "vamana",
            IndexKind::Hnsw => "hnsw",
            IndexKind::Hcnng => "hcnng",
            IndexKind::PyNNDescent => "pynndescent",
            IndexKind::Ivf => "ivf",
            IndexKind::Lsh => "lsh",
            IndexKind::PqVamana => "pq-vamana",
            IndexKind::Sharded => "sharded",
            IndexKind::Custom => "custom",
        }
    }
}

/// Structural summary of a built index ([`AnnIndex::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Number of indexed points.
    pub points: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Total directed edges (0 for non-graph indexes).
    pub edges: usize,
    /// Largest out-degree (graph) — or the degree/list bound.
    pub max_degree: usize,
    /// Hierarchy depth (HNSW layers) or partition count (IVF lists);
    /// 1 for single-level graphs.
    pub layers: usize,
    /// Construction statistics.
    pub build: BuildStats,
}

impl IndexStats {
    /// Summary of a single-level [`FlatGraph`] index.
    pub fn for_graph(graph: &FlatGraph, dim: usize, build: BuildStats) -> IndexStats {
        let edges = (0..graph.len() as u32).map(|v| graph.degree(v)).sum();
        IndexStats {
            points: graph.len(),
            dim,
            edges,
            max_degree: graph.max_degree(),
            layers: 1,
            build,
        }
    }

    /// Mean out-degree (0 when empty / non-graph).
    pub fn avg_degree(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.edges as f64 / self.points as f64
        }
    }
}

/// Common query interface implemented by every index in this workspace
/// (the four graph algorithms here and the IVF/LSH/PQ baselines), so the
/// benchmark harness and serving layers drive them uniformly.
pub trait AnnIndex<T: VectorElem>: Sync {
    /// Returns up to `params.k` `(id, distance)` pairs, closest first, plus
    /// per-query search statistics.
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats);

    /// Short display name for experiment tables.
    fn name(&self) -> String;

    /// Which index family this is (drives the persisted kind tag).
    fn kind(&self) -> IndexKind {
        IndexKind::Custom
    }

    /// Structural summary (size, degree, hierarchy) of the built index.
    fn stats(&self) -> IndexStats {
        IndexStats::default()
    }

    /// Number of indexed points. The default derives it from
    /// [`stats`](Self::stats) (which may walk the graph to count edges);
    /// every concrete index overrides it with an O(1) field read.
    fn len(&self) -> usize {
        self.stats().points
    }

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality. Same default/override convention as
    /// [`len`](Self::len). Routers and manifest writers key on this; 0
    /// means "unknown" (an index type that cannot report it).
    fn dim(&self) -> usize {
        self.stats().dim
    }

    /// Searches every query of `queries`, batch-parallel, returning
    /// per-query results in input order.
    ///
    /// **Contract:** results are bit-identical to calling
    /// [`search`](Self::search) per query — batching may only change
    /// execution layout, never outcomes. This runs
    /// [`search_batch_in`](Self::search_batch_in) on a fresh
    /// [`QueryEngine`]; implementations override that method, not this one.
    fn search_batch(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        self.search_batch_in(queries, params, &QueryEngine::new())
    }

    /// [`search_batch`](Self::search_batch) through a **caller-owned**
    /// [`QueryEngine`] — the one batch method implementations override. A
    /// long-lived caller (the `parlayann_serve` front-end) keeps one engine
    /// for the lifetime of the process so its scratch pool is reused
    /// across every dispatched batch. Same bit-identity contract as
    /// `search_batch`. The default ignores the engine and runs independent
    /// single-query searches in parallel (which satisfies the contract
    /// trivially); the graph indexes override it to run on the engine.
    fn search_batch_in(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
        _engine: &QueryEngine<T>,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        parlay::tabulate(queries.len(), |q| self.search(queries.point(q), params))
    }

    /// Reports (approximately) all points within `params.radius` of
    /// `query`, sorted by distance.
    ///
    /// The graph indexes override this with the beam-navigate-then-flood
    /// algorithm of [`crate::range`]; the default approximates by keeping
    /// the in-radius members of a width-`beam` search (adequate for the
    /// scan-style baselines, which override where they can do better).
    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        let beam = params.beam.max(1);
        let qp = QueryParams {
            k: beam,
            beam,
            cut: 1.0,
            ..QueryParams::default()
        };
        let (res, stats) = self.search(query, &qp);
        (
            res.into_iter()
                .filter(|&(_, d)| d <= params.radius)
                .collect(),
            stats,
        )
    }

    /// Persists the index to `path` in the kind-tagged v2 format (see
    /// [`crate::io`]); reload via [`crate::io::load_index`] or the
    /// concrete type's `load`. Indexes without a persistent form return
    /// [`std::io::ErrorKind::Unsupported`].
    fn save_index(&self, _path: &std::path::Path) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("{} does not support persistence yet", self.name()),
        ))
    }
}

/// Search entry points for a batch: one shared set (most graph indexes)
/// or one per query (HNSW after its per-query upper-layer descent).
#[derive(Clone, Copy)]
pub enum Starts<'a> {
    /// Every query starts from the same vertices.
    Shared(&'a [u32]),
    /// Query `q` (global index into the batch) starts from `starts[q]`.
    PerQuery(&'a [Vec<u32>]),
}

impl Starts<'_> {
    /// Entry points for query `q` (global index).
    #[inline]
    fn of(&self, q: usize) -> &[u32] {
        match self {
            Starts::Shared(s) => s,
            Starts::PerQuery(per) => &per[q],
        }
    }
}

/// Queries one pooled scratch serves per checkout in
/// [`QueryEngine::new`]: enough to amortize the pool's mutex, few enough to
/// leave the pool work to balance. It never affects results.
const DEFAULT_GRAIN: usize = 32;

/// The batched query executor: runs every query's beam search on its own,
/// batch-parallel across queries on the work-stealing pool, and reuses
/// pooled [`SearchScratch`] so steady-state execution allocates nothing
/// per query.
///
/// Results are a pure function of `(index, queries, params)`: each query's
/// result depends only on that query, and scratch reuse is
/// observationally neutral (every buffer is cleared per query). So any
/// grain and any thread count produce bit-identical output.
pub struct QueryEngine<T> {
    grain: usize,
    pool: Mutex<Vec<SearchScratch<T>>>,
}

impl<T: VectorElem> QueryEngine<T> {
    /// An engine with the default grain of 32 queries per scratch checkout.
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_GRAIN)
    }

    /// An engine whose workers run `grain` queries (at least 1) through
    /// each scratch they check out of the pool. The grain trades pool
    /// traffic against load balance; results never depend on it.
    pub fn with_block_size(grain: usize) -> Self {
        QueryEngine {
            grain: grain.max(1),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Queries served per scratch checkout (the grain).
    pub fn block_size(&self) -> usize {
        self.grain
    }

    /// Runs every query of `queries` against a graph `view`,
    /// batch-parallel. Returns per-query `(top-k, stats)` in input order,
    /// bit-identical to per-query [`crate::beam::beam_search`].
    pub fn search_batch<G: GraphView>(
        &self,
        queries: &PointSet<T>,
        points: &PointSet<T>,
        metric: Metric,
        view: &G,
        starts: Starts<'_>,
        params: &QueryParams,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        let nq = queries.len();
        let grain = self.grain;
        let per_chunk: Vec<Vec<(Vec<(u32, f32)>, SearchStats)>> = (0..nq.div_ceil(grain))
            .into_par_iter()
            .map(|c| {
                let mut scratch = self
                    .pool
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop()
                    .unwrap_or_default();
                let out: Vec<(Vec<(u32, f32)>, SearchStats)> = (c * grain
                    ..((c + 1) * grain).min(nq))
                    .map(|q| {
                        let stats = beam_search_into(
                            &mut scratch,
                            queries.point(q),
                            points,
                            metric,
                            view,
                            starts.of(q),
                            params,
                        );
                        let mut res = scratch.frontier().to_vec();
                        res.truncate(params.k);
                        (res, stats)
                    })
                    .collect();
                self.pool
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(scratch);
                out
            })
            .collect();
        let results: Vec<(Vec<(u32, f32)>, SearchStats)> =
            per_chunk.into_iter().flatten().collect();
        engine_obs_record(&results, params.stats.enabled());
        results
    }
}

impl<T: VectorElem> Default for QueryEngine<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds per-query engine work (distance computations, beam hops) into
/// the global observability histograms. Runs once per batch *after* the
/// results exist, off the per-query hot loop; skipped entirely when the
/// obs layer is off or the caller disabled stats tracking (the counters
/// would all be zero). Telemetry only reads the stats — results are
/// bit-identical with obs on or off.
fn engine_obs_record(results: &[(Vec<(u32, f32)>, SearchStats)], tracked: bool) {
    use std::sync::OnceLock;
    let obs = parlayann_obs::global();
    if !tracked || !obs.enabled() || results.is_empty() {
        return;
    }
    type Handles = (
        std::sync::Arc<parlayann_obs::Histogram>,
        std::sync::Arc<parlayann_obs::Histogram>,
        std::sync::Arc<parlayann_obs::Counter>,
    );
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let (dist, hops, queries) = HANDLES.get_or_init(|| {
        let r = obs.registry();
        (
            r.histogram(
                "parlayann_engine_dist_comps",
                &[],
                "distance computations per query",
            ),
            r.histogram("parlayann_engine_hops", &[], "beam-search hops per query"),
            r.counter(
                "parlayann_engine_queries_total",
                &[],
                "queries answered by the query engine",
            ),
        )
    });
    for (_, s) in results {
        dist.record(s.dist_comps as u64);
        hops.record(s.hops as u64);
    }
    queries.add(results.len() as u64);
}

/// Deterministically merges per-query stats into batch totals via the
/// shim's length-only `fold`/`reduce` tree (the same bits at any thread
/// count; the counters are integers, so this is belt-and-braces — but it
/// keeps the aggregation pattern uniform with future float-valued stats).
pub fn aggregate_stats(results: &[(Vec<(u32, f32)>, SearchStats)]) -> SearchStats {
    results
        .par_iter()
        .fold(SearchStats::default, |mut acc, (_, s)| {
            acc.merge(s);
            acc
        })
        .reduce(SearchStats::default, |mut a, b| {
            a.merge(&b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlatGraph;

    fn line_graph(n: usize) -> (PointSet<f32>, FlatGraph) {
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
    fn stats_off_zeroes_counters_without_changing_results() {
        let (points, g) = line_graph(120);
        let queries = PointSet::from_rows(
            &(0..7)
                .map(|i| vec![(i * 15) as f32, 0.0])
                .collect::<Vec<_>>(),
        );
        let on = QueryParams {
            beam: 8,
            ..QueryParams::default()
        };
        let off = QueryParams {
            stats: crate::stats::StatsMode::Off,
            ..on
        };
        let engine = QueryEngine::with_block_size(4);
        let a = engine.search_batch(
            &queries,
            &points,
            Metric::SquaredEuclidean,
            &g,
            Starts::Shared(&[0]),
            &on,
        );
        let b = engine.search_batch(
            &queries,
            &points,
            Metric::SquaredEuclidean,
            &g,
            Starts::Shared(&[0]),
            &off,
        );
        for ((ra, sa), (rb, sb)) in a.iter().zip(&b) {
            assert_eq!(ra, rb);
            assert!(sa.dist_comps > 0);
            assert_eq!(*sb, SearchStats::default());
        }
    }

    #[test]
    fn aggregate_stats_sums() {
        let results = vec![
            (
                Vec::new(),
                SearchStats {
                    dist_comps: 3,
                    hops: 1,
                    ..Default::default()
                },
            ),
            (
                Vec::new(),
                SearchStats {
                    dist_comps: 5,
                    hops: 2,
                    ..Default::default()
                },
            ),
        ];
        let total = aggregate_stats(&results);
        assert_eq!(total.dist_comps, 8);
        assert_eq!(total.hops, 3);
    }

    #[test]
    fn index_kind_tags_roundtrip() {
        for kind in [
            IndexKind::Vamana,
            IndexKind::Hnsw,
            IndexKind::Hcnng,
            IndexKind::PyNNDescent,
            IndexKind::Ivf,
            IndexKind::Lsh,
            IndexKind::PqVamana,
            IndexKind::Sharded,
            IndexKind::Custom,
        ] {
            assert_eq!(IndexKind::from_tag(kind.tag()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(IndexKind::from_tag(42), None);
    }
}
