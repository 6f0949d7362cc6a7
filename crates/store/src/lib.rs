//! # parlayann-store — the sharded vector store
//!
//! One node, one graph is where the reproduction started; this crate is
//! the layer that turns it into a multi-dataset, updatable serving
//! system. Three pieces, LANNS/CAGRA-style:
//!
//! * [`ShardedIndex`] — N sub-indexes (each any [`AnnIndex`]: Vamana,
//!   HNSW, an [`ExactIndex`] scan, even another `ShardedIndex` — in memory;
//!   persistence requires one level) over a
//!   [`Partitioner`]-assigned disjoint split of the corpus. Implements
//!   `AnnIndex` itself: searches fan out across shards on the
//!   work-stealing pool and combine through a deterministic k-way merge
//!   ordered by (distance, global id) — results are **bit-identical at
//!   any thread count and any shard enumeration order**. With a
//!   [`ShardCodebook`] and [`Routing`]`{ nprobe: p }`, queries probe only
//!   the `p` closest shards (LANNS-style partial fan-out; `p = N` is
//!   bitwise full fan-out).
//! * [`manifest`] — the on-disk form: a directory of ordinary per-shard
//!   index files plus a versioned `MANIFEST` header (partitioner, per-
//!   shard kind/len/checksum, id maps), layered on the single-index
//!   format of `parlayann::io`. Corrupt members fail by name.
//! * [`reload_server`] — live snapshot reload: loads a manifest off the
//!   query path and hands it to `parlayann_serve::Server::reload`, which
//!   swaps it in while in-flight work drains against the old generation
//!   (generation-stamped responses, zero lost requests).
//!
//! Determinism is load-bearing throughout: a saved manifest reloads to
//! an index that answers bit-identically, and the reload stress tests
//! can therefore check every response against the exact generation that
//! served it.

// Result lists are `Vec<(Vec<(u32, f32)>, SearchStats)>` throughout the
// workspace's query layer; aliasing them here would only rename the shape
// the `AnnIndex` trait already fixes.
#![allow(clippy::type_complexity)]

pub mod exact;
pub mod fault;
pub mod manifest;
pub mod partition;
pub mod replica;
pub mod sharded;

pub use exact::ExactIndex;
pub use fault::{
    is_injected, silence_injected_panics, Fault, FaultPlan, FaultyIndex, InjectedFault,
};
pub use manifest::{
    bytes_checksum, file_checksum, load_manifest, save_manifest, shard_path, MANIFEST_FILE,
};
pub use partition::{balanced_kmeans_assign, shard_members, Partitioner, ShardCodebook};
pub use replica::{BreakerConfig, BreakerState, CircuitBreaker, ReplicaSet, RunOutcome};
pub use sharded::{merge_topk, Routing, Shard, ShardedIndex};

use ann_data::io::BinaryElem;
use ann_data::VectorElem;
use parlayann::AnnIndex;
use std::io;
use std::path::Path;

/// Loads the manifest directory at `dir` and swaps it into a running
/// [`parlayann_serve::Server`] — the admin-call composition of
/// [`load_manifest`] and `Server::reload`. The load happens on the
/// caller's thread, entirely off the serving path; returns the new
/// generation number.
pub fn reload_server<T: VectorElem + BinaryElem>(
    server: &parlayann_serve::Server<T>,
    dir: &Path,
) -> io::Result<u64> {
    let loaded = load_manifest::<T>(dir)?;
    server
        .reload(std::sync::Arc::new(loaded))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// Convenience: a sharded Vamana store over `points` (the common
/// configuration — hash partitioning, default build parameters).
pub fn build_sharded_vamana<T: VectorElem + BinaryElem>(
    points: &ann_data::PointSet<T>,
    metric: ann_data::Metric,
    shards: usize,
    seed: u64,
) -> ShardedIndex<T> {
    let params = parlayann::VamanaParams::default();
    ShardedIndex::build_with(points, Partitioner::hash(shards, seed), |_, ps| {
        std::sync::Arc::new(parlayann::VamanaIndex::build(ps, metric, &params))
            as std::sync::Arc<dyn AnnIndex<T> + Send + Sync>
    })
}
