//! The ParlayANN workspace benchmark: three workloads driven through the
//! public APIs of `ann_data`, `parlayann`, `parlayann_store` and
//! `parlayann_serve`, with correctness checks, end-to-end metrics and a
//! traced run for per-layer metrics. See `METRICS.md` for what each
//! metric means on each workload.

pub mod batch_knn;
pub mod build_ood;
pub mod common;
pub mod host;
pub mod loadgen;
pub mod report;
pub mod serve_sharded;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Where runs leave trace files and the temporary store manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}
