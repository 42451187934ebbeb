//! Wall-clock benchmark of the Sailfish gateway, driven through the
//! workspace crates' public API. See `gwbench/README.md` for the
//! workloads, the metrics and how they relate.

pub mod affinity;
pub mod alloc;
pub mod control;
pub mod host;
pub mod layers;
pub mod machine;
pub mod measure;
pub mod stats;
pub mod trace;
pub mod workload;

/// The latency limit of the open-loop phases: a packet decided later
/// than this after its due time misses the SLO (and, at the workload's
/// fixed rate, counts as failed).
pub const LATENCY_LIMIT_US: u64 = 1_000;

/// The share of a run's samples every reported figure is the mean of:
/// the quickest tenth. A shared host only ever slows the code, in stalls
/// and in stretches of contention that come and go within a run.
pub const QUICK_SHARE: f64 = 0.1;
