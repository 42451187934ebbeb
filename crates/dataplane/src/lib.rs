//! Behavioral packet-level dataplane executor.
//!
//! Every other crate in the workspace reasons about [`sailfish_net::GatewayPacket`]
//! — an already-parsed model of a VXLAN frame. This crate closes the loop
//! down to real wire bytes: it parses Ethernet/IPv4/IPv6/VXLAN frames with
//! the `net::wire` views, walks the verified XGW-H table layout stage by
//! stage (digest match with conflict-table fallback, pooled-ALPM LPM,
//! VNI-based horizontal split and ECMP device choice), applies the header
//! rewrite and re-encapsulation in place, and degrades to the XGW-x86
//! software path whenever the hardware pipeline cannot serve a packet —
//! the same fallback model the region simulation uses.
//!
//! [`executor::Dataplane`] holds the epoch-versioned tables; one packet
//! pipeline runs over them, the **zero-allocation batch executor**
//! ([`batch::BatchExecutor`]). It walks contiguous frame lanes through
//! per-stage loops with a borrowed-view parser, an evicting S3-FIFO flow
//! cache and a reusable rewrite arena. [`executor::Dataplane::run_single`]
//! (the deterministic golden mode behind the byte-identical benchmark
//! JSON) and [`executor::Dataplane::run_multi`] (scoped threads
//! partitioned by outer-UDP flow entropy, exactly like an underlay ECMP
//! fabric) are cold-cache runs of it.
//!
//! The differential oracle ([`oracle::differential_run`]) pins the whole
//! pipeline against the reference software forwarder: every packet the
//! hardware executor serves must reach the same `(next-hop, rewrite)`
//! decision `xgw_x86::SoftwareForwarder` would take.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test code must not `unwrap()` (see clippy.toml `disallowed-methods`);
// CI's `-D warnings` escalates this to deny. Test builds carry `cfg(test)`
// and keep their unwraps.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

// The zero-alloc batch hot path handles raw frames at line rate; its
// slicing lint is `deny` like `rewrite`'s — unchecked indexing on
// hostile bytes must not compile.
#[deny(clippy::indexing_slicing)]
pub mod batch;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod counters;
pub mod engine;
pub mod epoch;
// Code touching raw frame bytes must prove every slice: unchecked
// indexing on truncated or hostile frames must not compile.
#[deny(clippy::indexing_slicing)]
pub mod executor;
pub mod oracle;
#[deny(clippy::indexing_slicing)]
pub mod rewrite;
pub mod tier;
pub mod traffic;

pub use batch::BatchExecutor;
pub use breaker::{Admission, BreakerConfig, BreakerState, BreakerStats, PuntBreaker};
pub use cache::{CachedAction, FlowCache, FlowOutcome};
pub use chaos::{ChaosConfig, ChaosReport, FaultOutcome, InvariantViolation, SlotRecord};
pub use counters::TableCounters;
pub use epoch::{EpochCell, EpochState, WorldView};
pub use executor::{Dataplane, DataplaneConfig, RunReport};
pub use oracle::{differential_run, OracleReport, PathDecision};
pub use tier::{TierConfig, TierDecision, TierMap};
