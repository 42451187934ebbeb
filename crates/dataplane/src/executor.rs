//! The region dataplane and its run entry points.
//!
//! A [`Dataplane`] models one region's hardware tier the way the upstream
//! fabric sees it: a VNI directory splits traffic horizontally across
//! clusters (Fig 12), flow-hash ECMP attributes packets to devices inside
//! a cluster, and each cluster's table set serves the walk. Packets the
//! hardware cannot serve degrade to the XGW-x86 software forwarder, the
//! PR 2 fallback model, behind a punt-path circuit breaker wrapping the
//! protective punt meter.
//!
//! Table state is epoch-versioned ([`crate::epoch`]): workers pin the
//! current [`EpochState`] once per batch, so every packet walks an
//! entirely-old or entirely-new table set even while installs publish new
//! epochs concurrently. Hardware decisions are digested **per epoch**
//! ([`RunReport::epoch_digests`]) so the oracle can pin each epoch's
//! decision multiset independently.
//!
//! Packets run through the one pipeline, [`BatchExecutor`]:
//! [`Dataplane::run_single`] and [`Dataplane::run_multi`] are cold-cache
//! runs of it on one and on `config.workers` workers.
//!
//! Determinism contract: [`Dataplane::run_single`] and
//! [`Dataplane::run_multi`] produce the **same decision digest** for the
//! same frame sequence — the multiset of per-packet decisions is
//! independent of worker partitioning — while their virtual-time Mpps
//! differ (that difference *is* the measurement).

use std::collections::BTreeMap;
use std::sync::Arc;

use sailfish_cluster::lb::pick_owner;
use sailfish_net::rss::Toeplitz;
use sailfish_net::wire::ethernet;
use sailfish_net::GatewayPacket;
use sailfish_sim::Topology;
use sailfish_xgw_h::program::HwDropReason;
use sailfish_xgw_h::HwDecision;
use sailfish_xgw_x86::{SoftwareForwarder, SoftwareTables};

use crate::batch::BatchExecutor;
use crate::breaker::{BreakerConfig, BreakerStats};
use crate::counters::TableCounters;
use crate::engine;
use crate::epoch::{EpochCell, EpochState};
use crate::oracle::{DropClass, PathDecision};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Hardware clusters in the region.
    pub clusters: usize,
    /// Devices per cluster (ECMP members).
    pub devices_per_cluster: usize,
    /// ECMP next-hop cap (commercial gear stays under 64).
    pub ecmp_max: usize,
    /// Every `hw_vm_stride`-th VM mapping stays off-chip (volatile or
    /// mid-migration entries served by x86) — the NoVmMapping punt source.
    pub hw_vm_stride: usize,
    /// Punt meter rate. Generous by default so deterministic runs and the
    /// oracle never hit the limiter; benches can tighten it.
    pub punt_rate_bps: u64,
    /// Punt meter burst.
    pub punt_burst_bytes: u64,
    /// Punt-path circuit breaker over the meter.
    pub breaker: BreakerConfig,
    /// Flow-cache sizing factor: each worker's cache holds
    /// `cache_shards * cache_shard_capacity` flows.
    pub cache_shards: usize,
    /// Flows per shard. A worker's S3-FIFO flow cache holds
    /// `cache_shards * cache_shard_capacity` flows and evicts beyond that.
    pub cache_shard_capacity: usize,
    /// Worker threads in [`Dataplane::run_multi`].
    pub workers: usize,
    /// Frames per batch (per-batch overhead is charged once; the epoch is
    /// pinned once per batch).
    pub batch_size: usize,
    /// The DPU middle tier of the degradation ladder. `None` (the
    /// default) keeps the historical binary punt — every hardware miss
    /// degrades straight to x86 — byte-identical to pre-tier builds.
    pub tier: Option<crate::tier::TierConfig>,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            clusters: 4,
            devices_per_cluster: 4,
            ecmp_max: 64,
            hw_vm_stride: 20,
            punt_rate_bps: 400_000_000_000,
            punt_burst_bytes: 1 << 31,
            breaker: BreakerConfig::default(),
            cache_shards: 8,
            cache_shard_capacity: 4096,
            workers: 4,
            batch_size: 32,
            tier: None,
        }
    }
}

/// The region-level hardware dataplane.
#[derive(Debug)]
pub struct Dataplane {
    config: DataplaneConfig,
    cell: EpochCell,
}

/// Report of one executor run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Frames offered.
    pub packets: u64,
    /// Merged stage counters.
    pub counters: TableCounters,
    /// Order-independent sum of per-packet decision digests. Equal
    /// between single and multi mode on the same frame sequence.
    pub decision_digest: u64,
    /// Hardware decision digests keyed by the epoch the deciding batch
    /// had pinned. (Fallback decisions resolve after the pipeline and are
    /// not epoch-attributed.) With no concurrent installs this holds a
    /// single entry whose value is the hardware share of
    /// [`RunReport::decision_digest`].
    pub epoch_digests: BTreeMap<u64, u64>,
    /// Virtual nanoseconds: slowest worker's pipeline time plus the
    /// serial software-fallback time.
    pub virtual_ns: u64,
    /// Packets served by the x86 software fallback (the bottom tier).
    pub fallback_packets: u64,
    /// Packets served by the DPU middle tier. Zero when the region runs
    /// without [`DataplaneConfig::tier`].
    pub dpu_packets: u64,
    /// Workers used.
    pub workers: usize,
    /// Packets attributed per `(cluster, device)`, flattened row-major.
    pub device_packets: Vec<u64>,
    /// Merged x86 punt-breaker transition/shed stats across workers.
    pub breaker: BreakerStats,
    /// Merged DPU-tier breaker stats across workers; all-zero without a
    /// configured tier.
    pub dpu_breaker: BreakerStats,
}

impl RunReport {
    /// Throughput in Mpps under the virtual cost model.
    pub fn virtual_mpps(&self) -> f64 {
        if self.virtual_ns == 0 {
            0.0
        } else {
            self.packets as f64 / self.virtual_ns as f64 * 1000.0
        }
    }
}

/// Builds the reference/fallback software forwarder holding the complete
/// table set of `topology` (routes and every VM mapping).
pub fn software_forwarder(topology: &Topology) -> SoftwareForwarder {
    let mut tables = SoftwareTables::default();
    for (key, target) in &topology.routes {
        tables.routes.insert(*key, *target);
    }
    for vm in &topology.vms {
        tables
            .vm_nc
            .insert(vm.vni, vm.ip, vm.nc)
            .expect("topology VMs are unique");
    }
    SoftwareForwarder::new(tables)
}

impl Dataplane {
    /// Builds the hardware tier from a topology at epoch 0. See
    /// [`EpochState::build`] for the table-placement rules.
    pub fn build(topology: &Topology, config: DataplaneConfig) -> Self {
        let state = EpochState::build(topology, &config, 0);
        Dataplane {
            config,
            cell: EpochCell::new(state),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DataplaneConfig {
        &self.config
    }

    /// Pins the currently published epoch state.
    pub fn pin(&self) -> Arc<EpochState> {
        self.cell.pin()
    }

    /// Atomically publishes a staged state built off to the side (e.g.
    /// via [`EpochState::build_with_world`]); returns the new epoch.
    pub fn publish(&self, state: EpochState) -> u64 {
        self.cell.publish(state)
    }

    /// The epoch number a fresh staged build should use.
    pub fn next_epoch(&self) -> u64 {
        self.cell.pin().epoch + 1
    }

    /// How many epoch swaps have been published.
    pub fn epoch_swaps(&self) -> u64 {
        self.cell.swaps()
    }

    /// Runs every frame in order on one worker: a cold-cache
    /// [`BatchExecutor`] run. Punted packets are resolved through
    /// `fallback` afterwards.
    pub fn run_single(&self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        BatchExecutor::new(self, 1).run(self, frames, fallback)
    }

    /// Runs frames across `config.workers` cold-cache pipelines on scoped
    /// threads, partitioned by outer-UDP flow entropy (what an underlay
    /// ECMP fabric hashes). Decision digest matches
    /// [`Dataplane::run_single`] on the same frames; virtual time reflects
    /// the slowest worker.
    pub fn run_multi(&self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        BatchExecutor::new(self, self.config.workers).run(self, frames, fallback)
    }

    /// Decides one frame end-to-end without touching caches or the punt
    /// breaker — the oracle's view of the executor against the currently
    /// published epoch. Punts are resolved immediately through
    /// `fallback`. Returns `None` when the frame does not parse.
    pub fn decide_one(
        &self,
        frame: &[u8],
        fallback: &mut SoftwareForwarder,
        now_ns: u64,
    ) -> Option<PathDecision> {
        let state = self.cell.pin();
        let packet = GatewayPacket::parse(frame).ok()?;
        let owner_hash = Toeplitz::default();
        let cluster = state
            .directory
            .cluster_for(packet.vni)
            .map(|primary| match state.directory.dual_of(packet.vni) {
                // Mirror the worker's dual-window owner pick so the
                // oracle walks the very tables the pipeline walked.
                Some(secondary) => {
                    pick_owner(&owner_hash, &packet.five_tuple(), primary, secondary)
                }
                None => primary,
            })
            .and_then(|idx| state.clusters.get(idx));
        let Some(cluster) = cluster else {
            return Some(PathDecision::from_software(
                &fallback.process(&packet, now_ns),
            ));
        };
        let mut scratch = TableCounters::default();
        Some(match engine::walk(&cluster.tables, &packet, &mut scratch) {
            HwDecision::ToNc { packet: out, nc } => PathDecision::ToNc { nc, vni: out.vni },
            HwDecision::ToRegion { region, vni } => PathDecision::ToRegion { region, vni },
            HwDecision::ToIdc { idc, vni } => PathDecision::ToIdc { idc, vni },
            HwDecision::PuntToX86 { packet, reason } => {
                // Mirror the workers' offload check at the same logical
                // point: a promoted SNAT flow never reaches the fallback.
                if reason == sailfish_xgw_h::PuntReason::SnatRequired
                    && state
                        .snat
                        .as_deref()
                        .is_some_and(|o| o.lookup(packet.vni, &packet.five_tuple()).is_some())
                {
                    PathDecision::ToInternet
                } else {
                    PathDecision::from_software(&fallback.process(&packet, now_ns))
                }
            }
            HwDecision::Drop(HwDropReason::AclDeny) => PathDecision::Drop(DropClass::Acl),
            HwDecision::Drop(HwDropReason::RoutingLoop) => {
                PathDecision::Drop(DropClass::RoutingLoop)
            }
            HwDecision::Drop(HwDropReason::PuntRateLimited) => {
                unreachable!("walk never rate-limits")
            }
        })
    }
}

/// Which worker a frame belongs to: the outer UDP source port (underlay
/// flow entropy) mixed and reduced. Unparsable-at-a-glance frames land on
/// worker 0.
pub fn worker_for(frame: &[u8], workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    let port = peek_outer_udp_src(frame).unwrap_or(0);
    (u64::from(port).wrapping_mul(0x9E37_79B1) >> 16) as usize % workers
}

fn peek_outer_udp_src(frame: &[u8]) -> Option<u16> {
    let ethertype = u16::from_be_bytes([*frame.get(12)?, *frame.get(13)?]);
    let udp_start = match ethertype {
        0x0800 => ethernet::HEADER_LEN + usize::from(*frame.get(ethernet::HEADER_LEN)? & 0x0f) * 4,
        0x86dd => ethernet::HEADER_LEN + 40,
        _ => return None,
    };
    Some(u16::from_be_bytes([
        *frame.get(udp_start)?,
        *frame.get(udp_start + 1)?,
    ]))
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::traffic;
    use sailfish_sim::{TopologyConfig, WorkloadConfig};

    fn small_setup() -> (Topology, Vec<Vec<u8>>, Vec<usize>) {
        let topology = Topology::generate(TopologyConfig::default());
        let flows = sailfish_sim::workload::generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 800,
                internet_share: 0.01,
                ..WorkloadConfig::default()
            },
        );
        let frames = traffic::frames_for_flows(&flows);
        let sched = traffic::schedule(&flows[..frames.len()], 30_000, 42);
        (topology, frames, sched)
    }

    #[test]
    fn single_and_multi_agree_on_decisions() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

        let mut fb1 = software_forwarder(&topology);
        let single = dp.run_single(&seq, &mut fb1);
        let mut fb2 = software_forwarder(&topology);
        let multi = dp.run_multi(&seq, &mut fb2);

        assert_eq!(single.decision_digest, multi.decision_digest);
        assert_eq!(single.epoch_digests, multi.epoch_digests);
        assert_eq!(single.packets, multi.packets);
        assert_eq!(single.counters.parse_errors, 0);
        assert_eq!(single.counters.parsed, seq.len() as u64);
        // Stage totals are partition-independent too (every flow fits
        // each worker's cache, so nothing is evicted).
        assert_eq!(single.counters.punted(), multi.counters.punted());
        assert_eq!(
            single.counters.hw_forwarded + single.counters.fallback_forwarded,
            multi.counters.hw_forwarded + multi.counters.fallback_forwarded,
        );
        assert_eq!(multi.workers, dp.config().workers);
        // Parallel pipelines are faster in virtual time.
        assert!(multi.virtual_mpps() >= single.virtual_mpps());
    }

    #[test]
    fn deterministic_across_repeated_runs() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb1 = software_forwarder(&topology);
        let a = dp.run_multi(&seq, &mut fb1);
        let mut fb2 = software_forwarder(&topology);
        let b = dp.run_multi(&seq, &mut fb2);
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.device_packets, b.device_packets);
    }

    #[test]
    fn stride_withholds_vm_mappings() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb = software_forwarder(&topology);
        let report = dp.run_single(&seq, &mut fb);
        // With 1-in-20 mappings off-chip and thousands of flows, some
        // NoVmMapping punts must occur — and the fallback must serve them
        // (full tables, no black hole).
        assert!(report.counters.punt_no_vm > 0, "{:?}", report.counters);
        assert!(report.counters.fallback_forwarded > 0);
        assert_eq!(report.counters.punt_rate_limited, 0);
        assert_eq!(report.counters.punt_breaker_open, 0);
        // Cache effectiveness: repeated flows hit after the first miss.
        assert!(report.counters.cache_hits > report.counters.cache_misses);
    }

    #[test]
    fn quiescent_run_stays_on_one_untorn_epoch() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb = software_forwarder(&topology);
        let report = dp.run_single(&seq, &mut fb);
        assert_eq!(report.counters.epoch_violations, 0);
        assert_eq!(report.epoch_digests.len(), 1);
        assert!(report.epoch_digests.contains_key(&0));
        assert_eq!(dp.epoch_swaps(), 0);
        assert_eq!(dp.pin().epoch, 0);
    }

    #[test]
    fn dpu_tier_serves_punts_without_changing_the_digest() {
        let (topology, frames, sched) = small_setup();
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

        let flat = Dataplane::build(&topology, DataplaneConfig::default());
        let mut fb = software_forwarder(&topology);
        let two_tier = flat.run_single(&seq, &mut fb);

        let tiered = Dataplane::build(
            &topology,
            DataplaneConfig {
                tier: Some(crate::tier::TierConfig::default()),
                ..DataplaneConfig::default()
            },
        );
        let mut fb = software_forwarder(&topology);
        let three_tier = tiered.run_single(&seq, &mut fb);

        // Tier placement moves *where* a punt is served, never *what*
        // the decision is.
        assert_eq!(two_tier.decision_digest, three_tier.decision_digest);
        assert_eq!(two_tier.epoch_digests, three_tier.epoch_digests);

        // A healthy pool with generous meters owns every punted flow:
        // the x86 rung sees nothing.
        assert!(three_tier.dpu_packets > 0);
        assert_eq!(three_tier.fallback_packets, 0);
        assert_eq!(three_tier.dpu_packets, two_tier.fallback_packets);
        let c = &three_tier.counters;
        assert_eq!(c.dpu_spilled, c.dpu_forwarded + c.dpu_dropped);
        assert_eq!(c.dpu_shed_meter, 0);
        assert_eq!(c.dpu_breaker_open, 0);
        assert_eq!(c.dpu_rehomed, 0);
        assert_eq!(
            c.punted(),
            c.dpu_forwarded
                + c.dpu_dropped
                + c.fallback_forwarded
                + c.fallback_dropped
                + c.punt_rate_limited
                + c.punt_breaker_open
        );

        // DPU service is cheaper than x86 service, so the three-tier
        // ladder finishes earlier in virtual time.
        assert!(three_tier.virtual_ns < two_tier.virtual_ns);
    }

    #[test]
    fn tiered_single_and_multi_agree_on_decisions() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(
            &topology,
            DataplaneConfig {
                tier: Some(crate::tier::TierConfig::default()),
                ..DataplaneConfig::default()
            },
        );
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb1 = software_forwarder(&topology);
        let single = dp.run_single(&seq, &mut fb1);
        let mut fb2 = software_forwarder(&topology);
        let multi = dp.run_multi(&seq, &mut fb2);
        assert_eq!(single.decision_digest, multi.decision_digest);
        assert_eq!(single.epoch_digests, multi.epoch_digests);
        assert_eq!(single.dpu_packets, multi.dpu_packets);
        assert_eq!(single.counters.dpu_spilled, multi.counters.dpu_spilled);
    }

    #[test]
    fn worker_partition_is_total_and_stable() {
        let (_, frames, _) = small_setup();
        for frame in frames.iter().take(200) {
            let w = worker_for(frame, 4);
            assert!(w < 4);
            assert_eq!(w, worker_for(frame, 4));
        }
        assert_eq!(worker_for(&[], 4), 0);
        assert_eq!(worker_for(&[0u8; 60], 1), 0);
    }

    #[test]
    fn ecmp_attribution_spreads_devices() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb = software_forwarder(&topology);
        let report = dp.run_single(&seq, &mut fb);
        let busy = report.device_packets.iter().filter(|c| **c > 0).count();
        assert!(
            busy > dp.config().devices_per_cluster,
            "only {busy} devices saw traffic: {:?}",
            report.device_packets
        );
        assert_eq!(
            report.device_packets.iter().sum::<u64>(),
            report.counters.parsed
        );
    }
}
