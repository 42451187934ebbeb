//! End-to-end region simulation.
//!
//! [`Region`] is the Sailfish deployment of Fig 10: load balancers → a
//! VNI directory choosing the XGW-H cluster → flow-hash ECMP choosing the
//! device → the folded hardware program, with SNAT/long-tail traffic
//! punted to the XGW-x86 fallback cluster. [`X86Region`] is the
//! pre-Sailfish baseline: a fleet of software gateways behind flow-hash
//! ECMP (Figs 4–7).
//!
//! ## Loss model
//!
//! Deterministic losses come from capacity arithmetic (per-core overload
//! on x86, line-rate/pps overload on XGW-H, punt rate limiting). On top
//! of that, real deployments observe a tiny *residual* loss floor
//! (micro-bursts inside the chip's buffers, FEC escapes); Fig 19 measures
//! it at 10⁻¹¹–10⁻¹⁰ for Sailfish. We model the floor as
//! `10^-(11 - 1.5·u)` per device at utilization `u` — calibrated so a
//! lightly loaded device sits at 10⁻¹¹ and a festival-peak device
//! approaches 10⁻¹⁰ (see DESIGN.md §2; this is a documented substitution
//! for effects below the fluid model's resolution).

use std::collections::BTreeSet;

use sailfish_net::packet::GatewayPacketBuilder;
use sailfish_net::rss::Toeplitz;
use sailfish_sim::topology::Topology;
use sailfish_sim::workload::Flow;
use sailfish_snat::TrackerConfig;
use sailfish_tables::alpm::AlpmConfig;
use sailfish_xgw_h::{HwDecision, XgwH};
use sailfish_xgw_x86::{CoreLoadReport, FlowRate, FluidEngine, XgwX86Config};

use crate::cluster::{HwCluster, SwCluster};
use crate::controller::{
    ClusterCapacity, ClusterLoad, Controller, InstallError, PlanError, SplitPlan,
};
use crate::lb::{pick_owner, EcmpGroup, LbError, VniDirectory};

/// Residual (micro-burst) loss ratio of one hardware device at
/// utilization `u ∈ [0, 1]`.
pub fn hw_residual_loss_ratio(u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    10f64.powf(-(11.0 - 1.5 * u))
}

/// Region configuration.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Primary XGW-H clusters.
    pub hw_clusters: usize,
    /// Empty spare clusters built beyond the split plan's needs — the
    /// headroom an elastic scale-out re-shard migrates VNIs into. Spares
    /// mirror to backups like any other cluster when `with_backup`.
    pub spare_clusters: usize,
    /// Devices per cluster.
    pub devices_per_cluster: usize,
    /// Whether to build 1:1 hot-standby backup clusters (§6.1).
    pub with_backup: bool,
    /// XGW-x86 fallback nodes.
    pub sw_nodes: usize,
    /// ECMP next-hop cap of the upstream load balancer.
    pub ecmp_max: usize,
    /// Folded per-device line rate, bits/s.
    pub device_bps: f64,
    /// Folded per-device packet rate, packets/s.
    pub device_pps: f64,
    /// Per-device punt budget toward XGW-x86, bits/s.
    pub punt_rate_bps: f64,
    /// ALPM partition size.
    pub alpm: AlpmConfig,
    /// Split-planning capacity per cluster.
    pub capacity: ClusterCapacity,
    /// Software node envelope.
    pub x86: XgwX86Config,
    /// SNAT connection tracking (external pool, aging) of the software
    /// nodes.
    pub snat: TrackerConfig,
    /// Degrade flows with no serving hardware (directory gap after a
    /// failed install, every device of a cluster offline) to the XGW-x86
    /// path instead of black-holing them.
    pub degrade_to_x86: bool,
    /// Region-level rate budget for that degraded traffic, bits/s. The
    /// fallback path is a safety net, not a second data plane: beyond the
    /// budget it sheds load proportionally.
    pub fallback_rate_bps: f64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            hw_clusters: 4,
            spare_clusters: 0,
            devices_per_cluster: 3,
            with_backup: true,
            sw_nodes: 4,
            ecmp_max: 16,
            device_bps: 3.2e12,
            device_pps: 1.8e9,
            punt_rate_bps: 10e9,
            alpm: AlpmConfig::default(),
            capacity: ClusterCapacity::default(),
            x86: XgwX86Config::default(),
            snat: TrackerConfig::default(),
            degrade_to_x86: true,
            fallback_rate_bps: 40e9,
        }
    }
}

/// Errors building a region.
#[derive(Debug)]
pub enum BuildError {
    /// Split planning failed.
    Plan(PlanError),
    /// Load-balancer configuration failed.
    Lb(LbError),
    /// Table installation failed.
    Table(sailfish_tables::Error),
    /// The two-phase install gave up (retries exhausted or a device
    /// rejected entries).
    Install(InstallError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Plan(e) => write!(f, "planning: {e}"),
            BuildError::Lb(e) => write!(f, "load balancer: {e}"),
            BuildError::Table(e) => write!(f, "table install: {e}"),
            BuildError::Install(e) => write!(f, "install: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<PlanError> for BuildError {
    fn from(e: PlanError) -> Self {
        BuildError::Plan(e)
    }
}

impl From<LbError> for BuildError {
    fn from(e: LbError) -> Self {
        BuildError::Lb(e)
    }
}

impl From<sailfish_tables::Error> for BuildError {
    fn from(e: sailfish_tables::Error) -> Self {
        BuildError::Table(e)
    }
}

impl From<InstallError> for BuildError {
    fn from(e: InstallError) -> Self {
        BuildError::Install(e)
    }
}

/// Where a flow goes after classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPath {
    /// Served in hardware by `(cluster, device)`.
    Hw {
        /// Serving cluster.
        cluster: usize,
        /// Serving device within the cluster.
        device: usize,
    },
    /// Punted to the software cluster through `(cluster, device)`.
    Punt {
        /// Hardware cluster the flow transits.
        cluster: usize,
        /// Hardware device the flow transits.
        device: usize,
        /// Software node serving it.
        node: usize,
    },
    /// Dropped in hardware (ACL, loop).
    HwDrop,
    /// No serving hardware; degraded to the rate-limited XGW-x86 path
    /// (graceful degradation instead of black-holing).
    Fallback {
        /// Software node serving it.
        node: usize,
    },
    /// The flow's VNI is not in the directory (configuration gap) and
    /// degradation is disabled.
    Unrouted,
}

/// The outcome of offering one interval of traffic.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Total offered packets/s.
    pub offered_pps: f64,
    /// Total offered bits/s.
    pub offered_bps: f64,
    /// Utilization per `[cluster][device]`.
    pub device_util: Vec<Vec<f64>>,
    /// Deterministic hardware overload drops, packets/s.
    pub overload_dropped_pps: f64,
    /// Residual micro-burst drops, packets/s.
    pub residual_dropped_pps: f64,
    /// Drops at the punt rate limiter, packets/s.
    pub punt_limited_pps: f64,
    /// Per software node core reports.
    pub sw_reports: Vec<CoreLoadReport>,
    /// Software drops (core overload + NIC), packets/s.
    pub sw_dropped_pps: f64,
    /// Traffic reaching the software cluster, packets/s.
    pub punted_pps: f64,
    /// Traffic reaching the software cluster, bits/s.
    pub punted_bps: f64,
    /// Per-cluster loop-pipe byte split `(pipe1, pipe3)` in bits/s.
    pub loop_pipe_bps: Vec<(f64, f64)>,
    /// Traffic degraded to the XGW-x86 fallback path because no hardware
    /// could serve it, packets/s (before the fallback rate limit).
    pub fallback_pps: f64,
    /// Degraded traffic shed at the region fallback rate limit, packets/s.
    pub fallback_limited_pps: f64,
    /// Flows that had no directory entry, packets/s (should be 0).
    pub unrouted_pps: f64,
}

impl RegionReport {
    /// Total drop ratio across the region.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered_pps == 0.0 {
            return 0.0;
        }
        (self.overload_dropped_pps
            + self.residual_dropped_pps
            + self.punt_limited_pps
            + self.sw_dropped_pps
            + self.fallback_limited_pps
            + self.unrouted_pps)
            / self.offered_pps
    }

    /// Share of offered traffic that had to degrade to the XGW-x86
    /// fallback path (the chaos harness's graceful-degradation signal).
    pub fn fallback_share(&self) -> f64 {
        if self.offered_pps == 0.0 {
            0.0
        } else {
            self.fallback_pps / self.offered_pps
        }
    }

    /// Share of offered traffic handled by XGW-x86 (Fig 22).
    pub fn punt_ratio(&self) -> f64 {
        if self.offered_pps == 0.0 {
            0.0
        } else {
            self.punted_pps / self.offered_pps
        }
    }

    /// The busiest device's utilization.
    pub fn peak_device_util(&self) -> f64 {
        self.device_util
            .iter()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }
}

/// A deployed Sailfish region.
#[derive(Debug)]
pub struct Region {
    /// Configuration.
    pub config: RegionConfig,
    /// VNI → cluster directory (upstream LB state).
    pub directory: VniDirectory,
    /// The split plan in force.
    pub plan: SplitPlan,
    /// The controller (holds install intent).
    pub controller: Controller,
    /// Hardware clusters: primaries `0..hw_clusters`, then backups when
    /// configured.
    pub hw: Vec<HwCluster>,
    /// The software fallback cluster.
    pub sw: SwCluster,
    /// Per-device capacity scale in `[0, 1]` (`[cluster][device]`);
    /// port-level isolation (§6.1) reduces it below 1.
    pub capacity_scale: Vec<Vec<f64>>,
    /// Devices retired by an elastic scale-in (drained, out of rotation).
    /// Recovery actions aimed at a retired device are no-ops
    /// ([`crate::failover::RecoveryOutcome::NotApplicable`]), so chaos
    /// and re-shard schedules compose.
    pub retired: BTreeSet<(usize, usize)>,
    /// Flow hasher shared with the ECMP layer; dual-owner picks during a
    /// re-shard's `Dual` phase use it so the region model and the
    /// packet-level executor agree on which owner serves a flow.
    hasher: Toeplitz,
}

impl Region {
    /// Plans, builds and installs a region for a topology.
    pub fn build(topology: &Topology, config: RegionConfig) -> Result<Region, BuildError> {
        let mut plan = Controller::plan_split(topology, config.capacity, config.hw_clusters)?;
        // Spares are planned-empty clusters: real hardware, zero load.
        // A scale-out re-shard later migrates VNIs into them.
        let padded = plan.per_cluster.len() + config.spare_clusters;
        plan.per_cluster.resize(padded, ClusterLoad::default());
        let clusters = plan.clusters_needed().max(1);
        let total_clusters = if config.with_backup {
            clusters * 2
        } else {
            clusters
        };
        let mut hw = Vec::with_capacity(total_clusters);
        for id in 0..total_clusters {
            hw.push(HwCluster::new(
                id,
                config.devices_per_cluster,
                config.ecmp_max,
                config.alpm,
                config.punt_rate_bps as u64,
            )?);
        }
        let mut sw = SwCluster::new(
            config.sw_nodes,
            config.ecmp_max,
            config.x86.clone(),
            config.snat,
        )?;
        let mut directory = VniDirectory::new();
        let mut controller = Controller::new();
        controller.install(
            topology,
            &plan,
            &mut hw[..clusters],
            &mut sw,
            &mut directory,
        )?;
        // Backups mirror their primaries ("hot standby with the same
        // configuration", §6.1).
        if config.with_backup {
            let mut backup_controller = Controller::new();
            let mut backup_dir = VniDirectory::new();
            let (primaries, backups) = hw.split_at_mut(clusters);
            let _ = primaries; // tables already installed above
            backup_controller.install(
                topology,
                &plan,
                backups,
                &mut SwCluster::new(1, 64, config.x86.clone(), config.snat)?,
                &mut backup_dir,
            )?;
        }
        let capacity_scale = vec![vec![1.0; config.devices_per_cluster]; hw.len()];
        Ok(Region {
            config,
            directory,
            plan,
            controller,
            hw,
            sw,
            capacity_scale,
            retired: BTreeSet::new(),
            hasher: Toeplitz::default(),
        })
    }

    /// Retires a device (elastic scale-in): pulls it out of ECMP and
    /// marks it so later recovery actions treat it as intentionally gone.
    pub fn retire_device(&mut self, cluster: usize, device: usize) {
        if let Some(hw) = self.hw.get_mut(cluster) {
            hw.take_device_offline(device);
        }
        self.retired.insert((cluster, device));
    }

    /// Whether a device was retired by a scale-in (as opposed to failed).
    pub fn is_retired(&self, cluster: usize, device: usize) -> bool {
        self.retired.contains(&(cluster, device))
    }

    /// Index of the backup cluster for primary `cluster`.
    pub fn backup_of(&self, cluster: usize) -> Option<usize> {
        if self.config.with_backup {
            Some(self.plan.clusters_needed() + cluster)
        } else {
            None
        }
    }

    /// A flow with no serving hardware: degrade to XGW-x86 when
    /// configured, otherwise report it unrouted.
    fn no_hw_path(&self, flow: &Flow) -> FlowPath {
        if self.config.degrade_to_x86 {
            FlowPath::Fallback {
                node: self
                    .sw
                    .ecmp
                    .pick(&flow.tuple)
                    .expect("sw cluster is never empty"),
            }
        } else {
            FlowPath::Unrouted
        }
    }

    /// Classifies one flow: which path it takes through the region.
    pub fn classify(&self, flow: &Flow) -> FlowPath {
        let Some(mut cluster) = self.directory.cluster_for(flow.vni) else {
            // Directory gap: the VNI's install failed or was rolled back.
            return self.no_hw_path(flow);
        };
        if let Some(secondary) = self.directory.dual_of(flow.vni) {
            // Make-before-break `Dual` phase: both owners hold the VNI's
            // tables, so the flow hash may steer to either one.
            cluster = pick_owner(&self.hasher, &flow.tuple, cluster, secondary);
        }
        let Ok(device) = self.hw[cluster].device_for(&flow.tuple) else {
            // Every device of the serving cluster is offline.
            return self.no_hw_path(flow);
        };
        let packet = GatewayPacketBuilder::new(flow.vni, flow.tuple.src_ip, flow.tuple.dst_ip)
            .transport(
                flow.tuple.protocol,
                flow.tuple.src_port,
                flow.tuple.dst_port,
            )
            .build();
        match self.hw[cluster].devices[device].classify(&packet) {
            HwDecision::ToNc { .. } | HwDecision::ToRegion { .. } | HwDecision::ToIdc { .. } => {
                FlowPath::Hw { cluster, device }
            }
            HwDecision::PuntToX86 { .. } => {
                let node = self
                    .sw
                    .ecmp
                    .pick(&flow.tuple)
                    .expect("sw cluster is never empty");
                FlowPath::Punt {
                    cluster,
                    device,
                    node,
                }
            }
            HwDecision::Drop(_) => FlowPath::HwDrop,
        }
    }

    /// Offers one interval of traffic at a load `multiplier` (the festival
    /// profile) and reports utilization and losses.
    pub fn offer(&mut self, flows: &[Flow], multiplier: f64) -> RegionReport {
        let primaries = self.plan.clusters_needed();
        let devices = self.config.devices_per_cluster;
        let mut device_bps = vec![vec![0.0f64; devices]; self.hw.len()];
        let mut device_pps = vec![vec![0.0f64; devices]; self.hw.len()];
        let mut punt_bps = vec![vec![0.0f64; devices]; self.hw.len()];
        let mut loop_pipe_bps = vec![(0.0f64, 0.0f64); self.hw.len()];
        let mut sw_flows: Vec<Vec<FlowRate>> = vec![Vec::new(); self.sw.nodes.len()];
        let mut sw_flow_scale: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.sw.nodes.len()];
        let mut fb_flows: Vec<Vec<FlowRate>> = vec![Vec::new(); self.sw.nodes.len()];
        let mut offered_pps = 0.0;
        let mut offered_bps = 0.0;
        let mut unrouted_pps = 0.0;

        for flow in flows {
            let pps = flow.pps * multiplier;
            let bps = flow.bps() * multiplier;
            offered_pps += pps;
            offered_bps += bps;
            match self.classify(flow) {
                FlowPath::Hw { cluster, device } => {
                    device_bps[cluster][device] += bps;
                    device_pps[cluster][device] += pps;
                    let split = &mut loop_pipe_bps[cluster];
                    if XgwH::loop_pipe_for(flow.vni) == 1 {
                        split.0 += bps;
                    } else {
                        split.1 += bps;
                    }
                }
                FlowPath::Punt {
                    cluster,
                    device,
                    node,
                } => {
                    // Punted traffic transits the hardware device too.
                    device_bps[cluster][device] += bps;
                    device_pps[cluster][device] += pps;
                    punt_bps[cluster][device] += bps;
                    sw_flows[node].push(FlowRate {
                        tuple: flow.tuple,
                        pps,
                        wire_bytes: flow.wire_bytes,
                    });
                    sw_flow_scale[node].push((cluster, device));
                }
                FlowPath::HwDrop => {
                    // ACL drops are intentional, not loss; exclude from
                    // offered totals.
                    offered_pps -= pps;
                    offered_bps -= bps;
                }
                FlowPath::Fallback { node } => {
                    // No hardware transit: the LB steers the flow straight
                    // at the software cluster.
                    fb_flows[node].push(FlowRate {
                        tuple: flow.tuple,
                        pps,
                        wire_bytes: flow.wire_bytes,
                    });
                }
                FlowPath::Unrouted => unrouted_pps += pps,
            }
        }

        // Region-level rate limit on the degraded path: it is a safety
        // net sized for disasters, not a second data plane.
        let total_fb_bps: f64 = fb_flows.iter().flatten().map(|f| f.bps()).sum();
        let fb_scale = if total_fb_bps > self.config.fallback_rate_bps {
            self.config.fallback_rate_bps / total_fb_bps
        } else {
            1.0
        };
        let mut fallback_pps = 0.0;
        let mut fallback_limited_pps = 0.0;

        // Punt rate limiting per device: scale down software-bound flows
        // proportionally where the budget is exceeded.
        let mut punt_scale = vec![vec![1.0f64; devices]; self.hw.len()];
        let mut punt_limited_pps = 0.0;
        for c in 0..self.hw.len() {
            for d in 0..devices {
                if punt_bps[c][d] > self.config.punt_rate_bps {
                    punt_scale[c][d] = self.config.punt_rate_bps / punt_bps[c][d];
                }
            }
        }
        let mut punted_pps = 0.0;
        let mut punted_bps = 0.0;
        let mut sw_reports = Vec::with_capacity(self.sw.nodes.len());
        let mut sw_dropped_pps = 0.0;
        for (node, flows) in sw_flows.iter_mut().enumerate() {
            for (i, f) in flows.iter_mut().enumerate() {
                let (c, d) = sw_flow_scale[node][i];
                let scale = punt_scale[c][d];
                punt_limited_pps += f.pps * (1.0 - scale);
                f.pps *= scale;
                punted_pps += f.pps;
                punted_bps += f.bps();
            }
            // Degraded flows share the node with punted ones; the core
            // model sees both.
            for f in &mut fb_flows[node] {
                fallback_pps += f.pps;
                fallback_limited_pps += f.pps * (1.0 - fb_scale);
                f.pps *= fb_scale;
            }
            flows.extend(fb_flows[node].iter().cloned());
            let report = self.sw.nodes[node].engine.offer(flows);
            sw_dropped_pps += report.dropped_pps + report.nic_dropped_pps;
            sw_reports.push(report);
        }

        // Hardware device utilizations and losses.
        let mut device_util = vec![vec![0.0f64; devices]; self.hw.len()];
        let mut overload = 0.0;
        let mut residual = 0.0;
        for c in 0..self.hw.len() {
            for d in 0..devices {
                let scale = self.capacity_scale[c][d].clamp(0.0, 1.0).max(1e-9);
                let u_bps = device_bps[c][d] / (self.config.device_bps * scale);
                let u_pps = device_pps[c][d] / (self.config.device_pps * scale);
                let u = u_bps.max(u_pps);
                device_util[c][d] = u;
                if u > 1.0 {
                    overload += device_pps[c][d] * (u - 1.0) / u;
                }
                residual += device_pps[c][d] * hw_residual_loss_ratio(u);
            }
        }
        let _ = primaries;

        RegionReport {
            offered_pps,
            offered_bps,
            device_util,
            overload_dropped_pps: overload,
            residual_dropped_pps: residual,
            punt_limited_pps,
            sw_reports,
            sw_dropped_pps,
            punted_pps,
            punted_bps,
            loop_pipe_bps,
            fallback_pps,
            fallback_limited_pps,
            unrouted_pps,
        }
    }
}

/// The pre-Sailfish baseline: a fleet of XGW-x86 gateways behind ECMP.
#[derive(Debug)]
pub struct X86Region {
    /// The software gateways.
    pub nodes: Vec<FluidEngine>,
    /// Flow-hash spread across them.
    pub ecmp: EcmpGroup,
}

/// Report of one baseline interval.
#[derive(Debug, Clone)]
pub struct X86RegionReport {
    /// Per-node core reports.
    pub node_reports: Vec<CoreLoadReport>,
    /// Total offered packets/s.
    pub offered_pps: f64,
    /// Total dropped packets/s.
    pub dropped_pps: f64,
}

impl X86RegionReport {
    /// Region loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered_pps == 0.0 {
            0.0
        } else {
            self.dropped_pps / self.offered_pps
        }
    }

    /// Per-node average core utilization (Fig 6's box-level balance).
    pub fn node_mean_utilization(&self) -> Vec<f64> {
        self.node_reports
            .iter()
            .map(|r| r.utilization.iter().sum::<f64>() / r.utilization.len() as f64)
            .collect()
    }
}

impl X86Region {
    /// Builds a fleet of `nodes` identical software gateways.
    pub fn new(nodes: usize, ecmp_max: usize, config: XgwX86Config) -> Result<Self, LbError> {
        let mut ecmp = EcmpGroup::new(ecmp_max);
        let mut list = Vec::with_capacity(nodes);
        for n in 0..nodes {
            ecmp.add(n)?;
            list.push(FluidEngine::new(config.clone()));
        }
        Ok(X86Region { nodes: list, ecmp })
    }

    /// Offers one interval of traffic at a load multiplier.
    pub fn offer(&self, flows: &[Flow], multiplier: f64) -> X86RegionReport {
        let mut per_node: Vec<Vec<FlowRate>> = vec![Vec::new(); self.nodes.len()];
        let mut offered_pps = 0.0;
        for flow in flows {
            let node = self.ecmp.pick(&flow.tuple).expect("nodes exist");
            let pps = flow.pps * multiplier;
            offered_pps += pps;
            per_node[node].push(FlowRate {
                tuple: flow.tuple,
                pps,
                wire_bytes: flow.wire_bytes,
            });
        }
        let mut node_reports = Vec::with_capacity(self.nodes.len());
        let mut dropped = 0.0;
        for (node, flows) in per_node.iter().enumerate() {
            let report = self.nodes[node].offer(flows);
            dropped += report.dropped_pps + report.nic_dropped_pps;
            node_reports.push(report);
        }
        X86RegionReport {
            node_reports,
            offered_pps,
            dropped_pps: dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_sim::topology::TopologyConfig;
    use sailfish_sim::workload::{generate_flows, WorkloadConfig};

    fn small_region() -> (Topology, Region) {
        let topology = Topology::generate(TopologyConfig::default());
        let config = RegionConfig {
            hw_clusters: 4,
            devices_per_cluster: 2,
            with_backup: true,
            sw_nodes: 2,
            capacity: ClusterCapacity {
                max_routes: 600,
                max_vms: 3_000,
            },
            ..RegionConfig::default()
        };
        let region = Region::build(&topology, config).unwrap();
        (topology, region)
    }

    #[test]
    fn build_splits_across_clusters() {
        let (topology, region) = small_region();
        assert!(region.plan.clusters_needed() > 1);
        assert_eq!(region.directory.len(), region.plan.assignments.len());
        // Every cluster's install matches its planned load.
        for (i, load) in region.plan.per_cluster.iter().enumerate() {
            assert_eq!(region.hw[i].route_entries(), load.routes);
            assert_eq!(region.hw[i].vm_entries(), load.vms);
        }
        // Backups mirror primaries.
        let primaries = region.plan.clusters_needed();
        for i in 0..primaries {
            let b = region.backup_of(i).unwrap();
            assert_eq!(region.hw[i].route_entries(), region.hw[b].route_entries());
        }
        // Software holds everything.
        assert_eq!(
            region.sw.nodes[0].forwarder.tables.routes.len(),
            topology.routes.len()
        );
    }

    #[test]
    fn consistency_check_is_clean_then_detects_corruption() {
        let (_t, mut region) = small_region();
        let findings = region
            .controller
            .check_consistency(&region.plan, &region.hw);
        assert!(findings.is_empty(), "{findings:?}");
        // Simulate memory corruption/loss on one device by swapping in a
        // fresh (empty) gateway; the checker must localize the fault.
        let (_, &cluster) = region.plan.assignments.iter().next().unwrap();
        region.hw[cluster].devices[1] = sailfish_xgw_h::XgwH::with_defaults();
        let findings = region
            .controller
            .check_consistency(&region.plan, &region.hw);
        assert!(!findings.is_empty());
        assert!(findings
            .iter()
            .all(|f| f.cluster == cluster && f.device == 1));
        assert!(findings.iter().all(|f| f.actual == 0 && f.expected > 0));
    }

    #[test]
    fn offer_reports_sane_numbers() {
        let (topology, mut region) = small_region();
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 3_000,
                total_gbps: 2_000.0,
                ..WorkloadConfig::default()
            },
        );
        let report = region.offer(&flows, 1.0);
        assert!(report.offered_pps > 0.0);
        assert!(report.unrouted_pps == 0.0);
        // Devices lightly loaded at 2 Tbps over 8+ devices.
        assert!(report.peak_device_util() < 1.0);
        assert_eq!(report.overload_dropped_pps, 0.0);
        // Residual loss exists but is tiny.
        assert!(report.residual_dropped_pps > 0.0);
        assert!(report.loss_ratio() < 1e-8, "loss {}", report.loss_ratio());
        // Punt ratio is small (internet share is ~0.2‰ of flows).
        assert!(report.punt_ratio() < 0.05, "punt {}", report.punt_ratio());
        // Loop pipes both carry traffic.
        let (p1, p3) = report.loop_pipe_bps[0];
        assert!(p1 > 0.0 && p3 > 0.0);
    }

    #[test]
    fn residual_loss_model_shape() {
        assert!(hw_residual_loss_ratio(0.0) <= 1.001e-11);
        assert!(hw_residual_loss_ratio(1.0) >= 0.9e-10 * 0.3);
        assert!(hw_residual_loss_ratio(0.9) > hw_residual_loss_ratio(0.2));
        // Clamped outside [0,1].
        assert_eq!(hw_residual_loss_ratio(2.0), hw_residual_loss_ratio(1.0));
    }

    #[test]
    fn x86_region_balances_boxes_but_not_cores() {
        let topology = Topology::generate(TopologyConfig::default());
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 30_000,
                total_gbps: 500.0,
                heavy_hitters: 4,
                heavy_hitter_gbps: 25.0,
                zipf_s: 1.1,
                ..WorkloadConfig::default()
            },
        );
        let region = X86Region::new(15, 16, XgwX86Config::default()).unwrap();
        let report = region.offer(&flows, 1.0);
        // Box-level balance (Fig 6): every node within 2x of the mean —
        // a 30k-flow sample is far smaller than production, so the band
        // is loose, but no box is idle and none is catastrophic.
        let means = report.node_mean_utilization();
        let avg: f64 = means.iter().sum::<f64>() / means.len() as f64;
        for m in &means {
            assert!(*m < 2.5 * avg && *m > 0.15 * avg, "node {m} vs avg {avg}");
        }
        // Core-level imbalance (Fig 4): the hottest core is *overloaded*
        // (a 25 Gbps flow exceeds one core's capacity several-fold) even
        // though the average core has ample headroom.
        let hottest = report
            .node_reports
            .iter()
            .map(|r| r.hottest_core().1)
            .fold(0.0, f64::max);
        assert!(avg < 1.0, "boxes must have headroom on average: {avg}");
        assert!(hottest > 1.5, "hottest core overloaded: {hottest}");
        assert!(hottest > 2.5 * avg, "hottest {hottest} avg {avg}");
        // ...and that is exactly what produces region-level loss (Fig 5).
        assert!(report.loss_ratio() > 0.0);
    }
}
