//! The four traffic mixes, their seeded inputs, and gateway bring-up.
//!
//! Why each workload exists is written up in `gwbench/README.md`. The
//! topology and the flow population are part of a workload's definition
//! and fixed; the seed draws the packet sequence from the population.
//! (Zipf-1.5 traffic is dominated by a dozen flows, so a re-seeded
//! population is a different traffic mix: between two seeds the punt
//! share of `punt_tier` moved from 30% to 43%.)

use sailfish_cluster::cluster::{HwCluster, SwCluster};
use sailfish_cluster::controller::{ClusterCapacity, Controller, SplitPlan};
use sailfish_cluster::lb::VniDirectory;
use sailfish_cluster::RegionConfig;
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{
    differential_run, traffic, BatchExecutor, Dataplane, DataplaneConfig, EpochState, TierConfig,
};
use sailfish_sim::conn::ConnSignal;
use sailfish_sim::workload::{generate_flows, FlowKind};
use sailfish_sim::{Flow, Topology, TopologyConfig, WorkloadConfig};
use sailfish_snat::{HybridConfig, HybridSnat};
use sailfish_xgw_x86::SoftwareForwarder;

use crate::control;
use crate::trace::{Tracer, ROOT};

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default topology, 4,000 Zipf-1.5 flows, warm cache: the bare
    /// fast path.
    HitZipf,
    /// Region-scale tables, 300,000 Zipf-0.3 flows against a 32k-entry
    /// cache: the table walk and cache churn.
    MissRegion,
    /// Default topology with a third of VM mappings off-chip, 20%
    /// Internet flows, the DPU tier and a sealed SNAT offload.
    PuntTier,
    /// Region-scale hit-heavy forwarding beside a thread publishing
    /// verified world changes.
    UpdateChurn,
}

impl Workload {
    /// Every workload the benchmark runs.
    pub const ALL: [Workload; 4] = [
        Workload::HitZipf,
        Workload::MissRegion,
        Workload::PuntTier,
        Workload::UpdateChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitZipf => "hit_zipf",
            Workload::MissRegion => "miss_region",
            Workload::PuntTier => "punt_tier",
            Workload::UpdateChurn => "update_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on region-scale tables.
    pub fn region_scale(self) -> bool {
        matches!(self, Workload::MissRegion | Workload::UpdateChurn)
    }

    /// Threads the control plane keeps busy while packets flow.
    pub fn control_threads(self) -> usize {
        usize::from(self == Workload::UpdateChurn)
    }

    fn topology_config(self) -> TopologyConfig {
        if self.region_scale() {
            TopologyConfig::region_scale()
        } else {
            TopologyConfig::default()
        }
    }

    fn flow_config(self) -> WorkloadConfig {
        let base = WorkloadConfig::default();
        match self {
            Workload::HitZipf | Workload::UpdateChurn => WorkloadConfig {
                flows: 4_000,
                ..base
            },
            Workload::MissRegion => WorkloadConfig {
                flows: 300_000,
                zipf_s: 0.3,
                heavy_hitters: 0,
                ..base
            },
            Workload::PuntTier => WorkloadConfig {
                flows: 4_000,
                internet_share: 0.2,
                ..base
            },
        }
    }

    /// The dataplane configuration the gateway runs with.
    pub fn dataplane_config(self) -> DataplaneConfig {
        match self {
            Workload::PuntTier => DataplaneConfig {
                hw_vm_stride: 3,
                tier: Some(TierConfig::default()),
                ..DataplaneConfig::default()
            },
            _ => DataplaneConfig::default(),
        }
    }

    /// Packets in the replayed sequence (cycled while measuring).
    pub fn packets(self) -> usize {
        match self {
            Workload::MissRegion => 1 << 19,
            _ => 1 << 20,
        }
    }

    /// Packets per round: the unit whose decision digest is checked
    /// against the reference, and one closed-loop executor call.
    /// Rounds are a few milliseconds of forwarding each, so a host stall
    /// moves few of them.
    pub fn round_len(self) -> usize {
        match self {
            Workload::HitZipf | Workload::UpdateChurn => 1 << 15,
            Workload::PuntTier => 1 << 14,
            Workload::MissRegion => 1 << 12,
        }
    }

    /// Rounds replayed, untimed, before any measurement so the flow
    /// cache reaches its steady state.
    pub fn warm_rounds(self) -> usize {
        match self {
            Workload::MissRegion => 48,
            _ => 2,
        }
    }

    /// Fixed absolute offered rate of the open-loop latency phase,
    /// packets per second (well below one core's capacity).
    pub fn open_rate_pps(self) -> f64 {
        match self {
            Workload::HitZipf => 0.5e6,
            Workload::MissRegion => 0.1e6,
            Workload::PuntTier => 0.3e6,
            Workload::UpdateChurn => 1.0e6,
        }
    }

    /// The fixed rate ladder of the SLO search: `base * 1.05^k` packets
    /// per second for `k` in `0..=rungs`.
    pub fn ladder(self) -> (f64, usize) {
        match self {
            Workload::HitZipf => (1.0e6, 60),
            Workload::MissRegion => (0.05e6, 60),
            Workload::PuntTier | Workload::UpdateChurn => (0.5e6, 60),
        }
    }
}

/// The seeded inputs of one workload: what the gateway is configured
/// with and the traffic it is offered.
#[derive(Debug)]
pub struct Inputs {
    /// Tenant topology (routes and VM mappings).
    pub topology: Topology,
    /// Generated flows, one wire frame each.
    pub flows: Vec<Flow>,
    /// One VXLAN frame per flow.
    pub frames: Vec<Vec<u8>>,
    /// Packet sequence: frame index per packet slot.
    pub schedule: Vec<usize>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let topology = Topology::generate(workload.topology_config());
        let mut flows = generate_flows(&topology, &workload.flow_config());
        let frames = traffic::frames_for_flows(&flows);
        flows.truncate(frames.len());
        let schedule = traffic::schedule(&flows, workload.packets(), seed ^ 0x5EED_F00D);
        Inputs {
            topology,
            flows,
            frames,
            schedule,
        }
    }

    /// The packet sequence as frame slices.
    pub fn sequence(&self) -> Vec<&[u8]> {
        self.schedule
            .iter()
            .map(|i| self.frames[*i].as_slice())
            .collect()
    }
}

/// A running gateway: the region's dataplane, its software tiers and
/// the control-plane state that installed it.
pub struct Gateway {
    /// The epoch-versioned hardware dataplane.
    pub dp: Dataplane,
    /// The XGW-x86 software forwarder that resolves punts.
    pub fallback: SoftwareForwarder,
    /// Batch executor with one pipeline per forwarding worker.
    pub exec_many: BatchExecutor,
    /// Single-pipeline batch executor.
    pub exec_one: BatchExecutor,
    /// The SNAT tier whose hot set is sealed into each epoch.
    pub snat: Option<HybridSnat>,
    /// World-change gate state.
    pub control: control::Control,
    /// The controller's split plan.
    pub plan: SplitPlan,
    /// Devices the controller installed.
    pub hw: Vec<HwCluster>,
    /// Software cluster the controller installed.
    pub sw: SwCluster,
    /// Load-balancer directory the controller installed.
    pub directory: VniDirectory,
}

/// Packets of the SNAT warm-up window: the hot set sealed into the
/// first epoch is what this prefix of the schedule made hot.
const SNAT_OBSERVE_PACKETS: usize = 1 << 16;

/// Brings a gateway up: split plan, verified install, dataplane build,
/// software forwarder, SNAT seal and the world-change gate's base
/// certificate. Every call into a layer gets a span.
pub fn bring_up(workload: Workload, inputs: &Inputs, workers: usize, tr: &mut Tracer) -> Gateway {
    let topology = &inputs.topology;
    let config = workload.dataplane_config();
    // One device per cluster and one software node: each further device
    // or node repeats the same verified push, so this is the install
    // path at the smallest fleet that runs all of it.
    let region = RegionConfig {
        devices_per_cluster: 1,
        sw_nodes: 1,
        ..RegionConfig::default()
    };

    let t = tr.now();
    let plan = Controller::plan_split(topology, ClusterCapacity::default(), config.clusters)
        .expect("the topology fits the region's clusters");
    tr.span("controller.plan_split", ROOT, t, 1);

    let t = tr.now();
    let mut hw: Vec<HwCluster> = (0..plan.clusters_needed())
        .map(|id| {
            HwCluster::new(
                id,
                region.devices_per_cluster,
                region.ecmp_max,
                region.alpm,
                region.punt_rate_bps as u64,
            )
            .expect("device count under the ECMP cap")
        })
        .collect();
    let mut sw = SwCluster::new(
        region.sw_nodes,
        region.ecmp_max,
        region.x86.clone(),
        region.snat.clone(),
    )
    .expect("node count under the ECMP cap");
    let mut directory = VniDirectory::new();
    Controller::new()
        .install(topology, &plan, &mut hw, &mut sw, &mut directory)
        .expect("the planned install verifies and commits");
    tr.span("controller.install", ROOT, t, 1);

    let t = tr.now();
    let dp = Dataplane::build(topology, config.clone());
    tr.span("epoch.build", ROOT, t, 1);

    let t = tr.now();
    let fallback = software_forwarder(topology);
    tr.span("x86.tables", ROOT, t, 1);

    let snat = (workload == Workload::PuntTier).then(|| {
        let t = tr.now();
        let mut hybrid = HybridSnat::new(HybridConfig::default());
        for (i, idx) in inputs
            .schedule
            .iter()
            .take(SNAT_OBSERVE_PACKETS)
            .enumerate()
        {
            let flow = &inputs.flows[*idx];
            if flow.kind == FlowKind::Internet {
                hybrid.outbound(flow.vni, flow.tuple, ConnSignal::Payload, i as u64 * 1_000);
            }
        }
        let epoch = dp.next_epoch();
        let sealed = EpochState::build(topology, &config, epoch).with_snat(hybrid.rebalance(epoch));
        dp.publish(sealed);
        tr.span("snat.seal", ROOT, t, 1);
        hybrid
    });

    let t = tr.now();
    let control = control::Control::new(topology, config.clusters);
    tr.span("verify.certify", ROOT, t, 1);

    let exec_many = BatchExecutor::new(&dp, workers);
    let exec_one = BatchExecutor::new(&dp, 1);
    Gateway {
        dp,
        fallback,
        exec_many,
        exec_one,
        snat,
        control,
        plan,
        hw,
        sw,
        directory,
    }
}

/// Per-round reference results from the scalar executor: the decision
/// digest and the number of punts of each round, every round replayed
/// from a cold cache.
pub fn reference_rounds(
    dp: &Dataplane,
    seq: &[&[u8]],
    round_len: usize,
    reference: &mut SoftwareForwarder,
) -> Vec<(u64, u64)> {
    seq.chunks(round_len)
        .map(|round| {
            let rep = dp.run_single(round, reference);
            (rep.decision_digest, rep.fallback_packets + rep.dpu_packets)
        })
        .collect()
}

/// Differential check of the executor against the software-forwarder
/// oracle over one frame of every distinct flow (up to `limit`).
/// Returns a description of the first disagreement, if any.
pub fn oracle_check(
    dp: &Dataplane,
    inputs: &Inputs,
    limit: usize,
    fallback: &mut SoftwareForwarder,
    reference: &mut SoftwareForwarder,
) -> Result<u64, String> {
    let frames: Vec<&[u8]> = inputs
        .frames
        .iter()
        .take(limit)
        .map(Vec::as_slice)
        .collect();
    let report = differential_run(dp, &frames, fallback, reference);
    match report.first_mismatch {
        None => Ok(report.agreements),
        Some(m) => Err(format!(
            "{} oracle mismatches, first: {m}",
            report.mismatches
        )),
    }
}
