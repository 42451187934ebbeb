//! World changes: a seeded script of device, cluster and VNI-move
//! events, each gated by the plan-time world verifier, built off to the
//! side and published into the live dataplane.

use std::collections::BTreeMap;
use std::time::Instant;

use sailfish_asic::verify::world::{
    self, MoveStage, TransitionPlan, WorldCertificate, WorldModel, WorldMove, WorldOptions,
    WorldReport,
};
use sailfish_cluster::worldcheck::DeviceLoadCapacity;
use sailfish_dataplane::epoch::{LiveMove, MovePhase};
use sailfish_dataplane::{Dataplane, EpochState, WorldView};
use sailfish_net::Vni;
use sailfish_sim::Topology;
use sailfish_snat::HybridSnat;

use crate::trace::{Tracer, ROOT};

/// The verifier's view of the region: one unit per peer-group anchor,
/// homed by the epoch builder's own rule (`anchor % clusters`).
pub struct Control {
    clusters: usize,
    anchors: Vec<(Vni, usize, usize)>,
    base: WorldModel,
    certificate: WorldCertificate,
}

/// One submitted world change.
#[derive(Debug, Clone)]
pub struct Update {
    /// What the change does.
    pub label: &'static str,
    /// The world the region should serve after it.
    pub world: WorldView,
    /// Make-before-break stages driven so far, for VNI-move phases;
    /// `None` gates the change with a full `certify` of its world.
    pub stages: Option<(Vni, usize, usize, Vec<MoveStage>)>,
}

impl Control {
    /// Lifts the topology into the anchor world and certifies it. Panics
    /// if the healthy region does not verify clean: nothing after that
    /// could be trusted.
    pub fn new(topology: &Topology, clusters: usize) -> Control {
        let anchors = anchors(topology);
        let base = model(clusters, &anchors, &WorldView::healthy());
        let (report, certificate) = certify(&base);
        assert!(
            report.is_clean(),
            "healthy region must verify: {}",
            report.error_detail()
        );
        Control {
            clusters,
            anchors,
            base,
            certificate,
        }
    }

    /// A seeded cycle of world changes: one peer group moves
    /// make-before-break to another cluster and is restored home, a
    /// device dies and comes back, and a cluster's tables are wiped and
    /// reinstalled. The move comes first so a prefix of the cycle
    /// exercises both verifier entry points.
    pub fn script(&self, seed: u64, devices_per_cluster: usize) -> Vec<Update> {
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n.max(1) as u64) as usize
        };
        let healthy = || Update {
            label: "restore",
            world: WorldView::healthy(),
            stages: None,
        };
        let mut dead = WorldView::healthy();
        dead.dead_devices
            .insert((next(self.clusters), next(devices_per_cluster)));
        let mut wiped = WorldView::healthy();
        wiped.wiped_clusters.insert(next(self.clusters));
        let (anchor, _, _) = self.anchors[next(self.anchors.len())];
        let from = anchor.value() as usize % self.clusters;
        let to = (from + 1 + next(self.clusters - 1)) % self.clusters;

        let mut script = Vec::new();
        let phases = [
            (MovePhase::Announce, MoveStage::Announce),
            (MovePhase::Dual, MoveStage::Dual),
            (MovePhase::Commit, MoveStage::Commit),
            (MovePhase::Drain, MoveStage::Drain),
        ];
        for (i, (phase, _)) in phases.iter().enumerate() {
            let mut world = WorldView::healthy();
            world.moves.insert(
                anchor,
                LiveMove {
                    from,
                    to,
                    phase: *phase,
                },
            );
            let stages = phases[..=i].iter().map(|(_, s)| *s).collect();
            script.push(Update {
                label: "vni_move",
                world,
                stages: Some((anchor, from, to, stages)),
            });
        }
        script.extend([
            healthy(),
            Update {
                label: "device_death",
                world: dead,
                stages: None,
            },
            healthy(),
            Update {
                label: "cluster_wipe",
                world: wiped,
                stages: None,
            },
            healthy(),
        ]);
        script
    }

    /// Verifies `update`: VNI-move phases through `verify_plan` against
    /// the base certificate (O(delta)), every other change through a
    /// full `certify` of the world it produces.
    fn verify(&self, update: &Update, tr: &mut Tracer) -> Result<(), String> {
        let t = tr.now();
        let report = match &update.stages {
            Some((anchor, from, to, stages)) => {
                let plan = TransitionPlan {
                    moves: vec![WorldMove {
                        units: vec![u64::from(anchor.value())],
                        from: *from,
                        to: *to,
                        stages: stages.clone(),
                    }],
                };
                let r = world::verify_plan(
                    &self.base,
                    &self.certificate,
                    &plan,
                    &DeviceLoadCapacity::default(),
                    &WorldOptions::default(),
                );
                tr.span("verify.plan", ROOT, t, 1);
                r
            }
            None => {
                let r = certify(&model(self.clusters, &self.anchors, &update.world)).0;
                tr.span("verify.certify", ROOT, t, 1);
                r
            }
        };
        if report.is_clean() {
            Ok(())
        } else {
            Err(format!("{}: {}", update.label, report.error_detail()))
        }
    }
}

/// The anchor world a [`WorldView`] produces: ownership follows live
/// moves; device deaths and table wipes leave ownership unchanged
/// (the software tier serves a wiped cluster's traffic).
fn model(clusters: usize, anchors: &[(Vni, usize, usize)], view: &WorldView) -> WorldModel {
    let mut m = WorldModel::new("gwbench", clusters);
    for (anchor, routes, vms) in anchors {
        let unit = u64::from(anchor.value());
        let home = anchor.value() as usize % clusters;
        match view.moves.get(anchor) {
            None => m.add_unit(unit, *routes, *vms, home),
            Some(mv) => {
                let (primary, other) = match mv.phase {
                    MovePhase::Announce | MovePhase::Dual => (mv.from, Some(mv.to)),
                    MovePhase::Commit => (mv.to, Some(mv.from)),
                    MovePhase::Drain => (mv.to, None),
                };
                m.add_unit(unit, *routes, *vms, primary);
                if let Some(o) = other {
                    m.add_holder(unit, o);
                }
            }
        }
    }
    m
}

/// Applies one world change to the live dataplane: verify, build the
/// epoch off to the side (re-sealing the SNAT hot set for it), publish,
/// and confirm the new epoch is the one serving. Returns the wall time
/// from submission to serving, in milliseconds.
pub fn apply(
    control: &Control,
    update: &Update,
    topology: &Topology,
    dp: &Dataplane,
    snat: Option<&mut HybridSnat>,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let started = Instant::now();
    control.verify(update, tr)?;
    let t = tr.now();
    let epoch = dp.next_epoch();
    let mut staged = EpochState::build_with_world(topology, dp.config(), epoch, &update.world);
    if let Some(hybrid) = snat {
        staged = staged.with_snat(hybrid.rebalance(epoch));
    }
    tr.span("epoch.build", ROOT, t, 1);
    let t = tr.now();
    let published = dp.publish(staged);
    tr.span("epoch.publish", ROOT, t, 1);
    let serving = dp.pin().epoch;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if serving != published {
        return Err(format!(
            "{}: published epoch {published} but epoch {serving} serves",
            update.label
        ));
    }
    Ok(ms)
}

/// The peer-group anchors of a topology with their `(routes, vms)`
/// weights, sorted by anchor VNI.
fn anchors(topology: &Topology) -> Vec<(Vni, usize, usize)> {
    let mut anchor_of = BTreeMap::new();
    for vpc in &topology.vpcs {
        let anchor = vpc.peer.map_or(vpc.vni, |p| vpc.vni.min(p));
        anchor_of.insert(vpc.vni, anchor);
    }
    let mut weight: BTreeMap<Vni, (usize, usize)> = BTreeMap::new();
    for (key, _) in &topology.routes {
        if let Some(a) = anchor_of.get(&key.vni) {
            weight.entry(*a).or_default().0 += 1;
        }
    }
    for vm in &topology.vms {
        if let Some(a) = anchor_of.get(&vm.vni) {
            weight.entry(*a).or_default().1 += 1;
        }
    }
    weight.into_iter().map(|(a, (r, v))| (a, r, v)).collect()
}

/// Certifies a world model against the production device layout.
fn certify(model: &WorldModel) -> (WorldReport, WorldCertificate) {
    world::certify(
        model,
        &DeviceLoadCapacity::default(),
        &WorldOptions::default(),
    )
}
