//! SNAT offload moves work, never decisions.
//!
//! Publishing an epoch with a sealed [`sailfish_snat::SnatOffload`]
//! promotes hot SNAT flows from the punt path onto the hardware fast
//! path. The contract under test:
//!
//! - the run's decision digest is byte-identical with and without the
//!   offload (`ToInternet` digests the same wherever it was served),
//! - `punt_snat` stays a pure classification lane — identical across
//!   both runs — while `snat_translations` picks up exactly the flows
//!   the offload serves and `fallback_packets` drops by the same,
//! - an executor warmed before the offload publish reproduces the cold
//!   offloaded run field for field, and warm cache hits take the
//!   offload branch too; multi-worker runs agree on digest and lanes,
//! - an offload sealed for one epoch can never ship inside another.

use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{traffic, Dataplane, DataplaneConfig, EpochState};
use sailfish_sim::conn::ConnSignal;
use sailfish_sim::workload::{self, FlowKind, WorkloadConfig};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_snat::{HybridConfig, HybridSnat, SnatOffload};

fn setup() -> (Topology, Vec<Vec<u8>>, Vec<sailfish_sim::Flow>, Vec<usize>) {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = workload::generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 600,
            internet_share: 0.05, // force enough Internet (SNAT) flows
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let sched = traffic::schedule(&flows[..frames.len()], 20_000, 23);
    let flows = flows[..frames.len()].to_vec();
    (topology, frames, flows, sched)
}

/// Drives the real promotion machinery: every Internet flow opens a
/// connection in the hybrid tier, then `rebalance` seals the hot set
/// for `epoch`.
fn build_offload(flows: &[sailfish_sim::Flow], epoch: u64) -> SnatOffload {
    let mut hybrid = HybridSnat::new(HybridConfig {
        promote_packets: 1,
        ..HybridConfig::default()
    });
    let mut now_ns = 0u64;
    for flow in flows
        .iter()
        .filter(|f| matches!(f.kind, FlowKind::Internet))
    {
        now_ns += 1_000;
        hybrid.outbound(flow.vni, flow.tuple, ConnSignal::Payload, now_ns);
    }
    hybrid.rebalance(epoch)
}

#[test]
fn offload_preserves_digest_and_drains_the_punt_path() {
    let (topology, frames, flows, sched) = setup();
    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    // Baseline: no offload published, every SNAT flow punts.
    let mut fb = software_forwarder(&topology);
    let baseline = dp.run_single(&seq, &mut fb);
    assert!(
        baseline.counters.punt_snat > 0,
        "workload exercises no SNAT flows — the equality below is vacuous"
    );
    assert_eq!(baseline.counters.snat_translations, 0);
    let mut warm = BatchExecutor::new(&dp, 1);
    let mut fb_warm = software_forwarder(&topology);
    warm.run(&dp, &seq, &mut fb_warm);

    // Seal the hot set for the next epoch and publish it.
    let epoch = dp.next_epoch();
    let offload = build_offload(&flows, epoch);
    assert!(!offload.is_empty(), "no Internet flows promoted");
    dp.publish(EpochState::build(&topology, &config, epoch).with_snat(offload));

    let mut fb_off = software_forwarder(&topology);
    let offloaded = dp.run_single(&seq, &mut fb_off);

    // The load-bearing claim: offload changes who serves, never what
    // was decided.
    assert_eq!(
        offloaded.decision_digest, baseline.decision_digest,
        "offload changed decisions, not just placement"
    );
    assert_eq!(offloaded.packets, baseline.packets);

    // Classification is placement-independent; service is not.
    assert_eq!(
        offloaded.counters.punt_snat, baseline.counters.punt_snat,
        "punt_snat must stay a pure classification lane under offload"
    );
    assert!(offloaded.counters.snat_translations > 0);
    assert!(
        offloaded.fallback_packets < baseline.fallback_packets,
        "offload failed to drain the punt path"
    );
    // Every hardware-served SNAT packet is one the fallback no longer
    // sees, and it lands in the hw_forwarded lane.
    assert_eq!(
        offloaded.fallback_packets + offloaded.counters.snat_translations,
        baseline.fallback_packets
    );
    assert_eq!(
        offloaded.counters.hw_forwarded,
        baseline.counters.hw_forwarded + offloaded.counters.snat_translations
    );

    // The multi-worker path agrees on the digest and the lanes.
    let mut fb_multi = software_forwarder(&topology);
    let multi = dp.run_multi(&seq, &mut fb_multi);
    assert_eq!(multi.decision_digest, baseline.decision_digest);
    assert_eq!(
        multi.counters.snat_translations,
        offloaded.counters.snat_translations
    );

    // The executor warmed under the pre-offload epoch drops its cache
    // at the publish, so it reproduces the cold offloaded report field
    // for field.
    let mut fb_batch = software_forwarder(&topology);
    let batched = warm.run(&dp, &seq, &mut fb_batch);
    assert_eq!(batched.decision_digest, offloaded.decision_digest);
    assert_eq!(batched.epoch_digests, offloaded.epoch_digests);
    let diff: Vec<String> = offloaded
        .counters
        .fields()
        .iter()
        .zip(batched.counters.fields().iter())
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{}: cold={} warm={}", a.0, a.1, b.1))
        .collect();
    assert!(diff.is_empty(), "counters diverged cold vs warm: {diff:?}");
    assert_eq!(batched.fallback_packets, offloaded.fallback_packets);
    assert_eq!(batched.virtual_ns, offloaded.virtual_ns);

    // Once warm under the offload epoch, cache hits still take the
    // offload branch: same translations, same digest, no walk.
    let mut fb_hot = software_forwarder(&topology);
    let hot = warm.run(&dp, &seq, &mut fb_hot);
    assert_eq!(hot.counters.cache_misses, 0);
    assert_eq!(hot.decision_digest, offloaded.decision_digest);
    assert_eq!(
        hot.counters.snat_translations,
        offloaded.counters.snat_translations
    );
    assert_eq!(hot.fallback_packets, offloaded.fallback_packets);
}

#[test]
#[should_panic(expected = "cannot ship in epoch")]
fn stale_offload_cannot_ship_in_a_newer_epoch() {
    let topology = Topology::generate(TopologyConfig::default());
    let config = DataplaneConfig::default();
    let mut hybrid = HybridSnat::new(HybridConfig::default());
    let stale = hybrid.rebalance(1);
    let _ = EpochState::build(&topology, &config, 2).with_snat(stale);
}
