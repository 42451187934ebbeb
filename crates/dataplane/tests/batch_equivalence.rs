//! The batch pipeline against references that do not share its code.
//!
//! [`BatchExecutor`] is the only packet pipeline, so every check here
//! compares it with something independent of it, or with itself under a
//! different schedule:
//!
//! - a warm cache shifts the hit/miss split but never a decision;
//! - a warm cache never outlives its epoch: after a world change a warm
//!   executor reports exactly what a fresh one does;
//! - the decision digest and per-epoch digests are independent of the
//!   worker count;
//! - per-packet decisions match the differential oracle
//!   ([`differential_run`], built on [`Dataplane::decide_one`] and the
//!   reference software forwarder);
//! - hostile batches (structure-aware mutants mixed with valid traffic)
//!   fill the per-layer error lanes exactly as the owned parser
//!   (`GatewayPacket::parse_classified`) classifies each frame;
//! - a Dual-phase live move splits the group's flows across both owners
//!   and still agrees with `decide_one`.

use std::collections::BTreeMap;

use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::chaos::busiest_anchor;
use sailfish_dataplane::epoch::{LiveMove, MovePhase};
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::{
    differential_run, traffic, ChaosConfig, EpochState, RunReport, TableCounters, WorldView,
};
use sailfish_net::GatewayPacket;
use sailfish_sim::{Topology, TopologyConfig, WorkloadConfig};
use sailfish_util::check;
use sailfish_util::fuzz::{FieldSpec, FrameMutator};
use sailfish_util::rand::Rng;

fn workload(flows: usize, packets: usize, seed: u64) -> (Topology, Vec<Vec<u8>>, Vec<usize>) {
    let topology = Topology::generate(TopologyConfig::default());
    let flow_set = sailfish_sim::workload::generate_flows(
        &topology,
        &WorkloadConfig {
            flows,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flow_set);
    let sched = traffic::schedule(&flow_set[..frames.len()], packets, seed);
    (topology, frames, sched)
}

/// Counter diff as readable `name: a=.. b=..` lines (empty when equal).
fn counter_diff(a: &TableCounters, b: &TableCounters) -> Vec<String> {
    a.fields()
        .iter()
        .zip(b.fields().iter())
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, y)| format!("{}: {}  vs {}", x.0, x.1, y.1))
        .collect()
}

/// The sum of per-frame `decide_one` digests: what a run's decision
/// digest must equal when every frame is decided independently against
/// the published epoch (no rate limiting, a generous punt meter).
fn oracle_digest(dp: &Dataplane, topology: &Topology, seq: &[&[u8]]) -> u64 {
    let mut fallback = software_forwarder(topology);
    seq.iter()
        .enumerate()
        .filter_map(|(i, frame)| dp.decide_one(frame, &mut fallback, i as u64 * 1_000))
        .fold(0u64, |acc, d| acc.wrapping_add(d.digest()))
}

fn assert_digests_match(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(
        a.decision_digest, b.decision_digest,
        "{what}: decision digest"
    );
    assert_eq!(a.epoch_digests, b.epoch_digests, "{what}: epoch digests");
}

#[test]
fn warm_cache_shifts_hits_but_never_decisions() {
    let (topology, frames, sched) = workload(700, 25_000, 17);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut batch = BatchExecutor::new(&dp, 1);
    let mut fb = software_forwarder(&topology);
    let cold = batch.run(&dp, &seq, &mut fb);

    let mut fb_warm = software_forwarder(&topology);
    let warm = batch.run(&dp, &seq, &mut fb_warm);

    assert_digests_match(&cold, &warm, "warm");
    assert_eq!(cold.device_packets, warm.device_packets, "warm attribution");
    assert!(
        warm.counters.cache_hits > cold.counters.cache_hits,
        "warm run should hit more ({} vs {})",
        warm.counters.cache_hits,
        cold.counters.cache_hits
    );
    assert_eq!(warm.counters.cache_misses, 0, "warm run should never miss");

    // reset_caches restores the cold profile exactly, and a cold
    // `run_single` is that same cold profile.
    batch.reset_caches();
    let mut fb_cold2 = software_forwarder(&topology);
    let cold2 = batch.run(&dp, &seq, &mut fb_cold2);
    assert_eq!(cold.counters, cold2.counters, "reset_caches cold profile");
    assert_eq!(cold.decision_digest, cold2.decision_digest);
    let mut fb_single = software_forwarder(&topology);
    let single = dp.run_single(&seq, &mut fb_single);
    assert_eq!(cold.counters, single.counters, "run_single is a cold run");
    assert_eq!(cold.virtual_ns, single.virtual_ns);
}

/// A warm executor must not replay flow outcomes cached under an older
/// epoch: after each world change its report equals a fresh executor's
/// on the same frames, for every degradation a publish can bring.
#[test]
fn warm_cache_never_replays_a_stale_epoch() {
    let (topology, frames, sched) = workload(900, 40_000, 11);
    let config = DataplaneConfig::default();
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut wiped = WorldView::healthy();
    wiped.wiped_clusters.insert(0);
    let mut dead = WorldView::healthy();
    dead.dead_devices.insert((0, 0));
    let mut unassigned = WorldView::healthy();
    unassigned.unassigned_clusters.insert(1);
    let worlds = [
        ("wiped cluster 0", wiped),
        ("dead device (0,0)", dead),
        ("unassigned cluster 1", unassigned),
        ("healthy again", WorldView::healthy()),
    ];

    for workers in [1, config.workers] {
        let dp = Dataplane::build(&topology, config.clone());
        let mut warm = BatchExecutor::new(&dp, workers);
        let mut fb = software_forwarder(&topology);
        warm.run(&dp, &seq, &mut fb);
        for (name, world) in &worlds {
            let staged = EpochState::build_with_world(&topology, &config, dp.next_epoch(), world);
            dp.publish(staged);
            let mut fb_warm = software_forwarder(&topology);
            let got = warm.run(&dp, &seq, &mut fb_warm);
            let mut fb_fresh = software_forwarder(&topology);
            let want = BatchExecutor::new(&dp, workers).run(&dp, &seq, &mut fb_fresh);
            let what = format!("{workers} worker(s), {name}");
            assert_eq!(
                got.fallback_packets, want.fallback_packets,
                "{what}: fallback packets"
            );
            assert_eq!(
                got.device_packets, want.device_packets,
                "{what}: device attribution"
            );
            let diff = counter_diff(&got.counters, &want.counters);
            assert!(diff.is_empty(), "{what}: warm vs fresh counters: {diff:?}");
            assert_digests_match(&got, &want, &what);
        }
    }
}

#[test]
fn worker_counts_agree_on_digests() {
    let (topology, frames, sched) = workload(900, 40_000, 13);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut fb_single = software_forwarder(&topology);
    let single = dp.run_single(&seq, &mut fb_single);
    // The run must exercise real decision diversity or agreement is
    // vacuous.
    assert!(single.counters.hw_forwarded > 0, "no hardware forwards");
    assert!(single.fallback_packets > 0, "no punts exercised");
    assert!(single.counters.cache_hits > 0, "no cache hits exercised");

    for workers in [2, 3, dp.config().workers] {
        let mut fb = software_forwarder(&topology);
        let multi = BatchExecutor::new(&dp, workers).run(&dp, &seq, &mut fb);
        assert_eq!(multi.workers, workers);
        assert_digests_match(&single, &multi, &format!("{workers} workers"));
        assert_eq!(single.packets, multi.packets);
        assert_eq!(single.counters.parsed, multi.counters.parsed);
        assert_eq!(single.counters.punted(), multi.counters.punted());
        assert_eq!(
            single.device_packets.iter().sum::<u64>(),
            multi.device_packets.iter().sum::<u64>()
        );
    }
    let mut fb_multi = software_forwarder(&topology);
    let multi = dp.run_multi(&seq, &mut fb_multi);
    assert_eq!(multi.workers, dp.config().workers);
    assert_digests_match(&single, &multi, "run_multi");
}

#[test]
fn decisions_match_the_differential_oracle() {
    let (topology, frames, sched) = workload(900, 20_000, 23);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut fallback = software_forwarder(&topology);
    let mut reference = software_forwarder(&topology);
    let oracle = differential_run(&dp, &seq, &mut fallback, &mut reference);
    assert_eq!(oracle.packets, seq.len() as u64);
    assert_eq!(oracle.mismatches, 0, "{:?}", oracle.first_mismatch);

    let mut fb = software_forwarder(&topology);
    let report = dp.run_single(&seq, &mut fb);
    assert_eq!(report.counters.punt_rate_limited, 0);
    assert_eq!(
        report.decision_digest,
        oracle_digest(&dp, &topology, &seq),
        "run digest != sum of per-frame oracle decisions"
    );
}

/// The decision-point field map of the hostile-frame suite: mutations
/// aimed at every layer's validation branches.
fn v4_field_map() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new(12, 2),    // outer ethertype
        FieldSpec::length(14, 1), // outer version/IHL
        FieldSpec::length(16, 2), // outer total length
        FieldSpec::new(20, 2),    // outer flags/fragment
        FieldSpec::new(23, 1),    // outer protocol
        FieldSpec::new(24, 2),    // outer header checksum
        FieldSpec::new(36, 2),    // outer UDP dst port
        FieldSpec::length(38, 2), // outer UDP length
        FieldSpec::new(40, 2),    // outer UDP checksum
        FieldSpec::new(42, 1),    // VXLAN flags
        FieldSpec::new(46, 3),    // VNI
        FieldSpec::new(62, 2),    // inner ethertype
        FieldSpec::length(64, 1), // inner version/IHL
        FieldSpec::length(66, 2), // inner total length
        FieldSpec::new(70, 2),    // inner flags/fragment
        FieldSpec::new(73, 1),    // inner protocol
        FieldSpec::new(74, 2),    // inner header checksum
        FieldSpec::length(88, 2), // inner UDP length
    ]
}

#[test]
fn hostile_batches_keep_identical_error_lanes() {
    let (topology, frames, _) = workload(400, 1, 19);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let mutator = FrameMutator::new(v4_field_map());

    check::run("batch_hostile_lanes", 6, |rng| {
        // A fuzzed batch: valid flow frames interleaved with
        // structure-aware mutants (truncations, checksum/length lies,
        // fragment bits, bad ports — whatever the mutator lands on).
        let mut storage: Vec<Vec<u8>> = Vec::new();
        for _ in 0..rng.gen_range(500..2000usize) {
            let base = &frames[rng.gen_range(0..frames.len())];
            if rng.gen_bool(0.45) {
                let (mutant, _applied) = mutator.mutate(rng, base);
                storage.push(mutant);
            } else {
                storage.push(base.clone());
            }
        }
        let seq: Vec<&[u8]> = storage.iter().map(|f| f.as_slice()).collect();

        // The owned parser, frame by frame, is the classification
        // reference for every error lane.
        let mut want = TableCounters::default();
        for frame in &seq {
            match GatewayPacket::parse_classified(frame) {
                Ok(_) => want.parsed += 1,
                Err(e) => want.record_frame_error(e),
            }
        }
        assert!(want.parse_errors > 0, "no mutant tripped a parser branch");
        let lanes = |c: &TableCounters| -> Vec<(&'static str, u64)> {
            c.fields()
                .into_iter()
                .filter(|(name, _)| {
                    *name == "parsed"
                        || *name == "parse_errors"
                        || name.starts_with("frame_")
                        || name.starts_with("layer_")
                })
                .collect()
        };

        let mut fb = software_forwarder(&topology);
        let single = dp.run_single(&seq, &mut fb);
        assert_eq!(lanes(&single.counters), lanes(&want), "single worker");

        let mut fb_multi = software_forwarder(&topology);
        let multi = dp.run_multi(&seq, &mut fb_multi);
        assert_eq!(lanes(&multi.counters), lanes(&want), "multi worker");
        assert_digests_match(&single, &multi, "hostile multi");
        assert_eq!(
            single.decision_digest,
            oracle_digest(&dp, &topology, &seq),
            "hostile batch vs oracle"
        );
    });
}

/// A Dual-phase live move: the group's flows split across both owners
/// per flow hash, the split is counted per packet (cache hits included),
/// and every decision still agrees with `decide_one`, which mirrors the
/// same owner pick.
#[test]
fn dual_window_splits_flows_and_agrees_with_the_oracle() {
    let topology = Topology::generate(TopologyConfig::default());
    let config = DataplaneConfig::default();
    let chaos = ChaosConfig::default();
    let (anchor, from) = busiest_anchor(&topology, &chaos, config.clusters);
    let flows = sailfish_sim::workload::generate_flows(
        &topology,
        &WorkloadConfig {
            seed: chaos.traffic_seed,
            flows: chaos.flows,
            internet_share: 0.01,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let sched = traffic::schedule(&flows[..frames.len()], 30_000, 29);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let dp = Dataplane::build(&topology, config.clone());
    let world = WorldView {
        moves: BTreeMap::from([(
            anchor,
            LiveMove {
                from,
                to: (from + 1) % config.clusters,
                phase: MovePhase::Dual,
            },
        )]),
        ..WorldView::healthy()
    };
    dp.publish(EpochState::build_with_world(
        &topology,
        &config,
        dp.next_epoch(),
        &world,
    ));
    assert!(
        dp.pin().directory.dual_len() > 0,
        "no VNI under dual ownership"
    );

    let mut fb = software_forwarder(&topology);
    let single = dp.run_single(&seq, &mut fb);
    assert!(
        single.counters.dual_owner_packets > 0,
        "dual window steered nothing"
    );
    assert!(single.counters.cache_hits > single.counters.cache_misses);
    assert_eq!(single.counters.epoch_violations, 0);

    for workers in [2, config.workers] {
        let mut fb = software_forwarder(&topology);
        let multi = BatchExecutor::new(&dp, workers).run(&dp, &seq, &mut fb);
        assert_digests_match(&single, &multi, &format!("dual, {workers} workers"));
        assert_eq!(
            single.counters.dual_owner_packets, multi.counters.dual_owner_packets,
            "dual split depends on partitioning"
        );
    }

    // A warm executor replays hits for the split flows and still counts
    // every steered packet.
    let mut warm = BatchExecutor::new(&dp, 1);
    let mut fb_cold = software_forwarder(&topology);
    warm.run(&dp, &seq, &mut fb_cold);
    let mut fb_warm = software_forwarder(&topology);
    let hot = warm.run(&dp, &seq, &mut fb_warm);
    assert_eq!(hot.counters.cache_misses, 0);
    assert_eq!(
        hot.counters.dual_owner_packets,
        single.counters.dual_owner_packets
    );
    assert_eq!(hot.device_packets, single.device_packets);
    assert_digests_match(&single, &hot, "dual, warm");

    assert_eq!(
        single.decision_digest,
        oracle_digest(&dp, &topology, &seq),
        "dual window vs decide_one"
    );
    let mut fallback = software_forwarder(&topology);
    let mut reference = software_forwarder(&topology);
    let oracle = differential_run(&dp, &seq, &mut fallback, &mut reference);
    assert_eq!(oracle.mismatches, 0, "{:?}", oracle.first_mismatch);
}
