//! Stateful SNAT tier sweep: drives every layer the hybrid
//! connection-tracking tier touches and records the paper-vs-measured
//! claims behind it.
//!
//! 1. **Differential oracle** — the incremental tracker + hot-flow
//!    offload replays a seeded Zipf connection trace (TCP/UDP, FIN and
//!    idle closes, asymmetric return paths, a mid-trace connection
//!    storm, hairpin probes, periodic promotion/demotion epochs)
//!    against the naive full-state reference: zero mismatches, and the
//!    80/20 hot head serves the majority of stable translations from
//!    the offload.
//! 2. **Port-pool exhaustion ramp** — tenants open connections until
//!    the external port pool runs dry. Checked: the
//!    `PortPoolExhaustion` monitor alert fires *strictly before* the
//!    first dropped connection, the `new_bindings +
//!    port_alloc_failures == attempts` accounting identity holds, the
//!    pool is fully leased when drops begin, and draining every
//!    connection restores the pristine free pool byte for byte.
//! 3. **Executor offload** — a live dataplane run with a published
//!    [`sailfish_snat::SnatOffload`] epoch: the decision digest is
//!    byte-identical to the no-offload baseline, the punt path drains
//!    by exactly the hardware-served count, the `punt_snat`
//!    classification lane is placement-independent, and an executor
//!    warmed on the pre-offload epoch reproduces the cold offloaded
//!    report counter for counter (its cache never outlives the epoch).
//! 4. **Chaos** — the generated fault schedule now carries the
//!    `connection_storm` kind; the cluster chaos harness must absorb
//!    and recover it like every other fault.
//! 5. **SRAM budget** — the XGW-H exact-match SNAT table fits the
//!    calibrated device next to region-scale route/VMNC tables, and
//!    the verifier is not vacuous (an absurd table is rejected).
//!
//! Run with: `cargo run --release -p sailfish-bench --bin snat_sweep`
//! (add `--tiny` for the CI smoke scale). Output is fully
//! deterministic: two runs produce byte-identical
//! `experiments/snat.json`.

use sailfish_asic::config::TofinoConfig;
use sailfish_bench::record::ExperimentRecord;
use sailfish_bench::scale::calibrated_scenario;
use sailfish_cluster::chaos::{run_schedule, ChaosConfig};
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_cluster::monitor::{evaluate_snat_pool, WaterLevels};
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{traffic, Dataplane, DataplaneConfig, EpochState};
use sailfish_net::{FiveTuple, IpProtocol, Vni};
use sailfish_sim::conn::{
    connection_storm, generate_connection_events, ConnDirection, ConnSignal, ConnWorkloadConfig,
};
use sailfish_sim::faults::{FaultSchedule, FaultScheduleConfig};
use sailfish_sim::workload::{generate_flows, FlowKind, WorkloadConfig};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_snat::{
    ConnTracker, HybridConfig, HybridSnat, PoolConfig, ReferenceSnat, SnatVerdict, TrackerConfig,
};
use sailfish_xgw_h::layout::{verify_snat_offload, SNAT_EXACT_TABLE_ENTRIES};

/// Sweep scale: `--tiny` keeps the CI smoke fast, the default exercises
/// the full 100k-event oracle trace.
struct Scale {
    connections: usize,
    max_packets: u32,
    storm_connections: usize,
    exec_flows: usize,
    exec_packets: usize,
    /// Events between promotion/demotion epochs (rebalances).
    epoch_every: usize,
    /// Events between hairpin probes.
    hairpin_every: usize,
    /// The oracle claim is vacuous below this many compared events.
    event_floor: u64,
    /// Minimum offload-served translation share for the 80/20 claim.
    hw_share_floor: f64,
}

impl Scale {
    fn pick(tiny: bool) -> Self {
        if tiny {
            Scale {
                connections: 1_200,
                max_packets: 600,
                storm_connections: 300,
                exec_flows: 300,
                exec_packets: 6_000,
                epoch_every: 2_000,
                hairpin_every: 1_000,
                event_floor: 10_000,
                hw_share_floor: 0.10,
            }
        } else {
            Scale {
                connections: 6_000,
                max_packets: 4_000,
                storm_connections: 1_500,
                exec_flows: 600,
                exec_packets: 20_000,
                epoch_every: 10_000,
                hairpin_every: 5_000,
                event_floor: 100_000,
                hw_share_floor: 0.30,
            }
        }
    }
}

/// What one oracle replay measured.
struct OracleRun {
    events: u64,
    mismatches: u64,
    epochs: u64,
    promotions: u64,
    demotions: u64,
    hairpins: u64,
    hw_share: f64,
    counter_fingerprint: Vec<(&'static str, u64)>,
}

/// Replays the seeded connection trace through the hybrid tier and the
/// naive reference side by side, counting every disagreement.
fn run_oracle(scale: &Scale) -> OracleRun {
    let workload = ConnWorkloadConfig {
        seed: 20_260_808,
        connections: scale.connections,
        max_packets: scale.max_packets,
        ..ConnWorkloadConfig::default()
    };
    let mut events = generate_connection_events(&workload);
    events.extend(connection_storm(
        7,
        Vni::from_const(workload.base_vni),
        scale.storm_connections,
        workload.duration_ns / 2,
        workload.duration_ns / 10,
    ));
    events.sort_by_key(|e| e.at_ns);

    let tracker_config = TrackerConfig {
        tcp_idle_ns: 150_000_000,
        udp_idle_ns: 30_000_000,
        time_wait_ns: 10_000_000,
        ..TrackerConfig::default()
    };
    let mut hybrid = HybridSnat::new(HybridConfig {
        tracker: tracker_config,
        offload_capacity: 512,
        promote_packets: 4,
    });
    let mut reference = ReferenceSnat::new(tracker_config);

    let mut mismatches: u64 = 0;
    let mut processed: u64 = 0;
    let mut hairpins: u64 = 0;
    let mut epochs: u64 = 0;

    for (i, event) in events.iter().enumerate() {
        match event.direction {
            ConnDirection::Outbound => {
                let got = hybrid.outbound(event.tenant, event.tuple, event.signal, event.at_ns);
                let want = reference.outbound(event.tenant, event.tuple, event.signal, event.at_ns);
                if got != want {
                    mismatches += 1;
                }
            }
            ConnDirection::Inbound => {
                let binding = hybrid.tracker().binding_of(event.tenant, &event.tuple);
                if binding != reference.binding_of(event.tenant, &event.tuple) {
                    mismatches += 1;
                }
                if let Some(public) = binding {
                    let got = hybrid.inbound(
                        public,
                        event.tuple.dst_ip,
                        event.tuple.dst_port,
                        event.tuple.protocol,
                        event.signal,
                        event.at_ns,
                    );
                    let want = reference.inbound(
                        public,
                        event.tuple.dst_ip,
                        event.tuple.dst_port,
                        event.tuple.protocol,
                        event.signal,
                        event.at_ns,
                    );
                    if got != want {
                        mismatches += 1;
                    }
                }
            }
        }
        processed += 1;

        if i % 2_048 == 0 && hybrid.expire(event.at_ns) != reference.expire(event.at_ns) {
            mismatches += 1;
        }
        // Hairpin probe against a live binding: a VM addressing a
        // sibling's public IP must re-enter and resolve internally on
        // both implementations.
        if i % scale.hairpin_every == scale.hairpin_every / 2 {
            if let Some((_, _, _, binding)) = hybrid.tracker().connections().first().copied() {
                let probe = FiveTuple::new(
                    "10.250.0.1".parse().expect("probe source ip"),
                    core::net::IpAddr::V4(binding.ip),
                    IpProtocol::Tcp,
                    50_000 + (hairpins as u16 % 10_000),
                    binding.port,
                );
                let probe_tenant = Vni::from_const(4_242);
                let got = hybrid.outbound(probe_tenant, probe, ConnSignal::Syn, event.at_ns);
                let want = reference.outbound(probe_tenant, probe, ConnSignal::Syn, event.at_ns);
                if got != want || !matches!(got, SnatVerdict::Hairpin { .. }) {
                    mismatches += 1;
                }
                hairpins += 1;
            }
        }
        // Promotion/demotion epoch: seal the hot set, verify every
        // offloaded binding against the reference's view.
        if i % scale.epoch_every == scale.epoch_every / 2 {
            epochs += 1;
            let offload = hybrid.rebalance(epochs);
            for ((tenant, tuple), binding) in offload.iter() {
                if reference.binding_of(*tenant, tuple) != Some(*binding) {
                    mismatches += 1;
                }
            }
        }
    }

    let c = hybrid.tracker().counters();
    OracleRun {
        events: processed,
        mismatches,
        epochs,
        promotions: c.promotions,
        demotions: c.demotions,
        hairpins,
        hw_share: hybrid.hw_share(),
        counter_fingerprint: c.fields().to_vec(),
    }
}

/// Ramps connection opens against a deliberately small pool until it
/// exhausts, watching the monitor alert and the accounting identity.
struct RampRun {
    attempts: u64,
    new_bindings: u64,
    failures: u64,
    alert_at: Option<u64>,
    first_drop_at: Option<u64>,
    occupancy_at_drop: f64,
    drained_pristine: bool,
}

fn run_exhaustion_ramp() -> RampRun {
    let pool = PoolConfig {
        external_ips: 1,
        port_lo: 1_024,
        port_hi: 2_047, // 64 blocks of 16 ports → 1 024 connection slots
        block_size: 16,
        ..PoolConfig::default()
    };
    let pristine = ConnTracker::new(TrackerConfig {
        pool,
        ..TrackerConfig::default()
    })
    .pool()
    .snapshot_free();
    let mut tracker = ConnTracker::new(TrackerConfig {
        pool,
        ..TrackerConfig::default()
    });

    let levels = WaterLevels::default();
    let tenants = 4u32;
    let attempts = 1_200u64; // past capacity, so the ramp must exhaust
    let mut alert_at = None;
    let mut first_drop_at = None;
    let mut occupancy_at_drop = 0.0;

    for i in 0..attempts {
        let tenant = Vni::from_const(5_000 + (i as u32 % tenants));
        let tuple = FiveTuple::new(
            std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8)),
            std::net::IpAddr::V4(std::net::Ipv4Addr::new(93, 184, 216, 34)),
            IpProtocol::Udp,
            10_000 + (i % 40_000) as u16,
            443,
        );
        let verdict = tracker.outbound(tenant, tuple, ConnSignal::Payload, i * 1_000);
        if matches!(verdict, SnatVerdict::DropPortExhausted) && first_drop_at.is_none() {
            first_drop_at = Some(i);
            occupancy_at_drop = tracker.pool().occupancy();
        }
        if alert_at.is_none() {
            let top = tracker
                .pool()
                .blocks_by_tenant()
                .into_iter()
                .max_by_key(|(vni, blocks)| (*blocks, std::cmp::Reverse(*vni)))
                .map(|(vni, _)| vni.value())
                .unwrap_or(0);
            if evaluate_snat_pool(tracker.pool().occupancy(), top, levels).is_some() {
                alert_at = Some(i);
            }
        }
    }

    let c = *tracker.counters();
    // Drain: idle-age every UDP connection far past its horizon; the
    // allocator must hand back the pristine free pool.
    tracker.expire(u64::MAX);
    let drained_pristine = tracker.pool().snapshot_free() == pristine;

    RampRun {
        attempts,
        new_bindings: c.new_bindings,
        failures: c.port_alloc_failures,
        alert_at,
        first_drop_at,
        occupancy_at_drop,
        drained_pristine,
    }
}

/// Live-executor offload: baseline vs published-offload runs.
struct ExecRun {
    digest_equal: bool,
    punt_lane_equal: bool,
    hw_translations: u64,
    punt_drain_exact: bool,
    batch_matches: bool,
}

fn run_executor_offload(scale: &Scale) -> ExecRun {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: scale.exec_flows,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let sched = traffic::schedule(&flows[..frames.len()], scale.exec_packets, 23);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());
    let mut fb = software_forwarder(&topology);
    let baseline = dp.run_single(&seq, &mut fb);
    let mut warm = BatchExecutor::new(&dp, 1);
    let mut fb_warm = software_forwarder(&topology);
    warm.run(&dp, &seq, &mut fb_warm);

    // Promote every Internet flow through the real hybrid machinery
    // and seal the hot set for the next epoch.
    let mut hybrid = HybridSnat::new(HybridConfig {
        promote_packets: 1,
        ..HybridConfig::default()
    });
    let mut now_ns = 0u64;
    for flow in flows[..frames.len()]
        .iter()
        .filter(|f| matches!(f.kind, FlowKind::Internet))
    {
        now_ns += 1_000;
        hybrid.outbound(flow.vni, flow.tuple, ConnSignal::Payload, now_ns);
    }
    let epoch = dp.next_epoch();
    let offload = hybrid.rebalance(epoch);
    dp.publish(EpochState::build(&topology, &config, epoch).with_snat(offload));

    let mut fb_off = software_forwarder(&topology);
    let offloaded = dp.run_single(&seq, &mut fb_off);

    let mut fb_batch = software_forwarder(&topology);
    let batched = warm.run(&dp, &seq, &mut fb_batch);
    let batch_matches = batched.decision_digest == offloaded.decision_digest
        && batched.epoch_digests == offloaded.epoch_digests
        && batched.fallback_packets == offloaded.fallback_packets
        && offloaded
            .counters
            .fields()
            .iter()
            .zip(batched.counters.fields().iter())
            .all(|(a, b)| a.1 == b.1);

    ExecRun {
        digest_equal: offloaded.decision_digest == baseline.decision_digest,
        punt_lane_equal: offloaded.counters.punt_snat == baseline.counters.punt_snat
            && baseline.counters.punt_snat > 0,
        hw_translations: offloaded.counters.snat_translations,
        punt_drain_exact: offloaded.fallback_packets + offloaded.counters.snat_translations
            == baseline.fallback_packets
            && offloaded.counters.snat_translations > 0,
        batch_matches,
    }
}

/// Chaos schedule: the connection-storm fault kind must be generated,
/// injected and recovered like the other six.
struct ChaosRun {
    storm_present: bool,
    clean: bool,
    all_recovered: bool,
}

fn run_connection_storm_chaos() -> ChaosRun {
    let topology = Topology::generate(TopologyConfig::default());
    let mut region = Region::build(
        &topology,
        RegionConfig {
            devices_per_cluster: 3,
            with_backup: true,
            sw_nodes: 2,
            capacity: ClusterCapacity {
                max_routes: 600,
                max_vms: 3_000,
            },
            ..RegionConfig::default()
        },
    )
    .expect("calibrated region builds");
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 2_000,
            total_gbps: 1_000.0,
            ..WorkloadConfig::default()
        },
    );
    let schedule = FaultSchedule::generate(&FaultScheduleConfig {
        slots: 24,
        clusters: region.plan.clusters_needed(),
        devices_per_cluster: 3,
        fault_rate: 0.3,
        ..FaultScheduleConfig::default()
    });
    let storm_present = schedule.kinds_present().contains(&"connection_storm");
    let report = run_schedule(
        &mut region,
        &topology,
        &flows,
        &schedule,
        &ChaosConfig::default(),
    );
    ChaosRun {
        storm_present,
        clean: report.violations.is_empty(),
        all_recovered: report.recovered_count() == report.faults.len(),
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let scale = Scale::pick(tiny);
    let mut rec = ExperimentRecord::new("snat", "Stateful SNAT tier with hot-flow offload");

    // --- 1. differential oracle (run twice: agreement + determinism) --
    let first = run_oracle(&scale);
    let second = run_oracle(&scale);
    rec.compare(
        "hybrid vs naive reference (differential oracle)",
        "0 mismatches",
        format!(
            "{} mismatches over {} events",
            first.mismatches, first.events
        ),
        first.mismatches == 0 && first.events >= scale.event_floor,
    );
    rec.compare(
        "promotion/demotion epochs under live traffic",
        "hot set re-seals mid-stream",
        format!(
            "{} epochs, {} promotions, {} demotions",
            first.epochs, first.promotions, first.demotions
        ),
        first.epochs >= 4 && first.promotions > 0 && first.demotions > 0,
    );
    rec.compare(
        "hot-flow hit share (80/20 placement)",
        "top flows dominate translations",
        format!("{:.1}% served from offload", first.hw_share * 100.0),
        first.hw_share > scale.hw_share_floor,
    );
    rec.compare(
        "hairpin/reentry probes",
        "resolved internally on both paths",
        format!("{} probes agreed", first.hairpins),
        first.hairpins >= 4,
    );
    rec.compare(
        "trace replay determinism",
        "byte-identical counters",
        if first.counter_fingerprint == second.counter_fingerprint {
            "identical".to_string()
        } else {
            "DIVERGED".to_string()
        },
        first.counter_fingerprint == second.counter_fingerprint,
    );

    // --- 2. port-pool exhaustion ramp ---------------------------------
    let ramp = run_exhaustion_ramp();
    rec.compare(
        "alert precedes first dropped connection",
        "PortPoolExhaustion strictly first",
        format!(
            "alert at open #{}, first drop at open #{}",
            ramp.alert_at.map_or(-1, |v| v as i64),
            ramp.first_drop_at.map_or(-1, |v| v as i64)
        ),
        matches!((ramp.alert_at, ramp.first_drop_at), (Some(a), Some(d)) if a < d),
    );
    rec.compare(
        "binding accounting identity",
        "new_bindings + failures == attempts",
        format!(
            "{} + {} == {}",
            ramp.new_bindings, ramp.failures, ramp.attempts
        ),
        ramp.new_bindings + ramp.failures == ramp.attempts && ramp.failures > 0,
    );
    rec.compare(
        "pool fully leased when drops begin",
        "occupancy 1.0 at first drop",
        format!("{:.3}", ramp.occupancy_at_drop),
        (ramp.occupancy_at_drop - 1.0).abs() < 1e-12,
    );
    rec.compare(
        "drain restores pristine free pool",
        "byte-identical free list",
        if ramp.drained_pristine {
            "identical"
        } else {
            "DIVERGED"
        }
        .to_string(),
        ramp.drained_pristine,
    );

    // --- 3. live executor offload -------------------------------------
    let exec = run_executor_offload(&scale);
    rec.compare(
        "decision digest under offload epoch",
        "byte-identical to baseline",
        if exec.digest_equal {
            "identical"
        } else {
            "DIVERGED"
        }
        .to_string(),
        exec.digest_equal,
    );
    rec.compare(
        "punt path drained by offload",
        "fallback drop == hw-served count",
        format!("{} translations moved on-chip", exec.hw_translations),
        exec.punt_drain_exact,
    );
    rec.compare(
        "punt_snat stays a classification lane",
        "placement-independent",
        if exec.punt_lane_equal {
            "equal"
        } else {
            "DIVERGED"
        }
        .to_string(),
        exec.punt_lane_equal,
    );
    rec.compare(
        "batch pipeline under offload",
        "warm executor reproduces cold run",
        if exec.batch_matches {
            "field-for-field"
        } else {
            "DIVERGED"
        }
        .to_string(),
        exec.batch_matches,
    );

    // --- 4. connection-storm chaos ------------------------------------
    let chaos = run_connection_storm_chaos();
    rec.compare(
        "connection_storm fault kind in chaos sweep",
        "injected and recovered",
        format!(
            "present: {}, clean: {}, recovered: {}",
            chaos.storm_present, chaos.clean, chaos.all_recovered
        ),
        chaos.storm_present && chaos.clean && chaos.all_recovered,
    );

    // --- 5. XGW-H SRAM budget -----------------------------------------
    let scenario = calibrated_scenario();
    let cfg = TofinoConfig::tofino_64t();
    let fits = verify_snat_offload(
        &cfg,
        scenario.route_entries,
        scenario.vm_entries,
        SNAT_EXACT_TABLE_ENTRIES,
    )
    .map(|r| r.is_clean())
    .unwrap_or(false);
    rec.compare(
        "SNAT exact-match table on calibrated device",
        "fits beside region-scale tables",
        format!(
            "{} entries verify clean: {}",
            SNAT_EXACT_TABLE_ENTRIES, fits
        ),
        fits,
    );
    let absurd_rejected = verify_snat_offload(
        &cfg,
        scenario.route_entries,
        scenario.vm_entries,
        64_000_000,
    )
    .map(|r| !r.is_clean())
    .unwrap_or(true);
    rec.compare(
        "SRAM verifier rejects absurd SNAT table",
        "64M entries must not fit",
        format!("rejected: {absurd_rejected}"),
        absurd_rejected,
    );

    rec.finish();
    let all_hold = rec.comparisons.iter().all(|c| c.holds);
    assert!(all_hold, "snat_sweep: some claims diverged");
}
