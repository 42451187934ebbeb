//! Property-based tests of the software forwarder's SNAT stage: bindings
//! are a bijection, never collide across tenants that reuse one private
//! tuple, and the pool is conserved through arbitrary
//! allocate/refresh/expire interleavings. Runs on the in-tree seeded
//! harness (`sailfish_util::check`).

use std::collections::{HashMap, HashSet};

use sailfish_util::check;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::Rng;

use sailfish_net::packet::GatewayPacketBuilder;
use sailfish_net::{FiveTuple, GatewayPacket, IpPrefix, IpProtocol, Vni};
use sailfish_sim::conn::ConnSignal;
use sailfish_snat::{PoolConfig, PublicBinding, SnatVerdict, TrackerConfig};
use sailfish_tables::types::{RouteTarget, VxlanRouteKey};
use sailfish_xgw_x86::{Decision, DropReason, SoftwareForwarder, SoftwareTables};

const TENANTS: u32 = 4;

/// The low two bits pick the tenant, the rest the tuple, so every tuple
/// is reused by up to four VPCs.
fn flow(seed: u32) -> (Vni, FiveTuple) {
    let t = seed >> 2;
    let tuple = FiveTuple::new(
        std::net::Ipv4Addr::from(0x0a00_0000 | (t & 0xffff)).into(),
        std::net::Ipv4Addr::from(0x5db8_d800 | (t >> 16 & 0xff)).into(),
        if t & 1 == 0 {
            IpProtocol::Tcp
        } else {
            IpProtocol::Udp
        },
        (1024 + (t % 40_000)) as u16,
        443,
    );
    (Vni::from_const(100 + seed % TENANTS), tuple)
}

fn packet(vni: Vni, t: &FiveTuple) -> GatewayPacket {
    GatewayPacketBuilder::new(vni, t.src_ip, t.dst_ip)
        .transport(t.protocol, t.src_port, t.dst_port)
        .build()
}

fn forwarder(config: TrackerConfig) -> SoftwareForwarder {
    let mut tables = SoftwareTables::new(config);
    for v in 0..TENANTS {
        tables.routes.insert(
            VxlanRouteKey::new(
                Vni::from_const(100 + v),
                "0.0.0.0/0".parse::<IpPrefix>().unwrap(),
            ),
            RouteTarget::InternetSnat,
        );
    }
    SoftwareForwarder::new(tables)
}

#[derive(Debug, Clone)]
enum Op {
    Outbound(u32),
    Inbound(u32),
    Expire(u64),
}

fn arb_op(rng: &mut StdRng) -> Op {
    match check::one_of(rng, 3) {
        0 => Op::Outbound(rng.gen_range(0u32..800)),
        1 => Op::Inbound(rng.gen_range(0u32..800)),
        _ => Op::Expire(rng.gen_range(0u64..10_000)),
    }
}

#[test]
fn bindings_are_bijective_under_churn() {
    check::run("bindings_are_bijective_under_churn", 128, |rng| {
        let ops = check::vec_of(rng, 1..300, arb_op);
        // 2 addresses x 128 ports in 16-port blocks = 16 blocks.
        let mut f = forwarder(TrackerConfig {
            pool: PoolConfig {
                external_ips: 2,
                port_lo: 1024,
                port_hi: 1151,
                block_size: 16,
                ..PoolConfig::default()
            },
            tcp_idle_ns: 2_000,
            udp_idle_ns: 2_000,
            ..TrackerConfig::default()
        });
        let mut now = 0u64;
        let mut live: HashMap<(Vni, FiveTuple), PublicBinding> = HashMap::new();

        for op in ops {
            now += 1;
            match op {
                Op::Outbound(seed) => {
                    let (vni, t) = flow(seed);
                    match f.process(&packet(vni, &t), now) {
                        Decision::ToInternet { binding } => {
                            if let Some(prev) = live.get(&(vni, t)) {
                                // Refreshing an existing session keeps its
                                // binding.
                                assert_eq!(*prev, binding);
                            }
                            live.insert((vni, t), binding);
                        }
                        Decision::Drop(DropReason::SnatExhausted) => {
                            // Exhaustion only when every block is leased.
                            assert_eq!(f.tables.snat.pool().occupancy(), 1.0);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                Op::Inbound(seed) => {
                    let (vni, t) = flow(seed);
                    if let Some(b) = live.get(&(vni, t)) {
                        let back = f.tables.snat.inbound(
                            *b,
                            t.dst_ip,
                            t.dst_port,
                            t.protocol,
                            ConnSignal::Payload,
                            now,
                        );
                        assert_eq!(back, SnatVerdict::InboundMatched { internal: t });
                        // The binding still belongs to this tenant's session.
                        assert_eq!(f.tables.snat.binding_of(vni, &t), Some(*b));
                    }
                }
                Op::Expire(at) => {
                    now = now.max(at);
                    f.tables.snat.expire(now);
                    // Conservatively forget everything; the next outbound
                    // re-checks binding stability only for live entries.
                    live.clear();
                }
            }
            // Bijection: no two live sessions share a binding, whichever
            // tenants own them.
            let mut seen = HashSet::new();
            for b in live.values() {
                assert!(seen.insert(*b), "binding reused while live: {b}");
            }
            assert!(f.tables.snat.live_connections() >= live.len());
        }
    });
}

/// new_bindings - expired == live sessions, always; everything returns
/// to the pool once idle.
#[test]
fn pool_conservation() {
    check::run("pool_conservation", 128, |rng| {
        let seeds = check::vec_of(rng, 1..200, |r| r.gen_range(0u32..2_000));
        let idle = rng.gen_range(1u64..100);
        let mut f = forwarder(TrackerConfig {
            tcp_idle_ns: idle,
            udp_idle_ns: idle,
            ..TrackerConfig::default()
        });
        let mut now = 0;
        for s in seeds {
            now += 7;
            let (vni, t) = flow(s);
            let _ = f.process(&packet(vni, &t), now);
            if s % 13 == 0 {
                f.tables.snat.expire(now);
            }
            let c = f.tables.snat.counters();
            assert_eq!(
                c.new_bindings - c.expired,
                f.tables.snat.live_connections() as u64
            );
        }
        f.tables.snat.expire(now + idle);
        assert_eq!(
            f.tables.snat.live_connections(),
            0,
            "everything expires eventually"
        );
        assert_eq!(f.tables.snat.pool().occupancy(), 0.0);
    });
}
