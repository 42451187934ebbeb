//! The SNAT stage of the software forwarder.
//!
//! "SNAT maps the 5-tuple to the public network IP and port. Hence, the
//! number of entries in the SNAT table is decided by the number of
//! sessions... The SNAT table is too large to fit in XGW-H... So we put
//! the SNAT table in XGW-x86" (§4.2, Fig 11).
//!
//! XGW-x86 runs the connection-tracking tier of `sailfish-snat`
//! ([`ConnTracker`]): sessions are keyed by `(VNI, inner 5-tuple)`, so two
//! VPCs that reuse one RFC 1918 tuple hold distinct public bindings and
//! each response maps back to its own tenant. Ports come from per-tenant
//! blocks of the external pool described by [`sailfish_snat::TrackerConfig`].

use sailfish_net::{FiveTuple, Vni};
use sailfish_sim::conn::ConnSignal;
use sailfish_snat::{ConnTracker, SnatVerdict};

use crate::forward::{Decision, DropReason};

/// Translates one Internet-bound packet of tenant `vni`, allocating or
/// refreshing its session's public binding.
pub(crate) fn translate(
    tracker: &mut ConnTracker,
    vni: Vni,
    tuple: FiveTuple,
    now_ns: u64,
) -> Decision {
    match tracker.outbound(vni, tuple, ConnSignal::Payload, now_ns) {
        SnatVerdict::Translated(binding) | SnatVerdict::Hairpin { binding, .. } => {
            Decision::ToInternet { binding }
        }
        SnatVerdict::DropPortExhausted => Decision::Drop(DropReason::SnatExhausted),
        // A hairpin to a pool port no session holds: nothing answers there.
        SnatVerdict::DropNoState | SnatVerdict::InboundMatched { .. } => {
            Decision::Drop(DropReason::NoRoute)
        }
    }
}

#[cfg(test)]
mod tests {
    use core::net::IpAddr;

    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::{GatewayPacket, IpPrefix, IpProtocol};
    use sailfish_snat::{PoolConfig, PublicBinding, TrackerConfig};
    use sailfish_tables::types::{RouteTarget, VxlanRouteKey};

    use super::*;
    use crate::forward::{SoftwareForwarder, SoftwareTables};

    const REMOTE: &str = "93.184.216.34";

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    /// A forwarder whose VNIs 100 and 200 both default-route to SNAT.
    fn forwarder(config: TrackerConfig) -> SoftwareForwarder {
        let mut tables = SoftwareTables::new(config);
        for v in [100, 200] {
            tables.routes.insert(
                VxlanRouteKey::new(vni(v), "0.0.0.0/0".parse::<IpPrefix>().unwrap()),
                RouteTarget::InternetSnat,
            );
        }
        SoftwareForwarder::new(tables)
    }

    /// A pool of `ips` external addresses with `ports` ports each, leased
    /// in blocks of `block` ports.
    fn pool(ips: u32, ports: u16, block: u16) -> TrackerConfig {
        TrackerConfig {
            pool: PoolConfig {
                external_ips: ips,
                port_lo: 1024,
                port_hi: 1024 + ports - 1,
                block_size: block,
                ..PoolConfig::default()
            },
            ..TrackerConfig::default()
        }
    }

    fn packet_to(v: u32, src_port: u16, dst: IpAddr, dst_port: u16) -> GatewayPacket {
        GatewayPacketBuilder::new(vni(v), "192.168.0.5".parse().unwrap(), dst)
            .transport(IpProtocol::Tcp, src_port, dst_port)
            .build()
    }

    fn packet(v: u32, src_port: u16) -> GatewayPacket {
        packet_to(v, src_port, REMOTE.parse().unwrap(), 443)
    }

    fn binding(decision: Decision) -> PublicBinding {
        match decision {
            Decision::ToInternet { binding } => binding,
            other => panic!("expected a translation, got {other:?}"),
        }
    }

    /// The response from the session's remote peer, as the tracker sees it.
    fn respond(f: &mut SoftwareForwarder, to: PublicBinding, from: &FiveTuple) -> SnatVerdict {
        f.tables.snat.inbound(
            to,
            from.dst_ip,
            from.dst_port,
            from.protocol,
            ConnSignal::Payload,
            1,
        )
    }

    #[test]
    fn outbound_allocates_and_is_stable() {
        let mut f = forwarder(TrackerConfig::default());
        let b1 = binding(f.process(&packet(100, 1000), 0));
        let b2 = binding(f.process(&packet(100, 1000), 10));
        assert_eq!(b1, b2, "same flow keeps its binding");
        let b3 = binding(f.process(&packet(100, 1001), 0));
        assert_ne!(b1, b3);
        assert_eq!(f.tables.snat.live_connections(), 2);
        assert_eq!(f.tables.snat.counters().new_bindings, 2);
    }

    #[test]
    fn inbound_reverses_outbound() {
        let mut f = forwarder(TrackerConfig::default());
        let out = packet(100, 1000);
        let b = binding(f.process(&out, 0));
        let t = out.five_tuple();
        assert_eq!(
            respond(&mut f, b, &t),
            SnatVerdict::InboundMatched { internal: t }
        );
        // A different remote peer must not match (symmetric NAT).
        let stranger = FiveTuple::new(
            t.src_ip,
            "8.8.8.8".parse().unwrap(),
            IpProtocol::Tcp,
            t.src_port,
            53,
        );
        assert_eq!(respond(&mut f, b, &stranger), SnatVerdict::DropNoState);
    }

    #[test]
    fn tenants_reusing_a_tuple_get_their_own_bindings() {
        let mut f = forwarder(TrackerConfig::default());
        let (a, b) = (packet(100, 40_000), packet(200, 40_000));
        let t = a.five_tuple();
        assert_eq!(t, b.five_tuple(), "both VPCs send the same private tuple");
        let ba = binding(f.process(&a, 0));
        let bb = binding(f.process(&b, 0));
        assert_ne!(ba, bb, "one public binding per tenant session");
        assert_eq!(f.tables.snat.live_connections(), 2);
        assert_eq!(f.tables.snat.binding_of(vni(100), &t), Some(ba));
        assert_eq!(f.tables.snat.binding_of(vni(200), &t), Some(bb));
        // Each response lands on its own tenant's session: the matched
        // session's packet count moves, the other tenant's does not.
        let packets = |f: &SoftwareForwarder| -> Vec<(Vni, u64)> {
            let conns = f.tables.snat.connections();
            conns.into_iter().map(|(v, _, n, _)| (v, n)).collect()
        };
        assert_eq!(
            respond(&mut f, ba, &t),
            SnatVerdict::InboundMatched { internal: t }
        );
        assert_eq!(packets(&f), [(vni(100), 2), (vni(200), 1)]);
        assert_eq!(
            respond(&mut f, bb, &t),
            SnatVerdict::InboundMatched { internal: t }
        );
        assert_eq!(packets(&f), [(vni(100), 2), (vni(200), 2)]);
    }

    #[test]
    fn port_pool_exhaustion() {
        let mut f = forwarder(pool(1, 4, 4));
        for i in 0..4 {
            binding(f.process(&packet(100, 2000 + i), 0));
        }
        assert_eq!(
            f.process(&packet(100, 3000), 0),
            Decision::Drop(DropReason::SnatExhausted)
        );
        // The only block is leased to VNI 100.
        assert_eq!(
            f.process(&packet(200, 3000), 0),
            Decision::Drop(DropReason::SnatExhausted)
        );
    }

    #[test]
    fn expiry_recycles_bindings() {
        let mut f = forwarder(TrackerConfig {
            tcp_idle_ns: 1_000,
            ..pool(1, 4, 4)
        });
        for i in 0..4 {
            binding(f.process(&packet(100, 2000 + i), 0));
        }
        // Refresh one session late so it survives the sweep.
        binding(f.process(&packet(100, 2003), 500));
        assert_eq!(f.tables.snat.expire(1_200), 3);
        assert_eq!(f.tables.snat.live_connections(), 1);
        assert_eq!(f.tables.snat.counters().expired, 3);
        // Freed ports are reusable.
        for i in 0..3 {
            binding(f.process(&packet(100, 4000 + i), 1_300));
        }
        assert_eq!(f.tables.snat.live_connections(), 4);
    }

    #[test]
    fn multiple_public_ips_extend_the_pool() {
        // One single-port block per address.
        let mut f = forwarder(pool(2, 1, 1));
        let b1 = binding(f.process(&packet(100, 1), 0));
        let b2 = binding(f.process(&packet(100, 2), 0));
        assert_ne!(b1.ip, b2.ip);
        assert_eq!(
            f.process(&packet(100, 3), 0),
            Decision::Drop(DropReason::SnatExhausted)
        );
    }

    #[test]
    fn hairpins_translate_only_toward_a_bound_port() {
        let mut f = forwarder(TrackerConfig::default());
        let server = binding(f.process(&packet(100, 1000), 0));
        let to_server = packet_to(200, 5000, IpAddr::V4(server.ip), server.port);
        let client = binding(f.process(&to_server, 1));
        assert_ne!(client, server, "the client gets its own binding");
        let scan = packet_to(200, 5001, IpAddr::V4(server.ip), server.port + 1);
        assert_eq!(f.process(&scan, 2), Decision::Drop(DropReason::NoRoute));
        assert_eq!(f.tables.snat.counters().hairpins, 1);
    }
}
