//! The software forwarding path.
//!
//! XGW-x86 holds *all* tables — "XGW-x86 maintains a large number of
//! volatile tables ... It also stores large-sized stateful tables that
//! cannot be easily compressed into XGW-H" (§4.2) — so this forwarder
//! implements the complete decision logic: ACL, VXLAN routing with peer
//! resolution, VM-NC mapping, SNAT for Internet-bound flows (through the
//! [`crate::snat`] stage), and cross-region/IDC handoff.

use sailfish_net::{GatewayPacket, Vni};
use sailfish_snat::{ConnTracker, PublicBinding, TrackerConfig};
use sailfish_tables::acl::{AclAction, AclTable};
use sailfish_tables::types::{IdcId, NcAddr, RegionId, RouteTarget};
use sailfish_tables::vm_nc::VmNcTable;
use sailfish_tables::vxlan_route::VxlanRoutingTable;
use sailfish_tables::Error as TableError;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No VXLAN route for (VNI, inner destination).
    NoRoute,
    /// Peer-VPC chain exceeded the hop bound.
    RoutingLoop,
    /// The destination VM has no NC mapping.
    NoVmMapping,
    /// An ACL rule denied the flow.
    AclDeny,
    /// The SNAT port pool has no free block for a new session.
    SnatExhausted,
}

/// The forwarding decision for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Deliver to the NC hosting the destination VM: the outer destination
    /// IP is rewritten and the VNI set to the destination VPC (Fig 2).
    ToNc {
        /// The rewritten packet as it leaves the gateway.
        packet: GatewayPacket,
        /// The destination server.
        nc: NcAddr,
    },
    /// Hand off toward another region over the cross-region network.
    ToRegion {
        /// Destination region.
        region: RegionId,
        /// VNI context at the handoff.
        vni: Vni,
    },
    /// Hand off toward an enterprise IDC over the CEN.
    ToIdc {
        /// Destination IDC.
        idc: IdcId,
        /// VNI context at the handoff.
        vni: Vni,
    },
    /// SNAT applied; the decapsulated packet leaves toward the Internet
    /// with the inner source rewritten to the public binding (Fig 11).
    ToInternet {
        /// The allocated or refreshed public binding.
        binding: PublicBinding,
    },
    /// Dropped.
    Drop(DropReason),
}

/// The complete software table set.
#[derive(Debug)]
pub struct SoftwareTables {
    /// VXLAN routing table (full copy; x86 has DRAM to spare).
    pub routes: VxlanRoutingTable,
    /// VM-NC mapping table.
    pub vm_nc: VmNcTable,
    /// The stateful SNAT connection tracker (O(100M) sessions in
    /// production), keyed by `(VNI, inner 5-tuple)`.
    pub snat: ConnTracker,
    /// Per-tenant ACLs.
    pub acl: AclTable,
}

impl SoftwareTables {
    /// Empty tables with a default-permit ACL and the given SNAT pool.
    pub fn new(snat: TrackerConfig) -> Self {
        SoftwareTables {
            routes: VxlanRoutingTable::new(),
            vm_nc: VmNcTable::new(),
            snat: ConnTracker::new(snat),
            acl: AclTable::new(AclAction::Permit, None),
        }
    }
}

impl Default for SoftwareTables {
    fn default() -> Self {
        Self::new(TrackerConfig::default())
    }
}

/// The run-to-completion software forwarder.
#[derive(Debug, Default)]
pub struct SoftwareForwarder {
    /// The forwarding state.
    pub tables: SoftwareTables,
}

impl SoftwareForwarder {
    /// Creates a forwarder around existing tables.
    pub fn new(tables: SoftwareTables) -> Self {
        SoftwareForwarder { tables }
    }

    /// Processes one packet and returns the forwarding decision.
    pub fn process(&mut self, packet: &GatewayPacket, now_ns: u64) -> Decision {
        let tuple = packet.five_tuple();
        if self.tables.acl.evaluate(packet.vni, &tuple) == AclAction::Deny {
            return Decision::Drop(DropReason::AclDeny);
        }
        let resolution = match self.tables.routes.resolve(packet.vni, packet.inner.dst_ip) {
            Ok(r) => r,
            Err(TableError::RoutingLoop) => return Decision::Drop(DropReason::RoutingLoop),
            Err(_) => return Decision::Drop(DropReason::NoRoute),
        };
        match resolution.target {
            RouteTarget::Local => {
                match self
                    .tables
                    .vm_nc
                    .lookup(resolution.final_vni, packet.inner.dst_ip)
                {
                    Some(nc) => {
                        let mut out = *packet;
                        out.outer.dst_ip = nc.ip;
                        out.vni = resolution.final_vni;
                        Decision::ToNc { packet: out, nc }
                    }
                    None => Decision::Drop(DropReason::NoVmMapping),
                }
            }
            RouteTarget::CrossRegion(region) => Decision::ToRegion {
                region,
                vni: resolution.final_vni,
            },
            RouteTarget::Idc(idc) => Decision::ToIdc {
                idc,
                vni: resolution.final_vni,
            },
            RouteTarget::InternetSnat => {
                crate::snat::translate(&mut self.tables.snat, packet.vni, tuple, now_ns)
            }
            RouteTarget::Peer(_) => unreachable!("resolve() never returns Peer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::IpPrefix;
    use sailfish_snat::PoolConfig;
    use sailfish_tables::acl::AclRule;
    use sailfish_tables::types::VxlanRouteKey;

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// Builds the Fig 2 scenario plus an Internet route and an IDC route.
    fn forwarder() -> SoftwareForwarder {
        let mut tables = SoftwareTables::default();
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("192.168.10.0/24")),
            RouteTarget::Local,
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("192.168.30.0/24")),
            RouteTarget::Peer(vni(200)),
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(200), prefix("192.168.30.0/24")),
            RouteTarget::Local,
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("0.0.0.0/0")),
            RouteTarget::InternetSnat,
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("172.16.0.0/12")),
            RouteTarget::Idc(IdcId(3)),
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("192.169.0.0/16")),
            RouteTarget::CrossRegion(RegionId(2)),
        );
        tables
            .vm_nc
            .insert(
                vni(100),
                "192.168.10.3".parse().unwrap(),
                NcAddr::new("10.1.1.12".parse().unwrap()),
            )
            .unwrap();
        tables
            .vm_nc
            .insert(
                vni(200),
                "192.168.30.5".parse().unwrap(),
                NcAddr::new("10.1.1.15".parse().unwrap()),
            )
            .unwrap();
        SoftwareForwarder::new(tables)
    }

    fn packet(dst: &str) -> GatewayPacket {
        GatewayPacketBuilder::new(
            vni(100),
            "192.168.10.2".parse().unwrap(),
            dst.parse().unwrap(),
        )
        .build()
    }

    #[test]
    fn same_vpc_forwarding() {
        let mut f = forwarder();
        match f.process(&packet("192.168.10.3"), 0) {
            Decision::ToNc { packet, nc } => {
                assert_eq!(nc.ip, "10.1.1.12".parse::<core::net::IpAddr>().unwrap());
                assert_eq!(packet.outer.dst_ip, nc.ip);
                assert_eq!(packet.vni, vni(100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cross_vpc_forwarding_rewrites_vni() {
        let mut f = forwarder();
        match f.process(&packet("192.168.30.5"), 0) {
            Decision::ToNc { packet, nc } => {
                assert_eq!(nc.ip, "10.1.1.15".parse::<core::net::IpAddr>().unwrap());
                assert_eq!(packet.vni, vni(200), "VNI must become the peer VPC");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn internet_route_applies_snat() {
        let mut f = forwarder();
        match f.process(&packet("93.184.216.34"), 0) {
            Decision::ToInternet { binding } => {
                assert!(binding.port >= 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Same flow returns the same binding.
        let d1 = f.process(&packet("93.184.216.34"), 1);
        let d2 = f.process(&packet("93.184.216.34"), 2);
        assert_eq!(d1, d2);
        assert_eq!(f.tables.snat.live_connections(), 1);
    }

    #[test]
    fn idc_and_cross_region_handoff() {
        let mut f = forwarder();
        assert_eq!(
            f.process(&packet("172.16.5.5"), 0),
            Decision::ToIdc {
                idc: IdcId(3),
                vni: vni(100)
            }
        );
        assert_eq!(
            f.process(&packet("192.169.1.1"), 0),
            Decision::ToRegion {
                region: RegionId(2),
                vni: vni(100)
            }
        );
    }

    #[test]
    fn missing_vm_mapping_drops() {
        let mut f = forwarder();
        assert_eq!(
            f.process(&packet("192.168.10.99"), 0),
            Decision::Drop(DropReason::NoVmMapping)
        );
    }

    #[test]
    fn unknown_vni_drops() {
        let mut f = forwarder();
        let p = GatewayPacketBuilder::new(
            vni(999),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        )
        .build();
        assert_eq!(f.process(&p, 0), Decision::Drop(DropReason::NoRoute));
    }

    #[test]
    fn acl_deny_takes_precedence() {
        let mut f = forwarder();
        f.tables
            .acl
            .insert(AclRule {
                priority: 10,
                vni: Some(vni(100)),
                src: None,
                dst: Some(prefix("192.168.10.3/32")),
                protocol: None,
                src_ports: None,
                dst_ports: None,
                action: AclAction::Deny,
            })
            .unwrap();
        assert_eq!(
            f.process(&packet("192.168.10.3"), 0),
            Decision::Drop(DropReason::AclDeny)
        );
        // Other destinations unaffected.
        assert!(matches!(
            f.process(&packet("192.168.30.5"), 0),
            Decision::ToNc { .. }
        ));
    }

    #[test]
    fn routing_loop_drops() {
        let mut f = forwarder();
        f.tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("10.66.0.0/16")),
            RouteTarget::Peer(vni(300)),
        );
        f.tables.routes.insert(
            VxlanRouteKey::new(vni(300), prefix("10.66.0.0/16")),
            RouteTarget::Peer(vni(100)),
        );
        assert_eq!(
            f.process(&packet("10.66.1.1"), 0),
            Decision::Drop(DropReason::RoutingLoop)
        );
    }

    #[test]
    fn snat_exhaustion_drops() {
        let mut tables = SoftwareTables::new(TrackerConfig {
            pool: PoolConfig {
                external_ips: 1,
                port_lo: 1024,
                port_hi: 1024,
                block_size: 1,
                ..PoolConfig::default()
            },
            ..TrackerConfig::default()
        });
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("0.0.0.0/0")),
            RouteTarget::InternetSnat,
        );
        let mut f = SoftwareForwarder::new(tables);
        assert!(matches!(
            f.process(&packet("93.184.216.34"), 0),
            Decision::ToInternet { .. }
        ));
        // A second distinct flow exhausts the single-port pool.
        let p2 = GatewayPacketBuilder::new(
            vni(100),
            "192.168.10.9".parse().unwrap(),
            "93.184.216.34".parse().unwrap(),
        )
        .build();
        assert_eq!(f.process(&p2, 0), Decision::Drop(DropReason::SnatExhausted));
    }
}
