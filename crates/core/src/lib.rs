//! # sailfish
//!
//! A full reproduction of **"Sailfish: Accelerating Cloud-Scale
//! Multi-Tenant Multi-Service Gateways with Programmable Switches"**
//! (SIGCOMM 2021) as a Rust library.
//!
//! Sailfish is Alibaba Cloud's hardware/software gateway system: Tofino
//! based hardware gateways (XGW-H) absorb the vast majority of
//! multi-tenant VXLAN traffic, DPDK software gateways (XGW-x86) keep the
//! stateful/volatile long tail, and a three-pronged memory strategy fits
//! cloud-scale forwarding tables into O(10MB) of on-chip memory.
//!
//! This crate is the facade over the workspace:
//!
//! - [`sailfish_net`] (re-exported as [`net`]) — wire formats,
//! - [`sailfish_tables`] ([`tables`]) — LPM/TCAM/exact/ALPM/digest/SNAT,
//! - [`sailfish_asic`] ([`asic`]) — the Tofino resource model,
//! - [`sailfish_xgw_h`] ([`xgw_h`]) / [`sailfish_xgw_x86`] ([`xgw_x86`])
//!   — the two gateway implementations,
//! - [`sailfish_sim`] ([`sim`]) — workloads and metrics,
//! - [`sailfish_cluster`] ([`cluster`]) — regions, the controller,
//!   disaster recovery,
//! - [`compression`] — the §4.4 step-by-step table-compression engine
//!   that regenerates Fig 17 / Tables 2–3,
//! - [`builder`] — one-call construction of a simulated region.
//!
//! ## Quickstart
//!
//! ```
//! use sailfish::prelude::*;
//!
//! // Fig 2's two-VPC scenario on a hardware gateway.
//! let mut gw = XgwH::with_defaults();
//! let vpc_a = Vni::from_const(100);
//! let vpc_b = Vni::from_const(200);
//! gw.tables.routes.insert(
//!     VxlanRouteKey::new(vpc_a, "192.168.10.0/24".parse().unwrap()),
//!     RouteTarget::Local,
//! ).unwrap();
//! gw.tables.routes.insert(
//!     VxlanRouteKey::new(vpc_a, "192.168.30.0/24".parse().unwrap()),
//!     RouteTarget::Peer(vpc_b),
//! ).unwrap();
//! gw.tables.routes.insert(
//!     VxlanRouteKey::new(vpc_b, "192.168.30.0/24".parse().unwrap()),
//!     RouteTarget::Local,
//! ).unwrap();
//! gw.tables.add_vm(
//!     vpc_b,
//!     "192.168.30.5".parse().unwrap(),
//!     NcAddr::new("10.1.1.15".parse().unwrap()),
//! ).unwrap();
//!
//! let packet = GatewayPacketBuilder::new(
//!     vpc_a,
//!     "192.168.10.2".parse().unwrap(),
//!     "192.168.30.5".parse().unwrap(),
//! ).build();
//! match gw.process(&packet, 0) {
//!     HwDecision::ToNc { packet, .. } => {
//!         assert_eq!(packet.vni, vpc_b); // rewritten to the peer VPC
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]

pub use sailfish_asic as asic;
pub use sailfish_cluster as cluster;
pub use sailfish_net as net;
pub use sailfish_sim as sim;
pub use sailfish_tables as tables;
pub use sailfish_xgw_h as xgw_h;
pub use sailfish_xgw_x86 as xgw_x86;

pub mod builder;
pub mod compression;

/// The most commonly used types, for `use sailfish::prelude::*`.
pub mod prelude {
    pub use sailfish_asic::config::TofinoConfig;
    pub use sailfish_asic::perf::PerfEnvelope;
    pub use sailfish_cluster::controller::{ClusterCapacity, Controller};
    pub use sailfish_cluster::region::{Region, RegionConfig, X86Region};
    pub use sailfish_net::packet::GatewayPacketBuilder;
    pub use sailfish_net::{FiveTuple, GatewayPacket, IpPrefix, IpProtocol, MacAddr, Vni};
    pub use sailfish_sim::topology::{Topology, TopologyConfig};
    pub use sailfish_sim::workload::{festival_profile, generate_flows, WorkloadConfig};
    pub use sailfish_snat::TrackerConfig;
    pub use sailfish_tables::alpm::AlpmConfig;
    pub use sailfish_tables::types::{NcAddr, RouteTarget, VmKey, VxlanRouteKey};
    pub use sailfish_xgw_h::{HwDecision, XgwH};
    pub use sailfish_xgw_x86::{SoftwareForwarder, XgwX86Config};

    pub use crate::builder::SailfishBuilder;
    pub use crate::compression::{CompressionStep, MemoryScenario};
}
