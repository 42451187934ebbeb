//! Gateway clusters.
//!
//! "Within a cluster, multiple XGW-H devices maintain the same table
//! entries, share the traffic load and backup for each other" (§4.3).
//! Installs fan out to every device; traffic spreads by flow-hash ECMP.

use sailfish_net::{FiveTuple, GatewayPacket, Vni};
use sailfish_snat::TrackerConfig;
use sailfish_tables::alpm::AlpmConfig;
use sailfish_tables::types::{NcAddr, RouteTarget, VxlanRouteKey};
use sailfish_tables::Result as TableResult;
use sailfish_xgw_h::{HwDecision, XgwH};
use sailfish_xgw_x86::{FluidEngine, SoftwareForwarder, SoftwareTables, XgwX86Config};

use crate::lb::{EcmpGroup, LbError};

/// A cluster of hardware gateways with identical tables.
#[derive(Debug)]
pub struct HwCluster {
    /// Cluster id within the region.
    pub id: usize,
    /// The member devices. Offline devices are removed from `ecmp` but
    /// kept here (their tables survive for fast re-admission).
    pub devices: Vec<XgwH>,
    /// Flow-hash spread across the devices.
    pub ecmp: EcmpGroup,
}

impl HwCluster {
    /// Builds a cluster of `devices` gateways.
    pub fn new(
        id: usize,
        devices: usize,
        ecmp_max: usize,
        alpm: AlpmConfig,
        punt_rate_bps: u64,
    ) -> Result<Self, LbError> {
        let mut ecmp = EcmpGroup::new(ecmp_max);
        let mut list = Vec::with_capacity(devices);
        for d in 0..devices {
            ecmp.add(d)?;
            list.push(XgwH::new(alpm, punt_rate_bps, punt_rate_bps / 80));
        }
        Ok(HwCluster {
            id,
            devices: list,
            ecmp,
        })
    }

    /// Installs a route on every device.
    pub fn install_route(&mut self, key: VxlanRouteKey, target: RouteTarget) -> TableResult<()> {
        for d in &mut self.devices {
            d.tables.routes.insert(key, target)?;
        }
        Ok(())
    }

    /// Removes a route from every device.
    pub fn remove_route(&mut self, key: &VxlanRouteKey) {
        for d in &mut self.devices {
            d.tables.routes.remove(key);
        }
    }

    /// Installs a VM mapping on every device.
    pub fn install_vm(&mut self, vni: Vni, ip: core::net::IpAddr, nc: NcAddr) -> TableResult<()> {
        for d in &mut self.devices {
            d.tables.add_vm(vni, ip, nc)?;
        }
        Ok(())
    }

    /// Removes a VM mapping from every device (two-phase install
    /// rollback).
    pub fn remove_vm(&mut self, vni: Vni, ip: core::net::IpAddr) {
        for d in &mut self.devices {
            d.tables.vm_nc.remove(vni, ip);
        }
    }

    /// Route entries held (devices are replicas; device 0 is
    /// representative).
    pub fn route_entries(&self) -> usize {
        self.devices.first().map_or(0, |d| d.tables.routes.len())
    }

    /// VM entries held.
    pub fn vm_entries(&self) -> usize {
        self.devices.first().map_or(0, |d| d.tables.vm_nc.len())
    }

    /// Route entries of one VNI on one device (consistency checking).
    pub fn route_entries_for(&self, device: usize, vni: Vni) -> usize {
        self.devices[device].tables.routes.len_for_vni(vni)
    }

    /// Number of online devices.
    pub fn online_devices(&self) -> usize {
        self.ecmp.len()
    }

    /// Takes a device offline (node-level disaster recovery: "the other
    /// gateways in the same cluster will share the traffic load", §6.1).
    pub fn take_device_offline(&mut self, device: usize) -> bool {
        self.ecmp.remove(device)
    }

    /// Brings a device back online.
    pub fn bring_device_online(&mut self, device: usize) -> Result<(), LbError> {
        if self.ecmp.members().contains(&device) {
            return Ok(());
        }
        self.ecmp.add(device)
    }

    /// Processes a packet on the device its flow hashes to.
    pub fn process(
        &mut self,
        packet: &GatewayPacket,
        now_ns: u64,
    ) -> Result<(usize, HwDecision), LbError> {
        let device = self.ecmp.pick(&packet.five_tuple())?;
        Ok((device, self.devices[device].process(packet, now_ns)))
    }

    /// The device a flow would hit.
    pub fn device_for(&self, tuple: &FiveTuple) -> Result<usize, LbError> {
        self.ecmp.pick(tuple)
    }
}

/// One software fallback node: a DPDK box plus its forwarding state.
#[derive(Debug)]
pub struct SwNode {
    /// Multi-core capacity model.
    pub engine: FluidEngine,
    /// The full software table set (incl. SNAT).
    pub forwarder: SoftwareForwarder,
}

/// The XGW-x86 fallback cluster: "four XGW-x86s for fallback traffic
/// processing" (§4.2).
#[derive(Debug)]
pub struct SwCluster {
    /// Member nodes.
    pub nodes: Vec<SwNode>,
    /// Flow spread across the nodes.
    pub ecmp: EcmpGroup,
}

impl SwCluster {
    /// Builds the fallback cluster.
    pub fn new(
        nodes: usize,
        ecmp_max: usize,
        node_config: XgwX86Config,
        snat: TrackerConfig,
    ) -> Result<Self, LbError> {
        let mut ecmp = EcmpGroup::new(ecmp_max);
        let mut list = Vec::with_capacity(nodes);
        for n in 0..nodes {
            ecmp.add(n)?;
            list.push(SwNode {
                engine: FluidEngine::new(node_config.clone()),
                forwarder: SoftwareForwarder::new(SoftwareTables::new(snat)),
            });
        }
        Ok(SwCluster { nodes: list, ecmp })
    }

    /// Installs a route on every node (software holds the full region
    /// table).
    pub fn install_route(&mut self, key: VxlanRouteKey, target: RouteTarget) {
        for n in &mut self.nodes {
            n.forwarder.tables.routes.insert(key, target);
        }
    }

    /// Installs a VM mapping on every node.
    pub fn install_vm(&mut self, vni: Vni, ip: core::net::IpAddr, nc: NcAddr) -> TableResult<()> {
        for n in &mut self.nodes {
            n.forwarder.tables.vm_nc.insert(vni, ip, nc)?;
        }
        Ok(())
    }

    /// Aggregate packet capacity of the cluster.
    pub fn total_pps(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.engine.config().total_pps())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::IpPrefix;

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    fn sample_cluster() -> HwCluster {
        let mut c = HwCluster::new(0, 4, 64, AlpmConfig::default(), 10_000_000_000).unwrap();
        c.install_route(
            VxlanRouteKey::new(vni(1), "192.168.0.0/16".parse::<IpPrefix>().unwrap()),
            RouteTarget::Local,
        )
        .unwrap();
        c.install_vm(
            vni(1),
            "192.168.0.5".parse().unwrap(),
            NcAddr::new("10.1.1.1".parse().unwrap()),
        )
        .unwrap();
        c
    }

    #[test]
    fn install_replicates_to_all_devices() {
        let c = sample_cluster();
        for d in &c.devices {
            assert_eq!(d.tables.routes.len(), 1);
            assert_eq!(d.tables.vm_nc.len(), 1);
        }
        assert_eq!(c.route_entries(), 1);
        assert_eq!(c.vm_entries(), 1);
    }

    #[test]
    fn any_device_forwards_identically() {
        let mut c = sample_cluster();
        let p = GatewayPacketBuilder::new(
            vni(1),
            "192.168.0.9".parse().unwrap(),
            "192.168.0.5".parse().unwrap(),
        )
        .build();
        let (device, decision) = c.process(&p, 0).unwrap();
        assert!(device < 4);
        assert!(matches!(decision, HwDecision::ToNc { .. }));
        // Offline the chosen device; another one serves the same flow the
        // same way.
        c.take_device_offline(device);
        let (device2, decision2) = c.process(&p, 0).unwrap();
        assert_ne!(device, device2);
        assert_eq!(format!("{decision:?}"), format!("{decision2:?}"));
        assert_eq!(c.online_devices(), 3);
        c.bring_device_online(device).unwrap();
        assert_eq!(c.online_devices(), 4);
    }

    #[test]
    fn remove_route_applies_everywhere() {
        let mut c = sample_cluster();
        c.remove_route(&VxlanRouteKey::new(
            vni(1),
            "192.168.0.0/16".parse::<IpPrefix>().unwrap(),
        ));
        assert_eq!(c.route_entries(), 0);
    }

    #[test]
    fn sw_cluster_holds_full_tables() {
        let mut sw =
            SwCluster::new(4, 64, XgwX86Config::default(), TrackerConfig::default()).unwrap();
        sw.install_route(
            VxlanRouteKey::new(vni(1), "0.0.0.0/0".parse::<IpPrefix>().unwrap()),
            RouteTarget::InternetSnat,
        );
        for n in &sw.nodes {
            assert_eq!(n.forwarder.tables.routes.len(), 1);
        }
        assert!((sw.total_pps() - 100e6).abs() < 1.0);
    }
}
