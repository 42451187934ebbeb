//! The counted table walk.
//!
//! [`walk`] is the folded program's decision logic from
//! `sailfish_xgw_h` (the same function `XgwH::classify` runs with a no-op
//! sink). Here it runs with [`TableCounters`] as its [`StageSink`], so
//! each single-step LPM lookup, each peer-VPC recirculation and each
//! VM-NC digest probe is counted, and [`walk_cost_ns`] turns those
//! counts into virtual time.

use sailfish_tables::digest::DigestLookup;
use sailfish_xgw_h::program::{PuntReason, StageSink};

pub use sailfish_xgw_h::walk;

use crate::counters::TableCounters;

/// Virtual per-stage costs in nanoseconds, used by the deterministic
/// executor to derive a reproducible Mpps figure. The constants are sized
/// from the relative stage weights of a Tofino-class pipeline model (parse
/// and rewrite dominated by header touches, x86 fallback ~two orders of
/// magnitude above a hardware stage) — they make deterministic runs
/// comparable, not absolute predictions.
pub mod cost {
    /// Parsing a frame into the packet model.
    pub const PARSE_NS: u64 = 25;
    /// ACL evaluation.
    pub const ACL_NS: u64 = 8;
    /// One single-step LPM lookup (incl. each peer recirculation).
    pub const ROUTE_LOOKUP_NS: u64 = 12;
    /// A VM-NC digest probe.
    pub const VM_LOOKUP_NS: u64 = 10;
    /// Extra cost when the conflict plane resolves the key.
    pub const CONFLICT_PROBE_NS: u64 = 6;
    /// In-place header rewrite and re-encapsulation.
    pub const REWRITE_NS: u64 = 15;
    /// A flow-cache hit (replaces the whole walk).
    pub const CACHE_HIT_NS: u64 = 18;
    /// Handing a punted packet to the x86 path.
    pub const PUNT_HANDOFF_NS: u64 = 60;
    /// The x86 software forwarder serving one packet.
    pub const X86_PROCESS_NS: u64 = 1600;
    /// Per-batch overhead in the multi-worker mode.
    pub const BATCH_OVERHEAD_NS: u64 = 120;
}

impl StageSink for TableCounters {
    fn acl_deny(&mut self) {
        self.acl_denied += 1;
    }

    fn route_lookup(&mut self, hit: bool) {
        self.route_lookups += 1;
        if hit {
            self.route_hits += 1;
        } else {
            self.route_misses += 1;
        }
    }

    fn peer_hop(&mut self) {
        self.peer_hops += 1;
    }

    fn routing_loop(&mut self) {
        self.loop_drops += 1;
    }

    fn vm_probe(&mut self, plane: DigestLookup) {
        match plane {
            DigestLookup::HitMain => self.vm_hit_main += 1,
            DigestLookup::HitConflict => self.vm_hit_conflict += 1,
            DigestLookup::Miss => self.vm_miss += 1,
        }
    }

    fn punt(&mut self, reason: PuntReason) {
        match reason {
            PuntReason::NoHwRoute => self.punt_no_route += 1,
            PuntReason::NoVmMapping => self.punt_no_vm += 1,
            PuntReason::SnatRequired => self.punt_snat += 1,
        }
    }
}

/// Virtual nanoseconds spent by the walk stages recorded between two
/// counter snapshots (`after - before` must be one packet's worth).
pub fn walk_cost_ns(before: &TableCounters, after: &TableCounters) -> u64 {
    let d = |a: u64, b: u64| a - b;
    let mut ns = cost::ACL_NS;
    ns += cost::ROUTE_LOOKUP_NS * d(after.route_lookups, before.route_lookups);
    let vm_probes = d(after.vm_hit_main, before.vm_hit_main)
        + d(after.vm_hit_conflict, before.vm_hit_conflict)
        + d(after.vm_miss, before.vm_miss);
    ns += cost::VM_LOOKUP_NS * vm_probes;
    ns += cost::CONFLICT_PROBE_NS * d(after.vm_hit_conflict, before.vm_hit_conflict);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::{IpPrefix, Vni};
    use sailfish_tables::types::{NcAddr, RouteTarget, VxlanRouteKey};
    use sailfish_xgw_h::program::HwDropReason;
    use sailfish_xgw_h::tables::MAX_PEER_HOPS;
    use sailfish_xgw_h::{HwDecision, XgwH};

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    #[test]
    fn walk_counts_peer_hops_and_loops() {
        let mut g = XgwH::with_defaults();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(1), prefix("10.0.0.0/8")),
                RouteTarget::Peer(vni(2)),
            )
            .unwrap();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(2), prefix("10.0.0.0/8")),
                RouteTarget::Peer(vni(1)),
            )
            .unwrap();
        let p = GatewayPacketBuilder::new(
            vni(1),
            "10.0.0.1".parse().unwrap(),
            "10.9.9.9".parse().unwrap(),
        )
        .build();
        let mut c = TableCounters::default();
        assert_eq!(
            walk(&g.tables, &p, &mut c),
            HwDecision::Drop(HwDropReason::RoutingLoop)
        );
        assert_eq!(c.loop_drops, 1);
        assert_eq!(c.route_lookups as usize, MAX_PEER_HOPS + 1);
        assert_eq!(c.peer_hops as usize, MAX_PEER_HOPS + 1);
    }

    #[test]
    fn walk_cost_scales_with_stages() {
        let mut g = XgwH::with_defaults();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(1), prefix("10.0.0.0/8")),
                RouteTarget::Local,
            )
            .unwrap();
        g.tables
            .add_vm(
                vni(1),
                "10.0.0.5".parse().unwrap(),
                NcAddr::new("10.200.0.5".parse().unwrap()),
            )
            .unwrap();
        let p = GatewayPacketBuilder::new(
            vni(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.5".parse().unwrap(),
        )
        .build();
        let before = TableCounters::default();
        let mut after = before;
        walk(&g.tables, &p, &mut after);
        let ns = walk_cost_ns(&before, &after);
        assert_eq!(
            ns,
            cost::ACL_NS + cost::ROUTE_LOOKUP_NS + cost::VM_LOOKUP_NS
        );
    }
}
