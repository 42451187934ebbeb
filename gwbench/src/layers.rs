//! Per-layer timing for the traced run: each layer's public function is
//! called over the workload's own inputs, one span per chunk of calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sailfish_dataplane::cache::{CachedAction, FlowCache, FlowOutcome};
use sailfish_dataplane::{
    engine, rewrite, Dataplane, TableCounters, TierConfig, TierMap, WorldView,
};
use sailfish_net::rss::Toeplitz;
use sailfish_net::Vni;
use sailfish_net::{FrameView, GatewayPacket};
use sailfish_sim::conn::ConnSignal;
use sailfish_sim::workload::FlowKind;
use sailfish_snat::{HybridConfig, HybridSnat};
use sailfish_tables::digest::DigestLookup;
use sailfish_tables::types::{NcAddr, RouteTarget};
use sailfish_xgw_h::tables::MAX_PEER_HOPS;
use sailfish_xgw_h::HwDecision;
use sailfish_xgw_x86::SoftwareForwarder;

use crate::trace::{Tracer, ROOT};
use crate::workload::Inputs;

/// Calls per span for functions that take tens of nanoseconds.
const CHUNK: usize = 1024;
/// Distinct flows the table-level layers are timed over.
const MAX_FLOWS: usize = 50_000;
/// Timed `pin` calls.
const PINS: usize = 200_000;

/// Times `f` over `items` in chunks, one span per chunk.
fn chunked<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: u32,
    items: &[T],
    mut f: impl FnMut(&T),
) {
    for chunk in items.chunks(CHUNK) {
        let t = tr.now();
        for item in chunk {
            f(item);
        }
        tr.span(name, parent, t, chunk.len() as u64);
    }
}

/// Per-layer values measured outside the tracer's span totals.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name to value.
    pub values: BTreeMap<&'static str, f64>,
}

/// Runs every data-path layer over `sample` (a prefix of the workload's
/// packet sequence) and the workload's flows.
pub fn run(
    dp: &Dataplane,
    fallback: &mut SoftwareForwarder,
    inputs: &Inputs,
    sample: &[&[u8]],
    tr: &mut Tracer,
) -> Layers {
    let mut out = Layers::default();
    let parent = tr.open("layers", ROOT);

    chunked(tr, "net.view_parse", parent, sample, |f| {
        let _ = black_box(FrameView::parse(black_box(f)));
    });
    chunked(tr, "net.owned_parse", parent, sample, |f| {
        let _ = black_box(GatewayPacket::parse_classified(black_box(f)));
    });

    // Flow cache: the first pass over the sample warms it, the second is
    // timed; inserts are timed on both passes (misses only, as the
    // executor inserts).
    let config = dp.config();
    let mut cache = FlowCache::new((config.cache_shards * config.cache_shard_capacity).max(1));
    let keys: Vec<_> = sample
        .iter()
        .filter_map(|f| FrameView::parse(f).ok().map(|v| v.flow_key()))
        .collect();
    let outcome = FlowOutcome {
        action: CachedAction::DropAcl,
        slot: 0,
        digest: 0,
    };
    let mut misses = Vec::with_capacity(CHUNK);
    for pass in 0..2 {
        for chunk in keys.chunks(CHUNK) {
            misses.clear();
            let t = tr.now();
            for k in chunk {
                if cache.get(k).is_none() {
                    misses.push(*k);
                }
            }
            if pass == 1 {
                tr.span("cache.probe", parent, t, chunk.len() as u64);
            }
            if !misses.is_empty() {
                let t = tr.now();
                for k in &misses {
                    cache.insert(*k, outcome);
                }
                tr.span("cache.insert", parent, t, misses.len() as u64);
            }
        }
    }

    // Distinct flows of the sample, owned-parsed and classified untimed.
    let mut frames: Vec<&[u8]> = sample.to_vec();
    frames.sort_unstable_by_key(|f| f.as_ptr());
    frames.dedup_by_key(|f| f.as_ptr());
    frames.truncate(MAX_FLOWS);
    let packets: Vec<GatewayPacket> = frames
        .iter()
        .filter_map(|f| GatewayPacket::parse_classified(f).ok())
        .collect();
    let state = dp.pin();
    let homed: Vec<(usize, &GatewayPacket)> = packets
        .iter()
        .filter_map(|p| state.directory.cluster_for(p.vni).map(|c| (c, p)))
        .collect();
    let tables = |c: usize| &state.clusters[c].tables;

    chunked(tr, "tables.acl", parent, &homed, |(c, p)| {
        black_box(tables(*c).acl.evaluate(p.vni, &p.five_tuple()));
    });
    chunked(tr, "tables.route_lookup", parent, &homed, |(c, p)| {
        black_box(tables(*c).routes.lookup(p.vni, p.inner.dst_ip));
    });
    // VM lookups happen only where the route chain ends locally, under
    // the chain's final VNI.
    let local: Vec<(usize, Vni, core::net::IpAddr)> = homed
        .iter()
        .filter_map(|(c, p)| {
            let mut vni = p.vni;
            for _ in 0..=MAX_PEER_HOPS {
                match tables(*c).routes.lookup(vni, p.inner.dst_ip)? {
                    RouteTarget::Peer(next) => vni = next,
                    RouteTarget::Local => return Some((*c, vni, p.inner.dst_ip)),
                    _ => return None,
                }
            }
            None
        })
        .collect();
    let (mut main_hits, mut lookups) = (0u64, 0u64);
    chunked(tr, "tables.vm_lookup", parent, &local, |(c, vni, ip)| {
        let (nc, how) = tables(*c).vm_nc.lookup_traced(*vni, *ip);
        black_box(nc);
        lookups += 1;
        main_hits += u64::from(how == DigestLookup::HitMain);
    });
    out.values.insert(
        "tables.vm_main_ratio",
        main_hits as f64 / lookups.max(1) as f64,
    );

    let mut scratch = TableCounters::default();
    chunked(tr, "engine.walk", parent, &homed, |(c, p)| {
        black_box(engine::walk(tables(*c), p, &mut scratch));
    });

    // Classify (untimed) for the layers that serve only some packets.
    let mut to_nc: Vec<(&[u8], NcAddr, Vni)> = Vec::new();
    let mut punted: Vec<&GatewayPacket> = Vec::new();
    for (frame, p) in frames.iter().zip(&packets) {
        match state.directory.cluster_for(p.vni) {
            None => punted.push(p),
            Some(c) => match engine::walk(tables(c), p, &mut scratch) {
                HwDecision::ToNc { packet, nc } => to_nc.push((frame, nc, packet.vni)),
                HwDecision::PuntToX86 { .. } => punted.push(p),
                _ => {}
            },
        }
    }

    let mut arena: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    for chunk in to_nc.chunks(CHUNK) {
        arena.clear();
        arena.extend(chunk.iter().map(|(f, _, _)| f.to_vec()));
        let t = tr.now();
        for (buf, (_, nc, vni)) in arena.iter_mut().zip(chunk) {
            let _ = black_box(rewrite::apply(buf, *nc, *vni));
        }
        tr.span("rewrite.patch", parent, t, chunk.len() as u64);
    }

    // Placement and the software forwarder run on the punted flows; a
    // workload without punts times them over every flow instead.
    let served: Vec<&GatewayPacket> = if punted.is_empty() {
        packets.iter().collect()
    } else {
        punted
    };
    let default_map;
    let map: &TierMap = match state.tier.as_deref() {
        Some(m) => m,
        None => {
            default_map =
                TierMap::build(&TierConfig::default(), state.epoch, &WorldView::healthy());
            &default_map
        }
    };
    let hasher = Toeplitz::default();
    let keys: Vec<(u32, u32)> = served
        .iter()
        .map(|p| (p.vni.value(), hasher.hash_tuple(&p.five_tuple())))
        .collect();
    chunked(tr, "tier.place", parent, &keys, |(vni, hash)| {
        black_box(map.place(*vni, *hash));
    });
    let mut now_ns = 0u64;
    chunked(tr, "x86.process", parent, &served, |p| {
        now_ns += 1_000;
        black_box(fallback.process(p, now_ns));
    });
    drop(state);

    let mut internet: Vec<_> = inputs
        .flows
        .iter()
        .filter(|f| f.kind == FlowKind::Internet)
        .map(|f| (f.vni, f.tuple))
        .collect();
    if internet.is_empty() {
        internet = inputs.flows.iter().map(|f| (f.vni, f.tuple)).collect();
    }
    internet.truncate(4_096);
    let mut hybrid = HybridSnat::new(HybridConfig::default());
    for pass in 0..2u64 {
        let mut i = 0u64;
        chunked(tr, "snat.outbound", parent, &internet, |(vni, tuple)| {
            i += 1;
            black_box(hybrid.outbound(*vni, *tuple, ConnSignal::Payload, pass * 1_000_000 + i));
        });
    }

    let (p50, p99) = pin_percentiles(dp, tr, parent);
    out.values.insert("epoch.pin_ns_p50", p50);
    out.values.insert("epoch.pin_ns_p99", p99);
    tr.close(parent);
    out
}

/// Times `PINS` individual `Dataplane::pin` calls (each pinned epoch is
/// released straight away); returns their p50 and p99 in nanoseconds.
pub fn pin_percentiles(dp: &Dataplane, tr: &mut Tracer, parent: u32) -> (f64, f64) {
    let mut ns: Vec<u32> = Vec::with_capacity(PINS);
    let t = tr.now();
    for _ in 0..PINS {
        let c = Instant::now();
        let state = dp.pin();
        black_box(&state);
        drop(state);
        ns.push(c.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
    }
    tr.span("epoch.pin", parent, t, PINS as u64);
    ns.sort_unstable();
    (
        crate::stats::quantile_sorted(&ns, 0.5),
        crate::stats::quantile_sorted(&ns, 0.99),
    )
}
