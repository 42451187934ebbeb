//! `FrameView::parse` is pinned to `GatewayPacket::parse_classified`.
//!
//! The batch hot path validates frames through the borrowed
//! [`sailfish_net::view::FrameView`] while punt resolution and the
//! differential oracle use the owned packet model; the dataplane's
//! oracle and error-lane tests only hold if the two parsers accept and
//! reject the *same* frames with the *same* typed error. This suite sweeps valid frames, every truncation prefix, and
//! structure-aware mutants, requiring bit-identical classification.

use sailfish_net::packet::{GatewayPacket, GatewayPacketBuilder};
use sailfish_net::view::{FlowKey, FrameView};
use sailfish_net::{IpProtocol, Vni};
use sailfish_util::fuzz::{FieldSpec, FrameMutator};
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::SeedableRng;

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let v4 = GatewayPacketBuilder::new(
        Vni::from_const(0x1234),
        "10.1.0.1".parse().unwrap(),
        "10.2.0.2".parse().unwrap(),
    )
    .transport(IpProtocol::Udp, 10_000, 443)
    .build()
    .emit()
    .expect("well-formed");
    let v4_tcp = GatewayPacketBuilder::new(
        Vni::from_const(7),
        "172.16.4.9".parse().unwrap(),
        "172.16.9.4".parse().unwrap(),
    )
    .transport(IpProtocol::Tcp, 50_000, 80)
    .build()
    .emit()
    .expect("well-formed");
    let v4_icmp = GatewayPacketBuilder::new(
        Vni::from_const(9),
        "10.9.0.1".parse().unwrap(),
        "10.9.0.2".parse().unwrap(),
    )
    .transport(IpProtocol::Icmp, 0, 0)
    .build()
    .emit()
    .expect("well-formed");
    let v6_outer = GatewayPacketBuilder::new(
        Vni::from_const(0x1234),
        "10.1.0.1".parse().unwrap(),
        "10.2.0.2".parse().unwrap(),
    )
    .outer_ips(
        "2001:db8:ff::1".parse().unwrap(),
        "2001:db8:ff::2".parse().unwrap(),
    )
    .build()
    .emit()
    .expect("well-formed");
    let v6_inner = GatewayPacketBuilder::new(
        Vni::from_const(0x1234),
        "2001:db8:a::1".parse().unwrap(),
        "2001:db8:b::2".parse().unwrap(),
    )
    .build()
    .emit()
    .expect("well-formed");
    vec![
        ("v4", v4),
        ("v4-tcp", v4_tcp),
        ("v4-icmp", v4_icmp),
        ("v6-outer", v6_outer),
        ("v6-inner", v6_inner),
    ]
}

/// Asserts the two parsers classify `frame` identically; on acceptance,
/// the extracted view fields must match the packet model.
fn assert_parity(frame: &[u8], what: &str) {
    match (
        GatewayPacket::parse_classified(frame),
        FrameView::parse(frame),
    ) {
        (Ok(p), Ok(v)) => {
            assert_eq!(v.vni, p.vni, "{what}: vni");
            assert_eq!(v.outer_udp_src, p.outer.udp_src_port, "{what}: udp src");
            assert_eq!(v.five_tuple(), p.five_tuple(), "{what}: tuple");
            assert_eq!(
                v.flow_key(),
                FlowKey::from_tuple(p.vni, &p.five_tuple()),
                "{what}: flow key"
            );
            assert_eq!(v.outer_v6, p.outer.src_ip.is_ipv6(), "{what}: outer fam");
            assert_eq!(v.inner_v6, p.inner.src_ip.is_ipv6(), "{what}: inner fam");
        }
        (Err(pe), Err(ve)) => {
            assert_eq!(pe, ve, "{what}: divergent FrameError");
        }
        (p, v) => panic!("{what}: acceptance diverged: packet={p:?} view={v:?}"),
    }
}

#[test]
fn valid_corpus_and_every_truncation_agree() {
    for (name, frame) in corpus() {
        assert!(
            FrameView::parse(&frame).is_ok(),
            "{name}: valid frame rejected"
        );
        assert_parity(&frame, name);
        for cut in 0..frame.len() {
            assert_parity(&frame[..cut], &format!("{name} cut at {cut}"));
        }
    }
}

/// The same decision-point field map the hostile-frame suite aims at.
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
fn fuzzed_mutants_classify_identically() {
    let bases: Vec<Vec<u8>> = corpus().into_iter().map(|(_, f)| f).collect();
    let mutator = FrameMutator::new(v4_field_map());
    for seed in [0xF00Du64, 0xBEE5, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..10_000u32 {
            let base = &bases[case as usize % bases.len()];
            let (mutant, applied) = mutator.mutate(&mut rng, base);
            match (
                GatewayPacket::parse_classified(&mutant),
                FrameView::parse(&mutant),
            ) {
                (Ok(p), Ok(v)) => {
                    assert_eq!(
                        v.flow_key(),
                        FlowKey::from_tuple(p.vni, &p.five_tuple()),
                        "flow key diverged for {applied:?}"
                    );
                }
                (Err(pe), Err(ve)) => {
                    assert_eq!(pe, ve, "classification diverged for {applied:?}");
                }
                (p, v) => {
                    panic!("acceptance diverged for {applied:?}: packet={p:?} view={v:?}")
                }
            }
        }
    }
}
