//! The benchmark's inputs are a function of the seed alone: the same
//! seed yields byte-identical frames and schedule and the same decision
//! digests, and another seed yields another packet sequence.

use sailfish_dataplane::executor::software_forwarder;
use sailfish_gwbench::trace::Tracer;
use sailfish_gwbench::workload::{bring_up, reference_rounds, Inputs, Workload};

/// Packets of the sequence whose digests are compared (the scalar
/// reference is slow in a debug build).
const PREFIX: usize = 1 << 13;
const ROUND: usize = 1 << 11;

fn digests(workload: Workload, inputs: &Inputs) -> Vec<(u64, u64)> {
    let gw = bring_up(workload, inputs, 1, &mut Tracer::new(false));
    let seq = inputs.sequence();
    let mut reference = software_forwarder(&inputs.topology);
    reference_rounds(&gw.dp, &seq[..PREFIX], ROUND, &mut reference)
}

#[test]
fn same_seed_same_frames_and_digests() {
    for workload in [Workload::HitZipf, Workload::PuntTier] {
        let a = Inputs::generate(workload, 42);
        let b = Inputs::generate(workload, 42);
        assert_eq!(a.frames, b.frames, "{}: frames differ", workload.name());
        assert_eq!(
            a.schedule,
            b.schedule,
            "{}: schedule differs",
            workload.name()
        );
        assert_eq!(
            digests(workload, &a),
            digests(workload, &b),
            "{}: decision digests differ",
            workload.name()
        );
        let c = Inputs::generate(workload, 43);
        assert_ne!(a.schedule, c.schedule, "{}: seed ignored", workload.name());
    }
}
