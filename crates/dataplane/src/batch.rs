//! The zero-allocation batch executor: the dataplane's packet pipeline.
//!
//! [`BatchExecutor`] walks frames through the logical pipeline — parse →
//! flow-cache exact-match → directory/ECMP → table walk → rewrite/punt —
//! as per-stage loops over contiguous lanes instead of one function call
//! per packet, in the style of capsule-like batch operators:
//!
//! 1. **Parse + probe lane**: every frame is validated through the
//!    borrowed [`FrameView`] (no owned packet build, no allocation) and
//!    its [`sailfish_net::FlowKey`] immediately probes the evicting
//!    S3-FIFO [`FlowCache`] while the parsed fields are still in
//!    registers. Hits record a [`FlowOutcome`] (action + ECMP slot +
//!    precomputed decision digest) in the status lane; hostile frames
//!    drop into the error lane as typed `FrameError`s, counted per kind
//!    *and* per layer, and never branch the later loops. Only probe
//!    misses park their view in the pending lane.
//! 2. **Miss loop** (empty once the cache is warm): each pending frame
//!    re-probes (an earlier miss in the same batch may have inserted the
//!    flow), consults the VNI directory *before* any owned parse, and
//!    only a genuine directory-resident miss builds the owned
//!    `GatewayPacket` for the full table walk, recording the outcome for
//!    the rest of the flow.
//! 3. **Apply loop** (original frame order, so the punt queue and the
//!    stateful fallback see frames in arrival order): bump attribution
//!    counters, charge the virtual clock, rewrite `ToNc` frames into the
//!    batch's slab arena — a v4 underlay takes the incremental-checksum
//!    patch (`patch_v4`, byte-identical to `rewrite::apply` on a
//!    validated frame), v6 takes the generic path — and queue punts
//!    through the breaker *by frame index*: the owned punt parse happens
//!    in [`BatchExecutor::finish`], off the hot path.
//!
//! The epoch is pinned **once per batch**, so every frame in a batch sees
//! exactly one epoch even while installs publish concurrently. A cached
//! outcome is a fact about the epoch it was walked under, so a worker
//! clears its cache when a batch pins a different epoch than the one the
//! cache was filled under.
//!
//! During a make-before-break move's Dual window the directory names a
//! secondary owner for the moving VNIs; flow-hash parity picks the owner
//! per flow, and `dual_owner_packets` counts every packet steered to the
//! secondary, cache hits included. Batches pinned to an epoch with no
//! Dual-window VNI skip that work.
//!
//! # Determinism contract
//!
//! On the same frame sequence and a cold cache, a run's decision digest,
//! epoch digests and fallback decisions are independent of the worker
//! count; with a flow population inside the cache's capacity, so are the
//! stage totals. With a *warm* cache the hit/miss split shifts (by
//! design) but the decision digest is identical — decisions are per-flow
//! facts, not cache artifacts. Under a *tight* punt meter, mid-batch
//! admission timestamps follow the stage-ordered clock, which the default
//! generous meter never exercises.
//!
//! # Allocation contract
//!
//! After construction plus one warm-up run, [`BatchExecutor::execute`]
//! performs **zero heap allocation**: lanes, arena, cache, punt queue
//! and partition buffers all retain capacity across runs. The wall-clock
//! bench enforces 0 allocations/packet in its steady-state loop with a
//! counting allocator.

use core::net::{IpAddr, Ipv4Addr};

use sailfish_cluster::lb::pick_owner;
use sailfish_net::checksum;
use sailfish_net::rss::Toeplitz;
use sailfish_net::view::FrameView;
use sailfish_net::wire::ethernet;
use sailfish_net::{Error, FrameError, FrameLayer, GatewayPacket, Vni};
use sailfish_tables::meter::Meter;
use sailfish_xgw_h::program::HwDropReason;
use sailfish_xgw_h::HwDecision;
use sailfish_xgw_x86::SoftwareForwarder;

use crate::breaker::{Admission, BreakerStats, PuntBreaker};
use crate::cache::{CachedAction, FlowCache, FlowOutcome};
use crate::counters::TableCounters;
use crate::engine::{self, cost};
use crate::epoch::EpochState;
use crate::executor::{worker_for, Dataplane, DataplaneConfig, RunReport};
use crate::oracle::{DropClass, PathDecision};
use crate::rewrite;

/// Builds the DPU middle-tier breaker for a worker, when the config
/// carries a tier — shared by construction and `begin_run` reset.
fn tier_breaker(config: &DataplaneConfig) -> Option<PuntBreaker> {
    config.tier.as_ref().map(|t| {
        PuntBreaker::named(
            "dpu",
            Meter::new(t.dpu_rate_bps, t.dpu_burst_bytes),
            t.dpu_breaker.clone(),
        )
    })
}

use std::collections::BTreeMap;

/// How many slots ahead the parse lane warms the next frames' header
/// cache lines (see the stage-1 loop).
const PARSE_LOOKAHEAD: usize = 2;

/// Frame-local facts the apply loop needs for an in-arena rewrite:
/// where the VXLAN header sits, where the rewrite region ends (the inner
/// Ethernet offset), and which underlay family delimits it.
#[derive(Debug, Clone, Copy, Default)]
struct RewriteCtx {
    vxlan: u16,
    inner_eth: u16,
    outer_v6: bool,
}

impl RewriteCtx {
    fn of(view: &FrameView) -> Self {
        RewriteCtx {
            vxlan: view.vxlan,
            inner_eth: view.inner_eth,
            outer_v6: view.outer_v6,
        }
    }
}

/// Where a frame stands after the per-batch stage loops.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// Rejected by the parse lane (already counted); skipped by every
    /// later loop.
    Error,
    /// Flow-cache hit: replay the recorded outcome.
    Hit(FlowOutcome, RewriteCtx),
    /// Probation: a probe miss awaiting the miss loop.
    Pending,
    /// Miss resolved by the full walk this batch.
    Walked(FlowOutcome, RewriteCtx),
    /// The VNI directory has no cluster: default-route to software.
    DirectoryMiss,
    /// A SNAT punt served on-chip by a promoted exact-match entry in
    /// the pinned epoch's offload snapshot: no handoff, no breaker, no
    /// fallback. `from_cache` keeps the hit/miss counter split.
    SnatOffloaded {
        /// ECMP device slot for attribution (`FlowOutcome::NO_SLOT` if
        /// the cluster had no live device).
        slot: u32,
        /// Whether the flow was resolved by the probe lane.
        from_cache: bool,
    },
}

/// Reusable per-worker state: cache, lanes, arena, accounting.
struct BatchWorker {
    cache: FlowCache,
    counters: TableCounters,
    breaker: PuntBreaker,
    /// DPU middle-tier admission breaker; `None` without a configured
    /// tier (the historical two-rung ladder).
    dpu_breaker: Option<PuntBreaker>,
    owner_hash: Toeplitz,
    /// The epoch every resident cache entry was walked under.
    cache_epoch: u64,
    clock_ns: u64,
    digest: u64,
    /// `(epoch, digest)` accumulated batch-by-batch; a linear scan over
    /// the handful of live epochs avoids `BTreeMap` node allocation on
    /// the hot path.
    epoch_digests: Vec<(u64, u64)>,
    /// Global frame indices admitted for punt, in decision order, tagged
    /// with the serving tier — `Some((node, process_ns))` for a DPU
    /// spill, `None` for x86; the owned parse happens at resolution time
    /// in `finish`.
    punted: Vec<(u32, Option<(u16, u64)>)>,
    device_packets: Vec<u64>,
    /// Miss lane: `(position in batch, view)` for probe misses only —
    /// empty once the cache is warm.
    pending: Vec<(u32, FrameView)>,
    /// Status lane (per batch).
    slots: Vec<SlotState>,
    /// Slab arena receiving rewritten output frames, recycled per batch.
    arena: Vec<u8>,
}

impl BatchWorker {
    fn new(dp: &Dataplane) -> Self {
        let config = dp.config();
        let batch = config.batch_size.max(1);
        BatchWorker {
            cache: FlowCache::new((config.cache_shards * config.cache_shard_capacity).max(1)),
            counters: TableCounters::default(),
            breaker: PuntBreaker::new(
                Meter::new(config.punt_rate_bps, config.punt_burst_bytes),
                config.breaker.clone(),
            ),
            dpu_breaker: tier_breaker(config),
            owner_hash: Toeplitz::default(),
            // An empty cache is valid under any epoch.
            cache_epoch: dp.pin().epoch,
            clock_ns: 0,
            digest: 0,
            epoch_digests: Vec::with_capacity(4),
            punted: Vec::new(),
            device_packets: vec![0; config.clusters * config.devices_per_cluster],
            pending: Vec::with_capacity(batch),
            slots: Vec::with_capacity(batch),
            arena: Vec::new(),
        }
    }

    /// Clears per-run accounting; keeps the cache and every allocation.
    fn begin_run(&mut self, dp: &Dataplane) {
        let config = dp.config();
        self.counters = TableCounters::default();
        self.breaker = PuntBreaker::new(
            Meter::new(config.punt_rate_bps, config.punt_burst_bytes),
            config.breaker.clone(),
        );
        self.dpu_breaker = tier_breaker(config);
        self.clock_ns = 0;
        self.digest = 0;
        self.epoch_digests.clear();
        self.punted.clear();
        self.device_packets.fill(0);
    }

    fn note_epoch_digest(&mut self, epoch: u64, digest: u64) {
        for slot in &mut self.epoch_digests {
            if slot.0 == epoch {
                slot.1 = slot.1.wrapping_add(digest);
                return;
            }
        }
        self.epoch_digests.push((epoch, digest));
    }
}

/// The batch-pipeline executor over a [`Dataplane`]'s epoch-versioned
/// tables. Owns all reusable worker state; see the module docs for the
/// stage structure and the determinism/allocation contracts.
pub struct BatchExecutor {
    workers: Vec<BatchWorker>,
    /// Frame indices per worker, rebuilt (allocation-free once warm)
    /// every run.
    partitions: Vec<Vec<u32>>,
    devices_per_cluster: usize,
    batch_size: usize,
}

impl BatchExecutor {
    /// Builds an executor with `workers` independent pipelines (1 for
    /// the deterministic golden mode). Each worker gets its own evicting
    /// flow cache of `cache_shards * cache_shard_capacity` flows.
    pub fn new(dp: &Dataplane, workers: usize) -> Self {
        let workers = workers.max(1);
        BatchExecutor {
            workers: (0..workers).map(|_| BatchWorker::new(dp)).collect(),
            partitions: (0..workers).map(|_| Vec::new()).collect(),
            devices_per_cluster: dp.config().devices_per_cluster,
            batch_size: dp.config().batch_size.max(1),
        }
    }

    /// Pipeline workers in this executor.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Drops all cached flows (keeps allocations) — for cold-start runs.
    pub fn reset_caches(&mut self) {
        for worker in &mut self.workers {
            worker.cache.clear();
        }
    }

    /// Sum of resident flows across worker caches.
    pub fn cached_flows(&self) -> usize {
        self.workers.iter().map(|w| w.cache.len()).sum()
    }

    /// Runs the batch pipeline over `frames`. This is the measured,
    /// allocation-gated hot path: after one warm-up run it does not
    /// touch the heap. Punt resolution and report assembly live in
    /// [`BatchExecutor::finish`].
    pub fn execute(&mut self, dp: &Dataplane, frames: &[&[u8]]) {
        for (worker, part) in self.workers.iter_mut().zip(&mut self.partitions) {
            worker.begin_run(dp);
            part.clear();
        }
        let worker_count = self.workers.len();
        if worker_count == 1 {
            if let (Some(worker), Some(part)) =
                (self.workers.first_mut(), self.partitions.first_mut())
            {
                part.extend(0..frames.len() as u32);
                run_worker(
                    dp,
                    worker,
                    frames,
                    part,
                    self.batch_size,
                    self.devices_per_cluster,
                );
            }
            return;
        }
        for (i, frame) in frames.iter().enumerate() {
            if let Some(part) = self.partitions.get_mut(worker_for(frame, worker_count)) {
                part.push(i as u32);
            }
        }
        let devices_per_cluster = self.devices_per_cluster;
        let batch_size = self.batch_size;
        std::thread::scope(|scope| {
            for (worker, part) in self.workers.iter_mut().zip(&self.partitions) {
                scope.spawn(move || {
                    run_worker(dp, worker, frames, part, batch_size, devices_per_cluster);
                });
            }
        });
    }

    /// Resolves queued punts through `fallback` (serially, after the
    /// slowest pipeline — the owned punt parse happens here, outside the
    /// measured hot path) and assembles the run report. Allocation is
    /// permitted here.
    pub fn finish(&mut self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        let mut counters = TableCounters::default();
        let mut digest = 0u64;
        let mut epoch_digests: BTreeMap<u64, u64> = BTreeMap::new();
        let mut pipeline_ns = 0u64;
        let mut device_packets =
            vec![0u64; self.workers.first().map_or(0, |w| w.device_packets.len())];
        let mut breaker = BreakerStats::default();
        let mut dpu_breaker = BreakerStats::default();
        let mut fallback_packets = 0u64;
        let mut dpu_packets = 0u64;
        for worker in &self.workers {
            counters.merge(&worker.counters);
            digest = digest.wrapping_add(worker.digest);
            for (epoch, d) in &worker.epoch_digests {
                let slot = epoch_digests.entry(*epoch).or_insert(0);
                *slot = slot.wrapping_add(*d);
            }
            pipeline_ns = pipeline_ns.max(worker.clock_ns);
            for (acc, d) in device_packets.iter_mut().zip(&worker.device_packets) {
                *acc += d;
            }
            let s = worker.breaker.stats();
            breaker.opened += s.opened;
            breaker.half_opened += s.half_opened;
            breaker.closed += s.closed;
            breaker.shed_open += s.shed_open;
            breaker.shed_meter += s.shed_meter;
            if let Some(db) = &worker.dpu_breaker {
                let s = db.stats();
                dpu_breaker.opened += s.opened;
                dpu_breaker.half_opened += s.half_opened;
                dpu_breaker.closed += s.closed;
                dpu_breaker.shed_open += s.shed_open;
                dpu_breaker.shed_meter += s.shed_meter;
            }
        }

        // Both software rungs resolve through the same forwarder — the
        // DPU spill just costs the owning node's latency instead of the
        // x86 cost — which is why tier placement can never change a
        // run's decision digest.
        let mut now_ns = pipeline_ns;
        for worker in &self.workers {
            for &(idx, tier_tag) in &worker.punted {
                // Guaranteed parseable: only view-validated frames punt.
                let Some(frame) = frames.get(idx as usize) else {
                    continue;
                };
                let Ok(packet) = GatewayPacket::parse_classified(frame) else {
                    continue;
                };
                let decision = match tier_tag {
                    Some((_node, process_ns)) => {
                        dpu_packets += 1;
                        now_ns += process_ns;
                        let d = PathDecision::from_software(&fallback.process(&packet, now_ns));
                        if matches!(d, PathDecision::Drop(_)) {
                            counters.dpu_dropped += 1;
                        } else {
                            counters.dpu_forwarded += 1;
                        }
                        d
                    }
                    None => {
                        fallback_packets += 1;
                        now_ns += cost::X86_PROCESS_NS;
                        let d = PathDecision::from_software(&fallback.process(&packet, now_ns));
                        if matches!(d, PathDecision::Drop(_)) {
                            counters.fallback_dropped += 1;
                        } else {
                            counters.fallback_forwarded += 1;
                        }
                        d
                    }
                };
                digest = digest.wrapping_add(decision.digest());
            }
        }

        RunReport {
            packets: frames.len() as u64,
            counters,
            decision_digest: digest,
            epoch_digests,
            virtual_ns: now_ns,
            fallback_packets,
            dpu_packets,
            workers: self.workers.len(),
            device_packets,
            breaker,
            dpu_breaker,
        }
    }

    /// Convenience: [`BatchExecutor::execute`] + [`BatchExecutor::finish`].
    pub fn run(
        &mut self,
        dp: &Dataplane,
        frames: &[&[u8]],
        fallback: &mut SoftwareForwarder,
    ) -> RunReport {
        self.execute(dp, frames);
        self.finish(frames, fallback)
    }
}

/// Precomputed digest for a decided (non-punt) action; punts resolve
/// their digest at the software tier.
fn decided_digest(action: &CachedAction) -> u64 {
    match *action {
        CachedAction::ToNc { nc, vni } => PathDecision::ToNc { nc, vni }.digest(),
        CachedAction::ToRegion { region, vni } => PathDecision::ToRegion { region, vni }.digest(),
        CachedAction::ToIdc { idc, vni } => PathDecision::ToIdc { idc, vni }.digest(),
        CachedAction::DropAcl => PathDecision::Drop(DropClass::Acl).digest(),
        CachedAction::DropLoop => PathDecision::Drop(DropClass::RoutingLoop).digest(),
        CachedAction::PuntSnat | CachedAction::PuntNoRoute | CachedAction::PuntNoVm => 0,
    }
}

fn action_of(decision: &HwDecision) -> CachedAction {
    match decision {
        HwDecision::ToNc { packet, nc } => CachedAction::ToNc {
            nc: *nc,
            vni: packet.vni,
        },
        HwDecision::ToRegion { region, vni } => CachedAction::ToRegion {
            region: *region,
            vni: *vni,
        },
        HwDecision::ToIdc { idc, vni } => CachedAction::ToIdc {
            idc: *idc,
            vni: *vni,
        },
        HwDecision::PuntToX86 { reason, .. } => match reason {
            sailfish_xgw_h::PuntReason::SnatRequired => CachedAction::PuntSnat,
            sailfish_xgw_h::PuntReason::NoHwRoute => CachedAction::PuntNoRoute,
            sailfish_xgw_h::PuntReason::NoVmMapping => CachedAction::PuntNoVm,
        },
        HwDecision::Drop(HwDropReason::AclDeny) => CachedAction::DropAcl,
        HwDecision::Drop(HwDropReason::RoutingLoop) => CachedAction::DropLoop,
        HwDecision::Drop(HwDropReason::PuntRateLimited) => {
            unreachable!("walk never rate-limits")
        }
    }
}

/// The cluster serving `view`'s flow, and whether it is the Dual
/// window's secondary owner: during a make-before-break move either
/// owner holds the VNI's tables and flow-hash parity picks one per flow,
/// so no flow black-holes mid-move. `dual_live` is false when the pinned
/// epoch has no Dual-window VNI, which skips the per-VNI lookup. `None`
/// when the directory has no hardware assignment for the VNI.
fn serving_cluster(
    state: &EpochState,
    owner_hash: &Toeplitz,
    view: &FrameView,
    dual_live: bool,
) -> Option<(usize, bool)> {
    let primary = state.directory.cluster_for(view.vni)?;
    let secondary = if dual_live {
        state.directory.dual_of(view.vni)
    } else {
        None
    };
    Some(match secondary {
        Some(secondary) => {
            let owner = pick_owner(owner_hash, &view.five_tuple(), primary, secondary);
            (owner, owner != primary)
        }
        None => (primary, false),
    })
}

/// Runs one worker's share of the frames, batch by batch.
fn run_worker(
    dp: &Dataplane,
    worker: &mut BatchWorker,
    frames: &[&[u8]],
    indices: &[u32],
    batch_size: usize,
    devices_per_cluster: usize,
) {
    for batch in indices.chunks(batch_size) {
        // One pin per batch: every frame sees a single epoch even while
        // installs publish concurrently.
        let state = dp.pin();
        if worker.cache_epoch != state.epoch {
            // Cached outcomes (action and ECMP slot) were walked against
            // another epoch's tables; replaying them would serve a world
            // that is no longer published.
            worker.cache.clear();
            worker.cache_epoch = state.epoch;
        }
        let dual_live = state.directory.dual_len() > 0;
        worker.clock_ns += cost::BATCH_OVERHEAD_NS;
        worker.slots.clear();
        worker.pending.clear();
        worker.arena.clear();

        // Stage 1 — fused parse + probe lane. Hostile frames drop to the
        // error lane as typed, per-layer-counted FrameErrors; hits are
        // decided while the parsed fields are still in registers; only
        // misses park a view in the pending lane.
        let mut warmed = 0u64;
        for (pos, &idx) in batch.iter().enumerate() {
            // Software lookahead: touch a frame a few slots ahead so its
            // header lines are in flight while this frame parses — the
            // parse chain is otherwise bound on the first random-access
            // touch of each frame buffer.
            if let Some(f) = batch
                .get(pos + PARSE_LOOKAHEAD)
                .and_then(|a| frames.get(*a as usize))
            {
                warmed = warmed
                    .wrapping_add(u64::from(f.first().copied().unwrap_or(0)))
                    .wrapping_add(u64::from(f.get(64).copied().unwrap_or(0)));
            }
            let Some(frame) = frames.get(idx as usize) else {
                worker.slots.push(SlotState::Error);
                continue;
            };
            match FrameView::parse(frame) {
                Ok(view) => {
                    worker.counters.parsed += 1;
                    if dual_live
                        && serving_cluster(&state, &worker.owner_hash, &view, true)
                            .is_some_and(|(_, steered)| steered)
                    {
                        worker.counters.dual_owner_packets += 1;
                    }
                    if let Some(outcome) = worker.cache.get(&view.flow_key()) {
                        // A promoted SNAT flow is served on-chip before
                        // any punt accounting.
                        if outcome.action == CachedAction::PuntSnat
                            && state
                                .snat
                                .as_deref()
                                .is_some_and(|o| o.lookup(view.vni, &view.five_tuple()).is_some())
                        {
                            worker.slots.push(SlotState::SnatOffloaded {
                                slot: outcome.slot,
                                from_cache: true,
                            });
                            continue;
                        }
                        worker
                            .slots
                            .push(SlotState::Hit(outcome, RewriteCtx::of(&view)));
                    } else {
                        worker.pending.push((pos as u32, view));
                        worker.slots.push(SlotState::Pending);
                    }
                }
                Err(e) => {
                    worker.counters.record_frame_error(e);
                    worker.slots.push(SlotState::Error);
                }
            }
        }
        std::hint::black_box(warmed);
        worker.clock_ns += cost::PARSE_NS * batch.len() as u64;

        // Stage 2 — miss loop: the only place the owned packet model and
        // the full table walk run. Empty once the cache is warm.
        let pending = std::mem::take(&mut worker.pending);
        for &(pos, ref view) in &pending {
            let Some(frame) = batch
                .get(pos as usize)
                .and_then(|idx| frames.get(*idx as usize))
            else {
                continue;
            };
            // Re-probe: an earlier miss in this same batch may have
            // inserted the flow already (the probe in stage 1 ran before
            // any insert), and packet-at-a-time processing would hit
            // here, so the hit/miss split does not depend on batching.
            if let Some(outcome) = worker.cache.get(&view.flow_key()) {
                if let Some(slot) = worker.slots.get_mut(pos as usize) {
                    *slot = if outcome.action == CachedAction::PuntSnat
                        && state
                            .snat
                            .as_deref()
                            .is_some_and(|o| o.lookup(view.vni, &view.five_tuple()).is_some())
                    {
                        SlotState::SnatOffloaded {
                            slot: outcome.slot,
                            from_cache: true,
                        }
                    } else {
                        SlotState::Hit(outcome, RewriteCtx::of(view))
                    };
                }
                continue;
            }
            // Directory first, straight from the view's VNI: a
            // directory miss never needs the owned packet model.
            let cluster = serving_cluster(&state, &worker.owner_hash, view, dual_live)
                .and_then(|(i, _)| state.clusters.get(i).map(|c| (i, c)));
            let Some((cluster_idx, cluster)) = cluster else {
                if let Some(slot) = worker.slots.get_mut(pos as usize) {
                    *slot = SlotState::DirectoryMiss;
                }
                continue;
            };
            if cluster.epoch_tag != state.epoch {
                worker.counters.epoch_violations += 1;
            }
            worker.counters.cache_misses += 1;
            let tuple = view.five_tuple();
            let device_slot = match cluster.ecmp.pick(&tuple) {
                Ok(device) => (cluster_idx * devices_per_cluster + device) as u32,
                Err(_) => FlowOutcome::NO_SLOT,
            };
            // The view parsed, so the owned parse cannot fail (pinned by
            // the view-parity property tests).
            let Ok(packet) = GatewayPacket::parse_classified(frame) else {
                continue;
            };
            let before = worker.counters;
            let decision = engine::walk(&cluster.tables, &packet, &mut worker.counters);
            worker.clock_ns += engine::walk_cost_ns(&before, &worker.counters);
            let action = action_of(&decision);
            let outcome = FlowOutcome {
                action,
                slot: device_slot,
                digest: decided_digest(&action),
            };
            worker.cache.insert(view.flow_key(), outcome);
            if let Some(slot) = worker.slots.get_mut(pos as usize) {
                // Offload check after the cache insert, so later hits in
                // this batch re-take the offload branch themselves.
                *slot = if action == CachedAction::PuntSnat
                    && state
                        .snat
                        .as_deref()
                        .is_some_and(|o| o.lookup(view.vni, &view.five_tuple()).is_some())
                {
                    SlotState::SnatOffloaded {
                        slot: device_slot,
                        from_cache: false,
                    }
                } else {
                    SlotState::Walked(outcome, RewriteCtx::of(view))
                };
            }
        }
        worker.pending = pending;

        // Stage 3 — apply loop, in original frame order so the punt
        // queue (and therefore stateful fallback processing) follows
        // arrival order.
        let mut batch_digest = 0u64;
        for (pos, &idx) in batch.iter().enumerate() {
            let Some(frame) = frames.get(idx as usize) else {
                continue;
            };
            let (outcome, ctx, from_cache) = match worker.slots.get(pos) {
                Some(SlotState::Hit(outcome, ctx)) => {
                    worker.counters.cache_hits += 1;
                    worker.clock_ns += cost::CACHE_HIT_NS;
                    (*outcome, *ctx, true)
                }
                Some(SlotState::Walked(outcome, ctx)) => (*outcome, *ctx, false),
                Some(SlotState::DirectoryMiss) => (
                    FlowOutcome {
                        action: CachedAction::PuntNoRoute,
                        slot: FlowOutcome::NO_SLOT,
                        digest: 0,
                    },
                    RewriteCtx::default(),
                    true,
                ),
                Some(&SlotState::SnatOffloaded { slot, from_cache }) => {
                    // Hit bookkeeping first (when the probe lane resolved
                    // the flow), then the on-chip translation. `punt_snat`
                    // stays a classification lane, so `punt_snat -
                    // snat_translations` is the software-served SNAT load.
                    if from_cache {
                        worker.counters.cache_hits += 1;
                        worker.clock_ns += cost::CACHE_HIT_NS;
                        worker.counters.punt_snat += 1;
                    }
                    if slot != FlowOutcome::NO_SLOT {
                        if let Some(count) = worker.device_packets.get_mut(slot as usize) {
                            *count += 1;
                        }
                    }
                    worker.counters.snat_translations += 1;
                    worker.counters.hw_forwarded += 1;
                    worker.clock_ns += cost::REWRITE_NS;
                    batch_digest = batch_digest.wrapping_add(PathDecision::ToInternet.digest());
                    continue;
                }
                _ => continue,
            };
            if outcome.slot != FlowOutcome::NO_SLOT {
                if let Some(count) = worker.device_packets.get_mut(outcome.slot as usize) {
                    *count += 1;
                }
            }
            batch_digest = batch_digest.wrapping_add(apply_outcome(
                &state, worker, idx, frame, outcome, ctx, from_cache,
            ));
        }
        worker.digest = worker.digest.wrapping_add(batch_digest);
        worker.note_epoch_digest(state.epoch, batch_digest);
    }
}

/// Tries the DPU middle tier for one punt-classified frame, placed by
/// the Toeplitz tuple hash. `Some(())` means the spill was queued; `None`
/// falls through to x86 admission (no tier, dead pool, or a shed
/// re-route: the shed counters record it and x86 still serves the
/// packet).
fn try_spill_dpu(
    state: &EpochState,
    worker: &mut BatchWorker,
    idx: u32,
    frame: &[u8],
) -> Option<()> {
    let map = state.tier.as_deref()?;
    // Punt-classified frames passed the view parser in stage 1, so this
    // re-parse cannot fail; it runs only on the (cold) punt lane and
    // stays allocation-free like every view parse.
    let view = FrameView::parse(frame).ok()?;
    let tuple_hash = worker.owner_hash.hash_tuple(&view.five_tuple());
    let crate::tier::TierDecision::SpillDpu {
        node,
        process_ns,
        rehomed,
    } = map.place(view.vni.value(), tuple_hash)
    else {
        return None;
    };
    let dpu_breaker = worker.dpu_breaker.as_mut()?;
    match dpu_breaker.admit(worker.clock_ns, map.byte_cost(frame.len())) {
        Admission::Admitted => {
            worker.clock_ns += cost::PUNT_HANDOFF_NS;
            worker.counters.dpu_spilled += 1;
            if rehomed {
                worker.counters.dpu_rehomed += 1;
            }
            worker.punted.push((idx, Some((node, process_ns))));
            Some(())
        }
        Admission::ShedMeter => {
            worker.counters.dpu_shed_meter += 1;
            None
        }
        Admission::ShedOpen => {
            worker.counters.dpu_breaker_open += 1;
            None
        }
    }
}

/// Applies one frame's outcome: arena rewrite, punt admission, counter
/// attribution. Returns the decided digest contribution (0 for punts
/// and errors — punts resolve at the fallback tier).
#[allow(clippy::too_many_arguments)]
fn apply_outcome(
    state: &EpochState,
    worker: &mut BatchWorker,
    idx: u32,
    frame: &[u8],
    outcome: FlowOutcome,
    ctx: RewriteCtx,
    from_cache: bool,
) -> u64 {
    match outcome.action {
        CachedAction::ToNc { nc, vni } => {
            if let Err(e) = rewrite_into_arena(worker, frame, ctx, nc, vni) {
                worker.counters.record_frame_error(e);
                return 0;
            }
            worker.clock_ns += cost::REWRITE_NS;
            worker.counters.hw_forwarded += 1;
            outcome.digest
        }
        CachedAction::ToRegion { .. } | CachedAction::ToIdc { .. } => {
            worker.counters.hw_forwarded += 1;
            outcome.digest
        }
        CachedAction::PuntSnat | CachedAction::PuntNoRoute | CachedAction::PuntNoVm => {
            if from_cache {
                match outcome.action {
                    CachedAction::PuntSnat => worker.counters.punt_snat += 1,
                    CachedAction::PuntNoRoute => worker.counters.punt_no_route += 1,
                    CachedAction::PuntNoVm => worker.counters.punt_no_vm += 1,
                    _ => unreachable!(),
                }
            }
            if try_spill_dpu(state, worker, idx, frame).is_some() {
                return 0;
            }
            match worker.breaker.admit(worker.clock_ns, frame.len()) {
                Admission::Admitted => {
                    worker.clock_ns += cost::PUNT_HANDOFF_NS;
                    worker.punted.push((idx, None));
                    0
                }
                Admission::ShedMeter => {
                    worker.clock_ns += cost::PUNT_HANDOFF_NS;
                    worker.counters.punt_rate_limited += 1;
                    PathDecision::Drop(DropClass::PuntRateLimited).digest()
                }
                Admission::ShedOpen => {
                    worker.counters.punt_breaker_open += 1;
                    PathDecision::Drop(DropClass::PuntRateLimited).digest()
                }
            }
        }
        CachedAction::DropAcl => {
            if from_cache {
                worker.counters.acl_denied += 1;
            }
            outcome.digest
        }
        CachedAction::DropLoop => {
            if from_cache {
                worker.counters.loop_drops += 1;
            }
            outcome.digest
        }
    }
}

/// Copies the frame into the batch's slab arena and rewrites it there in
/// place — TTL decrement, destination rewrite, VNI stamp. A v4 underlay
/// takes [`patch_v4`]; a v6 underlay takes the generic `rewrite::apply`
/// path (UDP checksum refill included). The only post-parse error — a
/// v6-homed NC under a v4 underlay — matches `rewrite::apply`'s exactly.
/// The arena retains capacity across batches, so this is heap-free once
/// warm.
fn rewrite_into_arena(
    worker: &mut BatchWorker,
    frame: &[u8],
    ctx: RewriteCtx,
    nc: sailfish_tables::types::NcAddr,
    vni: Vni,
) -> Result<(), FrameError> {
    let start = worker.arena.len();
    if ctx.outer_v6 {
        // The generic path revalidates layer delimiters, so it needs the
        // whole datagram in the arena.
        worker.arena.extend_from_slice(frame);
        let Some(out) = worker.arena.get_mut(start..) else {
            return Ok(());
        };
        return rewrite::apply(out, nc, vni);
    }
    let IpAddr::V4(nc_v4) = nc.ip else {
        // A v6-homed NC cannot terminate a v4 underlay frame — the same
        // typed reject `rewrite::apply` produces.
        return Err(FrameError::new(FrameLayer::OuterIpv4, Error::Malformed));
    };
    // Header-split emit: only the rewrite region (everything before the
    // inner Ethernet header) lands in the arena — the tenant payload is
    // never copied, exactly like a scatter-gather TX ring pairing a
    // rewritten header segment with the original payload buffer. Every
    // byte the v4 patch touches (TTL, checksum, dst, VNI) sits below
    // `inner_eth` by construction of the view.
    worker
        .arena
        .extend_from_slice(frame.get(..usize::from(ctx.inner_eth)).unwrap_or(frame));
    let Some(out) = worker.arena.get_mut(start..) else {
        return Ok(());
    };
    patch_v4(out, usize::from(ctx.vxlan), nc_v4, vni);
    Ok(())
}

/// In-place v4 rewrite of a frame that already passed [`FrameView`]
/// validation: TTL decrement and destination rewrite with RFC 1624
/// incremental checksum patches, then the VNI stamp at the validated
/// VXLAN offset. Byte-identical to `rewrite::apply` on the same frame
/// (the unit tests pin this), minus the per-layer revalidation the view
/// already performed.
fn patch_v4(frame: &mut [u8], vxlan: usize, nc_v4: Ipv4Addr, vni: Vni) {
    let Some(ip) = frame.get_mut(ethernet::HEADER_LEN..) else {
        return;
    };
    // TTL decrement; a zero TTL is left untouched, like `decrement_ttl`.
    if let (Some(&ttl), Some(&proto)) = (ip.get(8), ip.get(9)) {
        if ttl > 0 {
            let old_word = u16::from_be_bytes([ttl, proto]);
            let new_word = u16::from_be_bytes([ttl - 1, proto]);
            if let Some(b) = ip.get_mut(8) {
                *b = ttl - 1;
            }
            patch_ip_sum(ip, |sum| {
                checksum::incremental_update(sum, old_word, new_word)
            });
        }
    }
    // Destination rewrite with the slice form of the same patch.
    if let Some(dst) = ip.get_mut(16..20) {
        let mut old = [0u8; 4];
        old.copy_from_slice(dst);
        dst.copy_from_slice(&nc_v4.octets());
        patch_ip_sum(ip, |sum| {
            checksum::incremental_update_slice(sum, &old, &nc_v4.octets())
        });
    }
    // VNI stamp into the VXLAN header the view delimited.
    let v = vni.value();
    if let Some(b) = frame.get_mut(vxlan + 4..vxlan + 7) {
        b.copy_from_slice(&[(v >> 16) as u8, (v >> 8) as u8, v as u8]);
    }
}

/// Applies `patch` to the IPv4 header checksum field in place.
fn patch_ip_sum(ip: &mut [u8], patch: impl FnOnce(u16) -> u16) {
    if let Some(cs) = ip
        .get_mut(10..12)
        .and_then(|b| <&mut [u8; 2]>::try_from(b).ok())
    {
        *cs = patch(u16::from_be_bytes(*cs)).to_be_bytes();
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_tables::types::NcAddr;

    /// The arena fast patch must be byte-identical to `rewrite::apply`
    /// on every view-validated v4 frame, including the TTL=0 no-op.
    #[test]
    fn patch_v4_matches_generic_rewrite_bytes() {
        for ttl_zero in [false, true] {
            let packet = GatewayPacketBuilder::new(
                Vni::from_const(7001),
                "192.168.4.2".parse().unwrap(),
                "192.168.9.9".parse().unwrap(),
            )
            .build();
            let mut frame = packet.emit().unwrap();
            if ttl_zero {
                // Zero the outer TTL and re-fill the header checksum so
                // the frame still parses.
                frame[ethernet::HEADER_LEN + 8] = 0;
                let mut ip = sailfish_net::wire::ipv4::Packet::new_unchecked(
                    &mut frame[ethernet::HEADER_LEN..],
                );
                ip.fill_checksum();
            }
            let view = FrameView::parse(&frame).expect("emitted frame parses");
            let nc = NcAddr {
                ip: "10.77.1.3".parse().unwrap(),
            };
            let vni = Vni::from_const(4242);

            let mut generic = frame.clone();
            rewrite::apply(&mut generic, nc, vni).unwrap();

            let mut patched = frame.clone();
            let IpAddr::V4(v4) = nc.ip else {
                unreachable!()
            };
            patch_v4(&mut patched, usize::from(view.vxlan), v4, vni);

            assert_eq!(generic, patched, "ttl_zero={ttl_zero}");
            // And the patched checksum still verifies.
            let ip =
                sailfish_net::wire::ipv4::Packet::new_checked(&patched[ethernet::HEADER_LEN..])
                    .unwrap();
            assert!(ip.verify_checksum());
        }
    }
}
