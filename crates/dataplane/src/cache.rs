//! The flow cache in front of the table pipeline.
//!
//! Gateways front the table pipeline with an exact-match flow cache: the
//! first packet of a flow takes the full walk, later packets replay the
//! recorded action. [`FlowCache`] is an S3-FIFO (a small probationary
//! FIFO, a main FIFO and ghost fingerprints) over a preallocated slab. It
//! survives millions of flows within a bounded footprint, never
//! allocates after construction, and its one-hit wonders churn through
//! the small queue without displacing the hot working set in main.
//! Eviction order is a pure function of the operation sequence, so runs
//! stay deterministic.

use std::collections::VecDeque;

use sailfish_net::view::FlowKey;
use sailfish_net::Vni;
use sailfish_tables::types::{IdcId, NcAddr, RegionId};

/// The replayable outcome of a table walk for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedAction {
    /// Forward to an NC after rewrite.
    ToNc {
        /// Destination server.
        nc: NcAddr,
        /// Rewritten VNI.
        vni: Vni,
    },
    /// Hand off to another region.
    ToRegion {
        /// Destination region.
        region: RegionId,
        /// VNI context.
        vni: Vni,
    },
    /// Hand off to an IDC.
    ToIdc {
        /// Destination IDC.
        idc: IdcId,
        /// VNI context.
        vni: Vni,
    },
    /// Punt: the route needs stateful SNAT.
    PuntSnat,
    /// Punt: no hardware route.
    PuntNoRoute,
    /// Punt: VM mapping off-chip.
    PuntNoVm,
    /// Drop: ACL deny.
    DropAcl,
    /// Drop: peer-chain loop bound.
    DropLoop,
}

/// The replayable outcome the batch pipeline caches per flow: the action
/// plus everything needed to skip the walk entirely on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOutcome {
    /// The recorded table-walk action.
    pub action: CachedAction,
    /// Flattened ECMP device slot (`cluster_idx * devices_per_cluster +
    /// device`), or [`FlowOutcome::NO_SLOT`] when the flow never reached
    /// device selection (directory miss).
    pub slot: u32,
    /// Precomputed decision digest for actions whose digest does not
    /// depend on the x86 fallback (0 for punts, which resolve later).
    pub digest: u64,
}

impl FlowOutcome {
    /// Sentinel slot for flows that bypass ECMP device selection.
    pub const NO_SLOT: u32 = u32::MAX;
}

const INDEX_EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SlabEntry {
    key: FlowKey,
    hash: u64,
    outcome: FlowOutcome,
    freq: u8,
}

/// An S3-FIFO evicting flow cache over a preallocated slab.
///
/// Layout: a slab of entries plus a free list (bounded residency), an
/// open-addressing index (linear probing at ≤ 0.5 load, backward-shift
/// deletion so scans cannot build tombstone chains), two FIFO queues —
/// `small` (probationary, ~10% of capacity) and `main` — and a
/// direct-mapped ghost table of fingerprints remembering keys recently
/// evicted from `small`.
///
/// Policy: new keys enter `small`; a key evicted from `small` without
/// ever being re-hit leaves only a ghost fingerprint behind; a key whose
/// ghost is still resident re-enters straight into `main`; `main`
/// evictions give entries with nonzero frequency a second pass. The net
/// effect is strict scan resistance — a flood of one-hit flows recycles
/// the small queue and never displaces the hot set in `main` — which the
/// seeded property tests assert exactly.
///
/// No operation allocates after construction: `get`/`insert`/`clear`
/// only move fixed-size values between preallocated arrays.
#[derive(Debug)]
pub struct FlowCache {
    slab: Vec<SlabEntry>,
    free: Vec<u32>,
    index: Vec<u32>,
    small: VecDeque<u32>,
    main: VecDeque<u32>,
    ghost: Vec<u64>,
    capacity: usize,
    small_target: usize,
    hits: u64,
    misses: u64,
}

impl FlowCache {
    /// Maximum per-entry frequency (2 bits, as in the S3-FIFO paper).
    const FREQ_MAX: u8 = 3;

    /// Creates a cache bounding residency to `capacity` flows. All
    /// storage is allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flow cache needs capacity");
        let index_len = (capacity * 2).next_power_of_two();
        FlowCache {
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            index: vec![INDEX_EMPTY; index_len],
            small: VecDeque::with_capacity(capacity),
            main: VecDeque::with_capacity(capacity),
            ghost: vec![0; capacity.next_power_of_two()],
            capacity,
            small_target: (capacity / 10).max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a flow, counting a hit or miss and bumping the entry's
    /// frequency on a hit.
    #[inline]
    pub fn get(&mut self, key: &FlowKey) -> Option<FlowOutcome> {
        match self.probe(key) {
            Some((_, slot)) => {
                let entry = &mut self.slab[slot as usize];
                entry.freq = (entry.freq + 1).min(Self::FREQ_MAX);
                self.hits += 1;
                Some(entry.outcome)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a flow without touching counters or frequencies (test
    /// oracle use; the hot path always goes through [`FlowCache::get`]).
    pub fn peek(&self, key: &FlowKey) -> Option<FlowOutcome> {
        self.probe(key)
            .map(|(_, slot)| self.slab[slot as usize].outcome)
    }

    /// Records a flow's outcome, evicting per S3-FIFO when at capacity.
    /// A resident key is updated in place.
    pub fn insert(&mut self, key: FlowKey, outcome: FlowOutcome) {
        if let Some((_, slot)) = self.probe(&key) {
            self.slab[slot as usize].outcome = outcome;
            return;
        }
        while self.len() >= self.capacity {
            self.evict_one();
        }
        let hash = key.mix();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = SlabEntry {
                    key,
                    hash,
                    outcome,
                    freq: 0,
                };
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(SlabEntry {
                    key,
                    hash,
                    outcome,
                    freq: 0,
                });
                slot
            }
        };
        self.index_insert(hash, slot);
        let ghost_pos = hash as usize & (self.ghost.len() - 1);
        if self.ghost[ghost_pos] == hash {
            // Recently evicted from small and back already: skip probation.
            self.ghost[ghost_pos] = 0;
            self.main.push_back(slot);
        } else {
            self.small.push_back(slot);
        }
    }

    /// Evicts exactly one resident entry per the S3-FIFO policy.
    fn evict_one(&mut self) {
        loop {
            if self.small.len() >= self.small_target {
                let slot = self.small.pop_front().expect("small non-empty");
                let entry = self.slab[slot as usize];
                if entry.freq > 0 {
                    // Re-hit during probation: promote instead of evicting.
                    self.main.push_back(slot);
                    continue;
                }
                // One-hit wonder: leave only a ghost fingerprint behind.
                let ghost_pos = entry.hash as usize & (self.ghost.len() - 1);
                self.ghost[ghost_pos] = entry.hash;
                self.release(slot, entry.hash);
                return;
            }
            match self.main.pop_front() {
                Some(slot) => {
                    let freq = self.slab[slot as usize].freq;
                    if freq > 0 {
                        // Second chance: decay and recycle to the tail.
                        self.slab[slot as usize].freq = freq - 1;
                        self.main.push_back(slot);
                        continue;
                    }
                    let hash = self.slab[slot as usize].hash;
                    self.release(slot, hash);
                    return;
                }
                // Main empty: fall through to draining small regardless
                // of the target (only possible at tiny capacities).
                None => {
                    let slot = self.small.pop_front().expect("cache non-empty");
                    let entry = self.slab[slot as usize];
                    let ghost_pos = entry.hash as usize & (self.ghost.len() - 1);
                    self.ghost[ghost_pos] = entry.hash;
                    self.release(slot, entry.hash);
                    return;
                }
            }
        }
    }

    /// Returns a slab slot to the free list and unlinks it from the index.
    fn release(&mut self, slot: u32, hash: u64) {
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            match self.index[pos] {
                s if s == slot => break,
                INDEX_EMPTY => unreachable!("resident entry missing from index"),
                _ => pos = (pos + 1) & mask,
            }
        }
        self.index_remove(pos);
        self.free.push(slot);
    }

    #[inline]
    fn probe(&self, key: &FlowKey) -> Option<(usize, u32)> {
        let hash = key.mix();
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let slot = self.index[pos];
            if slot == INDEX_EMPTY {
                return None;
            }
            let entry = &self.slab[slot as usize];
            if entry.hash == hash && entry.key == *key {
                return Some((pos, slot));
            }
            pos = (pos + 1) & mask;
        }
    }

    fn index_insert(&mut self, hash: u64, slot: u32) {
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        while self.index[pos] != INDEX_EMPTY {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot;
    }

    /// Backward-shift deletion: closes the probe chain without leaving a
    /// tombstone, so delete-heavy scan workloads cannot degrade probes.
    fn index_remove(&mut self, mut pos: usize) {
        let mask = self.index.len() - 1;
        self.index[pos] = INDEX_EMPTY;
        let mut probe = pos;
        loop {
            probe = (probe + 1) & mask;
            let slot = self.index[probe];
            if slot == INDEX_EMPTY {
                return;
            }
            let home = self.slab[slot as usize].hash as usize & mask;
            // Shift back iff the hole sits inside this entry's probe path
            // (cyclic distance from home to the hole ≤ distance to the
            // entry's current position).
            let dist_to_probe = probe.wrapping_sub(home) & mask;
            let dist_to_hole = pos.wrapping_sub(home) & mask;
            if dist_to_hole <= dist_to_probe {
                self.index[pos] = slot;
                self.index[probe] = INDEX_EMPTY;
                pos = probe;
            }
        }
    }

    /// Resident flows.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no flow is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The residency bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime `get` hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime `get` misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every resident flow and ghost (table-update invalidation),
    /// keeping all allocations and the hit/miss history.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.index.fill(INDEX_EMPTY);
        self.small.clear();
        self.main.clear();
        self.ghost.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::{FiveTuple, IpProtocol};

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::new(
            core::net::Ipv4Addr::from(0x0a00_0000 | i).into(),
            "10.0.0.1".parse().unwrap(),
            IpProtocol::Udp,
            1000 + (i % 100) as u16,
            80,
        )
    }

    fn key(i: u32) -> FlowKey {
        FlowKey::from_tuple(Vni::from_const(3), &tuple(i))
    }

    fn outcome(i: u32) -> FlowOutcome {
        FlowOutcome {
            action: CachedAction::PuntSnat,
            slot: i,
            digest: u64::from(i) * 17,
        }
    }

    #[test]
    fn evicting_cache_round_trip_and_bound() {
        let mut c = FlowCache::new(64);
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.misses(), 1);
        c.insert(key(1), outcome(1));
        assert_eq!(c.get(&key(1)), Some(outcome(1)));
        assert_eq!(c.hits(), 1);
        for i in 0..10_000 {
            c.insert(key(i), outcome(i));
        }
        assert!(c.len() <= c.capacity(), "residency exceeded capacity");
        assert_eq!(c.capacity(), 64);
    }

    #[test]
    fn evicting_cache_updates_resident_key_in_place() {
        let mut c = FlowCache::new(8);
        c.insert(key(5), outcome(5));
        c.insert(key(5), outcome(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&key(5)), Some(outcome(9)));
    }

    #[test]
    fn ghost_readmission_goes_to_main() {
        let mut c = FlowCache::new(20);
        // Fill to capacity; one more insert pushes key(0), untouched
        // during probation, out of small and into the ghost table.
        for i in 0..21 {
            c.insert(key(i), outcome(i));
        }
        assert!(c.peek(&key(0)).is_none());
        // Reinsertion finds the ghost and lands in main, so a subsequent
        // scan of fresh one-hit keys (which only recycles small) cannot
        // displace it.
        c.insert(key(0), outcome(0));
        for i in 1_000..1_040 {
            c.insert(key(i), outcome(i));
        }
        assert!(
            c.peek(&key(0)).is_some(),
            "ghost-readmitted key displaced by a scan"
        );
    }

    #[test]
    fn clear_keeps_capacity_and_counts_fresh_misses() {
        let mut c = FlowCache::new(16);
        for i in 0..16 {
            c.insert(key(i), outcome(i));
        }
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&key(0)).is_none());
        c.insert(key(0), outcome(0));
        assert_eq!(c.get(&key(0)), Some(outcome(0)));
    }
}
