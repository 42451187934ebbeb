//! The forwarding phases: closed loop, open loop at a fixed rate, and
//! the SLO search over a fixed rate ladder. Every executor call's report
//! is checked; every completed round's decision digest is compared with
//! the reference.

use std::time::{Duration, Instant};

use sailfish_dataplane::{BatchExecutor, Dataplane, RunReport, TableCounters};
use sailfish_xgw_x86::SoftwareForwarder;

use crate::alloc::allocations;
use crate::stats::{mean_of_bottom, mean_of_top, median, quantile_sorted};
use crate::trace::{Tracer, ROOT};
use crate::QUICK_SHARE;

/// The replayed packet sequence cut into digest-checked rounds.
pub struct Rounds<'a> {
    /// Every packet of the sequence.
    pub seq: &'a [&'a [u8]],
    /// Packets per round.
    pub len: usize,
    /// Reference decision digest per round.
    pub refs: &'a [u64],
}

impl<'a> Rounds<'a> {
    /// Number of rounds.
    pub fn count(&self) -> usize {
        self.refs.len()
    }

    /// The frames of round `r`.
    pub fn get(&self, r: usize) -> &'a [&'a [u8]] {
        let start = r * self.len;
        &self.seq[start..(start + self.len).min(self.seq.len())]
    }
}

/// Correctness and failure accounting for one run.
#[derive(Debug, Default)]
pub struct Check {
    /// Packets offered.
    pub attempted: u64,
    /// Packets that failed outright: shed at punt admission, or a parse
    /// error on generator-valid traffic.
    pub failed: u64,
    /// Packets decided later than the latency limit in the fixed-rate
    /// open loop. Reported beside `failed`, not in it: they were
    /// forwarded correctly, only late.
    pub late: u64,
    /// Rounds whose digest was compared.
    pub rounds_checked: u64,
    /// Heap allocations inside the allocation-gated windows.
    pub steady_allocs: u64,
    /// Packets executed inside the allocation-gated windows.
    pub steady_packets: u64,
    /// Every correctness failure seen.
    pub errors: Vec<String>,
}

impl Check {
    /// Accounts one executor call's report: the packets it offered, the
    /// failures among them, and the accounting identity — on-chip + DPU
    /// + x86 + drops equals offered.
    pub fn call(&mut self, rep: &RunReport) {
        let c = &rep.counters;
        self.attempted += rep.packets;
        let shed = c.punt_rate_limited + c.punt_breaker_open;
        self.failed += shed + c.parse_errors;
        let drops = c.acl_denied + c.loop_drops + c.parse_errors + shed;
        let served = c.hw_forwarded
            + c.dpu_forwarded
            + c.dpu_dropped
            + c.fallback_forwarded
            + c.fallback_dropped;
        if served + drops != rep.packets {
            self.error(format!(
                "accounting identity broken: {served} served + {drops} dropped != {} offered",
                rep.packets
            ));
        }
    }

    /// Compares a completed round's digest with its reference.
    pub fn digest(&mut self, round: usize, got: u64, want: u64) {
        self.rounds_checked += 1;
        if got != want {
            self.error(format!(
                "round {round}: decision digest {got:016x} != reference {want:016x}"
            ));
        }
    }

    /// Records a correctness failure (the first few are kept verbatim).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.steady_allocs == 0 && self.rounds_checked > 0
    }
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Closed {
    /// Packets per second of each call (one round), in Mpps.
    pub call_mpps: Vec<f64>,
    /// Merged stage counters of every call.
    pub counters: TableCounters,
    /// Packets forwarded.
    pub packets: u64,
    /// Punts resolved by the software tiers (DPU + x86).
    pub punts: u64,
    /// Time inside `execute`, nanoseconds.
    pub exec_ns: u64,
    /// Time inside `finish`, nanoseconds.
    pub finish_ns: u64,
    /// Heap allocations inside `execute`.
    pub exec_allocs: u64,
}

impl Closed {
    /// Mean call rate over the quickest [`QUICK_SHARE`] of calls, Mpps:
    /// host stalls and contention only ever slow the calls they land in.
    pub fn rate_mpps(&self) -> f64 {
        mean_of_top(&self.call_mpps, QUICK_SHARE)
    }

    /// Appends another phase's calls.
    pub fn absorb(&mut self, other: Closed) {
        self.call_mpps.extend(other.call_mpps);
        self.counters.merge(&other.counters);
        self.packets += other.packets;
        self.punts += other.punts;
        self.exec_ns += other.exec_ns;
        self.finish_ns += other.finish_ns;
        self.exec_allocs += other.exec_allocs;
    }

    /// Packets over the phase's total time inside the executor, Mpps;
    /// every stall counts.
    pub fn aggregate_mpps(&self) -> f64 {
        self.packets as f64 / (self.exec_ns + self.finish_ns).max(1) as f64 * 1e3
    }
}

/// Replays rounds closed loop (each call starts when the previous one
/// returned), one round per call, until `dur` has passed. With
/// `gate_allocs`, every `execute` call must not touch the heap.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    dp: &Dataplane,
    exec: &mut BatchExecutor,
    fb: &mut SoftwareForwarder,
    rounds: &Rounds,
    cursor: &mut usize,
    dur: Duration,
    gate_allocs: bool,
    tr: &mut Tracer,
    check: &mut Check,
) -> Closed {
    let mut out = Closed::default();
    let started = Instant::now();
    while out.packets == 0 || started.elapsed() < dur {
        let r = *cursor % rounds.count();
        *cursor += 1;
        let frames = rounds.get(r);
        let a0 = allocations();
        let t0 = tr.now();
        let c0 = Instant::now();
        exec.execute(dp, frames);
        let c1 = Instant::now();
        let a1 = allocations();
        tr.span("batch.execute", ROOT, t0, frames.len() as u64);
        let t1 = tr.now();
        let rep = exec.finish(frames, fb);
        let c2 = Instant::now();
        let punts = rep.fallback_packets + rep.dpu_packets;
        tr.span("batch.finish", ROOT, t1, punts);
        if gate_allocs {
            check.steady_allocs += a1 - a0;
            check.steady_packets += frames.len() as u64;
        }
        out.exec_allocs += a1 - a0;
        let exec_ns = (c1 - c0).as_nanos() as u64;
        let finish_ns = (c2 - c1).as_nanos() as u64;
        out.exec_ns += exec_ns;
        out.finish_ns += finish_ns;
        out.call_mpps
            .push(frames.len() as f64 / (exec_ns + finish_ns).max(1) as f64 * 1e3);
        out.packets += frames.len() as u64;
        out.punts += punts;
        out.counters.merge(&rep.counters);
        check.call(&rep);
        check.digest(r, rep.decision_digest, rounds.refs[r]);
    }
    out
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct Open {
    /// Per-packet latency from due time to the return of the call that
    /// decided it, nanoseconds, in send order.
    pub lat_ns: Vec<u32>,
    /// Per call: how late the generator issued the call's first packet,
    /// nanoseconds.
    pub lateness_ns: Vec<u32>,
    /// Wall time of the phase, nanoseconds.
    pub elapsed_ns: u64,
    /// Whether the phase stopped early because its backlog outgrew
    /// `abort_backlog`.
    pub aborted: bool,
}

impl Open {
    /// Appends another open-loop phase's packets.
    pub fn absorb(&mut self, other: Open) {
        self.lat_ns.extend(other.lat_ns);
        self.lateness_ns.extend(other.lateness_ns);
        self.elapsed_ns += other.elapsed_ns;
        self.aborted |= other.aborted;
    }

    /// Packets decided per wall-clock second, in Mpps.
    pub fn delivered_mpps(&self) -> f64 {
        self.lat_ns.len() as f64 / self.elapsed_ns.max(1) as f64 * 1e3
    }

    /// The `q`-quantile of latency over the whole phase, microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        quantile_sorted(&v, q) / 1e3
    }

    /// p50 and p99 latency over consecutive windows of `per_window`
    /// packets, microseconds.
    ///
    /// Each is the mean over the quickest [`QUICK_SHARE`] of windows of
    /// the window's own percentile. Host stalls only ever add latency, and on a shared
    /// 2-vCPU microVM stalls of 50 µs and more land in about half of all
    /// 10 ms stretches, each setting the p99 of the window it lands in.
    pub fn window_latency_us(&self, per_window: usize) -> (f64, f64) {
        let (p50s, p99s) = self.window_percentiles_us(per_window);
        (
            mean_of_bottom(&p50s, QUICK_SHARE),
            mean_of_bottom(&p99s, QUICK_SHARE),
        )
    }

    /// Each window's p50 and p99, microseconds, in send order.
    pub fn window_percentiles_us(&self, per_window: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for window in self.lat_ns.chunks(per_window.max(1)) {
            let mut v = window.to_vec();
            v.sort_unstable();
            p50s.push(quantile_sorted(&v, 0.5) / 1e3);
            p99s.push(quantile_sorted(&v, 0.99) / 1e3);
        }
        (p50s, p99s)
    }
}

/// Packets per latency window at `rate_pps`: 2 ms of offered traffic,
/// and never fewer than 1,000 so the window p99 has ten samples beyond
/// it.
pub fn window_packets(rate_pps: f64) -> usize {
    ((rate_pps * 0.002) as usize).max(1_000)
}

/// Offers `packets` packets open loop at `rate_pps`: packet `k` is due
/// at `k / rate`, and each call takes whatever is due, up to the
/// dataplane's batch size (an rx burst), never crossing a round
/// boundary. `packets` is rounded up to whole rounds so every digest is
/// checked. Stops early (after finishing the current round untimed) if
/// more than `abort_backlog` packets are ever waiting.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    dp: &Dataplane,
    exec: &mut BatchExecutor,
    fb: &mut SoftwareForwarder,
    rounds: &Rounds,
    cursor: &mut usize,
    rate_pps: f64,
    packets: usize,
    abort_backlog: usize,
    check: &mut Check,
) -> Open {
    let total = packets.div_ceil(rounds.len).max(1) * rounds.len;
    let burst = dp.config().batch_size.max(1);
    let ns_per_pkt = 1e9 / rate_pps;
    let due_ns = |k: usize| (k as f64 * ns_per_pkt) as u64;
    let mut out = Open {
        lat_ns: Vec::with_capacity(total),
        lateness_ns: Vec::with_capacity(total),
        ..Open::default()
    };
    let (mut next, mut in_round, mut digest) = (0usize, 0usize, 0u64);
    let mut r = *cursor % rounds.count();
    let origin = Instant::now();
    while next < total {
        let now = origin.elapsed().as_nanos() as u64;
        let due = ((now as f64 / ns_per_pkt) as usize + 1).min(total);
        if due <= next {
            std::hint::spin_loop();
            continue;
        }
        let frames = rounds.get(r);
        if due - next > abort_backlog {
            out.aborted = true;
            for chunk in frames[in_round..].chunks(burst) {
                exec.execute(dp, chunk);
                let rep = exec.finish(chunk, fb);
                check.call(&rep);
                digest = digest.wrapping_add(rep.decision_digest);
            }
            check.digest(r, digest, rounds.refs[r]);
            *cursor += 1;
            break;
        }
        let take = (due - next).min(burst).min(frames.len() - in_round);
        let batch = &frames[in_round..in_round + take];
        exec.execute(dp, batch);
        let rep = exec.finish(batch, fb);
        let end = origin.elapsed().as_nanos() as u64;
        out.lateness_ns
            .push(now.saturating_sub(due_ns(next)).min(u64::from(u32::MAX)) as u32);
        for k in next..next + take {
            out.lat_ns
                .push(end.saturating_sub(due_ns(k)).min(u64::from(u32::MAX)) as u32);
        }
        check.call(&rep);
        digest = digest.wrapping_add(rep.decision_digest);
        next += take;
        in_round += take;
        if in_round == frames.len() {
            check.digest(r, digest, rounds.refs[r]);
            *cursor += 1;
            r = *cursor % rounds.count();
            in_round = 0;
            digest = 0;
        }
    }
    out.elapsed_ns = origin.elapsed().as_nanos() as u64;
    out
}

/// One probe of the SLO search.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Offered rate, Mpps.
    pub offered_mpps: f64,
    /// Delivered rate, Mpps.
    pub delivered_mpps: f64,
    /// Median over the probe's windows of each window's p99 latency,
    /// microseconds.
    pub p99_us: f64,
    /// Whether the probe met the latency limit without backlog growth.
    pub pass: bool,
}

/// Binary search over the fixed ladder `base * 1.05^k` for the highest
/// rate at which the median over windows of each window's p99 stays
/// under `limit_ns` (a queue left growing fails every later window; a
/// probe that ever has half its packets waiting stops early and fails,
/// while a host stall of tens of milliseconds does not). Returns the
/// passing probe at the highest rung (the lowest rung's probe if none
/// passed) and every probe made. Probe packets are checked like any
/// other; latency over the limit is what a probe measures, not a failure.
#[allow(clippy::too_many_arguments)]
pub fn slo_search(
    dp: &Dataplane,
    exec: &mut BatchExecutor,
    fb: &mut SoftwareForwarder,
    rounds: &Rounds,
    cursor: &mut usize,
    ladder: (f64, usize),
    probe_s: f64,
    limit_ns: u64,
    check: &mut Check,
) -> (Probe, Vec<Probe>) {
    let (base, rungs) = ladder;
    let mut probes = Vec::new();
    let mut run = |k: usize, probes: &mut Vec<Probe>| {
        let rate = base * 1.05f64.powi(k as i32);
        let abort = (rate * probe_s / 2.0) as usize;
        let o = open_loop(
            dp,
            exec,
            fb,
            rounds,
            cursor,
            rate,
            (rate * probe_s) as usize,
            abort,
            check,
        );
        let p99_us = median(&o.window_percentiles_us(window_packets(rate)).1);
        let probe = Probe {
            offered_mpps: rate / 1e6,
            delivered_mpps: o.delivered_mpps(),
            p99_us,
            pass: !o.aborted && p99_us * 1e3 <= limit_ns as f64,
        };
        probes.push(probe);
        probe
    };
    let (mut lo, mut hi): (Option<(usize, Probe)>, usize) = (None, rungs + 1);
    let mut bottom = 0usize;
    while hi > bottom {
        let mid = bottom + (hi - bottom) / 2;
        let p = run(mid, &mut probes);
        if p.pass {
            lo = Some((mid, p));
            bottom = mid + 1;
        } else {
            hi = mid;
        }
    }
    let best = match lo {
        Some((_, p)) => p,
        None => probes
            .iter()
            .copied()
            .min_by(|a, b| a.offered_mpps.total_cmp(&b.offered_mpps))
            .unwrap_or(Probe {
                offered_mpps: base / 1e6,
                delivered_mpps: 0.0,
                p99_us: f64::NAN,
                pass: false,
            }),
    };
    (best, probes)
}
