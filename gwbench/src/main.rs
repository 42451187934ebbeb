//! `gwbench`: one wall-clock benchmark of the Sailfish gateway.
//!
//! ```text
//! gwbench --workload <hit_zipf|miss_region|punt_tier|update_churn> \
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that measures every layer. Either way the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything before it is a
//! readable report. Results, the machine record and the traced run's
//! spans are written under `gwbench/out/` relative to the working
//! directory. The exit code is 0 only when every correctness check
//! passed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{BatchExecutor, Dataplane, TableCounters};
use sailfish_gwbench::affinity::Rotation;
use sailfish_gwbench::control::{self, Control, Update};
use sailfish_gwbench::host::{HostSpeed, NOMINAL_STEPS_PER_US};
use sailfish_gwbench::layers;
use sailfish_gwbench::machine::{json_str, peak_rss_mb, Machine};
use sailfish_gwbench::measure::{
    closed_loop, open_loop, slo_search, window_packets, Check, Closed, Open, Probe, Rounds,
};
use sailfish_gwbench::stats::{
    mean_of_bottom, mean_of_top, median, quantile, quantile_sorted, tail_percentile,
};
use sailfish_gwbench::trace::Tracer;
use sailfish_gwbench::workload::{
    bring_up, oracle_check, reference_rounds, Gateway, Inputs, Workload,
};
use sailfish_gwbench::{LATENCY_LIMIT_US, QUICK_SHARE};
use sailfish_sim::Topology;
use sailfish_snat::HybridSnat;
use sailfish_xgw_x86::SoftwareForwarder;

const USAGE: &str = "usage: gwbench --workload <hit_zipf|miss_region|punt_tier|update_churn> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// Distinct flows the set-up oracle check replays.
const ORACLE_FLOWS: usize = 20_000;
/// Packets of the sequence the per-layer timings run over.
const LAYER_SAMPLE: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run produced.
struct Outcome {
    metrics: Vec<Metric>,
    report: String,
    check: Check,
    spans: Option<Tracer>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gwbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let machine = Machine::probe();
    let outcome = run(&args, &machine);
    print!("{}", outcome.report);
    for e in &outcome.check.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = outcome.check.correct();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.check.attempted.max(1),
        outcome.check.failed,
        metrics.join(", ")
    );
    if let Err(e) = write_record(&args, &machine, &outcome, &line) {
        eprintln!("gwbench: could not write results: {e}");
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the result with its machine record, and the traced run's
/// spans, under `gwbench/out/`.
fn write_record(
    args: &Args,
    machine: &Machine,
    outcome: &Outcome,
    line: &str,
) -> std::io::Result<()> {
    let dir = PathBuf::from("gwbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"machine\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}, \
         \"result\": {line}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        machine.nproc,
        json_str(&machine.cpu),
        json_str(&machine.rustc),
        json_str(&machine.commit),
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if let Some(tr) = &outcome.spans {
        tr.write(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

/// How the control thread decides when to stop submitting changes.
enum Until<'a> {
    /// After this many changes.
    Count(usize),
    /// Once the flag is raised (after at least one change).
    Flag(&'a AtomicBool),
    /// Whole script cycles, at least one, until `budget` has passed.
    Budget(Duration),
    /// `count` changes, the `i`-th submitted at `start + i * period`.
    Paced {
        start: Instant,
        period: Duration,
        count: usize,
    },
}

/// Submits the script's world changes in order, cycling, and returns the
/// submit-to-serving time of each (milliseconds) and any failures.
fn run_updates(
    control: &Control,
    script: &[Update],
    topology: &Topology,
    dp: &Dataplane,
    mut snat: Option<&mut HybridSnat>,
    until: Until,
    tr: &mut Tracer,
) -> (Vec<f64>, Vec<String>) {
    let (mut ms, mut errors) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for (i, update) in script.iter().cycle().enumerate() {
        let done = match until {
            Until::Count(n) => i >= n,
            Until::Budget(budget) => i > 0 && i % script.len() == 0 && started.elapsed() >= budget,
            Until::Flag(f) => i > 0 && f.load(Ordering::SeqCst),
            Until::Paced {
                start,
                period,
                count,
            } => {
                let due = start + period * i as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                i >= count
            }
        };
        if done {
            break;
        }
        match control::apply(control, update, topology, dp, snat.as_deref_mut(), tr) {
            Ok(t) => ms.push(t),
            Err(e) => errors.push(e),
        }
    }
    (ms, errors)
}

/// Replays the rounds in `which` untimed (still checked).
fn warm(
    dp: &Dataplane,
    exec: &mut BatchExecutor,
    fb: &mut SoftwareForwarder,
    rounds: &Rounds,
    which: impl IntoIterator<Item = usize>,
    check: &mut Check,
) {
    for r in which {
        let frames = rounds.get(r);
        let rep = exec.run(dp, frames, fb);
        check.call(&rep);
        check.digest(r, rep.decision_digest, rounds.refs[r]);
    }
}

fn quartiles(v: &[f64]) -> (f64, f64) {
    (quantile(v, 0.25), quantile(v, 0.75))
}

fn run(args: &Args, machine: &Machine) -> Outcome {
    let w = args.workload;
    let s = args.seconds;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "gwbench {} seed {} seconds {} trace {} | nproc {} | {} | {} | commit {}",
        w.name(),
        args.seed,
        s,
        u8::from(args.trace),
        machine.nproc,
        machine.cpu,
        machine.rustc,
        machine.commit
    );

    let t = Instant::now();
    let inputs = Inputs::generate(w, args.seed);
    let seq = inputs.sequence();
    let inputs_s = t.elapsed().as_secs_f64();
    let fwd_workers = machine.nproc.saturating_sub(w.control_threads()).max(1);
    let mut tr = Tracer::new(args.trace);

    // Set-up: bring the gateway up several times and keep the last one
    // (the traced run brings it up once, with spans).
    let reps = match (args.trace, w.region_scale()) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 21,
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut gw: Option<Gateway> = None;
    for _ in 0..reps {
        drop(gw.take());
        let t = Instant::now();
        gw = Some(bring_up(w, &inputs, fwd_workers, &mut tr));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut gw = gw.expect("at least one set-up");

    let mut check = Check::default();
    let t = Instant::now();
    let mut reference = software_forwarder(&inputs.topology);
    let round_len = w.round_len();
    let refs = reference_rounds(&gw.dp, &seq, round_len, &mut reference);
    if let Err(e) = oracle_check(
        &gw.dp,
        &inputs,
        ORACLE_FLOWS,
        &mut gw.fallback,
        &mut reference,
    ) {
        check.error(e);
    }
    drop(reference);
    let reference_s = t.elapsed().as_secs_f64();
    let digests: Vec<u64> = refs.iter().map(|r| r.0).collect();
    let heaviest = (0..refs.len()).max_by_key(|r| refs[*r].1).unwrap_or(0);
    let rounds = Rounds {
        seq: &seq,
        len: round_len,
        refs: &digests,
    };
    let punt_share = refs.iter().map(|r| r.1).sum::<u64>() as f64 / seq.len() as f64;
    let _ = writeln!(
        report,
        "inputs: {} flows, {} packets in {} rounds, {:.1}% punted (reference), {} forwarding workers; \
         generated in {inputs_s:.2} s, reference and oracle in {reference_s:.2} s",
        inputs.flows.len(),
        seq.len(),
        rounds.count(),
        punt_share * 100.0,
        fwd_workers
    );

    let Gateway {
        dp,
        fallback,
        exec_many,
        exec_one,
        snat,
        control,
        ..
    } = &mut gw;
    let dp: &Dataplane = dp;
    let control: &Control = control;
    let topology = &inputs.topology;
    let script = control.script(args.seed, dp.config().devices_per_cluster);

    // Warm-up: caches to steady state, and the single pipeline once over
    // the round with the most punts so every lane has its high-water
    // capacity before the allocation-gated window.
    let warm_rounds = w.warm_rounds().min(rounds.count());
    warm(dp, exec_many, fallback, &rounds, 0..warm_rounds, &mut check);
    warm(
        dp,
        exec_one,
        fallback,
        &rounds,
        (0..warm_rounds).chain([heaviest]),
        &mut check,
    );
    let mut cursor = warm_rounds;
    // The gateway is up and warm: its peak footprint (plus the inputs and
    // the set-up oracle's second forwarder) is in, and the latency
    // buffers of the measurement, whose size depends on the rates the
    // SLO search visits, are not.
    let rss = peak_rss_mb();

    let stop = AtomicBool::new(false);
    let churn = w.control_threads() > 0;
    let mut metrics = Vec::new();
    let mut update_ms: Vec<f64> = Vec::new();
    let mut update_errors: Vec<String> = Vec::new();
    let mut searches: Vec<(Probe, Vec<Probe>)> = Vec::new();
    let mut host = HostSpeed::new();
    let mut fork = tr.fork();

    std::thread::scope(|scope| {
        let snat = snat.as_mut();
        let (script, stop, fork) = (&script, &stop, &mut fork);
        if args.trace {
            let updater = churn.then(|| {
                scope.spawn(move || {
                    run_updates(control, script, topology, dp, snat, Until::Flag(stop), fork)
                })
            });
            traced_phases(
                w,
                s,
                dp,
                exec_one,
                fallback,
                &inputs,
                &seq,
                &rounds,
                &mut cursor,
                &mut tr,
                &mut check,
                &mut metrics,
                &mut report,
            );
            stop.store(true, Ordering::SeqCst);
            if let Some(h) = updater {
                (update_ms, update_errors) = h.join().expect("control thread panicked");
            }
        } else if churn {
            // One world change per period, submitted at the period's
            // start; each forwarding phase is one period long, so every
            // phase sees exactly one change. The three phases run twice.
            let period = Duration::from_secs_f64(0.15 * s);
            let start = Instant::now();
            let updater = scope.spawn(move || {
                let paced = Until::Paced {
                    start,
                    period,
                    count: CHURN_PERIODS,
                };
                run_updates(control, script, topology, dp, snat, paced, fork)
            });
            let phases = Phases {
                closed: period * 2,
                open_s: 2.0 * period.as_secs_f64(),
                whole_phase: true,
                slices: 2,
            };
            forward_phases(
                w,
                &phases,
                dp,
                exec_many,
                exec_one,
                fallback,
                &rounds,
                &mut cursor,
                fwd_workers,
                &mut host,
                &mut |_, _, _, _| {},
                &mut check,
                &mut metrics,
                &mut report,
            );
            (update_ms, update_errors) = updater.join().expect("control thread panicked");
        } else {
            // Every slice ends with SLO searches and, on the small
            // topology, with whole cycles of world changes (a cycle ends
            // healthy, the world the rounds' reference digests were
            // computed in), so the searches and the changes sample the
            // same stretches of host conditions as the forwarding phases.
            let phases = Phases {
                closed: Duration::from_secs_f64(0.2 * s),
                open_s: 0.25 * s,
                whole_phase: false,
                slices: SLICES,
            };
            let probe_s = 0.05 * s / (SLICES * SLO_SEARCHES) as f64;
            let cycles_for = Duration::from_secs_f64(0.1 * s / SLICES as f64);
            let mut snat = snat;
            let (update_ms, update_errors, searches) =
                (&mut update_ms, &mut update_errors, &mut searches);
            let mut between = |exec: &mut BatchExecutor,
                               fb: &mut SoftwareForwarder,
                               cursor: &mut usize,
                               check: &mut Check| {
                if !w.region_scale() {
                    let (ms, errs) = run_updates(
                        control,
                        script,
                        topology,
                        dp,
                        snat.as_deref_mut(),
                        Until::Budget(cycles_for),
                        fork,
                    );
                    update_ms.extend(ms);
                    update_errors.extend(errs);
                }
                for _ in 0..SLO_SEARCHES {
                    searches.push(slo_search(
                        dp,
                        exec,
                        fb,
                        &rounds,
                        cursor,
                        w.ladder(),
                        probe_s,
                        LATENCY_LIMIT_US * 1_000,
                        check,
                    ));
                }
            };
            forward_phases(
                w,
                &phases,
                dp,
                exec_many,
                exec_one,
                fallback,
                &rounds,
                &mut cursor,
                fwd_workers,
                &mut host,
                &mut between,
                &mut check,
                &mut metrics,
                &mut report,
            );
        }
    });
    if !args.trace {
        if churn {
            searches.push(slo_search(
                dp,
                exec_one,
                fallback,
                &rounds,
                &mut cursor,
                w.ladder(),
                0.05 * s,
                LATENCY_LIMIT_US * 1_000,
                &mut check,
            ));
        }
        report_slo(&searches, &mut metrics, &mut report);
    }
    tr.merge(fork);
    // World changes after forwarding: the move and its restore at region
    // scale (about a second each), whole script cycles for a tenth of the
    // time budget in the traced run on the small topology.
    if !churn && (args.trace || w.region_scale()) {
        let until = if w.region_scale() {
            Until::Count(5)
        } else {
            Until::Budget(Duration::from_secs_f64(0.1 * s))
        };
        let (ms, errs) = run_updates(
            control,
            &script,
            topology,
            dp,
            snat.as_mut(),
            until,
            &mut tr,
        );
        update_ms.extend(ms);
        update_errors.extend(errs);
    }
    for e in update_errors {
        check.error(format!("world change refused or not serving: {e}"));
    }
    if update_ms.is_empty() {
        check.error("no world change completed".into());
    }

    if update_ms.len() <= 12 {
        let each: Vec<String> = update_ms.iter().map(|m| format!("{m:.1}")).collect();
        let _ = writeln!(report, "world changes, ms each: {}", each.join(" "));
    }
    let (uq1, uq3) = quartiles(&update_ms);
    let _ = writeln!(
        report,
        "world changes: {} applied{}, submit-to-serving: mean of the quickest tenth {:.3} ms, median {:.3} ms (q1 {:.3}, q3 {:.3}, max {:.3})",
        update_ms.len(),
        if churn {
            " beside forwarding"
        } else if args.trace || w.region_scale() {
            " after forwarding"
        } else {
            " between forwarding slices"
        },
        mean_of_bottom(&update_ms, QUICK_SHARE),
        median(&update_ms),
        uq1,
        uq3,
        update_ms.iter().copied().fold(f64::NAN, f64::max)
    );

    if args.trace {
        control_layer_metrics(&tr, &mut metrics);
        let mut rows: Vec<String> = Vec::new();
        for m in &metrics {
            rows.push(format!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit));
        }
        let _ = writeln!(report, "per-layer (traced run):\n{}", rows.join("\n"));
    } else {
        let (sq1, sq3) = quartiles(&setup_s);
        let setup = median(&setup_s);
        let _ = writeln!(
            report,
            "setup: median {setup:.4} s over {} bring-ups (q1 {sq1:.4}, q3 {sq3:.4})",
            setup_s.len()
        );
        metrics.push(Metric {
            name: "update_ms",
            value: mean_of_bottom(&update_ms, QUICK_SHARE),
            unit: "ms",
        });
        metrics.push(Metric {
            name: "setup_s",
            value: setup,
            unit: "s",
        });
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
        });
        let _ = writeln!(
            report,
            "fail_frac: {} shed or unparsable + {} over the {LATENCY_LIMIT_US} us limit at the fixed rate, \
             of {} offered ({:.6})",
            check.failed,
            check.late,
            check.attempted,
            (check.failed + check.late) as f64 / check.attempted.max(1) as f64
        );
        // Scale to the nominal host speed: rates up and times down by
        // how much slower than nominal the host ran the reference loop.
        let speed = host.steps_per_us();
        let scale = NOMINAL_STEPS_PER_US / speed;
        let _ = writeln!(
            report,
            "host speed: reference loop {speed:.3} steps/us (quickest tenth of {} samples), \
             nominal {NOMINAL_STEPS_PER_US}: rates multiplied and times divided by {scale:.4}",
            host.count()
        );
        let mut rows: Vec<String> = Vec::new();
        for m in &mut metrics {
            let raw = m.value;
            match m.unit {
                "Mpps" => m.value *= scale,
                "us" | "ms" | "s" => m.value /= scale,
                _ => {}
            }
            rows.push(format!(
                "  {:<14} {:>14.4} {:<4} (raw {raw:.4})",
                m.name, m.value, m.unit
            ));
        }
        let _ = writeln!(report, "end-to-end:\n{}", rows.join("\n"));
    }
    let _ = writeln!(
        report,
        "checks: {} rounds digest-checked, {} packets in the allocation-gated window with {} allocations, {} errors",
        check.rounds_checked,
        check.steady_packets,
        check.steady_allocs,
        check.errors.len()
    );
    Outcome {
        metrics,
        report,
        check,
        spans: args.trace.then_some(tr),
    }
}

/// How the forwarding phases spend their time.
struct Phases {
    /// Length of each closed-loop phase.
    closed: Duration,
    /// Length of the fixed-rate open loop, seconds of offered traffic.
    open_s: f64,
    /// Report rates over each phase as a whole and p99 over all its
    /// packets (every stall counts) instead of over calls and windows:
    /// on `update_churn` the stall a world change causes is what is
    /// being measured.
    whole_phase: bool,
    /// Slices the three phases alternate in.
    slices: usize,
}

/// Slices the forwarding phases alternate in on workloads without churn.
const SLICES: usize = 12;
/// SLO searches at the end of each slice on workloads without churn.
const SLO_SEARCHES: usize = 2;
/// Host-speed samples before each part of a slice.
const HOST_SAMPLES: usize = 4;

/// Forwarding periods of `update_churn`, one world change each: closed
/// loop on every forwarding worker, closed loop on one, open loop, twice.
const CHURN_PERIODS: usize = 6;

/// Work run on one worker after each slice of the forwarding phases.
type Between<'a> =
    dyn FnMut(&mut BatchExecutor, &mut SoftwareForwarder, &mut usize, &mut Check) + 'a;

/// The forwarding phases: closed loop on every forwarding worker, closed
/// loop on one (allocation-gated), and the open loop at the workload's
/// fixed rate.
#[allow(clippy::too_many_arguments)]
fn forward_phases(
    w: Workload,
    phases: &Phases,
    dp: &Dataplane,
    exec_many: &mut BatchExecutor,
    exec_one: &mut BatchExecutor,
    fallback: &mut SoftwareForwarder,
    rounds: &Rounds,
    cursor: &mut usize,
    fwd_workers: usize,
    host: &mut HostSpeed,
    between: &mut Between,
    check: &mut Check,
    metrics: &mut Vec<Metric>,
    report: &mut String,
) {
    // The phases alternate in short slices so each samples the same
    // stretch of host conditions.
    let mut off = Tracer::new(false);
    let rate = w.open_rate_pps();
    let (mut many, mut one, mut open) = (Closed::default(), Closed::default(), Open::default());
    let slices = phases.slices.max(1);
    // The work on one worker (this thread) moves from CPU to CPU slice by
    // slice; the closed loop on every worker runs with every CPU allowed.
    // The host-speed reference is sampled before every part of a slice.
    let rotation = Rotation::new();
    for i in 0..slices {
        let part = phases.closed / slices as u32;
        rotation.release();
        host.sample(HOST_SAMPLES);
        many.absorb(closed_loop(
            dp, exec_many, fallback, rounds, cursor, part, false, &mut off, check,
        ));
        rotation.pin(i);
        host.sample(HOST_SAMPLES);
        one.absorb(closed_loop(
            dp, exec_one, fallback, rounds, cursor, part, true, &mut off, check,
        ));
        host.sample(HOST_SAMPLES);
        open.absorb(open_loop(
            dp,
            exec_one,
            fallback,
            rounds,
            cursor,
            rate,
            (rate * phases.open_s / slices as f64) as usize,
            usize::MAX,
            check,
        ));
        host.sample(HOST_SAMPLES);
        between(exec_one, fallback, cursor, check);
    }
    rotation.release();
    let limit_ns = LATENCY_LIMIT_US * 1_000;
    check.late += open
        .lat_ns
        .iter()
        .filter(|l| u64::from(**l) > limit_ns)
        .count() as u64;

    let rate_of = |c: &Closed| {
        if phases.whole_phase {
            c.aggregate_mpps()
        } else {
            c.rate_mpps()
        }
    };
    let describe = |label: &str, c: &Closed| {
        let (q1, q3) = quartiles(&c.call_mpps);
        format!(
            "{label}: {:.4} Mpps ({}); per call median {:.4} (q1 {q1:.4}, q3 {q3:.4}, {} calls), \
             whole phase {:.4}; {} packets, {:.1}% cache hits",
            rate_of(c),
            if phases.whole_phase {
                "whole phase"
            } else {
                "mean of the quickest tenth of calls"
            },
            median(&c.call_mpps),
            c.call_mpps.len(),
            c.aggregate_mpps(),
            c.packets,
            100.0 * c.counters.cache_hits as f64
                / (c.counters.cache_hits + c.counters.cache_misses).max(1) as f64
        )
    };
    let _ = writeln!(
        report,
        "{}",
        describe(&format!("closed loop, {fwd_workers} workers"), &many)
    );
    let _ = writeln!(report, "{}", describe("closed loop, 1 worker", &one));
    let per_window = window_packets(rate);
    let (p50, mut p99) = open.window_latency_us(per_window);
    if phases.whole_phase {
        p99 = open.latency_us(0.99);
    }
    let _ = writeln!(
        report,
        "{}",
        describe_open(&open, rate, per_window, p50, p99)
    );
    metrics.push(Metric {
        name: "fwd_mpps",
        value: rate_of(&many),
        unit: "Mpps",
    });
    metrics.push(Metric {
        name: "fwd_mpps_1w",
        value: rate_of(&one),
        unit: "Mpps",
    });
    metrics.push(Metric {
        name: "lat_p50_us",
        value: p50,
        unit: "us",
    });
    metrics.push(Metric {
        name: "lat_p99_us",
        value: p99,
        unit: "us",
    });
}

/// Reports the SLO searches. Each search's result is the offered rate of
/// its highest passing rung (the delivered rate when none passed);
/// `slo_mpps` is the mean of the results over
/// the quickest tenth of them.
fn report_slo(searches: &[(Probe, Vec<Probe>)], metrics: &mut Vec<Metric>, report: &mut String) {
    for (i, (best, probes)) in searches.iter().enumerate() {
        let tried: Vec<String> = probes
            .iter()
            .map(|p| {
                if p.pass {
                    format!("{:.4}+", p.offered_mpps)
                } else {
                    format!("{:.4}-({:.0}us)", p.offered_mpps, p.p99_us)
                }
            })
            .collect();
        let _ = writeln!(
            report,
            "  slo search {i}: probes (Mpps offered, + pass, - fail with median window p99) {}; highest rung {:.4} offered, {:.4} delivered{}",
            tried.join(" "),
            best.offered_mpps,
            best.delivered_mpps,
            if best.pass { "" } else { " (no rung passed; lowest rung reported)" }
        );
    }
    let results: Vec<f64> = searches
        .iter()
        .map(|(b, _)| {
            if b.pass {
                b.offered_mpps
            } else {
                b.delivered_mpps
            }
        })
        .collect();
    let value = mean_of_top(&results, QUICK_SHARE);
    let _ = writeln!(
        report,
        "slo: highest ladder rate with window p99 <= {LATENCY_LIMIT_US} us, mean of the quickest tenth of {} searches: {value:.4} Mpps",
        searches.len()
    );
    metrics.push(Metric {
        name: "slo_mpps",
        value,
        unit: "Mpps",
    });
}

fn describe_open(open: &Open, rate: f64, per_window: usize, p50: f64, p99: f64) -> String {
    let over = open
        .lat_ns
        .iter()
        .filter(|l| u64::from(**l) > LATENCY_LIMIT_US * 1_000)
        .count();
    let mut all = open.lat_ns.clone();
    all.sort_unstable();
    let tail = tail_percentile(all.len());
    let mut late = open.lateness_ns.clone();
    late.sort_unstable();
    let p99s = open.window_percentiles_us(per_window).1;
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|q| format!("{:.1}", quantile(&p99s, *q)))
        .collect();
    format!(
        "open loop at {:.3} Mpps: {} packets, windows of {per_window} packets: reported p50 {p50:.2} us, p99 {p99:.2} us; \
         whole phase p50 {:.2} us, p{tail} {:.2} us, max {:.2} us; {over} over the limit; \
         generator lateness p99 {:.2} us, max {:.2} us; window p99 deciles 1/2.5/5/7.5/9: {}",
        rate / 1e6,
        all.len(),
        quantile_sorted(&all, 0.5) / 1e3,
        quantile_sorted(&all, tail / 100.0) / 1e3,
        quantile_sorted(&all, 1.0) / 1e3,
        quantile_sorted(&late, 0.99) / 1e3,
        quantile_sorted(&late, 1.0) / 1e3,
        deciles.join("/"),
    )
}

/// The traced run: tracing overhead, the executor's spans and counters,
/// every data-path layer, and the reconciliation of layer time against
/// end-to-end time per packet.
#[allow(clippy::too_many_arguments)]
fn traced_phases(
    w: Workload,
    s: f64,
    dp: &Dataplane,
    exec_one: &mut BatchExecutor,
    fallback: &mut SoftwareForwarder,
    inputs: &Inputs,
    seq: &[&[u8]],
    rounds: &Rounds,
    cursor: &mut usize,
    tr: &mut Tracer,
    check: &mut Check,
    metrics: &mut Vec<Metric>,
    report: &mut String,
) {
    // Alternate untraced and traced closed-loop slices on one worker.
    let mut off = Tracer::new(false);
    let slice = Duration::from_secs_f64(0.08 * s);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut run = Closed::default();
    for _ in 0..4 {
        let a = closed_loop(
            dp, exec_one, fallback, rounds, cursor, slice, true, &mut off, check,
        );
        plain.push(a.rate_mpps());
        let b = closed_loop(
            dp, exec_one, fallback, rounds, cursor, slice, true, tr, check,
        );
        traced.push(b.rate_mpps());
        run.absorb(b);
    }
    let overhead = 100.0 * (1.0 - median(&traced) / median(&plain));
    let _ = writeln!(
        report,
        "tracing overhead: {overhead:.2}% (1-worker fwd {:.4} Mpps traced vs {:.4} untraced, {} slices each)",
        median(&traced),
        median(&plain),
        traced.len()
    );

    let sample = &seq[..seq.len().min(LAYER_SAMPLE)];
    let layers = layers::run(dp, fallback, inputs, sample, tr);
    let totals = tr.totals();
    let per_call = |name: &str| {
        totals
            .get(name)
            .map_or(f64::NAN, |(ns, calls)| *ns as f64 / (*calls).max(1) as f64)
    };
    let layer = |name: &str| layers.values.get(name).copied().unwrap_or(f64::NAN);

    let c: &TableCounters = &run.counters;
    let pk = run.packets.max(1) as f64;
    let dpu = c.dpu_forwarded + c.dpu_dropped;
    let x86 = c.fallback_forwarded + c.fallback_dropped;
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    push("batch.execute_ns_per_pkt", run.exec_ns as f64 / pk, "ns");
    push(
        "batch.finish_ns_per_punt",
        run.finish_ns as f64 / run.punts.max(1) as f64,
        "ns",
    );
    push("batch.allocs_per_pkt", run.exec_allocs as f64 / pk, "count");
    push("net.view_parse_ns", per_call("net.view_parse"), "ns");
    push("net.owned_parse_ns", per_call("net.owned_parse"), "ns");
    push("cache.probe_ns", per_call("cache.probe"), "ns");
    push("cache.insert_ns", per_call("cache.insert"), "ns");
    push(
        "cache.hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "ratio",
    );
    push("tables.acl_ns", per_call("tables.acl"), "ns");
    push(
        "tables.route_lookup_ns",
        per_call("tables.route_lookup"),
        "ns",
    );
    push("tables.vm_lookup_ns", per_call("tables.vm_lookup"), "ns");
    push(
        "tables.vm_main_ratio",
        layer("tables.vm_main_ratio"),
        "ratio",
    );
    push("engine.walk_ns", per_call("engine.walk"), "ns");
    push("rewrite.patch_ns", per_call("rewrite.patch"), "ns");
    push("tier.place_ns", per_call("tier.place"), "ns");
    push("tier.dpu_share", dpu as f64 / pk, "ratio");
    push("tier.x86_share", x86 as f64 / pk, "ratio");
    push(
        "breaker.shed",
        (c.punt_rate_limited + c.punt_breaker_open + c.dpu_shed_meter + c.dpu_breaker_open) as f64,
        "count",
    );
    push("x86.process_ns", per_call("x86.process"), "ns");
    push("snat.outbound_ns", per_call("snat.outbound"), "ns");
    push(
        "snat.hw_share",
        c.snat_translations as f64 / c.punt_snat.max(1) as f64,
        "ratio",
    );
    push("epoch.pin_ns_p50", layer("epoch.pin_ns_p50"), "ns");
    push("epoch.pin_ns_p99", layer("epoch.pin_ns_p99"), "ns");
    push("trace.overhead_pct", overhead, "%");

    // Reconciliation: layer time weighted by how often the executor
    // called each layer per packet, against measured time per packet.
    let f = |n: u64| n as f64 / pk;
    let misses = c.cache_misses;
    let punts = dpu + x86;
    let parts: [(&str, f64, f64); 9] = [
        (
            "net.view_parse",
            per_call("net.view_parse"),
            f(c.parsed + c.dpu_spilled),
        ),
        ("cache.probe", per_call("cache.probe"), f(c.parsed + misses)),
        ("cache.insert", per_call("cache.insert"), f(misses)),
        (
            "net.owned_parse",
            per_call("net.owned_parse"),
            f(misses + punts),
        ),
        ("engine.walk", per_call("engine.walk"), f(misses)),
        (
            "rewrite.patch",
            per_call("rewrite.patch"),
            f(c.hw_forwarded.saturating_sub(c.snat_translations)),
        ),
        (
            "tier.place",
            per_call("tier.place"),
            if dp.config().tier.is_some() {
                f(c.punted())
            } else {
                0.0
            },
        ),
        ("x86.process", per_call("x86.process"), f(punts)),
        (
            "epoch.pin",
            layer("epoch.pin_ns_p50"),
            f(run.packets.div_ceil(dp.config().batch_size.max(1) as u64)),
        ),
    ];
    let e2e = (run.exec_ns + run.finish_ns) as f64 / pk;
    let sum: f64 = parts.iter().map(|(_, ns, freq)| ns * freq).sum();
    let mut line = format!("reconciliation ({}): ", w.name());
    for (name, ns, freq) in &parts {
        let _ = write!(line, "{name} {ns:.1} ns x {freq:.4} + ");
    }
    let _ = writeln!(
        report,
        "{} = {sum:.1} ns/pkt vs end-to-end {e2e:.1} ns/pkt; unattributed {:.1} ns ({:.1}%)",
        line.trim_end_matches(" + "),
        e2e - sum,
        100.0 * (e2e - sum) / e2e
    );
    push("recon.layer_sum_ns", sum, "ns");
    push("recon.e2e_ns", e2e, "ns");
    push("recon.gap_pct", 100.0 * (e2e - sum) / e2e, "%");
}

/// Control-path per-layer metrics from the spans of set-up and of the
/// world changes.
fn control_layer_metrics(tr: &Tracer, metrics: &mut Vec<Metric>) {
    let med = |name: &str, scale: f64| {
        let d: Vec<f64> = tr
            .durations(name)
            .iter()
            .map(|ns| *ns as f64 / scale)
            .collect();
        median(&d)
    };
    let rows: [(&'static str, &'static str, f64, &'static str); 6] = [
        ("epoch.build_ms", "epoch.build", 1e6, "ms"),
        ("epoch.publish_ms", "epoch.publish", 1e6, "ms"),
        (
            "controller.plan_split_ms",
            "controller.plan_split",
            1e6,
            "ms",
        ),
        ("controller.install_s", "controller.install", 1e9, "s"),
        ("verify.certify_ms", "verify.certify", 1e6, "ms"),
        ("verify.plan_ms", "verify.plan", 1e6, "ms"),
    ];
    for (metric, span, scale, unit) in rows {
        metrics.push(Metric {
            name: metric,
            value: med(span, scale),
            unit,
        });
    }
}
