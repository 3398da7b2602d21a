//! One operation of one benchmark workload, measured in this process.
//!
//! `run.py` starts this binary once per operation, so the peak RSS and
//! CPU time it reports belong to that operation alone: no heap, symbol
//! interner or process-global counter carries over from another one.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --days <virtual days> --trace <0|1> [--drop-batch <k>]
//! ```
//!
//! The last line of standard output is one JSON object: the monotonic
//! clock at the first timed call (`run.py` takes set-up time from it),
//! wall and CPU seconds, output records, peak RSS, every output check with
//! both of its sides, and with `--trace 1` the per-layer figures and the
//! spans.
//! Exit code 0 means every check held, 1 that one failed, 2 bad usage.
//! `--drop-batch k` makes the traced run's sink wrapper silently drop its
//! k-th batch, a fault the checks must reject.

mod span;
mod workload;

use serde::Serialize;
use span::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Check, Output, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper_repro|stream_hybrid|admission_flood|generate> \
--seed <n> --days <virtual days> --trace <0|1> [--drop-batch <k>]";

struct Args {
    workload: Workload,
    seed: u64,
    days: f64,
    trace: bool,
    drop_batch: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let name = need(get("--workload"), "--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = need(get("--seed"), "--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let days = need(get("--days"), "--days")?
        .parse::<f64>()
        .map_err(|e| format!("--days: {e}"))?;
    if !(days.is_finite() && days > workload.min_days() && days <= 10_000.0) {
        return Err(format!(
            "--days must lie in ({}, 10000] for {name}",
            workload.min_days()
        ));
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let drop_batch = match get("--drop-batch") {
        None => None,
        Some(k) => Some(k.parse::<u64>().map_err(|e| format!("--drop-batch: {e}"))?),
    };
    if drop_batch.is_some() && !trace {
        return Err("--drop-batch needs --trace 1 (the wrapper drops the batch)".into());
    }
    Ok(Args {
        workload,
        seed,
        days,
        trace,
        drop_batch,
    })
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_MONOTONIC` in nanoseconds: the clock of Python's
/// `time.monotonic_ns()`, so `run.py` can subtract the moment it started
/// this process.
fn monotonic_ns() -> u64 {
    const CLOCK_MONOTONIC: i32 = 1;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` that
    // clock_gettime fills and does not keep.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// User + system CPU seconds of this process so far.
fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` (the layout of
    // 64-bit Linux mirrored above) that getrusage fills and does not keep.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace, origin);
    let prepared = tr.span("setup", |tr| {
        workload::prepare(args.workload, args.seed, args.days, tr, args.drop_batch)
    });

    let first_call_mono_ns = monotonic_ns();
    let first = tr.now();
    let cpu0 = cpu_seconds();
    let output = workload::run(prepared, args.seed, &mut tr);
    let cpu_s = cpu_seconds() - cpu0;
    let last = tr.now();
    let rss_mb = peak_rss_mb();

    let checks = output.checks();
    let ok = checks.iter().all(|c| c.holds);
    let (layers, spans, sink_calls) = if tr.on() {
        let layers: BTreeMap<_, _> = output.layers(&tr, first, last).into_iter().collect();
        assert!(
            layers.values().all(|v| v.is_finite()),
            "non-finite layer figure"
        );
        (
            Some(layers),
            Some(spans(&tr, &output)),
            Some(sink_calls(&output)),
        )
    } else {
        (None, None, None)
    };
    let report = Report {
        workload: args.workload.name(),
        seed: args.seed,
        days: args.days,
        traced: args.trace,
        ok,
        first_call_mono_ns,
        wall_s: last - first,
        cpu_s,
        records: output.records(),
        peak_rss_mb: rss_mb,
        fingerprint: output.fingerprint(),
        checks,
        layers,
        spans,
        sink_calls,
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("serialize the report")
    );
    std::process::exit(if ok { 0 } else { 1 });
}

/// The result line of one operation.
#[derive(Serialize)]
struct Report {
    workload: &'static str,
    seed: u64,
    days: f64,
    traced: bool,
    /// Every check held.
    ok: bool,
    /// `CLOCK_MONOTONIC` at the first timed call.
    first_call_mono_ns: u64,
    /// From the first timed call to the workload's final result.
    wall_s: f64,
    /// User + system CPU seconds over the same span.
    cpu_s: f64,
    records: u64,
    peak_rss_mb: f64,
    fingerprint: Vec<u64>,
    checks: Vec<Check>,
    /// Traced operations only, as are `spans` and `sink_calls`.
    layers: Option<BTreeMap<&'static str, f64>>,
    spans: Option<Vec<SpanReport>>,
    sink_calls: Option<Vec<SinkCallReport>>,
}

/// A span, in seconds since the process entered `main`.
#[derive(Serialize)]
struct SpanReport {
    name: &'static str,
    parent: Option<&'static str>,
    start: f64,
    end: f64,
    self_s: f64,
}

/// The per-call sink spans of one sink method, aggregated by name; their
/// parent is the campaign span.
#[derive(Serialize)]
struct SinkCallReport {
    name: String,
    calls: u64,
    records: u64,
    total_s: f64,
}

fn spans(tr: &Tracer, output: &Output) -> Vec<SpanReport> {
    let sink_s = output.sink_tally().map_or(0.0, |(_, t)| t.secs());
    tr.spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut self_s = tr.self_secs(i);
            if s.name == "behavior.campaign" {
                self_s -= sink_s;
            }
            SpanReport {
                name: s.name,
                parent: s.parent.map(|p| tr.spans[p].name),
                start: s.start,
                end: s.end,
                self_s,
            }
        })
        .collect()
}

fn sink_calls(output: &Output) -> Vec<SinkCallReport> {
    let Some((layer, t)) = output.sink_tally() else {
        return Vec::new();
    };
    [
        ("on_connect", t.on_connect),
        ("on_batch", t.on_batch),
        ("on_close", t.on_close),
    ]
    .into_iter()
    .map(|(method, c)| SinkCallReport {
        name: format!("{layer}.{method}"),
        calls: c.calls,
        records: c.records,
        total_s: c.ns as f64 / 1e9,
    })
    .collect()
}
