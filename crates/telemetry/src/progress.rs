//! Live campaign progress reporter.
//!
//! Long paper-scale campaigns are silent for minutes; with
//! `P2PQ_PROGRESS=1` the collector's existing 8k-record drain boundary
//! feeds this reporter, which prints a one-line status to stderr at
//! most once per second:
//!
//! ```text
//! [progress] day 12.4 | 38.2M msgs | 1.61M msg/s | trace 29.3 MiB | rss 115.2 MiB
//! ```
//!
//! When the variable is unset the hot-path cost is one relaxed atomic
//! load and a branch per drain (~once per 8 192 records).

use crate::counters::{global, Gauge};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

const UNPARSED: u8 = u8::MAX;

static ENABLED: AtomicU8 = AtomicU8::new(UNPARSED);
static RECORDS: AtomicU64 = AtomicU64::new(0);
static LAST_PRINT_MS: AtomicU64 = AtomicU64::new(0);
static LAST_RECORDS: AtomicU64 = AtomicU64::new(0);

/// Minimum milliseconds between printed lines.
const INTERVAL_MS: u64 = 1_000;

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Whether the reporter is active (`P2PQ_PROGRESS=1`, parsed once).
pub fn enabled() -> bool {
    match ENABLED.load(Relaxed) {
        UNPARSED => {
            let on = matches!(
                std::env::var("P2PQ_PROGRESS").as_deref(),
                Ok("1") | Ok("true") | Ok("on")
            );
            ENABLED.store(on as u8, Relaxed);
            on
        }
        v => v != 0,
    }
}

/// Force the reporter on or off (tools/tests).
pub fn set_enabled(on: bool) {
    ENABLED.store(on as u8, Relaxed);
}

/// Report `n` freshly drained records at virtual time `virtual_secs`.
/// Called from the collector's drain boundary; throttled internally.
#[inline]
pub fn record_batch(n: u64, virtual_secs: f64) {
    if !enabled() {
        return;
    }
    let total = RECORDS.fetch_add(n, Relaxed) + n;
    let now_ms = process_start().elapsed().as_millis() as u64;
    let last = LAST_PRINT_MS.load(Relaxed);
    if now_ms.saturating_sub(last) < INTERVAL_MS {
        return;
    }
    // One printer per interval: whoever wins the CAS reports.
    if LAST_PRINT_MS
        .compare_exchange(last, now_ms, Relaxed, Relaxed)
        .is_err()
    {
        return;
    }
    let prev = LAST_RECORDS.swap(total, Relaxed);
    let interval_s = (now_ms - last).max(1) as f64 / 1_000.0;
    let rate = (total.saturating_sub(prev)) as f64 / interval_s;
    let trace_bytes = global().snapshot().gauge(Gauge::PeakTraceBytes);
    let rss = vm_rss_bytes().unwrap_or(0);
    eprintln!(
        "[progress] day {:.1} | {} msgs | {}/s | trace {} | rss {}",
        virtual_secs / 86_400.0,
        fmt_count(total),
        fmt_count(rate as u64),
        fmt_bytes(trace_bytes),
        fmt_bytes(rss),
    );
}

/// Human-readable count (`38.2M`, `612k`, `97`).
pub fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Human-readable byte count (`29.3 MiB`).
pub fn fmt_bytes(n: u64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let f = n as f64;
    if f >= MIB * 1024.0 {
        format!("{:.2} GiB", f / (MIB * 1024.0))
    } else if f >= MIB {
        format!("{:.1} MiB", f / MIB)
    } else {
        format!("{:.1} KiB", f / 1024.0)
    }
}

/// Current resident set size from `/proc/self/status` (`None` off
/// Linux or on parse failure).
pub fn vm_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporter_is_inert() {
        set_enabled(false);
        let before = RECORDS.load(Relaxed);
        record_batch(8_192, 1_000.0);
        assert_eq!(RECORDS.load(Relaxed), before);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_count(97), "97");
        assert_eq!(fmt_count(612_000), "612k");
        assert_eq!(fmt_count(38_200_000), "38.2M");
        assert_eq!(fmt_bytes(30_723_276), "29.3 MiB");
    }

    #[test]
    fn rss_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(vm_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
