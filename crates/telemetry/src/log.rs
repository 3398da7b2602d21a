//! Tiny leveled stderr logger.
//!
//! `P2PQ_LOG=off|warn|info|debug` selects the level (default `info`,
//! which keeps the `[bench]` status lines visible). The level is
//! parsed once and cached in an atomic, so a
//! disabled [`warn!`](crate::warn)/[`info!`](crate::info)/
//! [`debug!`](crate::debug) costs one relaxed load and a branch — no
//! formatting.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// Log severity, ordered from quietest to chattiest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is logged.
    Off = 0,
    /// Degradations and surprises.
    Warn = 1,
    /// Progress and status lines (default).
    Info = 2,
    /// Per-phase diagnostics.
    Debug = 3,
}

const UNPARSED: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNPARSED);

fn parse_env() -> Level {
    match std::env::var("P2PQ_LOG").as_deref() {
        Ok("off") | Ok("none") => Level::Off,
        Ok("warn") => Level::Warn,
        Ok("debug") => Level::Debug,
        _ => Level::Info,
    }
}

/// The active level (parsing `P2PQ_LOG` on first call).
pub fn level() -> Level {
    match LEVEL.load(Relaxed) {
        UNPARSED => {
            let l = parse_env();
            LEVEL.store(l as u8, Relaxed);
            l
        }
        0 => Level::Off,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Override the level programmatically (tests, tools).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Relaxed);
}

/// Whether messages at `l` are emitted.
#[inline]
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Log at warn level (`[warn]` prefix on stderr).
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            eprintln!("[warn] {}", format_args!($($t)*));
        }
    };
}

/// Log at info level.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            eprintln!($($t)*);
        }
    };
}

/// Log at debug level (`[debug]` prefix on stderr).
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            eprintln!("[debug] {}", format_args!($($t)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates() {
        set_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Warn));
        set_level(Level::Debug);
        assert!(enabled(Level::Info));
        // Restore the default for other tests in the process.
        set_level(Level::Info);
    }
}
