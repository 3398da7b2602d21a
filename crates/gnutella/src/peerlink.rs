//! Connection liveness tracking.
//!
//! Most 2004-era clients never send BYE; they simply stop talking (§3.2).
//! The measurement peer therefore applies the mutella policy: when a
//! connection has been idle for 15 seconds it sends a single probe PING,
//! and if nothing arrives for another 15 seconds it closes the connection.
//! The paper notes this overestimates most session ends by ≈30 s; the
//! analysis pipeline corrects for it the same way.

use simnet::{SimDuration, SimTime};

/// Idle threshold before the probe PING.
pub const IDLE_PROBE_AFTER: SimDuration = SimDuration::from_secs(15);
/// Additional silence after the probe before closing.
pub(crate) const CLOSE_AFTER_PROBE: SimDuration = SimDuration::from_secs(15);

/// What the owner of a connection should do after an idle check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleAction {
    /// Connection is live; check again at the embedded deadline.
    CheckAt(SimTime),
    /// Send a probe PING now; check again at the embedded deadline.
    SendProbe(SimTime),
    /// The peer is gone; close the connection.
    Close,
}

/// Per-connection idle state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleTracker {
    last_received: SimTime,
    probe_sent_at: Option<SimTime>,
}

impl IdleTracker {
    /// Start tracking at connection establishment.
    pub fn new(now: SimTime) -> Self {
        IdleTracker {
            last_received: now,
            probe_sent_at: None,
        }
    }

    /// Record inbound traffic: resets the idle clock and clears any
    /// outstanding probe.
    pub fn on_receive(&mut self, now: SimTime) {
        self.last_received = now;
        self.probe_sent_at = None;
    }

    /// When [`Self::check`] closes the connection unless traffic arrives
    /// first: the outstanding probe's deadline, or `None` when no probe
    /// is outstanding.
    pub fn probe_deadline(&self) -> Option<SimTime> {
        self.probe_sent_at.map(|at| at + CLOSE_AFTER_PROBE)
    }

    /// Evaluate the connection at `now`.
    pub fn check(&mut self, now: SimTime) -> IdleAction {
        if let Some(probe_at) = self.probe_sent_at {
            // Waiting on a probe response.
            let deadline = probe_at + CLOSE_AFTER_PROBE;
            if now >= deadline {
                IdleAction::Close
            } else {
                IdleAction::CheckAt(deadline)
            }
        } else {
            let idle_deadline = self.last_received + IDLE_PROBE_AFTER;
            if now >= idle_deadline {
                self.probe_sent_at = Some(now);
                IdleAction::SendProbe(now + CLOSE_AFTER_PROBE)
            } else {
                IdleAction::CheckAt(idle_deadline)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_connection_never_probes() {
        let mut t = IdleTracker::new(SimTime::from_secs(0));
        for s in 1..100 {
            t.on_receive(SimTime::from_secs(s));
            match t.check(SimTime::from_secs(s)) {
                IdleAction::CheckAt(d) => assert_eq!(d, SimTime::from_secs(s + 15)),
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(t.probe_sent_at.is_none());
    }

    #[test]
    fn idle_connection_probes_then_closes() {
        let mut t = IdleTracker::new(SimTime::from_secs(0));
        assert_eq!(t.probe_deadline(), None);
        // At 15 s idle: probe.
        match t.check(SimTime::from_secs(15)) {
            IdleAction::SendProbe(deadline) => {
                assert_eq!(deadline, SimTime::from_secs(30));
            }
            other => panic!("expected probe, got {other:?}"),
        }
        assert_eq!(t.probe_deadline(), Some(SimTime::from_secs(30)));
        // Still silent at 30 s: close. Total overestimate ≈ 30 s, as the
        // paper states.
        assert_eq!(t.check(SimTime::from_secs(30)), IdleAction::Close);
    }

    #[test]
    fn probe_response_rescues_connection() {
        let mut t = IdleTracker::new(SimTime::from_secs(0));
        assert!(matches!(
            t.check(SimTime::from_secs(15)),
            IdleAction::SendProbe(_)
        ));
        // PONG arrives at 20 s.
        t.on_receive(SimTime::from_secs(20));
        assert_eq!(t.probe_deadline(), None);
        match t.check(SimTime::from_secs(21)) {
            IdleAction::CheckAt(d) => assert_eq!(d, SimTime::from_secs(35)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn early_check_defers() {
        let mut t = IdleTracker::new(SimTime::from_secs(100));
        match t.check(SimTime::from_secs(105)) {
            IdleAction::CheckAt(d) => assert_eq!(d, SimTime::from_secs(115)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.probe_sent_at.is_none());
        // Mid-probe early check defers to the probe deadline.
        assert!(matches!(
            t.check(SimTime::from_secs(115)),
            IdleAction::SendProbe(_)
        ));
        match t.check(SimTime::from_secs(120)) {
            IdleAction::CheckAt(d) => assert_eq!(d, SimTime::from_secs(130)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
