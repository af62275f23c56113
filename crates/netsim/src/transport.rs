//! Configuration of the reliable-delivery transport layer.
//!
//! The paper's protocols assume perfectly reliable synchronous delivery; the
//! `overlay-transport` crate provides a `Reliable<P>` adapter that wraps any
//! [`crate::Protocol`] with at-least-once delivery (per-peer sequence numbers,
//! cumulative/selective acknowledgments, deterministic retransmission timers in
//! rounds, and duplicate suppression). [`TransportConfig`] is that adapter's knob
//! set. It lives here — next to the [`crate::RoundMetrics`] counters the adapter
//! reports into — so every layer (netsim, core, scenarios) can speak about
//! transport settings without depending on the adapter implementation.

/// Tuning knobs of the reliable-delivery adapter.
///
/// All values are in *rounds* or *messages*; there is no wall-clock anywhere. The
/// defaults are chosen so that a fault-free run behaves exactly like the unwrapped
/// protocol: data is delivered one round after sending (same latency as a bare
/// send), windows are wide enough that the paper's protocols never queue, and the
/// retransmission timer only fires when the one-round ack round-trip was actually
/// missed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TransportConfig {
    /// Rounds a data message may stay unacknowledged before it is retransmitted.
    ///
    /// The fastest possible acknowledgment for a message sent in round `r` arrives
    /// in round `r + 2` (data lands at `r + 1`, the ack lands one round later), and
    /// acknowledgments are processed *before* the retransmission timer is checked,
    /// so the minimum useful value — and the default — is `2`: a clean round-trip
    /// never triggers a spurious resend.
    pub retransmit_after: usize,
    /// Maximum number of retransmissions per data message before the transport
    /// gives up on it (at-least-once delivery is only an *attempt* against a peer
    /// that is crashed or partitioned away forever). Abandoned messages stop
    /// blocking [`crate::Protocol::is_done`].
    pub max_retransmits: usize,
    /// Maximum number of sent-but-unacknowledged data messages per peer. Further
    /// sends to that peer queue inside the adapter and enter the network as the
    /// window reopens; this bounds how much transport traffic a lossy round can
    /// add on top of the wrapped protocol's own `O(log n)` per-round budget.
    pub window: usize,
    /// Per-peer failure detection. When `false` (the default), the
    /// retransmission budget is spent *per message*: against a crashed peer,
    /// every queued payload burns its full `max_retransmits` before being
    /// abandoned. When `true`, the first payload to exhaust its budget marks
    /// the whole peer as failed: every other pending payload to that peer is
    /// abandoned on the spot and future sends to it are dropped immediately —
    /// the dead peer costs one give-up instead of one per message. Detection
    /// silences the *sender* role only (data from a falsely-suspected peer is
    /// still received and acknowledged) and is permanent for the run, matching
    /// the simulator's crash-stop fault model.
    pub failure_detector: bool,
}

impl TransportConfig {
    /// Returns the config with a different retransmission timeout (rounds).
    ///
    /// # Panics
    ///
    /// Panics if `rounds < 2`: an acknowledgment takes two rounds to return, so a
    /// smaller timeout would retransmit every message every round.
    pub fn with_retransmit_after(mut self, rounds: usize) -> Self {
        self.retransmit_after = rounds;
        self.assert_valid();
        self
    }

    /// Returns the config with a different per-message retransmission budget.
    pub fn with_max_retransmits(mut self, max: usize) -> Self {
        self.max_retransmits = max;
        self
    }

    /// Returns the config with a different per-peer in-flight window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (nothing could ever be sent) or `window > 64`:
    /// the adapter's selective acknowledgment is a 64-bit bitmap above the
    /// cumulative horizon, so an out-of-order delivery more than 64 sequences
    /// ahead could never be reported back and would be spuriously retransmitted
    /// until the horizon catches up — a wider window silently degrades instead
    /// of helping.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self.assert_valid();
        self
    }

    /// The builders' checks in one place, for a config written as a struct
    /// literal (the fields are public) as much as for a built one.
    ///
    /// # Panics
    ///
    /// Panics if `retransmit_after < 2` or `window` is outside `1..=64`; see
    /// [`Self::with_retransmit_after`] and [`Self::with_window`] for why.
    pub fn assert_valid(&self) {
        assert!(
            self.retransmit_after >= 2,
            "retransmit timeout below the 2-round ack round-trip: {}",
            self.retransmit_after
        );
        assert!(self.window >= 1, "a zero window can never send");
        assert!(
            self.window <= 64,
            "window {} exceeds the 64-sequence selective-ack bitmap",
            self.window
        );
    }

    /// Returns the config with per-peer failure detection switched on or off.
    pub fn with_failure_detector(mut self, enabled: bool) -> Self {
        self.failure_detector = enabled;
        self
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            retransmit_after: 2,
            max_retransmits: 32,
            window: 64,
            failure_detector: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let c = TransportConfig::default();
        assert_eq!(c.retransmit_after, 2);
        assert_eq!(c.max_retransmits, 32);
        assert_eq!(c.window, 64);
        assert!(!c.failure_detector);
        let c = c
            .with_retransmit_after(4)
            .with_max_retransmits(8)
            .with_window(16)
            .with_failure_detector(true);
        assert_eq!(
            (c.retransmit_after, c.max_retransmits, c.window),
            (4, 8, 16)
        );
        assert!(c.failure_detector);
    }

    #[test]
    #[should_panic(expected = "ack round-trip")]
    fn rejects_sub_roundtrip_timeout() {
        let _ = TransportConfig::default().with_retransmit_after(1);
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn rejects_zero_window() {
        let _ = TransportConfig::default().with_window(0);
    }

    #[test]
    #[should_panic(expected = "selective-ack bitmap")]
    fn rejects_window_beyond_the_ack_bitmap() {
        let _ = TransportConfig::default().with_window(65);
    }
}
