//! Tunable parameters of the overlay-construction algorithm.

use overlay_netsim::caps::log2_ceil;

/// Parameters of `CreateExpander` and the surrounding pipeline (Section 2.1 of the
/// paper). All parameters are known to every node.
///
/// * `delta` (Δ) — the degree of every benign evolution graph, `Θ(log n)`, a multiple
///   of 8 so that Δ/8 tokens and 3Δ/8 acceptances are integral.
/// * `lambda` (Λ) — the minimum-cut size maintained by every evolution, `Θ(log n)`.
/// * `walk_len` (ℓ) — the (constant) length of the random walks.
/// * `evolutions` (L) — the number of graph evolutions, `Θ(log n)`.
/// * `ncc0_cap` — the per-round per-node message budget enforced by the simulator
///   (`Θ(log n)`; the algorithm needs roughly `Δ/2` messages per round, so the default
///   is `2Δ`).
/// * `bfs_rounds` — the round budget of the BFS phase (`Θ(log n)`).
/// * `seed` — seed for all randomness.
///
/// # Example
///
/// ```
/// use overlay_core::ExpanderParams;
/// let p = ExpanderParams::for_n(1024);
/// assert_eq!(p.delta % 8, 0);
/// assert!(p.tokens_per_node() >= 1);
/// p.validate().unwrap();
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpanderParams {
    /// Target degree Δ of every benign evolution graph (multiple of 8).
    pub delta: usize,
    /// Minimum-cut size Λ maintained by every evolution.
    pub lambda: usize,
    /// Random-walk length ℓ.
    pub walk_len: usize,
    /// Number of evolutions L.
    pub evolutions: usize,
    /// Per-node, per-round message cap enforced in the NCC0 simulation.
    pub ncc0_cap: usize,
    /// Round budget for the BFS phase that follows the evolutions.
    pub bfs_rounds: usize,
    /// Seed for all randomness.
    pub seed: u64,
}

impl ExpanderParams {
    /// Sensible defaults for a graph with `n` nodes: `Δ = 16·⌈log₂ n⌉`, `Λ = 2·⌈log₂ n⌉`,
    /// `ℓ = 16`, `L = ⌈log₂ n⌉ + 4`, cap `2Δ`, BFS budget `4·⌈log₂ n⌉ + 8`.
    ///
    /// The theory only needs `Δ, Λ = Ω(log n)` "with big enough constants"; the defaults
    /// here are the smallest constants for which the w.h.p. events (no cut losing all
    /// its edges, no node exceeding its capacity) hold comfortably at practical sizes.
    pub fn for_n(n: usize) -> Self {
        let log_n = log2_ceil(n).max(2);
        let delta = 16 * log_n;
        ExpanderParams {
            delta,
            lambda: 2 * log_n,
            walk_len: 16,
            evolutions: log_n + 4,
            ncc0_cap: 2 * delta,
            bfs_rounds: 4 * log_n + 8,
            seed: 0x0F0F_1234,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different walk length.
    pub fn with_walk_len(mut self, walk_len: usize) -> Self {
        self.walk_len = walk_len;
        self
    }

    /// Number of random-walk tokens each node starts per evolution (Δ/8).
    pub fn tokens_per_node(&self) -> usize {
        self.delta / 8
    }

    /// Maximum number of tokens a node accepts per evolution (3Δ/8).
    pub(crate) fn max_accepts(&self) -> usize {
        3 * self.delta / 8
    }

    /// Checks internal consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.delta == 0 || !self.delta.is_multiple_of(8) {
            return Err(format!(
                "delta must be a positive multiple of 8, got {}",
                self.delta
            ));
        }
        if self.lambda == 0 {
            return Err("lambda must be positive".to_string());
        }
        if self.walk_len == 0 {
            return Err("walk_len must be positive".to_string());
        }
        if self.evolutions == 0 {
            return Err("evolutions must be positive".to_string());
        }
        if self.ncc0_cap < self.delta / 2 {
            return Err(format!(
                "ncc0_cap {} is too small for delta {} (needs at least delta/2)",
                self.ncc0_cap, self.delta
            ));
        }
        Ok(())
    }

    /// The largest initial (undirected) degree `d` this parameter set can preprocess:
    /// `MakeBenign` copies every initial edge Λ times and needs Δ/2 self-loops left over
    /// for laziness, so we need `d·Λ ≤ Δ/2`.
    pub fn max_initial_degree(&self) -> usize {
        self.delta / (2 * self.lambda)
    }
}

/// A multiplier applied to every phase's round budget in
/// [`crate::OverlayBuilder::build_under_faults`].
///
/// The paper's schedules are exact for a clean network, so the clean budgets leave
/// only a round or two of slack. Under injected faults — delivery jitter holding
/// messages back several rounds, or joiners activating deep into construction — a run
/// can need more wall-rounds than the clean schedule even though the protocol is
/// perfectly healthy, and judging it against the clean budget misreports it as
/// stalled. A `RoundBudget` lets a scenario *declare* that extra allowance up front.
///
/// The multiplier is stored in percent (e.g. `150` = 1.5× the clean budget) so the
/// type stays `Copy + Eq + Hash` and renders exactly in JSON reports. Budgets are
/// applied per phase with ceiling division and never shrink a budget below the clean
/// one, so [`RoundBudget::STANDARD`] (100%) reproduces the historical behavior
/// bit-for-bit.
///
/// A budget may also declare *additive slack* ([`RoundBudget::with_slack`]): a flat
/// number of extra rounds added to every phase after the percent scaling. Slack is
/// the right shape for reliable-transport retry round-trips, which cost a
/// *constant* number of rounds per phase (each retransmission-plus-ack chain is a
/// fixed-length exchange) — a percent multiplier can never grant a 1-round phase
/// like binarization the handful of extra rounds a retry chain needs without
/// absurdly inflating the long phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RoundBudget {
    percent: u32,
    slack: u32,
}

impl RoundBudget {
    /// The clean-network budget: exactly the paper's schedule (100%).
    pub const STANDARD: RoundBudget = RoundBudget {
        percent: 100,
        slack: 0,
    };

    /// A budget of `percent`% of the clean schedule.
    ///
    /// # Panics
    ///
    /// Panics if `percent < 100`: phases cannot run on less than the clean schedule
    /// (the protocols are round-driven and would be cut off mid-phase).
    pub fn percent(percent: u32) -> Self {
        assert!(
            percent >= 100,
            "round budget must be at least the clean schedule (100%), got {percent}%"
        );
        RoundBudget { percent, slack: 0 }
    }

    /// Returns the budget with `slack` flat extra rounds added to every phase
    /// (after the percent scaling). This is how reliable-transport scenarios
    /// declare room for retry round-trips: a retransmission-plus-ack chain costs a
    /// constant number of rounds regardless of the phase's length.
    pub fn with_slack(mut self, slack: u32) -> Self {
        self.slack = slack;
        self
    }

    /// The multiplier in percent (`100` = clean budget).
    pub fn as_percent(&self) -> u32 {
        self.percent
    }

    /// The flat extra rounds granted to every phase (`0` = pure multiplier).
    pub fn slack(&self) -> u32 {
        self.slack
    }

    /// Scales a clean phase budget, rounding up — never below `base` — then adds
    /// the flat slack.
    pub(crate) fn apply(&self, base: usize) -> usize {
        let scaled = (base * self.percent as usize).div_ceil(100);
        scaled.max(base) + self.slack as usize
    }
}

impl Default for RoundBudget {
    fn default() -> Self {
        RoundBudget::STANDARD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        for n in [2usize, 10, 100, 1024, 1 << 16] {
            let p = ExpanderParams::for_n(n);
            p.validate().expect("default parameters must validate");
            assert!(p.tokens_per_node() >= 1);
            assert_eq!(p.max_accepts(), 3 * p.tokens_per_node());
            assert!(p.max_initial_degree() >= 4);
        }
    }

    #[test]
    fn builder_style_modifiers() {
        let p = ExpanderParams::for_n(64).with_seed(9).with_walk_len(5);
        assert_eq!(p.seed, 9);
        assert_eq!(p.walk_len, 5);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut p = ExpanderParams::for_n(64);
        p.delta = 12;
        assert!(p.validate().is_err());
        let mut p = ExpanderParams::for_n(64);
        p.lambda = 0;
        assert!(p.validate().is_err());
        let mut p = ExpanderParams::for_n(64);
        p.walk_len = 0;
        assert!(p.validate().is_err());
        let mut p = ExpanderParams::for_n(64);
        p.evolutions = 0;
        assert!(p.validate().is_err());
        let mut p = ExpanderParams::for_n(64);
        p.ncc0_cap = 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn round_budget_scales_with_ceiling_and_never_shrinks() {
        assert_eq!(RoundBudget::STANDARD.apply(37), 37);
        assert_eq!(RoundBudget::default(), RoundBudget::STANDARD);
        assert_eq!(RoundBudget::percent(150).apply(10), 15);
        assert_eq!(RoundBudget::percent(150).apply(11), 17); // ceil(16.5)
        assert_eq!(RoundBudget::percent(200).apply(0), 0);
        assert_eq!(RoundBudget::percent(125).as_percent(), 125);
    }

    #[test]
    fn round_budget_slack_is_flat_per_phase() {
        let b = RoundBudget::STANDARD.with_slack(10);
        assert_eq!(b.slack(), 10);
        assert_eq!(b.as_percent(), 100);
        // Slack lands on top of the (never-shrinking) scaled budget: a 1-round
        // phase gets the same absolute retry headroom as a 200-round one.
        assert_eq!(b.apply(1), 11);
        assert_eq!(b.apply(200), 210);
        assert_eq!(RoundBudget::percent(150).with_slack(4).apply(10), 19);
        assert_eq!(RoundBudget::STANDARD.with_slack(0), RoundBudget::STANDARD);
    }

    #[test]
    #[should_panic(expected = "at least the clean schedule")]
    fn round_budget_rejects_sub_clean_multipliers() {
        let _ = RoundBudget::percent(99);
    }

    #[test]
    fn delta_scales_with_log_n() {
        let p1 = ExpanderParams::for_n(1 << 8);
        let p2 = ExpanderParams::for_n(1 << 16);
        assert_eq!(p1.delta, 16 * 8);
        assert_eq!(p2.delta, 16 * 16);
    }
}
