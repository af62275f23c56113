//! Continuous churn schedules: ongoing join/leave/crash arrival processes.
//!
//! A [`crate::FaultPlan`] describes *one-shot* interference — a crash wave at a
//! fixed round, a batch of delayed joiners — which is the right shape for a
//! bounded construction run. A long-running overlay service faces the opposite
//! regime: nodes arrive, depart, and crash **forever**, at steady rates, with
//! no final round after which the membership stops moving. A [`ChurnSchedule`]
//! models that regime as a deterministic arrival process: for every simulated
//! round it yields how many fresh nodes join, and which currently-alive members
//! leave gracefully or crash-stop.
//!
//! # Determinism
//!
//! Event *counts* come from a fixed-rate accumulator
//! (`⌊rate·(round+1)⌋ − ⌊rate·round⌋`), so they are an exact function of the
//! rate and the round number — no RNG, no drift. Victim *choices* are drawn
//! from a per-round RNG seeded from `(schedule seed, round)`, so a schedule
//! replays identically regardless of how the caller interleaves sampling with
//! other work. Two samples of the same `(round, alive)` pair are equal.
//!
//! # Victim ranks
//!
//! The schedule cannot know the caller's membership table, so departures are
//! reported as *ranks* into the caller's current alive list, applied
//! sequentially: each rank indexes the alive list **after** the previous
//! victims in the same [`RoundChurn`] have been removed (leaves first, then
//! crashes). Applying them in order therefore never indexes out of bounds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A periodic crash burst layered on top of the steady crash rate.
///
/// Bursts model correlated failures (a rack power event, a rolling reboot):
/// every `every_rounds` rounds, `fraction` of the currently-alive membership
/// crash-stops at once. The serve-family metric *rounds-to-repair* measures
/// how quickly maintenance restores coverage after each burst.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashBurst {
    /// Burst period in rounds (a burst fires at every positive multiple).
    pub every_rounds: usize,
    /// Fraction of the alive membership crashed per burst (`0.0..=1.0`).
    pub fraction: f64,
}

/// A deterministic continuous churn process: steady join/leave/crash rates
/// plus an optional periodic [`CrashBurst`].
///
/// Rates are *expected events per round* (absolute, not per-node) and may be
/// fractional: a `join_rate` of `0.1` admits one joiner every ten rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSchedule {
    /// Seed for victim selection (counts are rate-only and seed-independent).
    pub seed: u64,
    /// Expected fresh-node arrivals per round.
    pub join_rate: f64,
    /// Expected graceful departures per round.
    pub leave_rate: f64,
    /// Expected crash-stop failures per round (steady component).
    pub crash_rate: f64,
    /// Optional periodic correlated-failure burst.
    pub burst: Option<CrashBurst>,
}

/// The churn events of one round, in application order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundChurn {
    /// Number of fresh nodes arriving this round.
    pub joins: usize,
    /// Graceful departures, as sequential ranks into the caller's alive list
    /// (see the module docs); applied before `crashes`.
    pub leaves: Vec<usize>,
    /// Crash-stop victims, as sequential ranks into the alive list *after*
    /// the leaves have been removed.
    pub crashes: Vec<usize>,
}

impl RoundChurn {
    /// `true` when the round carries no churn at all.
    pub fn is_empty(&self) -> bool {
        self.joins == 0 && self.leaves.is_empty() && self.crashes.is_empty()
    }
}

/// Events implied by `rate` in the half-open round interval `[round, round+1)`.
fn rate_count(rate: f64, round: usize) -> usize {
    let r = round as f64;
    ((rate * (r + 1.0)).floor() - (rate * r).floor()) as usize
}

impl ChurnSchedule {
    /// A schedule with the given seed and all rates zero — a quiet service.
    pub fn quiet(seed: u64) -> Self {
        ChurnSchedule {
            seed,
            join_rate: 0.0,
            leave_rate: 0.0,
            crash_rate: 0.0,
            burst: None,
        }
    }

    /// Validates the schedule: rates must be finite and non-negative, and a
    /// burst fraction must lie in `0.0..=1.0` with a positive period.
    ///
    /// # Panics
    ///
    /// Panics on any violation; schedules are configuration, so a bad one is
    /// a programming error.
    pub fn validate(&self) {
        for (label, rate) in [
            ("join_rate", self.join_rate),
            ("leave_rate", self.leave_rate),
            ("crash_rate", self.crash_rate),
        ] {
            assert!(
                rate.is_finite() && rate >= 0.0,
                "ChurnSchedule::{label} must be finite and non-negative, got {rate}"
            );
        }
        if let Some(burst) = self.burst {
            assert!(
                burst.every_rounds > 0,
                "CrashBurst::every_rounds must be positive"
            );
            assert!(
                (0.0..=1.0).contains(&burst.fraction) && burst.fraction.is_finite(),
                "CrashBurst::fraction must lie in 0.0..=1.0, got {}",
                burst.fraction
            );
        }
    }

    /// `true` when a burst fires at the start of `round`.
    pub fn burst_at(&self, round: usize) -> bool {
        match self.burst {
            Some(b) => round > 0 && round.is_multiple_of(b.every_rounds),
            None => false,
        }
    }

    /// Samples the churn of one round against an alive population of size
    /// `alive`. Pure in `(self, round, alive)`; see the module docs for the
    /// rank semantics of `leaves`/`crashes`.
    pub fn sample(&self, round: usize, alive: usize) -> RoundChurn {
        let joins = rate_count(self.join_rate, round);
        let mut wanted_leaves = rate_count(self.leave_rate, round);
        let mut wanted_crashes = rate_count(self.crash_rate, round);
        if self.burst_at(round) {
            let b = self.burst.expect("burst_at implies a burst is configured");
            wanted_crashes += (b.fraction * alive as f64).ceil() as usize;
        }

        // Per-round RNG: mix the round into the seed with SplitMix64's odd
        // constant so adjacent rounds decorrelate.
        let mix = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1);
        let mut rng = StdRng::seed_from_u64(self.seed ^ mix);

        let mut remaining = alive;
        let mut pick = |wanted: usize, remaining: &mut usize| -> Vec<usize> {
            let take = wanted.min(*remaining);
            (0..take)
                .map(|_| {
                    let rank = rng.gen_range(0..*remaining);
                    *remaining -= 1;
                    rank
                })
                .collect()
        };
        wanted_leaves = wanted_leaves.min(remaining);
        let leaves = pick(wanted_leaves, &mut remaining);
        wanted_crashes = wanted_crashes.min(remaining);
        let crashes = pick(wanted_crashes, &mut remaining);

        RoundChurn {
            joins,
            leaves,
            crashes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_the_rate_accumulator_exactly() {
        let s = ChurnSchedule {
            seed: 7,
            join_rate: 0.3,
            leave_rate: 0.0,
            crash_rate: 0.0,
            burst: None,
        };
        let total: usize = (0..100).map(|r| s.sample(r, 50).joins).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn sampling_is_pure_in_round_and_alive() {
        let s = ChurnSchedule {
            seed: 42,
            join_rate: 0.5,
            leave_rate: 0.2,
            crash_rate: 0.1,
            burst: Some(CrashBurst {
                every_rounds: 10,
                fraction: 0.25,
            }),
        };
        s.validate();
        for round in 0..40 {
            assert_eq!(s.sample(round, 64), s.sample(round, 64));
        }
        // Out-of-order sampling changes nothing.
        let forward: Vec<_> = (0..40).map(|r| s.sample(r, 64)).collect();
        let backward: Vec<_> = (0..40).rev().map(|r| s.sample(r, 64)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn victim_ranks_are_sequentially_in_bounds() {
        let s = ChurnSchedule {
            seed: 3,
            join_rate: 0.0,
            leave_rate: 1.5,
            crash_rate: 2.0,
            burst: Some(CrashBurst {
                every_rounds: 5,
                fraction: 0.5,
            }),
        };
        for round in 0..30 {
            for alive in [0usize, 1, 3, 17] {
                let churn = s.sample(round, alive);
                let mut remaining = alive;
                for &rank in churn.leaves.iter().chain(churn.crashes.iter()) {
                    assert!(rank < remaining, "rank {rank} vs remaining {remaining}");
                    remaining -= 1;
                }
            }
        }
    }

    #[test]
    fn bursts_fire_on_the_period_and_never_at_round_zero() {
        let s = ChurnSchedule {
            seed: 0,
            join_rate: 0.0,
            leave_rate: 0.0,
            crash_rate: 0.0,
            burst: Some(CrashBurst {
                every_rounds: 8,
                fraction: 0.5,
            }),
        };
        assert!(!s.burst_at(0));
        assert!(s.burst_at(8));
        assert!(s.burst_at(16));
        assert!(!s.burst_at(9));
        assert_eq!(s.sample(8, 10).crashes.len(), 5);
        assert!(s.sample(7, 10).crashes.is_empty());
    }

    #[test]
    fn quiet_schedule_is_quiet() {
        let s = ChurnSchedule::quiet(9);
        s.validate();
        for round in 0..100 {
            assert!(s.sample(round, 128).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_rates_are_rejected() {
        let mut s = ChurnSchedule::quiet(0);
        s.crash_rate = -0.1;
        s.validate();
    }
}
