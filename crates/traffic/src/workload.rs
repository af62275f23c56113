//! Seeded request-workload generators.
//!
//! A workload turns `(n, requests-per-node, horizon, seed)` into a complete
//! per-source injection schedule before the first protocol round runs. All
//! randomness is spent here, in one pass over a single seeded RNG, so the
//! schedule — and therefore the whole traffic run — is a pure function of its
//! arguments, and the router protocol itself never touches its per-node RNG.

use overlay_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request: injected by its source at `round`, addressed to
/// `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Protocol round (≥ 1) at which the source injects the request.
    pub round: u32,
    /// Destination node.
    pub dst: NodeId,
}

/// The shape of a request workload — who talks to whom, and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// Independent uniformly random destinations: the symmetric base case the
    /// expander's constant-congestion claim is stated for.
    Uniform,
    /// Zipf-skewed destination popularity with the given exponent: node 0 is
    /// the most popular destination, node `k` has weight `(k+1)^-exponent`.
    /// Models the skewed request mixes real services see.
    Zipf {
        /// The Zipf exponent `s > 0`; larger is more skewed.
        exponent: f64,
    },
    /// Every request targets one seed-chosen node: the adversarial all-to-one
    /// case that stresses the edges around the target.
    Hotspot,
    /// Uniform background traffic plus a burst window in which *every* node
    /// injects one request per round toward one seed-chosen celebrity node.
    FlashCrowd {
        /// First round of the burst window.
        burst_at: u32,
        /// Length of the burst window in rounds.
        burst_len: u32,
    },
}

impl Workload {
    /// Short kebab-case label, used in scenario tags and report headers.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Zipf { .. } => "zipf",
            Workload::Hotspot => "hotspot",
            Workload::FlashCrowd { .. } => "flash-crowd",
        }
    }

    /// Draws the complete injection schedule: one request list per source
    /// node, each sorted by round, ties by destination.
    ///
    /// Sources are visited in node order and all draws come from one
    /// `StdRng::seed_from_u64(seed)` stream, so the schedule is a pure
    /// function of `(self, n, requests_per_node, horizon, seed)`. Injection
    /// rounds land in `1..=horizon`. A destination that would equal its
    /// source is remapped to the next node (`(dst + 1) % n`) — the overlay
    /// carries traffic, not loopbacks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `horizon == 0`.
    pub fn schedule(
        &self,
        n: usize,
        requests_per_node: u32,
        horizon: u32,
        seed: u64,
    ) -> Vec<Vec<Request>> {
        assert!(n > 0, "workloads need at least one node");
        assert!(horizon > 0, "injection horizon must be at least one round");
        let mut rng = StdRng::seed_from_u64(seed);
        // Draws are `u64`, the stream every committed schedule was made with.
        let uniform = |rng: &mut StdRng| NodeId::from(rng.gen_range(0..n as u64) as usize);
        let focus = uniform(&mut rng); // the single-destination workloads' target
        let zipf_cdf = match self {
            Workload::Zipf { exponent } => Some(zipf_cdf(n, *exponent)),
            _ => None,
        };
        let mut out = Vec::with_capacity(n);
        for src in (0..n).map(NodeId::from) {
            let mut reqs: Vec<Request> = Vec::with_capacity(requests_per_node as usize);
            for _ in 0..requests_per_node {
                // `0..horizon` and then `+ 1`, not `1..horizon + 1`: the same
                // word over the same span, without the overflow at `u32::MAX`.
                let round = rng.gen_range(0..horizon) + 1;
                let dst = match self {
                    Workload::Uniform | Workload::FlashCrowd { .. } => uniform(&mut rng),
                    Workload::Zipf { .. } => {
                        let u: f64 = rng.gen();
                        sample_cdf(zipf_cdf.as_deref().expect("cdf built"), u)
                    }
                    Workload::Hotspot => focus,
                };
                reqs.push(Request {
                    round,
                    dst: remap_self(src, dst, n),
                });
            }
            if let Workload::FlashCrowd {
                burst_at,
                burst_len,
            } = *self
            {
                for round in burst_at..burst_at.saturating_add(burst_len) {
                    reqs.push(Request {
                        round: round.max(1),
                        dst: remap_self(src, focus, n),
                    });
                }
            }
            // A request *is* its `(round, dst)` key, so equal keys are equal
            // values and the unstable sort's order is the stable sort's.
            reqs.sort_unstable_by_key(|r| (r.round, r.dst));
            out.push(reqs);
        }
        out
    }

    /// Total requests the schedule injects across all nodes — the denominator
    /// of every delivered-percentage figure.
    pub fn total_requests(&self, n: usize, requests_per_node: u32) -> u64 {
        let base = n as u64 * requests_per_node as u64;
        match self {
            Workload::FlashCrowd { burst_len, .. } => base + n as u64 * *burst_len as u64,
            _ => base,
        }
    }
}

/// Remaps a self-addressed destination to the next node.
fn remap_self(src: NodeId, dst: NodeId, n: usize) -> NodeId {
    if dst == src {
        NodeId::from((dst.index() + 1) % n)
    } else {
        dst
    }
}

/// Cumulative Zipf weights over destinations `0..n` (rank = node index + 1).
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    assert!(exponent > 0.0, "Zipf exponent must be positive");
    let mut cdf = Vec::with_capacity(n);
    let mut sum = 0.0;
    for k in 0..n {
        sum += ((k + 1) as f64).powf(-exponent);
        cdf.push(sum);
    }
    let total = sum;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Inverse-CDF sampling by binary search: the first index whose cumulative
/// weight exceeds `u`.
fn sample_cdf(cdf: &[f64], u: f64) -> NodeId {
    let mut lo = 0usize;
    let mut hi = cdf.len() - 1;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cdf[mid] < u {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    NodeId::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_their_arguments() {
        for workload in [
            Workload::Uniform,
            Workload::Zipf { exponent: 1.1 },
            Workload::Hotspot,
            Workload::FlashCrowd {
                burst_at: 4,
                burst_len: 3,
            },
        ] {
            let a = workload.schedule(32, 4, 16, 7);
            let b = workload.schedule(32, 4, 16, 7);
            assert_eq!(a, b, "{workload:?} is not deterministic");
            let c = workload.schedule(32, 4, 16, 8);
            assert_ne!(a, c, "{workload:?} ignores its seed");
        }
    }

    #[test]
    fn schedules_respect_shape_invariants() {
        let n = 24;
        for workload in [
            Workload::Uniform,
            Workload::Zipf { exponent: 1.3 },
            Workload::Hotspot,
            Workload::FlashCrowd {
                burst_at: 3,
                burst_len: 2,
            },
        ] {
            let sched = workload.schedule(n, 3, 10, 42);
            assert_eq!(sched.len(), n);
            let mut total = 0u64;
            for (src, reqs) in sched.iter().enumerate() {
                total += reqs.len() as u64;
                for w in reqs.windows(2) {
                    assert!(w[0].round <= w[1].round, "schedule must be round-sorted");
                }
                for r in reqs {
                    assert!(r.round >= 1, "round-0 injections are not allowed");
                    assert!(r.dst.index() < n, "destination out of range");
                    assert_ne!(r.dst.index(), src, "self-traffic must be remapped");
                }
            }
            assert_eq!(total, workload.total_requests(n, 3));
        }
    }

    #[test]
    fn hotspot_targets_one_node_and_flash_crowd_bursts() {
        let sched = Workload::Hotspot.schedule(16, 2, 8, 5);
        let mut dsts: Vec<NodeId> = sched.iter().flatten().map(|r| r.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        // The focal node plus at most its remap neighbor (when the focus
        // sources to itself).
        assert!(dsts.len() <= 2, "hotspot spread over {dsts:?}");

        let flash = Workload::FlashCrowd {
            burst_at: 5,
            burst_len: 2,
        };
        let sched = flash.schedule(16, 1, 8, 5);
        for reqs in &sched {
            assert!(
                reqs.iter().filter(|r| (5..7).contains(&r.round)).count() >= 2,
                "every node fires during the burst window"
            );
        }
    }

    fn request(round: u32, dst: u32) -> Request {
        Request {
            round,
            dst: NodeId::new(dst),
        }
    }

    /// Pins the exact RNG streams of the skewed samplers: any change to the
    /// draw order, the CDF construction, or the self-remap rule shows up here
    /// before it silently invalidates every committed traffic baseline.
    #[test]
    fn zipf_and_hotspot_rng_streams_are_pinned() {
        let zipf = Workload::Zipf { exponent: 1.1 }.schedule(8, 3, 6, 1);
        assert_eq!(
            zipf[0],
            vec![request(4, 7), request(5, 1), request(5, 1)],
            "Zipf sampler stream moved"
        );
        assert_eq!(
            zipf[7],
            vec![request(2, 0), request(4, 2), request(5, 1)],
            "Zipf sampler stream moved"
        );
        let hot = Workload::Hotspot.schedule(8, 2, 6, 1);
        assert_eq!(
            hot[0],
            vec![request(1, 6), request(5, 6)],
            "hotspot sampler stream moved"
        );
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let sched = Workload::Zipf { exponent: 1.5 }.schedule(64, 16, 32, 3);
        let hits_low = sched.iter().flatten().filter(|r| r.dst.index() < 8).count() as f64;
        let total = sched.iter().map(Vec::len).sum::<usize>() as f64;
        assert!(
            hits_low / total > 0.4,
            "low ranks drew only {:.2} of the traffic",
            hits_low / total
        );
    }

    /// The schedule as it was drawn before the overflow fix and the unstable
    /// sort: `gen_range(1..horizon + 1)` and a stable sort on `(round, dst)`.
    /// The executable specification [`Workload::schedule`] is checked
    /// against, below `horizon = u32::MAX`.
    fn reference_schedule(
        workload: Workload,
        n: usize,
        requests_per_node: u32,
        horizon: u32,
        seed: u64,
    ) -> Vec<Vec<Request>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let uniform = |rng: &mut StdRng| NodeId::from(rng.gen_range(0..n as u64) as usize);
        let focus = uniform(&mut rng);
        let cdf = match workload {
            Workload::Zipf { exponent } => zipf_cdf(n, exponent),
            _ => Vec::new(),
        };
        let mut out = Vec::with_capacity(n);
        for src in (0..n).map(NodeId::from) {
            let mut reqs = Vec::new();
            for _ in 0..requests_per_node {
                let round = rng.gen_range(1..horizon + 1);
                let dst = match workload {
                    Workload::Uniform | Workload::FlashCrowd { .. } => uniform(&mut rng),
                    Workload::Zipf { .. } => sample_cdf(&cdf, rng.gen()),
                    Workload::Hotspot => focus,
                };
                reqs.push(Request {
                    round,
                    dst: remap_self(src, dst, n),
                });
            }
            if let Workload::FlashCrowd {
                burst_at,
                burst_len,
            } = workload
            {
                for round in burst_at..burst_at.saturating_add(burst_len) {
                    reqs.push(Request {
                        round: round.max(1),
                        dst: remap_self(src, focus, n),
                    });
                }
            }
            reqs.sort_by_key(|r| (r.round, r.dst));
            out.push(reqs);
        }
        out
    }

    /// Every shape, several seeds and horizons, against the stable sort and
    /// the old `gen_range(1..horizon + 1)` draw — on a small population at
    /// every horizon up to 600, so the round draw is pinned at each span.
    /// Hotspot and FlashCrowd schedules repeat `(round, dst)` keys, the case
    /// in which an unstable sort could differ if a request were more than
    /// its key.
    #[test]
    fn schedules_equal_the_stably_sorted_reference() {
        let mut repeated_keys = 0;
        for workload in [
            Workload::Uniform,
            Workload::Zipf { exponent: 1.1 },
            Workload::Hotspot,
            Workload::FlashCrowd {
                burst_at: 0,
                burst_len: 6,
            },
        ] {
            for seed in 0..6 {
                let wide = [(1, 3, 1), (17, 8, 4), (64, 40, 30), (200, 9, 600)];
                let every_horizon = (1..=600).map(|horizon| (3, 4, horizon));
                for (n, per_node, horizon) in wide.into_iter().chain(every_horizon) {
                    let sched = workload.schedule(n, per_node, horizon, seed);
                    let want = reference_schedule(workload, n, per_node, horizon, seed);
                    assert_eq!(sched, want, "{workload:?}, n = {n}, seed {seed}");
                    let pairs = sched.iter().flat_map(|reqs| reqs.windows(2));
                    repeated_keys += pairs.filter(|w| w[0] == w[1]).count();
                }
            }
        }
        assert!(repeated_keys > 100, "only {repeated_keys} repeated keys");
    }

    #[test]
    fn the_widest_horizon_draws_rounds_without_overflow() {
        for workload in [
            Workload::Uniform,
            Workload::FlashCrowd {
                burst_at: u32::MAX - 1,
                burst_len: 4,
            },
        ] {
            let sched = workload.schedule(2, 4, u32::MAX, 9);
            for reqs in &sched {
                assert!(reqs.len() >= 4);
                assert!(reqs.iter().all(|r| r.round >= 1), "{reqs:?}");
                assert!(reqs.windows(2).all(|w| w[0].round <= w[1].round));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_populations_are_rejected() {
        let _ = Workload::Uniform.schedule(0, 1, 1, 0);
    }
}
