//! Traffic accounting: delivery/drop ledgers folded into the latency and
//! congestion figures the paper's guarantees are about.

use crate::router::RouterSummary;

/// Nearest-rank percentile of an **ascending-sorted** slice: `p` in `0..=100`.
/// Returns 0 for an empty slice (an empty population has no latency).
pub(crate) fn percentile(sorted: &[u32], p: u64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as u64 * p) / 100;
    sorted[idx as usize]
}

/// Accumulates router summaries — possibly across several phases, as the
/// traffic-during-serve path runs one traffic phase per maintenance epoch —
/// and renders one [`TrafficReport`] at the end.
#[derive(Clone, Debug, Default)]
pub struct TrafficTally {
    injected: u64,
    dropped: u64,
    expired: u64,
    hops: Vec<u32>,
    latencies: Vec<u32>,
    max_edge_load: u32,
    max_node_forwards: u64,
    rounds: usize,
}

impl TrafficTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one executed traffic phase in: `summaries` in node order,
    /// `rounds` the message rounds that phase ran.
    pub fn absorb(&mut self, summaries: &[RouterSummary], rounds: usize) {
        self.rounds += rounds;
        let delivered = summaries.iter().map(|s| s.deliveries.len()).sum();
        self.hops.reserve(delivered);
        self.latencies.reserve(delivered);
        for s in summaries {
            self.injected += s.injected as u64;
            self.dropped += s.dropped.len() as u64;
            self.expired += s.expired.len() as u64;
            self.max_edge_load = self.max_edge_load.max(s.max_edge_load);
            self.max_node_forwards = self.max_node_forwards.max(s.forwards);
            for d in &s.deliveries {
                self.hops.push(d.hops);
                // Saturating: summaries cross sockets, and a delivery claiming
                // to precede its injection must not underflow the tally.
                self.latencies.push(d.delivered.saturating_sub(d.injected));
            }
        }
    }

    /// Renders the accumulated ledgers as a report, sorting them in place.
    /// (A sort, not a histogram: summaries cross sockets, and a `hops` of
    /// `u32::MAX` must not size an allocation.)
    pub fn report(mut self) -> TrafficReport {
        self.hops.sort_unstable();
        self.latencies.sort_unstable();
        let (hops, latencies) = (&self.hops, &self.latencies);
        let delivered = hops.len() as u64;
        TrafficReport {
            injected: self.injected,
            delivered,
            dropped: self.dropped,
            expired: self.expired,
            lost: self
                .injected
                .saturating_sub(delivered + self.dropped + self.expired),
            hops_p50: percentile(hops, 50),
            hops_p99: percentile(hops, 99),
            hops_max: hops.last().copied().unwrap_or(0),
            latency_p50: percentile(latencies, 50),
            latency_p99: percentile(latencies, 99),
            latency_max: latencies.last().copied().unwrap_or(0),
            max_edge_load: self.max_edge_load,
            max_node_forwards: self.max_node_forwards,
            rounds: self.rounds,
        }
    }
}

/// The deterministic outcome of a traffic run: request accounting, hop and
/// rounds-to-delivery percentiles, and the load maxima.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficReport {
    /// Requests injected across all sources.
    pub injected: u64,
    /// Requests that reached their destination.
    pub delivered: u64,
    /// Requests shed by queue overflow or lack of a route.
    pub dropped: u64,
    /// Requests aged out past their TTL while queued.
    pub expired: u64,
    /// Requests that vanished in flight (message loss under a fault plan):
    /// `injected − delivered − dropped − expired`.
    pub lost: u64,
    /// Median hop count over delivered requests.
    pub hops_p50: u32,
    /// 99th-percentile hop count — the figure the `O(log n)` diameter bounds.
    pub hops_p99: u32,
    /// Worst hop count observed.
    pub hops_max: u32,
    /// Median rounds-to-delivery (delivery round − injection round).
    pub latency_p50: u32,
    /// 99th-percentile rounds-to-delivery; queueing pushes this above the hop
    /// percentile under congestion.
    pub latency_p99: u32,
    /// Worst rounds-to-delivery observed.
    pub latency_max: u32,
    /// Most messages any single directed edge carried — the paper's
    /// constant-congestion claim measured.
    pub max_edge_load: u32,
    /// Most messages any single node forwarded (per-node load; bounded by the
    /// constant degree times the per-round budget times the rounds).
    pub max_node_forwards: u64,
    /// Message rounds the traffic phase(s) executed.
    pub rounds: usize,
}

impl TrafficReport {
    /// Builds a report from one executed phase's summaries.
    pub fn from_summaries(summaries: &[RouterSummary], rounds: usize) -> Self {
        let mut tally = TrafficTally::new();
        tally.absorb(summaries, rounds);
        tally.report()
    }

    /// Delivered fraction in `[0, 1]` (1 when nothing was injected: an empty
    /// workload loses nothing).
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Delivery;

    fn summary(deliveries: Vec<Delivery>, injected: u32) -> RouterSummary {
        RouterSummary {
            injected,
            deliveries,
            dropped: Vec::new(),
            expired: Vec::new(),
            forwards: 0,
            max_edge_load: 0,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1, 2, 3, 4, 10];
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v, 50), 3);
        assert_eq!(percentile(&v, 99), 4);
        assert_eq!(percentile(&v, 100), 10);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn report_accounts_for_every_request() {
        let mut tally = TrafficTally::new();
        tally.absorb(
            &[
                summary(
                    vec![Delivery {
                        id: 0,
                        hops: 2,
                        injected: 1,
                        delivered: 4,
                    }],
                    2,
                ),
                RouterSummary {
                    injected: 2,
                    deliveries: vec![Delivery {
                        id: 1,
                        hops: 5,
                        injected: 2,
                        delivered: 9,
                    }],
                    dropped: vec![7],
                    expired: vec![8],
                    forwards: 12,
                    max_edge_load: 6,
                },
            ],
            20,
        );
        let r = tally.report();
        assert_eq!(r.injected, 4);
        assert_eq!(r.delivered, 2);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.expired, 1);
        assert_eq!(r.lost, 0);
        assert_eq!((r.hops_p50, r.hops_max), (2, 5));
        assert_eq!((r.latency_p50, r.latency_max), (3, 7));
        assert_eq!(r.max_edge_load, 6);
        assert_eq!(r.max_node_forwards, 12);
        assert_eq!(r.rounds, 20);
        assert!((r.delivered_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_delivery_dated_before_its_injection_counts_as_zero_latency() {
        // What a hostile rank's summary can claim; in the debug profile the
        // plain subtraction panics on it.
        let r = TrafficReport::from_summaries(
            &[summary(
                vec![Delivery {
                    id: 0,
                    hops: 1,
                    injected: 9,
                    delivered: 3,
                }],
                1,
            )],
            10,
        );
        assert_eq!((r.delivered, r.latency_max), (1, 0));
    }

    #[test]
    fn empty_tally_reports_zeros_and_full_delivery() {
        let r = TrafficTally::new().report();
        assert_eq!(r.injected, 0);
        assert_eq!(r.hops_p99, 0);
        assert!((r.delivered_fraction() - 1.0).abs() < 1e-12);
    }
}
