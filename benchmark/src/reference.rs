//! The reference kernel: a fixed piece of work, written here and touching
//! nothing of the program, that tells how fast the host is while a run
//! measures.
//!
//! The host this benchmark runs on is a few cores of a shared machine, and
//! for minutes at a time it executes the same binary 1.2 to 3 times slower
//! (a neighbour on the shared cache or the memory bus; guest steal time stays
//! near zero, so the slow-down is in the execution, not in the scheduling).
//! No statistic of one run's iterations sees through that, because the whole
//! run is slow. So every run interleaves this kernel with the workload's
//! iterations and reports its host times divided by `slowdown`: how much
//! longer than `NOMINAL_S` the kernel's fastest pass took.
//!
//! The kernel is a toy of what the program does: rounds of message exchange
//! between 32 768 inboxes (4 MB of slots, written at random) and an ordered
//! map that grows and shrinks. It is bound by memory, as the program is; a
//! loop of register arithmetic that ran beside it through such episodes did
//! not slow down at all, and a pointer chase changed speed from one process
//! to the next with the pages it was given. A pass is about as long as an
//! iteration, 0.09 s, and follows every set-up and every fourth iteration: a pass
//! much shorter than an iteration slips through gaps between a neighbour's
//! bursts that no iteration fits in, and then the two fastest times are not
//! of the same host.
//!
//! The scaling is a first-order correction, not a cure. Through the episodes
//! met while this was written the kernel slowed by a half to nine tenths of
//! what the program did, so the spread of a metric over ten runs that
//! straddled one roughly halved (`benchmark/README.md` has the figures).

use std::collections::BTreeMap;
use std::time::Instant;

/// The fastest pass on the host that produced the first committed ledger,
/// when nothing disturbed it. Times scaled by `slowdown` read as that host's.
pub const NOMINAL_S: f64 = 0.085;

/// A pass follows every `EVERY`th iteration, and every set-up.
const EVERY: u32 = 4;

const INBOXES: usize = 32_768;
const ROUNDS: u32 = 25;
/// Slots per inbox; a message that finds its inbox full is dropped.
const SLOTS: usize = 16;

pub struct Reference {
    /// `INBOXES × SLOTS` message slots and a fill count per inbox, twice: one
    /// allocation each, so the layout does not hang on what the workload
    /// allocated before.
    inboxes: (Vec<u32>, Vec<u8>),
    outboxes: (Vec<u32>, Vec<u8>),
    sink: u64,
    calls: u32,
    /// Seconds of every pass so far.
    pub samples: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    pub fn new() -> Self {
        let mut reference = Reference {
            inboxes: (vec![0; INBOXES * SLOTS], vec![0; INBOXES]),
            outboxes: (vec![0; INBOXES * SLOTS], vec![0; INBOXES]),
            sink: 0,
            calls: 0,
            samples: Vec::new(),
        };
        // The first pass faults the pages in; it is not a sample. The second
        // is, so that the shortest run has one.
        reference.pass();
        reference.samples.clear();
        reference.pass();
        reference
    }

    /// To be called after every iteration: every `EVERY`th is followed by a
    /// pass.
    pub fn after_iteration(&mut self) {
        self.calls += 1;
        if self.calls.is_multiple_of(EVERY) {
            self.pass();
        }
    }

    /// One timed pass.
    pub fn pass(&mut self) {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let mut map: BTreeMap<u32, u32> = BTreeMap::new();
        for round in 0..ROUNDS {
            for i in 0..INBOXES {
                let filled = std::mem::take(&mut self.inboxes.1[i]) as usize;
                let got = self.inboxes.0[i * SLOTS..i * SLOTS + filled]
                    .iter()
                    .fold(0u32, |sum, m| sum.wrapping_add(*m));
                for d in 0..4 {
                    let to = (xorshift(&mut x) % INBOXES as u64) as usize;
                    let at = self.outboxes.1[to] as usize;
                    if at < SLOTS {
                        self.outboxes.0[to * SLOTS + at] = got.wrapping_add(d + round);
                        self.outboxes.1[to] += 1;
                    }
                }
                let key = (xorshift(&mut x) % 8192) as u32;
                if key.is_multiple_of(3) {
                    map.remove(&key);
                } else {
                    *map.entry(key).or_insert(0) += 1;
                }
            }
            std::mem::swap(&mut self.inboxes, &mut self.outboxes);
        }
        self.sink ^= map.len() as u64;
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// How much slower than the nominal host this one ran the kernel at its
    /// best over the given passes (below 1: faster).
    pub fn slowdown(&self, passes: std::ops::Range<usize>) -> f64 {
        // The sink keeps the optimiser from deleting the work.
        std::hint::black_box(self.sink);
        crate::stats::best(&self.samples[passes], true) / NOMINAL_S
    }
}
