//! Baseline algorithms the paper's contribution is compared against.
//!
//! * [`SupernodeMerge`] — the supernode grouping/merging approach of Angluin et al.
//!   (SPAA'05) and its successors, which needs `Θ(log² n)` rounds because every one of
//!   the `Θ(log n)` merge phases pays `Θ(log n)` rounds of intra-supernode
//!   coordination. We account the rounds optimistically (the real message-level
//!   protocol would only be slower), so the comparison favours the baseline.
//! * [`run_pointer_jumping`] — the unbounded-communication strawman from the
//!   introduction: pointer jumping reduces the diameter to one in `O(log n)` rounds but
//!   requires nodes to send `Θ(n)` messages per round, which the NCC0 model forbids.
//! * [`rounds_until_all_know_minimum`] — flooding identifiers over the initial edges
//!   only; takes `Θ(D)` rounds on a graph of diameter `D` (i.e. `Θ(n)` on the line).
//! * [`run_luby_mis`] — Luby/Métivier-style MIS in the CONGEST model, the `O(log n)` round
//!   baseline that Theorem 1.5's `O(log d + log log n)` algorithm is measured against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

mod flooding;
mod luby_mis;
mod pointer_jumping;
mod supernode_merge;

pub use flooding::rounds_until_all_know_minimum;
pub use luby_mis::{run_luby_mis, LubyMisReport};
pub use pointer_jumping::{run_pointer_jumping, PointerJumpingReport};
pub use supernode_merge::{SupernodeMerge, SupernodeMergeReport};
