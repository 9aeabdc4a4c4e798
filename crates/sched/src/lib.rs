//! Zero-jitter periodic scheduling for edge video analytics.
//!
//! Implements Section 3 (constraints, Theorems 1-2) and Section 4.1
//! (Algorithm 1, Theorem 3) of the PaMO paper:
//!
//! * [`stream`] — periodic stream timing model on an integer tick grid,
//!   including the high-rate stream *splitting* of Sec. 3 (a stream whose
//!   per-frame processing time exceeds its period is split into
//!   `ceil(s·p)` interleaved substreams),
//! * [`theory`] — `Const1` (utilization), `Const2` (gcd zero-jitter
//!   sufficient condition) and the Theorem-3 grouping condition as
//!   checkable predicates,
//! * [`group`] — the group-based heuristic of Algorithm 1,
//! * [`assign`] — the glue producing the final scheduling vector `q`,
//!   mapping groups to servers by rank pairing, which minimizes total
//!   communication latency exactly (Algorithm 1, line 20),
//! * [`hungarian`] — Kuhn-Munkres optimal assignment on a general cost
//!   matrix: the reference the rank pairing is checked against.
//!
//! Timing is integer microseconds ([`Ticks`]): `gcd` on floats is
//! ill-defined, and the paper's constraints are all divisibility
//! statements.

pub mod assign;
pub mod group;
pub mod hungarian;
pub mod oracle;
pub mod stream;
pub mod theory;

pub use assign::{assign_groups_to_servers, rank_pair, Assignment};
pub use group::{group_streams, group_streams_sequential, GroupingError};
pub use hungarian::hungarian_min_cost;
pub use stream::{split_high_rate, StreamId, StreamTiming, Ticks, TICKS_PER_SEC};
pub use theory::{const1_utilization_ok, const2_zero_jitter_ok, theorem3_group_ok};
