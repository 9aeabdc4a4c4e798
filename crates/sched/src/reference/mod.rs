//! Reference solvers: exact or direct implementations that tests and
//! the experiments compare the production path against. No production
//! module calls into this one.
//!
//! * [`hungarian_min_cost`] — Kuhn-Munkres optimal assignment on a
//!   general cost matrix: the optimum that rank pairing
//!   ([`crate::rank_pair`]) must reach on Algorithm 1's rank-1 line-20
//!   costs (`fig7_scale`'s exactness gate, the tier-1 DES pin).
//! * [`group_streams_sequential`] — the paper's direct quadratic
//!   first-fit, which [`crate::group_streams`] must reproduce exactly.
//! * [`min_groups_const2`], [`heuristic_groups`],
//!   [`unordered_first_fit_groups`], [`const2_first_fit_groups`] — group
//!   counts of the exact `Const2` optimum and of the first-fit variants
//!   behind `ablation_grouping`.

mod grouping;
mod hungarian;

pub use grouping::{
    const2_first_fit_groups, group_streams_sequential, heuristic_groups, min_groups_const2,
    unordered_first_fit_groups,
};
pub use hungarian::hungarian_min_cost;
