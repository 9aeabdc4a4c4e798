//! Deterministic decision-work budgets for the overload-resilient
//! control plane.
//!
//! A [`DecisionBudget`] meters scheduler work in abstract *work units*
//! instead of wall-clock time, so budgeted runs stay bit-identically
//! seeded-reproducible: two runs with the same seed and the same
//! budget degrade at exactly the same points. The control plane
//! converts units to modeled seconds (`units × unit_time_s`) when it
//! needs a deadline-hit verdict, never the other way around.
//!
//! The charging discipline is *check-before-work*: every charged stage
//! calls [`DecisionBudget::try_charge`] with its (deterministic) cost
//! before doing the work and degrades down the escalation ladder when
//! the charge is refused. Under that discipline `spent() <= limit()`
//! holds by construction and [`DecisionBudget::overruns`] stays 0; the
//! escape hatch [`DecisionBudget::force_charge`] exists for mandatory
//! floors (e.g. a decision pipeline that must observe at least one
//! point) and is the only way an overrun can be recorded.
//!
//! [`DecisionRung`] names the ladder rung a decision actually ran at:
//! `Full` (complete Algorithm 1/2), `Repair` (incremental row repair
//! only), `Stale` (reuse the previous plan untouched). Degradations
//! are emitted as structured [`crate::ObsEvent`]s carrying the rung so
//! experiments can attribute benefit loss per degradation mode.

use std::cell::Cell;

/// The escalation ladder rung a decision ran at when its budget was
/// consulted. Ordering is by decreasing fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionRung {
    /// Full Algorithm-1/Algorithm-2 decision (possibly with an
    /// anytime-truncated BO search).
    Full,
    /// Incremental row repair only: existing configs kept, placement
    /// repaired without a full re-solve.
    Repair,
    /// Previous plan reused untouched.
    Stale,
}

impl DecisionRung {
    /// All rungs, most capable first.
    #[cfg(test)]
    pub(crate) const ALL: [DecisionRung; 3] = [
        DecisionRung::Full,
        DecisionRung::Repair,
        DecisionRung::Stale,
    ];

    /// Stable machine-readable name ("full" / "repair" / "stale").
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionRung::Full => "full",
            DecisionRung::Repair => "repair",
            DecisionRung::Stale => "stale",
        }
    }

    /// Index into `DecisionRung::ALL`-ordered storage.
    pub fn index(self) -> usize {
        match self {
            DecisionRung::Full => 0,
            DecisionRung::Repair => 1,
            DecisionRung::Stale => 2,
        }
    }

    /// Inverse of [`as_str`](DecisionRung::as_str).
    pub fn parse(s: &str) -> Option<DecisionRung> {
        match s {
            "full" => Some(DecisionRung::Full),
            "repair" => Some(DecisionRung::Repair),
            "stale" => Some(DecisionRung::Stale),
            _ => None,
        }
    }
}

/// Deterministic work-unit costs charged against a [`DecisionBudget`].
///
/// The absolute scale is arbitrary; only ratios and the budget's
/// `unit_time_s` conversion matter. Costs are constants (not measured)
/// so charging never depends on wall clock or thread scheduling.
pub mod cost {
    /// One objective evaluation in the BO loop (decode + placement +
    /// aggregate measurement).
    pub const OBJ_EVAL: u64 = 4;
    /// Scoring one acquisition candidate in a BO batch slot.
    pub const ACQ_CANDIDATE: u64 = 1;
    /// One GP hyperparameter fit (per camera, per objective).
    pub const GP_FIT: u64 = 2;
    /// One trial camera of an admission probe. A probe on `M`
    /// incumbents charges this `M + 1` times (incumbents plus the
    /// newcomer), however many grid candidates it evaluates or skips.
    pub const ADMISSION_CANDIDATE: u64 = 1;
    /// One incremental row-repair replan (repair + verify + reprice).
    pub const REPAIR_EVENT: u64 = 8;
    /// One full Algorithm-1 re-solve (grouping + assignment from
    /// scratch).
    pub const FULL_SOLVE: u64 = 40;
}

/// A deterministic work-unit budget shared by the stages of one
/// decision window.
///
/// Interior-mutable (`Cell`) so one budget can be threaded by shared
/// reference through `decide` → BO → placement; all charges happen at
/// sequential points of one thread, so the accounting is deterministic.
#[derive(Debug)]
pub struct DecisionBudget {
    limit: u64,
    spent: Cell<u64>,
    overruns: Cell<u64>,
}

impl DecisionBudget {
    /// A budget that never refuses a charge (`limit == u64::MAX`).
    /// Threading an unlimited budget through a pipeline is
    /// behavior-identical to not budgeting at all.
    pub fn unlimited() -> Self {
        DecisionBudget {
            limit: u64::MAX,
            spent: Cell::new(0),
            overruns: Cell::new(0),
        }
    }

    /// A budget of `units` work units.
    pub fn limited(units: u64) -> Self {
        DecisionBudget {
            limit: units,
            spent: Cell::new(0),
            overruns: Cell::new(0),
        }
    }

    /// The budget's limit in work units.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Whether this budget can never refuse a charge.
    #[cfg(test)]
    pub(crate) fn is_unlimited(&self) -> bool {
        self.limit == u64::MAX
    }

    /// Work units spent so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Work units still available (0 when exhausted).
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.spent())
    }

    /// Whether the budget is fully spent.
    #[cfg(test)]
    pub(crate) fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Number of times a [`force_charge`](DecisionBudget::force_charge)
    /// pushed `spent` past `limit`. Stays 0 under the
    /// check-before-work discipline.
    pub fn overruns(&self) -> u64 {
        self.overruns.get()
    }

    /// Charge `units` if and only if they fit in the remaining budget.
    /// Returns `false` (and spends nothing) otherwise — the caller
    /// must then degrade instead of doing the work.
    pub fn try_charge(&self, units: u64) -> bool {
        if units <= self.remaining() {
            self.spent.set(self.spent.get() + units);
            true
        } else {
            false
        }
    }

    /// Charge `units` unconditionally, recording an overrun if this
    /// crosses (or was already past) the limit. Reserved for mandatory
    /// floors; a control plane that sizes its floors correctly never
    /// triggers the overrun path.
    pub fn force_charge(&self, units: u64) {
        let after = self.spent.get().saturating_add(units);
        self.spent.set(after);
        if after > self.limit {
            self.overruns.set(self.overruns.get() + 1);
        }
    }
}

/// Policy knobs converting a per-window unit budget into an
/// escalation-ladder schedule and a modeled deadline verdict.
///
/// `Copy` on purpose: it travels inside serving configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPolicy {
    /// Work units granted per decision window (one serving epoch).
    pub window_units: u64,
    /// Minimum remaining units to attempt a *full* decision
    /// (Algorithm 2 / admission probe + repair with full fallback).
    pub full_floor: u64,
    /// Minimum remaining units to attempt an *incremental repair*;
    /// below this the plan goes stale.
    pub repair_floor: u64,
    /// Modeled seconds per work unit (converts spent units into a
    /// deterministic reaction time).
    pub unit_time_s: f64,
    /// Per-decision reaction deadline in modeled seconds; a decision
    /// whose modeled reaction exceeds this counts as a deadline miss.
    pub deadline_s: f64,
}

impl BudgetPolicy {
    /// Pick the ladder rung affordable with `remaining` units.
    pub fn rung_for(&self, remaining: u64) -> DecisionRung {
        if remaining >= self.full_floor {
            DecisionRung::Full
        } else if remaining >= self.repair_floor {
            DecisionRung::Repair
        } else {
            DecisionRung::Stale
        }
    }

    /// Modeled seconds for `units` of work.
    pub fn modeled_time_s(&self, units: u64) -> f64 {
        units as f64 * self.unit_time_s
    }

    /// Whether a decision that spent `units` met the deadline.
    #[cfg(test)]
    pub(crate) fn deadline_hit(&self, units: u64) -> bool {
        self.modeled_time_s(units) <= self.deadline_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_charge_refuses_at_the_limit_without_spending() {
        let b = DecisionBudget::limited(10);
        assert!(b.try_charge(6));
        assert!(!b.try_charge(5), "6 + 5 > 10 must refuse");
        assert_eq!(b.spent(), 6, "refused charge must not spend");
        assert!(b.try_charge(4));
        assert!(b.exhausted());
        assert_eq!(b.overruns(), 0);
    }

    #[test]
    fn force_charge_records_an_overrun_past_the_limit() {
        let b = DecisionBudget::limited(3);
        b.force_charge(2);
        assert_eq!(b.overruns(), 0);
        b.force_charge(2);
        assert_eq!(b.overruns(), 1);
        assert_eq!(b.spent(), 4);
    }

    #[test]
    fn unlimited_budget_never_refuses() {
        let b = DecisionBudget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            assert!(b.try_charge(u32::MAX as u64));
        }
        assert_eq!(b.overruns(), 0);
        assert!(!b.exhausted());
    }

    #[test]
    fn policy_ladder_degrades_with_remaining_budget() {
        let p = BudgetPolicy {
            window_units: 100,
            full_floor: 50,
            repair_floor: 10,
            unit_time_s: 0.001,
            deadline_s: 0.05,
        };
        assert_eq!(p.rung_for(100), DecisionRung::Full);
        assert_eq!(p.rung_for(50), DecisionRung::Full);
        assert_eq!(p.rung_for(49), DecisionRung::Repair);
        assert_eq!(p.rung_for(10), DecisionRung::Repair);
        assert_eq!(p.rung_for(9), DecisionRung::Stale);
        assert!(p.deadline_hit(50));
        assert!(!p.deadline_hit(51));
    }

    #[test]
    fn rung_names_round_trip() {
        for r in DecisionRung::ALL {
            assert_eq!(DecisionRung::parse(r.as_str()), Some(r));
            assert_eq!(DecisionRung::ALL[r.index()], r);
        }
        assert_eq!(DecisionRung::parse("bogus"), None);
    }
}
