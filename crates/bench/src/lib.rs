//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every table and figure of the paper's evaluation section has a
//! binary under `src/bin/` (see DESIGN.md §5 for the index); this
//! library holds the pieces they share: running all four methods on a
//! scenario, the normalized-benefit bookkeeping of footnote 2, and
//! plain-text table rendering.

pub mod harness;
pub mod table;

pub use harness::{run_all_methods, ExperimentSetting};
pub use table::Table;
