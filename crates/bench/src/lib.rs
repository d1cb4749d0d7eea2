//! Experiment harness for the FALL attacks reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (§ VI) on top of the [`fall`], [`locking`] and [`netlist`] crates:
//!
//! * **Table I** — benchmark characteristics (`cargo run -p fall-bench --bin table1`).
//! * **Figure 5** — execution time vs number of benchmarks solved for the
//!   circuit analyses and the SAT attack (`--bin fig5`).
//! * **Figure 6** — key confirmation vs SAT attack execution time (`--bin fig6`).
//! * **§ VI-B headline numbers** — circuits defeated and unique-key rate
//!   (`--bin summary`).
//!
//! Criterion benchmarks live in `benches/`; `incremental_vs_fresh` measures
//! the persistent [`fall::session::AttackSession`] (one solver per attack,
//! cached encodings) against the fresh-solver-per-query ablation baselines
//! on the Figure 5 / Figure 6 workloads.
//!
//! The ISCAS'85/MCNC netlists used by the paper are not redistributable, so
//! the suite substitutes seeded random circuits with the same interface sizes
//! (see `DESIGN.md` for the substitution argument).  By default all binaries
//! run a *scaled* configuration sized for a laptop; pass `--full` for the
//! paper-sized circuits and key widths.

#![deny(missing_docs)]

pub mod report;
pub mod runner;
pub mod suite;

pub use report::{
    cactus_series, fig6_rows, format_fig5, format_fig6, format_headline, format_table1, headline,
    regressions_against, table1_rows, Headline, Regression, Table1Row,
};
pub use runner::{AttackKind, AttackRecord, Runner, RunnerConfig};
pub use suite::{
    lock_grid, lock_grid_subset, CircuitSpec, HdPolicy, LockCase, Scale, TABLE1_CIRCUITS,
};
