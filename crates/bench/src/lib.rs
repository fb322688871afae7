//! # sopt-bench — experiment tables and benchmark harness
//!
//! The paper is a theory paper: its "evaluation" is the set of worked
//! figures (1–10) and the quantitative claims of the theorems. DESIGN.md §4
//! maps each to an experiment id E1–E13; [`exps`] regenerates every one of
//! them, and `cargo run -p sopt-bench --bin experiments --release` prints
//! the full report recorded in EXPERIMENTS.md.
//!
//! Timing baselines live in the `*_bench` binaries under `src/bin`, each
//! writing a checked-in `BENCH_*.json` and asserting its own bars.

pub mod exps;
pub mod table;

pub use table::Table;
