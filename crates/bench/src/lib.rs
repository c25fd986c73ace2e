//! # diads-bench
//!
//! The experiment harness of the DIADS reproduction. Every table and figure of the
//! paper's evaluation has a binary under `src/bin/` that regenerates it, and
//! `bench_diads` tracks the hot paths of the main code in `BENCH_diads.json`.

pub mod harness;
pub mod hotpath;
pub mod microbench;
