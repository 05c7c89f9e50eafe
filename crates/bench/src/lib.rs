//! # taxrec-bench
//!
//! Experiment harness: shared fixtures and reporting for the `fig*`
//! binaries that regenerate every figure of the paper's evaluation
//! (Sec. 7), plus criterion micro-benchmarks.
//!
//! Binaries (`cargo run --release -p taxrec-bench --bin <name>`):
//!
//! | Binary              | Paper artefact                           |
//! |---------------------|------------------------------------------|
//! | `fig5_dataset_stats`| Fig. 5(a,b,c) dataset histograms         |
//! | `fig6_accuracy`     | Fig. 6(a–e) TF vs MF accuracy            |
//! | `fig7_taxonomy`     | Fig. 7(a–f) taxonomy effect studies      |
//! | `fig8_parallel`     | Fig. 8(a,b) multi-core speed-up          |
//! | `fig8_cascade`      | Fig. 8(c,d) cascaded inference trade-off |
//! | `fig8_batch`        | batched serving throughput, exhaustive vs cascaded (beyond the paper) |
//! | `ablations`         | non-figure design studies (init, sibling levels, cache threshold, negatives) |
//! | `smoke`             | quick end-to-end sanity run              |
//!
//! Every binary accepts `--scale <tiny|small|full>` (dataset size) and
//! `--seed <u64>`, prints the series the paper plots as aligned text
//! tables, and is deterministic per seed (modulo wall-clock timings).
//! The repeatable evaluation workflow (including the JSON report
//! format) is documented in `docs/guide/evaluation.md`.

#![warn(missing_docs)]

pub mod args;
pub mod fixtures;
pub mod report;
pub mod spans;
