//! # yat-bench — workloads and figure reproductions
//!
//! The paper has no quantitative tables; its evaluation is the worked
//! figures (algebraic translations and rewritings of Q1/Q2 over the O2
//! and XML-Wais sources). This crate makes each figure executable and
//! measurable:
//!
//! * [`workload`] — parameterized, seeded scenario builders shared by
//!   benches, the report binary and the integration tests;
//! * [`figures`] — per-figure plan constructors: the Fig. 4 Bind/Tree
//!   pair, the Fig. 7 equivalence pairs (before/after of each rewriting),
//!   and the Fig. 8/9 pipelines at every optimization level;
//! * [`harness`] — a std-only timing harness;
//! * [`settings`] — the `YAT_*` settings of the `yat-server` /
//!   `yat-load` binaries: the one place the environment is read;
//! * `benches/` — `harness = false` benchmarks, one per worked figure
//!   (Fig. 4, 7, 8, 9);
//! * `src/bin/report.rs` — prints the plans, traffic and result
//!   fingerprints per figure (the source of EXPERIMENTS.md).

pub mod figures;
pub mod harness;
pub mod settings;
pub mod workload;
