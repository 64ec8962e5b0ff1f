//! Support library for `vstress-bench`, the workspace's single benchmark
//! harness.
//!
//! The binary (`src/main.rs`) times the hot substrate kernels (pixel
//! kernels, DCT, SATD, range coder), the simulation-side hot paths, the
//! design-choice ablations listed in DESIGN.md §6 (predictor families
//! at equal budget, TAGE geometry, replacement policies, prefetch, MLP
//! modelling, partition search space, RDO early exit) and three
//! end-to-end walls, and writes one JSON report per run. The per-figure
//! experiment runners are timed end to end, layer by layer, by the
//! repository's `e2ebench` harness instead.
//!
//! [`gate`] holds the `vstress-bench gate` comparison logic — the
//! perf-trajectory regression gate run by CI against the committed
//! `BENCH_*.json` baselines.

pub mod gate;
