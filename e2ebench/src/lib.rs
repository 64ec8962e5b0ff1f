//! End-to-end and per-layer benchmark of the vstress workbench.
//!
//! `python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, from the repository root, builds and runs one
//! workload and prints, as its last stdout line, a JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. See the README
//! for the workloads and metrics.

#![deny(missing_docs)]

pub mod host;
pub mod spans;
pub mod stats;
pub mod workloads;
