//! # mujs-perf
//!
//! `detperf`, the seeded benchmark of the determinacy pipeline. It drives
//! four workloads from one client thread in a closed loop, timing only
//! calls into public functions of the layer crates, and checks every op's
//! output against references that do not come from the code under test
//! (`expected.json`). See `README.md` for the metrics and how to run,
//! trace and compare.

pub mod compare;
pub mod expected;
pub mod heap;
pub mod host;
pub mod inputs;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
