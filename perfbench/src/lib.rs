//! The repository's benchmark: four workloads that time the simulator
//! end to end and, in a traced run, layer by layer. See `main.rs` for the
//! command line and `manifest.json` for the workloads' fixed parameters.

pub mod bench;
pub mod deck;
pub mod fig7;
pub mod gen;
pub mod json;
pub mod model_seg;
pub mod pool;
pub mod report;
pub mod rng;
pub mod serve_mix;
pub mod spans;
pub mod stats;
pub mod table1;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["fig7", "table1-train", "serve-mix", "model-seg"];
