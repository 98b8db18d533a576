//! The enforcing host-throughput gate: replays every Table I workload's
//! Im2col forward under all three execution backends, writes
//! `BENCH_host.json` at the workspace root, and fails if the geometric
//! mean of the sliced speedup ratios fell more than
//! [`host::HOST_TOLERANCE`] below the committed baseline
//! (`crates/bench/baselines/host.json`), or one row's more than twice
//! that — the `host` bounds of `gate::checks()`.
//!
//! Bit-identity across backends is asserted *inside* `collect_host` on
//! every gated workload — this test re-checks the emitted document's
//! structural invariants on top.
//!
//! If this fails after an *intentional* executor change, regenerate with
//! `cargo run --release -p dv-bench --bin repro -- gate` and commit the
//! refreshed `host.json`.

use dv_bench::{gate, host};
use std::path::Path;

#[test]
fn host_gate_no_throughput_regressions_vs_committed_baseline() {
    match host::run_host() {
        Ok(doc) => {
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
            let path = root.join("BENCH_host.json");
            std::fs::write(&path, &doc).expect("write BENCH_host.json");

            let parsed = gate::parse(&doc).expect("emitted host JSON parses");
            let metrics = parsed.rows("host");
            assert_eq!(
                metrics.len(),
                dv_core::table1_workloads().len(),
                "host gate must cover every Table I workload"
            );
            // The acceptance floor travels in the artifact, not just in
            // the in-run assert: at least one Table I row at >= 2x.
            // Ratios come from the exact nanosecond fields.
            assert!(
                metrics
                    .iter()
                    .any(|m| m.ratio_of("scalar_ns", "sliced_ns") >= host::SLICED_FLOOR),
                "emitted BENCH_host.json records no {}x sliced win",
                host::SLICED_FLOOR
            );
            for m in metrics {
                assert!(
                    m.int("instructions") > 0 && m.int("sim_cycles") > 0,
                    "{}: degenerate denominators",
                    m.key
                );
                assert!(
                    m.int("scalar_ns") > 0 && m.int("sliced_ns") > 0 && m.int("threaded_ns") > 0,
                    "{}: zero wall time measured",
                    m.key
                );
                assert!(
                    m.ratio_of("instructions", "sliced_ns") > 0.0
                        && m.ratio_of("sim_cycles", "sliced_ns") > 0.0,
                    "{}: degenerate throughput",
                    m.key
                );
            }
        }
        Err(regressions) => panic!(
            "host-throughput regressions vs the committed baseline:\n  {}\n\
             (if intentional, regenerate with `cargo run --release -p dv-bench --bin repro -- gate`)",
            regressions.join("\n  ")
        ),
    }
}
