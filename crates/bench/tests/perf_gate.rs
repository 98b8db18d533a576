//! The enforcing performance-regression gate: replays the Fig. 7,
//! Fig. 8, and Table I workloads, writes `BENCH_pooling.json` at the
//! workspace root, and fails if any tracked cycle count, issue-model
//! column, or buffer-occupancy peak regressed more than the tolerance
//! against the committed baseline
//! (`crates/bench/baselines/pooling.json`).
//!
//! On top of the tolerance gate, three exact invariants are pinned here:
//!
//! * the single-issue columns of every Fig. 7 / Fig. 8 metric equal the
//!   pinned baseline cycle-for-cycle (hardcoded below — regenerating the
//!   baseline must never move them, because per-instruction charges are
//!   issue-model-independent; only an intentional *lowering* change may
//!   re-pin a row, with justification);
//! * dual-pipe mode strictly lowers the accelerated (im2col) cycle count
//!   of every Fig. 7 workload, and never exceeds single-issue anywhere;
//! * direct pooling still beats im2col at stride (1, 1) — the Fig. 8
//!   crossover — in both issue models.
//!
//! If this test fails after an *intentional* cost-model or lowering
//! change, regenerate the baseline with
//! `cargo run --release -p dv-bench --bin repro -- gate` and commit it.

use dv_bench::gate;
use std::path::Path;

/// The PR 1 cycle counts (single-issue model), verbatim from the
/// baseline committed before the dual-pipe scheduler landed:
/// (key, standard_cycles, accelerated_cycles).
///
/// Exception: the two *multi-band* backward rows (fig7c at 147 and 71)
/// were re-pinned when banded backward was made bit-exact — each band
/// now re-loads and re-merges the overlap patches instead of carrying
/// partial sums, which legitimately grows the instruction stream. The
/// single-band rows are still the PR 1 numbers cycle-for-cycle.
const PR1_BASELINE: &[(&str, u64, u64)] = &[
    ("fig7a/147x147x64", 332120, 97836),
    ("fig7b/147x147x64", 686895, 159629),
    ("fig7c/147x147x64", 1050334, 173041),
    ("fig7a/71x71x192", 76373, 22673),
    ("fig7b/71x71x192", 157893, 37504),
    ("fig7c/71x71x192", 219928, 36985),
    ("fig7a/35x35x288", 18152, 5714),
    ("fig7b/35x35x288", 37370, 8945),
    ("fig7c/35x35x288", 49379, 8726),
    ("fig8s1/16x16", 2201, 3452),
    ("fig8s1/24x24", 5011, 7660),
    ("fig8s2/16x16", 3233, 1505),
    ("fig8s2/24x24", 7738, 2697),
    ("fig8s2/32x32", 14231, 4649),
    ("fig8s3/16x16", 1838, 1081),
    ("fig8s3/24x24", 4408, 1840),
    ("fig8s3/32x32", 6965, 2924),
];

#[test]
fn perf_gate_no_regressions_vs_committed_baseline() {
    match gate::run() {
        Ok(doc) => {
            let root = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..");
            let path = root.join("BENCH_pooling.json");
            std::fs::write(&path, &doc).expect("write BENCH_pooling.json");

            // The emitted document must itself be well-formed and carry
            // the per-shape speedups. Ratios are recomputed from the
            // exact integer fields, not read back rounded.
            let parsed = gate::parse(&doc).expect("emitted JSON parses");
            let metrics = parsed.rows("metrics");
            assert_eq!(
                metrics.len(),
                gate::parse(gate::COMMITTED_BASELINE)
                    .expect("baseline parses")
                    .rows("metrics")
                    .len(),
                "metric set drifted from the committed baseline"
            );
            for m in metrics {
                let speedup = |s: &str, a: &str| m.ratio_of(s, a);
                let (std_c, acc_c) = (m.int("standard_cycles"), m.int("accelerated_cycles"));
                let (std_single, acc_single) = (
                    m.int("standard_cycles_single"),
                    m.int("accelerated_cycles_single"),
                );
                assert!(
                    speedup("standard_cycles", "accelerated_cycles") > 0.0,
                    "{}: degenerate speedup",
                    m.key
                );
                assert!(
                    std_c <= std_single && acc_c <= acc_single,
                    "{}: the dual-pipe makespan can never exceed the serial sum",
                    m.key
                );
                if m.key.starts_with("fig7") {
                    assert!(
                        acc_c < acc_single,
                        "{}: dual-pipe must strictly accelerate the im2col pipeline \
                         ({} vs {})",
                        m.key,
                        acc_c,
                        acc_single
                    );
                }
                if m.key.starts_with("fig8s1/") {
                    assert!(
                        speedup("standard_cycles", "accelerated_cycles") < 1.0
                            && speedup("standard_cycles_single", "accelerated_cycles_single")
                                < 1.0
                            && speedup("standard_cycles_db", "accelerated_cycles_db") < 1.0,
                        "{}: direct pooling must still win at stride (1,1) \
                         in every issue model",
                        m.key
                    );
                }
                // Double-buffering may never exceed the 2x band-footprint
                // budget the halved capacity query promises.
                let (ub_peak, l1_peak) = (m.int("ub_peak"), m.int("l1_peak"));
                let (ub_peak_db, l1_peak_db) = (m.int("ub_peak_db"), m.int("l1_peak_db"));
                assert!(
                    ub_peak_db <= 2 * ub_peak && l1_peak_db <= 2 * l1_peak.max(1),
                    "{}: double-buffered peaks ({}, {}) exceed the 2x budget of ({}, {})",
                    m.key,
                    ub_peak_db,
                    l1_peak_db,
                    ub_peak,
                    l1_peak
                );
                // Every Fig. 8 gate workload sits below its tiling
                // threshold — a single band, so double-buffering has
                // nothing to prefetch and must leave the schedule alone.
                if m.key.starts_with("fig8") {
                    assert_eq!(
                        (m.int("standard_cycles_db"), m.int("accelerated_cycles_db")),
                        (std_c, acc_c),
                        "{}: single-band workloads must be unaffected by double-buffering",
                        m.key
                    );
                }
            }

            // Legacy invariant: the single-issue columns are the PR 1
            // numbers, exactly.
            for &(key, std_cycles, acc_cycles) in PR1_BASELINE {
                let m = metrics
                    .iter()
                    .find(|m| m.key == key)
                    .unwrap_or_else(|| panic!("{key}: PR 1 metric disappeared"));
                assert_eq!(
                    (
                        m.int("standard_cycles_single"),
                        m.int("accelerated_cycles_single")
                    ),
                    (std_cycles, acc_cycles),
                    "{key}: single-issue columns must reproduce PR 1 cycle-for-cycle"
                );
            }

            let json = dv_bench::json::parse(&doc).unwrap();
            assert!(
                json.get("metrics")
                    .and_then(|a| a.as_arr())
                    .and_then(|a| a.first())
                    .and_then(|m| m.get("vs_baseline_standard"))
                    .is_some(),
                "BENCH_pooling.json must report speedup vs the baseline"
            );

            // The artifact carries the per-core-count scaling columns:
            // every Fig. 7 shape at every swept core count, with the
            // contended column never below the independent one. (The
            // bit-identical / monotone / fair-share-bound asserts run
            // inside `collect_scaling` itself; the tolerance comparison
            // against the committed baseline ran inside `gate::run`.)
            let scaling = parsed.rows("scaling");
            assert_eq!(
                scaling.len(),
                3 * gate::SCALING_CORES.len(),
                "scaling section must cover all Fig. 7 shapes x core counts"
            );
            for s in scaling {
                assert!(
                    s.int("cycles_contended") >= s.int("cycles"),
                    "{}: the contention stage can only add cycles",
                    s.key
                );
            }

            // The artifact carries the sub-plane backward scaling
            // columns: every Fig. 7 shape at every swept core count,
            // under both memory models. (Bit-identical dx, monotone
            // sub-linear cycles, and zero declines are asserted inside
            // `collect_backward_scaling` itself; here we re-check the
            // emitted rows' structural contracts.)
            let backward = parsed.rows("scaling-backward");
            assert_eq!(
                backward.len(),
                3 * gate::SCALING_CORES.len(),
                "scaling-backward section must cover all Fig. 7 shapes x core counts"
            );
            assert!(
                backward.iter().any(|b| b.int("sharded") != 0),
                "at least one Fig. 7 backward row must engage sub-plane shards"
            );
            for b in backward {
                assert!(
                    b.int("cycles_l2") >= b.int("cycles"),
                    "{}: the L2 memory stage can only add cycles over independent",
                    b.key
                );
                assert_eq!(
                    b.int("declines"),
                    0,
                    "{}: no typed declines on gate shapes",
                    b.key
                );
                if b.int("sharded") != 0 {
                    assert!(
                        b.int("l2_hits") > 0,
                        "{}: same-plane row-band shards must share L2 lines",
                        b.key
                    );
                }
            }

            // The artifact carries the auto-tuner's chosen-algorithm
            // column per tracked row. (The honesty contract — no
            // fallbacks, no uncertified wins, bit-identical outputs,
            // tuned never slower than a forced alternative — is asserted
            // inside `collect_tuner` itself; here we re-check the
            // emitted rows and pin the Fig. 8 crossover as *choices*.)
            let tuner = parsed.rows("tuner");
            assert!(!tuner.is_empty(), "tuner section must be emitted");
            for t in tuner {
                if t.key.starts_with("tuner/fig8s1/") {
                    assert_eq!(
                        t.text("chosen"),
                        "direct",
                        "{}: stride (1,1) must auto-select the direct reduction",
                        t.key
                    );
                }
                if t.key.starts_with("tuner/fig8s2/") {
                    assert_eq!(
                        t.text("chosen"),
                        "im2col",
                        "{}: stride (2,2) must auto-select im2col",
                        t.key
                    );
                }
                for (what, alt) in [
                    ("direct", t.int("direct_cycles")),
                    ("im2col", t.int("im2col_cycles")),
                ] {
                    assert!(
                        alt == 0 || t.int("tuned_cycles") <= alt,
                        "{}: tuned cycles {} exceed the forced {} run's {}",
                        t.key,
                        t.int("tuned_cycles"),
                        what,
                        alt
                    );
                }
            }

            // The artifact carries the whole-model fused-pipeline rows
            // for both pinned paper segments. (Bit-exactness against the
            // layered pass and the golden reference is asserted inside
            // `collect_model`; here we re-check the emitted rows' pinned
            // perf contracts: implicit im2col never costs cycles, always
            // shrinks the L1 peak, and the fused handoff always saves GM
            // round-trip traffic.)
            let model = parsed.rows("model");
            for name in ["model/vgg16-seg", "model/inception-seg"] {
                let m = model
                    .iter()
                    .find(|m| m.key == name)
                    .unwrap_or_else(|| panic!("model section missing the {name} row"));
                assert!(
                    m.int("conv_implicit_cycles") <= m.int("conv_materialised_cycles"),
                    "{name}: implicit im2col must never cost cycles \
                     ({} vs {})",
                    m.int("conv_implicit_cycles"),
                    m.int("conv_materialised_cycles")
                );
                assert!(
                    m.int("l1_peak_implicit") < m.int("l1_peak_materialised"),
                    "{name}: implicit im2col must strictly shrink the L1 peak \
                     ({} vs {})",
                    m.int("l1_peak_implicit"),
                    m.int("l1_peak_materialised")
                );
                assert!(
                    m.int("gm_bytes_fused") < m.int("gm_bytes_layered"),
                    "{name}: the fused handoff must strictly cut GM traffic \
                     ({} vs {})",
                    m.int("gm_bytes_fused"),
                    m.int("gm_bytes_layered")
                );
                assert!(
                    m.int("fused_cycles") <= m.int("layered_cycles"),
                    "{name}: the fused segment may never run slower than layered \
                     ({} vs {})",
                    m.int("fused_cycles"),
                    m.int("layered_cycles")
                );
            }
        }
        Err(regressions) => panic!(
            "performance regressions vs the committed baseline:\n  {}\n\
             (if intentional, regenerate with `cargo run --release -p dv-bench --bin repro -- gate`)",
            regressions.join("\n  ")
        ),
    }
}

/// The `*_single` columns in the gate are *derived* from dual-pipe runs
/// (`busy_cycles` + dispatch). Pin the derivation against real
/// `CostModel::single_issue()` executions on one Fig. 7 shape: the legacy
/// path must land on the PR 1 numbers, and the derivation must agree with
/// it exactly.
#[test]
fn single_issue_derivation_matches_real_runs() {
    use dv_bench::inputs::feature_map;
    use dv_core::{ForwardImpl, PoolingEngine};
    use dv_sim::{Chip, CostModel};
    use dv_tensor::PoolParams;

    let input = feature_map(1, 288, 35, 35, 71);
    let dual = PoolingEngine::ascend910();
    let single = PoolingEngine::new(Chip::new(32, CostModel::single_issue()));

    for (impl_, pr1_cycles) in [
        (ForwardImpl::Standard, 18152u64),
        (ForwardImpl::Im2col, 5714u64),
    ] {
        let (out_d, run_d) = dual
            .maxpool_forward(&input, PoolParams::K3S2, impl_)
            .expect("dual-pipe forward");
        let (out_s, run_s) = single
            .maxpool_forward(&input, PoolParams::K3S2, impl_)
            .expect("single-issue forward");
        assert_eq!(
            out_d.data(),
            out_s.data(),
            "{impl_:?}: issue model must not change results"
        );
        assert_eq!(
            run_s.cycles, pr1_cycles,
            "{impl_:?}: legacy mode must reproduce the PR 1 cycle count"
        );
        assert_eq!(
            gate::single_issue_cycles(&run_d),
            run_s.cycles,
            "{impl_:?}: derived serial cycles must equal a real serial run"
        );
        assert_eq!(
            run_s.total.stall_cycles, 0,
            "{impl_:?}: the serial machine never stalls"
        );
        assert_eq!(run_d.peaks, run_s.peaks, "{impl_:?}: peaks are timing-free");
    }
}

/// Double-buffered row-band prefetch must strictly lower the dual-pipe
/// makespan on every multi-band Fig. 8 workload whose Vector pipe is the
/// bottleneck (standard, expansion, X-Y split), and must leave the
/// SCU-bound im2col schedule untouched — while staying bit-identical to
/// the single-buffered and serial models in all cases.
#[test]
fn double_buffering_strictly_wins_on_multiband_fig8_workloads() {
    use dv_bench::inputs::plane;
    use dv_core::{ForwardImpl, PoolingEngine};
    use dv_sim::{Chip, CostModel};
    use dv_tensor::PoolParams;

    // 96x96 sits past the tiling threshold of every implementation for
    // K(3,3) at strides 1..3, so each run below splits into row bands.
    let cases: &[(usize, ForwardImpl)] = &[
        (1, ForwardImpl::Standard),
        (2, ForwardImpl::Standard),
        (3, ForwardImpl::Standard),
        (2, ForwardImpl::Expansion),
        (2, ForwardImpl::XYSplit),
        (1, ForwardImpl::Im2col),
        (2, ForwardImpl::Im2col),
        (3, ForwardImpl::Im2col),
    ];
    for &(stride, impl_) in cases {
        let params = PoolParams::new((3, 3), (stride, stride));
        let input = plane(1, 96, 96, 80 + stride as u32);
        let db = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let plain = db.clone().with_double_buffering(false);
        let serial = PoolingEngine::new(Chip::new(1, CostModel::single_issue()));
        let (o_db, r_db) = db.maxpool_forward(&input, params, impl_).expect("db");
        let (o_pl, r_pl) = plain.maxpool_forward(&input, params, impl_).expect("plain");
        let (o_se, _) = serial
            .maxpool_forward(&input, params, impl_)
            .expect("serial");
        assert_eq!(
            o_db.data(),
            o_pl.data(),
            "s{stride} {impl_:?}: double-buffering changed the result"
        );
        assert_eq!(
            o_db.data(),
            o_se.data(),
            "s{stride} {impl_:?}: issue model changed the result"
        );
        if impl_ == ForwardImpl::Im2col {
            assert_eq!(
                r_db.cycles, r_pl.cycles,
                "s{stride} {impl_:?}: the SCU-bound im2col lowering must \
                 decline prefetch and keep the reference schedule"
            );
        } else {
            assert!(
                r_db.cycles < r_pl.cycles,
                "s{stride} {impl_:?}: prefetch must strictly lower the \
                 dual-pipe makespan ({} vs {})",
                r_db.cycles,
                r_pl.cycles
            );
        }
    }
}

/// On the multi-band Fig. 7 shape, prefetch must strictly pay off for
/// the Col2Im merge (real MTE time to hide), must be declined by the
/// Vector-bound VAdd merge (halved bands double the overlap tax), and
/// the gradients must stay bit-identical across buffering modes.
#[test]
fn double_buffering_strictly_wins_on_multiband_backward() {
    use dv_bench::inputs::{feature_map, gradients};
    use dv_core::{MergeImpl, PoolingEngine};
    use dv_tensor::reference;

    let w = dv_core::fig7_workloads()[0]; // 147x147x64 — multi-band
    let input = feature_map(1, w.c, w.h, w.w, 73);
    let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
    let (oh, ow) = w.out_dims();
    let grads = gradients(1, input.c1, oh, ow, 74);
    let db = PoolingEngine::ascend910();
    let plain = db.clone().with_double_buffering(false);
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (dx_db, r_db) = db
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, merge)
            .expect("db backward");
        let (dx_pl, r_pl) = plain
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, merge)
            .expect("plain backward");
        assert_eq!(
            dx_db.data(),
            dx_pl.data(),
            "{merge:?}: double-buffering changed the gradient"
        );
        if merge == MergeImpl::VAdd {
            assert_eq!(
                r_db.cycles, r_pl.cycles,
                "VAdd: the Vector-bound merge must decline prefetch and \
                 keep the reference schedule"
            );
        } else {
            assert!(
                r_db.cycles < r_pl.cycles,
                "{merge:?}: prefetch must strictly lower the dual-pipe \
                 makespan ({} vs {})",
                r_db.cycles,
                r_pl.cycles
            );
        }
    }
}
