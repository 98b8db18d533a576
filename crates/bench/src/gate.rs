//! The cycle gate: one row schema for every tracked number.
//!
//! The whole point of this repository is the *cycle counts* — a refactor
//! that keeps outputs bit-exact but quietly doubles the simulated cycles
//! of the accelerated kernels has destroyed the artifact without failing
//! a single functional test. This module replays the paper's Fig. 7,
//! Fig. 8 and Table I workloads, writes what it measured to
//! `BENCH_pooling.json`, and compares it against the committed baseline
//! in `crates/bench/baselines/pooling.json`. The simulator is
//! deterministic, so honest changes show up as exact deltas.
//!
//! **One schema.** Every tracked number is a field of a [`Row`]: a key
//! plus named [`Value`]s (an exact integer, a text choice, or a ratio
//! rendered to 4 decimals). Rows live in named sections of a [`Doc`],
//! and one [`render`] / [`parse`] / [`compare`] serves every section of
//! both this document and the host-throughput one ([`crate::host`]).
//! `render(&parse(doc)?) == doc` holds byte for byte on both committed
//! baselines.
//!
//! **One manifest.** [`checks`] lists every gated (section, field,
//! [`Policy`], bound); [`compare`] enforces exactly that list and
//! nothing else. Fields outside it (ratios, controls, denominators) are
//! written for trending but not gated. A section or field missing from
//! the baseline is new and passes; a field present with value 0 is a
//! ceiling of 0.
//!
//! The sections and their collectors, each asserting its own
//! correctness contract in-run before it returns rows:
//!
//! * `metrics` ([`collect`]) — every Fig. 7 / Fig. 8 / Table I row:
//!   standard vs accelerated cycles under the dual-pipe model, the
//!   derived single-issue model (`*_single`, via
//!   [`single_issue_cycles`]), double-buffered prefetch (`*_db`) and the
//!   no-rename control (`*_norename`,
//!   [`CostModel::dual_pipe_no_rename`]), plus UB/L1 peaks from
//!   [`ChipRun::peaks`];
//! * `scaling` ([`collect_scaling`]) — the sharded Im2col forward at
//!   every [`SCALING_CORES`] count, independent and shared-HBM memory;
//! * `scaling-backward` ([`collect_backward_scaling`]) — the sharded
//!   Col2Im backward at every core count, independent and L2 memory,
//!   with the partition choice (`sharded`) and L2 hits;
//! * `tuner` ([`collect_tuner`]) — the auto-tuner's chosen algorithm,
//!   its prediction, and every forced alternative's cycles;
//! * `model` ([`collect_model`]) — the pinned conv→pool segments,
//!   layered vs fused, materialised vs implicit im2col.
//!
//! When a cost-model or lowering change moves cycles *intentionally*,
//! regenerate the baseline with
//! `cargo run --release -p dv-bench --bin repro -- gate` and commit the
//! refreshed `pooling.json` alongside the change.

use crate::host::{HOST_SAMPLES, HOST_TOLERANCE};
use crate::inputs::{feature_map, gradients, plane};
use crate::json;
use dv_core::{
    fig7_workloads, table1_workloads, tiling_threshold, ForwardImpl, MergeImpl, OpKind, Plan,
    PoolProblem, PoolingEngine,
};
use dv_isa::BufferId;
use dv_sim::{Chip, ChipRun, CostModel, MemoryModel};
use dv_tensor::{reference, PoolParams};
use dv_tensor::{Nc1hwc0, PatchTensor};
use std::fmt::{self, Write as _};
use Value::{Int, Ratio, Text};

/// Relative slowdown tolerated before the gate fails (5%).
pub const TOLERANCE: f64 = 0.05;

/// The committed baseline (regenerate via `repro -- gate` when a change
/// legitimately moves cycles).
pub const COMMITTED_BASELINE: &str = include_str!("../baselines/pooling.json");

/// One field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An exact count: cycles, bytes, nanoseconds, a 0/1 choice.
    Int(u64),
    /// A named choice, e.g. the tuner's algorithm label.
    Text(String),
    /// A derived ratio, rendered to 4 decimals. Tests and gates that
    /// need it exactly recompute it from the integer fields.
    Ratio(f64),
}

impl Value {
    /// The value as a number (NaN for text, so no numeric bound can
    /// trip on it).
    pub fn num(&self) -> f64 {
        match self {
            Int(n) => *n as f64,
            Ratio(r) => *r,
            Text(_) => f64::NAN,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int(n) => write!(f, "{n}"),
            Text(s) => write!(f, "\"{s}\""),
            Ratio(r) => write!(f, "{r:.4}"),
        }
    }
}

/// `num / den` as a [`Ratio`] (a zero denominator counts as 1).
pub fn ratio(num: u64, den: u64) -> Value {
    Ratio(num as f64 / den.max(1) as f64)
}

/// One tracked workload: a stable key (e.g. `fig7a/147x147x64`) and its
/// named fields in render order.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Stable identifier, unique within its section.
    pub key: String,
    /// `(name, value)` pairs in render order.
    pub fields: Vec<(String, Value)>,
}

impl Row {
    /// A row from its key and fields.
    pub fn new(
        key: impl Into<String>,
        fields: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Row {
        Row {
            key: key.into(),
            fields: fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    /// The named field, if present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The named integer field. Panics if it is absent or not an
    /// integer.
    pub fn int(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Int(n)) => *n,
            other => panic!("{}: integer field \"{name}\" is {other:?}", self.key),
        }
    }

    /// The named text field. Panics if it is absent or not text.
    pub fn text(&self, name: &str) -> &str {
        match self.get(name) {
            Some(Text(s)) => s,
            other => panic!("{}: text field \"{name}\" is {other:?}", self.key),
        }
    }

    /// The exact ratio of two integer fields (a zero denominator counts
    /// as 1) — what a rendered [`Ratio`] rounds.
    pub fn ratio_of(&self, num: &str, den: &str) -> f64 {
        self.int(num) as f64 / self.int(den).max(1) as f64
    }
}

/// A gate document: the benchmark name and its named sections of rows,
/// in render order.
#[derive(Clone, Debug, PartialEq)]
pub struct Doc {
    /// `pooling` (this module) or `host` ([`crate::host`]); selects the
    /// constants written above the sections.
    pub benchmark: String,
    /// `(section name, rows)` pairs in render order.
    pub sections: Vec<(String, Vec<Row>)>,
}

impl Doc {
    /// A document from its benchmark name and sections.
    pub fn new<'a>(
        benchmark: &str,
        sections: impl IntoIterator<Item = (&'a str, Vec<Row>)>,
    ) -> Doc {
        Doc {
            benchmark: benchmark.to_string(),
            sections: sections
                .into_iter()
                .map(|(n, rows)| (n.to_string(), rows))
                .collect(),
        }
    }

    /// The named section's rows, if the document has that section.
    pub fn section(&self, name: &str) -> Option<&[Row]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rows)| &rows[..])
    }

    /// The named section's rows (empty when the section is absent).
    pub fn rows(&self, name: &str) -> &[Row] {
        self.section(name).unwrap_or_default()
    }
}

/// Render a document as `BENCH_pooling.json` / `BENCH_host.json`: the
/// benchmark's constants, then one line per row.
pub fn render(doc: &Doc) -> String {
    let mut out = format!("{{\n  \"benchmark\": \"{}\",\n", doc.benchmark);
    match doc.benchmark.as_str() {
        "host" => {
            let _ = writeln!(out, "  \"tolerance\": {HOST_TOLERANCE},");
            let _ = writeln!(out, "  \"samples\": {HOST_SAMPLES},");
        }
        // The behaviour lock ([`crate::lock`]) tolerates no drift.
        "lock" => out.push_str("  \"tolerance\": 0,\n"),
        _ => {
            let _ = writeln!(out, "  \"tolerance\": {TOLERANCE},");
            out.push_str("  \"issue_models\": [\"dual_pipe\", \"single_issue\"],\n");
        }
    }
    for (i, (name, rows)) in doc.sections.iter().enumerate() {
        let _ = writeln!(out, "  \"{name}\": [");
        for (j, row) in rows.iter().enumerate() {
            let _ = write!(out, "    {{\"key\": \"{}\"", row.key);
            for (name, value) in &row.fields {
                let _ = write!(out, ", \"{name}\": {value}");
            }
            out.push_str(if j + 1 == rows.len() { "}\n" } else { "},\n" });
        }
        out.push_str(if i + 1 == doc.sections.len() {
            "  ]\n"
        } else {
            "  ],\n"
        });
    }
    out.push_str("}\n");
    out
}

/// Parse a document [`render`] wrote. Every top-level array of objects
/// is a section; the other top-level members are the benchmark's
/// constants, which [`render`] rewrites from the benchmark name.
pub fn parse(doc: &str) -> Result<Doc, String> {
    let json::Value::Obj(members) = json::parse(doc).map_err(|e| e.to_string())? else {
        return Err("a gate document is a JSON object".into());
    };
    let mut out = Doc::new("", []);
    for (name, value) in members {
        match value {
            json::Value::Str(s) if name == "benchmark" => out.benchmark = s,
            json::Value::Arr(items) if items.iter().all(|i| matches!(i, json::Value::Obj(_))) => {
                let rows = items
                    .into_iter()
                    .map(|item| parse_row(&name, item))
                    .collect::<Result<_, _>>()?;
                out.sections.push((name, rows));
            }
            _ => {}
        }
    }
    Ok(out)
}

fn parse_row(section: &str, item: json::Value) -> Result<Row, String> {
    let json::Value::Obj(members) = item else {
        unreachable!("sections hold objects");
    };
    let mut key = None;
    let mut fields = Vec::new();
    for (name, value) in members {
        let value = match value {
            json::Value::Int(n) => Int(n),
            json::Value::Num(r) => Ratio(r),
            json::Value::Str(s) if name == "key" => {
                key = Some(s);
                continue;
            }
            json::Value::Str(s) => Text(s),
            _ => return Err(format!("{section} row: \"{name}\" is not a number or text")),
        };
        fields.push((name, value));
    }
    let key = key.ok_or(format!("{section} row missing \"key\""))?;
    Ok(Row { key, fields })
}

/// How [`compare`] treats one field against its baseline value. A field
/// no [`Check`] names is written but not gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Every baseline row must still be measured (checked on `key`).
    Present,
    /// May grow at most `bound` (relative) over the baseline.
    Ceiling,
    /// Must equal the baseline: a deterministic choice only changes with
    /// a deliberate re-baseline.
    NoFlip,
    /// Must stay above 0 on a row whose baseline was above 0.
    Positive,
    /// May fall at most `bound` (relative) below the baseline.
    Floor,
    /// The geometric mean over all matched rows may fall at most `bound`
    /// (relative) below the baseline's — one bound for the whole section.
    GeomeanFloor,
}

/// One gated bound: `field` of every `section` row under `policy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Check {
    /// Section name, e.g. `metrics` or `host`.
    pub section: &'static str,
    /// Field name (`key` for [`Policy::Present`]).
    pub field: &'static str,
    /// What the field must do against its baseline.
    pub policy: Policy,
    /// Relative slack of [`Policy::Ceiling`], [`Policy::Floor`] and
    /// [`Policy::GeomeanFloor`]; 0 for the exact policies.
    pub bound: f64,
}

/// The manifest: every bound [`compare`] enforces, for both the cycle
/// and the host-throughput documents.
pub fn checks() -> Vec<Check> {
    use Policy::*;
    let mut out = Vec::new();
    let mut add = |section, policy, bound, fields: &[&'static str]| {
        out.extend(fields.iter().map(|&field| Check {
            section,
            field,
            policy,
            bound,
        }));
    };
    for section in [
        "metrics",
        "scaling",
        "scaling-backward",
        "tuner",
        "model",
        "host",
    ] {
        add(section, Present, 0.0, &["key"]);
    }
    add(
        "metrics",
        Ceiling,
        TOLERANCE,
        &[
            "standard_cycles",
            "accelerated_cycles",
            "standard_cycles_single",
            "accelerated_cycles_single",
            "standard_cycles_db",
            "accelerated_cycles_db",
            "standard_cycles_norename",
            "accelerated_cycles_norename",
            "ub_peak",
            "l1_peak",
            "ub_peak_db",
            "l1_peak_db",
        ],
    );
    add(
        "scaling",
        Ceiling,
        TOLERANCE,
        &["cycles", "cycles_contended"],
    );
    add(
        "scaling-backward",
        Ceiling,
        TOLERANCE,
        &["cycles", "cycles_l2"],
    );
    add("scaling-backward", NoFlip, 0.0, &["sharded"]);
    add("scaling-backward", Positive, 0.0, &["l2_hits"]);
    add("tuner", NoFlip, 0.0, &["chosen"]);
    add("tuner", Ceiling, TOLERANCE, &["tuned_cycles"]);
    add(
        "model",
        Ceiling,
        TOLERANCE,
        &[
            "layered_cycles",
            "fused_cycles",
            "conv_materialised_cycles",
            "conv_implicit_cycles",
            "l1_peak_materialised",
            "l1_peak_implicit",
            "gm_bytes_layered",
            "gm_bytes_fused",
            "ub_peak_fused",
        ],
    );
    // Host wall time is noisy: one row may swing twice as far as the
    // geomean over all rows, which any real executor regression moves.
    add("host", Floor, 2.0 * HOST_TOLERANCE, &["sliced_speedup"]);
    add("host", GeomeanFloor, HOST_TOLERANCE, &["sliced_speedup"]);
    out
}

/// Compare `current` against `baseline` under every [`checks`] bound and
/// return the regressions (empty = the gate passes). A section or field
/// the baseline lacks is new and passes; a baseline field of 0 is a
/// ceiling of 0; a gated field the baseline has but `current` lacks is a
/// regression.
pub fn compare(current: &Doc, baseline: &Doc) -> Vec<String> {
    let mut regressions = Vec::new();
    for c in checks() {
        let Some(base_rows) = baseline.section(c.section) else {
            continue;
        };
        let mut matched = Vec::new();
        for b in base_rows {
            let Some(now_row) = current.rows(c.section).iter().find(|r| r.key == b.key) else {
                if c.policy == Policy::Present {
                    let section = c.section;
                    regressions.push(format!("{}: tracked {section} row disappeared", b.key));
                }
                continue;
            };
            let Some(base) = b.get(c.field) else {
                continue;
            };
            let Some(now) = now_row.get(c.field) else {
                regressions.push(format!("{} ({}): gated field disappeared", b.key, c.field));
                continue;
            };
            let (n, bv) = (now.num(), base.num());
            let flagged = match c.policy {
                Policy::Ceiling => n > bv * (1.0 + c.bound),
                Policy::Floor => n < bv * (1.0 - c.bound),
                Policy::Positive => bv > 0.0 && n == 0.0,
                Policy::NoFlip => now != base,
                Policy::Present | Policy::GeomeanFloor => false,
            };
            if flagged {
                let why = match c.policy {
                    Policy::NoFlip => format!("choice flipped ({base} -> {now})"),
                    Policy::Positive => format!("vanished ({base} -> {now})"),
                    _ => format!("{now} vs baseline {base} ({:+.1}%)", (n / bv - 1.0) * 100.0),
                };
                regressions.push(format!("{} ({}): {why}", b.key, c.field));
            }
            matched.push((n, bv));
        }
        if c.policy == Policy::GeomeanFloor && !matched.is_empty() {
            let geomean = |xs: &mut dyn Iterator<Item = f64>| {
                (xs.map(f64::ln).sum::<f64>() / matched.len() as f64).exp()
            };
            let now = geomean(&mut matched.iter().map(|m| m.0));
            let base = geomean(&mut matched.iter().map(|m| m.1));
            if now < base * (1.0 - c.bound) {
                regressions.push(format!(
                    "{} geomean {}: {now:.4} vs baseline {base:.4} ({:+.1}%)",
                    c.section,
                    c.field,
                    (now / base - 1.0) * 100.0
                ));
            }
        }
    }
    regressions
}

/// Append to each `metrics` row its dual-pipe cycle ratios against the
/// baseline row of the same key (1.0 = unchanged, >1.0 = slower), as
/// `BENCH_pooling.json` reports them.
pub fn with_vs_baseline(mut doc: Doc, baseline: &Doc) -> Doc {
    for (name, rows) in &mut doc.sections {
        if name != "metrics" {
            continue;
        }
        for row in rows {
            let Some(b) = baseline.rows("metrics").iter().find(|b| b.key == row.key) else {
                continue;
            };
            for (name, field) in [
                ("vs_baseline_standard", "standard_cycles"),
                ("vs_baseline_accelerated", "accelerated_cycles"),
            ] {
                if let Some(base) = b.get(field) {
                    let now = row.int(field) as f64;
                    row.fields.push((name.to_string(), Ratio(now / base.num())));
                }
            }
        }
    }
    doc
}

/// Replay every section's workloads: the `BENCH_pooling.json` document.
pub fn collect_all() -> Doc {
    Doc::new(
        "pooling",
        [
            ("metrics", collect()),
            ("scaling", collect_scaling()),
            ("scaling-backward", collect_backward_scaling()),
            ("tuner", collect_tuner()),
            ("model", collect_model()),
        ],
    )
}

/// Run the full gate against [`COMMITTED_BASELINE`]: collect, compare,
/// and return the rendered `BENCH_pooling.json` contents on success or
/// the regression list on failure.
pub fn run() -> Result<String, Vec<String>> {
    let baseline = parse(COMMITTED_BASELINE)
        .map_err(|e| vec![format!("committed baseline unreadable: {e}")])?;
    let current = collect_all();
    let regressions = compare(&current, &baseline);
    if regressions.is_empty() {
        Ok(render(&with_vs_baseline(current, &baseline)))
    } else {
        Err(regressions)
    }
}

/// The serial (single-issue) chip cycles of a run that may have executed
/// under the dual-pipe model: per core, the unit-busy total plus whatever
/// dispatch overhead the chip charged on top of the core's makespan; the
/// chip-level count is the max over cores, mirroring [`ChipRun::cycles`].
/// Exact because per-instruction charges do not depend on the issue
/// model.
pub fn single_issue_cycles(run: &ChipRun) -> u64 {
    run.per_core
        .iter()
        .zip(&run.core_cycles)
        .map(|(c, total)| c.busy_cycles() + (total - c.cycles))
        .max()
        .unwrap_or(0)
}

/// Core counts the scaling gate sweeps — serial (1), under-subscribed
/// plane parallelism (2), the regime where band splitting starts paying
/// (8), and the full chip where 32 concurrent MTE streams oversubscribe
/// the shared HBM pipe by 4x (32 cores x 32 B/cyc vs 256 B/cyc).
pub const SCALING_CORES: [usize; 4] = [1, 2, 8, 32];

/// Replay the Fig. 7 forward workloads through the sharded engine at
/// every [`SCALING_CORES`] count and measure the scaling curve: chip
/// cycles under [`MemoryModel::Independent`] and with the shared-HBM
/// contention stage ([`MemoryModel::ascend910_hbm`]), and the contention
/// stalls summed over all cores.
///
/// Asserts the tentpole's correctness contract in-run:
///
/// * outputs are **bit-identical** at every core count and under both
///   memory models (sharding and contention are pure scheduling);
/// * independent-model cycles are **monotone non-increasing** in the
///   core count (more cores never hurt — the partition chooser can
///   always keep the narrower plan);
/// * speedup stays **sub-linear**: `cycles(n) * n >= cycles(1)` — work
///   is conserved, cores only divide it;
/// * contention is **bounded**: each core's stall keeps it within the
///   fair-share factor `max(1, active * per_core_peak / shared)` of its
///   uncontended makespan, so the shared pipe degrades but never
///   livelocks a core.
pub fn collect_scaling() -> Vec<Row> {
    let mut out = Vec::new();
    let cost = CostModel::ascend910_like();
    let MemoryModel::SharedBandwidth {
        bytes_per_cycle: shared,
    } = MemoryModel::ascend910_hbm()
    else {
        unreachable!("ascend910_hbm is a shared-bandwidth model");
    };
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let mut serial_cycles = 0u64;
        let mut prev_cycles = u64::MAX;
        let mut reference_out = None;
        for &cores in &SCALING_CORES {
            let eng = PoolingEngine::new(Chip::new(cores, cost)).with_sharding(true);
            let eng_c = PoolingEngine::new(
                Chip::new(cores, cost).with_memory(MemoryModel::ascend910_hbm()),
            )
            .with_sharding(true);
            let (o, run) = eng
                .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
                .expect("scaling im2col");
            let (o_c, run_c) = eng_c
                .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
                .expect("scaling im2col contended");
            assert_eq!(
                o.data(),
                o_c.data(),
                "scaling/{shape}/c{cores}: contention stage changed the output"
            );
            match &reference_out {
                None => {
                    reference_out = Some(o.data().to_vec());
                    serial_cycles = run.cycles;
                }
                Some(r) => assert_eq!(
                    o.data(),
                    &r[..],
                    "scaling/{shape}/c{cores}: sharding changed the output"
                ),
            }
            assert!(
                run.cycles <= prev_cycles,
                "scaling/{shape}/c{cores}: speedup must be monotone in the \
                 core count ({} cycles vs {} with fewer cores)",
                run.cycles,
                prev_cycles
            );
            prev_cycles = run.cycles;
            assert!(
                run.cycles * cores as u64 >= serial_cycles,
                "scaling/{shape}/c{cores}: super-linear speedup is a cost-model \
                 bug ({} x {cores} < serial {serial_cycles})",
                run.cycles
            );
            // Bounded degradation: per core, the booked stall keeps the
            // core within the fair-share factor of its uncontended
            // makespan (+1 for the stall rounding).
            let active = run_c.core_cycles.len() as u64;
            let factor = ((active * cost.move_bytes_per_cycle) as f64 / shared as f64).max(1.0);
            for (c, &cc) in run_c.per_core.iter().zip(&run_c.core_cycles) {
                let uncontended = cc - c.contention_stalls;
                assert!(
                    cc as f64 <= factor * uncontended as f64 + 1.0,
                    "scaling/{shape}/c{cores}: contention stall exceeds the \
                     fair-share bound ({cc} vs {factor:.2} x {uncontended})"
                );
            }
            out.push(Row::new(
                format!("scaling/{shape}/c{cores}"),
                [
                    ("cores", Int(cores as u64)),
                    ("cycles", Int(run.cycles)),
                    ("cycles_contended", Int(run_c.cycles)),
                    ("contention_stalls", Int(run_c.total.contention_stalls)),
                    ("contention_factor", ratio(run_c.cycles, run.cycles)),
                ],
            ));
        }
    }
    out
}

/// Replay the Fig. 7 backward (Fig. 7c) workloads through the sharded
/// engine at every [`SCALING_CORES`] count, under both the independent
/// memory model and the L2 locality stage ([`MemoryModel::ascend910_l2`]).
/// `sharded` is 1 when the cost-model partitioner chose the sub-plane
/// ([`dv_core::PartitionAxis::PerRowBand`]) plan, 0 for per-plane;
/// `declines` counts sharded-lowering declines (booked as
/// `tuner_fallbacks`).
///
/// Asserts the halo-merge tentpole's contract in-run:
///
/// * gradients are **bit-identical** at every core count, under both
///   memory models, and to `dv_tensor::reference::maxpool_backward` —
///   halo-merge sharding is pure scheduling;
/// * independent-model cycles are **monotone non-increasing** in the
///   core count and speedup stays **sub-linear**
///   (`cycles(n) * n >= cycles(1)`), including across the switch to
///   sub-plane shards;
/// * nothing declines and nothing goes uncertified on a tracked row
///   (`tuner_fallbacks == 0`, `tuner_mispredicted == 0`) — the
///   partitioner only picks sub-plane splits it can actually lower;
/// * whenever the sub-plane plan is chosen under the L2 model, the run
///   books **`l2_hits > 0`**: row-band shards of one plane re-read
///   overlapping gradient/mask rows from the L2 instead of the HBM, so
///   the sharded plan moves strictly fewer HBM bytes than per-plane.
pub fn collect_backward_scaling() -> Vec<Row> {
    use dv_core::PartitionAxis;
    let mut out = Vec::new();
    let cost = CostModel::ascend910_like();
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let want =
            reference::maxpool_backward(&mask, &grads, &w.params, w.h, w.w).expect("reference dx");
        let mut serial_cycles = 0u64;
        let mut prev_cycles = u64::MAX;
        for &cores in &SCALING_CORES {
            let key = format!("scaling-backward/{shape}/c{cores}");
            let eng = PoolingEngine::new(Chip::new(cores, cost)).with_sharding(true);
            let eng_l2 =
                PoolingEngine::new(Chip::new(cores, cost).with_memory(MemoryModel::ascend910_l2()))
                    .with_sharding(true);
            let (dx, run) = eng
                .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
                .expect("backward scaling");
            let (dx_l2, run_l2) = eng_l2
                .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
                .expect("backward scaling l2");
            assert_eq!(
                dx.data(),
                want.data(),
                "{key}: sharded backward diverged from the reference"
            );
            assert_eq!(
                dx.data(),
                dx_l2.data(),
                "{key}: the L2 stage changed the gradient"
            );
            if cores == SCALING_CORES[0] {
                serial_cycles = run.cycles;
            }
            assert!(
                run.cycles <= prev_cycles,
                "{key}: backward speedup must be monotone in the core count \
                 ({} cycles vs {} with fewer cores)",
                run.cycles,
                prev_cycles
            );
            prev_cycles = run.cycles;
            assert!(
                run.cycles * cores as u64 >= serial_cycles,
                "{key}: super-linear backward speedup is a cost-model bug \
                 ({} x {cores} < serial {serial_cycles})",
                run.cycles
            );
            for r in [&run, &run_l2] {
                assert_eq!(
                    (r.total.tuner_fallbacks, r.total.tuner_mispredicted),
                    (0, 0),
                    "{key}: a tracked backward row may neither decline nor go \
                     uncertified"
                );
            }
            let prob = PoolProblem::new(1, input.c1, w.h, w.w, w.params).expect("backward problem");
            let sharded = |e: &PoolingEngine| {
                let plan = e.plan(OpKind::MaxBackward(MergeImpl::Col2Im), &prob);
                plan.expect("backward plan").axis == PartitionAxis::PerRowBand
            };
            if sharded(&eng_l2) {
                assert!(
                    run_l2.total.l2_hits > 0,
                    "{key}: same-plane shards must serve overlapping input rows \
                     from the L2 (zero hits booked)"
                );
            }
            let sharded = sharded(&eng);
            out.push(Row::new(
                key,
                [
                    ("cores", Int(cores as u64)),
                    ("cycles", Int(run.cycles)),
                    ("cycles_l2", Int(run_l2.cycles)),
                    ("l2_factor", ratio(run_l2.cycles, run.cycles)),
                    ("l2_hits", Int(run_l2.total.l2_hits)),
                    ("l2_miss_stalls", Int(run_l2.total.l2_miss_stalls)),
                    ("gm_bytes", Int(run.total.gm_bytes)),
                    ("sharded", Int(u64::from(sharded))),
                    ("declines", Int(run.total.tuner_fallbacks)),
                ],
            ));
        }
    }
    out
}

/// One auto-tuner row: the algorithm the tuner dispatched (`direct`,
/// `im2col`, `fold`), its pre-run prediction, the tuned run's cycles, and
/// each forced alternative's cycles (0 = that alternative cannot lower
/// the workload).
fn tuner_row(key: String, plan: &Plan, tuned: u64, forced: [u64; 2]) -> Row {
    let chosen = plan
        .algorithm
        .expect("a tuned plan dispatches an algorithm");
    let predicted = plan.ranking.iter().find(|p| p.algorithm == chosen);
    Row::new(
        key,
        [
            ("chosen", Text(chosen.label().to_string())),
            ("predicted_cycles", Int(predicted.map_or(0, |p| p.cycles))),
            ("tuned_cycles", Int(tuned)),
            ("direct_cycles", Int(forced[0])),
            ("im2col_cycles", Int(forced[1])),
        ],
    )
}

/// Measure one forward tuner row and certify the prediction-honesty
/// contract in-run: on a tracked workload the tuner must not fall back,
/// its win must certify against every alternative's cycle floor
/// (`tuner_mispredicted == 0`), the tuned output must be bit-identical
/// to every forced algorithm's, and the tuned makespan must not exceed
/// any forced alternative's.
fn tuner_forward_row(
    key: String,
    eng: &PoolingEngine,
    input: &Nc1hwc0,
    (c1, h, w): (usize, usize, usize),
    params: PoolParams,
) -> Row {
    let prob = PoolProblem::new(1, c1, h, w, params).expect("tuner problem");
    let tuned = eng.clone().with_auto_tuning(true);
    let op = OpKind::MaxForward(ForwardImpl::Standard);
    let plan = tuned.plan(op, &prob).expect("tuned forward plan");
    let (o_t, run) = tuned
        .maxpool_forward(input, params, ForwardImpl::Standard)
        .expect("tuned forward");
    assert_eq!(
        run.total.tuner_fallbacks, 0,
        "{key}: tuner fell back on a tracked row"
    );
    assert_eq!(
        run.total.tuner_mispredicted, 0,
        "{key}: the tuner's win could not be certified on a tracked row"
    );
    let mut cycles = [0u64; 2];
    for (slot, impl_) in [ForwardImpl::Standard, ForwardImpl::Im2col]
        .into_iter()
        .enumerate()
    {
        if let Ok((o, r)) = eng.maxpool_forward(input, params, impl_) {
            assert_eq!(
                o_t.data(),
                o.data(),
                "{key}: tuned output diverged from forced {impl_:?}"
            );
            assert!(
                run.cycles <= r.cycles,
                "{key}: tuned run ({} cycles) lost to forced {impl_:?} ({} cycles)",
                run.cycles,
                r.cycles
            );
            cycles[slot] = r.cycles;
        }
    }
    tuner_row(key, &plan, run.cycles, cycles)
}

/// Measure one backward tuner row with the same in-run certification as
/// [`tuner_forward_row`]: `direct` is the scattered-vadd merge, `im2col`
/// the Col2Im merge.
fn tuner_backward_row(
    key: String,
    eng: &PoolingEngine,
    mask: &PatchTensor,
    grads: &Nc1hwc0,
    (c1, h, w): (usize, usize, usize),
    params: PoolParams,
) -> Row {
    let prob = PoolProblem::new(1, c1, h, w, params).expect("tuner problem");
    let tuned = eng.clone().with_auto_tuning(true);
    let op = OpKind::MaxBackward(MergeImpl::VAdd);
    let plan = tuned.plan(op, &prob).expect("tuned backward plan");
    let (dx_t, run) = tuned
        .maxpool_backward(mask, grads, params, h, w, MergeImpl::VAdd)
        .expect("tuned backward");
    assert_eq!(
        run.total.tuner_fallbacks, 0,
        "{key}: tuner fell back on a tracked row"
    );
    assert_eq!(
        run.total.tuner_mispredicted, 0,
        "{key}: the tuner's win could not be certified on a tracked row"
    );
    let mut cycles = [0u64; 2];
    for (slot, merge) in [MergeImpl::VAdd, MergeImpl::Col2Im].into_iter().enumerate() {
        if let Ok((dx, r)) = eng.maxpool_backward(mask, grads, params, h, w, merge) {
            assert_eq!(
                dx_t.data(),
                dx.data(),
                "{key}: tuned gradient diverged from forced {merge:?}"
            );
            assert!(
                run.cycles <= r.cycles,
                "{key}: tuned run ({} cycles) lost to forced {merge:?} ({} cycles)",
                run.cycles,
                r.cycles
            );
            cycles[slot] = r.cycles;
        }
    }
    tuner_row(key, &plan, run.cycles, cycles)
}

/// Replay the tracked workloads through the auto-tuned engine and record
/// which algorithm it chose per row, with the prediction-honesty
/// contract asserted in-run (`tuner_forward_row`). Two choices are
/// pinned here because they *are* the paper's Fig. 8 crossover: stride
/// (1, 1) must auto-select the direct reduction and stride (2, 2) must
/// auto-select im2col. The backward tuner must route every Fig. 7 shape
/// through the Col2Im merge — the paper's Section V-B claim.
pub fn collect_tuner() -> Vec<Row> {
    let mut out = Vec::new();
    let eng = PoolingEngine::ascend910();
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let dims = (input.c1, w.h, w.w);
        out.push(tuner_forward_row(
            format!("tuner/fig7a/{shape}"),
            &eng,
            &input,
            dims,
            w.params,
        ));

        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let m = tuner_backward_row(
            format!("tuner/fig7c/{shape}"),
            &eng,
            &mask,
            &grads,
            dims,
            w.params,
        );
        assert_eq!(
            m.text("chosen"),
            "im2col",
            "{}: the backward tuner must route the paper shapes through Col2Im",
            m.key
        );
        out.push(m);
    }

    for stride in 1usize..=3 {
        let params = PoolParams::new((3, 3), (stride, stride));
        let eng1 = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let threshold = [ForwardImpl::Standard, ForwardImpl::Im2col]
            .iter()
            .map(|i| tiling_threshold(&params, *i, eng1.chip.caps))
            .min()
            .unwrap();
        for hw in [16usize, 24, 32] {
            if hw > threshold {
                continue;
            }
            let input = plane(1, hw, hw, 80 + hw as u32);
            let m = tuner_forward_row(
                format!("tuner/fig8s{stride}/{hw}x{hw}"),
                &eng1,
                &input,
                (1, hw, hw),
                params,
            );
            match stride {
                1 => assert_eq!(
                    m.text("chosen"),
                    "direct",
                    "{}: stride (1,1) must auto-select the direct reduction \
                     (the Fig. 8a crossover)",
                    m.key
                ),
                2 => assert_eq!(
                    m.text("chosen"),
                    "im2col",
                    "{}: stride (2,2) must auto-select im2col (the Fig. 8b \
                     crossover)",
                    m.key
                ),
                _ => {}
            }
            out.push(m);
        }
    }

    for w in table1_workloads()
        .into_iter()
        .filter(|w| !w.evaluated_in_fig7)
    {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 75);
        out.push(tuner_forward_row(
            format!("tuner/table1/{}-{}/{shape}", w.cnn, w.input_idx),
            &eng,
            &input,
            (input.c1, w.h, w.w),
            w.params,
        ));
    }
    out
}

/// Run both pinned conv→pool segments ([`dv_nn::pinned_segments`])
/// end-to-end through [`dv_nn::Sequential`], layer-at-a-time vs fused
/// (UB tile handoff), plus the conv layer alone under both im2col
/// lowerings, with the whole-model correctness contract asserted in-run:
///
/// * the layered and fused passes are **bit-identical** to
///   [`dv_nn::reference_forward`] (the fused consumer replays the golden
///   reduction order, so no tolerance is needed or granted);
/// * the implicit conv lowering is bit-identical to the materialised
///   one, **never slower**, and holds a **strictly smaller** L1 working
///   set — on the InceptionV3 segment this covers the multi-band walk
///   (its 35×35 output overflows the single-band L0C accumulator pin);
/// * the fused segment moves **strictly fewer GM bytes** than the
///   layered composition (the round-trip is the thing being deleted);
/// * nothing declines on a pinned segment: every fallback counter
///   (`implicit_declines`, `fusion_declines`) must read zero.
pub fn collect_model() -> Vec<Row> {
    use dv_conv::{run_conv2d_with, ConvLowering};
    use dv_nn::{reference_forward, run_fused_conv_pool, FusionPolicy, PoolKind, Sequential};

    let mut out = Vec::new();
    for seg in dv_nn::pinned_segments() {
        let key = format!("model/{}", seg.name);
        let dv_nn::Layer::Conv2d {
            weights,
            params: conv_params,
        } = &seg.layers[0]
        else {
            panic!("{key}: pinned segment must start with a conv layer");
        };
        let dv_nn::Layer::MaxPool2d {
            params: pool_params,
            ..
        } = &seg.layers[1]
        else {
            panic!("{key}: pinned segment must end with a maxpool layer");
        };

        // The conv layer alone, both lowerings, one core.
        let chip = Chip::new(1, CostModel::ascend910_like());
        let (o_m, run_m) = run_conv2d_with(
            &seg.input,
            weights,
            conv_params,
            &chip,
            ConvLowering::Materialised,
        )
        .expect("materialised conv");
        let (o_i, run_i) = run_conv2d_with(
            &seg.input,
            weights,
            conv_params,
            &chip,
            ConvLowering::Implicit,
        )
        .expect("implicit conv");
        assert_eq!(
            o_i.data(),
            o_m.data(),
            "{key}: implicit lowering changed the conv output"
        );
        assert_eq!(
            run_i.total.implicit_declines + run_m.total.implicit_declines,
            0,
            "{key}: a forced lowering may not book declines"
        );
        assert!(
            run_i.cycles <= run_m.cycles,
            "{key}: implicit im2col may not cost cycles ({} vs {})",
            run_i.cycles,
            run_m.cycles
        );
        assert!(
            run_i.peaks.of(BufferId::L1) < run_m.peaks.of(BufferId::L1),
            "{key}: implicit im2col must hold a strictly smaller L1 working set \
             ({} vs {})",
            run_i.peaks.of(BufferId::L1),
            run_m.peaks.of(BufferId::L1)
        );

        // The fused segment vs the layered composition, for GM traffic.
        let (o_f, run_f) = run_fused_conv_pool(
            &chip,
            &seg.input,
            weights,
            conv_params,
            PoolKind::Max,
            pool_params,
            ConvLowering::Auto,
        )
        .expect("fused segment");
        assert_eq!(
            run_f.total.implicit_declines, 0,
            "{key}: the fused segment may not decline on a pinned shape"
        );
        let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let (mut o_p, run_p) = eng
            .maxpool_forward(&o_m.to_nc1hwc0(), *pool_params, ForwardImpl::Im2col)
            .expect("layered pool");
        o_p.orig_c = weights.n;
        assert_eq!(
            o_f.data(),
            o_p.to_nchw().data(),
            "{key}: fused segment diverged from the layered composition"
        );
        let gm_bytes_layered = run_m.total.gm_bytes + run_p.total.gm_bytes;
        assert!(
            run_f.total.gm_bytes < gm_bytes_layered,
            "{key}: the handoff must move strictly fewer GM bytes ({} vs {})",
            run_f.total.gm_bytes,
            gm_bytes_layered
        );

        // Whole-model parity through Sequential, against the golden
        // reference.
        let model = Sequential::with_layers(
            PoolingEngine::new(Chip::new(1, CostModel::ascend910_like())),
            seg.layers.clone(),
        );
        let want = reference_forward(&model, &seg.input).expect("reference forward");
        let (layered_out, layered_run) = model.forward(&seg.input).expect("layered forward");
        let (fused_out, fused_run) = model
            .forward_fused_with(&seg.input, FusionPolicy::HandoffOnly)
            .expect("fused forward");
        assert_eq!(
            layered_out.data(),
            want.data(),
            "{key}: layered pass diverged from the reference"
        );
        assert_eq!(
            fused_out.data(),
            want.data(),
            "{key}: fused pass diverged from the reference"
        );
        assert_eq!(
            (fused_run.fused_segments(), fused_run.fusion_declines),
            (1, 0),
            "{key}: the pinned segment must fuse via the handoff"
        );

        let (layered, fused) = (layered_run.total_cycles(), fused_run.total_cycles());
        let l1_materialised = run_m.peaks.of(BufferId::L1) as u64;
        let l1_implicit = run_i.peaks.of(BufferId::L1) as u64;
        out.push(Row::new(
            key,
            [
                ("layered_cycles", Int(layered)),
                ("fused_cycles", Int(fused)),
                ("fused_gain", ratio(layered, fused)),
                ("conv_materialised_cycles", Int(run_m.cycles)),
                ("conv_implicit_cycles", Int(run_i.cycles)),
                ("l1_peak_materialised", Int(l1_materialised)),
                ("l1_peak_implicit", Int(l1_implicit)),
                ("l1_shrink", ratio(l1_implicit, l1_materialised)),
                ("gm_bytes_layered", Int(gm_bytes_layered)),
                ("gm_bytes_fused", Int(run_f.total.gm_bytes)),
                ("ub_peak_fused", Int(run_f.peaks.of(BufferId::Ub) as u64)),
            ],
        ));
    }
    out
}

/// One `metrics` row: cycles of the standard and the accelerated
/// implementation under the dual-pipe model (single-buffered headline
/// columns, `*_db` double-buffered, `*_norename` the no-rename control)
/// and the derived single-issue model, plus UB/L1 peaks (max over both
/// implementations). Asserts the 2x double-buffer footprint budget and
/// the renaming makespan contract.
fn metric(
    key: String,
    std: &ChipRun,
    acc: &ChipRun,
    std_db: &ChipRun,
    acc_db: &ChipRun,
    std_nr: &ChipRun,
    acc_nr: &ChipRun,
) -> Row {
    let peak = |a: &ChipRun, b: &ChipRun, buf| a.peaks.of(buf).max(b.peaks.of(buf)) as u64;
    let (ub_peak, l1_peak) = (peak(std, acc, BufferId::Ub), peak(std, acc, BufferId::L1));
    let ub_peak_db = peak(std_db, acc_db, BufferId::Ub);
    let l1_peak_db = peak(std_db, acc_db, BufferId::L1);
    // The ping-pong layout may double the band-cycled regions but never
    // more: the planner sizes bands so 2x the footprint fits.
    assert!(
        ub_peak_db <= 2 * ub_peak && l1_peak_db <= 2 * l1_peak.max(1),
        "{}: double-buffered peaks exceed the 2x band-footprint budget \
         (UB {} vs {}, L1 {} vs {})",
        key,
        ub_peak_db,
        ub_peak,
        l1_peak_db,
        l1_peak
    );
    // Renaming's makespan contract, enforced on every tracked row: the
    // cost-aware planner only schedules a versioned layout when its
    // overlap model says it wins, and scoreboard renaming on an
    // unchanged program can only relax waits — so the renamed makespan
    // never exceeds the no-rename control's.
    assert!(
        std_db.cycles <= std_nr.cycles && acc_db.cycles <= acc_nr.cycles,
        "{}: renaming may never cost dual-pipe cycles \
         (standard {} vs no-rename {}, accelerated {} vs no-rename {})",
        key,
        std_db.cycles,
        std_nr.cycles,
        acc_db.cycles,
        acc_nr.cycles
    );
    let (std_single, acc_single) = (single_issue_cycles(std), single_issue_cycles(acc));
    Row::new(
        key,
        [
            ("standard_cycles", Int(std.cycles)),
            ("accelerated_cycles", Int(acc.cycles)),
            ("speedup", ratio(std.cycles, acc.cycles)),
            ("standard_cycles_single", Int(std_single)),
            ("accelerated_cycles_single", Int(acc_single)),
            ("speedup_single", ratio(std_single, acc_single)),
            ("standard_cycles_db", Int(std_db.cycles)),
            ("accelerated_cycles_db", Int(acc_db.cycles)),
            ("speedup_db", ratio(std_db.cycles, acc_db.cycles)),
            ("standard_cycles_norename", Int(std_nr.cycles)),
            ("accelerated_cycles_norename", Int(acc_nr.cycles)),
            // What scratchpad renaming buys on the accelerated
            // implementation (1.0 = nothing, >1.0 = a measured win).
            ("rename_gain", ratio(acc_nr.cycles, acc_db.cycles)),
            ("ub_peak", Int(ub_peak)),
            ("l1_peak", Int(l1_peak)),
            ("ub_peak_db", Int(ub_peak_db)),
            ("l1_peak_db", Int(l1_peak_db)),
        ],
    )
}

/// Replay every tracked workload and measure it.
///
/// Covers all Fig. 7 shapes (forward, forward+argmax, backward — the
/// three bold InceptionV3 rows of Table I on the 32-core chip), the
/// Fig. 8 stride study (strides 1–3 on one core at fixed sizes below the
/// tiling threshold), and the ten remaining Table I rows (forward only,
/// both implementations), so every published workload's cycle counts and
/// buffer ceilings are under regression tracking. Inputs reuse the
/// experiment seeds, so cycle counts match the corresponding
/// `experiments::*` tables exactly.
pub fn collect() -> Vec<Row> {
    let mut out = Vec::new();
    // Headline columns run single-buffered (the PR 1-comparable
    // schedule); the `*_db` columns rerun the same workloads with
    // double-buffered row-band prefetch and must be bit-identical.
    let eng = PoolingEngine::ascend910().with_double_buffering(false);
    let eng_db = PoolingEngine::ascend910();
    // No-rename control: the same 32-core chip under
    // `CostModel::dual_pipe_no_rename()` with default scheduling — the
    // scoreboard never rotates slots and the planner (which derives its
    // rotation decision from the cost model) falls back to the
    // single/ping-pong band layouts, i.e. exactly the pre-renaming
    // schedule. The `*_norename` columns measure what renaming buys.
    let eng_nr = PoolingEngine::new(Chip::new(32, CostModel::dual_pipe_no_rename()));

    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);

        // Fig. 7a — forward.
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let (o_s, std) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("fig7a standard");
        let (o_a, acc) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7a im2col");
        let (o_sd, std_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("fig7a standard db");
        let (o_ad, acc_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7a im2col db");
        let (o_sn, std_nr) = eng_nr
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("fig7a standard no-rename");
        let (o_an, acc_nr) = eng_nr
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7a im2col no-rename");
        assert_eq!(o_s.data(), o_a.data(), "fig7a implementations disagree");
        assert_eq!(o_s.data(), o_sd.data(), "fig7a db changed standard output");
        assert_eq!(o_a.data(), o_ad.data(), "fig7a db changed im2col output");
        assert_eq!(o_s.data(), o_sn.data(), "fig7a no-rename changed standard");
        assert_eq!(o_a.data(), o_an.data(), "fig7a no-rename changed im2col");
        out.push(metric(
            format!("fig7a/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
            &std_nr,
            &acc_nr,
        ));

        // Fig. 7b — forward with the argmax mask.
        let input = feature_map(1, w.c, w.h, w.w, 72);
        let (o_s, m_s, std) = eng
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Standard)
            .expect("fig7b standard");
        let (o_a, m_a, acc) = eng
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7b im2col");
        let (o_sd, m_sd, std_db) = eng_db
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Standard)
            .expect("fig7b standard db");
        let (o_ad, m_ad, acc_db) = eng_db
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7b im2col db");
        let (o_sn, m_sn, std_nr) = eng_nr
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Standard)
            .expect("fig7b standard no-rename");
        let (o_an, m_an, acc_nr) = eng_nr
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7b im2col no-rename");
        assert_eq!(o_s.data(), o_a.data(), "fig7b implementations disagree");
        assert_eq!(m_s.data(), m_a.data(), "fig7b masks disagree");
        assert_eq!(
            (o_sn.data(), m_sn.data()),
            (o_s.data(), m_s.data()),
            "fig7b no-rename changed standard output"
        );
        assert_eq!(
            (o_an.data(), m_an.data()),
            (o_a.data(), m_a.data()),
            "fig7b no-rename changed im2col output"
        );
        assert_eq!(
            (o_sd.data(), m_sd.data()),
            (o_s.data(), m_s.data()),
            "fig7b db changed standard output"
        );
        assert_eq!(
            (o_ad.data(), m_ad.data()),
            (o_a.data(), m_a.data()),
            "fig7b db changed im2col output"
        );
        out.push(metric(
            format!("fig7b/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
            &std_nr,
            &acc_nr,
        ));

        // Fig. 7c — backward.
        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let (dx_s, std) = eng
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::VAdd)
            .expect("fig7c vadd");
        let (dx_a, acc) = eng
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
            .expect("fig7c col2im");
        let (dx_sd, std_db) = eng_db
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::VAdd)
            .expect("fig7c vadd db");
        let (dx_ad, acc_db) = eng_db
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
            .expect("fig7c col2im db");
        let (dx_sn, std_nr) = eng_nr
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::VAdd)
            .expect("fig7c vadd no-rename");
        let (dx_an, acc_nr) = eng_nr
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
            .expect("fig7c col2im no-rename");
        assert_eq!(dx_s.data(), dx_a.data(), "fig7c merges disagree");
        assert_eq!(dx_s.data(), dx_sd.data(), "fig7c db changed vadd output");
        assert_eq!(dx_a.data(), dx_ad.data(), "fig7c db changed col2im output");
        assert_eq!(dx_s.data(), dx_sn.data(), "fig7c no-rename changed vadd");
        assert_eq!(dx_a.data(), dx_an.data(), "fig7c no-rename changed col2im");
        out.push(metric(
            format!("fig7c/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
            &std_nr,
            &acc_nr,
        ));
    }

    // Batched N=4 Fig. 7 forward rows: the Mode-0 batch fold against the
    // per-plane schedule, on one AI core with the UB clamped to 64 KiB —
    // the capacity regime where lowering the batch through the SCU pays
    // off on all three shapes. The `standard` columns carry the
    // per-plane (batching-off) schedule, the `accelerated` columns the
    // batched fold; both run the im2col implementation, so the row
    // isolates exactly what the fold buys.
    let mut chip = Chip::new(1, CostModel::ascend910_like());
    chip.caps.ub = 64 * 1024;
    let mut chip_nr = Chip::new(1, CostModel::dual_pipe_no_rename());
    chip_nr.caps.ub = 64 * 1024;
    let bat = PoolingEngine::new(chip.clone()).with_double_buffering(false);
    let per = bat.clone().with_batching(false);
    let bat_db = PoolingEngine::new(chip);
    let per_db = bat_db.clone().with_batching(false);
    let bat_nr = PoolingEngine::new(chip_nr);
    let per_nr = bat_nr.clone().with_batching(false);
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(4, w.c, w.h, w.w, 76);
        let (o_p, std) = per
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 per-plane");
        let (o_b, acc) = bat
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 batched");
        let (o_pd, std_db) = per_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 per-plane db");
        let (o_bd, acc_db) = bat_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 batched db");
        let (o_pn, std_nr) = per_nr
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 per-plane no-rename");
        let (o_bn, acc_nr) = bat_nr
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 batched no-rename");
        assert_eq!(o_p.data(), o_b.data(), "fig7n4 fold changed the output");
        assert_eq!(o_p.data(), o_pd.data(), "fig7n4 db changed per-plane");
        assert_eq!(o_b.data(), o_bd.data(), "fig7n4 db changed batched");
        assert_eq!(
            o_p.data(),
            o_pn.data(),
            "fig7n4 no-rename changed per-plane"
        );
        assert_eq!(o_b.data(), o_bn.data(), "fig7n4 no-rename changed batched");
        // The fold's whole claim: strictly fewer Im2Col issues than N
        // per-plane passes, at no dual-pipe cycle cost. Cycles are held
        // on the double-buffered schedules (the engine default): those
        // give the fold its L1 band ping-pong, without which the single
        // L1 region serialises next-band staging against the current
        // band's Im2Cols and the single-program-per-c1 fold cannot hide
        // band boundaries the way 4-programs-per-c1 per-plane can.
        let (ib, ip) = (acc.total.issues_of("im2col"), std.total.issues_of("im2col"));
        assert!(
            ib < ip,
            "fig7n4/{shape}: batched fold must issue strictly fewer Im2Cols \
             ({ib} vs {ip} per-plane)"
        );
        assert!(
            acc_db.cycles <= std_db.cycles,
            "fig7n4/{shape}: batched fold may not cost dual-pipe cycles \
             ({} vs {})",
            acc_db.cycles,
            std_db.cycles
        );
        out.push(metric(
            format!("fig7n4/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
            &std_nr,
            &acc_nr,
        ));
    }

    // Fig. 8 — the stride study, one AI core, K(3,3).
    for stride in 1usize..=3 {
        let params = PoolParams::new((3, 3), (stride, stride));
        let eng1 = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()))
            .with_double_buffering(false);
        let eng1_db = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let eng1_nr = PoolingEngine::new(Chip::new(1, CostModel::dual_pipe_no_rename()));
        let threshold = [ForwardImpl::Standard, ForwardImpl::Im2col]
            .iter()
            .map(|i| tiling_threshold(&params, *i, eng1.chip.caps))
            .min()
            .unwrap();
        for hw in [16usize, 24, 32] {
            if hw > threshold {
                continue;
            }
            let input = plane(1, hw, hw, 80 + hw as u32);
            let (o_s, std) = eng1
                .maxpool_forward(&input, params, ForwardImpl::Standard)
                .expect("fig8 standard");
            let (o_a, acc) = eng1
                .maxpool_forward(&input, params, ForwardImpl::Im2col)
                .expect("fig8 im2col");
            let (o_sd, std_db) = eng1_db
                .maxpool_forward(&input, params, ForwardImpl::Standard)
                .expect("fig8 standard db");
            let (o_ad, acc_db) = eng1_db
                .maxpool_forward(&input, params, ForwardImpl::Im2col)
                .expect("fig8 im2col db");
            let (o_sn, std_nr) = eng1_nr
                .maxpool_forward(&input, params, ForwardImpl::Standard)
                .expect("fig8 standard no-rename");
            let (o_an, acc_nr) = eng1_nr
                .maxpool_forward(&input, params, ForwardImpl::Im2col)
                .expect("fig8 im2col no-rename");
            assert_eq!(o_s.data(), o_a.data(), "fig8 implementations disagree");
            assert_eq!(o_s.data(), o_sd.data(), "fig8 db changed standard output");
            assert_eq!(o_a.data(), o_ad.data(), "fig8 db changed im2col output");
            assert_eq!(o_s.data(), o_sn.data(), "fig8 no-rename changed standard");
            assert_eq!(o_a.data(), o_an.data(), "fig8 no-rename changed im2col");
            out.push(metric(
                format!("fig8s{stride}/{hw}x{hw}"),
                &std,
                &acc,
                &std_db,
                &acc_db,
                &std_nr,
                &acc_nr,
            ));
        }
    }

    // The ten Table I rows Fig. 7 does not evaluate — forward pass only,
    // both implementations, so every published workload has its cycles
    // and buffer ceilings under regression tracking.
    for w in table1_workloads()
        .into_iter()
        .filter(|w| !w.evaluated_in_fig7)
    {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 75);
        let (o_s, std) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("table1 standard");
        let (o_a, acc) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("table1 im2col");
        let (o_sd, std_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("table1 standard db");
        let (o_ad, acc_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("table1 im2col db");
        let (o_sn, std_nr) = eng_nr
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("table1 standard no-rename");
        let (o_an, acc_nr) = eng_nr
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("table1 im2col no-rename");
        assert_eq!(o_s.data(), o_a.data(), "table1 implementations disagree");
        assert_eq!(o_s.data(), o_sd.data(), "table1 db changed standard output");
        assert_eq!(o_a.data(), o_ad.data(), "table1 db changed im2col output");
        assert_eq!(o_s.data(), o_sn.data(), "table1 no-rename changed standard");
        assert_eq!(o_a.data(), o_an.data(), "table1 no-rename changed im2col");
        out.push(metric(
            format!("table1/{}-{}/{shape}", w.cnn, w.input_idx),
            &std,
            &acc,
            &std_db,
            &acc_db,
            &std_nr,
            &acc_nr,
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::COMMITTED_HOST_BASELINE;

    fn row(key: &str, fields: &[(&'static str, u64)]) -> Row {
        Row::new(key, fields.iter().map(|&(n, v)| (n, Int(v))))
    }

    fn doc(section: &str, rows: Vec<Row>) -> Doc {
        Doc::new("pooling", [(section, rows)])
    }

    #[test]
    fn committed_baselines_round_trip_byte_for_byte() {
        for text in [COMMITTED_BASELINE, COMMITTED_HOST_BASELINE] {
            assert_eq!(render(&parse(text).expect("baseline parses")), text);
        }
    }

    #[test]
    fn checks_keep_every_bound_of_the_per_section_comparers() {
        use Policy::*;
        // Copied from the per-section comparers this schema replaced:
        // 31 field checks plus one "row disappeared" check per section.
        const BEFORE: &[(&str, &str, Policy, f64)] = &[
            ("metrics", "key", Present, 0.0),
            ("metrics", "standard_cycles", Ceiling, 0.05),
            ("metrics", "accelerated_cycles", Ceiling, 0.05),
            ("metrics", "standard_cycles_single", Ceiling, 0.05),
            ("metrics", "accelerated_cycles_single", Ceiling, 0.05),
            ("metrics", "standard_cycles_db", Ceiling, 0.05),
            ("metrics", "accelerated_cycles_db", Ceiling, 0.05),
            ("metrics", "standard_cycles_norename", Ceiling, 0.05),
            ("metrics", "accelerated_cycles_norename", Ceiling, 0.05),
            ("metrics", "ub_peak", Ceiling, 0.05),
            ("metrics", "l1_peak", Ceiling, 0.05),
            ("metrics", "ub_peak_db", Ceiling, 0.05),
            ("metrics", "l1_peak_db", Ceiling, 0.05),
            ("scaling", "key", Present, 0.0),
            ("scaling", "cycles", Ceiling, 0.05),
            ("scaling", "cycles_contended", Ceiling, 0.05),
            ("scaling-backward", "key", Present, 0.0),
            ("scaling-backward", "cycles", Ceiling, 0.05),
            ("scaling-backward", "cycles_l2", Ceiling, 0.05),
            ("scaling-backward", "sharded", NoFlip, 0.0),
            ("scaling-backward", "l2_hits", Positive, 0.0),
            ("tuner", "key", Present, 0.0),
            ("tuner", "chosen", NoFlip, 0.0),
            ("tuner", "tuned_cycles", Ceiling, 0.05),
            ("model", "key", Present, 0.0),
            ("model", "layered_cycles", Ceiling, 0.05),
            ("model", "fused_cycles", Ceiling, 0.05),
            ("model", "conv_materialised_cycles", Ceiling, 0.05),
            ("model", "conv_implicit_cycles", Ceiling, 0.05),
            ("model", "l1_peak_materialised", Ceiling, 0.05),
            ("model", "l1_peak_implicit", Ceiling, 0.05),
            ("model", "gm_bytes_layered", Ceiling, 0.05),
            ("model", "gm_bytes_fused", Ceiling, 0.05),
            ("model", "ub_peak_fused", Ceiling, 0.05),
            ("host", "key", Present, 0.0),
            ("host", "sliced_speedup", Floor, 0.30),
            ("host", "sliced_speedup", GeomeanFloor, 0.15),
        ];
        assert_eq!(BEFORE.iter().filter(|c| c.2 != Present).count(), 31);
        let now = checks();
        for &(section, field, policy, bound) in BEFORE {
            assert!(
                now.iter()
                    .any(|c| (c.section, c.field, c.policy, c.bound)
                        == (section, field, policy, bound)),
                "lost bound: {section}/{field} {policy:?} {bound}"
            );
        }
    }

    #[test]
    fn absent_section_and_field_are_new_but_zero_is_a_ceiling() {
        // The zero case is the committed fig7c rows' `l1_peak: 0`: a
        // lowering that starts staging in L1 must fail the gate, not
        // pass as a "new ceiling".
        let l1 = |peak| row("fig7c/a", &[("standard_cycles", 100), ("l1_peak", peak)]);
        let no_l1 = row("fig7c/a", &[("standard_cycles", 100)]);
        let current = doc("metrics", vec![l1(4096)]);
        for (case, baseline, want) in [
            ("absent section", doc("model", vec![]), vec![]),
            ("absent field", doc("metrics", vec![no_l1]), vec![]),
            (
                "zero field",
                doc("metrics", vec![l1(0)]),
                vec!["fig7c/a (l1_peak): 4096 vs baseline 0 (+inf%)"],
            ),
            ("equal field", doc("metrics", vec![l1(4096)]), vec![]),
        ] {
            assert_eq!(compare(&current, &baseline), want, "{case}");
        }
    }

    #[test]
    fn ceilings_pass_noise_and_new_rows_and_flag_growth_and_loss() {
        let cols = |s, a, ub| {
            [
                ("standard_cycles", s),
                ("accelerated_cycles", a),
                ("ub_peak", ub),
            ]
        };
        let base = doc(
            "metrics",
            vec![
                row("a", &cols(1000, 100, 4096)),
                row("b", &cols(1000, 100, 4096)),
            ],
        );
        // within tolerance + improvement + new row → pass
        let ok = doc(
            "metrics",
            vec![
                row("a", &cols(1040, 100, 4096)),
                row("b", &cols(900, 90, 4096)),
                row("c", &cols(5, 5, 1)),
            ],
        );
        assert!(compare(&ok, &base).is_empty());
        // 6% on one cycle column, or a doubled peak → exactly that field
        for (slow, field) in [
            (cols(1000, 106, 4096), "a (accelerated_cycles)"),
            (cols(1000, 100, 8192), "a (ub_peak)"),
        ] {
            let cur = doc(
                "metrics",
                vec![row("a", &slow), row("b", &cols(1000, 100, 4096))],
            );
            let regs = compare(&cur, &base);
            assert_eq!(regs.len(), 1, "{regs:?}");
            assert!(regs[0].starts_with(field), "{regs:?}");
        }
        // disappeared row, dropped gated field → fail
        let gone = doc("metrics", vec![row("a", &cols(1000, 100, 4096))]);
        assert_eq!(
            compare(&gone, &base),
            ["b: tracked metrics row disappeared"]
        );
        let dropped = doc(
            "metrics",
            vec![
                row(
                    "a",
                    &[("standard_cycles", 1000), ("accelerated_cycles", 100)],
                ),
                row("b", &cols(1000, 100, 4096)),
            ],
        );
        assert_eq!(
            compare(&dropped, &base),
            ["a (ub_peak): gated field disappeared"]
        );
    }

    #[test]
    fn choices_may_not_flip_and_l2_hits_may_not_vanish() {
        let tuner = |chosen: &str, tuned| {
            Row::new(
                "tuner/a",
                [
                    ("chosen", Text(chosen.into())),
                    ("tuned_cycles", Int(tuned)),
                ],
            )
        };
        let base = doc("tuner", vec![tuner("direct", 1000)]);
        // a chosen-algorithm flip fails even when cycles improve
        let regs = compare(&doc("tuner", vec![tuner("im2col", 900)]), &base);
        assert_eq!(
            regs,
            ["tuner/a (chosen): choice flipped (\"direct\" -> \"im2col\")"]
        );
        assert_eq!(
            compare(&doc("tuner", vec![tuner("direct", 1060)]), &base).len(),
            1
        );

        let bw = |sharded, hits| {
            row(
                "scaling-backward/a/c8",
                &[
                    ("cycles", 600),
                    ("cycles_l2", 720),
                    ("sharded", sharded),
                    ("l2_hits", hits),
                ],
            )
        };
        let base = doc("scaling-backward", vec![bw(1, 420)]);
        let cur = |sharded, hits| doc("scaling-backward", vec![bw(sharded, hits)]);
        assert!(compare(&cur(1, 500), &base).is_empty());
        assert_eq!(
            compare(&cur(0, 420), &base),
            ["scaling-backward/a/c8 (sharded): choice flipped (1 -> 0)"]
        );
        assert_eq!(
            compare(&cur(1, 0), &base),
            ["scaling-backward/a/c8 (l2_hits): vanished (420 -> 0)"]
        );
        // a row that never had hits may keep having none
        let cold = doc("scaling-backward", vec![bw(0, 0)]);
        assert!(compare(&cold, &cold).is_empty());
    }

    #[test]
    fn vs_baseline_ratios_render_and_parse_back() {
        let base = parse(COMMITTED_BASELINE).unwrap();
        let annotated = parse(&render(&with_vs_baseline(base.clone(), &base))).unwrap();
        for row in annotated.rows("metrics") {
            assert_eq!(row.get("vs_baseline_standard"), Some(&Ratio(1.0)));
            assert_eq!(row.get("vs_baseline_accelerated"), Some(&Ratio(1.0)));
        }
        assert!(compare(&annotated, &base).is_empty());
    }

    #[test]
    fn committed_baseline_parses_and_covers_all_figures() {
        let doc = parse(COMMITTED_BASELINE).expect("baseline must parse");
        let base = doc.rows("metrics");
        for prefix in [
            "fig7a/", "fig7b/", "fig7c/", "fig7n4/", "fig8s1/", "fig8s2/", "fig8s3/", "table1/",
        ] {
            assert!(
                base.iter().any(|m| m.key.starts_with(prefix)),
                "baseline missing {prefix} metrics"
            );
        }
        // Every Table I row outside Fig. 7 is tracked (10 of 13).
        assert_eq!(
            base.iter().filter(|m| m.key.starts_with("table1/")).count(),
            10
        );
        for m in base {
            assert!(m.int("ub_peak") > 0, "{}: UB peak must be tracked", m.key);
            assert!(
                m.int("accelerated_cycles") <= m.int("accelerated_cycles_single"),
                "{}: dual-pipe cannot be slower than serial",
                m.key
            );
            // The renaming columns are tracked on every row, and the
            // committed numbers already honour the makespan contract.
            assert!(
                m.int("standard_cycles_norename") > 0 && m.int("accelerated_cycles_norename") > 0,
                "{}: no-rename control must be tracked",
                m.key
            );
            assert!(
                m.int("standard_cycles_db") <= m.int("standard_cycles_norename")
                    && m.int("accelerated_cycles_db") <= m.int("accelerated_cycles_norename"),
                "{}: committed baseline shows renaming costing cycles",
                m.key
            );
        }
        // The tentpole's measured flip: at least one tracked row where
        // the cost-aware planner turned a formerly hardcoded decline
        // into a strict renaming win.
        assert!(
            base.iter()
                .any(|m| m.ratio_of("accelerated_cycles_norename", "accelerated_cycles_db") > 1.0),
            "baseline records no strict renaming win on any tracked row"
        );
        // The scaling section is committed: every Fig. 7 shape at every
        // swept core count, with the committed numbers already honouring
        // monotone speedup and contended >= independent.
        let scaling = doc.rows("scaling");
        assert_eq!(
            scaling.len(),
            3 * SCALING_CORES.len(),
            "baseline must track every Fig. 7 shape at every swept core count"
        );
        for rows in scaling.chunks(SCALING_CORES.len()) {
            for pair in rows.windows(2) {
                assert!(
                    pair[1].int("cycles") <= pair[0].int("cycles"),
                    "{}: committed scaling curve is not monotone",
                    pair[1].key
                );
            }
            for s in rows {
                assert!(
                    s.int("cycles_contended") >= s.int("cycles"),
                    "{}: contention can only add cycles",
                    s.key
                );
            }
        }
        assert!(
            scaling
                .iter()
                .any(|s| s.int("cores") == 32 && s.int("contention_stalls") > 0),
            "the full chip must book contention stalls on some shape"
        );
        // The scaling-backward section is committed: every Fig. 7
        // backward row at every swept core count, with the committed
        // numbers already honouring the halo-merge contract (monotone
        // sub-linear speedup, zero declines, and L2 hits wherever the
        // sub-plane plan was chosen).
        let backward = doc.rows("scaling-backward");
        assert_eq!(
            backward.len(),
            3 * SCALING_CORES.len(),
            "baseline must track every Fig. 7 backward row at every swept \
             core count"
        );
        for rows in backward.chunks(SCALING_CORES.len()) {
            for pair in rows.windows(2) {
                assert!(
                    pair[1].int("cycles") <= pair[0].int("cycles"),
                    "{}: committed backward scaling curve is not monotone",
                    pair[1].key
                );
            }
            for s in rows {
                assert!(
                    s.int("cycles_l2") >= s.int("cycles"),
                    "{}: the L2/HBM stage can only add cycles",
                    s.key
                );
                assert_eq!(
                    s.int("declines"),
                    0,
                    "{}: committed row books a decline",
                    s.key
                );
                assert!(
                    s.int("sharded") == 0 || s.int("l2_hits") > 0,
                    "{}: committed sub-plane row books no L2 hits",
                    s.key
                );
            }
        }
        assert!(
            backward.iter().any(|s| s.int("sharded") == 1),
            "the committed baseline must pin at least one sub-plane backward win"
        );
        // The tuner section is committed: a chosen-algorithm column for
        // every tracked family, with the committed choices already
        // honouring the Fig. 8 crossover and the honesty contract
        // (tuned cycles never above a feasible alternative's).
        let tuner = doc.rows("tuner");
        for prefix in [
            "tuner/fig7a/",
            "tuner/fig7c/",
            "tuner/fig8s1/",
            "tuner/fig8s2/",
            "tuner/table1/",
        ] {
            assert!(
                tuner.iter().any(|t| t.key.starts_with(prefix)),
                "baseline missing {prefix} tuner rows"
            );
        }
        for t in tuner {
            if t.key.starts_with("tuner/fig8s1/") {
                assert_eq!(
                    t.text("chosen"),
                    "direct",
                    "{}: committed crossover flipped",
                    t.key
                );
            }
            if t.key.starts_with("tuner/fig8s2/") || t.key.starts_with("tuner/fig7c/") {
                assert_eq!(
                    t.text("chosen"),
                    "im2col",
                    "{}: committed crossover flipped",
                    t.key
                );
            }
            for what in ["direct", "im2col"] {
                let alt = t.int(&format!("{what}_cycles"));
                assert!(
                    alt == 0 || t.int("tuned_cycles") <= alt,
                    "{}: committed tuned cycles {} exceed the forced {} run's {}",
                    t.key,
                    t.int("tuned_cycles"),
                    what,
                    alt
                );
            }
        }
        // The model section is committed: both pinned conv→pool
        // segments, with the committed numbers already honouring the
        // implicit-im2col and tile-handoff contracts.
        let model = doc.rows("model");
        for name in ["model/vgg16-seg", "model/inception-seg"] {
            let m = model
                .iter()
                .find(|m| m.key == name)
                .unwrap_or_else(|| panic!("baseline missing the {name} row"));
            assert!(
                m.int("conv_implicit_cycles") <= m.int("conv_materialised_cycles"),
                "{name}: committed implicit conv cycles exceed materialised"
            );
            assert!(
                m.int("l1_peak_implicit") < m.int("l1_peak_materialised"),
                "{name}: committed implicit L1 peak is not a strict shrink"
            );
            assert!(
                m.int("gm_bytes_fused") < m.int("gm_bytes_layered"),
                "{name}: committed fused GM traffic is not a strict win"
            );
        }
    }
}
