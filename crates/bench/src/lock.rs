//! The behaviour lock: exact outputs, cycles and counters of every
//! engine dispatch branch, pinned at zero tolerance.
//!
//! The perf gate ([`crate::gate`]) allows 5% cycle drift; the lock
//! allows none. Each row runs one pooling operator (or `relu`) through
//! one engine configuration and records an FNV-1a-64 hash of the output
//! bits (and of the argmax mask, where there is one), the output shape,
//! the chip cycles, the per-core cycles, every [`HwCounters`] field of the
//! run's total, and the scratchpad peaks. A refactor that claims to move
//! code without moving behaviour must leave every row byte-identical.
//!
//! The cases cover every decision the engine makes: the auto-tuner
//! (forward and backward), the cost-model shard axis (forward and
//! backward, independent and L2 memory, and combined with band
//! splitting), the batch fold (kept, rejected by its `Im2Col` issue
//! count — a tie included — and failed to plan), the sharded backward,
//! band splitting, the per-plane schedule, double buffering off,
//! rotation planning pinned (on a single-issue chip, and off), and
//! `relu`.
//!
//! `cargo run --release -p dv-bench --bin repro -- lock` rewrites
//! `crates/bench/baselines/lock.json`; `crates/bench/tests/lock.rs`
//! requires a fresh [`render_lock`] to equal it byte for byte.
//! Regenerate it only for an intentional behaviour change, never to make
//! a failing test pass.

use crate::gate::{render, Doc, Row, Value};
use crate::inputs::{feature_map, gradients};
use dv_core::{ForwardImpl, MergeImpl, OpKind, PoolProblem, PoolingEngine, RunError};
use dv_fp16::F16;
use dv_sim::{Capacities, Chip, ChipRun, CostModel, HwCounters, MemoryModel};
use dv_tensor::{reference, Nc1hwc0, Padding, PatchTensor, PoolParams};
use Value::{Int, Text};

/// The committed lock (regenerate via `repro -- lock` only for an
/// intentional behaviour change).
pub const COMMITTED_LOCK: &str = include_str!("../baselines/lock.json");

/// What one lock case runs.
#[derive(Clone, Debug)]
pub enum LockOp {
    /// A pooling operator through its public engine entry point.
    Pool {
        /// Operator and requested implementation.
        kind: OpKind,
        /// Window geometry.
        params: PoolParams,
        /// Forward input; backward operators use its shape and derive
        /// their mask and gradients from it.
        input: Nc1hwc0,
    },
    /// `PoolingEngine::relu` over `input`.
    Relu(Nc1hwc0),
}

/// One locked run: a stable key, the engine configuration, and the
/// operation.
#[derive(Clone, Debug)]
pub struct LockCase {
    /// Stable row key, `<branch>/<op>/<shape>`.
    pub key: String,
    /// The configured engine.
    pub engine: PoolingEngine,
    /// What runs.
    pub op: LockOp,
}

impl LockCase {
    /// The pooling problem this case plans, or `None` for `relu`.
    pub fn problem(&self) -> Option<PoolProblem> {
        match &self.op {
            LockOp::Pool { params, input, .. } => Some(
                PoolProblem::new(input.n, input.c1, input.h, input.w, *params)
                    .expect("lock shapes are valid"),
            ),
            LockOp::Relu(_) => None,
        }
    }

    /// The operator kind, or `None` for `relu`.
    pub fn kind(&self) -> Option<OpKind> {
        match &self.op {
            LockOp::Pool { kind, .. } => Some(*kind),
            LockOp::Relu(_) => None,
        }
    }

    /// Run the case: the output, the argmax mask when there is one, and
    /// the chip run.
    pub fn run(&self) -> (Nc1hwc0, Option<PatchTensor>, ChipRun) {
        let eng = &self.engine;
        let (kind, params, x) = match &self.op {
            LockOp::Relu(x) => {
                let (out, run) = eng.relu(x).expect("lock relu");
                return (out, None, run);
            }
            LockOp::Pool {
                kind,
                params,
                input,
            } => (*kind, *params, input),
        };
        let (oh, ow) = params.out_dims(x.h, x.w).expect("lock shapes are valid");
        let grads = gradients(x.n, x.c1, oh, ow, 74);
        match kind {
            OpKind::MaxForward(i) => {
                let (out, run) = ok(&self.key, eng.maxpool_forward(x, params, i));
                (out, None, run)
            }
            OpKind::MaxForwardArgmax(i) => {
                let (out, mask, run) = ok(&self.key, eng.maxpool_forward_with_argmax(x, params, i));
                (out, Some(mask), run)
            }
            OpKind::AvgForward(i) => {
                let (out, run) = ok(&self.key, eng.avgpool_forward(x, params, i));
                (out, None, run)
            }
            OpKind::MaxBackward(m) => {
                let mask = reference::maxpool_argmax_mask(x, &params).expect("lock mask");
                let r = eng.maxpool_backward(&mask, &grads, params, x.h, x.w, m);
                let (dx, run) = ok(&self.key, r);
                (dx, None, run)
            }
            OpKind::AvgBackward(m) => {
                let (dx, run) = ok(&self.key, eng.avgpool_backward(&grads, params, x.h, x.w, m));
                (dx, None, run)
            }
        }
    }
}

fn ok<T>(key: &str, r: Result<T, RunError>) -> T {
    r.unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// FNV-1a-64 over `bytes`.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a-64 of f16 data's little-endian bits, as 16 hex digits.
fn hash(data: &[F16]) -> Value {
    let h = fnv1a64(data.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    Text(format!("{h:016x}"))
}

fn engine(cores: usize) -> PoolingEngine {
    PoolingEngine::new(Chip::new(cores, CostModel::ascend910_like()))
}

fn l2(eng: PoolingEngine) -> PoolingEngine {
    PoolingEngine {
        chip: eng.chip.with_memory(MemoryModel::ascend910_l2()),
        ..eng
    }
}

/// One engine configuration's cases: branch name, engine, operators,
/// window, and `(n, c1, h = w)`.
type Group = (
    &'static str,
    PoolingEngine,
    Vec<OpKind>,
    PoolParams,
    (usize, usize, usize),
);

/// Every lock case, in row order.
pub fn cases() -> Vec<LockCase> {
    use ForwardImpl::{Expansion, Im2col, Standard, XYSplit};
    use MergeImpl::{Col2Im, VAdd};
    use OpKind::{AvgBackward, AvgForward, MaxBackward, MaxForward, MaxForwardArgmax};
    let s1 = PoolParams::new((3, 3), (1, 1));
    let s2 = PoolParams::K3S2;
    let padded = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let small_ub = {
        let mut eng = engine(1);
        eng.chip.caps = Capacities {
            ub: 16 * 1024,
            ..Capacities::ASCEND910
        };
        eng
    };
    let single_issue = PoolingEngine::new(Chip::new(1, CostModel::single_issue()));
    let groups: Vec<Group> = vec![
        (
            "per-plane",
            engine(2),
            vec![
                MaxForward(Standard),
                MaxForward(Im2col),
                MaxForward(Expansion),
                MaxForward(XYSplit),
                MaxForwardArgmax(Standard),
                MaxForwardArgmax(Im2col),
                AvgForward(Standard),
                AvgForward(Im2col),
                AvgForward(Expansion),
                MaxBackward(VAdd),
                MaxBackward(Col2Im),
                AvgBackward(VAdd),
                AvgBackward(Col2Im),
            ],
            s2,
            (1, 2, 17),
        ),
        (
            "per-plane",
            engine(2),
            vec![MaxForward(Standard), MaxForward(Im2col)],
            s1,
            (1, 2, 17),
        ),
        (
            "fold-kept",
            engine(1),
            vec![
                MaxForward(Im2col),
                MaxForwardArgmax(Im2col),
                AvgForward(Im2col),
                MaxBackward(Col2Im),
                AvgBackward(VAdd),
            ],
            s2,
            (4, 1, 35),
        ),
        (
            "fold-issues",
            engine(1),
            vec![MaxForward(Im2col)],
            s2,
            (4, 1, 71),
        ),
        (
            "fold-tie",
            engine(1),
            vec![MaxForward(Im2col), MaxForwardArgmax(Im2col)],
            PoolParams::K2S2,
            (2, 1, 22),
        ),
        (
            "fold-failed",
            engine(1),
            vec![MaxForwardArgmax(Im2col)],
            padded,
            (4, 1, 27),
        ),
        (
            "fold-failed-ub16k",
            small_ub,
            vec![MaxForward(Im2col)],
            s2,
            (8, 1, 41),
        ),
        (
            "band-split",
            engine(4).with_band_splitting(true),
            vec![
                MaxForward(Im2col),
                MaxForward(Standard),
                MaxForwardArgmax(Standard),
                AvgForward(Im2col),
                MaxBackward(Col2Im),
            ],
            s2,
            (1, 1, 35),
        ),
        (
            "shard",
            engine(4).with_sharding(true),
            vec![
                MaxForward(Im2col),
                MaxForwardArgmax(Im2col),
                MaxForward(Standard),
                MaxBackward(Col2Im),
                AvgBackward(VAdd),
            ],
            s2,
            (1, 1, 35),
        ),
        (
            "shard-l2",
            l2(engine(4).with_sharding(true)),
            vec![
                MaxForward(Im2col),
                AvgForward(Im2col),
                MaxBackward(Col2Im),
                AvgBackward(Col2Im),
            ],
            s2,
            (1, 1, 35),
        ),
        (
            "shard-fold",
            engine(2).with_sharding(true),
            vec![MaxForward(Im2col), MaxBackward(Col2Im)],
            s2,
            (4, 2, 17),
        ),
        (
            "shard-band-split",
            engine(4).with_sharding(true).with_band_splitting(true),
            vec![MaxForward(Im2col), MaxForward(Standard), MaxBackward(VAdd)],
            s2,
            (1, 1, 35),
        ),
        (
            "shard-band-split-fold",
            engine(2).with_sharding(true).with_band_splitting(true),
            vec![MaxForward(Im2col)],
            s2,
            (4, 2, 17),
        ),
        (
            "tuned",
            engine(1).with_auto_tuning(true),
            vec![
                MaxForward(Im2col),
                MaxForwardArgmax(Standard),
                AvgForward(Standard),
                MaxBackward(VAdd),
                AvgBackward(VAdd),
            ],
            s2,
            (2, 1, 17),
        ),
        (
            "tuned",
            engine(1).with_auto_tuning(true),
            vec![MaxForward(Im2col), AvgForward(Im2col), MaxBackward(Col2Im)],
            s1,
            (1, 1, 17),
        ),
        (
            "tuned-l2",
            l2(engine(4).with_auto_tuning(true)),
            vec![MaxForward(Standard), MaxBackward(Col2Im)],
            s2,
            (1, 2, 17),
        ),
        (
            "no-double-buffer",
            engine(1).with_double_buffering(false),
            vec![MaxForward(Im2col), MaxBackward(Col2Im)],
            s2,
            (1, 1, 71),
        ),
        (
            "no-double-buffer-band-split",
            engine(4)
                .with_double_buffering(false)
                .with_band_splitting(true),
            vec![MaxForward(Im2col)],
            s2,
            (1, 1, 71),
        ),
        (
            "single-issue-rotation",
            single_issue.with_rotation_planning(true),
            vec![MaxForward(Im2col), MaxBackward(Col2Im)],
            s2,
            (1, 1, 71),
        ),
        (
            "rotation-off",
            engine(1).with_rotation_planning(false),
            vec![MaxForward(Im2col), MaxBackward(Col2Im)],
            s2,
            (1, 1, 71),
        ),
    ];
    let mut out = Vec::new();
    for (branch, eng, kinds, params, (n, c1, h)) in groups {
        let input = feature_map(n, c1 * 16, h, h, 73);
        let geometry = format!("n{n}c{c1}/{h}x{h}/k{}s{}", params.kh, params.sh);
        let geometry = if params.padding.is_none() {
            geometry
        } else {
            format!("{geometry}p{}", params.padding.top)
        };
        for kind in kinds {
            out.push(LockCase {
                key: format!("{branch}/{}/{geometry}", label(kind)),
                engine: eng.clone(),
                op: LockOp::Pool {
                    kind,
                    params,
                    input: input.clone(),
                },
            });
        }
    }
    out.push(LockCase {
        key: "relu/n1c2/17x17".into(),
        engine: engine(2),
        op: LockOp::Relu(feature_map(1, 32, 17, 17, 75)),
    });
    out
}

/// Short operator label, e.g. `max-fwd/im2col`.
fn label(kind: OpKind) -> String {
    let f = |i: ForwardImpl| format!("{i:?}").to_lowercase();
    let m = |m: MergeImpl| format!("{m:?}").to_lowercase();
    match kind {
        OpKind::MaxForward(i) => format!("max-fwd/{}", f(i)),
        OpKind::MaxForwardArgmax(i) => format!("max-argmax/{}", f(i)),
        OpKind::AvgForward(i) => format!("avg-fwd/{}", f(i)),
        OpKind::MaxBackward(i) => format!("max-bwd/{}", m(i)),
        OpKind::AvgBackward(i) => format!("avg-bwd/{}", m(i)),
    }
}

/// The fields of every [`HwCounters`] member, prefixed `total.`. The
/// destructuring is exhaustive, so a new counter fails to compile here
/// until the lock records it.
fn counter_fields(c: &HwCounters, out: &mut Vec<(String, Value)>) {
    let HwCounters {
        cycles,
        stall_cycles,
        pipe_stalls,
        unit_cycles,
        issues,
        vector_useful_lanes,
        vector_total_lanes,
        gm_bytes,
        scratch_bytes,
        renames,
        rename_denied,
        contention_stalls,
        l2_hits,
        l2_miss_stalls,
        tuner_mispredicted,
        tuner_fallbacks,
        implicit_declines,
    } = c;
    let mut put = |name: String, v: u64| out.push((format!("total.{name}"), Int(v)));
    put("cycles".into(), *cycles);
    put("stall_cycles".into(), *stall_cycles);
    put("pipe_stalls.mte".into(), pipe_stalls[0]);
    put("pipe_stalls.vec".into(), pipe_stalls[1]);
    for (unit, v) in unit_cycles {
        put(format!("unit_cycles.{unit:?}"), *v);
    }
    for (mnemonic, v) in issues {
        put(format!("issues.{mnemonic}"), *v);
    }
    for (name, v) in [
        ("vector_useful_lanes", vector_useful_lanes),
        ("vector_total_lanes", vector_total_lanes),
        ("gm_bytes", gm_bytes),
        ("scratch_bytes", scratch_bytes),
        ("renames", renames),
        ("rename_denied", rename_denied),
        ("contention_stalls", contention_stalls),
        ("l2_hits", l2_hits),
        ("l2_miss_stalls", l2_miss_stalls),
        ("tuner_mispredicted", tuner_mispredicted),
        ("tuner_fallbacks", tuner_fallbacks),
        ("implicit_declines", implicit_declines),
    ] {
        put(name.into(), *v);
    }
}

/// The lock row of one case.
fn row(case: &LockCase) -> Row {
    let (out, mask, run) = case.run();
    let mut fields = vec![
        ("out".to_string(), hash(out.data())),
        (
            "out_dims".to_string(),
            Text(format!("{}x{}x{}x{}", out.n, out.c1, out.h, out.w)),
        ),
    ];
    if let Some(mask) = &mask {
        fields.push(("mask".to_string(), hash(mask.data())));
    }
    fields.push(("cycles".to_string(), Int(run.cycles)));
    let per_core: Vec<String> = run.core_cycles.iter().map(u64::to_string).collect();
    fields.push(("core_cycles".to_string(), Text(per_core.join(" "))));
    counter_fields(&run.total, &mut fields);
    for (id, bytes) in run.peaks.iter() {
        fields.push((format!("peak.{id:?}"), Int(bytes as u64)));
    }
    Row {
        key: case.key.clone(),
        fields,
    }
}

/// The lock document as `repro -- lock` writes it: one row per case.
pub fn render_lock() -> String {
    render(&Doc::new(
        "lock",
        [("lock", cases().iter().map(row).collect())],
    ))
}
