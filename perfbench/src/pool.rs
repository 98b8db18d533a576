//! Pooling operations: their public entry points, golden references, and
//! the decomposed replay through the layer functions (plan → lower →
//! `Chip::run`/`run_declared`) plus a per-core `AiCore` replay.

use crate::spans::Tracer;
use dv_akg::GmArena;
use dv_core::avgpool::{
    avg_scale, build_avgpool_backward, build_avgpool_backward_batched,
    build_avgpool_forward_parallel,
};
use dv_core::maxpool::{
    backward_shard_staging_bytes, build_backward, build_backward_batched, build_backward_sharded,
    build_forward_parallel, build_forward_with_argmax_parallel, BackwardSource, Reduction,
};
use dv_core::{
    choose_backward_partition, choose_partition, ForwardImpl, MergeImpl, PartitionAxis,
    PoolProblem, PoolingEngine, RunError,
};
use dv_fp16::F16;
use dv_isa::Program;
use dv_serve::{JobOp, JobSpec};
use dv_sim::{AiCore, Chip, ChipRun, GmDeclaration, HwCounters};
use dv_tensor::{reference, Nc1hwc0, PatchTensor, PoolParams, C0};

/// Which pooling operator, with its lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// MaxPool forward.
    MaxFwd(ForwardImpl),
    /// MaxPool forward with the argmax mask.
    MaxArgmax(ForwardImpl),
    /// AvgPool forward.
    AvgFwd(ForwardImpl),
    /// MaxPool backward through a mask.
    MaxBwd(MergeImpl),
    /// AvgPool backward.
    AvgBwd(MergeImpl),
}

impl Kind {
    /// Short label, e.g. `max-fwd/im2col`.
    pub fn label(self) -> String {
        let f = |i: ForwardImpl| format!("{i:?}").to_lowercase();
        let m = |i: MergeImpl| format!("{i:?}").to_lowercase();
        match self {
            Kind::MaxFwd(i) => format!("max-fwd/{}", f(i)),
            Kind::MaxArgmax(i) => format!("max-argmax/{}", f(i)),
            Kind::AvgFwd(i) => format!("avg-fwd/{}", f(i)),
            Kind::MaxBwd(m_) => format!("max-bwd/{}", m(m_)),
            Kind::AvgBwd(m_) => format!("avg-bwd/{}", m(m_)),
        }
    }
}

/// One pooling operation with its inputs.
#[derive(Clone, Debug)]
pub struct PoolOp {
    /// Operator and lowering.
    pub kind: Kind,
    /// Window geometry.
    pub params: PoolParams,
    /// Forward input; backward operators use only its shape.
    pub input: Nc1hwc0,
    /// Argmax mask (max backward only).
    pub mask: Option<PatchTensor>,
    /// Upstream gradients (backward only).
    pub grads: Option<Nc1hwc0>,
}

/// An operation's outputs and simulated statistics.
#[derive(Clone, Debug)]
pub struct PoolOut {
    /// Pooled map, or the input gradient for backward operators.
    pub out: Nc1hwc0,
    /// Argmax mask (argmax forward only).
    pub mask: Option<PatchTensor>,
    /// The chip run.
    pub run: ChipRun,
}

fn mask_of(op: &PoolOp) -> &PatchTensor {
    op.mask.as_ref().expect("max backward carries a mask")
}

fn grads_of(op: &PoolOp) -> &Nc1hwc0 {
    op.grads.as_ref().expect("backward carries gradients")
}

/// Run `op` through its public `PoolingEngine` entry point.
pub fn entry(engine: &PoolingEngine, op: &PoolOp) -> Result<PoolOut, RunError> {
    let (x, p) = (&op.input, op.params);
    Ok(match op.kind {
        Kind::MaxFwd(i) => {
            let (out, run) = engine.maxpool_forward(x, p, i)?;
            PoolOut {
                out,
                mask: None,
                run,
            }
        }
        Kind::MaxArgmax(i) => {
            let (out, mask, run) = engine.maxpool_forward_with_argmax(x, p, i)?;
            PoolOut {
                out,
                mask: Some(mask),
                run,
            }
        }
        Kind::AvgFwd(i) => {
            let (out, run) = engine.avgpool_forward(x, p, i)?;
            PoolOut {
                out,
                mask: None,
                run,
            }
        }
        Kind::MaxBwd(m) => {
            let (out, run) = engine.maxpool_backward(mask_of(op), grads_of(op), p, x.h, x.w, m)?;
            PoolOut {
                out,
                mask: None,
                run,
            }
        }
        Kind::AvgBwd(m) => {
            let (out, run) = engine.avgpool_backward(grads_of(op), p, x.h, x.w, m)?;
            PoolOut {
                out,
                mask: None,
                run,
            }
        }
    })
}

/// The golden outputs of `op` from `dv_tensor::reference`.
pub fn golden(op: &PoolOp) -> (Nc1hwc0, Option<PatchTensor>) {
    let (x, p) = (&op.input, &op.params);
    let r = match op.kind {
        Kind::MaxFwd(_) => reference::maxpool_forward(x, p).map(|o| (o, None)),
        Kind::MaxArgmax(_) => {
            reference::maxpool_forward_with_argmax(x, p).map(|(o, m)| (o, Some(m)))
        }
        Kind::AvgFwd(_) => reference::avgpool_forward(x, p).map(|o| (o, None)),
        Kind::MaxBwd(_) => {
            reference::maxpool_backward(mask_of(op), grads_of(op), p, x.h, x.w).map(|o| (o, None))
        }
        Kind::AvgBwd(_) => {
            reference::avgpool_backward(grads_of(op), p, x.h, x.w).map(|o| (o, None))
        }
    };
    r.expect("generated inputs have valid shapes")
}

/// Whether `got` carries exactly the golden bits.
pub fn matches(got: &PoolOut, want: &(Nc1hwc0, Option<PatchTensor>)) -> bool {
    let same = |a: &Nc1hwc0, b: &Nc1hwc0| {
        (a.n, a.c1, a.h, a.w, a.data()) == (b.n, b.c1, b.h, b.w, b.data())
    };
    same(&got.out, &want.0)
        && match (&got.mask, &want.1) {
            (Some(a), Some(b)) => a.data() == b.data(),
            (None, None) => true,
            _ => false,
        }
}

/// The `dv-serve` job for `op`.
pub fn job(op: &PoolOp, cores: usize, sharding: bool) -> JobSpec {
    let jop = match op.kind {
        Kind::MaxFwd(i) => JobOp::MaxForward(i),
        Kind::MaxArgmax(i) => JobOp::MaxForwardArgmax(i),
        Kind::AvgFwd(i) => JobOp::AvgForward(i),
        Kind::MaxBwd(merge) => JobOp::MaxBackward {
            merge,
            mask: mask_of(op).clone(),
            gradients: grads_of(op).clone(),
        },
        Kind::AvgBwd(merge) => JobOp::AvgBackward {
            merge,
            gradients: grads_of(op).clone(),
        },
    };
    JobSpec::new(op.input.clone(), op.params, jop)
        .with_cores(cores)
        .with_sharding(sharding)
}

/// What the decomposed replay lowered, kept for the `AiCore` replay.
pub struct Lowered {
    /// The programs, one per tile.
    pub programs: Vec<Program>,
    /// Halo-merge declarations when the sharded backward ran.
    pub decls: Option<Vec<GmDeclaration>>,
    /// The GM image as the chip received it.
    pub image: Vec<u8>,
}

/// Where the engine places an operation's tensors in GM.
struct Placement {
    gm: GmArena,
    a: usize,
    b: usize,
    c: Option<usize>,
}

/// Allocate GM in the engine's order: forward `in, out[, mask]`, max
/// backward `mask, grad, dx`, avg backward `grad, dx`.
fn place(kind: Kind, prob: &PoolProblem) -> Placement {
    let mut gm = GmArena::new();
    let (a, b, c) = match kind {
        Kind::MaxFwd(_) | Kind::AvgFwd(_) => {
            let a = gm.alloc(prob.in_bytes());
            (a, gm.alloc(prob.out_bytes()), None)
        }
        Kind::MaxArgmax(_) => {
            let a = gm.alloc(prob.in_bytes());
            let b = gm.alloc(prob.out_bytes());
            (a, b, Some(gm.alloc(prob.mask_bytes())))
        }
        Kind::MaxBwd(_) => {
            let a = gm.alloc(prob.mask_bytes());
            let b = gm.alloc(prob.out_bytes());
            (a, b, Some(gm.alloc(prob.in_bytes())))
        }
        Kind::AvgBwd(_) => {
            let a = gm.alloc(prob.out_bytes());
            (a, gm.alloc(prob.in_bytes()), None)
        }
    };
    Placement { gm, a, b, c }
}

fn write(image: &mut [u8], off: usize, data: &[F16]) {
    let bytes = dv_fp16::as_bytes(data);
    image[off..off + bytes.len()].copy_from_slice(bytes);
}

fn read(image: &[u8], off: usize, len: usize) -> Vec<F16> {
    image[off..off + 2 * len]
        .chunks_exact(2)
        .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
        .collect()
}

/// The GM image the engine hands the chip: zeroes plus the inputs.
fn input_image(op: &PoolOp, pl: &Placement) -> Vec<u8> {
    let mut image = vec![0u8; pl.gm.size()];
    match op.kind {
        Kind::MaxFwd(_) | Kind::AvgFwd(_) | Kind::MaxArgmax(_) => {
            write(&mut image, pl.a, op.input.data())
        }
        Kind::MaxBwd(_) => {
            write(&mut image, pl.a, mask_of(op).data());
            write(&mut image, pl.b, grads_of(op).data());
        }
        Kind::AvgBwd(_) => write(&mut image, pl.a, grads_of(op).data()),
    }
    image
}

/// The plan step: the partition axis the engine would pick for `op`.
fn plan(engine: &PoolingEngine, op: &PoolOp, prob: &PoolProblem) -> PartitionAxis {
    let cores = engine.chip.cores;
    let parallel = if engine.split_bands { cores } else { 1 };
    let fold = engine.batching && prob.n > 1 && parallel == 1 && (cores == 1 || prob.c1 >= cores);
    let sched = engine.schedule();
    let forward = |i: ForwardImpl, with_mask: bool| {
        if engine.shard && i == ForwardImpl::Im2col {
            let axis = choose_partition(prob, with_mask, cores, &sched, engine.shared_bandwidth());
            if axis == PartitionAxis::PerC1 && !engine.batching {
                PartitionAxis::PerPlane
            } else {
                axis
            }
        } else if i == ForwardImpl::Im2col && fold {
            PartitionAxis::PerC1
        } else if engine.split_bands {
            PartitionAxis::PerRowBand
        } else {
            PartitionAxis::PerPlane
        }
    };
    let backward = |m: MergeImpl, masked: bool| {
        let axis = if engine.shard {
            choose_backward_partition(
                prob,
                m,
                masked,
                cores,
                &sched,
                engine.chip.caps,
                engine.shared_bandwidth(),
            )
        } else {
            PartitionAxis::PerPlane
        };
        // The engine's batch fold is a consolidation, not an axis.
        if axis != PartitionAxis::PerRowBand && fold {
            PartitionAxis::PerC1
        } else {
            axis
        }
    };
    match op.kind {
        Kind::MaxFwd(i) | Kind::AvgFwd(i) => forward(i, false),
        Kind::MaxArgmax(i) => forward(i, true),
        Kind::MaxBwd(m) => backward(m, true),
        Kind::AvgBwd(m) => backward(m, false),
    }
}

/// The lower step: build the programs for `axis` exactly as the engine
/// does. Returns the programs, halo declarations and booked declines.
#[allow(clippy::type_complexity)]
fn lower(
    engine: &PoolingEngine,
    op: &PoolOp,
    prob: &PoolProblem,
    axis: PartitionAxis,
    pl: &mut Placement,
) -> Result<(Vec<Program>, Option<Vec<GmDeclaration>>, u64), String> {
    let caps = engine.chip.caps;
    let sched = engine.schedule();
    let share = match axis {
        PartitionAxis::PerRowBand => engine.chip.cores,
        _ => 1,
    };
    let forward_fold =
        || Err("the batch-folded forward is not replayed (all inputs use N = 1)".to_string());
    let e = |e: dv_core::LowerError| e.to_string();
    let plain = |ps: Vec<Program>| (ps, None, 0);
    Ok(match op.kind {
        Kind::MaxFwd(_) | Kind::AvgFwd(_) | Kind::MaxArgmax(_) if axis == PartitionAxis::PerC1 => {
            return forward_fold()
        }
        Kind::MaxFwd(i) => plain(
            build_forward_parallel(prob, i, Reduction::Max, pl.a, pl.b, caps, share, sched)
                .map_err(e)?,
        ),
        Kind::AvgFwd(i) => plain(
            build_avgpool_forward_parallel(prob, i, pl.a, pl.b, caps, share, sched).map_err(e)?,
        ),
        Kind::MaxArgmax(i) => plain(
            build_forward_with_argmax_parallel(
                prob,
                i,
                pl.a,
                pl.b,
                pl.c.expect("argmax placement"),
                caps,
                share,
                sched,
            )
            .map_err(e)?,
        ),
        Kind::MaxBwd(m) | Kind::AvgBwd(m) => {
            let (source, grad, dx) = match op.kind {
                Kind::MaxBwd(_) => (
                    BackwardSource::MaxMask { gm_mask: pl.a },
                    pl.b,
                    pl.c.expect("max backward placement"),
                ),
                _ => (
                    BackwardSource::AvgUniform {
                        scale: avg_scale(prob),
                    },
                    pl.a,
                    pl.b,
                ),
            };
            let is_max = matches!(op.kind, Kind::MaxBwd(_));
            match axis {
                PartitionAxis::PerRowBand => {
                    let shards = (engine.chip.cores / (prob.n * prob.c1)).max(2);
                    let staging = pl.gm.alloc(backward_shard_staging_bytes(prob, shards));
                    match build_backward_sharded(
                        prob, m, source, grad, dx, staging, shards, caps, sched,
                    ) {
                        Ok((ps, decls)) => (ps, Some(decls), 0),
                        Err(_) => (
                            build_backward(prob, m, source, grad, dx, caps, sched).map_err(e)?,
                            None,
                            1,
                        ),
                    }
                }
                PartitionAxis::PerC1 if is_max => plain(
                    build_backward_batched(prob, m, source, grad, dx, caps, sched).map_err(e)?,
                ),
                PartitionAxis::PerC1 => plain(
                    build_avgpool_backward_batched(prob, m, grad, dx, caps, sched).map_err(e)?,
                ),
                _ if is_max => {
                    plain(build_backward(prob, m, source, grad, dx, caps, sched).map_err(e)?)
                }
                _ => plain(build_avgpool_backward(prob, m, grad, dx, caps, sched).map_err(e)?),
            }
        }
    })
}

/// Read the outputs of `op` back from the GM image.
fn read_outputs(
    op: &PoolOp,
    prob: &PoolProblem,
    pl: &Placement,
    image: &[u8],
    run: ChipRun,
) -> PoolOut {
    let (oh, ow) = prob.out_dims();
    let (n, c1) = (prob.n, prob.c1);
    let plane = |off: usize, h: usize, w: usize| {
        Nc1hwc0::from_vec(n, c1, h, w, read(image, off, n * c1 * h * w * C0))
            .expect("replayed shape")
    };
    match op.kind {
        Kind::MaxFwd(_) | Kind::AvgFwd(_) => PoolOut {
            out: plane(pl.b, oh, ow),
            mask: None,
            run,
        },
        Kind::MaxArgmax(_) => {
            let (kh, kw) = (prob.params.kh, prob.params.kw);
            let len = n * c1 * kh * kw * oh * ow * C0;
            let mask = PatchTensor::from_vec(
                n,
                c1,
                kh,
                kw,
                oh,
                ow,
                read(image, pl.c.expect("argmax placement"), len),
            )
            .expect("replayed mask shape");
            PoolOut {
                out: plane(pl.b, oh, ow),
                mask: Some(mask),
                run,
            }
        }
        Kind::MaxBwd(_) => PoolOut {
            out: plane(pl.c.expect("max backward placement"), prob.ih, prob.iw),
            mask: None,
            run,
        },
        Kind::AvgBwd(_) => PoolOut {
            out: plane(pl.b, prob.ih, prob.iw),
            mask: None,
            run,
        },
    }
}

/// Replay `op` through the layer functions, each in its own span:
/// `core.plan` (partition choice), `core.lower` (program builders) and
/// `sim.chip_run`, all inside a `core.engine` span whose self time is the
/// engine's glue (GM placement, image write and read-back).
pub fn replay(
    engine: &PoolingEngine,
    op: &PoolOp,
    tr: &mut Tracer,
) -> Result<(PoolOut, Lowered), String> {
    if engine.auto_tune {
        return Err("auto-tuned engines are not replayed".into());
    }
    tr.span("core.engine", |tr| {
        let x = &op.input;
        let prob = PoolProblem::new(x.n, x.c1, x.h, x.w, op.params).map_err(|e| e.to_string())?;
        let mut pl = place(op.kind, &prob);
        let axis = tr.span("core.plan", |_| plan(engine, op, &prob));
        let (programs, decls, declines) =
            tr.span("core.lower", |_| lower(engine, op, &prob, axis, &mut pl))?;
        let mut image = input_image(op, &pl);
        let before = image.clone();
        let mut run = tr
            .span("sim.chip_run", |_| match &decls {
                Some(d) => engine.chip.run_declared(&mut image, &programs, d),
                None => engine.chip.run(&mut image, &programs),
            })
            .map_err(|e| e.to_string())?;
        run.total.tuner_fallbacks += declines;
        Ok((
            read_outputs(op, &prob, &pl, &image, run),
            Lowered {
                programs,
                decls,
                image: before,
            },
        ))
    })
}

/// Per-core counters with the chip-level memory stage's bookings removed
/// (those are computed across cores after they join).
fn core_local(c: &HwCounters) -> HwCounters {
    HwCounters {
        contention_stalls: 0,
        l2_hits: 0,
        l2_miss_stalls: 0,
        ..c.clone()
    }
}

/// Replay `programs` core by core on fresh `AiCore`s, sequentially, with
/// the chip's round-robin assignment, timing only the executions
/// (`sim.core_exec`). Checks every active core's counters and cycles
/// against `run`. Returns the number of active cores.
pub fn core_replay(
    chip: &Chip,
    programs: &[Program],
    image: &[u8],
    run: &ChipRun,
    tr: &mut Tracer,
) -> Result<usize, String> {
    let mut active = 0;
    for core_id in 0..chip.cores {
        let jobs: Vec<usize> = (core_id..programs.len()).step_by(chip.cores).collect();
        if jobs.is_empty() {
            continue;
        }
        let mut core = AiCore::with_capacities(chip.cost, chip.caps, image.len());
        core.set_trace(chip.trace);
        core.buffers_mut().gm_bytes_mut().copy_from_slice(image);
        tr.span("sim.core_exec", |_| {
            jobs.iter()
                .try_for_each(|&j| core.run(&programs[j]).map(|_| ()))
        })
        .map_err(|e| e.to_string())?;
        let want = run
            .per_core
            .get(active)
            .ok_or("chip reports fewer active cores than the replay")?;
        let stall = want.contention_stalls + want.l2_miss_stalls;
        let cycles = core.counters().cycles + chip.cost.core_dispatch * jobs.len() as u64;
        if core_local(want) != *core.counters() || run.core_cycles[active] != cycles + stall {
            return Err(format!(
                "core {core_id}: AiCore replay counters differ from Chip::run"
            ));
        }
        active += 1;
    }
    if active != run.per_core.len() {
        return Err("chip reports more active cores than the replay".into());
    }
    Ok(active)
}

/// Whether two runs agree on every simulated statistic.
pub fn same_run(a: &ChipRun, b: &ChipRun) -> bool {
    a.cycles == b.cycles
        && a.total == b.total
        && a.per_core == b.per_core
        && a.core_cycles == b.core_cycles
        && a.peaks == b.peaks
}

/// Whether two outputs carry the same bits and simulated statistics.
pub fn same_out(a: &PoolOut, b: &PoolOut) -> bool {
    a.out.data() == b.out.data()
        && a.mask.as_ref().map(PatchTensor::data) == b.mask.as_ref().map(PatchTensor::data)
        && same_run(&a.run, &b.run)
}
