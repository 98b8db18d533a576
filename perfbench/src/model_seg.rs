//! `model-seg`: the pinned `vgg16-seg` and `inception-seg` conv→pool
//! segments through `Sequential::forward` (layer at a time) and
//! `Sequential::forward_fused`, on seeded inputs.

use crate::bench::{
    closed_loop, entry_pair, fp16_costs, timed_setup, Args, EndToEnd, Sample, Traced,
};
use crate::gen;
use crate::pool::{self, Kind, Lowered, PoolOp};
use crate::report::{Report, SimTotals};
use crate::rng::Rng;
use crate::spans::Tracer;
use dv_akg::GmArena;
use dv_conv::{build_conv2d, kernels_to_fracz, ConvLowering};
use dv_core::{choose_segment_fusion, PoolingEngine, SegmentFusion};
use dv_fp16::F16;
use dv_nn::{fused_ub_bytes, run_fused_conv_pool, Layer, NetRun, PoolKind, Sequential};
use dv_sim::{Chip, ChipRun, CostModel};
use dv_tensor::{Nc1hwc0, Nchw, PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};
use std::time::Instant;

/// One segment: its model, the engine it was built on, and its input.
struct Seg {
    name: &'static str,
    engine: PoolingEngine,
    model: Sequential,
    input: Nchw,
    golden: Option<Nchw>,
}

/// The segments with seeded inputs of the pinned shapes.
fn build(seed: u64) -> Vec<Seg> {
    let rng = Rng::new(seed);
    let segs: Vec<Seg> = dv_nn::pinned_segments()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let engine = PoolingEngine::ascend910();
            let input = gen::image(&mut rng.fork(i as u64), s.input.c, s.input.h);
            Seg {
                name: s.name,
                model: Sequential::with_layers(engine.clone(), s.layers),
                engine,
                input,
                golden: None,
            }
        })
        .collect();
    // Warm up the same code paths on a small conv→maxpool model.
    let mut rng = rng.fork(99);
    let tiny = Sequential::with_layers(
        PoolingEngine::ascend910(),
        vec![
            Layer::conv2d(gen::image(&mut rng, 16, 3), (1, 1)),
            Layer::maxpool2d(PoolParams::K3S2, dv_core::ForwardImpl::Im2col),
        ],
    );
    let x = gen::image(&mut rng, 16, 11);
    tiny.forward(&x).expect("warm-up forward runs");
    tiny.forward_fused(&x).expect("warm-up fused forward runs");
    segs
}

/// Operation `i`: segment `i / 2`, layered when even, fused when odd.
fn entry(seg: &Seg, fused: bool) -> Result<(Nchw, NetRun), String> {
    let r = if fused {
        seg.model.forward_fused(&seg.input)
    } else {
        seg.model.forward(&seg.input)
    };
    r.map_err(|e| e.to_string())
}

fn same(a: &Nchw, b: &Nchw) -> bool {
    (a.n, a.c, a.h, a.w, a.data()) == (b.n, b.c, b.h, b.w, b.data())
}

/// Everything one decomposed model pass produced.
struct Replayed {
    out: Nchw,
    /// Simulated cycles per `NetRun` entry.
    cycles: Vec<u64>,
    /// Chip runs with what they ran, for the `AiCore` replay.
    runs: Vec<(Chip, Lowered, ChipRun)>,
    /// Chip runs the replay cannot split (the fused segment).
    opaque: Vec<ChipRun>,
    fusion_declines: u64,
}

/// A convolution through `kernels_to_fracz` + `build_conv2d`
/// (`conv.lower`) and `Chip::run` (`conv.run`), on the single-core chip
/// `dv_conv::run_conv2d` uses.
fn replay_conv(
    x: &Nchw,
    weights: &Nchw,
    params: &PoolParams,
    tr: &mut Tracer,
) -> Result<(Nchw, Chip, Lowered, ChipRun), String> {
    let chip = Chip::new(1, CostModel::ascend910_like());
    let fin = tr.span("tensor.layout", |_| x.to_nc1hwc0());
    let (oh, ow) = params.out_dims(x.h, x.w).map_err(|e| e.to_string())?;
    let m_fr = (oh * ow).div_ceil(FRACTAL_ROWS);
    let (program, wfz, n_fr, gm, offs) = tr.span("conv.lower", |_| {
        let (wfz, _, n_fr) = kernels_to_fracz(weights, params);
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(fin.byte_len());
        let gm_w = gm.alloc(wfz.len() * 2);
        let gm_out = gm.alloc(n_fr * m_fr * FRACTAL_BYTES);
        build_conv2d(x.c, x.h, x.w, weights.n, params, gm_in, gm_w, gm_out, &chip)
            .map(|p| (p, wfz, n_fr, gm, (gm_in, gm_w, gm_out)))
            .map_err(|e| e.to_string())
    })?;
    let (gm_in, gm_w, gm_out) = offs;
    let mut image = vec![0u8; gm.size()];
    image[gm_in..gm_in + fin.byte_len()].copy_from_slice(dv_fp16::as_bytes(fin.data()));
    image[gm_w..gm_w + wfz.len() * 2].copy_from_slice(dv_fp16::as_bytes(&wfz));
    let before = image.clone();
    let programs = vec![program];
    let run = tr
        .span("conv.run", |tr| {
            tr.span("sim.chip_run", |_| chip.run(&mut image, &programs))
        })
        .map_err(|e| e.to_string())?;
    let mut out = Nc1hwc0::zeros(1, n_fr, oh, ow);
    out.orig_c = weights.n;
    for j in 0..n_fr {
        for patch in 0..oh * ow {
            for c0 in 0..C0 {
                let off = gm_out + j * m_fr * FRACTAL_BYTES + (patch * C0 + c0) * 2;
                let v = F16::from_bits(u16::from_le_bytes([image[off], image[off + 1]]));
                out.set(0, j, patch / ow, patch % ow, c0, v);
            }
        }
    }
    let y = tr.span("tensor.layout", |_| out.to_nchw());
    let lowered = Lowered {
        programs,
        decls: None,
        image: before,
    };
    Ok((y, chip, lowered, run))
}

/// A pooling layer: NCHW → NC1HWC0, the decomposed engine path, back.
fn replay_pool(
    engine: &PoolingEngine,
    x: &Nchw,
    kind: Kind,
    params: PoolParams,
    tr: &mut Tracer,
) -> Result<(Nchw, Lowered, ChipRun), String> {
    let input = tr.span("tensor.layout", |_| x.to_nc1hwc0());
    let op = PoolOp {
        kind,
        params,
        input,
        mask: None,
        grads: None,
    };
    let (mut out, lowered) = pool::replay(engine, &op, tr)?;
    out.out.orig_c = x.c;
    let y = tr.span("tensor.layout", |_| out.out.to_nchw());
    Ok((y, lowered, out.run))
}

/// `Sequential::forward` layer by layer through the layer functions.
fn replay_layered(
    seg: &Seg,
    x: &Nchw,
    layers: &[Layer],
    tr: &mut Tracer,
    rep: &mut Replayed,
) -> Result<Nchw, String> {
    let mut x = x.clone();
    for layer in layers {
        x = match layer {
            Layer::Conv2d { weights, params } => {
                let (y, chip, lowered, run) = replay_conv(&x, weights, params, tr)?;
                rep.cycles.push(run.cycles);
                rep.runs.push((chip, lowered, run));
                y
            }
            Layer::MaxPool2d { params, impl_ } | Layer::AvgPool2d { params, impl_ } => {
                let kind = match layer {
                    Layer::MaxPool2d { .. } => Kind::MaxFwd(*impl_),
                    _ => Kind::AvgFwd(*impl_),
                };
                let (y, lowered, run) = replay_pool(&seg.engine, &x, kind, *params, tr)?;
                rep.cycles.push(run.cycles);
                rep.runs.push((seg.engine.chip.clone(), lowered, run));
                y
            }
            other => return Err(format!("layer {} is not replayed", other.name())),
        };
    }
    Ok(x)
}

/// The segment planner's decision for a conv→pool boundary, as
/// `Sequential::forward_fused` makes it (handoff-only inputs: N = 1).
fn plan_fusion(
    engine: &PoolingEngine,
    x: &Nchw,
    weights: &Nchw,
    cp: &PoolParams,
    kind: PoolKind,
    pp: &PoolParams,
) -> SegmentFusion {
    let algebraic = kind == PoolKind::Avg
        && pp.kh == pp.kw
        && (pp.sh, pp.sw) == (pp.kh, pp.kw)
        && pp.padding.is_none()
        && (pp.dh, pp.dw) == (1, 1)
        && !pp.ceil_mode
        && dv_conv::fuse_conv_avgpool(weights, cp, pp.kh).is_ok();
    let handoff = x.n == 1
        && pp.padding.is_none()
        && !pp.ceil_mode
        && cp
            .out_dims(x.h, x.w)
            .and_then(|(oh, ow)| pp.out_dims(oh, ow))
            .map(|(_, pw)| pw <= dv_isa::MAX_REPEAT as usize)
            .unwrap_or(false);
    let resident = fused_ub_bytes((x.h, x.w), weights.n, cp, pp).unwrap_or(usize::MAX);
    choose_segment_fusion(algebraic, handoff, resident, engine.chip.caps)
}

/// `Sequential::forward_fused` through the planner (`nn.plan`) and the
/// fused runner (`nn.fused.run`), or layer by layer where it declines.
fn replay_fused(seg: &Seg, tr: &mut Tracer, rep: &mut Replayed) -> Result<Nchw, String> {
    let layers = seg.model.layers();
    let [Layer::Conv2d {
        weights,
        params: cp,
    }, pool_layer] = layers
    else {
        return Err("segments are conv→pool pairs".into());
    };
    let (kind, pp) = match pool_layer {
        Layer::MaxPool2d { params, .. } => (PoolKind::Max, *params),
        Layer::AvgPool2d { params, .. } => (PoolKind::Avg, *params),
        other => return Err(format!("layer {} is not replayed", other.name())),
    };
    let x = &seg.input;
    let plan = tr.span("nn.plan", |_| {
        plan_fusion(&seg.engine, x, weights, cp, kind, &pp)
    });
    if plan == SegmentFusion::Handoff {
        let fused = tr.span("nn.fused.run", |_| {
            run_fused_conv_pool(
                &seg.engine.chip,
                x,
                weights,
                cp,
                kind,
                &pp,
                ConvLowering::Auto,
            )
        });
        if let Ok((y, run)) = fused {
            rep.cycles.push(run.cycles);
            rep.opaque.push(run);
            return Ok(y);
        }
    }
    rep.fusion_declines += 1;
    replay_layered(seg, x, layers, tr, rep)
}

fn replay(seg: &Seg, fused: bool, tr: &mut Tracer) -> Result<Replayed, String> {
    let mut rep = Replayed {
        out: Nchw::zeros(0, 0, 0, 0),
        cycles: Vec::new(),
        runs: Vec::new(),
        opaque: Vec::new(),
        fusion_declines: 0,
    };
    rep.out = tr.span("replay", |tr| {
        if fused {
            replay_fused(seg, tr, &mut rep)
        } else {
            replay_layered(seg, &seg.input, seg.model.layers(), tr, &mut rep)
        }
    })?;
    Ok(rep)
}

/// Check a replay against the entry point's output and per-layer cycles.
fn check_replay(rep: &Replayed, out: &Nchw, net: &NetRun) -> Result<(), String> {
    let cycles: Vec<u64> = net.layers.iter().map(|l| l.cycles).collect();
    if !same(&rep.out, out) || rep.cycles != cycles || rep.fusion_declines != net.fusion_declines {
        return Err("decomposed replay differs from the entry point".into());
    }
    Ok(())
}

/// Simulated statistics of one entry, from its replay's chip runs.
fn add_runs(sim: &mut SimTotals, rep: &Replayed) -> u64 {
    let mut issues = 0;
    for run in rep.runs.iter().map(|(_, _, r)| r).chain(&rep.opaque) {
        sim.add(run);
        issues += run.total.total_issues();
    }
    issues
}

/// Run the workload.
pub fn run(args: &Args, r: &mut Report, tr: &mut Tracer) -> Traced {
    let (mut segs, setup_s) = timed_setup(|| build(args.seed));
    for (i, s) in segs.iter_mut().enumerate() {
        tr.set_op(i as u64);
        s.golden = tr
            .span("tensor.reference", |_| {
                dv_nn::reference_forward(&s.model, &s.input)
            })
            .ok();
    }
    let n = 2 * segs.len();
    let label = |i: usize| {
        format!(
            "{} {}",
            segs[i / 2].name,
            if i % 2 == 1 { "fused" } else { "layered" }
        )
    };
    // The entry point's output against `reference_forward` (so layered and
    // fused also agree with each other).
    let golden = |i: usize, res: Result<(Nchw, NetRun), String>| {
        let (out, net) = res?;
        match &segs[i / 2].golden {
            Some(g) if same(g, &out) => Ok((out, net)),
            _ => Err("output differs from reference_forward".to_string()),
        }
    };
    let mut t = Traced::default();
    if args.trace {
        let tensors: Vec<&[F16]> = segs.iter().map(|s| s.input.data()).collect();
        (t.narrow_ns, t.widen_ns) = fp16_costs(&tensors, tr);
        let start = Instant::now();
        let mut pass = 0;
        loop {
            for i in 0..n {
                let (seg, fused) = (&segs[i / 2], i % 2 == 1);
                tr.set_op((pass * n + i) as u64);
                let name = if fused { "nn.fused" } else { "nn.layered" };
                let (res, _) = entry_pair(tr, &mut t, i % 2 == 0, |tr| {
                    tr.span(name, |_| entry(seg, fused))
                });
                let checked = golden(i, res).and_then(|(out, net)| {
                    let rep = replay(seg, fused, tr)?;
                    check_replay(&rep, &out, &net)?;
                    for (chip, lowered, run) in &rep.runs {
                        let active =
                            pool::core_replay(chip, &lowered.programs, &lowered.image, run, tr)?;
                        t.occupancy.push(active as f64 / chip.cores as f64);
                        t.replayed_issues += run.total.total_issues();
                        if pass == 0 {
                            t.programs += lowered.programs.len() as u64;
                            t.instructions +=
                                lowered.programs.iter().map(|p| p.len() as u64).sum::<u64>();
                        }
                    }
                    if pass == 0 {
                        add_runs(&mut t.sim, &rep);
                        t.implicit_declines += rep
                            .opaque
                            .iter()
                            .map(|run| run.total.implicit_declines)
                            .sum::<u64>();
                        t.fusion_declines += net.fusion_declines;
                    }
                    Ok(())
                });
                r.check(checked.is_ok(), || {
                    format!("{}: {}", label(i), checked.unwrap_err())
                });
                t.ops += 1;
            }
            pass += 1;
            let el = start.elapsed().as_secs_f64();
            if el + 0.5 * el / pass as f64 >= args.seconds {
                break;
            }
        }
        return t;
    }
    let mut cycles = vec![0u64; n];
    let mut lp = closed_loop(args.seconds, n, |pass, i| {
        let t0 = Instant::now();
        let res = entry(&segs[i / 2], i % 2 == 1);
        let secs = t0.elapsed().as_secs_f64();
        let checked = golden(i, res).and_then(|(_, net)| {
            let c = net.total_cycles();
            if pass == 0 {
                cycles[i] = c;
            }
            (cycles[i] == c)
                .then_some(())
                .ok_or_else(|| "cycles changed between passes".to_string())
        });
        r.check(checked.is_ok(), || {
            format!("{}: {}", label(i), checked.unwrap_err())
        });
        Sample { secs, issues: 0 }
    });
    // The entry points report cycles only: issues come from one decomposed
    // pass per operation, outside the timed loop, checked like the traced
    // run's replay.
    let mut issues = 0;
    for i in 0..n {
        let (seg, fused) = (&segs[i / 2], i % 2 == 1);
        let rep = entry(seg, fused).and_then(|(out, net)| {
            let rep = replay(seg, fused, &mut Tracer::new(false))?;
            check_replay(&rep, &out, &net)?;
            Ok(rep)
        });
        match rep {
            Ok(rep) => issues += add_runs(&mut SimTotals::default(), &rep),
            Err(e) => r.check(false, || format!("{}: {e}", label(i))),
        }
    }
    lp.issues = issues * lp.passes as u64;
    r.note(format!("model-seg: {} passes of {n} operations", lp.passes));
    EndToEnd::closed(&lp, cycles.iter().sum(), setup_s).report(r);
    t
}
