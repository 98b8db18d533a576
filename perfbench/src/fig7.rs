//! `fig7`: the paper's Fig. 7a/7b/7c on the three bold InceptionV3
//! shapes — baseline and accelerated lowering of each — plus the held-out
//! Fig. 8 ordering check.

use crate::bench::{fp16_costs, timed_setup, Args, EndToEnd, Traced};
use crate::deck::Deck;
use crate::gen;
use crate::pool::{Kind, PoolOp};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Tracer;
use dv_core::{fig7_workloads, tiling_threshold, ForwardImpl, MergeImpl, PoolingEngine};
use dv_sim::{Chip, CostModel};
use dv_tensor::{reference, PoolParams};

/// The paper's 147×147×64 speedups: Fig. 7a forward, 7b forward with
/// argmax, 7c backward. The cost model was fitted to these three ratios,
/// so the error against them is calibration data, not validation.
pub const PAPER_SPEEDUPS: [f64; 3] = [3.2, 5.0, 5.8];

/// Baseline and accelerated kinds of Fig. 7a, 7b and 7c.
const PAIRS: [(Kind, Kind); 3] = [
    (
        Kind::MaxFwd(ForwardImpl::Standard),
        Kind::MaxFwd(ForwardImpl::Im2col),
    ),
    (
        Kind::MaxArgmax(ForwardImpl::Standard),
        Kind::MaxArgmax(ForwardImpl::Im2col),
    ),
    (
        Kind::MaxBwd(MergeImpl::VAdd),
        Kind::MaxBwd(MergeImpl::Col2Im),
    ),
];

/// The paper-experiment engine: 32 cores, double buffering off.
fn engine() -> PoolingEngine {
    PoolingEngine::ascend910().with_double_buffering(false)
}

/// The deck: per shape, per figure, baseline then accelerated.
fn build(seed: u64) -> Deck {
    let rng = Rng::new(seed);
    let mut ops = Vec::new();
    for (s, w) in fig7_workloads().into_iter().enumerate() {
        let mut rng = rng.fork(s as u64);
        let x = gen::feature_map(&mut rng, 1, w.c, w.h, w.w);
        let (oh, ow) = w.out_dims();
        let mask = gen::one_hot_mask(&mut rng, 1, x.c1, &w.params, oh, ow);
        let grads = gen::gradients(&mut rng, 1, x.c1, oh, ow);
        for (base, acc) in PAIRS {
            for kind in [base, acc] {
                let bwd = matches!(kind, Kind::MaxBwd(_));
                ops.push(PoolOp {
                    kind,
                    params: w.params,
                    input: x.clone(),
                    mask: bwd.then(|| mask.clone()),
                    grads: bwd.then(|| grads.clone()),
                });
            }
        }
    }
    let feed = vec![None; ops.len()];
    let deck = Deck {
        engine: engine(),
        ops,
        feed,
    };
    warm_up(&deck.engine, seed);
    deck
}

/// Run every kind once on a small shape so code and allocator are warm.
fn warm_up(engine: &PoolingEngine, seed: u64) {
    let mut rng = Rng::new(seed).fork(99);
    let x = gen::feature_map(&mut rng, 1, 16, 9, 9);
    let p = PoolParams::K3S2;
    let (oh, ow) = p.out_dims(9, 9).expect("valid warm-up shape");
    let mask = gen::one_hot_mask(&mut rng, 1, 1, &p, oh, ow);
    let grads = gen::gradients(&mut rng, 1, 1, oh, ow);
    for (base, acc) in PAIRS {
        for kind in [base, acc] {
            let op = PoolOp {
                kind,
                params: p,
                input: x.clone(),
                mask: Some(mask.clone()),
                grads: Some(grads.clone()),
            };
            crate::pool::entry(engine, &op).expect("warm-up operation runs");
        }
    }
}

/// Largest |simulated ÷ paper − 1| of the 147×147×64 speedups, from the
/// first pass's cycles (the deck's first six operations).
fn paper_err(cycles: &[u64]) -> f64 {
    PAPER_SPEEDUPS
        .iter()
        .enumerate()
        .map(|(f, paper)| {
            let sim = cycles[2 * f] as f64 / cycles[2 * f + 1] as f64;
            (sim / paper - 1.0).abs()
        })
        .fold(0.0, f64::max)
}

/// Held-out check at each stride's Fig. 8 tiling threshold (one core,
/// N = C1 = 1): stride 1 must run fastest with the direct lowering,
/// strides 2 and 3 with Im2col. Each stride is one checked operation; a
/// flipped ordering or a wrong output fails it.
fn fig8_orderings(seed: u64, r: &mut Report) {
    let eng =
        PoolingEngine::new(Chip::new(1, CostModel::ascend910_like())).with_double_buffering(false);
    for stride in 1..=3usize {
        let params = PoolParams::new((3, 3), (stride, stride));
        let mut impls = vec![
            ForwardImpl::Standard,
            ForwardImpl::Im2col,
            ForwardImpl::Expansion,
        ];
        if stride == 2 {
            impls.push(ForwardImpl::XYSplit);
        }
        let threshold = impls
            .iter()
            .map(|i| tiling_threshold(&params, *i, eng.chip.caps))
            .min()
            .expect("at least one lowering");
        // Fig. 8 sweeps even sizes; the largest one at the threshold.
        let hw = threshold - threshold % 2;
        let mut rng = Rng::new(seed).fork(1000 + stride as u64);
        let x = gen::feature_map(&mut rng, 1, 16, hw, hw);
        let want = reference::maxpool_forward(&x, &params).expect("valid Fig. 8 shape");
        let mut fastest: Option<(u64, ForwardImpl)> = None;
        let mut ok = true;
        for i in &impls {
            match eng.maxpool_forward(&x, params, *i) {
                Ok((out, run)) => {
                    ok &= out.data() == want.data();
                    if fastest.is_none_or(|(c, _)| run.cycles < c) {
                        fastest = Some((run.cycles, *i));
                    }
                }
                Err(_) => ok = false,
            }
        }
        let expect = if stride == 1 {
            ForwardImpl::Standard
        } else {
            ForwardImpl::Im2col
        };
        let got = fastest.map(|(_, i)| i);
        r.note(format!(
            "fig8 held-out: stride {stride}, H=W={hw}: fastest {got:?} (expected {expect:?})"
        ));
        r.check(ok && got == Some(expect), || {
            format!("Fig. 8 ordering at stride {stride}: fastest {got:?}, expected {expect:?}")
        });
    }
}

/// Run the workload.
pub fn run(args: &Args, r: &mut Report, tr: &mut Tracer) -> Traced {
    let (mut deck, setup_s) = timed_setup(|| build(args.seed));
    let golden = deck.goldens(tr);
    let mut t = Traced::default();
    let cycles = if args.trace {
        let tensors: Vec<&[dv_fp16::F16]> = deck.ops.iter().map(|o| o.input.data()).collect();
        (t.narrow_ns, t.widen_ns) = fp16_costs(&tensors, tr);
        deck.run_traced(&golden, args.seconds, r, tr, &mut t)
    } else {
        let (lp, sim, cycles) = deck.run(&golden, args.seconds, r);
        r.note(format!(
            "fig7: {} passes of {} operations",
            lp.passes,
            deck.ops.len()
        ));
        EndToEnd::closed(&lp, sim.cycles, setup_s).report(r);
        cycles
    };
    t.paper_err = paper_err(&cycles);
    r.note(format!(
        "paper_speedup_err = {} (calibration data: the cost model was fitted to these ratios)",
        t.paper_err
    ));
    fig8_orderings(args.seed, r);
    t
}
