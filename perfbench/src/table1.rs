//! `table1-train`: every Table I layer as a training step — Im2col
//! forward with the argmax mask, then the Col2Im backward through that
//! mask — on a sharding engine over the L2 memory model.

use crate::bench::{fp16_costs, timed_setup, Args, EndToEnd, Traced};
use crate::deck::Deck;
use crate::gen;
use crate::pool::{Kind, PoolOp};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Tracer;
use dv_core::{table1_workloads, ForwardImpl, MergeImpl, PoolingEngine};
use dv_sim::{Chip, MemoryModel};
use dv_tensor::PoolParams;

/// The engine: Ascend 910 defaults with cost-model sharding, on the
/// shared-L2 memory model.
fn engine() -> PoolingEngine {
    PoolingEngine::new(Chip::ascend910().with_memory(MemoryModel::ascend910_l2()))
        .with_sharding(true)
}

fn build(seed: u64) -> Deck {
    let rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut feed = Vec::new();
    for (l, w) in table1_workloads().into_iter().enumerate() {
        let mut rng = rng.fork(l as u64);
        let x = gen::feature_map(&mut rng, 1, w.c, w.h, w.w);
        let (oh, ow) = w.out_dims();
        let grads = gen::gradients(&mut rng, 1, x.c1, oh, ow);
        feed.push(Some(ops.len() + 1));
        ops.push(PoolOp {
            kind: Kind::MaxArgmax(ForwardImpl::Im2col),
            params: w.params,
            input: x.clone(),
            mask: None,
            grads: None,
        });
        feed.push(None);
        ops.push(PoolOp {
            kind: Kind::MaxBwd(MergeImpl::Col2Im),
            params: w.params,
            input: x,
            mask: None,
            grads: Some(grads),
        });
    }
    let deck = Deck {
        engine: engine(),
        ops,
        feed,
    };
    warm_up(&deck.engine, seed);
    deck
}

/// One small training step so code and allocator are warm.
fn warm_up(engine: &PoolingEngine, seed: u64) {
    let mut rng = Rng::new(seed).fork(99);
    let p = PoolParams::K3S2;
    let x = gen::feature_map(&mut rng, 1, 16, 9, 9);
    let (oh, ow) = p.out_dims(9, 9).expect("valid warm-up shape");
    let (_, mask, _) = engine
        .maxpool_forward_with_argmax(&x, p, ForwardImpl::Im2col)
        .expect("warm-up forward runs");
    let grads = gen::gradients(&mut rng, 1, 1, oh, ow);
    engine
        .maxpool_backward(&mask, &grads, p, 9, 9, MergeImpl::Col2Im)
        .expect("warm-up backward runs");
}

/// Run the workload.
pub fn run(args: &Args, r: &mut Report, tr: &mut Tracer) -> Traced {
    let (mut deck, setup_s) = timed_setup(|| build(args.seed));
    let golden = deck.goldens(tr);
    let mut t = Traced::default();
    if args.trace {
        let mut tensors: Vec<&[dv_fp16::F16]> = Vec::new();
        for o in &deck.ops {
            match o.kind {
                Kind::MaxArgmax(_) => tensors.push(o.input.data()),
                _ => tensors.extend(o.grads.as_ref().map(|g| g.data())),
            }
        }
        (t.narrow_ns, t.widen_ns) = fp16_costs(&tensors, tr);
        deck.run_traced(&golden, args.seconds, r, tr, &mut t);
    } else {
        let (lp, sim, _) = deck.run(&golden, args.seconds, r);
        r.note(format!(
            "table1-train: {} passes of {} operations",
            lp.passes,
            deck.ops.len()
        ));
        EndToEnd::closed(&lp, sim.cycles, setup_s).report(r);
    }
    t
}
