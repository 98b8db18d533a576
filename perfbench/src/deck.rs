//! A fixed deck of pooling operations on one engine, run in a closed
//! loop — the shape of the `fig7` and `table1-train` workloads.

use crate::bench::{closed_loop, entry_pair, Loop, Sample, Traced};
use crate::pool::{self, PoolOp, PoolOut};
use crate::report::{Ledger, Report, SimTotals};
use crate::spans::Tracer;
use dv_core::PoolingEngine;
use dv_tensor::{Nc1hwc0, PatchTensor};
use std::hint::black_box;
use std::time::Instant;

/// Golden outputs of one operation.
pub type Golden = (Nc1hwc0, Option<PatchTensor>);

/// The operations, the engine they run on, and which operation consumes
/// which other's argmax mask.
pub struct Deck {
    /// The engine every operation runs on.
    pub engine: PoolingEngine,
    /// The operations, in loop order.
    pub ops: Vec<PoolOp>,
    /// `feed[j] == Some(i)`: operation `i` takes operation `j`'s argmax
    /// mask from the same pass (a training step's forward → backward).
    pub feed: Vec<Option<usize>>,
}

impl Deck {
    /// Golden outputs of every operation, each computed in a
    /// `tensor.reference` span. A mask consumer is referenced against its
    /// producer's golden mask.
    pub fn goldens(&self, tr: &mut Tracer) -> Vec<Golden> {
        let mut out: Vec<Golden> = Vec::with_capacity(self.ops.len());
        let mut fed: Vec<Option<PatchTensor>> = vec![None; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            tr.set_op(i as u64);
            let g = match fed[i].take() {
                Some(mask) => {
                    let op = PoolOp {
                        mask: Some(mask),
                        ..op.clone()
                    };
                    tr.span("tensor.reference", |_| pool::golden(&op))
                }
                None => tr.span("tensor.reference", |_| pool::golden(op)),
            };
            if let Some(c) = self.feed[i] {
                fed[c] = g.1.clone();
            }
            out.push(g);
        }
        out
    }

    fn feed_mask(&mut self, i: usize, out: &PoolOut) {
        if let Some(c) = self.feed[i] {
            self.ops[c].mask = out.mask.clone();
        }
    }

    /// The end-to-end closed loop. Outputs are checked against `golden`
    /// and counters against the first pass, after each operation's
    /// timing. Returns the loop, the first pass's simulated totals, and
    /// each operation's first-pass cycles.
    pub fn run(
        &mut self,
        golden: &[Golden],
        seconds: f64,
        r: &mut Report,
    ) -> (Loop, SimTotals, Vec<u64>) {
        let mut ledger = Ledger::default();
        let mut sim = SimTotals::default();
        let mut cycles = vec![0; self.ops.len()];
        let n = self.ops.len();
        let lp = closed_loop(seconds, n, |pass, i| {
            let t = Instant::now();
            let res = pool::entry(&self.engine, &self.ops[i]);
            let secs = t.elapsed().as_secs_f64();
            let label = || format!("op {i} ({})", self.ops[i].kind.label());
            match res {
                Ok(out) => {
                    let ok = pool::matches(&out, &golden[i]);
                    let same = ledger.same_as_first(i, out.run.cycles, &out.run.total);
                    r.check(ok && same, || {
                        let what = if ok {
                            "counters changed between passes"
                        } else {
                            "output differs from the reference"
                        };
                        format!("{} {what}", label())
                    });
                    if pass == 0 {
                        sim.add(&out.run);
                        cycles[i] = out.run.cycles;
                    }
                    self.feed_mask(i, &out);
                    Sample {
                        secs,
                        issues: out.run.total.total_issues(),
                    }
                }
                Err(e) => {
                    r.check(false, || format!("{}: {e}", label()));
                    Sample { secs, issues: 0 }
                }
            }
        });
        (lp, sim, cycles)
    }

    /// The traced run: each operation runs through its entry point without
    /// spans and again inside an `op` span, then through the decomposed
    /// replay and the `AiCore` replay, whose outputs and counters must
    /// match the entry point's exactly. Returns first-pass cycles.
    pub fn run_traced(
        &mut self,
        golden: &[Golden],
        seconds: f64,
        r: &mut Report,
        tr: &mut Tracer,
        t: &mut Traced,
    ) -> Vec<u64> {
        let n = self.ops.len();
        let mut cycles = vec![0; n];
        let start = Instant::now();
        let mut pass = 0;
        loop {
            for i in 0..n {
                tr.set_op((pass * n + i) as u64);
                let (engine, op) = (&self.engine, &self.ops[i]);
                let (entry, _) = entry_pair(tr, t, i % 2 == 0, |_| pool::entry(engine, op));
                let label = format!("op {i} ({})", self.ops[i].kind.label());
                let entry = match entry {
                    Ok(e) => e,
                    Err(e) => {
                        r.check(false, || format!("{label}: {e}"));
                        continue;
                    }
                };
                let checked = if pool::matches(&entry, &golden[i]) {
                    replay_and_check(&self.engine, &self.ops[i], &entry, tr, t, pass == 0)
                } else {
                    Err("output differs from the reference".to_string())
                };
                r.check(checked.is_ok(), || {
                    format!("{label}: {}", checked.unwrap_err())
                });
                tr.span("tensor.layout", |_| {
                    black_box(self.ops[i].input.to_nchw().to_nc1hwc0())
                });
                if pass == 0 {
                    t.sim.add(&entry.run);
                    cycles[i] = entry.run.cycles;
                }
                t.declines += entry.run.total.tuner_fallbacks;
                t.ops += 1;
                self.feed_mask(i, &entry);
            }
            pass += 1;
            let el = start.elapsed().as_secs_f64();
            if el + 0.5 * el / pass as f64 >= seconds {
                break;
            }
        }
        cycles
    }
}

/// Replay `op` through the layer functions and on per-core `AiCore`s
/// inside a `replay` span, and check both against the entry point's
/// `entry` run. On the first pass, count the lowered programs.
pub fn replay_and_check(
    engine: &PoolingEngine,
    op: &PoolOp,
    entry: &PoolOut,
    tr: &mut Tracer,
    t: &mut Traced,
    first_pass: bool,
) -> Result<(), String> {
    let (out, lowered) = tr.span("replay", |tr| pool::replay(engine, op, tr))?;
    if !pool::same_out(&out, entry) {
        return Err("decomposed replay differs from the entry point".into());
    }
    let active = pool::core_replay(
        &engine.chip,
        &lowered.programs,
        &lowered.image,
        &out.run,
        tr,
    )?;
    t.occupancy.push(active as f64 / engine.chip.cores as f64);
    t.replayed_issues += out.run.total.total_issues();
    if first_pass {
        t.programs += lowered.programs.len() as u64;
        t.instructions += lowered.programs.iter().map(|p| p.len() as u64).sum::<u64>();
    }
    Ok(())
}
