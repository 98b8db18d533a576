//! The high-level API: run pooling operators on a simulated chip.
//!
//! [`PoolingEngine`] runs every pooling operator in two steps.
//! [`PoolingEngine::plan`] lays the tensors out in global memory
//! (forward `in, out[, mask]`; max backward `mask, grad, dx`; avg
//! backward `grad, dx`; shard staging last), makes every decision, and
//! lowers the programs, taking the first rule that applies:
//!
//! 1. **auto-tune** ([`PoolingEngine::auto_tune`]): dispatch the
//!    cheapest predicted algorithm that lowers;
//! 2. **shard** ([`PoolingEngine::shard`]): the cost-model partition
//!    axis for the Im2col forward, halo-merged row shards for a backward;
//! 3. **batch fold** ([`PoolingEngine::batching`]): the Mode-0 forward
//!    fold when it plans and saves `Im2Col` issues, per-`c1` backward
//!    consolidation;
//! 4. **band split** ([`PoolingEngine::split_bands`]): forward row bands
//!    across idle cores;
//! 5. **per-plane**: one program per `(n, c1)` plane.
//!
//! The [`Plan`] it returns records the outcome. A private `execute`
//! writes the inputs into a fresh GM image, runs the programs, books the
//! plan's declines and the tuner's certification into the counters, and
//! reads the outputs back. The five pooling entry points only validate
//! shapes, build the [`PoolProblem`], plan, and execute. The f16 results
//! are what the tests compare bit-exactly against the golden references;
//! the cycle counts are what the benchmark harness plots against the
//! paper's figures.

use crate::avgpool::avg_scale;
use crate::maxpool::batched::per_plane_im2col_issues;
use crate::maxpool::{
    backward_shard_staging_bytes, build_backward, build_backward_batched, build_backward_sharded,
    build_forward_batched, build_forward_inner, BackwardSource, Reduction,
};
use crate::problem::{ForwardImpl, LowerError, MergeImpl, OpKind, PoolProblem};
use crate::schedule::{
    chip_cycle_floor, choose_backward_algorithm, choose_backward_partition,
    choose_forward_algorithm, choose_partition, Algorithm, AlgorithmChoice, PartitionAxis,
    Prediction, Schedule,
};
use core::fmt;
use dv_akg::GmArena;
use dv_fp16::F16;
use dv_isa::Program;
use dv_sim::{Chip, ChipRun, GmDeclaration, MemoryModel, SimError};
use dv_tensor::{Nc1hwc0, PatchTensor, PoolParams, ShapeError, C0};

/// Errors surfaced by engine runs.
#[derive(Debug)]
pub enum RunError {
    /// Lowering failed.
    Lower(LowerError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Lower(e) => write!(f, "lowering: {e}"),
            RunError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<LowerError> for RunError {
    fn from(e: LowerError) -> Self {
        RunError::Lower(e)
    }
}
impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// A pooling run's outcome: the simulated chip statistics.
pub type PoolRun = ChipRun;

/// Owns a simulated chip and runs pooling operators on it.
#[derive(Clone, Debug)]
pub struct PoolingEngine {
    /// The simulated chip (cores, cost model, capacities).
    pub chip: Chip,
    /// When set, forward lowerings split each plane's row bands across
    /// idle cores ("each core calculates a share of the output") instead
    /// of parallelising over (N, C1) planes only. Off by default to match
    /// the paper's per-plane schedule; the multi-core scaling experiment
    /// turns it on. This switch never splits a backward pass — sub-plane
    /// backward shards need halo-merge GM declarations and are only
    /// taken by the cost-model partitioner (see [`PoolingEngine::shard`]).
    pub split_bands: bool,
    /// Double-buffer row bands (on by default): when a plane is split
    /// into bands and twice the band footprint fits the scratchpads, the
    /// lowering gives the band-cycled regions ping-pong (A/B) slots and
    /// issues band `i + 1`'s loads before band `i`'s reduction, letting
    /// the dual-pipe issue model overlap MTE/SCU work with Vector work
    /// instead of WAR-stalling on slot reuse. Results are bit-identical
    /// either way — only the schedule changes.
    pub double_buffer: bool,
    /// Fold the batch dimension through the SCU (on by default): when a
    /// run has `N > 1` and folding cannot hurt multi-core occupancy, the
    /// Im2col forward lowers all `N` planes of a `c1` slice through one
    /// Mode-0 `Im2Col` repeat-chain program, and the backward pass
    /// consolidates its planes into one program per `c1`. A fold that
    /// cannot plan or saves no `Im2Col`s is a [`Decline`]; the per-plane
    /// schedule runs instead. Results are bit-identical either way.
    pub batching: bool,
    /// Partition by cost model (off by default): each Im2col forward
    /// takes [`choose_partition`]'s multi-core makespan choice (contention
    /// priced when the chip shares bandwidth) instead of the
    /// `split_bands`/`batching` switches, and a backward splits each plane
    /// into row shards on a strict predicted win of
    /// [`choose_backward_partition`]. Overlapping shard contributions are
    /// declared as halo spans and folded back in the reference order
    /// ([`dv_sim::Chip::run_declared`]); a shard lowering that declines
    /// runs per-plane as a booked [`Decline::Shard`]. Results are
    /// bit-identical on every axis.
    pub shard: bool,
    /// Override for [`Schedule::rotate`]: whether lowerings may plan
    /// versioned (renamer-backed) band layouts. `None` (the default)
    /// derives it from the chip's cost model — planned exactly when the
    /// dual-pipe scheduler renames. `Some(x)` pins it regardless, which
    /// controlled comparisons use to run the *same* program under
    /// renaming and no-renaming cost models.
    pub rotation_planning: Option<bool>,
    /// Auto-tune the algorithm per workload (off by default): the entry
    /// points *ignore* their `impl_`/`merge` argument and dispatch the
    /// first lowerable candidate of [`choose_forward_algorithm`] /
    /// [`choose_backward_algorithm`] — direct reduction, per-plane
    /// Im2col, or the Mode-0 batch fold. Higher-ranked candidates that
    /// fail to lower are booked [`Decline::Candidate`]s; after the run
    /// every other lowerable candidate whose [`chip_cycle_floor`] sits
    /// below the measured cycles books a
    /// [`dv_sim::HwCounters::tuner_mispredicted`] (so 0 proves the tuned
    /// run no slower than any alternative). Results are bit-identical on
    /// every algorithm.
    pub auto_tune: bool,
}

/// A lowering [`PoolingEngine::plan`] preferred but did not take, with
/// its typed cause.
#[derive(Clone, Debug, PartialEq)]
pub enum Decline {
    /// The batch fold would not issue fewer `Im2Col`s than per-plane
    /// (`usize::MAX`: uncountable); the per-plane schedule ran.
    FoldIssues {
        /// `Im2Col` issues of the folded programs.
        folded: usize,
        /// `Im2Col` issues the per-plane schedule would spend.
        per_plane: usize,
    },
    /// The batch fold failed to plan; the per-plane schedule ran.
    FoldFailed(LowerError),
    /// The sub-plane backward shard lowering declined; the per-plane
    /// schedule ran.
    Shard(LowerError),
    /// A tuner candidate ranked above the dispatched one failed to lower.
    Candidate(Algorithm, LowerError),
}

impl Decline {
    /// Whether a run books this decline as a
    /// [`dv_sim::HwCounters::tuner_fallbacks`]: shard and tuner declines
    /// are; the batch fold's own feasibility checks are not.
    fn booked(&self) -> bool {
        matches!(self, Decline::Shard(_) | Decline::Candidate(..))
    }
}

/// What [`PoolingEngine::plan`] decided for one operator on one problem,
/// with the lowered programs ready to run. The public fields are the
/// record; the programs, halo declarations, certification alternatives
/// and GM layout stay private to the engine.
#[derive(Debug)]
pub struct Plan {
    /// How the work is spread over the cores: [`PartitionAxis::PerC1`]
    /// whenever the batch is folded (the forward Mode-0 fold or the
    /// backward per-`c1` consolidation), [`PartitionAxis::PerRowBand`]
    /// when planes split into row bands or halo-merged shards, and
    /// [`PartitionAxis::PerPlane`] otherwise.
    pub axis: PartitionAxis,
    /// The algorithm the auto-tuner dispatched (`None` when auto-tuning
    /// is off).
    pub algorithm: Option<Algorithm>,
    /// The tuner's feasible candidates with their predicted chip cycles,
    /// cheapest first (empty when auto-tuning is off).
    pub ranking: Vec<Prediction>,
    /// Programs per `(n, c1)` plane: above 1 only when the axis is
    /// [`PartitionAxis::PerRowBand`] and planes really split.
    pub shards: usize,
    /// Every preferred lowering the plan did not take, in decision order.
    pub declines: Vec<Decline>,
    op: OpKind,
    prob: PoolProblem,
    layout: Layout,
    programs: Vec<Program>,
    /// Halo-merge declarations of a sharded backward.
    decls: Option<Vec<GmDeclaration>>,
    /// Lowered programs of the tuner's rejected candidates, certified
    /// against after the run.
    alternatives: Vec<Vec<Program>>,
}

/// Where a plan's tensors sit in the GM image.
#[derive(Debug)]
struct Layout {
    /// Image size in bytes, shard staging included.
    size: usize,
    /// Offsets of the inputs `execute` writes, in entry-point order.
    inputs: Vec<usize>,
    /// Offset of the output: the pooled map, or `dx` for a backward.
    out: usize,
    /// Offset of the argmax mask output.
    mask: Option<usize>,
}

impl Plan {
    /// Walk the tuner's ranking: the first candidate that lowers runs;
    /// candidates that fail before it are declined (booked as tuner
    /// fallbacks, never a silent re-rank); the later lowerable candidates
    /// are kept to certify the run against. A ranking with no lowerable
    /// candidate surfaces the last lowering error.
    fn dispatch(
        &mut self,
        choice: AlgorithmChoice,
        mut lower: impl FnMut(Algorithm) -> Result<(Vec<Program>, PartitionAxis), LowerError>,
    ) -> Result<(), LowerError> {
        for pred in &choice.ranking {
            match (lower(pred.algorithm), self.algorithm) {
                (Ok((programs, _)), Some(_)) => self.alternatives.push(programs),
                (Ok((programs, axis)), None) => {
                    (self.programs, self.axis) = (programs, axis);
                    self.algorithm = Some(pred.algorithm);
                }
                (Err(e), None) => self.declines.push(Decline::Candidate(pred.algorithm, e)),
                (Err(_), Some(_)) => {}
            }
        }
        self.ranking = choice.ranking;
        if self.algorithm.is_some() {
            return Ok(());
        }
        // Nothing lowered: surface the last candidate's error.
        Err(match self.declines.pop() {
            Some(Decline::Candidate(_, e)) => e,
            _ => LowerError::Unsupported("auto-tuner found no feasible algorithm".into()),
        })
    }
}

impl PoolingEngine {
    /// An engine over an Ascend-910-like chip (32 cores).
    pub fn ascend910() -> PoolingEngine {
        PoolingEngine::new(Chip::ascend910())
    }

    /// An engine over a custom chip.
    pub fn new(chip: Chip) -> PoolingEngine {
        PoolingEngine {
            chip,
            split_bands: false,
            double_buffer: true,
            batching: true,
            shard: false,
            rotation_planning: None,
            auto_tune: false,
        }
    }

    /// Enable or disable forward band splitting across idle cores.
    pub fn with_band_splitting(mut self, on: bool) -> PoolingEngine {
        self.split_bands = on;
        self
    }

    /// Enable or disable double-buffered (ping-pong) row-band prefetch
    /// (see [`PoolingEngine::double_buffer`]).
    pub fn with_double_buffering(mut self, on: bool) -> PoolingEngine {
        self.double_buffer = on;
        self
    }

    /// The same engine with per-instruction tracing configured on its
    /// chip: every returned [`PoolRun`] then carries a [`dv_sim::Trace`]
    /// per core, exportable via [`ChipRun::chrome_trace_json`] and
    /// summarisable via [`ChipRun::breakdown`].
    pub fn with_trace(mut self, trace: dv_sim::TraceConfig) -> PoolingEngine {
        self.chip = self.chip.with_trace(trace);
        self
    }

    /// Enable or disable batch folding (see [`PoolingEngine::batching`]).
    pub fn with_batching(mut self, on: bool) -> PoolingEngine {
        self.batching = on;
        self
    }

    /// Enable or disable cost-model sharding (see
    /// [`PoolingEngine::shard`]).
    pub fn with_sharding(mut self, on: bool) -> PoolingEngine {
        self.shard = on;
        self
    }

    /// Pin whether lowerings plan versioned (renamer-backed) band
    /// layouts (see [`PoolingEngine::rotation_planning`]).
    pub fn with_rotation_planning(mut self, on: bool) -> PoolingEngine {
        self.rotation_planning = Some(on);
        self
    }

    /// Enable or disable per-workload algorithm auto-tuning (see
    /// [`PoolingEngine::auto_tune`]).
    pub fn with_auto_tuning(mut self, on: bool) -> PoolingEngine {
        self.auto_tune = on;
        self
    }

    /// The same engine with a different host execution backend on its
    /// chip. Backends change host wall-clock only — outputs, counters,
    /// traces, and peaks are bit-identical across all of them.
    pub fn with_backend(mut self, backend: dv_sim::Backend) -> PoolingEngine {
        self.chip = self.chip.with_backend(backend);
        self
    }

    /// The overlap schedule this engine's lowerings plan against:
    /// `double_buffer` plus rotation planning resolved from the chip's
    /// cost model (or the pinned override).
    pub fn schedule(&self) -> Schedule {
        let mut sched = Schedule::for_cost(self.chip.cost, self.double_buffer);
        if let Some(rotate) = self.rotation_planning {
            sched.rotate = rotate;
        }
        sched
    }

    /// The chip's shared L2/HBM bandwidth, if it models one — what the
    /// tuner's and partitioner's contention multipliers price against.
    pub fn shared_bandwidth(&self) -> Option<u64> {
        match self.chip.memory {
            MemoryModel::Independent => None,
            MemoryModel::SharedBandwidth { bytes_per_cycle } => Some(bytes_per_cycle),
            // The estimators price the L2 model by its HBM pipe alone
            // (all-miss) — conservative, so a predicted win still holds
            // when shards share lines.
            MemoryModel::SharedBandwidthL2 {
                bytes_per_cycle, ..
            } => Some(bytes_per_cycle),
        }
    }

    /// Plan `op` on `prob`: lay the tensors out in GM, decide the
    /// algorithm, partition axis, batch fold, band split and shards in
    /// the precedence the [module docs](self) list, and lower the
    /// programs. The only place the engine calls a `choose_*` cost model
    /// or a `build_*` lowering.
    pub fn plan(&self, op: OpKind, prob: &PoolProblem) -> Result<Plan, LowerError> {
        use PartitionAxis::{PerC1, PerPlane, PerRowBand};
        let (caps, cores, sched) = (self.chip.caps, self.chip.cores, self.schedule());
        let bandwidth = self.shared_bandwidth();
        let mut gm = GmArena::new();
        let argmax = matches!(op, OpKind::MaxForwardArgmax(_));
        let (inputs, out, mask) = match op {
            OpKind::MaxBackward(_) => {
                let inputs = vec![gm.alloc(prob.mask_bytes()), gm.alloc(prob.out_bytes())];
                (inputs, gm.alloc(prob.in_bytes()), None)
            }
            OpKind::AvgBackward(_) => (
                vec![gm.alloc(prob.out_bytes())],
                gm.alloc(prob.in_bytes()),
                None,
            ),
            _ => {
                let (gm_in, gm_out) = (gm.alloc(prob.in_bytes()), gm.alloc(prob.out_bytes()));
                (
                    vec![gm_in],
                    gm_out,
                    argmax.then(|| gm.alloc(prob.mask_bytes())),
                )
            }
        };
        let mut plan = Plan {
            axis: PerPlane,
            algorithm: None,
            ranking: Vec::new(),
            shards: 1,
            declines: Vec::new(),
            op,
            prob: *prob,
            layout: Layout {
                size: 0,
                inputs,
                out,
                mask,
            },
            programs: Vec::new(),
            decls: None,
            alternatives: Vec::new(),
        };
        // Without cost-model sharding the batch folds only with `N > 1`,
        // never alongside band splitting (which already re-partitions the
        // work), and only when `C1` programs still occupy every core.
        let fold = self.batching
            && prob.n > 1
            && (!self.split_bands || cores == 1)
            && (cores == 1 || prob.c1 >= cores);
        match op {
            OpKind::MaxBackward(merge) | OpKind::AvgBackward(merge) => {
                let masked = matches!(op, OpKind::MaxBackward(_));
                let source = match masked {
                    true => BackwardSource::MaxMask {
                        gm_mask: plan.layout.inputs[0],
                    },
                    false => BackwardSource::AvgUniform {
                        scale: avg_scale(prob),
                    },
                };
                let gm_grad = plan.layout.inputs[masked as usize];
                let lower = |merge| match fold {
                    true => build_backward_batched(prob, merge, source, gm_grad, out, caps, sched)
                        .map(|ps| (ps, PerC1)),
                    false => build_backward(prob, merge, source, gm_grad, out, caps, sched)
                        .map(|ps| (ps, PerPlane)),
                };
                if self.auto_tune {
                    let choice =
                        choose_backward_algorithm(prob, masked, cores, &sched, caps, bandwidth);
                    plan.dispatch(choice, |algo| lower(algo.merge_impl()))?;
                } else if self.shard
                    && choose_backward_partition(
                        prob, merge, masked, cores, &sched, caps, bandwidth,
                    ) == PerRowBand
                {
                    // The idle-core multiple the partitioner priced.
                    let shards = (cores / (prob.n * prob.c1)).max(2);
                    let staging = gm.alloc(backward_shard_staging_bytes(prob, shards));
                    match build_backward_sharded(
                        prob, merge, source, gm_grad, out, staging, shards, caps, sched,
                    ) {
                        Ok((programs, decls)) => {
                            (plan.programs, plan.axis) = (programs, PerRowBand);
                            plan.decls = Some(decls);
                        }
                        Err(e) => {
                            // Run the per-plane schedule the partitioner
                            // compared against.
                            plan.declines.push(Decline::Shard(e));
                            plan.programs =
                                build_backward(prob, merge, source, gm_grad, out, caps, sched)?;
                        }
                    }
                } else {
                    (plan.programs, plan.axis) = lower(merge)?;
                }
            }
            OpKind::MaxForward(impl_)
            | OpKind::MaxForwardArgmax(impl_)
            | OpKind::AvgForward(impl_) => {
                let reduction = match op {
                    OpKind::AvgForward(_) => Reduction::Sum {
                        scale: avg_scale(prob),
                    },
                    _ => Reduction::Max,
                };
                let gm_in = plan.layout.inputs[0];
                let lower = |impl_, parallel| {
                    build_forward_inner(
                        prob, impl_, reduction, gm_in, out, mask, caps, parallel, sched,
                    )
                };
                let folded =
                    || build_forward_batched(prob, reduction, gm_in, out, mask, caps, sched);
                if self.auto_tune {
                    let avg = matches!(op, OpKind::AvgForward(_));
                    let choice =
                        choose_forward_algorithm(prob, argmax, avg, cores, &sched, caps, bandwidth);
                    plan.dispatch(choice, |algo| match algo {
                        Algorithm::Fold => folded().map(|ps| (ps, PerC1)),
                        _ => lower(algo.forward_impl(), 1).map(|ps| (ps, PerPlane)),
                    })?;
                } else {
                    let im2col = impl_ == ForwardImpl::Im2col;
                    plan.axis = if self.shard && im2col {
                        match choose_partition(prob, argmax, cores, &sched, bandwidth) {
                            PerC1 if !self.batching => PerPlane,
                            axis => axis,
                        }
                    } else if im2col && fold {
                        PerC1
                    } else if self.split_bands {
                        PerRowBand
                    } else {
                        PerPlane
                    };
                    // A fold that issues no fewer `Im2Col`s than it saves,
                    // or cannot plan, gives way to the per-plane schedule
                    // (band-split under `split_bands`); when that fails
                    // too, the fold's typed error carries the cause.
                    let (fallback, share) = match self.split_bands {
                        true => (PerRowBand, cores),
                        false => (PerPlane, 1),
                    };
                    plan.programs = match plan.axis {
                        PerC1 => match folded() {
                            Ok(programs) => {
                                let folded: usize =
                                    programs.iter().map(|p| p.issue_count("im2col")).sum();
                                let per_plane = per_plane_im2col_issues(prob, argmax, caps)
                                    .map_or(usize::MAX, |per_c1| per_c1 * prob.c1);
                                if folded < per_plane {
                                    programs
                                } else {
                                    plan.declines
                                        .push(Decline::FoldIssues { folded, per_plane });
                                    plan.axis = fallback;
                                    lower(ForwardImpl::Im2col, share)?
                                }
                            }
                            Err(e) => match lower(ForwardImpl::Im2col, share) {
                                Ok(programs) => {
                                    plan.declines.push(Decline::FoldFailed(e));
                                    plan.axis = fallback;
                                    programs
                                }
                                Err(_) => return Err(e),
                            },
                        },
                        PerRowBand => lower(impl_, cores)?,
                        PerPlane => lower(impl_, 1)?,
                    };
                }
            }
        }
        if plan.axis == PerRowBand {
            plan.shards = (plan.programs.len() / (prob.n * prob.c1)).max(1);
        }
        plan.layout.size = gm.size();
        Ok(plan)
    }

    /// Run a plan: write `inputs` (in the entry point's order) into a
    /// fresh GM image, run the programs, book the plan's declines and the
    /// tuner's certification, and read the output (and the argmax mask)
    /// back.
    fn execute(
        &self,
        plan: &Plan,
        inputs: &[&[F16]],
    ) -> Result<(Nc1hwc0, Option<PatchTensor>, PoolRun), RunError> {
        let mut image = vec![0u8; plan.layout.size];
        for (&offset, data) in plan.layout.inputs.iter().zip(inputs) {
            write_tensor(&mut image, offset, data);
        }
        let mut run = match &plan.decls {
            Some(decls) => self.chip.run_declared(&mut image, &plan.programs, decls)?,
            None => self.chip.run(&mut image, &plan.programs)?,
        };
        run.total.tuner_fallbacks += plan.declines.iter().filter(|d| d.booked()).count() as u64;
        // Certify the tuner's win: a rejected alternative whose cycle
        // floor sits below the measured cycles is a misprediction, never
        // silently dropped.
        run.total.tuner_mispredicted += plan
            .alternatives
            .iter()
            .filter(|alt| chip_cycle_floor(alt, self.chip.cores, &self.chip.cost) < run.cycles)
            .count() as u64;
        let prob = &plan.prob;
        let (h, w) = match plan.op {
            OpKind::MaxBackward(_) | OpKind::AvgBackward(_) => (prob.ih, prob.iw),
            _ => prob.out_dims(),
        };
        let (n, c1, kh, kw) = (prob.n, prob.c1, prob.params.kh, prob.params.kw);
        let data = read_f16s(&image, plan.layout.out, n * c1 * h * w * C0);
        let out = Nc1hwc0::from_vec(n, c1, h, w, data).expect("engine-produced shape");
        let mask = plan.layout.mask.map(|m| {
            let (oh, ow) = prob.out_dims();
            let data = read_f16s(&image, m, n * c1 * kh * kw * oh * ow * C0);
            PatchTensor::from_vec(n, c1, kh, kw, oh, ow, data).expect("engine-produced shape")
        });
        Ok((out, mask, run))
    }

    fn problem(input: &Nc1hwc0, params: PoolParams) -> Result<PoolProblem, LowerError> {
        PoolProblem::new(input.n, input.c1, input.h, input.w, params)
    }

    /// MaxPool forward (Fig. 7a / Fig. 8): returns the pooled tensor and
    /// the chip counters.
    pub fn maxpool_forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let plan = self.plan(OpKind::MaxForward(impl_), &Self::problem(input, params)?)?;
        let (out, _, run) = self.execute(&plan, &[input.data()])?;
        Ok((out, run))
    }

    /// MaxPool forward with the argmax mask (Fig. 7b).
    pub fn maxpool_forward_with_argmax(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PatchTensor, PoolRun), RunError> {
        let prob = Self::problem(input, params)?;
        let plan = self.plan(OpKind::MaxForwardArgmax(impl_), &prob)?;
        let (out, mask, run) = self.execute(&plan, &[input.data()])?;
        Ok((out, mask.expect("argmax plans place a mask"), run))
    }

    /// MaxPool backward (Fig. 7c): scatter the masked gradients back to
    /// the input shape.
    pub fn maxpool_backward(
        &self,
        mask: &PatchTensor,
        gradients: &Nc1hwc0,
        params: PoolParams,
        ih: usize,
        iw: usize,
        merge: MergeImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let prob = PoolProblem::new(mask.n, mask.c1, ih, iw, params)?;
        check_backward(&prob, gradients, Some(mask))?;
        let plan = self.plan(OpKind::MaxBackward(merge), &prob)?;
        let (dx, _, run) = self.execute(&plan, &[mask.data(), gradients.data()])?;
        Ok((dx, run))
    }

    /// Rectified-linear activation (`vrelu`) over a whole tensor — the
    /// elementwise layer a CNN interleaves between convolution and
    /// pooling. One program per `(n, c1)` plane; each tiles against the
    /// UB like the pooling kernels.
    pub fn relu(&self, input: &Nc1hwc0) -> Result<(Nc1hwc0, PoolRun), RunError> {
        use dv_akg::{dma, elementwise, UbArena};
        use dv_isa::{Addr, Program, VectorOp};

        let plane_bytes = input.h * input.w * C0 * 2;
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(input.byte_len());
        let gm_out = gm.alloc(input.byte_len());

        let mut programs = Vec::new();
        for n in 0..input.n {
            for c1 in 0..input.c1 {
                let off = (n * input.c1 + c1) * plane_bytes;
                let mut p = Program::new();
                // tile the plane against the UB (in + out regions)
                let mut ub = UbArena::new(self.chip.caps.ub);
                let tile_bytes = (self.chip.caps.ub / 2 - 64).min(plane_bytes);
                let ub_in = Addr::ub(ub.alloc(tile_bytes).map_err(LowerError::Ub)?);
                let ub_out = Addr::ub(ub.alloc(tile_bytes).map_err(LowerError::Ub)?);
                let mut done = 0usize;
                while done < plane_bytes {
                    let chunk = tile_bytes.min(plane_bytes - done);
                    dma(&mut p, Addr::gm(gm_in + off + done), ub_in, chunk)
                        .map_err(LowerError::Isa)?;
                    elementwise(&mut p, VectorOp::Relu, ub_out, ub_in, ub_in, chunk / 2)
                        .map_err(LowerError::Isa)?;
                    dma(&mut p, ub_out, Addr::gm(gm_out + off + done), chunk)
                        .map_err(LowerError::Isa)?;
                    done += chunk;
                }
                programs.push(p);
            }
        }

        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_in, input.data());
        let run = self.chip.run(&mut image, &programs)?;
        let data = read_f16s(&image, gm_out, input.len());
        let mut out = Nc1hwc0::from_vec(input.n, input.c1, input.h, input.w, data)
            .expect("engine-produced shape");
        out.orig_c = input.orig_c;
        Ok((out, run))
    }

    /// AvgPool forward (Section V-C).
    pub fn avgpool_forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let plan = self.plan(OpKind::AvgForward(impl_), &Self::problem(input, params)?)?;
        let (out, _, run) = self.execute(&plan, &[input.data()])?;
        Ok((out, run))
    }

    /// AvgPool backward (Section V-C): uniform mask, same merge choices.
    pub fn avgpool_backward(
        &self,
        gradients: &Nc1hwc0,
        params: PoolParams,
        ih: usize,
        iw: usize,
        merge: MergeImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let prob = PoolProblem::new(gradients.n, gradients.c1, ih, iw, params)?;
        check_backward(&prob, gradients, None)?;
        let plan = self.plan(OpKind::AvgBackward(merge), &prob)?;
        let (dx, _, run) = self.execute(&plan, &[gradients.data()])?;
        Ok((dx, run))
    }
}

/// Validate backward inputs the way the reference does: the gradients
/// (and the mask, for MaxPool) must match the problem's batch, channel
/// slices, window and derived patch grid.
fn check_backward(
    prob: &PoolProblem,
    gradients: &Nc1hwc0,
    mask: Option<&PatchTensor>,
) -> Result<(), LowerError> {
    let (oh, ow) = prob.out_dims();
    let (n, c1, kh, kw) = (prob.n, prob.c1, prob.params.kh, prob.params.kw);
    let grads = (gradients.n, gradients.c1, gradients.h, gradients.w);
    let mask = mask.map(|m| (m.n, m.c1, m.kh, m.kw, m.oh, m.ow));
    if grads == (n, c1, oh, ow) && mask.is_none_or(|m| m == (n, c1, kh, kw, oh, ow)) {
        return Ok(());
    }
    Err(LowerError::Shape(ShapeError::Mismatch(format!(
        "gradients (N, C1, Oh, Ow) {grads:?} / mask (N, C1, Kh, Kw, Oh, Ow) {mask:?} \
         do not match the problem's {:?}",
        (n, c1, kh, kw, oh, ow)
    ))))
}

fn write_tensor(image: &mut [u8], offset: usize, data: &[F16]) {
    let bytes = dv_fp16::as_bytes(data);
    image[offset..offset + bytes.len()].copy_from_slice(bytes);
}

fn read_f16s(image: &[u8], offset: usize, len: usize) -> Vec<F16> {
    let bytes = image[offset..offset + 2 * len].chunks_exact(2);
    bytes
        .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
        .collect()
}
