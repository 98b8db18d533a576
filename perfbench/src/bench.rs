//! The parts every workload shares: arguments, set-up timing, the closed
//! loop, the end-to-end metrics, and the per-layer metrics of a traced
//! run.

use crate::report::{peak_rss_mb, LayerTimes, Report, SimTotals};
use crate::stats;
use std::time::Instant;

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {val} ({e})");
            match flag.as_str() {
                "--workload" => args.workload = val.clone(),
                "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Times at which set-up runs (median reported).
pub const SETUP_REPS: usize = 9;

/// Run `setup` [`SETUP_REPS`] times; keep the last result and return the
/// median time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// One timed operation.
pub struct Sample {
    /// Host seconds inside the entry point.
    pub secs: f64,
    /// Simulated instruction issues it performed.
    pub issues: u64,
}

/// What a closed loop measured.
#[derive(Default)]
pub struct Loop {
    /// Latencies of each operation of the deck, one per pass, ms.
    pub lat_ms: Vec<Vec<f64>>,
    /// Seconds spent inside entry points.
    pub busy_s: f64,
    /// Simulated instruction issues.
    pub issues: u64,
    /// Whole passes over the deck.
    pub passes: usize,
}

/// Closed loop over a deck of `deck` operations: the next operation
/// starts when the previous one returns. Runs whole passes; another pass
/// starts only while it is expected to end nearer to `seconds` than
/// stopping now would. `op(pass, i)` runs operation `i` and checks its
/// output after timing it.
pub fn closed_loop(seconds: f64, deck: usize, mut op: impl FnMut(usize, usize) -> Sample) -> Loop {
    let start = Instant::now();
    let mut lp = Loop {
        lat_ms: vec![Vec::new(); deck],
        ..Loop::default()
    };
    loop {
        let t = start.elapsed().as_secs_f64();
        if lp.passes > 0 && t + 0.5 * t / lp.passes as f64 >= seconds {
            break;
        }
        for i in 0..deck {
            let s = op(lp.passes, i);
            lp.lat_ms[i].push(s.secs * 1e3);
            lp.busy_s += s.secs;
            lp.issues += s.issues;
        }
        lp.passes += 1;
    }
    lp
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("latency_ms.p99", "ms"),
    ("sim_instr_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end figures of an untraced run.
pub struct EndToEnd {
    /// Operations completed per host second of service.
    pub ops_per_s: f64,
    /// Latency samples, ms.
    pub lat_ms: Vec<f64>,
    /// What one latency sample is.
    pub sample: String,
    /// Simulated instruction issues per host second.
    pub sim_instr_per_s: f64,
    /// Simulated chip cycles of one pass.
    pub sim_cycles: u64,
    /// Median set-up seconds.
    pub setup_s: f64,
}

impl EndToEnd {
    /// From a closed loop. A deck mixes operations whose latencies differ
    /// by orders of magnitude, so one latency sample is one operation's
    /// median over the passes: the percentiles then pick the same
    /// operations whether the host fits two passes or three into the run.
    pub fn closed(lp: &Loop, sim_cycles: u64, setup_s: f64) -> EndToEnd {
        EndToEnd {
            ops_per_s: (lp.passes * lp.lat_ms.len()) as f64 / lp.busy_s,
            lat_ms: lp.lat_ms.iter().map(|l| stats::median(l)).collect(),
            sample: format!("operations, each the median of {} passes", lp.passes),
            sim_instr_per_s: lp.issues as f64 / lp.busy_s,
            sim_cycles,
            setup_s,
        }
    }

    /// Report every end-to-end metric.
    pub fn report(&self, r: &mut Report) {
        r.metric("ops_per_s", self.ops_per_s, "1/s");
        for (name, q) in [
            ("latency_ms.p50", 0.5),
            ("latency_ms.p90", 0.9),
            ("latency_ms.p99", 0.99),
        ] {
            r.tail(name, &self.lat_ms, q, &self.sample);
        }
        r.metric("sim_instr_per_s", self.sim_instr_per_s, "1/s");
        r.metric("sim_cycles", self.sim_cycles as f64, "cycles");
        r.metric("setup_s", self.setup_s, "s");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
}

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.wait_ms.p99", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.slo_miss_ratio", "ratio"),
    ("core.engine_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.lower_ms", "ms"),
    ("core.glue_ms", "ms"),
    ("core.programs", "count"),
    ("core.instructions", "count"),
    ("core.decline_ratio", "ratio"),
    ("sim.chip_run_ms", "ms"),
    ("sim.core_exec_ms", "ms"),
    ("sim.chip_overhead_ms", "ms"),
    ("sim.core_occupancy", "ratio"),
    ("sim.ns_per_issue", "ns"),
    ("sim.issues", "count"),
    ("sim.issues.im2col", "count"),
    ("sim.issues.col2im", "count"),
    ("sim.unit_cycles.vector", "cycles"),
    ("sim.unit_cycles.scu", "cycles"),
    ("sim.unit_cycles.mte", "cycles"),
    ("sim.unit_cycles.cube", "cycles"),
    ("sim.vector_lane_util", "ratio"),
    ("sim.stall_cycles", "cycles"),
    ("sim.pipe_stalls.mte", "cycles"),
    ("sim.pipe_stalls.vec", "cycles"),
    ("sim.rename_ratio", "ratio"),
    ("sim.gm_bytes", "B"),
    ("sim.scratch_bytes", "B"),
    ("sim.contention_stalls", "cycles"),
    ("sim.l2_hits", "count"),
    ("sim.l2_miss_stalls", "cycles"),
    ("sim.peak_ub_bytes", "B"),
    ("sim.peak_l1_bytes", "B"),
    ("conv.lower_ms", "ms"),
    ("conv.run_ms", "ms"),
    ("conv.implicit_declines", "count"),
    ("nn.layered_ms", "ms"),
    ("nn.fused_ms", "ms"),
    ("nn.fusion_declines", "count"),
    ("tensor.layout_ms", "ms"),
    ("tensor.reference_ms", "ms"),
    ("fp16.narrow_ns", "ns"),
    ("fp16.widen_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.spans", "count"),
    ("fig7.paper_speedup_err", "ratio"),
    ("trace.ops", "count"),
];

/// What a traced run measured besides its spans. Fields a workload does
/// not exercise stay 0.
#[derive(Default)]
pub struct Traced {
    /// `run_job` service times per job, ms.
    pub service_ms: Vec<f64>,
    /// Queue wait per open-loop job (latency − service), ms.
    pub wait_ms: Vec<f64>,
    /// Highest sampled `Server::pending()`.
    pub backlog_max: usize,
    /// How late the generator submitted each open-loop job, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Open-loop jobs over the latency limit (failures included).
    pub slo_miss_ratio: f64,
    /// Programs lowered by the decomposed replay, per pass.
    pub programs: u64,
    /// Instructions in those programs, per pass.
    pub instructions: u64,
    /// Typed declines booked as `tuner_fallbacks`.
    pub declines: u64,
    /// Operations traced.
    pub ops: u64,
    /// Active ÷ chip cores, per replayed chip run.
    pub occupancy: Vec<f64>,
    /// Simulated issues of the replayed chip runs.
    pub replayed_issues: u64,
    /// Implicit-im2col declines booked by the fused conv runs, per pass.
    pub implicit_declines: u64,
    /// Conv→pool boundaries the fused path ran layered, per pass.
    pub fusion_declines: u64,
    /// Host ns per f16 narrowing / widening over the workload's tensors.
    pub narrow_ns: f64,
    /// See `narrow_ns`.
    pub widen_ns: f64,
    /// Entry-point seconds with spans recorded and without.
    pub traced_s: f64,
    /// See `traced_s`.
    pub untraced_s: f64,
    /// Largest |simulated ÷ paper − 1| of the Fig. 7 speedups.
    pub paper_err: f64,
    /// Simulated counts of one pass.
    pub sim: SimTotals,
}

impl Traced {
    /// Report every per-layer metric from the spans and these figures.
    pub fn report(&self, r: &mut Report, spans: &[crate::spans::Span]) {
        let lt = LayerTimes::new(spans);
        let p = |v: &[f64], q| stats::tail(v, q).value;
        r.metric("serve.service_ms.p50", p(&self.service_ms, 0.5), "ms");
        r.metric("serve.service_ms.p99", p(&self.service_ms, 0.99), "ms");
        r.metric("serve.wait_ms.p50", p(&self.wait_ms, 0.5), "ms");
        r.metric("serve.wait_ms.p99", p(&self.wait_ms, 0.99), "ms");
        r.metric("serve.backlog_max", self.backlog_max as f64, "count");
        r.metric("serve.gen_lag_ms.p99", p(&self.gen_lag_ms, 0.99), "ms");
        r.metric("serve.slo_miss_ratio", self.slo_miss_ratio, "ratio");
        r.metric("core.engine_ms", lt.mean_ms("core.engine"), "ms");
        r.metric("core.plan_ms", lt.mean_ms("core.plan"), "ms");
        r.metric("core.lower_ms", lt.mean_ms("core.lower"), "ms");
        r.metric("core.glue_ms", lt.mean_self_ms("core.engine"), "ms");
        r.metric("core.programs", self.programs as f64, "count");
        r.metric("core.instructions", self.instructions as f64, "count");
        let ops = self.ops.max(1) as f64;
        r.metric("core.decline_ratio", self.declines as f64 / ops, "ratio");
        let chip_runs = lt.calls("sim.chip_run").max(1) as f64;
        let chip_ms = lt.total_ms("sim.chip_run") / chip_runs;
        let exec_ms = lt.total_ms("sim.core_exec") / chip_runs;
        r.metric("sim.chip_run_ms", chip_ms, "ms");
        r.metric("sim.core_exec_ms", exec_ms, "ms");
        r.metric("sim.chip_overhead_ms", chip_ms - exec_ms, "ms");
        let occ = if self.occupancy.is_empty() {
            0.0
        } else {
            self.occupancy.iter().sum::<f64>() / self.occupancy.len() as f64
        };
        r.metric("sim.core_occupancy", occ, "ratio");
        let issues = self.replayed_issues.max(1) as f64;
        r.metric(
            "sim.ns_per_issue",
            lt.total_ms("sim.chip_run") * 1e6 / issues,
            "ns",
        );
        self.sim.report(r);
        r.metric("conv.lower_ms", lt.mean_ms("conv.lower"), "ms");
        r.metric("conv.run_ms", lt.mean_ms("conv.run"), "ms");
        r.metric(
            "conv.implicit_declines",
            self.implicit_declines as f64,
            "count",
        );
        r.metric("nn.layered_ms", lt.mean_ms("nn.layered"), "ms");
        r.metric("nn.fused_ms", lt.mean_ms("nn.fused"), "ms");
        r.metric("nn.fusion_declines", self.fusion_declines as f64, "count");
        r.metric("tensor.layout_ms", lt.mean_ms("tensor.layout"), "ms");
        r.metric("tensor.reference_ms", lt.mean_ms("tensor.reference"), "ms");
        r.metric("fp16.narrow_ns", self.narrow_ns, "ns");
        r.metric("fp16.widen_ns", self.widen_ns, "ns");
        let overhead = if self.untraced_s > 0.0 {
            self.traced_s / self.untraced_s - 1.0
        } else {
            0.0
        };
        r.metric("trace.overhead_ratio", overhead, "ratio");
        r.metric("trace.unaccounted_ms", unaccounted_ms(spans) / ops, "ms");
        r.metric("trace.spans", spans.len() as f64, "count");
        r.metric("fig7.paper_speedup_err", self.paper_err, "ratio");
        r.metric("trace.ops", self.ops as f64, "count");
    }
}

/// Run an operation's entry point `f` twice — once without spans, once
/// inside an `op` span — alternating which goes first so cache warmth
/// does not bias the tracing overhead. Returns the traced run's result
/// and its seconds.
pub fn entry_pair<T>(
    tr: &mut crate::spans::Tracer,
    t: &mut Traced,
    traced_first: bool,
    mut f: impl FnMut(&mut crate::spans::Tracer) -> T,
) -> (T, f64) {
    let mut off = crate::spans::Tracer::new(false);
    let mut out = None;
    let mut traced_s = 0.0;
    for traced in [traced_first, !traced_first] {
        let t0 = Instant::now();
        if traced {
            out = Some(tr.span("op", &mut f));
            traced_s = t0.elapsed().as_secs_f64();
        } else {
            std::hint::black_box(f(&mut off));
            t.untraced_s += t0.elapsed().as_secs_f64();
        }
    }
    t.traced_s += traced_s;
    (out.expect("one run was traced"), traced_s)
}

/// Total over operations of the entry point's time (`op` spans) that the
/// decomposed replay's layer spans (children of `replay`) do not cover,
/// in ms.
pub fn unaccounted_ms(spans: &[crate::spans::Span]) -> f64 {
    let selfs = crate::spans::self_times(spans);
    let mut entry: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut covered: std::collections::BTreeMap<u64, u64> = Default::default();
    for (s, self_ns) in spans.iter().zip(selfs) {
        match s.name {
            "op" => *entry.entry(s.op).or_default() += s.dur(),
            "replay" => *covered.entry(s.op).or_default() += s.dur() - self_ns,
            _ => {}
        }
    }
    entry
        .iter()
        .map(|(op, &e)| e.saturating_sub(covered.get(op).copied().unwrap_or(0)) as f64 / 1e6)
        .sum()
}

/// Host ns per element to widen (`to_f32`) and narrow (`from_f32`) every
/// value of `tensors`, each inside its own span.
pub fn fp16_costs(tensors: &[&[dv_fp16::F16]], tr: &mut crate::spans::Tracer) -> (f64, f64) {
    use std::hint::black_box;
    let n: usize = tensors.iter().map(|t| t.len()).sum();
    let mut wide: Vec<f32> = Vec::with_capacity(n);
    let t = Instant::now();
    tr.span("fp16.widen", |_| {
        for v in tensors.iter().flat_map(|t| t.iter()) {
            wide.push(black_box(v.to_f32()));
        }
    });
    let widen = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let mut acc = 0u32;
    tr.span("fp16.narrow", |_| {
        for &x in &wide {
            acc = acc.wrapping_add(black_box(dv_fp16::F16::from_f32(x)).to_bits() as u32);
        }
    });
    black_box(acc);
    let narrow = t.elapsed().as_nanos() as f64;
    let n = n.max(1) as f64;
    (narrow / n, widen / n)
}
