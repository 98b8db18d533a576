//! `serve-mix`: a seeded stream of small pooling jobs through
//! `dv_serve::Server` — a saturation phase that measures capacity, then
//! an open loop at a fixed offered rate judged against a latency limit.
//! The fixed parameters and the job mix live in `perfbench/manifest.json`.

use crate::bench::{entry_pair, fp16_costs, timed_setup, Args, EndToEnd, Traced};
use crate::deck::{replay_and_check, Golden};
use crate::gen;
use crate::json::{self, Json};
use crate::pool::{self, Kind, PoolOp, PoolOut};
use crate::report::{Ledger, Report};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats;
use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_serve::{run_job, JobHandle, JobResult, JobSpec, ServeError, Server};
use dv_sim::{Chip, ChipRun, CostModel};
use dv_tensor::{Nc1hwc0, PoolParams, C0};
use std::time::{Duration, Instant};

/// The benchmark's manifest: workload parameters and the layer map.
pub const MANIFEST: &str = include_str!("../manifest.json");

/// The serve-mix parameters, read from the manifest.
pub struct Params {
    /// Server worker threads.
    pub workers: usize,
    /// Jobs kept outstanding in the saturation phase.
    pub window: usize,
    /// Rounds of one saturation pass and one open-loop slice.
    pub rounds: usize,
    /// Share of `--seconds` given to the open-loop slices.
    pub open_share: f64,
    /// Offered rate of the open loop, jobs per second.
    pub rate_per_s: f64,
    /// Latency limit of the open loop, ms.
    pub latency_limit_ms: f64,
    /// The job mix.
    pub mix: Json,
}

impl Params {
    /// Parse the `serve-mix` entry of the manifest.
    pub fn from_manifest() -> Params {
        let m = json::parse(MANIFEST).expect("manifest.json parses");
        let p = m.at("workloads").at("serve-mix").at("params");
        let n = |k: &str| p.at(k).num();
        Params {
            workers: n("workers") as usize,
            window: n("saturation_window") as usize,
            rounds: n("rounds") as usize,
            open_share: n("open_share"),
            rate_per_s: n("rate_per_s"),
            latency_limit_ms: n("latency_limit_ms"),
            mix: p.at("mix").clone(),
        }
    }
}

/// One job of the deck.
pub struct Job {
    /// The operation and its inputs.
    pub op: PoolOp,
    /// Simulated cores of the job's chip.
    pub cores: usize,
    /// Whether the job lets the engine shard.
    pub sharding: bool,
    /// The spec submitted to the server.
    pub spec: JobSpec,
    /// Golden outputs.
    pub golden: Golden,
}

/// One stratum's share of a column of the mix: each `[level, count]`
/// scaled from the whole deck (`total` jobs) to a stratum of `n`, shuffled.
fn stratum(mix: &Json, key: &str, n: usize, total: usize, rng: &mut Rng) -> Vec<Json> {
    let mut v: Vec<Json> = Vec::new();
    for level in mix.at(key).arr() {
        let pair = level.arr();
        let count = pair[1].num() as usize * n;
        assert!(
            count % total == 0,
            "the {key} column must split evenly over strata of {n} jobs"
        );
        v.extend(std::iter::repeat_n(pair[0].clone(), count / total));
    }
    assert_eq!(v.len(), n, "the {key} column must cover the deck");
    rng.shuffle(&mut v);
    v
}

fn kernel(name: &str) -> PoolParams {
    match name {
        "k3s1" => PoolParams::new((3, 3), (1, 1)),
        "k3s2" => PoolParams::K3S2,
        "k3s3" => PoolParams::new((3, 3), (3, 3)),
        "k2s2" => PoolParams::K2S2,
        other => panic!("unknown kernel {other} in the manifest"),
    }
}

fn kind(op: &str, accelerated: bool) -> Kind {
    let (f, m) = if accelerated {
        (ForwardImpl::Im2col, MergeImpl::Col2Im)
    } else {
        (ForwardImpl::Standard, MergeImpl::VAdd)
    };
    match op {
        "max-fwd" => Kind::MaxFwd(f),
        "max-argmax" => Kind::MaxArgmax(f),
        "avg-fwd" => Kind::AvgFwd(f),
        "max-bwd" => Kind::MaxBwd(m),
        "avg-bwd" => Kind::AvgBwd(m),
        other => panic!("unknown op {other} in the manifest"),
    }
}

/// The job deck: every combination of operator, kernel and shape
/// (channels, plane-size band) of each lowering, once. The core-count and
/// sharding columns are dealt per stratum — the jobs that differ only in
/// their kernel — so every seed's deck pairs each operator and shape with
/// the same mix of chips. The seed draws each side inside its band, deals
/// the columns inside each stratum, generates the data, and orders the deck.
pub fn deck(seed: u64, p: &Params) -> Vec<(PoolOp, usize, bool)> {
    let mut rng = Rng::new(seed).fork(7);
    let mix = &p.mix;
    let kernels = mix.at("kernels").arr();
    let ops = mix.at("ops").arr();
    let total = ["accelerated", "baseline"]
        .iter()
        .map(|l| mix.at(l).arr().len())
        .sum::<usize>()
        * ops.len()
        * kernels.len();
    let mut jobs = Vec::new();
    for (lowering, accelerated) in [("accelerated", true), ("baseline", false)] {
        for op in ops {
            for shape in mix.at(lowering).arr() {
                let (c, band) = (shape.arr()[0].num() as usize, shape.arr()[1].arr());
                let cores = stratum(mix, "cores", kernels.len(), total, &mut rng);
                let sharding = stratum(mix, "sharding", kernels.len(), total, &mut rng);
                for (j, k) in kernels.iter().enumerate() {
                    let side = rng.range(band[0].num() as usize, band[1].num() as usize);
                    jobs.push((
                        kind(op.str(), accelerated),
                        kernel(k.str()),
                        c,
                        side,
                        cores[j].num() as usize,
                        sharding[j] == Json::Bool(true),
                    ));
                }
            }
        }
    }
    rng.shuffle(&mut jobs);
    let mut out = Vec::new();
    for (kind, params, c, side, cores, sharding) in jobs {
        let c1 = c.div_ceil(C0);
        let (oh, ow) = params.out_dims(side, side).expect("mix shapes are valid");
        let op = match kind {
            Kind::MaxBwd(_) | Kind::AvgBwd(_) => PoolOp {
                kind,
                params,
                input: Nc1hwc0::zeros(1, c1, side, side),
                mask: matches!(kind, Kind::MaxBwd(_))
                    .then(|| gen::one_hot_mask(&mut rng, 1, c1, &params, oh, ow)),
                grads: Some(gen::gradients(&mut rng, 1, c1, oh, ow)),
            },
            _ => PoolOp {
                kind,
                params,
                input: gen::feature_map(&mut rng, 1, c, side, side),
                mask: None,
                grads: None,
            },
        };
        out.push((op, cores, sharding));
    }
    out
}

/// The order jobs are sent in: every pass over the deck is a fresh seeded
/// permutation, so no single order's collisions of large jobs dominate.
struct Order {
    rng: Rng,
    perm: Vec<usize>,
    pos: usize,
}

impl Order {
    fn new(seed: u64, phase: u64, n: usize) -> Order {
        Order {
            rng: Rng::new(seed).fork(100 + phase),
            perm: (0..n).collect(),
            pos: n,
        }
    }

    fn next(&mut self) -> usize {
        if self.pos == self.perm.len() {
            self.rng.shuffle(&mut self.perm);
            self.pos = 0;
        }
        self.pos += 1;
        self.perm[self.pos - 1]
    }
}

/// A submitted job awaiting its result.
struct Pending {
    idx: usize,
    due: Instant,
    handle: JobHandle,
}

/// Collects completions, checking each result after its completion time
/// is taken.
struct Collector<'a> {
    jobs: &'a [Job],
    ledger: Ledger,
    /// In submission order.
    pending: Vec<Pending>,
    /// (deck index, due, completed, ok) per finished job.
    done: Vec<(usize, Instant, Instant, bool)>,
    /// Cycles of each deck job's first completion.
    cycles: Vec<Option<u64>>,
    issues: u64,
}

impl<'a> Collector<'a> {
    fn new(jobs: &'a [Job]) -> Collector<'a> {
        Collector {
            jobs,
            ledger: Ledger::default(),
            pending: Vec::new(),
            done: Vec::new(),
            cycles: vec![None; jobs.len()],
            issues: 0,
        }
    }

    fn submit(&mut self, server: &Server, idx: usize, due: Instant) {
        let handle = server.submit(self.jobs[idx].spec.clone());
        self.pending.push(Pending { idx, due, handle });
    }

    /// Poll every pending job; returns how many finished.
    fn poll(&mut self, r: &mut Report) -> usize {
        let mut finished = 0;
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].handle.poll() {
                None => i += 1,
                Some(res) => {
                    let now = Instant::now();
                    let p = self.pending.remove(i);
                    self.finish(p.idx, p.due, res, now, r);
                    finished += 1;
                }
            }
        }
        finished
    }

    /// Block until the oldest pending job finishes.
    fn wait_oldest(&mut self, r: &mut Report) {
        let p = self.pending.remove(0);
        let res = p.handle.wait();
        let now = Instant::now();
        self.finish(p.idx, p.due, res, now, r);
    }

    fn finish(
        &mut self,
        idx: usize,
        due: Instant,
        res: Result<JobResult, ServeError>,
        now: Instant,
        r: &mut Report,
    ) {
        let ok = self.check(idx, res, r);
        self.done.push((idx, due, now, ok));
    }

    fn check(&mut self, idx: usize, res: Result<JobResult, ServeError>, r: &mut Report) -> bool {
        let job = &self.jobs[idx];
        let ok = match res {
            Ok(res) => {
                self.issues += res.total.total_issues();
                self.cycles[idx].get_or_insert(res.cycles);
                let out = PoolOut {
                    out: res.output,
                    mask: res.mask,
                    run: ChipRun {
                        per_core: res.per_core,
                        core_cycles: Vec::new(),
                        cycles: res.cycles,
                        total: res.total,
                        traces: Vec::new(),
                        peaks: Default::default(),
                        lifetimes: Vec::new(),
                    },
                };
                pool::matches(&out, &job.golden)
                    && self
                        .ledger
                        .same_as_first(idx, out.run.cycles, &out.run.total)
            }
            Err(_) => false,
        };
        r.check(ok, || {
            format!("job {idx} ({}) failed or mismatched", job.op.kind.label())
        });
        ok
    }

    /// Wait for every pending job, polling.
    fn drain(&mut self, r: &mut Report) {
        while !self.pending.is_empty() {
            if self.poll(r) == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

/// One saturation pass: the whole deck, in the order's next permutation,
/// with `window` jobs kept outstanding; returns the pass's completions and
/// simulated issues per second. Every pass holds the same job mix. The
/// client blocks on the oldest job rather than polling, so it takes no CPU
/// time from the workers while they are busy.
fn saturation_pass(
    server: &Server,
    c: &mut Collector,
    order: &mut Order,
    window: usize,
    r: &mut Report,
) -> (f64, f64) {
    let (done0, issues0) = (c.done.len(), c.issues);
    let start = Instant::now();
    let mut sent = 0;
    while sent < c.jobs.len() || !c.pending.is_empty() {
        while sent < c.jobs.len() && c.pending.len() < window {
            c.submit(server, order.next(), Instant::now());
            sent += 1;
        }
        if c.poll(r) == 0 {
            c.wait_oldest(r);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (
        (c.done.len() - done0) as f64 / secs,
        (c.issues - issues0) as f64 / secs,
    )
}

/// The open loop, run in slices: job `k` of a slice is due `k / rate`
/// seconds after the slice starts, and the slice drains before it ends;
/// latency runs from the due time to the observed completion.
struct OpenLoop<'a> {
    c: Collector<'a>,
    order: Order,
    gen_lag_ms: Vec<f64>,
    backlog_max: usize,
}

impl<'a> OpenLoop<'a> {
    fn new(jobs: &'a [Job], seed: u64) -> OpenLoop<'a> {
        OpenLoop {
            c: Collector::new(jobs),
            order: Order::new(seed, 1, jobs.len()),
            gen_lag_ms: Vec::new(),
            backlog_max: 0,
        }
    }

    fn slice(&mut self, server: &Server, rate_per_s: f64, secs: f64, r: &mut Report) {
        let c = &mut self.c;
        let start = Instant::now();
        let interval = Duration::from_secs_f64(1.0 / rate_per_s);
        let end = start + Duration::from_secs_f64(secs);
        let mut k: u32 = 0;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let due = start + interval * k;
            if now >= due {
                c.submit(server, self.order.next(), due);
                self.gen_lag_ms.push((now - due).as_secs_f64() * 1e3);
                k += 1;
                continue;
            }
            self.backlog_max = self.backlog_max.max(server.pending());
            if c.poll(r) == 0 {
                std::thread::sleep((due - now).min(Duration::from_micros(50)));
            }
        }
        c.drain(r);
    }

    /// (deck index, latency ms, ok) per job; records each job's span.
    fn finish(&self, tr: &mut Tracer) -> Vec<(usize, f64, bool)> {
        for &(idx, due, done, _) in &self.c.done {
            tr.set_op(idx as u64);
            tr.record("serve.job", due, done);
        }
        self.c
            .done
            .iter()
            .map(|&(idx, due, done, ok)| (idx, (done - due).as_secs_f64() * 1e3, ok))
            .collect()
    }
}

/// Set-up: the deck with its specs, the server, and a warm-up of a few
/// jobs through it.
fn build(seed: u64, p: &Params) -> (Vec<(PoolOp, usize, bool)>, Server) {
    let deck = deck(seed, p);
    let server = Server::new(p.workers);
    let warm: Vec<JobHandle> = deck
        .iter()
        .take(2 * p.window)
        .map(|(op, cores, sharding)| server.submit(pool::job(op, *cores, *sharding)))
        .collect();
    for h in warm {
        h.wait().expect("warm-up job runs");
    }
    (deck, server)
}

/// The chip and engine `run_job` builds for a job.
fn job_engine(cores: usize, sharding: bool) -> PoolingEngine {
    let chip =
        Chip::new(cores.max(1), CostModel::ascend910_like()).with_backend(Default::default());
    PoolingEngine::new(chip).with_sharding(sharding)
}

/// Run the workload.
pub fn run(args: &Args, r: &mut Report, tr: &mut Tracer) -> Traced {
    let p = Params::from_manifest();
    let ((deck, server), setup_s) = timed_setup(|| build(args.seed, &p));
    let jobs: Vec<Job> = deck
        .into_iter()
        .enumerate()
        .map(|(i, (op, cores, sharding))| {
            tr.set_op(i as u64);
            let golden = tr.span("tensor.reference", |_| pool::golden(&op));
            let spec = pool::job(&op, cores, sharding);
            Job {
                op,
                cores,
                sharding,
                spec,
                golden,
            }
        })
        .collect();
    let open_s = args.seconds * p.open_share;
    let mut ol = OpenLoop::new(&jobs, args.seed);
    let mut t = Traced::default();
    if !args.trace {
        // Saturation passes and open-loop slices alternate, so both phases
        // sample the host over the whole run rather than one stretch of it.
        let mut sat = Collector::new(&jobs);
        let mut order = Order::new(args.seed, 0, jobs.len());
        let (mut rates, mut instr_rates) = (Vec::new(), Vec::new());
        let sat_start = Instant::now();
        let mut sat_s = 0.0;
        for _ in 0..p.rounds {
            let pass = Instant::now();
            let (rate, instr_rate) = saturation_pass(&server, &mut sat, &mut order, p.window, r);
            sat_s += pass.elapsed().as_secs_f64();
            rates.push(rate);
            instr_rates.push(instr_rate);
            ol.slice(&server, p.rate_per_s, open_s / p.rounds as f64, r);
        }
        let run_s = sat_start.elapsed().as_secs_f64();
        let (ops_per_s, instr_per_s) = (stats::median(&rates), stats::median(&instr_rates));
        let sim_cycles: u64 = sat.cycles.iter().map(|c| c.unwrap_or(0)).sum();
        let covered = sat.cycles.iter().all(Option::is_some);
        r.check(covered, || {
            "the saturation phase did not run every job of the deck".into()
        });
        let ol_jobs = ol.finish(tr);
        // As in the closed loops, one latency sample is one deck job's
        // median over its runs, so a burst of host noise that hits a few
        // runs does not move the percentiles.
        let mut per_job = vec![Vec::new(); jobs.len()];
        for &(idx, lat, _) in &ol_jobs {
            per_job[idx].push(lat);
        }
        let lat: Vec<f64> = per_job
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| stats::median(l))
            .collect();
        let misses = ol_jobs
            .iter()
            .filter(|j| !j.2 || j.1 > p.latency_limit_ms)
            .count();
        r.note(format!(
            "serve-mix: {} deck jobs; {} rounds in {run_s:.1} s, each one saturation pass over the deck at {} outstanding ({sat_s:.1} s in all) and an open-loop slice ({open_s:.1} s in all) at {} jobs/s, limit {} ms",
            jobs.len(),
            p.rounds,
            p.window,
            p.rate_per_s,
            p.latency_limit_ms
        ));
        r.note(format!(
            "saturation pass rates, jobs/s: {}",
            rates
                .iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        r.note(format!(
            "slo_miss_ratio = {} ({misses} of {} open-loop jobs over {} ms); backlog_max = {}; utilisation at the offered rate = {:.2}",
            misses as f64 / ol_jobs.len().max(1) as f64,
            ol_jobs.len(),
            p.latency_limit_ms,
            ol.backlog_max,
            p.rate_per_s / ops_per_s
        ));
        EndToEnd {
            ops_per_s,
            sample: format!(
                "deck jobs, each the median of its {:.1} open-loop runs on average, timed from due times",
                ol_jobs.len() as f64 / lat.len().max(1) as f64
            ),
            lat_ms: lat,
            sim_instr_per_s: instr_per_s,
            sim_cycles,
            setup_s,
        }
        .report(r);
        return t;
    }
    // Traced: the open loop for the server's queueing figures, then every
    // deck job through `run_job` directly and through the replay.
    ol.slice(&server, p.rate_per_s, open_s, r);
    let ol_jobs = ol.finish(tr);
    t.gen_lag_ms = ol.gen_lag_ms;
    t.backlog_max = ol.backlog_max;
    let tensors: Vec<&[dv_fp16::F16]> = jobs
        .iter()
        .flat_map(|j| {
            [
                Some(j.op.input.data()),
                j.op.grads.as_ref().map(|g| g.data()),
            ]
        })
        .flatten()
        .collect();
    (t.narrow_ns, t.widen_ns) = fp16_costs(&tensors, tr);
    let mut service = vec![0.0; jobs.len()];
    for (i, job) in jobs.iter().enumerate() {
        tr.set_op((1 << 32) + i as u64);
        let (res, secs) = entry_pair(tr, &mut t, i % 2 == 0, |tr| {
            tr.span("serve.run_job", |_| run_job(0, &job.spec))
        });
        service[i] = secs * 1e3;
        let checked = res.map_err(|e| e.to_string()).and_then(|res| {
            let engine = tr.span("replay", |tr| {
                tr.span("serve.engine", |_| job_engine(job.cores, job.sharding))
            });
            let entry = PoolOut {
                out: res.output,
                mask: res.mask,
                run: ChipRun {
                    per_core: res.per_core,
                    core_cycles: Vec::new(),
                    cycles: res.cycles,
                    total: res.total,
                    traces: Vec::new(),
                    peaks: Default::default(),
                    lifetimes: Vec::new(),
                },
            };
            if !pool::matches(&entry, &job.golden) {
                return Err("output differs from the reference".into());
            }
            // `JobResult` omits per-core cycles and buffer peaks, so the
            // replay is checked against the engine entry point, which must
            // itself agree with `run_job`.
            let full = pool::entry(&engine, &job.op).map_err(|e| e.to_string())?;
            if full.out.data() != entry.out.data()
                || full.run.per_core != entry.run.per_core
                || full.run.total != entry.run.total
                || full.run.cycles != entry.run.cycles
            {
                return Err("run_job and the engine entry point disagree".into());
            }
            replay_and_check(&engine, &job.op, &full, tr, &mut t, true)?;
            t.sim.add(&full.run);
            t.declines += full.run.total.tuner_fallbacks;
            Ok(())
        });
        r.check(checked.is_ok(), || {
            format!(
                "job {i} ({}): {}",
                job.op.kind.label(),
                checked.unwrap_err()
            )
        });
        t.ops += 1;
    }
    t.service_ms = service.clone();
    let mut misses = 0;
    for &(idx, lat, ok) in &ol_jobs {
        t.wait_ms.push(lat - service[idx]);
        if !ok || lat > p.latency_limit_ms {
            misses += 1;
        }
    }
    t.slo_miss_ratio = misses as f64 / ol_jobs.len().max(1) as f64;
    t
}
