//! Metric collection, checking, and the result line.

use crate::spans::{self, Span};
use crate::stats::{self, Tail};
use dv_isa::BufferId;
use dv_sim::{ChipRun, HwCounters, Unit};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports: metrics, notes, and the output checks.
#[derive(Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that errored or mismatched.
    pub failed: u64,
    /// What went wrong (first few).
    pub problems: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a percentile metric and a note with its sample count; `sample`
    /// says what one sample is.
    pub fn tail(&mut self, name: &str, samples_ms: &[f64], q: f64, sample: &str) {
        let t: Tail = stats::tail(samples_ms, q);
        self.note(format!(
            "{name}: p{:.1} of n={} {sample} ({} beyond)",
            t.q * 100.0,
            t.n,
            if t.n > 0 {
                stats::samples_beyond(t.n, t.q)
            } else {
                0
            }
        ));
        self.metric(name, t.value, "ms");
    }

    /// Add a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print the notes, each metric by name and unit, and the result
    /// object as the last line of standard output.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# FAILED: {p}");
        }
        println!(
            "# fail_ratio = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Remembers each operation's simulated statistics from its first run and
/// checks that every later run repeats them exactly.
#[derive(Default)]
pub struct Ledger {
    first: BTreeMap<usize, (u64, HwCounters)>,
}

impl Ledger {
    /// Record a run of operation `key`; false if its cycles or counters
    /// differ from the first run of `key`.
    pub fn same_as_first(&mut self, key: usize, cycles: u64, total: &HwCounters) -> bool {
        let seen = self
            .first
            .entry(key)
            .or_insert_with(|| (cycles, total.clone()));
        seen.0 == cycles && seen.1 == *total
    }
}

/// Simulated statistics summed over one pass of a workload's operations.
#[derive(Default, Clone)]
pub struct SimTotals {
    /// Summed counters.
    pub total: HwCounters,
    /// Summed chip cycles.
    pub cycles: u64,
    /// Highest UB occupancy of any run.
    pub peak_ub: usize,
    /// Highest L1 occupancy of any run.
    pub peak_l1: usize,
}

impl SimTotals {
    /// Add one chip run.
    pub fn add(&mut self, run: &ChipRun) {
        self.total.merge(&run.total);
        self.cycles += run.cycles;
        self.peak_ub = self.peak_ub.max(run.peaks.of(BufferId::Ub));
        self.peak_l1 = self.peak_l1.max(run.peaks.of(BufferId::L1));
    }

    /// Report the simulated per-layer counts.
    pub fn report(&self, r: &mut Report) {
        let t = &self.total;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.metric("sim.issues", t.total_issues() as f64, "count");
        r.metric("sim.issues.im2col", t.issues_of("im2col") as f64, "count");
        r.metric("sim.issues.col2im", t.issues_of("col2im") as f64, "count");
        for (name, unit) in [
            ("sim.unit_cycles.vector", Unit::Vector),
            ("sim.unit_cycles.scu", Unit::Scu),
            ("sim.unit_cycles.mte", Unit::Mte),
            ("sim.unit_cycles.cube", Unit::Cube),
        ] {
            r.metric(name, t.cycles_of(unit) as f64, "cycles");
        }
        r.metric("sim.vector_lane_util", t.vector_utilization(), "ratio");
        r.metric("sim.stall_cycles", t.stall_cycles as f64, "cycles");
        r.metric("sim.pipe_stalls.mte", t.pipe_stalls[0] as f64, "cycles");
        r.metric("sim.pipe_stalls.vec", t.pipe_stalls[1] as f64, "cycles");
        r.metric(
            "sim.rename_ratio",
            ratio(t.renames, t.renames + t.rename_denied),
            "ratio",
        );
        r.metric("sim.gm_bytes", t.gm_bytes as f64, "B");
        r.metric("sim.scratch_bytes", t.scratch_bytes as f64, "B");
        r.metric(
            "sim.contention_stalls",
            t.contention_stalls as f64,
            "cycles",
        );
        r.metric("sim.l2_hits", t.l2_hits as f64, "count");
        r.metric("sim.l2_miss_stalls", t.l2_miss_stalls as f64, "cycles");
        r.metric("sim.peak_ub_bytes", self.peak_ub as f64, "B");
        r.metric("sim.peak_l1_bytes", self.peak_l1 as f64, "B");
    }
}

/// Host-side layer times derived from a traced run's spans.
pub struct LayerTimes {
    by: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl LayerTimes {
    /// Aggregate `spans` per layer name.
    pub fn new(spans: &[Span]) -> LayerTimes {
        LayerTimes {
            by: spans::by_layer(spans),
        }
    }

    /// Calls of layer `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by.get(name).map_or(0, |e| e.0)
    }

    /// Total self time of `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by.get(name).map_or(0.0, |e| e.1 as f64 / 1e6)
    }

    /// Total duration of `name`'s spans, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by.get(name).map_or(0.0, |e| e.2 as f64 / 1e6)
    }

    /// Mean self time per call of `name`, in ms (0 when never called).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        self.self_ms(name) / self.calls(name).max(1) as f64
    }

    /// Mean duration per call of `name`, in ms (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.total_ms(name) / self.calls(name).max(1) as f64
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
