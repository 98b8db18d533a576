//! Self-tests of the benchmark's own machinery.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_perfbench::bench::{Args, END_TO_END, PER_LAYER};
use dv_perfbench::json::{self, Json};
use dv_perfbench::pool::{self, Kind, PoolOp};
use dv_perfbench::report::Report;
use dv_perfbench::rng::Rng;
use dv_perfbench::serve_mix::{self, MANIFEST};
use dv_perfbench::spans::{self, Span, Tracer};
use dv_perfbench::stats::{self, samples_beyond, TAIL_SAMPLES};
use dv_perfbench::{gen, WORKLOADS};
use dv_sim::{Chip, CostModel, MemoryModel};
use dv_tensor::{Nc1hwc0, PoolParams};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn benchmark() -> Json {
    json::parse(BENCHMARK).expect("BENCHMARK.json parses")
}

#[test]
fn percentile_is_the_highest_with_ten_samples_beyond() {
    let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    // Enough samples: the requested percentile stands.
    for (n, q) in [(1000, 0.99), (100, 0.9), (20, 0.5)] {
        let t = stats::tail(&samples(n), q);
        assert_eq!((t.q, t.n), (q, n));
        assert!(samples_beyond(n, q) >= TAIL_SAMPLES);
    }
    // Too few for p90 / p99: the largest order statistic with exactly ten
    // samples above it.
    for (n, q) in [(54, 0.9), (54, 0.99), (500, 0.99), (130, 0.99)] {
        let t = stats::tail(&samples(n), q);
        assert!(t.q < q);
        assert_eq!(t.value, (n - 1 - TAIL_SAMPLES) as f64);
        assert_eq!(samples_beyond(n, t.q), TAIL_SAMPLES);
        let above = samples(n).iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, TAIL_SAMPLES);
    }
    // Never below the median.
    let t = stats::tail(&samples(12), 0.99);
    assert_eq!(t.q, 0.5);
    assert_eq!(t.value, 5.5);
    assert_eq!(stats::tail(&[], 0.9).n, 0);
}

#[test]
fn quantiles_interpolate_linearly() {
    let v = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(stats::quantile(&v, 0.0), 1.0);
    assert_eq!(stats::quantile(&v, 0.5), 2.5);
    assert_eq!(stats::quantile(&v, 1.0), 4.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_is_span_minus_covered_child_time() {
    let s = vec![
        span("op", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)), // overlaps `a`: covered once
        span("c", 60, 70, Some(0)),
        span("d", 62, 68, Some(3)), // a grandchild does not count for `op`
    ];
    assert_eq!(spans::self_times(&s), vec![50, 20, 30, 4, 6]);
    assert_eq!(spans::covered(0, 100, &[(90, 120), (95, 99)]), 10);
    let layers = spans::by_layer(&s);
    assert_eq!(layers["op"], (1, 50, 100));
}

#[test]
fn tracer_nests_spans_and_records_nothing_when_off() {
    let mut tr = Tracer::new(true);
    tr.set_op(7);
    let v = tr.span("outer", |tr| tr.span("inner", |_| 3));
    assert_eq!(v, 3);
    let s = tr.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
    assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
    assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    assert!(json::parse(&tr.to_json()).is_ok());
    let mut off = Tracer::new(false);
    off.span("x", |_| ());
    assert!(off.spans().is_empty());
}

/// Every operator kind on a small shape, on engines that take each
/// planning path: default, sharding on the L2 model (sub-plane halo
/// shards for the one-plane backward), and a single core.
#[test]
fn decomposed_replay_equals_the_engine_run() {
    let engines = [
        PoolingEngine::new(Chip::new(2, CostModel::ascend910_like())),
        PoolingEngine::new(
            Chip::new(8, CostModel::ascend910_like()).with_memory(MemoryModel::ascend910_l2()),
        )
        .with_sharding(true),
        PoolingEngine::new(Chip::new(1, CostModel::ascend910_like())).with_double_buffering(false),
    ];
    let kinds = [
        Kind::MaxFwd(ForwardImpl::Im2col),
        Kind::MaxFwd(ForwardImpl::Standard),
        Kind::MaxArgmax(ForwardImpl::Im2col),
        Kind::AvgFwd(ForwardImpl::Im2col),
        Kind::MaxBwd(MergeImpl::Col2Im),
        Kind::MaxBwd(MergeImpl::VAdd),
        Kind::AvgBwd(MergeImpl::Col2Im),
    ];
    let mut rng = Rng::new(3);
    let params = PoolParams::K3S2;
    let (h, w) = (17, 15);
    let (oh, ow) = params.out_dims(h, w).unwrap();
    let x = gen::feature_map(&mut rng, 1, 16, h, w);
    let mask = gen::one_hot_mask(&mut rng, 1, 1, &params, oh, ow);
    let grads = gen::gradients(&mut rng, 1, 1, oh, ow);
    let mut halos = 0;
    for engine in &engines {
        for kind in kinds {
            let op = PoolOp {
                kind,
                params,
                input: x.clone(),
                mask: Some(mask.clone()),
                grads: Some(grads.clone()),
            };
            let entry = pool::entry(engine, &op).unwrap();
            assert!(pool::matches(&entry, &pool::golden(&op)), "{kind:?}");
            let mut tr = Tracer::new(true);
            let (replayed, lowered) = pool::replay(engine, &op, &mut tr).unwrap();
            assert!(
                pool::same_out(&replayed, &entry),
                "{kind:?} on {} cores",
                engine.chip.cores
            );
            let active = pool::core_replay(
                &engine.chip,
                &lowered.programs,
                &lowered.image,
                &entry.run,
                &mut tr,
            )
            .unwrap();
            assert_eq!(active, entry.run.per_core.len());
            halos += lowered
                .decls
                .iter()
                .flatten()
                .map(|d| d.halos.len())
                .sum::<usize>();
            let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
            for layer in [
                "core.engine",
                "core.plan",
                "core.lower",
                "sim.chip_run",
                "sim.core_exec",
            ] {
                assert!(names.contains(&layer), "{layer} missing for {kind:?}");
            }
        }
    }
    assert!(halos > 0, "the sharding engine took no halo-merge path");
}

#[test]
fn benchmark_json_names_are_well_formed_and_match_the_code() {
    let b = benchmark();
    let well_formed = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let names = |key: &str| -> Vec<(String, String)> {
        b.at(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.at("name").str().to_string(),
                    m.at("unit").str().to_string(),
                )
            })
            .collect()
    };
    let e2e = names("end_to_end");
    let layers = names("per_layer");
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(well_formed(name), "metric name {name:?}");
    }
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(e2e, want(&END_TO_END));
    assert_eq!(layers, want(&PER_LAYER));
    let workloads: Vec<&str> = b
        .at("workloads")
        .arr()
        .iter()
        .map(|w| w.at("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = b
        .at("end_to_end")
        .arr()
        .iter()
        .find(|m| m.at("name").str() == "setup_s")
        .unwrap();
    let largest = b
        .at("end_to_end")
        .arr()
        .iter()
        .map(|m| m.at("bound").num())
        .fold(0.0, f64::max);
    assert_eq!(setup.at("bound").num(), largest);
}

#[test]
fn manifest_covers_every_workload_and_layer_metric() {
    let m = json::parse(MANIFEST).expect("manifest.json parses");
    for w in WORKLOADS {
        let entry = m.at("workloads").at(w);
        assert!(!entry.at("why").str().is_empty(), "{w}");
        assert!(!entry.at("stresses").arr().is_empty(), "{w}");
    }
    let mapped: Vec<&str> = m
        .at("layer_map")
        .arr()
        .iter()
        .map(|e| e.at("metric").str())
        .collect();
    for (name, _) in PER_LAYER {
        let bookkeeping = matches!(name, "trace.spans" | "trace.ops");
        assert!(
            bookkeeping || mapped.contains(&name),
            "{name} has no entry in the layer map"
        );
    }
}

#[test]
fn serve_deck_is_seeded_and_balanced() {
    let p = serve_mix::Params::from_manifest();
    let a = serve_mix::deck(5, &p);
    let b = serve_mix::deck(5, &p);
    let c = serve_mix::deck(6, &p);
    let key = |d: &[(PoolOp, usize, bool)]| -> Vec<(String, usize, usize, bool)> {
        d.iter()
            .map(|(op, cores, shard)| (op.kind.label(), op.input.h, *cores, *shard))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
    assert_eq!(a[0].0.input.data(), b[0].0.input.data());
    assert_ne!(key(&a), key(&c));
    // Same composition whatever the seed: only sides inside their bands,
    // pairings, data and order change.
    let profile = |d: &[(PoolOp, usize, bool)]| {
        let wide = d.iter().filter(|j| j.1 == 32).count();
        let sharded = d.iter().filter(|j| j.2).count();
        let vadd = d
            .iter()
            .filter(|j| j.0.kind == Kind::MaxBwd(MergeImpl::VAdd))
            .count();
        (d.len(), wide, sharded, vadd)
    };
    assert_eq!(profile(&a), profile(&c));
    // The cores and sharding columns are dealt per stratum, so every
    // operator meets each chip equally often whatever the seed.
    let per_op = |d: &[(PoolOp, usize, bool)]| {
        let mut cores: Vec<(String, usize)> =
            d.iter().map(|(op, c, _)| (op.kind.label(), *c)).collect();
        let mut sharded: Vec<(String, bool)> =
            d.iter().map(|(op, _, s)| (op.kind.label(), *s)).collect();
        cores.sort();
        sharded.sort();
        (cores, sharded)
    };
    assert_eq!(per_op(&a), per_op(&c));
    for (op, _, _) in &a {
        assert!((8..=40).contains(&op.input.h) && op.input.h == op.input.w);
        assert!(!pool::golden(op).0.is_empty());
    }
}

#[test]
fn arguments_parse_and_reject_nonsense() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv("--workload fig7 --seed 9 --seconds 2.5 --trace 1")).unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("fig7", 9, 2.5, true)
    );
    for bad in [
        "--seed 1",
        "--workload x --trace 2",
        "--workload x --seconds 0",
        "--workload x --bogus 1",
        "--workload",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn result_line_is_valid_json_with_the_contract_keys() {
    let mut r = Report::default();
    r.metric("ops_per_s", 1.5, "1/s");
    r.check(true, || unreachable!());
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\"ops_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        r.metrics[0].value
    );
    let v = json::parse(&line).unwrap();
    let keys: Vec<&str> = v.obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    r.check(false, || "boom".into());
    assert!(!r.correct());
    assert_eq!((r.attempted, r.failed), (2, 1));
}

#[test]
fn generators_are_deterministic_per_seed() {
    let gen_map = |seed| gen::feature_map(&mut Rng::new(seed), 1, 16, 5, 5);
    assert_eq!(gen_map(1), gen_map(1));
    assert_ne!(gen_map(1).data(), gen_map(2).data());
    let mask = gen::one_hot_mask(&mut Rng::new(4), 1, 1, &PoolParams::K3S2, 3, 3);
    // One tap per output position and channel.
    let ones = mask.data().iter().filter(|v| v.to_f32() == 1.0).count();
    assert_eq!(ones, 3 * 3 * 16);
    let g: Nc1hwc0 = gen::gradients(&mut Rng::new(4), 1, 1, 3, 3);
    assert!(g
        .data()
        .iter()
        .all(|v| v.to_f32().fract() == 0.0 && v.to_f32() < 8.0));
}
