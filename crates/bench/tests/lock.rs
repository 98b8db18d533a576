//! The behaviour lock: every engine dispatch branch must reproduce the
//! committed `crates/bench/baselines/lock.json` byte for byte — output
//! hashes, cycles, per-core cycles and every hardware counter. The lock
//! tolerates no drift; regenerate it with `repro -- lock` only for an
//! intentional behaviour change.

use dv_bench::gate::parse;
use dv_bench::lock::{cases, render_lock, COMMITTED_LOCK};
use dv_core::{Decline, OpKind, PartitionAxis};
use dv_sim::{IssueModel, MemoryModel};
use std::collections::BTreeSet;

#[test]
fn engine_behaviour_matches_the_committed_lock() {
    let fresh = render_lock();
    if fresh == COMMITTED_LOCK {
        return;
    }
    let now = parse(&fresh).expect("fresh lock parses");
    let old = parse(COMMITTED_LOCK).expect("committed lock parses");
    let (now, old) = (now.rows("lock"), old.rows("lock"));
    for (i, want) in old.iter().enumerate() {
        let Some(got) = now.get(i) else {
            panic!("lock row {} ({}) is no longer produced", i, want.key);
        };
        if got != want {
            let diffs: Vec<String> = want
                .fields
                .iter()
                .filter(|(name, v)| got.get(name) != Some(v))
                .map(|(name, v)| match got.get(name) {
                    Some(now) => format!("{name}: {v} -> {now}"),
                    None => format!("{name}: {v} -> absent"),
                })
                .chain(
                    got.fields
                        .iter()
                        .filter(|(name, _)| want.get(name).is_none())
                        .map(|(name, v)| format!("{name}: new field = {v}")),
                )
                .collect();
            panic!(
                "lock row {} differs: committed {} vs now {}: {}",
                i,
                want.key,
                got.key,
                diffs.join("; ")
            );
        }
    }
    panic!(
        "lock rows match but the rendering differs ({} rows now, {} committed)",
        now.len(),
        old.len()
    );
}

/// Every decision `PoolingEngine::plan` can take that some input reaches.
/// Two fallbacks are kept in the engine but no known input reaches them:
/// the sharded-backward decline ([`Decline::Shard`]: the partitioner only
/// prices geometries the sharded lowering accepts) and the tuner
/// fallback ([`Decline::Candidate`]: the tuner only ranks candidates its
/// estimators could plan).
const BRANCHES: [&str; 17] = [
    "tuned forward",
    "tuned backward",
    "shard forward, independent memory",
    "shard forward, L2 memory",
    "shard backward, independent memory",
    "shard backward, L2 memory",
    "shard with band split",
    "fold kept",
    "backward fold",
    "fold rejected by issue count",
    "fold failed to plan",
    "band split",
    "per-plane",
    "double buffering off",
    "rotation pinned on a single-issue chip",
    "rotation pinned off",
    "relu",
];

#[test]
fn lock_rows_cover_every_dispatch_branch() {
    use PartitionAxis::{PerC1, PerPlane, PerRowBand};
    let mut hit = BTreeSet::new();
    for case in cases() {
        let eng = &case.engine;
        let (Some(kind), Some(prob)) = (case.kind(), case.problem()) else {
            hit.insert("relu");
            continue;
        };
        let plan = eng
            .plan(kind, &prob)
            .unwrap_or_else(|e| panic!("{}: {e}", case.key));
        let backward = matches!(kind, OpKind::MaxBackward(_) | OpKind::AvgBackward(_));
        let l2 = matches!(eng.chip.memory, MemoryModel::SharedBandwidthL2 { .. });
        let split = plan.axis == PerRowBand && plan.shards > 1;
        let mut row = Vec::new();
        match (plan.algorithm.is_some(), backward) {
            (true, false) => row.push("tuned forward"),
            (true, true) => row.push("tuned backward"),
            _ => {}
        }
        if eng.shard && !eng.auto_tune && split {
            row.push(match (backward, l2) {
                (false, false) => "shard forward, independent memory",
                (false, true) => "shard forward, L2 memory",
                (true, false) => "shard backward, independent memory",
                (true, true) => "shard backward, L2 memory",
            });
            if eng.split_bands {
                row.push("shard with band split");
            }
        }
        if !eng.auto_tune && plan.axis == PerC1 {
            row.push(if backward {
                "backward fold"
            } else {
                "fold kept"
            });
        }
        for decline in &plan.declines {
            row.push(match decline {
                Decline::FoldIssues { .. } => "fold rejected by issue count",
                Decline::FoldFailed(_) => "fold failed to plan",
                other => panic!("{}: unexpected decline {other:?}", case.key),
            });
        }
        if !eng.shard && eng.split_bands && !backward && split {
            row.push("band split");
        }
        if plan.axis == PerPlane && plan.declines.is_empty() && plan.algorithm.is_none() {
            row.push("per-plane");
        }
        if !eng.double_buffer {
            row.push("double buffering off");
        }
        match (eng.rotation_planning, eng.chip.cost.issue_model) {
            (Some(true), IssueModel::SingleIssue) => {
                row.push("rotation pinned on a single-issue chip")
            }
            (Some(false), _) => row.push("rotation pinned off"),
            _ => {}
        }
        assert!(!row.is_empty(), "{}: reaches no named branch", case.key);
        hit.extend(row);
    }
    for branch in BRANCHES {
        assert!(hit.contains(branch), "no lock row reaches: {branch}");
    }
}
