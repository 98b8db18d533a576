//! `repro` — regenerate the paper's tables and figures on the simulator.
//!
//! ```sh
//! cargo run --release -p dv-bench --bin repro -- all
//! cargo run --release -p dv-bench --bin repro -- fig7a fig8b
//! ```
//!
//! Each experiment prints a paper-style table and writes
//! `results/<name>.csv`. `repro -- gate` refreshes the perf-gate
//! baselines; `repro -- lock` rewrites the behaviour lock
//! (`crates/bench/baselines/lock.json`) — only for an intentional
//! behaviour change, never to make a failing test pass.

use dv_bench::experiments;
use dv_bench::Table;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    // Prefer the workspace root (where Cargo.toml with [workspace] lives).
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

fn run_one(name: &str) -> Option<(String, Table)> {
    let table = match name {
        "fig7a" => experiments::fig7a(),
        "fig7b" => experiments::fig7b(),
        "fig7c" => experiments::fig7c(),
        "fig8a" => experiments::fig8(1),
        "fig8b" => experiments::fig8(2),
        "fig8c" => experiments::fig8(3),
        "table1" => experiments::table1(),
        "ablate" => experiments::ablate(),
        "avgpool" => experiments::avgpool(),
        "conv" => experiments::conv_substrate(),
        "scaling" => experiments::scaling(),
        "dgrad" => experiments::dgrad(),
        "cubeavg" => experiments::cubeavg(),
        "breakdown" => experiments::breakdown(),
        "kernels" => experiments::kernels(),
        "fusion" => experiments::fusion(),
        "threshold" => experiments::threshold(),
        _ => return None,
    };
    Some((name.to_string(), table))
}

const ALL: [&str; 17] = [
    "fig7a",
    "fig7b",
    "fig7c",
    "fig8a",
    "fig8b",
    "fig8c",
    "table1",
    "ablate",
    "avgpool",
    "conv",
    "scaling",
    "dgrad",
    "cubeavg",
    "breakdown",
    "kernels",
    "fusion",
    "threshold",
];

/// `repro -- gate`: replay the tracked workloads, refresh the committed
/// baseline and the workspace-root `BENCH_pooling.json`, and report any
/// drift against the previous baseline (informational here — the
/// *enforcing* comparison is the `perf_gate` test).
fn run_gate() {
    use dv_bench::gate::{self, compare, parse, render, Doc};
    use dv_bench::host;
    let root = results_dir()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let publish = |bench: &str, doc: String, baseline: &str, now: &Doc, old: Option<Doc>| {
        let path = root.join(bench);
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {bench}: {e}"));
        println!("wrote {}", path.display());
        let path = root.join("crates/bench/baselines").join(baseline);
        std::fs::write(&path, render(now)).expect("write committed baseline");
        println!("refreshed {}", path.display());
        for r in old.map(|old| compare(now, &old)).unwrap_or_default() {
            println!("note: vs previous baseline: {r}");
        }
    };
    let current = gate::collect_all();
    let old = parse(gate::COMMITTED_BASELINE).ok();
    let bench = match &old {
        Some(old) => gate::with_vs_baseline(current.clone(), old),
        None => current.clone(),
    };
    publish(
        "BENCH_pooling.json",
        render(&bench),
        "pooling.json",
        &current,
        old,
    );

    // Host-throughput companion: measure, refresh `BENCH_host.json` and
    // the committed host baseline, and report drift informationally.
    let now = host::host_doc(host::collect_host());
    let old = parse(host::COMMITTED_HOST_BASELINE).ok();
    publish("BENCH_host.json", render(&now), "host.json", &now, old);
}

/// `repro -- lock`: rerun every behaviour-lock case and rewrite the
/// committed lock.
fn run_lock() {
    let root = results_dir()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let path = root.join("crates/bench/baselines/lock.json");
    std::fs::write(&path, dv_bench::lock::render_lock()).expect("write lock.json");
    println!("rewrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let commands = ["gate", "lock"];
    if args.iter().any(|a| a == "gate") {
        run_gate();
    }
    if args.iter().any(|a| a == "lock") {
        run_lock();
    }
    if !args.is_empty() && args.iter().all(|a| commands.contains(&a.as_str())) {
        return;
    }
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter()
            .filter(|s| !commands.contains(&s.as_str()))
            .map(|s| s.as_str())
            .collect()
    };

    let dir = results_dir();
    let mut unknown = Vec::new();
    for name in wanted {
        match run_one(name) {
            Some((name, table)) => {
                println!("{}", table.render());
                if name.starts_with("fig8") {
                    println!("{}", dv_bench::plot::plot_table(&table, "H=W", "cycles"));
                }
                if let Err(e) = table.write_csv(&dir, &name) {
                    eprintln!("warning: could not write {name}.csv: {e}");
                } else {
                    println!("   -> {}\n", dir.join(format!("{name}.csv")).display());
                }
            }
            None => unknown.push(name),
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {} — available: {}, gate, lock",
            unknown.join(", "),
            ALL.join(", ")
        );
        std::process::exit(2);
    }
}
