//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints every metric by name and unit, then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced variant and reports
//! the per-layer metrics, writing its spans to
//! `.perfbench/spans-<workload>-<seed>.json`. Exits 1 on any output
//! mismatch, 2 on bad arguments.

use dv_perfbench::bench::Args;
use dv_perfbench::report::Report;
use dv_perfbench::spans::Tracer;
use dv_perfbench::{fig7, model_seg, serve_mix, table1, WORKLOADS};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!("unknown workload {}; one of {WORKLOADS:?}", a.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut r = Report::default();
    let mut tr = Tracer::new(args.trace);
    let traced = match args.workload.as_str() {
        "fig7" => fig7::run(&args, &mut r, &mut tr),
        "table1-train" => table1::run(&args, &mut r, &mut tr),
        "serve-mix" => serve_mix::run(&args, &mut r, &mut tr),
        _ => model_seg::run(&args, &mut r, &mut tr),
    };
    r.note(format!(
        "workload {} seed {} seconds {} trace {}; host threads available: {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    if args.trace {
        traced.report(&mut r, tr.spans());
        let path = format!(".perfbench/spans-{}-{}.json", args.workload, args.seed);
        let written =
            std::fs::create_dir_all(".perfbench").and_then(|_| std::fs::write(&path, tr.to_json()));
        match written {
            Ok(()) => r.note(format!("{} spans written to {path}", tr.spans().len())),
            Err(e) => r.note(format!("spans not written to {path}: {e}")),
        }
    }
    r.print();
    if !r.correct() {
        std::process::exit(1);
    }
}
