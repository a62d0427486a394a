//! `stackbench`: one end-to-end and per-layer benchmark for the kernel,
//! the three engines, sharding and serving.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions and through public hooks; nothing under `crates/` knows it
//! is being measured. Two ways to run it:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//!   one workload in this process and ends with the driver's result
//!   line (`BENCHMARK.json` at the repository root is its contract);
//! * without `--workload` it runs the whole suite, each workload
//!   untraced and traced in fresh child processes, compares the exact
//!   counts of the two runs, and appends the medians to
//!   `results/history.jsonl`. `--sets N` repeats the suite and reports
//!   how far the sets agree; `--quick` shrinks boards and windows for a
//!   smoke run whose numbers compare with nothing.
//!
//! See `README.md` beside this package for the metric glossary.

mod boards;
mod catalog;
#[cfg(test)]
mod contract;
mod engines;
mod expo;
mod host;
mod report;
mod serving;
mod stats;
mod suite;
mod trace;
mod workloads;

use report::{Ctx, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: what the window constants were
/// sized for.
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 1.0;

/// Trace files and the history live beside the package, wherever the
/// command was started from.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: stackbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--sets N]\n\
         workloads: {}",
        catalog::WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        sets: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")),
            "--seed" => a.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value("--seconds").parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                a.seconds = Some(s);
            }
            "--sets" => a.sets = value("--sets").parse().unwrap_or_else(|_| usage()),
            "--quick" => a.quick = true,
            // The driver passes `--trace 0|1`; by hand it is a flag.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    a
}

/// Run one workload here and print the driver's result line.
fn run_workload(args: RunArgs) -> ExitCode {
    if !catalog::WORKLOADS.iter().any(|w| w.0 == args.workload) {
        eprintln!("no workload named {}", args.workload);
        usage();
    }
    println!(
        "# stackbench workload={} seed={} seconds={} trace={} quick={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        host::nproc()
    );
    let mut ctx = Ctx::new(args);
    let root = ctx.tracer.begin(&ctx.args.workload.clone());
    workloads::run(&mut ctx);
    ctx.tracer.end(root, &[]);

    if ctx.args.trace {
        // The noise floor, taken in the same process as the numbers.
        let (p50, p99) = host::sleep_oversleep_us(if ctx.args.quick { 50 } else { 1000 });
        ctx.set("host.nproc", ctx.nproc as f64);
        ctx.set("host.sleep_1ms_oversleep_p50_us", p50);
        ctx.set("host.sleep_1ms_oversleep_p99_us", p99);
        ctx.set("host.spin_calib_ms", host::spin_calib_ms());
    }

    if ctx.args.trace {
        let spans = ctx.tracer.spans();
        let by_name = trace::self_times(&spans);
        // A span's self time is its duration minus its children's, so
        // over a well-nested tree self times sum to the root's duration.
        let self_ns: u64 = by_name.values().map(|t| t.self_ns).sum();
        ctx.check(
            "trace.self_times_sum_to_the_run",
            self_ns == spans[0].duration_ns(),
        );
        let mut names: Vec<_> = by_name.iter().collect();
        names.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in names.iter().take(12) {
            println!(
                "# self time {name}: {:.3} ms over {} spans ({:.3} ms with children)",
                t.self_ns as f64 / 1e6,
                t.count,
                t.total_ns as f64 / 1e6
            );
        }
        let dir = results_dir();
        let path = dir.join(format!("trace_{}.json", ctx.args.workload));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_json(&ctx.args.workload)));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(result) = ctx.result_json() else {
        eprintln!("{} did not get far enough to report", ctx.args.workload);
        return ExitCode::FAILURE;
    };
    println!("{result}");
    if ctx.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    match args.workload {
        Some(workload) => run_workload(RunArgs {
            workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            quick: args.quick,
        }),
        None => suite::run(args.seed, seconds, args.quick, args.sets.max(1)),
    }
}
