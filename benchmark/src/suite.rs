//! The whole suite: every workload untraced and traced, each in a fresh
//! child process, with the gates only a pair of runs can check.

use crate::catalog::{self, Better};
use crate::stats::{median, quartiles_exclusive};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// What one child printed: metric and count lines by name. Values stay
/// text so exact counts compare bit for bit.
#[derive(Default)]
struct ChildReport {
    values: BTreeMap<String, String>,
    ok: bool,
}

fn run_child(workload: &str, seed: u64, seconds: f64, quick: bool, trace: bool) -> ChildReport {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    let started = std::time::Instant::now();
    let Ok(out) = cmd.output() else {
        return ChildReport::default();
    };
    println!(
        "  # {workload} trace={} took {:.1} s",
        u8::from(trace),
        started.elapsed().as_secs_f64()
    );
    let mut report = ChildReport {
        ok: out.status.success(),
        ..Default::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        // The driver's result line repeats what the lines above say.
        if line.starts_with('{') {
            continue;
        }
        println!("  {line}");
        let mut words = line.split_whitespace();
        if let (Some("metric" | "count"), Some(name), Some(value)) =
            (words.next(), words.next(), words.next())
        {
            report.values.insert(name.to_string(), value.to_string());
        }
    }
    report
}

/// End-to-end values of one set, by workload then metric.
type SetValues = BTreeMap<&'static str, BTreeMap<&'static str, f64>>;

pub fn run(seed: u64, seconds: f64, quick: bool, sets: usize) -> ExitCode {
    let mut failed = false;
    let mut all_sets: Vec<SetValues> = Vec::new();
    let mut host: BTreeMap<String, String> = BTreeMap::new();
    for set in 1..=sets {
        let mut values = SetValues::new();
        for &(workload, why) in catalog::WORKLOADS {
            println!("== set {set}/{sets} {workload}: {why}");
            let untraced = run_child(workload, seed, seconds, quick, false);
            let traced = run_child(workload, seed, seconds, quick, true);
            failed |= !untraced.ok || !traced.ok;
            // Exact counts must not move between the two runs.
            for m in catalog::PER_LAYER.iter().filter(|m| m.exact) {
                if let (Some(a), Some(b)) = (untraced.values.get(m.name), traced.values.get(m.name))
                {
                    if a != b {
                        println!("gate exact.{} FAIL untraced={a} traced={b}", m.name);
                        failed = true;
                    }
                }
            }
            let row = values.entry(workload).or_default();
            for m in catalog::END_TO_END {
                if let Some(v) = untraced.values.get(m.name).and_then(|v| v.parse().ok()) {
                    row.insert(m.name, v);
                }
            }
            host = traced
                .values
                .into_iter()
                .filter(|(k, _)| k.starts_with("host."))
                .collect();
        }
        all_sets.push(values);
    }

    println!(
        "== end-to-end, seed {seed}, {seconds} s{}",
        if quick { ", quick" } else { "" }
    );
    for m in catalog::END_TO_END {
        for &(workload, _) in catalog::WORKLOADS {
            let per_set: Vec<f64> = all_sets
                .iter()
                .filter_map(|s| s.get(workload)?.get(m.name).copied())
                .collect();
            if per_set.is_empty() {
                continue;
            }
            let shown: Vec<String> = per_set.iter().map(|v| format!("{v:.4}")).collect();
            let mut line = format!(
                "{:<20} {:<17} {} {}",
                m.name,
                workload,
                shown.join(" "),
                m.unit
            );
            if m.unit == "ticks/s" {
                line.push_str(&format!(" (x{:.3} real time)", median(&per_set) / 1000.0));
            }
            if per_set.len() >= 2 {
                line.push_str(&agreement(&per_set, m.better, m.bound.expect("gated")));
            }
            println!("{line}");
        }
    }
    if failed {
        println!("== FAILED: a run exited non-zero or an exact count moved");
        return ExitCode::FAILURE;
    }
    if !quick {
        append_history(seed, seconds, &host, &all_sets);
    }
    ExitCode::SUCCESS
}

/// How far the sets agree, against the metric's own bound: the worst set
/// relative to the best for two or three sets, the quartile spread the
/// driver computes for four or more.
fn agreement(per_set: &[f64], better: Better, bound: f64) -> String {
    let mid = median(per_set);
    let spread = if per_set.len() >= 4 {
        let q = quartiles_exclusive(per_set);
        (q[2] - q[0]) / mid
    } else {
        let lo = per_set.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = per_set.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        match better {
            Better::Higher => (hi - lo) / hi,
            Better::Lower => (hi - lo) / lo,
        }
    };
    format!(
        "  median {mid:.4} spread {:.2}% of bound {:.0}%: {}",
        spread * 100.0,
        bound * 100.0,
        if spread <= bound {
            "PASS"
        } else {
            "UNRESOLVED"
        }
    )
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line per full run: commit, seed, host calibration, all medians.
fn append_history(seed: u64, seconds: f64, host: &BTreeMap<String, String>, sets: &[SetValues]) {
    let host: Vec<String> = host.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let workloads: Vec<String> = catalog::WORKLOADS
        .iter()
        .map(|&(workload, _)| {
            let metrics: Vec<String> = catalog::END_TO_END
                .iter()
                .filter_map(|m| {
                    let per_set: Vec<f64> = sets
                        .iter()
                        .filter_map(|s| s.get(workload)?.get(m.name).copied())
                        .collect();
                    (!per_set.is_empty()).then(|| format!("\"{}\": {}", m.name, median(&per_set)))
                })
                .collect();
            format!("\"{workload}\": {{{}}}", metrics.join(", "))
        })
        .collect();
    let line = format!(
        "{{\"commit\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"sets\": {}, \"host\": {{{}}}, \"medians\": {{{}}}}}\n",
        commit(),
        sets.len(),
        host.join(", "),
        workloads.join(", ")
    );
    let path = crate::results_dir().join("history.jsonl");
    let appended = std::fs::create_dir_all(crate::results_dir()).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(line.as_bytes())
    });
    match appended {
        Ok(()) => println!("== appended to {}", path.display()),
        Err(e) => eprintln!("cannot append to {}: {e}", path.display()),
    }
}
