//! What one workload run collects: metric values, exact counts, the
//! correctness tally, and the lines it prints.

use crate::catalog::{self, Metric};
use crate::stats::BlockRate;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The arguments of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Scales every fixed tick count; windows total about this many
    /// seconds on the host the constants were sized on.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Ctx {
    pub args: RunArgs,
    pub nproc: usize,
    pub tracer: Arc<Tracer>,
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx {
    pub fn new(args: RunArgs) -> Ctx {
        let tracer = Arc::new(Tracer::new(args.trace));
        Ctx {
            args,
            nproc: crate::host::nproc(),
            tracer,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// `per_second * seconds` blocks, never fewer than `at_least`.
    pub fn blocks(&self, per_second: f64, at_least: usize) -> usize {
        ((per_second * self.args.seconds).round() as usize).max(at_least)
    }

    /// How often a set-up step is repeated for its median: `full` times,
    /// once in a quick run.
    pub fn repeats(&self, full: usize) -> usize {
        if self.args.quick {
            1
        } else {
            full
        }
    }

    fn def(name: &str) -> &'static Metric {
        catalog::find(name).unwrap_or_else(|| panic!("{name} is not in the catalog"))
    }

    /// Record a metric and print it. Exact counts print as `count`
    /// lines in every mode, so a traced and an untraced run of one seed
    /// can be compared; everything else prints as `metric`.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = Self::def(name);
        assert!(value.is_finite(), "{name} is not a number: {value}");
        let kind = if m.exact { "count" } else { "metric" };
        println!("{kind} {} {} {}", m.name, value, m.unit);
        self.values.insert(m.name, value);
    }

    /// Record a gated rate and print it with what the gate does not
    /// read: real-time factor, median, slow quartile, mean, block count.
    pub fn set_rate(&mut self, name: &str, r: &BlockRate) {
        let m = Self::def(name);
        println!(
            "metric {} {} {} rtf={:.4} median={:.3} slow_quartile={:.3} mean={:.3} blocks={} block_ticks={}",
            m.name,
            r.fast,
            m.unit,
            r.fast / 1000.0,
            r.median,
            r.slow,
            r.mean,
            r.blocks,
            r.block_ticks
        );
        self.values.insert(m.name, r.fast);
    }

    /// The resident-set peak so far. A workload reads it once its
    /// measured path has ended and before it repeats set-up steps for
    /// their median, so the repeats cannot move it.
    pub fn set_peak_rss(&mut self) {
        self.set("peak_rss_mb", crate::host::peak_rss_mb());
    }

    /// One correctness gate: counted as attempted, and as failed when
    /// `ok` is false.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        println!("gate {what} {}", if ok { "ok" } else { "FAIL" });
    }

    /// One request of many of its kind: counted like [`Ctx::check`], but
    /// printed only when it fails.
    pub fn request(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("gate {what} FAIL");
        }
    }

    /// `n` operations of one kind (requests, expected frames), `bad` of
    /// which failed.
    pub fn tally(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        println!("gate {what} {n} attempted {bad} failed");
    }

    /// The driver's result line: every end-to-end metric untraced, every
    /// per-layer metric traced. `None` if an end-to-end metric is
    /// missing, which only happens when the workload gave up early.
    pub fn result_json(&self) -> Option<String> {
        let list = if self.args.trace {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        };
        let mut metrics = Vec::with_capacity(list.len());
        for m in list {
            let v = match self.values.get(m.name) {
                Some(&v) => v,
                // A layer the workload does not exercise did no work.
                None if self.args.trace => 0.0,
                None => return None,
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Some(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
