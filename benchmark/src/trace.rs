//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, plus a [`TickObserver`] that turns the engines' public
//! per-tick hooks into tick and phase spans.
//!
//! Spans stay in memory and are written out once, at exit. A layer's
//! self time is its span's duration minus what its direct children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tn_obs::{TickObserver, TickPhase, TickSummary};

/// Id of the span a root span names as its parent.
pub const NO_PARENT: u32 = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based; [`NO_PARENT`] never names a span.
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, counted where the work happens.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<u32>,
}

/// The span store. With tracing off every call is a no-op that returns
/// [`NO_PARENT`], so untraced runs pay one branch per layer call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a span recorder panicked")
    }

    /// Open a span under the innermost open one.
    pub fn begin(&self, name: &str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        let mut g = self.lock();
        let id = g.spans.len() as u32 + 1;
        let parent = g.stack.last().copied().unwrap_or(NO_PARENT);
        g.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        g.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&self, id: u32, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let mut g = self.lock();
        let top = g.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut g.spans[id as usize - 1];
        span.end_ns = now;
        span.counts.extend_from_slice(counts);
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id, &[]);
        r
    }

    /// The innermost open span (the parent an observer hangs ticks on).
    pub fn current(&self) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.lock().stack.last().copied().unwrap_or(NO_PARENT)
    }

    fn set_end(&self, id: u32, end_ns: u64) {
        self.lock().spans[id as usize - 1].end_ns = end_ns;
    }

    /// Record a finished span under an explicit parent.
    pub fn record(&self, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let mut g = self.lock();
        let id = g.spans.len() as u32 + 1;
        g.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The whole store as one JSON array, one span per line.
    pub fn to_json(&self, workload: &str) -> String {
        let g = self.lock();
        let mut out = String::with_capacity(g.spans.len() * 128 + 4);
        out.push_str("[\n");
        for (i, s) in g.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, workload, s.start_ns, s.end_ns
            );
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (k, (key, v)) in s.counts.iter().enumerate() {
                    let _ = write!(out, "{}\"{key}\":{v}", if k > 0 { "," } else { "" });
                }
                out.push('}');
            }
            out.push_str(if i + 1 < g.spans.len() { "},\n" } else { "}\n" });
        }
        out.push_str("]\n");
        out
    }
}

/// Per span name: how many spans, their summed duration, and their
/// summed self time (duration minus the part direct children cover).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    // Children never outlive their parent here, but clip anyway so a
    // late `end` cannot drive a self time negative.
    let mut covered = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize - 1];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered[s.id as usize]);
    }
    out
}

const PHASES: [TickPhase; 5] = [
    TickPhase::Faults,
    TickPhase::Input,
    TickPhase::Neurons,
    TickPhase::Routing,
    TickPhase::Merge,
];

fn phase_index(p: TickPhase) -> usize {
    PHASES
        .iter()
        .position(|&q| q == p)
        .expect("every TickPhase is listed")
}

/// Time one engine spent per phase, summed over every observed tick.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    pub ticks: u64,
    /// Tick spans, start hook to end hook.
    pub tick_ns: u64,
    /// Indexed like [`PHASES`]: faults, input, neurons, routing, merge.
    pub phase_ns: [u64; 5],
}

impl PhaseTotals {
    pub fn phase(&self, p: TickPhase) -> u64 {
        self.phase_ns[phase_index(p)]
    }

    /// Share of the summed tick time spent in `p`.
    pub fn share(&self, p: TickPhase) -> f64 {
        if self.tick_ns == 0 {
            return 0.0;
        }
        self.phase(p) as f64 / self.tick_ns as f64
    }
}

struct ObserverState {
    totals: PhaseTotals,
    tick_start_ns: u64,
    tick_span: u32,
    open_phase: Option<(TickPhase, u64)>,
    /// Ticks still recorded as individual spans; totals cover all.
    spans_left: u64,
}

/// The benchmark-owned [`TickObserver`]: totals for every tick, and
/// tick/phase spans for the first [`PhaseObserver::SPAN_TICKS`] ticks
/// so a long window on a small board does not write a span file of
/// hundreds of megabytes.
pub struct PhaseObserver {
    tracer: Arc<Tracer>,
    engine: &'static str,
    state: Mutex<ObserverState>,
}

impl PhaseObserver {
    pub const SPAN_TICKS: u64 = 512;

    pub fn new(tracer: Arc<Tracer>, engine: &'static str) -> Arc<PhaseObserver> {
        Arc::new(PhaseObserver {
            tracer,
            engine,
            state: Mutex::new(ObserverState {
                totals: PhaseTotals::default(),
                tick_start_ns: 0,
                tick_span: NO_PARENT,
                open_phase: None,
                spans_left: Self::SPAN_TICKS,
            }),
        })
    }

    pub fn totals(&self) -> PhaseTotals {
        self.state.lock().expect("observer panicked").totals
    }

    fn close_phase(&self, st: &mut ObserverState, now: u64) {
        if let Some((phase, start)) = st.open_phase.take() {
            st.totals.phase_ns[phase_index(phase)] += now - start;
            if st.tick_span != NO_PARENT {
                let name = format!("{}.{phase}", self.engine);
                self.tracer.record(st.tick_span, &name, start, now);
            }
        }
    }
}

impl TickObserver for PhaseObserver {
    fn on_tick_start(&self, _tick: u64) {
        let now = self.tracer.now_ns();
        let mut st = self.state.lock().expect("observer panicked");
        st.tick_start_ns = now;
        st.tick_span = if st.spans_left > 0 {
            st.spans_left -= 1;
            // Closed in `on_tick_end`, which rewrites the end time.
            self.tracer.record(
                self.tracer.current(),
                &format!("{}.tick", self.engine),
                now,
                now,
            )
        } else {
            NO_PARENT
        };
    }

    fn on_phase(&self, _tick: u64, phase: TickPhase) {
        let now = self.tracer.now_ns();
        let mut st = self.state.lock().expect("observer panicked");
        self.close_phase(&mut st, now);
        st.open_phase = Some((phase, now));
    }

    fn on_tick_end(&self, _summary: &TickSummary) {
        let now = self.tracer.now_ns();
        let mut st = self.state.lock().expect("observer panicked");
        self.close_phase(&mut st, now);
        st.totals.ticks += 1;
        st.totals.tick_ns += now - st.tick_start_ns;
        if st.tick_span != NO_PARENT {
            self.tracer.set_end(st.tick_span, now);
            st.tick_span = NO_PARENT;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(1, NO_PARENT, "run", 0, 100),
            span(2, 1, "tick", 10, 50),
            span(3, 2, "neurons", 10, 40),
            span(4, 1, "tick", 50, 90),
            span(5, 4, "neurons", 55, 75),
        ];
        let t = self_times(&spans);
        // run: 100 - (40 + 40); grandchildren are not subtracted twice.
        assert_eq!(t["run"].self_ns, 20);
        assert_eq!(t["run"].total_ns, 100);
        // ticks: (40 - 30) + (40 - 20)
        assert_eq!(t["tick"].count, 2);
        assert_eq!(t["tick"].self_ns, 30);
        assert_eq!(t["neurons"].self_ns, 50);
        // Self times of a tree sum to the root's duration.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn a_child_that_overruns_is_clipped_to_its_parent() {
        let spans = vec![span(1, NO_PARENT, "p", 10, 20), span(2, 1, "c", 5, 40)];
        assert_eq!(self_times(&spans)["p"].self_ns, 0);
    }

    #[test]
    fn scopes_nest_and_counts_land_on_their_span() {
        let t = Tracer::new(true);
        let outer = t.begin("outer");
        t.scope("inner", || assert_eq!(t.current(), 2));
        t.end(outer, &[("ticks", 7)]);
        let spans = t.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[0].counts, vec![("ticks", 7)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"inner\",\"workload\":\"w\""));
        assert!(json.contains("\"counts\":{\"ticks\":7}"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id, &[]);
        assert_eq!(t.record(NO_PARENT, "y", 0, 1), NO_PARENT);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn observer_phases_tile_the_tick() {
        let tracer = Arc::new(Tracer::new(true));
        let obs = PhaseObserver::new(Arc::clone(&tracer), "reference");
        let run = tracer.begin("run");
        for tick in 0..3 {
            obs.on_tick_start(tick);
            for p in [TickPhase::Faults, TickPhase::Input, TickPhase::Neurons] {
                obs.on_phase(tick, p);
                std::hint::black_box((0..2000u64).sum::<u64>());
            }
            obs.on_tick_end(&TickSummary::default());
        }
        tracer.end(run, &[]);
        let totals = obs.totals();
        assert_eq!(totals.ticks, 3);
        let phases: u64 = totals.phase_ns.iter().sum();
        assert!(phases <= totals.tick_ns);
        assert_eq!(totals.phase(TickPhase::Routing), 0);
        let by_name = self_times(&tracer.spans());
        assert_eq!(by_name["reference.tick"].count, 3);
        assert_eq!(by_name["reference.neurons"].count, 3);
        // Phase spans are children of their tick, ticks of the run.
        assert_eq!(
            by_name["reference.tick"].total_ns,
            by_name["reference.tick"].self_ns
                + by_name["reference.faults"].total_ns
                + by_name["reference.input"].total_ns
                + by_name["reference.neurons"].total_ns
        );
    }
}
