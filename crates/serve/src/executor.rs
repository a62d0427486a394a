//! The sharded session executor: M:N driving of [`SessionTask`]s over
//! a small fixed pool of shard threads.
//!
//! The paper's real-time contract is one spike-tick per millisecond
//! *per board*, regardless of how many boards a host serves. A
//! thread-per-session design collapses under that goal long before the
//! kernel does: thousands of 1 ms-periodic threads thrash the OS
//! scheduler, and every session costs a stack. This module replaces it
//! with `min(cores, 8)` shard threads (configurable), each multiplexing
//! many sessions:
//!
//! - **Deadline wheel** — real-time sessions are keyed into a min-heap
//!   by the next deadline of their [`TickScheduler`] grid. The shard
//!   sleeps until the earliest armed deadline, runs every due tick,
//!   and re-arms. Wake-up jitter on an armed deadline is telemetry,
//!   not a deadline miss: only whole periods of oversleep past an
//!   armed edge are booked (`TickScheduler::begin_tick`).
//! - **Load shedding** — an overloaded shard falls behind the grid;
//!   `begin_tick` then books the skipped edges as misses and jumps to
//!   the next future edge, so lateness sheds whole ticks instead of
//!   compounding. Shed edges are counted per shard
//!   (`tn_shard_exec_deadline_miss_total`) and per session, and input
//!   backpressure stays where it was: the bounded injector queue.
//! - **Max-speed batches** — free-running sessions round-robin through
//!   a ready queue in bounded tick batches so one greedy session
//!   cannot starve a shard.
//! - **Sweeps** — every few milliseconds a shard thaws expired
//!   migration quiesces and evicts idle sessions. Eviction is decided
//!   through [`MigrationPin::begin_evict`], which shares a mutex with
//!   the migration pin, so evict-vs-migrate is a total order (DFS
//!   model-checked below and in `server::model_tests`).
//!
//! Shard assignment is round-robin by admission id; a session never
//! moves between shards, so every task is single-threaded for its
//! whole life and needs no interior locking. Per-shard health is
//! published on a shared registry: `tn_shard_exec_sessions{shard=..}`,
//! `tn_shard_exec_runnable{shard=..}`, and a per-shard tick-jitter
//! histogram.

use crate::protocol::{Pace, SessionStats};
use crate::scheduler::PaceOutcome;
use crate::session::{
    Cmd, SessionConfig, SessionGone, SessionHandle, SessionTask, LATENESS_BOUNDS,
};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};
use tn_compass::KernelSession;
use tn_core::wire::InputEvent;
use tn_obs::{Counter, Gauge, Histogram, Registry};

/// How often a shard runs its housekeeping sweep (idle eviction,
/// quiesce-hold expiry, gauge refresh). Bounds eviction latency and the
/// idle wake-up rate: an idle shard wakes ~200×/s, nothing at scale.
const SWEEP_PERIOD: Duration = Duration::from_millis(5);

/// Max consecutive ticks one max-speed session runs before the shard
/// rotates to the next ready session (fairness bound).
const MAX_SPEED_BATCH: u64 = 64;

/// Executor tuning.
#[derive(Clone, Debug, Default)]
pub struct ExecutorConfig {
    /// Driver shard threads. 0 means auto: `min(cores, 8)`.
    pub shards: usize,
}

/// Resolve the shard count: explicit, or `min(cores, 8)`.
pub fn default_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(8)
}

/// Messages into a shard thread. Commands address sessions by admission
/// id; a command for an id the shard no longer holds is dropped, which
/// drops its reply sender — the caller observes the hangup, the same
/// signal a crashed driver thread used to give.
pub(crate) enum ShardMsg {
    Admit { id: u64, task: Box<SessionTask> },
    Cmd(u64, Cmd),
    Shutdown,
}

/// The shard pool. Admission round-robins sessions across shards; the
/// pool's thread count is fixed at construction — serving N sessions
/// costs N tasks, not N threads.
pub struct ShardExecutor {
    shards: Vec<Sender<ShardMsg>>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    registry: Arc<Registry>,
}

impl ShardExecutor {
    pub fn new(cfg: ExecutorConfig) -> Self {
        let n = default_shards(cfg.shards);
        let registry = Arc::new(Registry::new());
        let mut shards = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        for k in 0..n {
            let (tx, rx) = std::sync::mpsc::channel();
            let metrics = ShardMetrics::new(&registry, k);
            let handle = std::thread::Builder::new()
                .name(format!("tn-exec-shard-{k}"))
                .spawn(move || Shard::new(rx, metrics).run())
                .expect("spawn shard thread");
            shards.push(tx);
            joins.push(handle);
        }
        ShardExecutor {
            shards,
            joins: Mutex::new(joins),
            // sync: plain id allocator; uniqueness is all that matters.
            next_id: AtomicU64::new(1),
            registry,
        }
    }

    /// Admit a session: build its task and handle, offer any migrated
    /// pending inputs, and hand the task to its shard. The returned
    /// handle routes commands by admission id.
    pub fn admit(
        &self,
        name: String,
        sim: Box<dyn KernelSession>,
        cfg: SessionConfig,
        base: SessionStats,
        pending: &[InputEvent],
        grid_phase: Option<Duration>,
    ) -> Result<SessionHandle, SessionGone> {
        // sync: see above — a monotone ticket, no ordering needed.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[(id as usize) % self.shards.len()];
        let (task, handle) =
            SessionTask::build(id, shard.clone(), name, sim, cfg, base, pending, grid_phase);
        shard
            .send(ShardMsg::Admit {
                id,
                task: Box::new(task),
            })
            .map_err(|_| SessionGone)?;
        Ok(handle)
    }

    /// The shared per-shard metrics registry (one scrape target for the
    /// whole pool; series carry a `shard` label).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stop every shard: in-flight sessions are abandoned (waiters get
    /// a shutdown error) and marked closed, then the threads join.
    pub fn shutdown(&self) {
        for tx in &self.shards {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        let joins = {
            let mut guard = self.joins.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for j in joins {
            let _ = j.join();
        }
    }
}

/// Cached handles for the series a shard touches on its hot path.
struct ShardMetrics {
    sessions: Arc<Gauge>,
    runnable: Arc<Gauge>,
    ticks: Arc<Counter>,
    deadline_miss: Arc<Counter>,
    admitted: Arc<Counter>,
    evicted: Arc<Counter>,
    jitter_ns: Arc<Histogram>,
}

impl ShardMetrics {
    fn new(registry: &Registry, k: usize) -> Self {
        let ks = k.to_string();
        let labels: [(&str, &str); 1] = [("shard", ks.as_str())];
        ShardMetrics {
            sessions: registry.gauge_with("tn_shard_exec_sessions", &labels),
            runnable: registry.gauge_with("tn_shard_exec_runnable", &labels),
            ticks: registry.counter_with("tn_shard_exec_ticks_total", &labels),
            deadline_miss: registry.counter_with("tn_shard_exec_deadline_miss_total", &labels),
            admitted: registry.counter_with("tn_shard_exec_admitted_total", &labels),
            evicted: registry.counter_with("tn_shard_exec_evicted_total", &labels),
            jitter_ns: registry.histogram_with(
                "tn_shard_exec_tick_jitter_ns",
                &labels,
                &LATENESS_BOUNDS,
            ),
        }
    }
}

/// A session's slot in its shard's table, with the wheel/ready
/// membership flags that keep each id enqueued at most once.
struct Entry {
    task: SessionTask,
    in_wheel: bool,
    in_ready: bool,
}

/// One shard thread's whole world. Single-threaded by construction:
/// only this thread ever touches its table, wheel, or tasks.
struct Shard {
    rx: Receiver<ShardMsg>,
    tasks: HashMap<u64, Entry>,
    /// Min-heap of `(deadline, id)` for real-time sessions. Entries are
    /// validated lazily on pop (the task may have been removed,
    /// quiesced, or drained since it was armed).
    wheel: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Round-robin queue of runnable max-speed sessions.
    ready: VecDeque<u64>,
    metrics: ShardMetrics,
}

impl Shard {
    fn new(rx: Receiver<ShardMsg>, metrics: ShardMetrics) -> Self {
        Shard {
            rx,
            tasks: HashMap::new(),
            wheel: BinaryHeap::new(),
            ready: VecDeque::new(),
            metrics,
        }
    }

    fn run(mut self) {
        let mut next_sweep = Instant::now() + SWEEP_PERIOD;
        loop {
            if !self.intake(next_sweep) {
                return; // shutdown or all channels gone
            }
            self.run_due_wheel();
            self.run_ready_batch();
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + SWEEP_PERIOD;
            }
        }
    }

    /// Pull commands: blocking (bounded by the earliest deadline and
    /// the sweep cadence) when nothing is runnable, non-blocking
    /// otherwise. Returns `false` when the shard should exit.
    fn intake(&mut self, next_sweep: Instant) -> bool {
        if self.ready.is_empty() {
            let now = Instant::now();
            let until = match self.wheel.peek() {
                Some(&Reverse((due, _))) => due.min(next_sweep),
                None => next_sweep,
            };
            match self.rx.recv_timeout(until.saturating_duration_since(now)) {
                Ok(msg) => {
                    if self.handle_msg(msg) {
                        return false;
                    }
                }
                Err(RecvTimeoutError::Timeout) => return true,
                Err(RecvTimeoutError::Disconnected) => {
                    self.close_all();
                    return false;
                }
            }
        }
        loop {
            match self.rx.try_recv() {
                Ok(msg) => {
                    if self.handle_msg(msg) {
                        return false;
                    }
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => {
                    self.close_all();
                    return false;
                }
            }
        }
    }

    /// Returns `true` on shutdown.
    fn handle_msg(&mut self, msg: ShardMsg) -> bool {
        match msg {
            ShardMsg::Admit { id, task } => {
                self.tasks.insert(
                    id,
                    Entry {
                        task: *task,
                        in_wheel: false,
                        in_ready: false,
                    },
                );
                self.metrics.admitted.inc();
                self.metrics.sessions.set(self.tasks.len() as f64);
                self.enqueue(id);
                false
            }
            ShardMsg::Cmd(id, cmd) => {
                let close = match self.tasks.get_mut(&id) {
                    Some(entry) => entry.task.handle_cmd(cmd),
                    // Stale id: dropping the command drops its reply
                    // sender and the caller sees the session as gone.
                    None => false,
                };
                if close {
                    self.remove(id);
                } else {
                    self.enqueue(id);
                }
                false
            }
            ShardMsg::Shutdown => {
                self.close_all();
                true
            }
        }
    }

    /// Put a runnable session where its pace says it belongs: the
    /// deadline wheel (arming its next grid edge) or the ready queue.
    fn enqueue(&mut self, id: u64) {
        let Some(entry) = self.tasks.get_mut(&id) else {
            return;
        };
        if !entry.task.runnable() {
            return;
        }
        match entry.task.scheduler.pace_mode() {
            Pace::MaxSpeed => {
                if !entry.in_ready {
                    entry.in_ready = true;
                    self.ready.push_back(id);
                }
            }
            Pace::RealTime => {
                if !entry.in_wheel {
                    let due = entry.task.scheduler.next_ready_at(Instant::now());
                    entry.in_wheel = true;
                    self.wheel.push(Reverse((due, id)));
                }
            }
        }
    }

    /// Run every real-time tick whose deadline has arrived.
    fn run_due_wheel(&mut self) {
        loop {
            let now = Instant::now();
            let id = match self.wheel.peek() {
                Some(&Reverse((due, id))) if due <= now => id,
                _ => return,
            };
            self.wheel.pop();
            let Some(entry) = self.tasks.get_mut(&id) else {
                continue;
            };
            entry.in_wheel = false;
            if !entry.task.runnable() {
                continue;
            }
            let outcome = entry.task.scheduler.begin_tick(now);
            self.metrics
                .jitter_ns
                .observe(outcome.lateness.as_nanos() as u64);
            if outcome.missed_now > 0 {
                // Shed edges: the wheel skipped this session forward.
                self.metrics.deadline_miss.add(outcome.missed_now);
            }
            entry.task.tick(outcome);
            self.metrics.ticks.inc();
            self.enqueue(id);
        }
    }

    /// Round-robin the ready queue, giving each max-speed session a
    /// bounded tick batch.
    fn run_ready_batch(&mut self) {
        let rotations = self.ready.len();
        for _ in 0..rotations {
            let Some(id) = self.ready.pop_front() else {
                return;
            };
            let Some(entry) = self.tasks.get_mut(&id) else {
                continue;
            };
            entry.in_ready = false;
            let mut budget = MAX_SPEED_BATCH;
            while budget > 0 && entry.task.runnable() {
                entry.task.tick(PaceOutcome::default());
                self.metrics.ticks.inc();
                budget -= 1;
            }
            self.enqueue(id);
        }
    }

    /// Housekeeping: thaw expired quiesce holds, evict idle sessions
    /// (unless pinned for migration), refresh gauges.
    fn sweep(&mut self, now: Instant) {
        let mut thawed = Vec::new();
        let mut evict = Vec::new();
        let mut runnable = 0u64;
        for (&id, entry) in self.tasks.iter_mut() {
            if let Some(until) = entry.task.quiesced_until {
                if now >= until {
                    // The migrator crashed or stalled past its hold;
                    // the session resumes by itself.
                    entry.task.thaw();
                    thawed.push(id);
                }
                continue;
            }
            if entry.task.runnable() {
                runnable += 1;
                continue;
            }
            if now >= entry.task.idle_deadline {
                if entry.task.pin.begin_evict() {
                    evict.push(id);
                } else {
                    // Pinned mid-migration: the control plane owns its
                    // fate; restart the idle clock.
                    entry.task.extend_idle(now);
                }
            }
        }
        for id in thawed {
            self.enqueue(id);
        }
        for id in evict {
            let Some(mut entry) = self.tasks.remove(&id) else {
                continue;
            };
            // The pin is already CLOSED (begin_evict); complete the
            // exit protocol by flipping the handle's flag.
            entry.task.abandon();
            entry
                .task
                .closed
                .store(true, crate::sync::atomic::Ordering::Release);
            self.metrics.evicted.inc();
        }
        self.metrics.sessions.set(self.tasks.len() as f64);
        self.metrics.runnable.set(runnable as f64);
    }

    fn remove(&mut self, id: u64) {
        if let Some(entry) = self.tasks.remove(&id) {
            entry.task.finish();
        }
        self.metrics.sessions.set(self.tasks.len() as f64);
    }

    fn close_all(&mut self) {
        for (_, mut entry) in self.tasks.drain() {
            entry.task.abandon();
            entry.task.finish();
        }
        self.wheel.clear();
        self.ready.clear();
        self.metrics.sessions.set(0.0);
        self.metrics.runnable.set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use std::sync::mpsc;
    use tn_compass::ReferenceSim;
    use tn_core::NetworkBuilder;

    fn blank_sim() -> Box<dyn KernelSession> {
        Box::new(ReferenceSim::new(NetworkBuilder::new(1, 2, 1).build()))
    }

    fn ask(h: &SessionHandle, mk: impl FnOnce(mpsc::Sender<Response>) -> Cmd) -> Response {
        let (tx, rx) = mpsc::channel();
        h.send(mk(tx)).expect("session alive");
        rx.recv_timeout(Duration::from_secs(10)).expect("reply")
    }

    #[test]
    fn many_sessions_multiplex_on_two_shards() {
        let exec = ShardExecutor::new(ExecutorConfig { shards: 2 });
        let cfg = SessionConfig {
            pace: Pace::MaxSpeed,
            ..Default::default()
        };
        let handles: Vec<_> = (0..16)
            .map(|i| {
                exec.admit(
                    format!("s{i}"),
                    blank_sim(),
                    cfg.clone(),
                    SessionStats::default(),
                    &[],
                    None,
                )
                .expect("admit")
            })
            .collect();
        // Drive them all concurrently through two shard threads.
        let replies: Vec<_> = handles
            .iter()
            .map(|h| {
                let (tx, rx) = mpsc::channel();
                h.send(Cmd::RunFor {
                    ticks: 200,
                    reply: tx,
                })
                .expect("alive");
                rx
            })
            .collect();
        for rx in replies {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).expect("reply"),
                Response::Ok
            );
        }
        for h in &handles {
            match ask(h, |r| Cmd::Stats { reply: r }) {
                Response::StatsData(s) => assert_eq!(s.tick, 200),
                other => panic!("{other:?}"),
            }
        }
        let text = exec.registry().render_text();
        tn_obs::validate_exposition(&text).expect("valid shard exposition");
        assert!(
            text.contains("tn_shard_exec_sessions{shard=\"0\"}"),
            "{text}"
        );
        assert!(
            text.contains("tn_shard_exec_sessions{shard=\"1\"}"),
            "{text}"
        );
        let ticks: u64 = (0..2)
            .map(|k| {
                let ks = k.to_string();
                exec.registry()
                    .counter_value("tn_shard_exec_ticks_total", &[("shard", ks.as_str())])
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(ticks, 16 * 200);
        exec.shutdown();
        for h in &handles {
            assert!(h.is_closed(), "shutdown closes every session");
        }
    }

    #[test]
    fn real_time_sessions_share_one_wheel_and_hold_cadence() {
        let exec = ShardExecutor::new(ExecutorConfig { shards: 1 });
        let cfg = SessionConfig {
            pace: Pace::RealTime,
            tick_period: Duration::from_millis(2),
            ..Default::default()
        };
        let handles: Vec<_> = (0..4)
            .map(|i| {
                exec.admit(
                    format!("rt{i}"),
                    blank_sim(),
                    cfg.clone(),
                    SessionStats::default(),
                    &[],
                    None,
                )
                .expect("admit")
            })
            .collect();
        let start = Instant::now();
        let replies: Vec<_> = handles
            .iter()
            .map(|h| {
                let (tx, rx) = mpsc::channel();
                h.send(Cmd::RunFor {
                    ticks: 10,
                    reply: tx,
                })
                .expect("alive");
                rx
            })
            .collect();
        for rx in replies {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).expect("reply"),
                Response::Ok
            );
        }
        // 10 ticks on a 2 ms grid cannot finish faster than the grid,
        // even multiplexed: the wheel paces each session separately.
        assert!(
            start.elapsed() >= Duration::from_millis(18),
            "wheel must pace real-time sessions, finished in {:?}",
            start.elapsed()
        );
        for h in &handles {
            match ask(h, |r| Cmd::Stats { reply: r }) {
                Response::StatsData(s) => assert_eq!(s.tick, 10),
                other => panic!("{other:?}"),
            }
        }
        exec.shutdown();
    }

    #[test]
    fn shard_thread_count_is_fixed_not_per_session() {
        let exec = ShardExecutor::new(ExecutorConfig { shards: 2 });
        let before = count_threads();
        let cfg = SessionConfig {
            pace: Pace::MaxSpeed,
            ..Default::default()
        };
        let handles: Vec<_> = (0..64)
            .map(|i| {
                exec.admit(
                    format!("tc{i}"),
                    blank_sim(),
                    cfg.clone(),
                    SessionStats::default(),
                    &[],
                    None,
                )
                .expect("admit")
            })
            .collect();
        for h in &handles {
            assert_eq!(ask(h, |r| Cmd::RunFor { ticks: 5, reply: r }), Response::Ok);
        }
        let after = count_threads();
        assert!(
            after <= before + 2,
            "64 admissions must not grow the thread count (before={before}, after={after})"
        );
        exec.shutdown();
    }

    /// Process thread count via /proc (Linux); falls back to 0 elsewhere
    /// so the assertion trivially holds.
    fn count_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .map(|d| d.count())
            .unwrap_or(0)
    }
}

/// Model-checked protocols for the sharded executor's session table
/// (satellite: the registry eviction model tests, ported to the
/// executor's evict path). Run with `RUSTFLAGS="--cfg tn_check"`.
#[cfg(all(test, tn_check))]
mod model_tests {
    use super::*;
    use crate::session::model_handle;
    use std::sync::mpsc;

    #[test]
    fn model_exec_evict_vs_tick_dfs() {
        // A shard's idle-eviction decision (begin_evict, then the
        // closed flip) racing a client command send through the handle
        // — the executor-table version of handle-close-vs-send. The
        // send may land in the channel before or after the evict, but
        // after eviction completes every send must fail cleanly, and a
        // send that failed must never have enqueued a command.
        let report = tn_check::check_dfs(&tn_check::Config::default(), 150_000, || {
            let (h, closed, rx, pin) = model_handle("e");
            let evictor = {
                let pin = Arc::clone(&pin);
                tn_check::thread::spawn(move || {
                    // The sweep's evict path: atomic with pin() via the
                    // shared mutex, then the exit protocol.
                    if pin.begin_evict() {
                        drop(rx); // the shard drops the task (and queue)
                        closed.store(true, Ordering::Release);
                        true
                    } else {
                        false
                    }
                })
            };
            let ticker = {
                let h = h.clone();
                tn_check::thread::spawn(move || {
                    let (reply, _keep) = mpsc::channel();
                    h.send(Cmd::RunFor { ticks: 1, reply }).is_ok()
                })
            };
            let evicted = evictor.join().unwrap();
            let _sent = ticker.join().unwrap();
            assert!(evicted, "no pin holder exists, eviction must win");
            let (reply, _keep) = mpsc::channel();
            assert!(
                h.send(Cmd::Stats { reply }).is_err(),
                "sends after a completed evict must report SessionGone"
            );
        });
        report.assert_ok();
        println!(
            "model_exec_evict_vs_tick_dfs: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }

    #[test]
    fn model_exec_evict_vs_adopt_dfs() {
        // Idle eviction of a session racing the adoption (same-name
        // re-admission) that a migration target performs: the name
        // table must end holding exactly the adopted session, and the
        // adopt may only be admitted once the evicted handle is
        // observably closed (the registry's lazy reap).
        let report = tn_check::check_dfs(&tn_check::Config::default(), 150_000, || {
            let reg = Arc::new(crate::server::Registry::new(1));
            let (old, old_closed, _rx_old, old_pin) = model_handle("m");
            reg.insert(old, Arc::new(Vec::new()))
                .expect("first insert fits");
            let evictor = {
                let pin = Arc::clone(&old_pin);
                tn_check::thread::spawn(move || {
                    if pin.begin_evict() {
                        old_closed.store(true, Ordering::Release);
                    }
                })
            };
            let adopter = {
                let reg = Arc::clone(&reg);
                tn_check::thread::spawn(move || {
                    let (new, _c, _rx, _p) = model_handle("m");
                    reg.insert(new, Arc::new(Vec::new())).is_ok()
                })
            };
            evictor.join().unwrap();
            let adopted = adopter.join().unwrap();
            // Whatever interleaved, eviction completed by now, so a
            // retry must succeed — and the table holds exactly one
            // live session named "m".
            if !adopted {
                let (new, _c, _rx, _p) = model_handle("m");
                reg.insert(new, Arc::new(Vec::new()))
                    .expect("post-evict adopt must land");
            }
            assert_eq!(reg.count(), 1, "exactly the adopted session remains");
            assert!(
                reg.get("m").is_some_and(|h| !h.is_closed()),
                "the surviving entry is the live adopted session"
            );
        });
        report.assert_ok();
        println!(
            "model_exec_evict_vs_adopt_dfs: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }
}
