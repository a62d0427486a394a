//! The real-time tick scheduler.
//!
//! The physical chip advances on a global 1 kHz synchronization signal:
//! every core must finish its tick before the next 1 ms edge, and a tick
//! that misses the edge is a *deadline miss*, not a silent slowdown
//! (paper Section III-C). [`TickScheduler`] reproduces that contract for
//! a served session: in [`Pace::RealTime`] it tells the executor's
//! deadline wheel when the next tick may start and *counts* deadline
//! misses when the host falls behind — without accumulating debt,
//! exactly like a dropped sync edge — while [`Pace::MaxSpeed`] free-runs
//! the simulator at host speed (the paper's "faster than real-time"
//! operating regime). The scheduler never sleeps and reads no clock:
//! every call takes the caller's `now`.
//!
//! Deadlines live on a fixed grid anchored at the first paced tick:
//! `anchor + k·period`. A late tick skips forward to the next *grid*
//! edge, never to `now + period` — re-anchoring at `now` would silently
//! forgive up to a period of drift on every miss, letting a host that is
//! consistently a little slow book far fewer misses than sync edges it
//! actually dropped.

use crate::protocol::Pace;
use std::time::{Duration, Instant};

/// What one [`TickScheduler::begin_tick`] call booked, for the caller's
/// jitter and deadline-miss telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PaceOutcome {
    /// How far past the deadline the tick started (zero when on time).
    pub lateness: Duration,
    /// Sync edges dropped by this call (0 when the deadline was met).
    pub missed_now: u64,
}

/// Paces one session's ticks; the executor keeps one per session.
pub struct TickScheduler {
    pace: Pace,
    period: Duration,
    /// Deadline of the next tick; `None` until the first paced tick
    /// (and after [`Self::reset`], so idle waits are not counted late).
    next: Option<Instant>,
    /// Deadline handed out by [`Self::next_ready_at`] that a deadline
    /// wheel is sleeping toward. A wake at-or-after an armed deadline is
    /// an on-time tick: its start offset is wakeup jitter, not a blown
    /// slot, so only whole periods of oversleep are booked as misses.
    armed: Option<Instant>,
    missed: u64,
}

impl TickScheduler {
    pub fn new(pace: Pace, period: Duration) -> Self {
        TickScheduler {
            pace,
            period: period.max(Duration::from_micros(1)),
            next: None,
            armed: None,
            missed: 0,
        }
    }

    pub fn pace_mode(&self) -> Pace {
        self.pace
    }

    /// Real-time deadlines missed so far (always 0 at max speed).
    pub fn missed_deadlines(&self) -> u64 {
        self.missed
    }

    /// Forget the current cadence. Call after an idle gap (no ticks
    /// requested) so the pause is not booked as missed deadlines.
    pub fn reset(&mut self) {
        self.next = None;
        self.armed = None;
    }

    /// When may the next tick start? Returns `now` when it may run
    /// immediately (max speed, an unanchored grid, or a deadline already
    /// behind us) and the grid edge otherwise, *arming* that edge so the
    /// wake-up's start offset is classified as wheel jitter rather than
    /// an overrun (see [`Self::begin_tick`]).
    pub fn next_ready_at(&mut self, now: Instant) -> Instant {
        if self.pace == Pace::MaxSpeed {
            return now;
        }
        match self.next {
            None => now,
            Some(deadline) if deadline <= now => now,
            Some(deadline) => {
                self.armed = Some(deadline);
                deadline
            }
        }
    }

    /// Book the tick that is about to run at `now`. Deadlines sit on a
    /// fixed grid: whole-period overruns are dropped sync edges, and the
    /// grid never slips to `now`. A deadline wheel that slept toward an
    /// armed edge and woke `ε` late starts the tick with `lateness = ε`
    /// but books a miss only for *whole periods* of oversleep; a tick
    /// that starts past an edge nobody slept toward (back-to-back work
    /// overran the slot) books that edge as well.
    pub fn begin_tick(&mut self, now: Instant) -> PaceOutcome {
        if self.pace == Pace::MaxSpeed {
            return PaceOutcome::default();
        }
        match self.next {
            None => {
                // First tick of a burst runs immediately and anchors
                // the deadline grid.
                self.next = Some(now + self.period);
                PaceOutcome::default()
            }
            Some(deadline) => {
                let armed_here = self.armed == Some(deadline);
                self.armed = None;
                if now <= deadline {
                    // Woken at (or slightly before, via a coalesced
                    // wheel slot) the edge: on time.
                    self.next = Some(deadline + self.period);
                    PaceOutcome::default()
                } else {
                    let behind = now - deadline;
                    // Either way the grid skips to its first edge
                    // strictly after `now` — never to `now + period`.
                    let whole = (behind.as_nanos() / self.period.as_nanos()) as u64;
                    // Armed wake: this edge's tick *is running now*,
                    // just late — only fully elapsed periods beyond it
                    // are dropped edges. Unarmed: the edge itself was
                    // blown too.
                    let skipped = if armed_here { whole } else { whole + 1 };
                    self.missed += skipped;
                    self.next = Some(deadline + self.period * (whole + 1) as u32);
                    PaceOutcome {
                        lateness: behind,
                        missed_now: skipped,
                    }
                }
            }
        }
    }

    /// Migration hand-off, source side: freeze the cadence and return
    /// the phase offset to the next *unbooked* grid edge. Any in-flight
    /// overrun is booked here, once — the target resumes the grid via
    /// [`Self::import_phase`] without re-anchoring, so the in-flight
    /// slot is never booked a second time (and a later abort-resume on
    /// the source, which `reset`s, cannot book it again either).
    /// `None` for max-speed or a never-anchored grid.
    pub fn export_phase(&mut self, now: Instant) -> Option<Duration> {
        if self.pace == Pace::MaxSpeed {
            return None;
        }
        let deadline = self.next?;
        self.armed = None;
        if now <= deadline {
            Some(deadline - now)
        } else {
            let behind = now - deadline;
            let skipped = 1 + (behind.as_nanos() / self.period.as_nanos()) as u64;
            self.missed += skipped;
            let next = deadline + self.period * skipped as u32;
            self.next = Some(next);
            Some(next - now)
        }
    }

    /// Migration hand-off, target side: resume the source's grid at
    /// `now + phase` instead of re-anchoring at the first tick. See
    /// [`Self::export_phase`].
    pub fn import_phase(&mut self, now: Instant, phase: Duration) {
        if self.pace == Pace::MaxSpeed {
            return;
        }
        self.next = Some(now + phase.min(self.period));
        self.armed = None;
    }
}

#[cfg(test)]
mod tests {
    //! Every test drives the scheduler with explicit `Instant`s the way
    //! the executor does: `next_ready_at` → (the wheel waits until the
    //! returned instant) → `begin_tick`. Nothing sleeps, so every
    //! assertion is exact.
    use super::*;

    /// One executor step at `now`: ask when the tick may start, "wait"
    /// until then, book it. Returns the start instant and the outcome.
    fn tick_at(s: &mut TickScheduler, now: Instant) -> (Instant, PaceOutcome) {
        let start = s.next_ready_at(now).max(now);
        (start, s.begin_tick(start))
    }

    #[test]
    fn max_speed_never_waits() {
        let mut s = TickScheduler::new(Pace::MaxSpeed, Duration::from_millis(50));
        let mut now = Instant::now();
        for _ in 0..100 {
            let (start, out) = tick_at(&mut s, now);
            assert_eq!(start, now, "max speed is always ready");
            assert_eq!(out, PaceOutcome::default());
            now += Duration::from_millis(70); // even slower than a period
        }
        assert_eq!(s.missed_deadlines(), 0);
    }

    #[test]
    fn real_time_holds_the_cadence() {
        let period = Duration::from_millis(2);
        let mut s = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        let (start, out) = tick_at(&mut s, t0);
        assert_eq!(
            (start, out),
            (t0, PaceOutcome::default()),
            "first tick is immediate"
        );
        let mut now = t0;
        for k in 1..=4u32 {
            // An idle host (zero-cost ticks) waits a full period for
            // every grid edge and starts each tick exactly on it.
            let (start, out) = tick_at(&mut s, now);
            assert_eq!(start - now, period, "waits a full period");
            assert_eq!(start, t0 + period * k, "grid edge {k}");
            assert_eq!(out, PaceOutcome::default());
            now = start;
        }
        assert_eq!(s.missed_deadlines(), 0);
    }

    #[test]
    fn busy_ticks_wait_only_the_remainder() {
        let period = Duration::from_millis(2);
        let mut s = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        tick_at(&mut s, t0); // anchor
        let now = t0 + period / 2; // the tick's work took half a period
        let (start, out) = tick_at(&mut s, now);
        assert_eq!(start - now, period / 2);
        assert_eq!(out.missed_now, 0);
        assert_eq!(s.missed_deadlines(), 0);
    }

    #[test]
    fn falling_behind_counts_missed_deadlines_without_debt() {
        let period = Duration::from_millis(1);
        let mut s = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        tick_at(&mut s, t0); // anchor: deadlines at t0+p, t0+2p, ...
        let now = t0 + period * 5 + period / 2; // a slow tick, nothing armed
        assert_eq!(s.next_ready_at(now), now, "already due");
        let out = s.begin_tick(now);
        assert_eq!(out.missed_now, 5, "4 whole overruns + the blown edge");
        assert_eq!(out.lateness, period * 4 + period / 2);
        assert_eq!(s.missed_deadlines(), 5);
        // No catch-up burst: the next deadline is the next *grid* edge
        // (t0 + 6p), so the following tick waits exactly the remainder —
        // the grid did not slip to now + period.
        let (start, out) = tick_at(&mut s, now);
        assert_eq!(start, t0 + period * 6);
        assert_eq!(start - now, period / 2);
        assert_eq!(out.missed_now, 0);
        assert_eq!(s.missed_deadlines(), 5, "recovered ticks book no misses");
    }

    #[test]
    fn sub_period_drift_is_not_silently_forgiven() {
        // A host consistently 1.25 periods slow must keep booking misses;
        // re-anchoring at `now + period` would book only the first one
        // and then drift forever.
        let period = Duration::from_millis(4);
        let mut s = TickScheduler::new(Pace::RealTime, period);
        let mut now = Instant::now();
        tick_at(&mut s, now); // anchor
        for _ in 0..4 {
            now += period * 5 / 4;
            tick_at(&mut s, now);
        }
        assert!(
            s.missed_deadlines() >= 4,
            "drift of 1.25 periods/tick booked only {} misses",
            s.missed_deadlines()
        );
    }

    #[test]
    fn armed_wakeup_jitter_is_not_a_miss_but_whole_periods_are() {
        let period = Duration::from_millis(1);
        let mut s = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        s.begin_tick(t0); // anchor
        let due = s.next_ready_at(t0);
        // The wheel oversleeps by a quarter period: jitter, not a miss.
        let out = s.begin_tick(due + period / 4);
        assert_eq!(out.lateness, period / 4);
        assert_eq!(out.missed_now, 0);
        // A shard stalled past whole grid edges *does* book them.
        let now = due + period / 4;
        let due = s.next_ready_at(now);
        let now = due + period * 2 + period / 2;
        let out = s.begin_tick(now);
        assert_eq!(out.missed_now, 2, "two whole edges dropped");
        assert_eq!(s.missed_deadlines(), 2);
        // The grid did not slip: the next edge is on the original grid.
        let (start, out) = tick_at(&mut s, now);
        assert_eq!(start, t0 + period * 5);
        assert_eq!(out.missed_now, 0);
        assert_eq!(s.missed_deadlines(), 2);
    }

    #[test]
    fn migration_phase_is_booked_exactly_once_on_commit() {
        // Source runs on-cadence, quiesces mid-slot, target imports the
        // phase: the in-flight slot is booked by exactly one side (here:
        // neither, because nothing overran), and the target's first tick
        // lands on the source's grid edge — not an immediate re-anchor.
        let period = Duration::from_millis(2);
        let mut src = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        src.begin_tick(t0); // anchor; next edge = t0 + p
        let now = t0 + period / 4; // quiesce mid-slot
        let phase = src.export_phase(now).expect("anchored grid");
        assert_eq!(phase, period * 3 / 4);
        assert_eq!(src.missed_deadlines(), 0, "no overrun: source books none");

        let mut dst = TickScheduler::new(Pace::RealTime, period);
        dst.import_phase(now, phase);
        let (start, out) = tick_at(&mut dst, now);
        assert_eq!(start - now, phase, "target resumes the grid");
        assert_eq!(out.missed_now, 0, "in-flight slot not re-booked on target");
        assert_eq!(dst.missed_deadlines(), 0);
    }

    #[test]
    fn overrun_at_quiesce_is_booked_on_the_source_only() {
        // The session was already behind when the migrator quiesced it
        // mid-slot. The overrun books once, on the source, at export
        // time; the exported phase points at the next *unbooked* edge,
        // so the target books nothing for it — and an abort-resume
        // (thaw → reset) cannot book it a second time either.
        let period = Duration::from_millis(1);
        let mut src = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        src.begin_tick(t0); // anchor; next edge = t0 + p
        let now = t0 + period * 2 + period / 2; // 1.5 edges overrun
        let phase = src.export_phase(now).expect("anchored grid");
        assert_eq!(src.missed_deadlines(), 2, "in-flight overrun books once");
        assert_eq!(phase, period / 2, "phase points at the next unbooked edge");

        // Commit path: the target resumes at that edge, books nothing.
        let mut dst = TickScheduler::new(Pace::RealTime, period);
        dst.import_phase(now, phase);
        assert_eq!(tick_at(&mut dst, now).1.missed_now, 0);

        // Abort path: the source thaws (reset) and re-anchors — the
        // frozen interval is forgiven, the booked misses stay booked
        // exactly once.
        src.reset();
        assert_eq!(src.begin_tick(now), PaceOutcome::default());
        assert_eq!(src.missed_deadlines(), 2, "no double booking after abort");
    }

    #[test]
    fn export_phase_is_none_for_max_speed_and_unanchored_grids() {
        let now = Instant::now();
        let mut s = TickScheduler::new(Pace::MaxSpeed, Duration::from_millis(1));
        assert_eq!(s.export_phase(now), None);
        let mut s = TickScheduler::new(Pace::RealTime, Duration::from_millis(1));
        assert_eq!(s.export_phase(now), None, "never ticked: no grid");
    }

    #[test]
    fn reset_forgives_idle_gaps() {
        let period = Duration::from_millis(1);
        let mut s = TickScheduler::new(Pace::RealTime, period);
        let t0 = Instant::now();
        tick_at(&mut s, t0);
        let now = t0 + 5 * period;
        s.reset(); // the gap was idleness, not lateness
        let (start, out) = tick_at(&mut s, now);
        assert_eq!(start, now, "re-anchor without waiting");
        assert_eq!(out, PaceOutcome::default(), "no miss booked");
        assert_eq!(s.missed_deadlines(), 0);
    }
}
