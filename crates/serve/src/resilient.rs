//! A self-healing client: reconnect with backoff, resume from snapshot.
//!
//! The paper's platform is meant to run for days streaming spikes; a
//! dropped TCP connection must not cost the session. [`ReconnectingClient`]
//! wraps [`Client`] with:
//!
//! - **reconnection** with exponential backoff and deterministic jitter
//!   (seeded, so tests replay identically — see [`BackoffPolicy`]);
//! - **session resurrection**: the client remembers everything needed to
//!   recreate its session ([`SessionSpec`]) plus the last snapshot it
//!   took, so if the server lost the session (restart, eviction) it is
//!   recreated and restored to the last checkpoint;
//! - **resync**: [`ReconnectingClient::run_to`] drives the session to an
//!   absolute tick, querying the server for where the session actually
//!   is first — after a mid-`run_for` disconnect the client cannot know
//!   how many ticks ran, and an absolute target makes the retry
//!   idempotent.
//!
//! Because every kernel expression is deterministic, a session that is
//! killed, resurrected from its last snapshot, and replayed to tick `T`
//! lands on the *same state digest* as an uninterrupted run — the
//! integration tests assert exactly that, spike for spike.

use crate::client::{Client, ClientError};
use crate::protocol::{Engine, ErrorCode, ModelSource, Pace, Request, Response, SessionStats};
use std::time::{Duration, Instant};

/// Redirect chains longer than this abort the request — two servers
/// pointing at each other would otherwise bounce a client forever.
const MAX_REDIRECT_FOLLOWS: u32 = 8;

/// Resurrection attempts per request before giving up — a server that
/// keeps forgetting the session faster than we can recreate it is not
/// going to converge.
const MAX_RESURRECTIONS: u32 = 3;

/// Everything needed to recreate a session from scratch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    pub name: String,
    pub engine: Engine,
    pub pace: Pace,
    pub source: ModelSource,
    /// `tnfault 1` plan text; empty = no faults.
    pub fault_plan: String,
}

/// Exponential backoff with deterministic jitter.
///
/// Delay for attempt `k` (0-based) is `base × 2^k`, capped at `max`,
/// plus a jitter of 0–25% of the delay derived from (seed, attempt) via
/// a splitmix64 hash — deterministic for tests, decorrelated between
/// clients with different seeds.
#[derive(Clone, Debug)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub max: Duration,
    /// Give up after this many consecutive failed attempts.
    pub max_retries: u32,
    /// Wall-clock budget for one whole retry sequence: once this much
    /// time has elapsed since the first attempt, no further retry is
    /// scheduled even with attempts left in `max_retries`. `None`
    /// bounds by attempt count alone. Lets callers with a hard deadline
    /// (a draining server, a paced experiment) cap worst-case stall at
    /// a duration instead of a delay sum.
    pub total_deadline: Option<Duration>,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            max_retries: 8,
            total_deadline: None,
            seed: 0,
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BackoffPolicy {
    /// The delay before retry attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max);
        // 0–25% deterministic jitter.
        let jitter_num = mix(self.seed ^ (attempt as u64)) % 256;
        capped + capped.mul_f64(jitter_num as f64 / 1024.0)
    }

    /// Whether waiting `next_delay` more would overrun the total
    /// deadline for a sequence that started at `start`.
    pub fn out_of_time(&self, start: Instant, next_delay: Duration) -> bool {
        self.total_deadline
            .is_some_and(|budget| start.elapsed() + next_delay >= budget)
    }

    /// Wall-clock budget left at `now` for a sequence started at
    /// `start`: `None` = unbounded, `Some(ZERO)` = exhausted. Saturates
    /// at zero — the remaining budget is never negative, so no caller
    /// can turn an overrun into an extra full-length delay.
    pub fn remaining(&self, start: Instant, now: Instant) -> Option<Duration> {
        self.total_deadline
            .map(|budget| budget.saturating_sub(now.saturating_duration_since(start)))
    }
}

/// The budget arithmetic of one retry sequence, factored out of the
/// socket loop so it is driven by explicit `Instant`s — tests pin it
/// with plain `Instant` arithmetic instead of racing real time.
///
/// This is where the retry-budget underflow was fixed. The old loop
/// tracked the deadline per *connect burst* while the request tracked
/// it per *request*, so a reconnect inside a half-spent request started
/// from a fresh budget: the request's true remaining time could be
/// negative while the dial loop happily slept another full backoff
/// delay. A sequence now begins at the request's own start instant,
/// every sleep is clamped to the (saturating, never negative) remaining
/// budget, and an exhausted budget refuses even the free first dial.
#[derive(Debug)]
pub struct RetrySequence<'p> {
    policy: &'p BackoffPolicy,
    start: Instant,
    attempts: u32,
}

impl<'p> RetrySequence<'p> {
    /// Begin a sequence whose budget runs from `start` — which may
    /// predate this call: a reconnect inside a half-spent request
    /// threads the request's start so only the leftover budget is
    /// spendable here.
    pub fn begin_at(policy: &'p BackoffPolicy, start: Instant) -> Self {
        RetrySequence {
            policy,
            start,
            attempts: 0,
        }
    }

    /// The sleep to take before the next dial, or `None` when the
    /// sequence is out of attempts or out of wall-clock budget. The
    /// first attempt dials immediately (zero sleep) but is still
    /// refused on a spent budget; later sleeps are the policy's backoff
    /// delay clamped to the remaining budget.
    pub fn next_sleep(&mut self, now: Instant) -> Option<Duration> {
        if self.attempts > self.policy.max_retries {
            return None;
        }
        let nominal = if self.attempts == 0 {
            Duration::ZERO
        } else {
            self.policy.delay(self.attempts - 1)
        };
        self.attempts += 1;
        match self.policy.remaining(self.start, now) {
            None => Some(nominal),
            Some(rem) if rem.is_zero() => None,
            Some(rem) => Some(nominal.min(rem)),
        }
    }
}

/// Transport failed `max_retries + 1` times in a row.
#[derive(Debug)]
pub struct GaveUp {
    pub attempts: u32,
    pub last: ClientError,
}

impl std::fmt::Display for GaveUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gave up after {} attempts; last error: {}",
            self.attempts, self.last
        )
    }
}

impl std::error::Error for GaveUp {}

/// A client that owns one session and survives connection loss.
pub struct ReconnectingClient {
    addr: String,
    spec: SessionSpec,
    policy: BackoffPolicy,
    conn: Option<Client>,
    /// Last snapshot taken through [`Self::snapshot`] — the resurrection
    /// point if the server loses the session entirely.
    last_snapshot: Option<Vec<u8>>,
    /// Total reconnect attempts that succeeded (telemetry for tests).
    reconnects: u64,
    /// Whether any connection has ever been established — everything
    /// after the first counts as a reconnect.
    ever_connected: bool,
}

impl ReconnectingClient {
    /// Connect and create the session. Fails fast on a rejected spec
    /// (bad model, bad fault plan) — those never succeed on retry.
    pub fn create(
        addr: impl Into<String>,
        spec: SessionSpec,
        policy: BackoffPolicy,
    ) -> Result<Self, ClientError> {
        let mut me = ReconnectingClient {
            addr: addr.into(),
            spec,
            policy,
            conn: None,
            last_snapshot: None,
            reconnects: 0,
            ever_connected: false,
        };
        let resp = me.with_retry(|c, spec| {
            c.request(&Request::CreateSession {
                name: spec.name.clone(),
                engine: spec.engine,
                pace: spec.pace,
                source: spec.source.clone(),
                fault_plan: spec.fault_plan.clone(),
            })
        })?;
        match resp {
            Response::Created { .. } => Ok(me),
            Response::Error { code, message } => {
                Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                    format!("create rejected ({code:?}): {message}"),
                )))
            }
            other => Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                format!("unexpected create reply: {other:?}"),
            ))),
        }
    }

    /// Point subsequent reconnects at a different server address — the
    /// failover path when the original server is gone for good. The
    /// current connection (if any) is dropped so the next request
    /// reconnects, recreates the session there, and restores the last
    /// snapshot.
    pub fn set_addr(&mut self, addr: impl Into<String>) {
        self.addr = addr.into();
        self.conn = None;
    }

    /// Successful reconnect count so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The last snapshot taken through this client, if any.
    pub fn last_snapshot(&self) -> Option<&[u8]> {
        self.last_snapshot.as_deref()
    }

    /// Dial with backoff. `seq_start` anchors the total-deadline budget
    /// and is the *request's* start, not this call's: a reconnect inside
    /// a half-spent request may spend only what the request has left.
    fn connect(&mut self, seq_start: Instant) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let policy = self.policy.clone();
            let mut seq = RetrySequence::begin_at(&policy, seq_start);
            let mut last: Option<ClientError> = None;
            while let Some(sleep) = seq.next_sleep(Instant::now()) {
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
                match Client::connect(&self.addr) {
                    Ok(c) => {
                        if self.ever_connected {
                            self.reconnects += 1;
                        }
                        self.ever_connected = true;
                        self.conn = Some(c);
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            if self.conn.is_none() {
                return Err(last.unwrap_or_else(|| {
                    ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "retry budget exhausted before any connect attempt",
                    ))
                }));
            }
        }
        Ok(self.conn.as_mut().unwrap())
    }

    /// Run `op` against a live connection, transparently reconnecting on
    /// transport errors (protocol-level errors are returned, not
    /// retried). If the server answers `UnknownSession`, the session is
    /// recreated and restored from the last snapshot, then `op` retries
    /// (at most [`MAX_RESURRECTIONS`] times per request). If it answers
    /// [`Response::Redirect`] — the session was live-migrated — the
    /// client follows: it repoints at the new address and retries there,
    /// no resurrection and no state loss, bounded by
    /// [`MAX_REDIRECT_FOLLOWS`].
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client, &SessionSpec) -> Result<T, ClientError>,
    ) -> Result<T, ClientError>
    where
        T: ReplyLike,
    {
        let start = Instant::now();
        let mut transport_failures = 0u32;
        let mut resurrections = 0u32;
        let mut redirects = 0u32;
        loop {
            let spec = self.spec.clone();
            let c = self.connect(start)?;
            match op(c, &spec) {
                Ok(reply) => {
                    if let Some(addr) = reply.redirect_addr() {
                        redirects += 1;
                        if redirects > MAX_REDIRECT_FOLLOWS {
                            return Err(ClientError::Protocol(
                                crate::protocol::ProtocolError::new(format!(
                                    "redirect chain exceeded {MAX_REDIRECT_FOLLOWS} hops"
                                )),
                            ));
                        }
                        self.set_addr(addr);
                        continue;
                    }
                    if reply.is_unknown_session() {
                        resurrections += 1;
                        if resurrections > MAX_RESURRECTIONS {
                            return Err(ClientError::Protocol(
                                crate::protocol::ProtocolError::new(format!(
                                    "session vanished {MAX_RESURRECTIONS} times in one request"
                                )),
                            ));
                        }
                        self.resurrect(start)?;
                        continue;
                    }
                    return Ok(reply);
                }
                Err(ClientError::Io(e)) => {
                    self.conn = None; // stale socket; reconnect
                    transport_failures += 1;
                    if transport_failures > self.policy.max_retries
                        || self.policy.out_of_time(start, Duration::ZERO)
                    {
                        return Err(ClientError::Io(e));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Recreate the session from its spec and restore the last snapshot
    /// (if one was ever taken). Called when the server reports
    /// `UnknownSession` — the server restarted or evicted us.
    fn resurrect(&mut self, seq_start: Instant) -> Result<(), ClientError> {
        let spec = self.spec.clone();
        let snap = self.last_snapshot.clone();
        let c = self.connect(seq_start)?;
        let resp = c.request(&Request::CreateSession {
            name: spec.name.clone(),
            engine: spec.engine,
            pace: spec.pace,
            source: spec.source.clone(),
            fault_plan: spec.fault_plan.clone(),
        })?;
        match resp {
            Response::Created { .. }
            | Response::Error {
                code: ErrorCode::SessionExists,
                ..
            } => {}
            Response::Error { code, message } => {
                return Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                    format!("resurrect rejected ({code:?}): {message}"),
                )))
            }
            other => {
                return Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                    format!("unexpected resurrect reply: {other:?}"),
                )))
            }
        }
        if let Some(bytes) = snap {
            let resp = c.request(&Request::Restore {
                session: spec.name.clone(),
                bytes,
            })?;
            if let Response::Error { code, message } = resp {
                return Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                    format!("restore after resurrect failed ({code:?}): {message}"),
                )));
            }
        }
        Ok(())
    }

    /// Current session stats (reconnecting as needed).
    pub fn stats(&mut self) -> Result<SessionStats, ClientError> {
        let resp = self.with_retry(|c, spec| c.stats(&spec.name))?;
        match resp {
            Response::StatsData(s) => Ok(s),
            other => Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                format!("unexpected stats reply: {other:?}"),
            ))),
        }
    }

    /// Inject events (reconnecting as needed). NOT idempotent across a
    /// mid-request disconnect — callers streaming through faults should
    /// snapshot at known-good points and treat the segment since the
    /// last snapshot as lost, exactly like the tick-for-tick hardware.
    pub fn inject(
        &mut self,
        events: &[tn_core::wire::InputEvent],
    ) -> Result<Response, ClientError> {
        self.with_retry(|c, spec| c.inject(&spec.name, events))
    }

    /// Drive the session to absolute tick `target` (idempotent: safe to
    /// retry after any disconnect). Returns the stats at arrival.
    pub fn run_to(&mut self, target: u64) -> Result<SessionStats, ClientError> {
        loop {
            let now = self.stats()?;
            if now.tick >= target {
                return Ok(now);
            }
            let remaining = target - now.tick;
            let resp = self.with_retry(|c, spec| c.run_for(&spec.name, remaining));
            match resp {
                Ok(Response::Ok) => {}
                Ok(Response::Error { code, message }) => {
                    return Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                        format!("run_for failed ({code:?}): {message}"),
                    )))
                }
                Ok(_) | Err(_) => {
                    // Transport died mid-run or odd reply: loop re-reads
                    // the authoritative tick and runs only the remainder.
                }
            }
        }
    }

    /// Take and remember a snapshot — the resurrection point.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ClientError> {
        let resp = self.with_retry(|c, spec| c.snapshot(&spec.name))?;
        match resp {
            Response::SnapshotData { bytes } => {
                self.last_snapshot = Some(bytes.clone());
                Ok(bytes)
            }
            other => Err(ClientError::Protocol(crate::protocol::ProtocolError::new(
                format!("unexpected snapshot reply: {other:?}"),
            ))),
        }
    }

    /// Close the session and drop the connection.
    pub fn close(mut self) -> Result<(), ClientError> {
        let spec = self.spec.clone();
        if let Some(c) = self.conn.as_mut() {
            let _ = c.close_session(&spec.name);
        }
        Ok(())
    }
}

/// Lets [`ReconnectingClient::with_retry`] spot "the server forgot my
/// session" and "the session moved" replies generically.
trait ReplyLike {
    fn is_unknown_session(&self) -> bool;
    /// `Some(addr)` when the reply says the session now lives at `addr`.
    fn redirect_addr(&self) -> Option<String>;
}

impl ReplyLike for Response {
    fn is_unknown_session(&self) -> bool {
        matches!(
            self,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        )
    }

    fn redirect_addr(&self) -> Option<String> {
        match self {
            Response::Redirect { addr, .. } => Some(addr.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_clamps_to_the_deadline_and_never_goes_negative() {
        // Explicit instants drive the whole sequence: every assertion
        // below is exact, no real sleeping, no racing the host scheduler.
        let p = BackoffPolicy {
            base: Duration::from_millis(100),
            max: Duration::from_secs(2),
            max_retries: 10,
            total_deadline: Some(Duration::from_millis(250)),
            seed: 7,
        };
        let start = Instant::now();
        let mut seq = RetrySequence::begin_at(&p, start);

        // Attempt 0 dials immediately.
        assert_eq!(seq.next_sleep(start), Some(Duration::ZERO));
        let mut now = start + Duration::from_millis(20); // the dial itself

        // Attempt 1's nominal delay fits the budget: taken in full.
        let s1 = seq.next_sleep(now).expect("budget left");
        assert_eq!(s1, p.delay(0));
        now += s1;

        // Attempt 2's nominal delay (~200 ms + jitter) overruns what is
        // left. The old loop would have slept it whole — the remaining
        // budget went negative and the overrun surfaced as one extra
        // full-length delay. Now the sleep clamps to exactly the
        // remainder.
        let rem = p.remaining(start, now).expect("bounded policy");
        assert!(!rem.is_zero() && rem < p.delay(1), "mid-budget: {rem:?}");
        let s2 = seq.next_sleep(now).expect("clamped attempt");
        assert_eq!(s2, rem, "sleep is the leftover budget, not the delay");
        now += s2;

        // The budget is now exactly zero — saturated, not negative —
        // and the sequence refuses further attempts.
        assert_eq!(p.remaining(start, now), Some(Duration::ZERO));
        assert_eq!(seq.next_sleep(now), None);
    }

    #[test]
    fn reconnect_mid_request_sees_only_the_leftover_budget() {
        let p = BackoffPolicy {
            total_deadline: Some(Duration::from_millis(100)),
            ..BackoffPolicy::default()
        };
        // The request has already burnt its whole budget by the time
        // the transport dies; the reconnect sequence threads the
        // request's start, so even the free first dial is refused.
        let start = Instant::now();
        let now = start + Duration::from_millis(100);
        let mut seq = RetrySequence::begin_at(&p, start);
        assert_eq!(seq.next_sleep(now), None, "attempt 0 pre-check");

        // Unbounded policies never clamp and never refuse on time.
        let unbounded = BackoffPolicy::default();
        let mut seq = RetrySequence::begin_at(&unbounded, start);
        assert_eq!(seq.next_sleep(now), Some(Duration::ZERO));
        assert_eq!(seq.next_sleep(now), Some(unbounded.delay(0)));
    }

    #[test]
    fn retry_sequence_honors_the_attempt_cap() {
        let p = BackoffPolicy {
            max_retries: 2,
            ..BackoffPolicy::default()
        };
        let now = Instant::now();
        let mut seq = RetrySequence::begin_at(&p, now);
        // max_retries = 2 → one initial dial + two retries, then done.
        for _ in 0..3 {
            assert!(seq.next_sleep(now).is_some());
        }
        assert_eq!(seq.next_sleep(now), None);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = BackoffPolicy::default();
        // Exponential growth from the base...
        assert!(p.delay(0) >= Duration::from_millis(50));
        assert!(p.delay(0) < Duration::from_millis(63)); // base + 25%
        assert!(p.delay(3) >= Duration::from_millis(400));
        // ...capped (plus ≤25% jitter) no matter how many attempts.
        assert!(p.delay(30) <= Duration::from_millis(2500));
        // Deterministic: same seed, same delays.
        let q = BackoffPolicy::default();
        for k in 0..10 {
            assert_eq!(p.delay(k), q.delay(k));
        }
        // Different seeds decorrelate.
        let r = BackoffPolicy {
            seed: 99,
            ..BackoffPolicy::default()
        };
        assert!((0..10).any(|k| r.delay(k) != p.delay(k)));
    }

    #[test]
    fn create_fails_fast_when_no_server_listens() {
        // Reserve a port, then close it so nothing is listening.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let spec = SessionSpec {
            name: "ghost".into(),
            engine: Engine::Reference,
            pace: Pace::MaxSpeed,
            source: ModelSource::Blank {
                width: 2,
                height: 2,
                seed: 1,
            },
            fault_plan: String::new(),
        };
        let policy = BackoffPolicy {
            base: Duration::from_millis(1),
            max: Duration::from_millis(2),
            max_retries: 2,
            seed: 0,
            ..BackoffPolicy::default()
        };
        assert!(ReconnectingClient::create(addr, spec, policy).is_err());
    }

    #[test]
    fn total_deadline_cuts_retry_sequences_short() {
        let p = BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            max_retries: 100,
            total_deadline: Some(Duration::from_millis(10)),
            seed: 0,
        };
        // The budget is already smaller than the first delay: any sleep
        // would overrun it.
        let start = Instant::now();
        assert!(p.out_of_time(start, p.delay(0)));
        // No deadline → never out of time.
        let unbounded = BackoffPolicy::default();
        assert!(!unbounded.out_of_time(start, Duration::from_secs(3600)));

        // End to end: a dead address with a generous retry count but a
        // tiny wall-clock budget fails in far fewer than 100 delays.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let spec = SessionSpec {
            name: "late".into(),
            engine: Engine::Reference,
            pace: Pace::MaxSpeed,
            source: ModelSource::Blank {
                width: 2,
                height: 2,
                seed: 1,
            },
            fault_plan: String::new(),
        };
        let started = Instant::now();
        assert!(ReconnectingClient::create(addr, spec, p).is_err());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must beat the 100-retry delay sum"
        );
    }
}
