//! The TCP server: acceptor, poll-based connection I/O, session
//! registry, and the sharded session executor.
//!
//! Thread model (all `std::thread`, no external runtime) — O(shards),
//! never O(sessions) or O(connections):
//!
//! - one **acceptor/io** thread owns the nonblocking listener and every
//!   connection socket. Each pass it accepts, reads whatever bytes are
//!   available, parses at most one in-flight request per connection,
//!   drains each connection's outbound queue (replies and subscribed
//!   tick updates), and writes without blocking. A connection that
//!   hangs up is dropped on the spot — its outbound queue dies with it,
//!   so nothing is ever left blocked on a dead peer (the old
//!   per-connection writer-thread leak is gone by construction);
//! - a fixed pool of **executor shards** drives every session at tick
//!   granularity on a shared deadline wheel (see [`crate::executor`]);
//! - **control operations** (create/adopt/migrate/drain/list), which
//!   may build networks or dial other servers, run on short-lived
//!   offload threads that answer into the connection's pending-reply
//!   slot, keeping the io thread responsive.
//!
//! Shutdown is cooperative: a shared flag flips, the io loop flushes
//! queued replies for up to a second (so the `Ok` answering a `Drain`
//! still reaches its client), then the executor closes every session.
//! Injection never crosses a thread boundary twice — the io thread
//! pushes straight into the session's bounded stream queue and reports
//! shed load as [`Response::Overloaded`].

use crate::client::Client;
use crate::executor::{ExecutorConfig, ShardExecutor};
use crate::protocol::{
    ErrorCode, ModelSource, Pace, ProtocolError, Request, Response, SessionEntry, SessionStats,
    FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::resilient::BackoffPolicy;
use crate::session::{Cmd, MigrationTicket, Outbound, SessionConfig, SessionHandle};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};
use tn_compass::{KernelSession, ParallelSim, ReferenceSim};
use tn_core::wire::InputEvent;
use tn_core::{modelfile, LintConfig, Network, NetworkBuilder, NetworkSnapshot};

/// Server-wide configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; use `127.0.0.1:0` to let the OS pick a port.
    pub addr: String,
    /// Real-time tick period for [`Pace::RealTime`] sessions (the
    /// paper's tick is 1 ms).
    pub tick_period: Duration,
    /// Force every session to [`Pace::MaxSpeed`] regardless of what its
    /// creator asked for (the `--max-speed` server flag).
    pub max_speed: bool,
    /// Idle sessions are evicted after this long without work.
    pub idle_timeout: Duration,
    /// Per-session bound on queued injected events.
    pub input_capacity: usize,
    /// Per-session high-water mark on undrained output spikes; beyond it
    /// the oldest are evicted and counted.
    pub output_capacity: usize,
    /// Hard cap on concurrently live sessions (admission control; the
    /// executor multiplexes everything admitted onto its fixed shards).
    pub max_sessions: usize,
    /// Worker threads for [`crate::protocol::Engine::Parallel`] sessions.
    pub parallel_threads: usize,
    /// Default shard count for [`Request::CreateShardedSession`] requests
    /// that ask for the server default (`shards == 0`).
    pub shards: usize,
    /// Session-executor driver shards. 0 means auto: `min(cores, 8)`.
    pub exec_shards: usize,
    /// Path to the `tn-shard-worker` binary; when set, sharded sessions
    /// place each shard in its own OS process, otherwise shards run as
    /// in-process workers (still exchanging spikes over loopback TCP).
    pub shard_worker_bin: Option<std::path::PathBuf>,
    /// Per-phase budget for live migrations: the quiesce reply, each
    /// connect attempt to the target, the adopt transfer, and the retire
    /// handshake are all individually bounded by this, so a wedged
    /// target can only stall the control plane — never the session. The
    /// quiesce hold that thaws an abandoned migration is derived from it.
    pub migration_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4160".to_string(),
            tick_period: Duration::from_millis(1),
            max_speed: false,
            idle_timeout: Duration::from_secs(120),
            input_capacity: 1 << 16,
            output_capacity: 1 << 20,
            max_sessions: 32,
            parallel_threads: 2,
            shards: 2,
            exec_shards: 0,
            shard_worker_bin: None,
            migration_timeout: Duration::from_secs(10),
        }
    }
}

/// How the migrator dials its target: a few quick retries with
/// seeded-jitter backoff, every attempt bounded by `migration_timeout`.
const CONNECT_POLICY: BackoffPolicy = BackoffPolicy {
    base: Duration::from_millis(20),
    max: Duration::from_millis(250),
    max_retries: 3,
    total_deadline: None,
    seed: 0x7A12,
};

/// How long a quiesced session stays frozen waiting for its migration
/// to commit or abort before it thaws itself. It strictly outlasts all
/// that `try_migrate` can spend before the target replies `Created`:
/// the quiesce reply, every connect attempt and backoff sleep, and the
/// adopt write and reply, each bounded by `timeout`. Every backoff
/// sleep is at most the policy's cap plus 25% jitter. A hold any
/// shorter would let a slow but live target adopt a session that had
/// already thawed and ticked here. One more `timeout` of slack covers
/// the `Retire` command's trip to the shard. A crashed migrator costs
/// at most this much ticking time.
fn quiesce_hold(timeout: Duration) -> Duration {
    let attempts = CONNECT_POLICY.max_retries + 1;
    let backoff = CONNECT_POLICY.max * 5 / 4 * CONNECT_POLICY.max_retries;
    // Quiesce reply + connect attempts + adopt write and reply + slack.
    timeout * (1 + attempts + 2 + 1) + backoff
}

/// One registered session: its live handle plus the encoded create
/// request it was built from — the spec a migration nests inside
/// [`Request::AdoptSession`] so the target can rebuild the same
/// engine/pace/fault plan before restoring the snapshot.
struct Entry {
    handle: SessionHandle,
    spec: Arc<Vec<u8>>,
}

/// Forwarding entries kept after migrations commit, so later requests
/// naming a moved session get a [`Response::Redirect`] instead of
/// `UnknownSession`. FIFO-bounded: old entries age out.
const MOVED_CAP: usize = 64;

struct RegistryState {
    sessions: HashMap<String, Entry>,
    /// Set by [`Request::Drain`]: creates are rejected from then on.
    /// Lives under the same mutex as the session map so drain-vs-create
    /// is a total order (model-checked below): an insert either
    /// completed before the drain (and gets migrated out with the rest)
    /// or observes the flag and is rejected — never half-admitted.
    draining: bool,
    moved: VecDeque<(String, String)>,
}

/// Named live sessions. Closed/evicted entries are reaped lazily on
/// every lookup and create.
pub(crate) struct Registry {
    state: Mutex<RegistryState>,
    max_sessions: usize,
}

impl Registry {
    pub(crate) fn new(max_sessions: usize) -> Self {
        Registry {
            state: Mutex::new(RegistryState {
                sessions: HashMap::new(),
                draining: false,
                moved: VecDeque::new(),
            }),
            max_sessions: max_sessions.max(1),
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<SessionHandle> {
        let mut st = self.state.lock().unwrap();
        st.sessions.retain(|_, e| !e.handle.is_closed());
        st.sessions.get(name).map(|e| e.handle.clone())
    }

    /// Handle plus creation spec — what a migration needs.
    fn get_entry(&self, name: &str) -> Option<(SessionHandle, Arc<Vec<u8>>)> {
        let mut st = self.state.lock().unwrap();
        st.sessions.retain(|_, e| !e.handle.is_closed());
        st.sessions
            .get(name)
            .map(|e| (e.handle.clone(), Arc::clone(&e.spec)))
    }

    /// Where a committed migration sent this session, if we remember.
    fn moved_to(&self, name: &str) -> Option<String> {
        let st = self.state.lock().unwrap();
        st.moved
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, addr)| addr.clone())
    }

    pub(crate) fn insert(&self, handle: SessionHandle, spec: Arc<Vec<u8>>) -> Result<(), Response> {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return Err(Response::Error {
                code: ErrorCode::Draining,
                message: "server is draining; create sessions elsewhere".to_string(),
            });
        }
        st.sessions.retain(|_, e| !e.handle.is_closed());
        if st.sessions.contains_key(&handle.name) {
            return Err(Response::Error {
                code: ErrorCode::SessionExists,
                message: format!("session '{}' already exists", handle.name),
            });
        }
        if st.sessions.len() >= self.max_sessions {
            return Err(Response::Error {
                code: ErrorCode::TooManySessions,
                message: format!("session budget ({}) exhausted", self.max_sessions),
            });
        }
        // A fresh session with this name supersedes any stale
        // forwarding entry (e.g. the session migrated back here).
        let name = handle.name.clone();
        st.moved.retain(|(n, _)| n != &name);
        st.sessions.insert(name, Entry { handle, spec });
        Ok(())
    }

    fn remove(&self, name: &str) -> Option<SessionHandle> {
        self.state
            .lock()
            .unwrap()
            .sessions
            .remove(name)
            .map(|e| e.handle)
    }

    /// Commit bookkeeping for a migration: drop the local entry and
    /// remember the forwarding address.
    fn record_moved(&self, name: &str, addr: &str) {
        let mut st = self.state.lock().unwrap();
        st.sessions.remove(name);
        st.moved.retain(|(n, _)| n != name);
        st.moved.push_back((name.to_string(), addr.to_string()));
        while st.moved.len() > MOVED_CAP {
            st.moved.pop_front();
        }
    }

    /// Live sessions, reaped and sorted by name (stable control-plane
    /// output).
    pub(crate) fn list(&self) -> Vec<(String, SessionHandle)> {
        let mut st = self.state.lock().unwrap();
        st.sessions.retain(|_, e| !e.handle.is_closed());
        let mut out: Vec<_> = st
            .sessions
            .iter()
            .map(|(n, e)| (n.clone(), e.handle.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Flip the drain flag; returns whether this call flipped it.
    pub(crate) fn set_draining(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        let first = !st.draining;
        st.draining = true;
        first
    }

    fn is_draining(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    pub(crate) fn count(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.sessions.retain(|_, e| !e.handle.is_closed());
        st.sessions.len()
    }

    fn take_all(&self) -> Vec<SessionHandle> {
        self.state
            .lock()
            .unwrap()
            .sessions
            .drain()
            .map(|(_, e)| e.handle)
            .collect()
    }
}

/// Control-plane telemetry: migrations, drains, and per-phase timings,
/// rendered into every metrics scrape alongside the session's own
/// registry. One instance per server.
struct OpsMetrics {
    registry: tn_obs::Registry,
}

/// 1 µs … ~16 s in ×16 steps — spans a loopback quiesce up to a
/// cross-network transfer brushing its timeout.
const PHASE_BOUNDS: [u64; 6] = [1_000, 16_000, 256_000, 4_096_000, 65_536_000, 1_048_576_000];

impl OpsMetrics {
    fn new() -> Self {
        let registry = tn_obs::Registry::new();
        // Pre-register the unlabelled series so a scrape shows them at
        // zero before the first migration/drain ever happens.
        registry.counter("tn_ops_migrations_total");
        registry.counter("tn_ops_drains_total");
        OpsMetrics { registry }
    }

    fn migration_committed(&self) {
        self.registry.counter("tn_ops_migrations_total").inc();
    }

    fn migration_failed(&self, phase: &str) {
        self.registry
            .counter_with("tn_ops_migration_failures_total", &[("phase", phase)])
            .inc();
    }

    fn drain_started(&self) {
        self.registry.counter("tn_ops_drains_total").inc();
    }

    fn observe_phase(&self, phase: &str, since: Instant) {
        self.registry
            .histogram_with(
                "tn_ops_migration_phase_ns",
                &[("phase", phase)],
                &PHASE_BOUNDS,
            )
            .observe(since.elapsed().as_nanos() as u64);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
}

/// Controls a server started with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind the listen socket (sessions start only when clients ask).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let advertised = listener.local_addr()?.to_string();
        let registry = Arc::new(Registry::new(cfg.max_sessions));
        // sync: store(Release) in shutdown()/Drop pairs with
        // load(Acquire) in the io loop, ordering all pre-shutdown
        // writes before teardown.
        let shutdown = Arc::new(AtomicBool::new(false));
        let executor = Arc::new(ShardExecutor::new(ExecutorConfig {
            shards: cfg.exec_shards,
        }));
        let ctx = Arc::new(ServerCtx {
            cfg,
            registry: Arc::clone(&registry),
            shutdown: Arc::clone(&shutdown),
            ops: OpsMetrics::new(),
            executor,
            advertised,
        });
        Ok(Server {
            listener,
            ctx,
            shutdown,
            registry,
        })
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Bind and run the io loop on a background thread; returns a
    /// handle for shutdown. This is the embedding/test entry point.
    pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr()?;
        let shutdown = Arc::clone(&server.shutdown);
        let registry = Arc::clone(&server.registry);
        let acceptor = std::thread::Builder::new()
            .name("tn-serve-acceptor".to_string())
            .spawn(move || server.run())
            .expect("spawn acceptor");
        Ok(ServerHandle {
            addr,
            shutdown,
            registry,
            acceptor: Some(acceptor),
        })
    }

    /// Accept and serve connections until shutdown. Blocks the calling
    /// thread; this is the CLI entry point. One thread multiplexes the
    /// listener and every connection socket.
    pub fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let mut progress = false;
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Ok(conn) = Conn::new(stream) {
                            conns.push(conn);
                            progress = true;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            for conn in conns.iter_mut() {
                progress |= conn.pass(&self.ctx);
            }
            conns.retain(|c| !c.dead);
            if !progress {
                // Nothing moved: idle briefly instead of spinning.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        // Grace: flush queued replies — in particular the final Ok to
        // the client whose Drain initiated this shutdown.
        let deadline = Instant::now() + Duration::from_secs(1);
        while Instant::now() < deadline {
            let mut outstanding = false;
            for conn in conns.iter_mut() {
                conn.resolve_pending(&self.ctx);
                conn.drain_outbound();
                conn.flush();
                outstanding |= !conn.dead && (conn.pending.is_some() || !conn.write_idle());
            }
            conns.retain(|c| !c.dead);
            if !outstanding {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(conns);
        // Close every session: abandons waiters and joins the shards.
        // After a completed drain this is a no-op on an empty table.
        self.ctx.executor.shutdown();
        let _ = self.registry.take_all();
    }
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown and wait for the io loop (and thus session
    /// teardown) to finish.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Live session count (for tests and the CLI status line).
    pub fn session_count(&self) -> usize {
        self.registry.count()
    }

    /// Whether the io loop has exited on its own — true once a drain
    /// has emptied the server (the CLI then exits 0).
    pub fn is_finished(&self) -> bool {
        self.acceptor.as_ref().is_none_or(|a| a.is_finished())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Everything a request needs to be served: shared by the io loop and
/// the control-plane offload threads.
struct ServerCtx {
    cfg: ServerConfig,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    ops: OpsMetrics,
    executor: Arc<ShardExecutor>,
    /// This server's reachable address (post-bind, so a `:0` listen
    /// port is resolved) — what redirects and status replies advertise.
    advertised: String,
}

/// How a dispatched request answers: immediately, or later through a
/// pending-reply slot the io loop polls.
enum Dispatch {
    Now(Response),
    Wait(Pending),
}

/// What to do with a pending reply when it lands.
enum PendingKind {
    Plain,
    /// Append the server's control-plane and executor metrics to the
    /// session's scrape.
    Metrics,
    /// Remove the named session from the registry (CloseSession).
    Close(String),
}

/// One outstanding request on a connection. At most one per connection:
/// the io loop parses no further frames until it resolves, preserving
/// request/reply ordering.
struct Pending {
    rx: Receiver<Response>,
    kind: PendingKind,
    /// Context for the hangup error if the replier disappears.
    ctx: String,
}

impl ServerCtx {
    /// Route one decoded request. Cheap requests answer inline; session
    /// commands and control operations answer through a pending slot.
    fn dispatch(self: &Arc<Self>, req: Request, out_tx: &Sender<Outbound>) -> Dispatch {
        match req {
            Request::Ping => Dispatch::Now(Response::Pong),
            create @ (Request::CreateSession { .. } | Request::CreateShardedSession { .. }) => {
                self.offload("create", move |ctx| ctx.create_from(create))
            }
            Request::InjectSpikes { session, events } => {
                let handle = match self.lookup(&session) {
                    Ok(h) => h,
                    Err(resp) => return Dispatch::Now(resp),
                };
                Dispatch::Now(match handle.injector().offer(&events) {
                    Ok(outcome) if outcome.dropped > 0 => Response::Overloaded {
                        accepted: outcome.accepted,
                        dropped: outcome.dropped,
                        total_dropped: handle.injector().dropped(),
                    },
                    Ok(outcome) => Response::InjectAck {
                        accepted: outcome.accepted,
                    },
                    Err(e) => Response::Error {
                        code: ErrorCode::InvalidInjection,
                        message: e.to_string(),
                    },
                })
            }
            Request::Subscribe { session } => {
                let sink = out_tx.clone();
                self.session_cmd(&session, PendingKind::Plain, move |reply| Cmd::Subscribe {
                    sink,
                    reply,
                })
            }
            Request::RunFor { session, ticks } => {
                self.session_cmd(&session, PendingKind::Plain, move |reply| Cmd::RunFor {
                    ticks,
                    reply,
                })
            }
            Request::Snapshot { session } => {
                self.session_cmd(&session, PendingKind::Plain, |reply| Cmd::Snapshot {
                    reply,
                })
            }
            Request::Restore { session, bytes } => {
                self.session_cmd(&session, PendingKind::Plain, move |reply| Cmd::Restore {
                    bytes,
                    reply,
                })
            }
            Request::Stats { session } => {
                self.session_cmd(&session, PendingKind::Plain, |reply| Cmd::Stats { reply })
            }
            Request::GetMetrics { session } => {
                // The session's own scrape; the io loop appends the
                // server's control-plane and shard-executor series when
                // the reply lands (PendingKind::Metrics).
                self.session_cmd(&session, PendingKind::Metrics, |reply| Cmd::GetMetrics {
                    reply,
                })
            }
            Request::CloseSession { session } => {
                let kind = PendingKind::Close(session.clone());
                match self.session_cmd(&session, kind, |reply| Cmd::Close { reply }) {
                    now @ Dispatch::Now(_) => {
                        // Lookup failed or the driver is already gone —
                        // mirror the eager removal the reply path does.
                        self.registry.remove(&session);
                        now
                    }
                    wait => wait,
                }
            }
            Request::ListSessions => self.offload("list", |ctx| ctx.list_sessions()),
            Request::ServerStatus => Dispatch::Now(Response::ServerStatusData {
                addr: self.advertised.clone(),
                draining: self.registry.is_draining(),
                sessions: self.registry.count() as u32,
                max_sessions: self.registry.max_sessions as u32,
            }),
            Request::MigrateSession { session, target } => {
                self.offload("migrate", move |ctx| ctx.migrate(&session, &target))
            }
            Request::Drain { target } => self.offload("drain", move |ctx| ctx.drain_to(&target)),
            Request::AdoptSession {
                create,
                snapshot,
                baseline,
                pending,
                grid_phase,
            } => self.offload("adopt", move |ctx| {
                ctx.adopt_session(*create, snapshot, baseline, pending, grid_phase)
            }),
        }
    }

    /// Run a control operation on a short-lived thread, answering into
    /// a pending slot so the io loop stays responsive while networks
    /// build or remote servers are dialed.
    fn offload(
        self: &Arc<Self>,
        what: &str,
        f: impl FnOnce(&ServerCtx) -> Response + Send + 'static,
    ) -> Dispatch {
        let (tx, rx) = mpsc::channel();
        let ctx = Arc::clone(self);
        // sync: deliberately detached — the operation is bounded by the
        // migration/build timeouts and reports through `tx`; if it dies,
        // the io loop sees the disconnect and answers Shutdown.
        let _ = std::thread::Builder::new()
            .name("tn-serve-ctl".to_string())
            .spawn(move || {
                let _ = tx.send(f(&ctx));
            });
        Dispatch::Wait(Pending {
            rx,
            kind: PendingKind::Plain,
            ctx: what.to_string(),
        })
    }

    /// Resolve a session name to its live handle. A name this server
    /// migrated away answers with the forwarding address instead of
    /// `UnknownSession`, so clients re-home without operator help.
    fn lookup(&self, session: &str) -> Result<SessionHandle, Response> {
        if let Some(h) = self.registry.get(session) {
            return Ok(h);
        }
        if let Some(addr) = self.registry.moved_to(session) {
            return Err(Response::Redirect {
                session: session.to_string(),
                addr,
            });
        }
        Err(Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("no session named '{session}'"),
        })
    }

    /// Queue a command for a session's shard; the reply arrives through
    /// the connection's pending slot.
    fn session_cmd(
        &self,
        session: &str,
        kind: PendingKind,
        mk: impl FnOnce(Sender<Response>) -> Cmd,
    ) -> Dispatch {
        let handle = match self.lookup(session) {
            Ok(h) => h,
            Err(resp) => return Dispatch::Now(resp),
        };
        let (tx, rx) = mpsc::channel();
        if handle.send(mk(tx)).is_err() {
            return Dispatch::Now(Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("session '{session}' closed"),
            });
        }
        Dispatch::Wait(Pending {
            rx,
            kind,
            ctx: session.to_string(),
        })
    }

    /// Create a session from either create request, keeping its encoded
    /// form as the migration spec.
    fn create_from(&self, create: Request) -> Response {
        let spec = Arc::new(create.encode());
        match create {
            Request::CreateSession {
                name,
                engine,
                pace,
                source,
                fault_plan,
            } => match self.build_plain(engine, source, &fault_plan) {
                Ok(sim) => self.register(name, pace, sim, spec, SessionStats::default(), &[], None),
                Err(resp) => resp,
            },
            Request::CreateShardedSession {
                name,
                pace,
                source,
                fault_plan,
                shards,
            } => match self.build_sharded(source, &fault_plan, shards) {
                Ok(sim) => self.register(name, pace, sim, spec, SessionStats::default(), &[], None),
                Err(resp) => resp,
            },
            _ => unreachable!("create_from called with a non-create request"),
        }
    }

    /// Build a configured single-process expression (no registration).
    fn build_plain(
        &self,
        engine: crate::protocol::Engine,
        source: ModelSource,
        fault_plan: &str,
    ) -> Result<Box<dyn KernelSession>, Response> {
        let net = match self.build_network(source) {
            Ok(net) => net,
            Err(message) => {
                return Err(Response::Error {
                    code: ErrorCode::ModelRejected,
                    message,
                })
            }
        };
        let plan = Self::parse_fault_plan(fault_plan, &net)?;
        let mut sim: Box<dyn KernelSession> = match engine {
            crate::protocol::Engine::Chip => Box::new(tn_chip::TrueNorthSim::new(net)),
            crate::protocol::Engine::Reference => Box::new(ReferenceSim::new(net)),
            crate::protocol::Engine::Parallel => {
                Box::new(ParallelSim::new(net, self.cfg.parallel_threads))
            }
        };
        if let Some(plan) = &plan {
            sim.attach_faults(plan);
        }
        Ok(sim)
    }

    /// Build a session partitioned across `tn-shard` workers — the
    /// gateway half of the distributed sharding layer: it places the
    /// worker processes; the caller serves the session like any other.
    fn build_sharded(
        &self,
        source: ModelSource,
        fault_plan: &str,
        shards: u16,
    ) -> Result<Box<dyn KernelSession>, Response> {
        let net = match self.build_network(source) {
            Ok(net) => net,
            Err(message) => {
                return Err(Response::Error {
                    code: ErrorCode::ModelRejected,
                    message,
                })
            }
        };
        let plan = Self::parse_fault_plan(fault_plan, &net)?;
        let shards = if shards == 0 {
            self.cfg.shards
        } else {
            shards as usize
        };
        let spec = tn_shard::ShardSpec {
            shards,
            spawn: match &self.cfg.shard_worker_bin {
                Some(bin) => tn_shard::SpawnMode::Process {
                    worker_bin: bin.clone(),
                },
                None => tn_shard::SpawnMode::InProcess,
            },
            ..tn_shard::ShardSpec::default()
        };
        let mut sim: Box<dyn KernelSession> = match tn_shard::ShardedSession::launch(net, &spec) {
            Ok(s) => Box::new(s),
            Err(e) => {
                return Err(Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("failed to place shard workers: {e}"),
                })
            }
        };
        if let Some(plan) = &plan {
            sim.attach_faults(plan);
        }
        Ok(sim)
    }

    /// Control plane: every live session's name and point-in-time stats.
    /// Each shard round-trip is deadline-bounded; a wedged session is
    /// skipped rather than hanging the whole listing.
    fn list_sessions(&self) -> Response {
        let mut entries = Vec::new();
        for (name, handle) in self.registry.list() {
            let (tx, rx) = mpsc::channel();
            if handle.send(Cmd::Stats { reply: tx }).is_err() {
                continue;
            }
            if let Ok(Response::StatsData(stats)) = rx.recv_timeout(self.cfg.migration_timeout) {
                entries.push(SessionEntry { name, stats });
            }
        }
        Response::SessionList { entries }
    }

    /// Live-migrate `name` to the server at `target`.
    ///
    /// Phases (each bounded by `migration_timeout`): **pin** (excludes
    /// idle eviction and concurrent migrations), **quiesce** (freeze at
    /// a tick boundary and take the ticket), **connect** (dial the
    /// target with backoff), **transfer** (one `AdoptSession` frame),
    /// **commit** (retire the source task, redirect its clients, wait
    /// for it to close). Any failure before the target replies `Created`
    /// aborts back to an untouched, still-ticking source; after that
    /// point the target owns the session and the source always retires.
    fn migrate(&self, name: &str, target: &str) -> Response {
        let (handle, spec) = match self.registry.get_entry(name) {
            Some(e) => e,
            None => {
                return match self.lookup(name) {
                    Err(resp) => resp,
                    Ok(_) => Response::Error {
                        code: ErrorCode::MigrationFailed,
                        message: format!("session '{name}' closed mid-request"),
                    },
                }
            }
        };
        if target == self.advertised {
            return Response::Error {
                code: ErrorCode::MigrationFailed,
                message: "migration target is this server".to_string(),
            };
        }
        let pin = handle.migration();
        if !pin.pin() {
            return Response::Error {
                code: ErrorCode::MigrationFailed,
                message: format!("session '{name}' is already migrating or closing"),
            };
        }
        match self.try_migrate(&handle, &spec, target) {
            Ok(()) => {
                self.ops.migration_committed();
                self.registry.record_moved(name, target);
                Response::Redirect {
                    session: name.to_string(),
                    addr: target.to_string(),
                }
            }
            Err((phase, message)) => {
                // Abort to source: thaw the task and release the pin.
                // The session never stopped being servable — at worst it
                // sat quiesced for one phase timeout.
                let _ = handle.send(Cmd::Resume);
                pin.unpin();
                self.ops.migration_failed(phase);
                Response::Error {
                    code: ErrorCode::MigrationFailed,
                    message: format!("{phase}: {message}"),
                }
            }
        }
    }

    /// The fallible phases of [`ServerCtx::migrate`], returning the
    /// failing phase name for telemetry. The caller owns the pin.
    fn try_migrate(
        &self,
        handle: &SessionHandle,
        spec: &[u8],
        target: &str,
    ) -> Result<(), (&'static str, String)> {
        // Quiesce: freeze at the next tick boundary, take the ticket.
        // The source books any in-flight grid overrun here, once; the
        // ticket's grid phase tells the target where the next unbooked
        // deadline edge lies.
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        handle
            .send(Cmd::Quiesce {
                hold: quiesce_hold(self.cfg.migration_timeout),
                reply: tx,
            })
            .map_err(|e| ("quiesce", e.to_string()))?;
        let ticket: MigrationTicket = rx
            .recv_timeout(self.cfg.migration_timeout)
            .map_err(|e| ("quiesce", e.to_string()))?;
        self.ops.observe_phase("quiesce", started);

        // Connect: dial the target with per-attempt timeout + backoff.
        let started = Instant::now();
        let mut client = self.connect_target(target).map_err(|e| ("connect", e))?;
        self.ops.observe_phase("connect", started);

        // Transfer: the whole session in one AdoptSession frame.
        let started = Instant::now();
        let create = {
            let (op, payload) =
                crate::protocol::split_frame(spec).map_err(|e| ("transfer", e.message))?;
            Request::decode(op, payload).map_err(|e| ("transfer", e.message))?
        };
        let adopt = Request::AdoptSession {
            create: Box::new(create),
            snapshot: ticket.snapshot,
            baseline: ticket.baseline,
            pending: ticket.pending,
            grid_phase: ticket.grid_phase,
        };
        match client.request(&adopt) {
            Ok(Response::Created { .. }) => {}
            Ok(Response::Error { code, message }) => {
                return Err(("transfer", format!("target rejected ({code:?}): {message}")))
            }
            Ok(other) => return Err(("transfer", format!("unexpected adopt reply: {other:?}"))),
            Err(e) => return Err(("transfer", e.to_string())),
        }
        self.ops.observe_phase("transfer", started);

        // Commit: the target owns the session now — the one state this
        // protocol must never reach is the session ticking in two
        // places, so from here the source always retires; a sluggish
        // shard only degrades the handshake to best-effort.
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        if handle
            .send(Cmd::Retire {
                addr: target.to_string(),
                reply: tx,
            })
            .is_ok()
        {
            let _ = rx.recv_timeout(self.cfg.migration_timeout);
        }
        handle.migration().wait_closed(self.cfg.migration_timeout);
        self.ops.observe_phase("commit", started);
        Ok(())
    }

    /// Dial the migration target, retrying with seeded-jitter backoff.
    /// Every attempt is individually bounded by `migration_timeout`.
    fn connect_target(&self, target: &str) -> Result<Client, String> {
        let policy = &CONNECT_POLICY;
        let mut last = String::new();
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            match Client::connect_with_timeout(target, self.cfg.migration_timeout) {
                Ok(mut c) => {
                    // The transfer reply must also be bounded: a target
                    // that accepts the socket then wedges would
                    // otherwise hold the source quiesced forever.
                    if let Err(e) = c.set_io_timeout(Some(self.cfg.migration_timeout)) {
                        last = e.to_string();
                        continue;
                    }
                    return Ok(c);
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(format!(
            "target {target} unreachable after {} attempts: {last}",
            policy.max_retries + 1
        ))
    }

    /// Control plane: stop admitting sessions, migrate every live one to
    /// `target`, and — once empty — signal the io loop so a CLI server
    /// exits 0. Draining is sticky: a partial drain (some sessions
    /// failed to move) leaves the server refusing creates, still
    /// serving what remains, and the operator retries.
    fn drain_to(&self, target: &str) -> Response {
        if target == self.advertised {
            return Response::Error {
                code: ErrorCode::MigrationFailed,
                message: "drain target is this server".to_string(),
            };
        }
        if self.registry.set_draining() {
            self.ops.drain_started();
        }
        let mut failures = Vec::new();
        for (name, _) in self.registry.list() {
            match self.migrate(&name, target) {
                Response::Redirect { .. } => {}
                Response::Error { message, .. } => failures.push(format!("{name}: {message}")),
                other => failures.push(format!("{name}: unexpected reply {other:?}")),
            }
        }
        if failures.is_empty() {
            // sync: Release pairs with the io loop's Acquire; the loop's
            // shutdown grace pass flushes this reply before teardown.
            self.shutdown.store(true, Ordering::Release);
            Response::Ok
        } else {
            Response::Error {
                code: ErrorCode::MigrationFailed,
                message: format!("drain incomplete: {}", failures.join("; ")),
            }
        }
    }

    /// Server → server: adopt a migrating session — rebuild the
    /// expression from its original create request, restore the quiesced
    /// snapshot, and resume the session with the source's counter
    /// baselines, still-queued inputs, and real-time grid phase.
    fn adopt_session(
        &self,
        create: Request,
        snapshot: Vec<u8>,
        baseline: SessionStats,
        pending: Vec<InputEvent>,
        grid_phase: Option<Duration>,
    ) -> Response {
        let spec = Arc::new(create.encode());
        let (name, pace, mut sim) = match create {
            Request::CreateSession {
                name,
                engine,
                pace,
                source,
                fault_plan,
            } => match self.build_plain(engine, source, &fault_plan) {
                Ok(sim) => (name, pace, sim),
                Err(resp) => return resp,
            },
            Request::CreateShardedSession {
                name,
                pace,
                source,
                fault_plan,
                shards,
            } => match self.build_sharded(source, &fault_plan, shards) {
                Ok(sim) => (name, pace, sim),
                Err(resp) => return resp,
            },
            // Request::decode already rejects other nestings; keep the
            // invariant locally checkable.
            _ => {
                return Response::Error {
                    code: ErrorCode::Protocol,
                    message: "adopt payload must nest a create request".to_string(),
                }
            }
        };
        let snap = match NetworkSnapshot::from_bytes(&snapshot) {
            Ok(s) if s.cores.len() == sim.network().num_cores() => s,
            Ok(s) => {
                return Response::Error {
                    code: ErrorCode::SnapshotRejected,
                    message: format!(
                        "adopted snapshot has {} cores, model builds {}",
                        s.cores.len(),
                        sim.network().num_cores()
                    ),
                }
            }
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::SnapshotRejected,
                    message: e.to_string(),
                }
            }
        };
        sim.restore(&snap);
        self.register(name, pace, sim, spec, baseline, &pending, grid_phase)
    }

    /// Parse and lint a fault plan against this network's grid before
    /// the session exists — a bad plan is rejected, never run.
    fn parse_fault_plan(
        fault_plan: &str,
        net: &Network,
    ) -> Result<Option<tn_core::FaultPlan>, Response> {
        if fault_plan.is_empty() {
            return Ok(None);
        }
        let plan = match tn_core::FaultPlan::parse(fault_plan) {
            Ok(p) => p,
            Err(e) => {
                return Err(Response::Error {
                    code: ErrorCode::ModelRejected,
                    message: format!("fault plan rejected: {e}"),
                })
            }
        };
        if let Err(msg) = tn_core::fault::check_plan(&plan, net.width(), net.height()) {
            return Err(Response::Error {
                code: ErrorCode::ModelRejected,
                message: format!("fault plan rejected: {msg}"),
            });
        }
        Ok(Some(plan))
    }

    /// Admit a configured expression to the shard executor and register
    /// it. `base`/`pending`/`grid_phase` are zero/empty/None for fresh
    /// sessions and carry the source server's state for adopted ones.
    #[allow(clippy::too_many_arguments)]
    fn register(
        &self,
        name: String,
        pace: Pace,
        sim: Box<dyn KernelSession>,
        spec: Arc<Vec<u8>>,
        base: SessionStats,
        pending: &[InputEvent],
        grid_phase: Option<Duration>,
    ) -> Response {
        let session_cfg = SessionConfig {
            pace: if self.cfg.max_speed {
                Pace::MaxSpeed
            } else {
                pace
            },
            tick_period: self.cfg.tick_period,
            idle_timeout: self.cfg.idle_timeout,
            input_capacity: self.cfg.input_capacity,
            output_capacity: self.cfg.output_capacity,
            ..SessionConfig::default()
        };
        let handle =
            match self
                .executor
                .admit(name.clone(), sim, session_cfg, base, pending, grid_phase)
            {
                Ok(h) => h,
                Err(_) => {
                    return Response::Error {
                        code: ErrorCode::Shutdown,
                        message: "executor is shut down".to_string(),
                    }
                }
            };
        match self.registry.insert(handle.clone(), spec) {
            Ok(()) => Response::Created { session: name },
            Err(resp) => {
                // Lost the race (or over budget, or draining): tear the
                // session down.
                let (tx, _rx) = mpsc::channel();
                let _ = handle.send(Cmd::Close { reply: tx });
                resp
            }
        }
    }

    /// Build (and statically verify) the session's network.
    fn build_network(&self, source: ModelSource) -> Result<Network, String> {
        match source {
            ModelSource::Blank {
                width,
                height,
                seed,
            } => NetworkBuilder::new(width, height, seed)
                .build_verified(&LintConfig::default())
                .map(|(net, _)| net)
                .map_err(|e| e.to_string()),
            ModelSource::Model(text) => modelfile::load_verified(&text, &LintConfig::default())
                .map(|(net, _)| net)
                .map_err(|e| e.to_string()),
        }
    }
}

/// One step of incremental frame extraction from a connection's read
/// buffer. Mirrors the old blocking reader's recovery semantics: any
/// malformation whose frame boundary is still known is recoverable.
enum FrameStep {
    /// Not enough buffered bytes yet.
    Need,
    Frame(u8, Vec<u8>),
    Recoverable(ProtocolError),
    /// Malformed beyond resynchronization: answer and close.
    Fatal(ProtocolError),
}

fn take_frame(rbuf: &mut Vec<u8>) -> FrameStep {
    if rbuf.len() < FRAME_HEADER_BYTES {
        return FrameStep::Need;
    }
    let hdr: [u8; FRAME_HEADER_BYTES] = rbuf[..FRAME_HEADER_BYTES].try_into().unwrap();
    let h = tn_core::wire::framed::read_header(&hdr);
    // Decode the length first: as long as it is sane, the frame
    // boundary (payload + CRC trailer) is known and any other
    // malformation is recoverable.
    if h.len > MAX_FRAME_BYTES {
        return FrameStep::Fatal(ProtocolError::new(format!(
            "frame length {} exceeds the {MAX_FRAME_BYTES}-byte cap",
            h.len
        )));
    }
    let total = FRAME_HEADER_BYTES + h.len as usize + FRAME_TRAILER_BYTES;
    if rbuf.len() < total {
        return FrameStep::Need;
    }
    let body = rbuf[FRAME_HEADER_BYTES..total].to_vec();
    rbuf.drain(..total);
    if h.version != PROTOCOL_VERSION {
        return FrameStep::Recoverable(ProtocolError::new(format!(
            "unsupported protocol version {} (this build speaks {PROTOCOL_VERSION})",
            h.version
        )));
    }
    match tn_core::wire::framed::verify_body(&h, &body) {
        Ok(payload) => FrameStep::Frame(h.opcode, payload.to_vec()),
        Err(e) => FrameStep::Recoverable(e.into()),
    }
}

/// One client connection, owned entirely by the io loop: a nonblocking
/// socket, an incremental read buffer, a write buffer, the outbound
/// queue subscribers stream into, and at most one pending request.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Kept so subscriber sinks cloned from it stay connected even
    /// while no subscription exists.
    out_tx: Sender<Outbound>,
    out_rx: Receiver<Outbound>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: Option<Pending>,
    /// Flush the write buffer, then drop the connection.
    closing: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let (out_tx, out_rx) = mpsc::channel();
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            out_tx,
            out_rx,
            wbuf: Vec::new(),
            wpos: 0,
            pending: None,
            closing: false,
            dead: false,
        })
    }

    /// One full service pass; returns whether anything moved.
    fn pass(&mut self, ctx: &Arc<ServerCtx>) -> bool {
        let mut progress = false;
        progress |= self.fill_rbuf();
        progress |= self.parse_frames(ctx);
        progress |= self.resolve_pending(ctx);
        progress |= self.drain_outbound();
        progress |= self.flush();
        progress
    }

    fn push_frame(&mut self, frame: &[u8]) {
        self.wbuf.extend_from_slice(frame);
    }

    fn write_idle(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Nonblocking read into the frame buffer. EOF switches to closing
    /// (flush what is queued, then drop) — the old reader also finished
    /// its in-flight reply before hanging up.
    fn fill_rbuf(&mut self) -> bool {
        if self.closing || self.dead {
            return false;
        }
        let mut progress = false;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }

    /// Parse and dispatch buffered frames — at most one outstanding
    /// request at a time, so replies keep request order.
    fn parse_frames(&mut self, ctx: &Arc<ServerCtx>) -> bool {
        let mut progress = false;
        while self.pending.is_none() && !self.closing && !self.dead {
            match take_frame(&mut self.rbuf) {
                FrameStep::Need => break,
                FrameStep::Frame(opcode, payload) => {
                    progress = true;
                    match Request::decode(opcode, &payload) {
                        Ok(req) => match ctx.dispatch(req, &self.out_tx) {
                            Dispatch::Now(resp) => self.push_frame(&resp.encode()),
                            Dispatch::Wait(p) => self.pending = Some(p),
                        },
                        Err(e) => self.push_frame(
                            &Response::Error {
                                code: ErrorCode::Protocol,
                                message: e.message,
                            }
                            .encode(),
                        ),
                    }
                }
                FrameStep::Recoverable(e) => {
                    progress = true;
                    self.push_frame(
                        &Response::Error {
                            code: ErrorCode::Protocol,
                            message: e.message,
                        }
                        .encode(),
                    );
                }
                FrameStep::Fatal(e) => {
                    progress = true;
                    self.push_frame(
                        &Response::Error {
                            code: ErrorCode::Protocol,
                            message: e.message,
                        }
                        .encode(),
                    );
                    self.closing = true;
                }
            }
        }
        progress
    }

    /// Poll the pending request's reply channel.
    fn resolve_pending(&mut self, ctx: &Arc<ServerCtx>) -> bool {
        let Some(p) = &self.pending else {
            return false;
        };
        let resp = match p.rx.try_recv() {
            Ok(resp) => resp,
            Err(TryRecvError::Empty) => return false,
            Err(TryRecvError::Disconnected) => Response::Error {
                code: ErrorCode::Shutdown,
                message: format!("session '{}' went away mid-request", p.ctx),
            },
        };
        let p = self.pending.take().unwrap();
        // Stream-before-reply ordering: the shard thread pushes every
        // subscribed tick update *before* it sends the reply, so once
        // the reply is visible here, those updates are already queued.
        // Drain them into the write buffer first — clients buffer
        // updates that precede a reply and must see all ticks a RunFor
        // produced before its Ok.
        self.drain_outbound();
        let resp = match p.kind {
            PendingKind::Plain => resp,
            PendingKind::Metrics => match resp {
                Response::MetricsData { mut text } => {
                    // Append the server's control-plane series and the
                    // shard executor's per-shard series to the scrape.
                    text.push_str(&ctx.ops.registry.render_text());
                    text.push_str(&ctx.executor.registry().render_text());
                    Response::MetricsData { text }
                }
                other => other,
            },
            PendingKind::Close(name) => {
                ctx.registry.remove(&name);
                resp
            }
        };
        self.push_frame(&resp.encode());
        true
    }

    /// Move queued outbound frames (subscribed tick updates, redirects)
    /// into the write buffer.
    fn drain_outbound(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.out_rx.try_recv() {
                Ok(Outbound::Frame(frame)) => {
                    self.wbuf.extend_from_slice(&frame);
                    progress = true;
                }
                Ok(Outbound::Close) => {
                    self.closing = true;
                    break;
                }
                Err(_) => break,
            }
        }
        progress
    }

    /// Nonblocking write of whatever the buffer holds.
    fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut progress = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return progress;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.closing {
                let _ = self.stream.flush();
                self.dead = true;
            }
        } else if self.wpos > 64 * 1024 {
            // Reclaim flushed prefix so a long-lived subscriber stream
            // doesn't grow the buffer without bound.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        progress
    }
}

/// Model-checked protocol tests (run with `RUSTFLAGS="--cfg tn_check"`):
/// the session-registry eviction protocol — a session's exit
/// (`closed.store(true, Release)`) racing registry readers — explored
/// across interleavings, plus a small exhaustive DFS configuration for
/// the handle-close vs. command-send race.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiesce_hold_outlasts_the_pre_commit_budget() {
        // The longest `try_migrate` can run before commit: the quiesce
        // reply, 4 connect attempts and the adopt write + reply (7
        // timeouts), plus the backoff sleeps `connect_target` takes.
        let backoff: Duration = (0..CONNECT_POLICY.max_retries)
            .map(|k| CONNECT_POLICY.delay(k))
            .sum();
        for timeout in [
            Duration::from_millis(300),
            Duration::from_secs(10),
            Duration::from_secs(60),
        ] {
            let budget = timeout * 7 + backoff;
            let hold = quiesce_hold(timeout);
            assert!(hold > budget, "T={timeout:?}: hold {hold:?} <= {budget:?}");
        }
    }
}

#[cfg(all(test, tn_check))]
mod model_tests {
    use super::*;
    use crate::session::model_handle;

    fn schedules(default: u64) -> u64 {
        std::env::var("TN_CHECK_SCHEDULES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn blank_spec() -> Arc<Vec<u8>> {
        Arc::new(Vec::new())
    }

    /// A budget-1 registry holding one session whose shard exits
    /// concurrently with a lookup. Whatever the interleaving, once the
    /// close is complete the registry must reap the entry and admit a
    /// same-name replacement — the lazy-eviction contract `ServerCtx::
    /// create_from` depends on.
    fn eviction_race() {
        let reg = Arc::new(Registry::new(1));
        let (h1, closed1, _rx1, _pin1) = model_handle("a");
        reg.insert(h1, blank_spec())
            .expect("first insert fits the budget");
        let closer = tn_check::thread::spawn(move || {
            // The session's exit protocol: flip closed, last.
            closed1.store(true, Ordering::Release);
        });
        let reader = {
            let reg = Arc::clone(&reg);
            tn_check::thread::spawn(move || {
                // A racing lookup sees the session either live or
                // already reaped — both fine; it must never deadlock
                // or observe a half-closed handle that panics.
                if let Some(h) = reg.get("a") {
                    let _ = h.is_closed();
                }
            })
        };
        closer.join().unwrap();
        reader.join().unwrap();
        assert!(
            reg.get("a").is_none(),
            "a closed session must be reaped on the next lookup"
        );
        let (h2, _c2, _rx2, _p2) = model_handle("a");
        reg.insert(h2, blank_spec())
            .expect("eviction must free the budget for a replacement");
    }

    #[test]
    fn model_registry_eviction_races_close() {
        let n = schedules(400);
        let report =
            tn_check::check_random(&tn_check::Config::default(), n, 0x5E55_10E5, eviction_race);
        report.assert_ok();
        assert_eq!(report.schedules, n);
        println!(
            "model_registry_eviction: {} clean schedules",
            report.schedules
        );
    }

    #[test]
    fn model_handle_close_vs_send_dfs() {
        // Smallest config, explored exhaustively: a command send racing
        // the shard's exit (receiver drop, then closed flip). The send
        // may win or lose, but after the close is complete every send
        // must fail cleanly with SessionGone — never panic or hang.
        let report = tn_check::check_dfs(&tn_check::Config::default(), 150_000, || {
            let (h, closed, rx, _pin) = model_handle("s");
            let sender = {
                let h = h.clone();
                tn_check::thread::spawn(move || {
                    let (reply, _keep) = mpsc::channel();
                    let _ = h.send(Cmd::Stats { reply });
                })
            };
            let closer = tn_check::thread::spawn(move || {
                drop(rx); // shard gone
                closed.store(true, Ordering::Release);
            });
            sender.join().unwrap();
            closer.join().unwrap();
            let (reply, _keep) = mpsc::channel();
            assert!(
                h.send(Cmd::Stats { reply }).is_err(),
                "sends after a completed close must report SessionGone"
            );
        });
        report.assert_ok();
        println!(
            "model_close_vs_send_dfs: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }

    #[test]
    fn model_migration_pin_vs_eviction_dfs() {
        // The pin-by-state contract: a migrator pinning the session
        // races the shard's idle-eviction decision (check the pin,
        // then close). All transitions go through one mutex, so the
        // outcomes are exactly two — the pin lands first and the shard
        // observes it (stays alive; here: skips closing), or the close
        // lands first and the pin fails. Never both, never neither.
        let report = tn_check::check_dfs(&tn_check::Config::default(), 150_000, || {
            let (h, closed, _rx, pin) = model_handle("m");
            let driver = {
                let pin = Arc::clone(&pin);
                tn_check::thread::spawn(move || {
                    // Idle-timeout path: evict only if not pinned.
                    if !pin.is_migrating() {
                        pin.close();
                        closed.store(true, Ordering::Release);
                        return true; // evicted
                    }
                    false
                })
            };
            let migrator = {
                let pin = Arc::clone(&pin);
                tn_check::thread::spawn(move || pin.pin())
            };
            let evicted = driver.join().unwrap();
            let pinned = migrator.join().unwrap();
            if pinned && evicted {
                // The one legal overlap: the pin landed *between* the
                // shard's check and its close. The migrator holds the
                // pin but the session is gone — it must be able to see
                // that and abort: the handle reports closed (close
                // precedes the closed flip in the exit protocol).
                assert!(
                    h.is_closed(),
                    "evicted session must be observable as closed by a pin holder"
                );
            }
            if !evicted {
                assert!(pinned, "shard only spares the session for a pin");
            }
        });
        report.assert_ok();
        println!(
            "model_pin_vs_eviction_dfs: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }

    #[test]
    fn model_migration_abort_vs_driver_exit_dfs() {
        // The abort path (unpin) racing the session's exit (close). The
        // pin cell must end CLOSED whatever the order — unpin is a
        // strict MIGRATING→RUNNING edge and can never resurrect a
        // closed cell — and a later migration attempt must fail.
        let report = tn_check::check_dfs(&tn_check::Config::default(), 150_000, || {
            let (_h, _closed, _rx, pin) = model_handle("m");
            assert!(pin.pin(), "fresh session must accept the pin");
            let aborter = {
                let pin = Arc::clone(&pin);
                tn_check::thread::spawn(move || pin.unpin())
            };
            let exiter = {
                let pin = Arc::clone(&pin);
                tn_check::thread::spawn(move || pin.close())
            };
            aborter.join().unwrap();
            exiter.join().unwrap();
            assert!(
                !pin.pin(),
                "a closed session must never accept a new migration pin"
            );
            assert!(!pin.is_migrating(), "closed cell cannot read as migrating");
        });
        report.assert_ok();
        println!(
            "model_abort_vs_exit_dfs: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }

    #[test]
    fn model_registry_drain_vs_create_dfs() {
        // Drain racing a create. Because the draining flag lives inside
        // the session-map mutex, the create either fully lands before
        // the flag flips (drain then migrates it out with the rest) or
        // is rejected with Draining — there is no interleaving where a
        // session is admitted to a drained server unnoticed.
        let report = tn_check::check_dfs(&tn_check::Config::default(), 150_000, || {
            let reg = Arc::new(Registry::new(4));
            let creator = {
                let reg = Arc::clone(&reg);
                tn_check::thread::spawn(move || {
                    let (h, _c, _rx, _p) = model_handle("late");
                    reg.insert(h, Arc::new(Vec::new())).is_ok()
                })
            };
            let drainer = {
                let reg = Arc::clone(&reg);
                tn_check::thread::spawn(move || {
                    reg.set_draining();
                    // What drain migrates out: the sessions present
                    // once the flag is up.
                    reg.list().len()
                })
            };
            let admitted = creator.join().unwrap();
            let seen = drainer.join().unwrap();
            if admitted {
                // An admitted session is visible to the drain sweep or
                // to any retry (draining rejects nothing already in).
                assert_eq!(reg.count(), 1);
            } else {
                assert_eq!(seen, 0, "rejected create must leave nothing behind");
                assert_eq!(reg.count(), 0);
            }
            // Post-drain creates always bounce with Draining.
            let (h2, _c2, _rx2, _p2) = model_handle("after");
            match reg.insert(h2, Arc::new(Vec::new())) {
                Err(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Draining),
                other => panic!("drained registry admitted a create: {other:?}"),
            }
        });
        report.assert_ok();
        println!(
            "model_drain_vs_create_dfs: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }
}
