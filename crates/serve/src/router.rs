//! The sharding frontend: one router process fanning out over N
//! replica `tsda_serve` processes.
//!
//! The router owns no models. It accepts client connections on one
//! address, speaks both wire protocols (through the connection layer
//! it shares with [`crate::server`]), and forwards predict and augment
//! traffic to backend replicas
//! *verbatim* — a v2 frame is relayed as the same bytes it arrived in
//! (see [`proto2::reframe`]), an NDJSON line as the same line — so the
//! router never re-encodes payloads and adds only a routing-header
//! decode per request.
//!
//! # Placement and routing
//!
//! Each replica declares the models it serves ([`ReplicaSpec`]); a
//! predict is routed among the healthy replicas serving its model by
//! the configured [`RoutePolicy`]:
//!
//! * [`RoutePolicy::LeastLoaded`] — fewest requests currently in
//!   flight through this router (ties → lowest replica index).
//! * [`RoutePolicy::Hash`] — rendezvous (highest-random-weight)
//!   hashing of the request's series-content key, so identical series
//!   always land on the same replica while replica loss only remaps
//!   that replica's share.
//!
//! # Health and restarts
//!
//! Replicas the router spawned ([`ReplicaSpec::Spawn`]) are watched by
//! a monitor thread: a dead process is respawned, its new ephemeral
//! address learned from the `listening on <addr>` line every
//! `tsda_serve` prints, readiness-probed (the same ping probe as
//! `--wait-ready`), and put back into rotation under a bumped
//! generation so stale per-connection backend sockets are discarded.
//! External replicas ([`ReplicaSpec::External`]) are probed back to
//! healthy but never restarted. A forward that fails over marks the
//! replica unhealthy immediately — the client's request is retried on
//! the next candidate in the same call, so a replica crash under load
//! costs a failover, not a lost request.
//!
//! # Refusals
//!
//! Router-level admission control ([`crate::admission`]) refuses with
//! `throttled` + `retry_ms` before any forwarding happens; replica
//! refusals (`overloaded`, errors) are relayed verbatim. When no
//! healthy replica serves a model the router answers a plain error —
//! the retrying client treats it like any refusal and tries again,
//! which rides out the restart window.

use crate::admission::{Admission, AdmissionConfig};
use crate::client::{wait_ready, Proto};
use crate::conn::{self, Handler};
use crate::dispatch::{Reply, Request};
use crate::proto2::{self, Routing};
use crate::protocol;
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsda_core::TsdaError;

/// How predicts are spread across the replicas serving a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Fewest in-flight requests wins (ties → lowest index).
    #[default]
    LeastLoaded,
    /// Rendezvous hashing of the series content key.
    Hash,
}

impl RoutePolicy {
    /// Parse a `--route` flag value.
    pub fn from_flag(s: &str) -> Result<Self, String> {
        match s {
            "least-loaded" => Ok(Self::LeastLoaded),
            "hash" => Ok(Self::Hash),
            other => Err(format!("unknown route policy {other:?} (expected least-loaded|hash)")),
        }
    }

    /// The canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::LeastLoaded => "least-loaded",
            Self::Hash => "hash",
        }
    }
}

/// One replica the router fronts.
#[derive(Debug, Clone)]
pub enum ReplicaSpec {
    /// A `tsda_serve` process the router spawns, restarts, and owns.
    Spawn {
        /// Path to the server binary.
        bin: String,
        /// Full argument list (should bind port 0; the router learns
        /// the ephemeral address from the readiness line).
        args: Vec<String>,
        /// Models this replica serves (shard placement).
        models: Vec<String>,
    },
    /// An already-running server the router only routes to.
    External {
        /// The replica's address.
        addr: String,
        /// Models this replica serves.
        models: Vec<String>,
    },
}

impl ReplicaSpec {
    fn models(&self) -> &[String] {
        match self {
            Self::Spawn { models, .. } | Self::External { models, .. } => models,
        }
    }
}

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Frontend bind address; port 0 for ephemeral.
    pub addr: String,
    /// The replica fleet.
    pub replicas: Vec<ReplicaSpec>,
    /// Predict routing policy.
    pub policy: RoutePolicy,
    /// Optional router-level per-client admission quota.
    pub admission: Option<AdmissionConfig>,
    /// Monitor cadence for health probes and restart checks.
    pub health_interval: Duration,
    /// Readiness budget when starting or restarting a replica.
    pub wait_ready_secs: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            replicas: Vec::new(),
            policy: RoutePolicy::default(),
            admission: None,
            health_interval: Duration::from_millis(100),
            wait_ready_secs: 120,
        }
    }
}

/// Runtime state for one replica.
///
/// lock-order: `child` and `addr` are leaf locks — a thread holds at
/// most one of them at a time (always in sequential, non-nested
/// scopes), never across IO or process reaping, and never while holding
/// any other lock. The L1/L2 lints enforce this; widen a scope and the
/// analyzer fails the build with the offending chain.
struct Replica {
    index: usize,
    spec: ReplicaSpec,
    /// Current address (changes across restarts for spawned replicas).
    addr: Mutex<String>,
    /// In rotation? Flipped off by failed forwards and process exits,
    /// back on by the monitor's successful probe.
    healthy: AtomicBool,
    /// Bumped on every restart so per-connection backend sockets to
    /// the old process are discarded.
    generation: AtomicU64,
    /// Requests currently being forwarded through this router.
    in_flight: AtomicU64,
    /// Requests ever forwarded to this replica.
    forwarded: AtomicU64,
    /// Times the monitor respawned this replica.
    restarts: AtomicU64,
    /// The owned process, for spawned replicas.
    child: Mutex<Option<Child>>,
}

impl Replica {
    fn current_addr(&self) -> String {
        match self.addr.lock() {
            Ok(a) => a.clone(),
            Err(_) => String::new(),
        }
    }

    fn serves(&self, model: &str) -> bool {
        self.spec.models().iter().any(|m| m == model)
    }

    fn describe(&self) -> Value {
        Value::Object(vec![
            ("index".into(), Value::Num(self.index as f64)),
            ("addr".into(), Value::Str(self.current_addr())),
            ("healthy".into(), Value::Bool(self.healthy.load(Ordering::Relaxed))),
            (
                "models".into(),
                Value::Array(
                    self.spec.models().iter().map(|m| Value::Str(m.clone())).collect(),
                ),
            ),
            ("forwarded".into(), Value::Num(self.forwarded.load(Ordering::Relaxed) as f64)),
            ("restarts".into(), Value::Num(self.restarts.load(Ordering::Relaxed) as f64)),
            ("in_flight".into(), Value::Num(self.in_flight.load(Ordering::Relaxed) as f64)),
        ])
    }
}

/// Router-level counters for the locally-answered `stats` op.
#[derive(Default)]
struct RouterStats {
    requests: AtomicU64,
    forwarded: AtomicU64,
    throttled: AtomicU64,
    failovers: AtomicU64,
    errors: AtomicU64,
}

/// Everything the connection handlers share.
struct RouterCtx {
    replicas: Vec<Replica>,
    policy: RoutePolicy,
    admission: Option<Admission>,
    stats: RouterStats,
    started: Instant,
}

impl RouterCtx {
    fn snapshot(&self) -> Value {
        Value::Object(vec![
            ("role".into(), Value::Str("router".to_string())),
            ("policy".into(), Value::Str(self.policy.name().to_string())),
            ("uptime_s".into(), Value::Num(self.started.elapsed().as_secs_f64())),
            (
                "requests".into(),
                Value::Num(self.stats.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "forwarded".into(),
                Value::Num(self.stats.forwarded.load(Ordering::Relaxed) as f64),
            ),
            (
                "throttled".into(),
                Value::Num(self.stats.throttled.load(Ordering::Relaxed) as f64),
            ),
            (
                "failovers".into(),
                Value::Num(self.stats.failovers.load(Ordering::Relaxed) as f64),
            ),
            ("errors".into(), Value::Num(self.stats.errors.load(Ordering::Relaxed) as f64)),
            (
                "replicas".into(),
                Value::Array(self.replicas.iter().map(Replica::describe).collect()),
            ),
        ])
    }

    /// Pick the best healthy replica that is not in `tried`, under the
    /// routing policy. `model` narrows to the replicas sharded for it;
    /// `None` considers the whole fleet (augment pipelines are loaded
    /// on every replica, not sharded). `key` drives rendezvous hashing.
    fn pick(&self, model: Option<&str>, key: u64, tried: &[usize]) -> Option<&Replica> {
        let candidates = self.replicas.iter().filter(|r| {
            model.is_none_or(|m| r.serves(m))
                && r.healthy.load(Ordering::Relaxed)
                && !tried.contains(&r.index)
        });
        match self.policy {
            RoutePolicy::LeastLoaded => {
                candidates.min_by_key(|r| (r.in_flight.load(Ordering::Relaxed), r.index))
            }
            RoutePolicy::Hash => candidates.max_by_key(|r| {
                // Rendezvous: score every candidate by a hash of
                // (content key, replica index); the max wins. Stable
                // under membership change except for the lost share.
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&key.to_le_bytes());
                bytes[8..].copy_from_slice(&(r.index as u64).to_le_bytes());
                (proto2::fnv1a(&bytes), r.index)
            }),
        }
    }
}

/// A pooled connection from one frontend handler to one replica.
struct Backend {
    generation: u64,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Backend {
    fn connect(addr: &str, proto: Proto, generation: u64) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let timeout = Some(Duration::from_secs(10));
        stream.set_read_timeout(timeout).map_err(|e| format!("set timeout: {e}"))?;
        stream.set_write_timeout(timeout).map_err(|e| format!("set timeout: {e}"))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
        let mut backend = Self { generation, writer: stream, reader };
        if proto == Proto::V2 {
            backend
                .writer
                .write_all(&proto2::PREAMBLE)
                .map_err(|e| format!("send preamble: {e}"))?;
        }
        Ok(backend)
    }

    /// Relay one NDJSON line; returns the raw reply line (no newline).
    fn forward_line(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
        if n == 0 || !reply.ends_with('\n') {
            return Err("replica closed mid-reply".into());
        }
        reply.truncate(reply.trim_end_matches(['\r', '\n']).len());
        Ok(reply)
    }

    /// Relay one v2 frame; returns the full reply frame bytes
    /// (length prefix included) for verbatim relay to the client.
    fn forward_frame(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.writer.write_all(frame).map_err(|e| format!("send: {e}"))?;
        let mut len_bytes = [0u8; 4];
        self.reader.read_exact(&mut len_bytes).map_err(|e| format!("recv: {e}"))?;
        let len =
            proto2::checked_len(u32::from_le_bytes(len_bytes), proto2::MAX_FRAME, "reply frame")?;
        if len < 5 {
            return Err(format!("bad reply frame length {len}"));
        }
        let mut full = Vec::with_capacity(4 + len);
        full.extend_from_slice(&len_bytes);
        full.resize(4 + len, 0);
        self.reader.read_exact(&mut full[4..]).map_err(|e| format!("recv: {e}"))?;
        Ok(full)
    }
}

/// Per-connection pool of backend sockets, keyed by replica index and
/// discarded when the replica's generation moves on (restart).
struct BackendPool {
    proto: Proto,
    conns: BTreeMap<usize, Backend>,
}

impl BackendPool {
    fn new(proto: Proto) -> Self {
        Self { proto, conns: BTreeMap::new() }
    }

    fn acquire(&mut self, replica: &Replica) -> Result<&mut Backend, String> {
        let generation = replica.generation.load(Ordering::Relaxed);
        let stale = self
            .conns
            .get(&replica.index)
            .is_some_and(|b| b.generation != generation);
        if stale {
            self.conns.remove(&replica.index);
        }
        if !self.conns.contains_key(&replica.index) {
            let backend = Backend::connect(&replica.current_addr(), self.proto, generation)?;
            self.conns.insert(replica.index, backend);
        }
        self.conns
            .get_mut(&replica.index)
            .ok_or_else(|| "backend connection missing".to_string())
    }

    fn drop_conn(&mut self, index: usize) {
        self.conns.remove(&index);
    }
}

/// The router: start with [`Router::start`].
pub struct Router;

/// A running router: frontend address plus the stop lever.
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    ctx: Arc<RouterCtx>,
    accept_thread: Option<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound frontend address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total restarts across the fleet.
    pub fn restarts_total(&self) -> u64 {
        self.ctx
            .replicas
            .iter()
            .map(|r| r.restarts.load(Ordering::Relaxed))
            .sum()
    }

    /// The router-level stats snapshot (same payload as the `stats` op).
    pub fn snapshot(&self) -> Value {
        self.ctx.snapshot()
    }

    /// Kill replica `index`'s process (chaos helper: simulates a crash
    /// the health monitor must repair). Returns false for external or
    /// already-dead replicas.
    pub fn kill_replica(&self, index: usize) -> bool {
        let Some(replica) = self.ctx.replicas.get(index) else {
            return false;
        };
        // Take the child out of the slot and drop the lock before the
        // kill/reap syscalls: `wait` can stall, and the health monitor
        // must stay able to lock `child` meanwhile. The empty slot
        // reads as "exited" on the monitor's next tick, which respawns
        // spawned replicas exactly as the reaped-exit path does.
        let taken = match replica.child.lock() {
            Ok(mut guard) => guard.take(),
            Err(_) => return false,
        };
        match taken {
            Some(mut child) => {
                let killed = child.kill().is_ok();
                // Reap immediately so the monitor sees the exit on its
                // next tick rather than a zombie.
                let _status = child.wait();
                killed
            }
            None => false,
        }
    }

    /// Stop the frontend, join every connection, then stop the fleet's
    /// spawned replicas.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        conn::wake_accept(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        // The monitor is already joined, so nothing respawns: take each
        // child out of its slot and reap with no lock held.
        for replica in self.ctx.replicas.iter() {
            let taken = match replica.child.lock() {
                Ok(mut guard) => guard.take(),
                Err(_) => None,
            };
            if let Some(child) = taken {
                kill_and_reap(child);
            }
        }
    }
}

impl Router {
    /// Spawn/attach every replica, wait for readiness, bind the
    /// frontend, and start routing.
    ///
    /// Every spawned replica is started before any is waited on, so
    /// their model loads overlap; then each address is learned and
    /// probed in index order. If any step fails (a replica does not
    /// start or become ready, the frontend cannot bind), every replica
    /// spawned so far is killed and reaped before the error returns.
    pub fn start(config: RouterConfig) -> Result<RouterHandle, TsdaError> {
        if config.replicas.is_empty() {
            return Err(TsdaError::InvalidParameter("router needs at least one replica".into()));
        }
        let replica_err =
            |index: usize, e: String| TsdaError::InvalidParameter(format!("replica {index}: {e}"));
        let mut starting = Starting(Vec::with_capacity(config.replicas.len()));
        for (index, spec) in config.replicas.iter().enumerate() {
            let child = match spec {
                ReplicaSpec::Spawn { bin, args, .. } => {
                    Some(launch_replica(bin, args).map_err(|e| replica_err(index, e))?)
                }
                ReplicaSpec::External { .. } => None,
            };
            starting.0.push(child);
        }
        let mut addrs = Vec::with_capacity(config.replicas.len());
        for (index, (spec, slot)) in config.replicas.iter().zip(&mut starting.0).enumerate() {
            let addr = match (slot, spec) {
                (Some(child), _) => listening_addr(child),
                (None, ReplicaSpec::External { addr, .. }) => Ok(addr.clone()),
                (None, ReplicaSpec::Spawn { .. }) => Err("spawned replica has no process".into()),
            }
            .and_then(|addr| wait_ready(&addr, config.wait_ready_secs).map(|()| addr))
            .map_err(|e| replica_err(index, e))?;
            addrs.push(addr);
        }

        let addr_spec =
            if config.addr.is_empty() { "127.0.0.1:0" } else { config.addr.as_str() };
        let listener = TcpListener::bind(addr_spec)
            .map_err(|e| TsdaError::InvalidParameter(format!("bind {addr_spec}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| TsdaError::InvalidParameter(format!("local_addr: {e}")))?;

        // Every replica is ready: the processes pass from the start
        // guard to the fleet. An empty model list is legal: a replica
        // may serve only augmentation pipelines, which are unsharded
        // (any replica answers any pipeline), so the router needs no
        // map for them.
        let replicas = config
            .replicas
            .iter()
            .zip(addrs)
            .zip(starting.0.iter_mut())
            .enumerate()
            .map(|(index, ((spec, addr), slot))| Replica {
                index,
                spec: spec.clone(),
                addr: Mutex::new(addr),
                healthy: AtomicBool::new(true),
                generation: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                forwarded: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                child: Mutex::new(slot.take()),
            })
            .collect();
        let ctx = Arc::new(RouterCtx {
            replicas,
            policy: config.policy,
            admission: config.admission.map(Admission::new),
            stats: RouterStats::default(),
            started: Instant::now(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        // From here a failure stops the fleet as a shutdown does.
        let mut handle = RouterHandle {
            addr,
            shutdown: Arc::clone(&shutdown),
            ctx: Arc::clone(&ctx),
            accept_thread: None,
            health_thread: None,
        };

        let health_thread = {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            let interval = config.health_interval;
            let ready_secs = config.wait_ready_secs;
            std::thread::Builder::new()
                .name("tsda-router-health".into())
                .spawn(move || health_loop(&ctx, &shutdown, interval, ready_secs))
        };
        match health_thread {
            Ok(t) => handle.health_thread = Some(t),
            Err(e) => {
                handle.shutdown();
                return Err(TsdaError::InvalidParameter(format!("spawn health thread: {e}")));
            }
        }

        let accept_thread = {
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("tsda-router-accept".into())
                .spawn(move || {
                    let (conn_ctx, conn_shutdown) = (Arc::clone(&ctx), Arc::clone(&shutdown));
                    conn::accept_loop(&listener, &shutdown, "tsda-router-conn", move |stream| {
                        let mut conn = RouterConn {
                            ctx: &conn_ctx,
                            peer: conn::peer_ip(&stream),
                            lines: BackendPool::new(Proto::Ndjson),
                            frames: BackendPool::new(Proto::V2),
                        };
                        conn::serve_conn(stream, &mut conn, &conn_shutdown, None);
                    });
                })
        };
        match accept_thread {
            Ok(t) => handle.accept_thread = Some(t),
            Err(e) => {
                handle.shutdown();
                return Err(TsdaError::InvalidParameter(format!("spawn accept thread: {e}")));
            }
        }
        Ok(handle)
    }
}

/// Replica processes [`Router::start`] has spawned but not yet handed
/// to the fleet. Dropping it kills and reaps every process still held,
/// so a failed start leaves no replica running.
struct Starting(Vec<Option<Child>>);

impl Drop for Starting {
    fn drop(&mut self) {
        for child in self.0.iter_mut().filter_map(Option::take) {
            kill_and_reap(child);
        }
    }
}

fn kill_and_reap(mut child: Child) {
    let _killed = child.kill().is_ok();
    let _status = child.wait();
}

/// Spawn one replica process and learn its address (the monitor's
/// respawn; [`Router::start`] runs the two halves fleet-wide).
fn spawn_replica(bin: &str, args: &[String]) -> Result<(Child, String), String> {
    let mut child = launch_replica(bin, args)?;
    match listening_addr(&mut child) {
        Ok(addr) => Ok((child, addr)),
        Err(e) => {
            kill_and_reap(child);
            Err(e)
        }
    }
}

/// Start one replica process with its stdout piped to the router.
fn launch_replica(bin: &str, args: &[String]) -> Result<Child, String> {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))
}

/// Learn a launched replica's address from its `listening on <addr>`
/// readiness line. The remaining stdout is drained by a detached thread
/// so the child never blocks on a full pipe. On error the caller kills
/// and reaps the child.
fn listening_addr(child: &mut Child) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("replica stdout not captured")?;
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                // Child exited before becoming ready (bad flags, bind
                // failure, …). Reap it and surface the failure.
                let status = child.wait().map(|s| s.to_string()).unwrap_or_default();
                return Err(format!("replica exited before readiness ({status})"));
            }
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix("listening on ") {
                    break rest.trim().to_string();
                }
            }
            Err(e) => return Err(format!("read replica stdout: {e}")),
        }
    };
    if std::thread::Builder::new()
        .name("tsda-replica-drain".into())
        .spawn(move || {
            let _copied = std::io::copy(&mut reader, &mut std::io::sink());
        })
        .is_err()
    {
        // Draining is best-effort; a missing drain thread only matters
        // if the replica logs more than the pipe buffer.
    }
    Ok(addr)
}

/// The monitor: reap and respawn dead spawned replicas, probe unhealthy
/// ones back into rotation.
fn health_loop(
    ctx: &RouterCtx,
    shutdown: &AtomicBool,
    interval: Duration,
    ready_secs: u64,
) {
    while !shutdown.load(Ordering::Relaxed) {
        for replica in ctx.replicas.iter() {
            check_replica(replica, shutdown, ready_secs);
        }
        std::thread::sleep(interval);
    }
}

/// One monitor pass over one replica.
fn check_replica(replica: &Replica, shutdown: &AtomicBool, ready_secs: u64) {
    // Detect process death (spawned replicas only).
    let exited = match replica.child.lock() {
        Ok(mut guard) => match guard.as_mut() {
            Some(child) => match child.try_wait() {
                Ok(Some(_status)) => {
                    *guard = None;
                    true
                }
                Ok(None) => false,
                Err(_) => false,
            },
            None => matches!(replica.spec, ReplicaSpec::Spawn { .. }),
        },
        Err(_) => false,
    };
    if exited {
        replica.healthy.store(false, Ordering::Relaxed);
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        if let ReplicaSpec::Spawn { bin, args, .. } = &replica.spec {
            if let Ok((child, addr)) = spawn_replica(bin, args) {
                // lock-order: child and addr are taken in sequential
                // scopes, never nested. Pair atomicity is not needed —
                // only this monitor thread writes either slot, and the
                // replica stays out of rotation until wait_ready below
                // re-admits it.
                if let Ok(mut child_guard) = replica.child.lock() {
                    *child_guard = Some(child);
                }
                if let Ok(mut addr_guard) = replica.addr.lock() {
                    *addr_guard = addr;
                }
                // New process: invalidate pooled connections first,
                // then let readiness probing re-admit the replica.
                replica.generation.fetch_add(1, Ordering::Relaxed);
                replica.restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    if !replica.healthy.load(Ordering::Relaxed) && !shutdown.load(Ordering::Relaxed) {
        let addr = replica.current_addr();
        if !addr.is_empty() && wait_ready(&addr, ready_secs.min(5)).is_ok() {
            replica.healthy.store(true, Ordering::Relaxed);
        }
    }
}

/// One frontend connection: the fleet it routes over, the client's
/// admission key, and its pooled backend sockets for each protocol.
struct RouterConn<'a> {
    ctx: &'a RouterCtx,
    peer: String,
    lines: BackendPool,
    frames: BackendPool,
}

impl Handler for RouterConn<'_> {
    fn answer_line(&mut self, line: &str, out: &mut String) {
        let routed = match protocol::parse_request(line) {
            Ok(request) => {
                self.ctx.route(&self.peer, &mut self.lines, line_routing(request), |b| {
                    b.forward_line(line)
                })
            }
            Err((id, message)) => Err(self.ctx.refuse(id, message)),
        };
        match routed {
            Ok(relayed) => out.push_str(&relayed),
            Err(reply) => protocol::encode_reply_into(out, &reply),
        }
    }

    fn answer_frame(&mut self, raw: &[u8], out: &mut Vec<u8>) {
        let routing =
            proto2::check_frame(raw).map_err(|msg| (0, msg)).and_then(proto2::decode_routing);
        let routed = match routing {
            Ok(routing) => {
                // Relayed as the exact bytes that arrived.
                let frame = proto2::reframe(raw);
                self.ctx.route(&self.peer, &mut self.frames, routing, |b| b.forward_frame(&frame))
            }
            Err((id, message)) => Err(self.ctx.refuse(id, message)),
        };
        match routed {
            Ok(relayed) => out.extend_from_slice(&relayed),
            Err(reply) => proto2::encode_reply_into(out, &reply),
        }
    }

    fn errors(&self) -> &AtomicU64 {
        &self.ctx.stats.errors
    }
}

/// The routing header of a parsed NDJSON request: the fields
/// [`proto2::decode_routing`] reads off a v2 frame, with the content
/// key hashed over the series text.
fn line_routing(request: Request<String>) -> Routing {
    match request {
        Request::Predict { id, model, series } => {
            Routing::Predict { id, model, key: proto2::fnv1a(series.as_bytes()) }
        }
        Request::Augment { id, pipeline, series, .. } => {
            Routing::Augment { id, pipeline, key: proto2::fnv1a(series.as_bytes()) }
        }
        Request::Stats { id } => Routing::Stats { id },
        Request::List { id } => Routing::List { id },
        Request::Ping { id } => Routing::Ping { id },
    }
}

impl RouterCtx {
    /// The routing handler of both protocols. Predicts and augments are
    /// admitted, then relayed verbatim by `forward` to a replica picked
    /// by the policy, failing over across candidates; `list` goes to
    /// any healthy replica. `Ok` is the replica's reply, to relay as
    /// is; `Err` is a reply the router answers itself — `stats`,
    /// `ping`, and every refusal.
    fn route<T>(
        &self,
        peer: &str,
        pool: &mut BackendPool,
        routing: Routing,
        forward: impl FnMut(&mut Backend) -> Result<T, String>,
    ) -> Result<T, Reply> {
        let (id, model, key) = match routing {
            Routing::Predict { id, model, key } => (id, Some(model), key),
            // Pipelines are not sharded: every replica loads the same
            // TOML, so any healthy replica can answer. The key keeps
            // hash routing sticky per sample.
            Routing::Augment { id, key, .. } => (id, None, key),
            Routing::Stats { id } => return Err(Reply::Result { id, value: self.snapshot() }),
            Routing::Ping { id } => {
                return Err(Reply::Result { id, value: Value::Str("pong".into()) });
            }
            // Any healthy replica can describe its models; aggregate
            // placement lives in the stats snapshot.
            Routing::List { id } => {
                return forward_any(self, pool, forward).map_err(|msg| self.refuse(id, msg));
            }
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(retry_ms) = self.admission.as_ref().and_then(|adm| adm.admit(peer).err()) {
            self.stats.throttled.fetch_add(1, Ordering::Relaxed);
            return Err(Reply::Throttled { id, retry_ms });
        }
        forward_with_failover(self, pool, model.as_deref(), key, forward)
            .map_err(|msg| self.refuse(id, msg))
    }

    /// Count a refusal in `errors` and build its reply.
    fn refuse(&self, id: u64, message: String) -> Reply {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        Reply::Error { id, message }
    }
}

/// Forward one request to the best replica for `model`, failing over
/// across every healthy candidate. A replica whose forward fails is
/// marked unhealthy (the monitor probes or restarts it back) and its
/// pooled socket dropped. `Err` only when every candidate failed.
fn forward_with_failover<T>(
    ctx: &RouterCtx,
    pool: &mut BackendPool,
    model: Option<&str>,
    key: u64,
    mut send: impl FnMut(&mut Backend) -> Result<T, String>,
) -> Result<T, String> {
    let mut tried = Vec::new();
    let mut last_err = match model {
        Some(m) => format!("no healthy replica serves model {m:?}"),
        None => "no healthy replica".to_string(),
    };
    while let Some(replica) = ctx.pick(model, key, &tried) {
        tried.push(replica.index);
        replica.in_flight.fetch_add(1, Ordering::Relaxed);
        let outcome = pool.acquire(replica).and_then(&mut send);
        replica.in_flight.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(reply) => {
                replica.forwarded.fetch_add(1, Ordering::Relaxed);
                ctx.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                if tried.len() > 1 {
                    ctx.stats.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(reply);
            }
            Err(e) => {
                // The replica is gone or misbehaving: out of rotation
                // until the monitor re-admits it, and this socket can
                // never be trusted again (a half-read reply desyncs).
                replica.healthy.store(false, Ordering::Relaxed);
                pool.drop_conn(replica.index);
                last_err = format!("replica {}: {e}", replica.index);
            }
        }
    }
    Err(last_err)
}

/// Forward to any healthy replica (for model-agnostic ops like `list`).
fn forward_any<T>(
    ctx: &RouterCtx,
    pool: &mut BackendPool,
    mut send: impl FnMut(&mut Backend) -> Result<T, String>,
) -> Result<T, String> {
    let mut tried = Vec::new();
    let mut last_err = "no healthy replica".to_string();
    loop {
        let next = ctx
            .replicas
            .iter()
            .find(|r| r.healthy.load(Ordering::Relaxed) && !tried.contains(&r.index));
        let Some(replica) = next else {
            return Err(last_err);
        };
        tried.push(replica.index);
        match pool.acquire(replica).and_then(&mut send) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                replica.healthy.store(false, Ordering::Relaxed);
                pool.drop_conn(replica.index);
                last_err = format!("replica {}: {e}", replica.index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_policy_flags_round_trip() {
        assert_eq!(RoutePolicy::from_flag("least-loaded").unwrap(), RoutePolicy::LeastLoaded);
        assert_eq!(RoutePolicy::from_flag("hash").unwrap(), RoutePolicy::Hash);
        assert!(RoutePolicy::from_flag("nope").is_err());
        assert_eq!(RoutePolicy::Hash.name(), "hash");
    }

    fn test_ctx(policy: RoutePolicy, n: usize, models: &[&str]) -> RouterCtx {
        let replicas = (0..n)
            .map(|index| Replica {
                index,
                spec: ReplicaSpec::External {
                    addr: format!("127.0.0.1:{}", 20000 + index),
                    models: models.iter().map(|m| m.to_string()).collect(),
                },
                addr: Mutex::new(format!("127.0.0.1:{}", 20000 + index)),
                healthy: AtomicBool::new(true),
                generation: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                forwarded: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                child: Mutex::new(None),
            })
            .collect();
        RouterCtx {
            replicas,
            policy,
            admission: None,
            stats: RouterStats::default(),
            started: Instant::now(),
        }
    }

    #[test]
    fn least_loaded_picks_the_idle_replica() {
        let ctx = test_ctx(RoutePolicy::LeastLoaded, 3, &["rocket"]);
        ctx.replicas[0].in_flight.store(5, Ordering::Relaxed);
        ctx.replicas[1].in_flight.store(1, Ordering::Relaxed);
        ctx.replicas[2].in_flight.store(9, Ordering::Relaxed);
        assert_eq!(ctx.pick(Some("rocket"), 0, &[]).map(|r| r.index), Some(1));
        // Skipping the best candidate falls back to the next-least.
        assert_eq!(ctx.pick(Some("rocket"), 0, &[1]).map(|r| r.index), Some(0));
        // Unknown model: nothing serves it.
        assert_eq!(ctx.pick(Some("nope"), 0, &[]).map(|r| r.index), None);
    }

    #[test]
    fn unhealthy_replicas_are_never_picked() {
        let ctx = test_ctx(RoutePolicy::LeastLoaded, 2, &["rocket"]);
        ctx.replicas[0].healthy.store(false, Ordering::Relaxed);
        assert_eq!(ctx.pick(Some("rocket"), 0, &[]).map(|r| r.index), Some(1));
        ctx.replicas[1].healthy.store(false, Ordering::Relaxed);
        assert!(ctx.pick(Some("rocket"), 0, &[]).is_none());
    }

    #[test]
    fn rendezvous_hash_is_sticky_and_spreads() {
        let ctx = test_ctx(RoutePolicy::Hash, 4, &["rocket"]);
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..256u64 {
            let a = ctx.pick(Some("rocket"), key, &[]).map(|r| r.index);
            let b = ctx.pick(Some("rocket"), key, &[]).map(|r| r.index);
            assert_eq!(a, b, "same key must route identically");
            seen.insert(a);
        }
        assert!(seen.len() >= 3, "256 keys should spread over ≥3 of 4 replicas, got {seen:?}");
        // Losing a replica only remaps its own share.
        let key = 42;
        let before = ctx.pick(Some("rocket"), key, &[]).map(|r| r.index).unwrap();
        let other_key = (0..256u64)
            .find(|k| ctx.pick(Some("rocket"), *k, &[]).map(|r| r.index) != Some(before))
            .unwrap();
        let other_before = ctx.pick(Some("rocket"), other_key, &[]).map(|r| r.index);
        ctx.replicas[before].healthy.store(false, Ordering::Relaxed);
        assert_ne!(ctx.pick(Some("rocket"), key, &[]).map(|r| r.index), Some(before));
        assert_eq!(ctx.pick(Some("rocket"), other_key, &[]).map(|r| r.index), other_before);
    }

    #[test]
    fn snapshot_describes_the_fleet() {
        let ctx = test_ctx(RoutePolicy::LeastLoaded, 2, &["rocket", "inception"]);
        ctx.stats.requests.store(7, Ordering::Relaxed);
        let snap = ctx.snapshot();
        assert_eq!(snap.get("role").and_then(Value::as_str), Some("router"));
        assert_eq!(snap.get("requests").and_then(Value::as_f64), Some(7.0));
        let replicas = match snap.get("replicas") {
            Some(Value::Array(a)) => a,
            other => panic!("replicas not an array: {other:?}"),
        };
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[0].get("healthy"), Some(&Value::Bool(true)));
    }
}
