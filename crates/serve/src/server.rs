//! The server: bind, start the batch lanes, and serve connections
//! until shutdown.
//!
//! `serve` binds, spawns the batch workers and the accept thread, and
//! returns a [`ServerHandle`] immediately — callers (the `tsda_serve`
//! bin, the smoke test) decide when to stop by flipping the handle's
//! shutdown flag. Connections run the shared connection layer
//! (`conn`) with the op dispatch ([`crate::dispatch`]) as their
//! handler, so both wire protocols answer through the same code.
//!
//! Shutdown drains: every connection answers each complete request it
//! has already received before closing, and the batch workers run
//! until every queue is empty — a request the server *accepted* is a
//! request it answers, even under shutdown.
//!
//! When [`ServerConfig::faults`] carries a
//! [`FaultPlan`](crate::faults::FaultPlan), connections corrupt request
//! bytes and delay/tear/drop response writes, and the lanes stall
//! workers and shed submits, on the plan's deterministic schedule (see
//! [`crate::faults`]). When [`ServerConfig::admission`] is set, predict
//! and augment requests pass a per-client token bucket first and may be
//! refused with `throttled` replies (see [`crate::admission`]).

use crate::admission::{Admission, AdmissionConfig};
use crate::batcher::{BatchConfig, Batcher};
use crate::conn;
use crate::dispatch::Dispatch;
use crate::faults::FaultPlan;
use crate::pipelines::PipelineRegistry;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tsda_core::TsdaError;

/// Server knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Micro-batcher flush policy.
    pub batch: BatchConfig,
    /// Optional deterministic fault-injection plan (None = fault-free).
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional per-client admission quota (None = admit everything).
    pub admission: Option<AdmissionConfig>,
    /// Named augmentation pipelines served through the `augment` op
    /// (None = the op answers "unknown pipeline" for every name).
    pub pipelines: Option<Arc<PipelineRegistry>>,
}

impl ServerConfig {
    /// The default production config on a concrete bind address.
    pub fn on(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), ..Self::default() }
    }
}

/// A running server: the bound address plus the stop lever.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters for this server.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Request shutdown and block until the accept loop, connection
    /// handlers, and batch workers have drained. Every request already
    /// read from a socket is answered before its connection closes;
    /// every job already queued is predicted before its worker exits.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        conn::wake_accept(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// What every connection of one server shares.
struct State {
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    batcher: Batcher,
    admission: Option<Admission>,
    faults: Option<Arc<FaultPlan>>,
}

/// Bind and start serving. Returns once the socket is listening; the
/// accept loop, connection handlers, and batch workers all run on
/// background threads until [`ServerHandle::shutdown`].
pub fn serve(registry: ModelRegistry, config: ServerConfig) -> Result<ServerHandle, TsdaError> {
    if registry.is_empty() && config.pipelines.as_ref().is_none_or(|p| p.is_empty()) {
        return Err(TsdaError::InvalidParameter(
            "serve needs at least one model or augmentation pipeline".into(),
        ));
    }
    let addr_spec = if config.addr.is_empty() { "127.0.0.1:7878" } else { config.addr.as_str() };
    let listener = TcpListener::bind(addr_spec)
        .map_err(|e| TsdaError::InvalidParameter(format!("bind {addr_spec}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| TsdaError::InvalidParameter(format!("local_addr: {e}")))?;

    let registry = Arc::new(registry);
    let pipelines = config.pipelines.unwrap_or_else(|| Arc::new(PipelineRegistry::new()));
    let stats = Arc::new(ServerStats::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let batcher = Batcher::start(
        Arc::clone(&registry),
        pipelines,
        Arc::clone(&stats),
        config.batch,
        config.faults.clone(),
    )?;
    let state = Arc::new(State {
        registry,
        stats: Arc::clone(&stats),
        batcher,
        admission: config.admission.map(Admission::new),
        faults: config.faults,
    });

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("tsda-accept".into())
            .spawn(move || {
                let (conn_state, conn_shutdown) = (Arc::clone(&state), Arc::clone(&shutdown));
                conn::accept_loop(&listener, &shutdown, "tsda-conn", move |stream| {
                    let s = &*conn_state;
                    let mut dispatch = Dispatch {
                        registry: &s.registry,
                        stats: &s.stats,
                        batcher: &s.batcher,
                        admission: s.admission.as_ref(),
                        peer: conn::peer_ip(&stream),
                    };
                    conn::serve_conn(stream, &mut dispatch, &conn_shutdown, s.faults.as_deref());
                });
                // Sole owner now that the loop exited and every
                // connection thread is joined: close the lanes so the
                // workers drain and exit, then join them.
                if let Ok(state) = Arc::try_unwrap(state) {
                    state.batcher.shutdown();
                }
            })
            .map_err(|e| TsdaError::InvalidParameter(format!("spawn accept thread: {e}")))?
    };

    Ok(ServerHandle { addr, shutdown, stats, accept_thread: Some(accept_thread) })
}
