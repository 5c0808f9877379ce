//! The three serving workloads: real `tsda_serve` / `tsda_router`
//! processes, started the way users start them, under closed-loop load
//! from this process.
//!
//! Every request is sent once on a plain connection — no retries — so a
//! failure is counted, never hidden, and every reply is checked against
//! the offline reference before the connection sends its next request.
//! Throughput comes from this process's own load-window clock; the
//! server's uptime-based `requests_per_s` is never read.

use crate::metrics::Outcome;
use crate::stats::{
    lower_decile_of_percentiles, mean, median, median_call_us, percentile, sorted,
};
use crate::trace::{server_spans, Trace};
use crate::{env, Args, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsda_augment::declarative::{AugPipeline, PipelineConfig};
use tsda_classify::encode::preprocess_dataset;
use tsda_classify::persist::{load_model, SavedModel};
use tsda_classify::Classifier;
use tsda_core::{Dataset, Label, Mts};
use tsda_datasets::registry::ALL_DATASETS;
use tsda_datasets::synth::{generate, GenOptions};
use tsda_serve::batcher::Batcher;
use tsda_serve::client::{wait_ready, Proto, WireRequest};
use tsda_serve::protocol::{self, Response};
use tsda_serve::{proto2, BatchConfig, ModelEntry, ModelRegistry, PipelineRegistry, ServerStats};

/// Closed-loop connections. The server answers each connection one
/// request at a time, so this is also the number of requests in flight:
/// fewer than `max_batch` (32), which keeps the batcher's flush timer
/// on the latency path.
pub const CONNS: usize = 2;
/// Its test split is the request stream; its train split is what the
/// served models are fitted on.
const DATASET: &str = "RacketSports";
/// The served augmentation pipelines, read from the repository root.
pub const PIPELINES_FILE: &str = "pipelines.toml";
/// Starts per run; `setup_s` is their median.
const SERVE_STARTS: usize = 7;
const ROUTER_STARTS: usize = 5;
/// Untimed load before the window: first connection, ticket pools,
/// page faults and lazy model state are all paid here.
const WARMUP: Duration = Duration::from_millis(500);
/// Traced requests whose bytes are replayed through the server codec.
const CODEC_REPLAYS: usize = 400;

/// What a serving workload sends, and through which binary.
#[derive(Clone, Copy)]
struct Plan {
    proto: Proto,
    /// Model predicted against; `None` sends augments instead.
    model: Option<&'static str>,
    router: bool,
}

impl Plan {
    fn of(w: Workload) -> Option<Self> {
        match w {
            Workload::PredictClosed => Some(Self {
                proto: Proto::V2,
                model: Some("rocket"),
                router: false,
            }),
            Workload::AugmentNdjson => Some(Self {
                proto: Proto::Ndjson,
                model: None,
                router: false,
            }),
            Workload::PredictRouter => Some(Self {
                proto: Proto::V2,
                model: Some("inception"),
                router: true,
            }),
            Workload::GrOffline => None,
        }
    }

    /// The model the server loads (an augment-only server still loads one).
    fn served_model(self) -> &'static str {
        self.model.unwrap_or("rocket")
    }

    /// Span name of the work the batch worker does per batch.
    fn lane(self) -> &'static str {
        if self.model.is_some() {
            "model.batch"
        } else {
            "augment.apply"
        }
    }
}

/// Which request a connection sends next.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Unique per run; the connection index sits in the high bits.
    id: u64,
    /// Index into the request series.
    input: usize,
    /// Index into the pipelines (augment workloads).
    pipe: usize,
}

impl Job {
    fn conn(&self) -> usize {
        (self.id >> 40) as usize
    }
}

/// Everything a client thread needs to build and check requests.
struct Inputs {
    plan: Plan,
    seed: u64,
    series: Vec<Mts>,
    /// Offline `Classifier::predict` label of every series.
    expected: Vec<Label>,
    pipes: Vec<AugPipeline>,
}

impl Inputs {
    fn job(&self, conn: usize, k: u64) -> Job {
        Job {
            id: ((conn as u64) << 40) | k,
            input: (k as usize * CONNS + conn) % self.series.len(),
            pipe: (k as usize + conn) % self.pipes.len().max(1),
        }
    }

    fn encode(&self, job: &Job) -> WireRequest {
        let s = &self.series[job.input];
        match self.plan.model {
            Some(model) => WireRequest::predict(self.plan.proto, job.id, model, s),
            None => {
                let pipe = self.pipes[job.pipe].name();
                WireRequest::augment(self.plan.proto, job.id, pipe, self.seed, job.id, s)
            }
        }
    }

    /// Offline `AugPipeline::apply_one` for an augment job.
    fn offline_series(&self, job: &Job) -> Mts {
        self.pipes[job.pipe].apply_one(&self.series[job.input], self.seed, job.id)
    }

    fn verify(&self, job: &Job, resp: &Response) -> bool {
        resp.ok
            && resp.id == job.id
            && match self.plan.model {
                Some(_) => resp.label == Some(self.expected[job.input]),
                None => resp
                    .series
                    .as_ref()
                    .is_some_and(|got| same_bits(got, &self.offline_series(job))),
            }
    }
}

fn same_bits(a: &Mts, b: &Mts) -> bool {
    a.shape() == b.shape()
        && a.as_flat()
            .iter()
            .zip(b.as_flat())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One client connection speaking one protocol.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    proto: Proto,
    out: Vec<u8>,
    line: String,
    frame: Vec<u8>,
}

impl Wire {
    fn open(addr: &str, proto: Proto) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut wire = Self {
            writer: stream,
            reader,
            proto,
            out: Vec::new(),
            line: String::new(),
            frame: Vec::new(),
        };
        if proto == Proto::V2 {
            wire.writer
                .write_all(&proto2::PREAMBLE)
                .map_err(|e| format!("preamble: {e}"))?;
        }
        Ok(wire)
    }

    /// Send one request in a single write; returns its size in bytes.
    fn send(&mut self, req: &WireRequest) -> Result<usize, String> {
        self.out.clear();
        match req {
            WireRequest::Line(line) => {
                self.out.extend_from_slice(line.as_bytes());
                self.out.push(b'\n');
            }
            WireRequest::Frame(frame) => self.out.extend_from_slice(frame),
        }
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        Ok(self.out.len())
    }

    /// Read one whole reply, undecoded; returns its size in bytes.
    fn recv(&mut self) -> Result<usize, String> {
        match self.proto {
            Proto::Ndjson => {
                self.line.clear();
                let n = self
                    .reader
                    .read_line(&mut self.line)
                    .map_err(|e| format!("recv: {e}"))?;
                if n == 0 || !self.line.ends_with('\n') {
                    return Err("connection closed mid-reply".into());
                }
                Ok(n)
            }
            Proto::V2 => {
                let mut len = [0u8; 4];
                self.reader
                    .read_exact(&mut len)
                    .map_err(|e| format!("recv: {e}"))?;
                let n = proto2::checked_len(u32::from_le_bytes(len), proto2::MAX_FRAME, "reply")?;
                self.frame.resize(n, 0);
                self.reader
                    .read_exact(&mut self.frame)
                    .map_err(|e| format!("recv: {e}"))?;
                Ok(4 + n)
            }
        }
    }

    fn decode(&self) -> Result<Response, String> {
        match self.proto {
            Proto::Ndjson => protocol::parse_response(self.line.trim_end()),
            Proto::V2 => proto2::decode_reply(proto2::check_frame(&self.frame)?),
        }
    }

    fn call(&mut self, req: &WireRequest) -> Result<Response, String> {
        self.send(req)?;
        self.recv()?;
        self.decode()
    }
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    job: Job,
    send: Instant,
    recv: Instant,
    encode_ns: u64,
    decode_ns: u64,
    verify_ns: u64,
    /// Delivered and answered `ok: true`.
    ok: bool,
    /// Equal to the offline reference.
    correct: bool,
    micros: u64,
    batch: usize,
    req_bytes: usize,
    reply_bytes: usize,
    /// Index of this request's `client.rpc` span in its connection's trace.
    rpc_span: Option<usize>,
}

impl Sample {
    /// Client-observed latency, send to reply; a failed request counts
    /// as infinitely slow.
    fn latency_us(&self) -> f64 {
        if self.ok {
            self.recv.duration_since(self.send).as_secs_f64() * 1e6
        } else {
            f64::INFINITY
        }
    }

    /// Client latency minus the server's `micros`: wire, codec, socket
    /// and connection-thread time.
    fn outside_us(&self) -> f64 {
        self.latency_us() - self.micros as f64
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

fn one_request(wire: &mut Wire, inputs: &Inputs, job: Job, trace: Option<&mut Trace>) -> Sample {
    let t0 = Instant::now();
    let req = inputs.encode(&job);
    let send = Instant::now();
    let io = wire.send(&req).and_then(|a| wire.recv().map(|b| (a, b)));
    let recv = Instant::now();
    let (req_bytes, reply_bytes) = io.as_ref().map_or((0, 0), |&sizes| sizes);
    let resp = io.and_then(|_| wire.decode());
    let decoded = Instant::now();
    let correct = resp.as_ref().is_ok_and(|r| inputs.verify(&job, r));
    let verified = Instant::now();
    let rpc_span = trace.map(|t| {
        let root = t.record("client.call", t0, verified, None, job.id);
        t.record("wire.req_encode", t0, send, Some(root), job.id);
        let rpc = t.record("client.rpc", send, recv, Some(root), job.id);
        t.record("wire.reply_decode", recv, decoded, Some(root), job.id);
        t.record("client.verify", decoded, verified, Some(root), job.id);
        rpc
    });
    let (ok, micros, batch) = match &resp {
        Ok(r) => (r.ok, r.micros.unwrap_or(0), r.batch.unwrap_or(0)),
        Err(_) => (false, 0, 0),
    };
    Sample {
        job,
        send,
        recv,
        encode_ns: ns_between(t0, send),
        decode_ns: ns_between(recv, decoded),
        verify_ns: ns_between(decoded, verified),
        ok,
        correct,
        micros,
        batch,
        req_bytes,
        reply_bytes,
        rpc_span,
    }
}

/// One stretch of closed-loop load.
#[derive(Clone, Copy)]
struct Phase {
    length: Duration,
    traced: bool,
}

/// A phase's samples from every connection; `traces[c]` is connection
/// `c`'s span list.
struct PhaseOut {
    samples: Vec<Sample>,
    traces: Vec<Trace>,
    start: Instant,
    end: Instant,
}

impl PhaseOut {
    /// The load window: first connection's start to the last reply.
    fn window_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    fn latencies(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(Sample::latency_us).collect())
    }

    /// Latency by one-second slice of the window (by send time).
    fn slices(&self) -> Vec<Vec<f64>> {
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for s in &self.samples {
            let i = s.send.saturating_duration_since(self.start).as_secs() as usize;
            if slices.len() <= i {
                slices.resize(i + 1, Vec::new());
            }
            slices[i].push(s.latency_us());
        }
        slices
    }

    fn ok_count(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }
}

/// Run `phases` back to back on `CONNS` closed-loop connections;
/// connection `c` talks to `addrs[c % addrs.len()]`. A barrier starts
/// each phase on every connection at once.
fn closed_loop(
    addrs: &[String],
    inputs: &Inputs,
    phases: &[Phase],
    epoch: Instant,
) -> Result<Vec<PhaseOut>, String> {
    let wires = (0..CONNS)
        .map(|c| Wire::open(&addrs[c % addrs.len()], inputs.plan.proto))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(CONNS);
    // Per connection, per phase: samples, spans, start, end.
    type ConnPhase = (Vec<Sample>, Trace, Instant, Instant);
    let per_conn: Vec<Vec<ConnPhase>> = std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .into_iter()
            .enumerate()
            .map(|(conn, mut wire)| {
                let barrier = &barrier;
                let addr = &addrs[conn % addrs.len()];
                scope.spawn(move || {
                    let mut k = 0u64;
                    let mut outs = Vec::with_capacity(phases.len());
                    for phase in phases {
                        barrier.wait();
                        let start = Instant::now();
                        let deadline = start + phase.length;
                        let mut samples = Vec::with_capacity(4096);
                        let mut trace = Trace::new(epoch, if phase.traced { 1 << 15 } else { 0 });
                        while Instant::now() < deadline {
                            let job = inputs.job(conn, k);
                            k += 1;
                            let s = one_request(
                                &mut wire,
                                inputs,
                                job,
                                phase.traced.then_some(&mut trace),
                            );
                            if !s.ok {
                                // The stream may be desynchronised: start a
                                // fresh connection (the failure is counted).
                                std::thread::sleep(Duration::from_millis(10));
                                if let Ok(w) = Wire::open(addr, inputs.plan.proto) {
                                    wire = w;
                                }
                            }
                            samples.push(s);
                        }
                        outs.push((samples, trace, start, Instant::now()));
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut per_conn: Vec<_> = per_conn.into_iter().map(Vec::into_iter).collect();
    Ok(phases
        .iter()
        .map(|_| {
            let parts: Vec<_> = per_conn
                .iter_mut()
                .map(|it| it.next().expect("one result per phase"))
                .collect();
            let start = parts
                .iter()
                .map(|p| p.2)
                .min()
                .expect("at least one connection");
            let end = parts
                .iter()
                .map(|p| p.3)
                .max()
                .expect("at least one connection");
            let mut out = PhaseOut {
                samples: Vec::new(),
                traces: Vec::new(),
                start,
                end,
            };
            for (samples, trace, _, _) in parts {
                out.samples.extend(samples);
                out.traces.push(trace);
            }
            out
        })
        .collect())
}

/// A server or router process this run started. Dropping it stops the
/// process with SIGTERM — the way an operator stops it, so a router
/// reaps its replicas and a server drains — and waits until it exits.
struct Proc {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// The process and its children (a router's replicas).
    fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.child.id()];
        pids.extend(env::child_pids(self.child.id()));
        pids
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let pid = self.child.id().to_string();
        let _signalled = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _killed = self.child.kill();
                    let _reaped = self.child.wait();
                    break;
                }
            }
        }
        if let Some(t) = self.drain.take() {
            let _joined = t.join();
        }
    }
}

/// Start `bin args`, wait for its `listening on ADDR` line and then for
/// a ready reply; returns the process and the seconds from spawn to
/// ready. stderr goes to `log`.
fn start(bin: &Path, args: &[String], log: &Path) -> Result<(Proc, f64), String> {
    let log_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("open {}: {e}", log.display()))?;
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .env("TSDA_THREADS", env::nproc().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut proc = Proc {
        child,
        addr: String::new(),
        drain: None,
    };
    let stdout = proc
        .child
        .stdout
        .take()
        .ok_or("child stdout not captured")?;
    let (tx, rx) = mpsc::channel();
    proc.drain = Some(std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let _sent = tx.send(addr.to_string());
            }
            line.clear();
        }
    }));
    proc.addr = rx.recv_timeout(Duration::from_secs(120)).map_err(|_| {
        format!(
            "{} exited or stalled before listening (see {})",
            bin.display(),
            log.display()
        )
    })?;
    wait_ready(&proc.addr, 30)?;
    Ok((proc, t0.elapsed().as_secs_f64()))
}

fn serve_args(model: &str, seed: u64, dir: &Path, pipelines: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--models",
        model,
        "--dataset",
        DATASET,
        "--fast",
        "--seed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(seed.to_string());
    args.push("--dir".into());
    args.push(dir.display().to_string());
    if pipelines {
        args.push("--pipelines".into());
        args.push(PIPELINES_FILE.into());
    }
    args
}

fn router_args(bin_dir: &Path, model: &str, seed: u64, dir: &Path) -> Vec<String> {
    let mut args = serve_args(model, seed, dir, false);
    args.extend(["--replicas".to_string(), "2".to_string()]);
    args.push("--serve-bin".into());
    args.push(bin_dir.join("tsda_serve").display().to_string());
    args
}

/// Train the served model once (`--max-seconds 0`), so every start
/// measured afterwards loads it from `dir` as a restarted server does.
fn pretrain(bin_dir: &Path, plan: Plan, seed: u64, dir: &Path, log: &Path) -> Result<(), String> {
    let log_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("open {}: {e}", log.display()))?;
    let bin = bin_dir.join("tsda_serve");
    let status = Command::new(&bin)
        .args(serve_args(plan.served_model(), seed, dir, false))
        .args(["--max-seconds", "0"])
        .env("TSDA_THREADS", env::nproc().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file)
        .status()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("pretrain failed ({status}); see {}", log.display()))
    }
}

/// Offline labels: the saved model, `Classifier::predict` on each series
/// alone.
fn offline_labels(path: &Path, series: &[Mts], n_classes: usize) -> Result<Vec<Label>, String> {
    let mut saved = load_model(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let clf: &mut dyn Classifier = match &mut saved {
        SavedModel::Rocket(m) => m,
        SavedModel::MiniRocket(m) => m,
        SavedModel::InceptionTime(m) => m,
        SavedModel::Ridge(_) => return Err("ridge is not a series classifier".into()),
    };
    Ok(series
        .iter()
        .map(|s| {
            let mut ds = Dataset::empty(n_classes);
            ds.push(s.clone(), 0);
            clf.predict(&ds)[0]
        })
        .collect())
}

/// The served pipelines, as the server builds them from the same file.
pub fn load_pipes() -> Result<Vec<AugPipeline>, String> {
    let text = std::fs::read_to_string(PIPELINES_FILE)
        .map_err(|e| format!("read {PIPELINES_FILE}: {e}"))?;
    let cfg = PipelineConfig::parse(&text).map_err(|e| format!("parse {PIPELINES_FILE}: {e}"))?;
    AugPipeline::from_config(&cfg).map_err(|e| format!("build pipelines: {e}"))
}

fn stats_of(addr: &str) -> Result<Value, String> {
    let mut wire = Wire::open(addr, Proto::Ndjson)?;
    let r = wire.call(&WireRequest::simple(Proto::Ndjson, 1, "stats"))?;
    r.result
        .ok_or_else(|| format!("stats from {addr}: {}", r.error.unwrap_or_default()))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn rows<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(rows)) => rows,
        _ => &[],
    }
}

/// Counters read from the servers' own `stats` op after the window.
struct FleetCounters {
    shed: f64,
    ticket_allocs: f64,
    restarts: f64,
    /// Largest share of forwarded requests any one replica took.
    replica_share: f64,
    replicas: Vec<String>,
}

fn fleet_counters(plan: Plan, addr: &str) -> Result<FleetCounters, String> {
    let top = stats_of(addr)?;
    let mut fleet = FleetCounters {
        shed: 0.0,
        ticket_allocs: 0.0,
        restarts: 0.0,
        replica_share: 1.0,
        replicas: Vec::new(),
    };
    let servers = if plan.router {
        let reps = rows(&top, "replicas");
        let forwarded: Vec<f64> = reps.iter().map(|r| num(r, "forwarded")).collect();
        let total: f64 = forwarded.iter().sum();
        fleet.replica_share = forwarded.iter().copied().fold(0.0, f64::max) / total.max(1.0);
        fleet.restarts = reps.iter().map(|r| num(r, "restarts")).sum();
        fleet.replicas = reps
            .iter()
            .filter_map(|r| r.get("addr").and_then(Value::as_str).map(str::to_string))
            .collect();
        fleet
            .replicas
            .iter()
            .map(|a| stats_of(a))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        vec![top]
    };
    for s in &servers {
        for q in rows(s, "queues") {
            fleet.shed += num(q, "shed");
            fleet.ticket_allocs += num(q, "ticket_allocs");
        }
    }
    Ok(fleet)
}

/// Run one serving workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::of(args.workload).ok_or("not a serving workload")?;
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let mut out = Outcome::default();
    let result = run_in(args, plan, &run_dir, &mut out);
    let _removed = std::fs::remove_dir_all(&run_dir);
    result.map(|()| out)
}

fn run_in(args: &Args, plan: Plan, run_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let meta = ALL_DATASETS
        .iter()
        .find(|m| m.name == DATASET)
        .ok_or_else(|| format!("dataset {DATASET} is not registered"))?;
    let data = generate(meta, &GenOptions::ci(args.seed));
    let log = args.work_dir.join(format!("{}.log", args.workload.name()));
    let _stale = std::fs::remove_file(&log);
    let models = run_dir.join("models");
    pretrain(&args.bin_dir, plan, args.seed, &models, &log)?;
    let expected = match plan.model {
        Some(m) => offline_labels(
            &models.join(format!("{m}.tsda")),
            data.test.series(),
            data.test.n_classes(),
        )?,
        None => Vec::new(),
    };
    let pipes = if plan.model.is_none() {
        load_pipes()?
    } else {
        Vec::new()
    };
    let inputs = Inputs {
        plan,
        seed: args.seed,
        series: data.test.series().to_vec(),
        expected,
        pipes,
    };

    // Set-up: process start to first ready reply, several times; the
    // last process started serves the load.
    let (bin, start_args, starts) = if plan.router {
        let a = router_args(&args.bin_dir, plan.served_model(), args.seed, &models);
        (args.bin_dir.join("tsda_router"), a, ROUTER_STARTS)
    } else {
        let a = serve_args(
            plan.served_model(),
            args.seed,
            &models,
            plan.model.is_none(),
        );
        (args.bin_dir.join("tsda_serve"), a, SERVE_STARTS)
    };
    let mut setups = Vec::with_capacity(starts);
    let mut fleet = None;
    for _ in 0..starts {
        drop(fleet.take());
        let (p, secs) = start(&bin, &start_args, &log)?;
        setups.push(secs);
        fleet = Some(p);
    }
    let fleet = fleet.ok_or("no server started")?;

    let epoch = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let warm = Phase {
        length: WARMUP,
        traced: false,
    };
    let phases = if args.trace {
        // Untraced then traced halves: their difference is the tracing
        // overhead.
        let half = window / 2;
        vec![
            warm,
            Phase {
                length: half,
                traced: false,
            },
            Phase {
                length: half,
                traced: true,
            },
        ]
    } else {
        vec![
            warm,
            Phase {
                length: window,
                traced: false,
            },
        ]
    };
    let mut outs = closed_loop(std::slice::from_ref(&fleet.addr), &inputs, &phases, epoch)?;
    let counters = fleet_counters(plan, &fleet.addr)?;
    let rss: f64 = fleet.pids().into_iter().filter_map(env::peak_rss_mb).sum();
    // The same requests straight to the replicas, for the router hop.
    let direct = if args.trace && plan.router {
        let direct_phases = [
            warm,
            Phase {
                length: window / 2,
                traced: false,
            },
        ];
        closed_loop(&counters.replicas, &inputs, &direct_phases, epoch)?.pop()
    } else {
        None
    };
    drop(fleet);

    let wrong = outs
        .iter()
        .chain(direct.iter())
        .flat_map(|o| &o.samples)
        .filter(|s| s.ok && !s.correct)
        .count();
    out.check(wrong == 0, || {
        format!("{wrong} replies differ from the offline reference")
    });
    out.check(counters.shed == 0.0, || {
        format!("batcher shed {} requests", counters.shed)
    });
    out.check(counters.ticket_allocs == 0.0, || {
        format!(
            "batcher allocated {} reply tickets on the hot path",
            counters.ticket_allocs
        )
    });
    out.check(counters.restarts == 0.0, || {
        format!("router restarted {} replicas", counters.restarts)
    });

    let measured = &outs[1..];
    out.attempted = measured.iter().map(|o| o.samples.len() as u64).sum();
    out.failed = measured
        .iter()
        .map(|o| (o.samples.len() - o.ok_count()) as u64)
        .sum();
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} requests failed"));

    let window_out = &outs[1];
    let lat = window_out.latencies();
    let slices = window_out.slices();
    out.set("latency_p50_us", percentile(&lat, 50.0));
    out.set("latency_p99_us", lower_decile_of_percentiles(&slices, 99.0));
    out.set(
        "throughput_rps",
        window_out.ok_count() as f64 / window_out.window_s(),
    );
    out.set(
        "ok_rate",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", rss);
    out.set("setup_s", median(&setups));
    let per_slice = lat.len() / slices.len().max(1);
    let slice_p99: Vec<f64> = slices
        .iter()
        .map(|s| percentile(&sorted(s.clone()), 99.0).round())
        .collect();
    out.note(format!(
        "window {:.3} s: {} requests on {CONNS} connections; p99 is the lower decile over {} \
         one-second slices of each slice's p99 (~{per_slice} requests, ~{} above it, per slice); \
         whole-window p99 {:.1} us; p99 by slice {slice_p99:?}",
        window_out.window_s(),
        lat.len(),
        slices.len(),
        per_slice / 100,
        percentile(&lat, 99.0)
    ));
    out.note(format!(
        "error_rate {} ratio ({} of {} failed or refused)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out.note("cells_per_s n/a (gr-offline only)".to_string());
    out.note(format!(
        "setup_s is the median of {} starts: {setups:.4?}",
        setups.len()
    ));
    let rss_of = if plan.router {
        "the router and its replicas"
    } else {
        "the server"
    };
    out.note(format!("peak_rss_mb sums VmHWM over {rss_of}"));

    if args.trace {
        let (untraced, traced) = outs.split_at_mut(2);
        let ctx = LayerCtx {
            args,
            inputs: &inputs,
            models: &models,
            counters: &counters,
            epoch,
        };
        layers(&ctx, &untraced[1], &mut traced[0], direct.as_ref(), out)?;
    }
    Ok(())
}

/// What the per-layer pass needs besides the samples.
struct LayerCtx<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    models: &'a Path,
    counters: &'a FleetCounters,
    epoch: Instant,
}

/// Per-layer metrics of the traced run: from the traced half's samples,
/// the servers' counters, and replays of each layer's public functions
/// on the run's own requests.
fn layers(
    ctx: &LayerCtx<'_>,
    untraced: &PhaseOut,
    traced: &mut PhaseOut,
    direct: Option<&PhaseOut>,
    out: &mut Outcome,
) -> Result<(), String> {
    let inputs = ctx.inputs;
    let ok: Vec<Sample> = traced.samples.iter().copied().filter(|s| s.ok).collect();
    if ok.is_empty() {
        return Err("the traced window completed no request".into());
    }
    let us = |f: fn(&Sample) -> u64| -> Vec<f64> { ok.iter().map(|s| f(s) as f64 / 1e3).collect() };
    let of = |f: fn(&Sample) -> usize| -> Vec<f64> { ok.iter().map(|s| f(s) as f64).collect() };
    out.set("wire.req_bytes", mean(&of(|s| s.req_bytes)));
    out.set("wire.reply_bytes", mean(&of(|s| s.reply_bytes)));
    out.set("wire.req_encode_us", median(&us(|s| s.encode_ns)));
    out.set("wire.reply_decode_us", median(&us(|s| s.decode_ns)));
    let (req_decode, reply_encode) = replay_codec(inputs, &ok[..ok.len().min(CODEC_REPLAYS)]);
    out.set("wire.req_decode_us", req_decode);
    out.set("wire.reply_encode_us", reply_encode);

    let outside = sorted(ok.iter().map(Sample::outside_us).collect());
    let server = sorted(ok.iter().map(|s| s.micros as f64).collect());
    out.set("server.outside_p50_us", percentile(&outside, 50.0));
    out.set("server.outside_p99_us", percentile(&outside, 99.0));
    out.set("batcher.server_p50_us", percentile(&server, 50.0));
    out.set("batcher.server_p99_us", percentile(&server, 99.0));
    out.set("batcher.batch_mean", mean(&of(|s| s.batch)));
    out.set("batcher.shed", ctx.counters.shed);
    out.set("batcher.ticket_allocs", ctx.counters.ticket_allocs);
    out.set("batcher.handoff_us", handoff_us()?);

    // What the batch worker does per batch, replayed at every batch size
    // the run saw; queue wait is the rest of the server's time.
    let entry = match inputs.plan.model {
        Some(m) => {
            let saved =
                load_model(&ctx.models.join(format!("{m}.tsda"))).map_err(|e| e.to_string())?;
            Some(ModelEntry::from_saved(m, saved, None).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let mut lane_us: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &ok {
        let b = s.batch.max(1);
        lane_us
            .entry(b)
            .or_insert_with(|| lane_time_us(inputs, entry.as_ref(), b));
    }
    let lane_of = |s: &Sample| lane_us[&s.batch.max(1)];
    let waits: Vec<f64> = ok
        .iter()
        .map(|s| (s.micros as f64 - lane_of(s)).max(0.0))
        .collect();
    out.set("batcher.queue_wait_us", median(&waits));
    match inputs.plan.model {
        Some("rocket") => {
            out.set(
                "model.rocket.b1_us",
                lane_time_us(inputs, entry.as_ref(), 1),
            );
            out.set(
                "model.rocket.b2_us",
                lane_time_us(inputs, entry.as_ref(), 2),
            );
            out.set(
                "model.rocket.transform_us",
                rocket_transform_us(inputs, ctx.models)?,
            );
        }
        Some(_) => out.set(
            "model.inception.b1_us",
            lane_time_us(inputs, entry.as_ref(), 1),
        ),
        None => {
            out.set("augment.apply_us", lane_time_us(inputs, None, 1));
            out.set("augment.verify_us", median(&us(|s| s.verify_ns)));
        }
    }
    if let Some(direct) = direct {
        let straight: Vec<f64> = direct
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(Sample::outside_us)
            .collect();
        out.set(
            "router.hop_us",
            percentile(&outside, 50.0) - median(&straight),
        );
        out.set("router.replica_share", ctx.counters.replica_share);
        out.set("router.restarts", ctx.counters.restarts);
    }

    // Spans: the server (reply `micros`) and its replayed lane time go
    // under each request's `client.rpc` span; self times then give the
    // outside / queue-wait / lane decomposition of client latency.
    let mut children: Vec<(usize, usize, usize)> = Vec::with_capacity(ok.len());
    for s in &ok {
        let Some(rpc_index) = s.rpc_span else {
            continue;
        };
        let conn = s.job.conn();
        let trace = &mut traced.traces[conn];
        let rpc = trace.spans()[rpc_index];
        let lane_ns = (lane_of(s) * 1e3) as u64;
        let [server, mut lane] =
            server_spans(&rpc, rpc_index, s.micros, inputs.plan.lane(), lane_ns);
        let server_index = trace.push(server);
        lane.parent = Some(server_index);
        let lane_index = trace.push(lane);
        children.push((conn, rpc_index, lane_index));
    }
    let bases: Vec<usize> = traced
        .traces
        .iter()
        .scan(0, |base, t| {
            let here = *base;
            *base += t.spans().len();
            Some(here)
        })
        .collect();
    let mut all = Trace::new(ctx.epoch, 0);
    for t in traced.traces.drain(..) {
        all.append(t);
    }
    let own = all.self_times();
    let spans = all.spans();
    // Each rpc's self time (outside) + the server's self time (queue
    // wait) + the lane's must give back the client latency.
    let mismatched = children
        .iter()
        .filter(|&&(conn, rpc, lane)| {
            let (rpc, lane) = (bases[conn] + rpc, bases[conn] + lane);
            own[rpc] + own[lane - 1] + own[lane] != spans[rpc].dur_ns()
        })
        .count();
    out.check(mismatched == 0, || {
        format!("{mismatched} traced requests do not decompose into outside + queue wait + lane")
    });
    let by_name = all.self_by_name();
    let self_us = |name: &str| {
        by_name.get(name).map_or(0.0, |v| {
            median(&v.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
        })
    };
    let codec = req_decode + reply_encode;
    out.set("trace.remainder_us", percentile(&outside, 50.0) - codec);
    out.note(format!(
        "decomposition of client latency (median self time, us): outside {:.1} \
         [server codec {codec:.1} + unexplained {:.1}] + queue wait {:.1} + {} {:.1}; \
         {} requests checked, {mismatched} off",
        self_us("client.rpc"),
        self_us("client.rpc") - codec,
        self_us("batcher.server"),
        inputs.plan.lane(),
        self_us(inputs.plan.lane()),
        children.len(),
    ));
    let traced_p50 = percentile(&traced.latencies(), 50.0);
    let untraced_p50 = percentile(&untraced.latencies(), 50.0);
    out.set("trace.overhead_us", traced_p50 - untraced_p50);
    out.note(format!(
        "tracing overhead: latency p50 traced {traced_p50:.1} us vs untraced {untraced_p50:.1} us"
    ));

    let name = format!(
        "trace-{}-seed{}.jsonl",
        ctx.args.workload.name(),
        ctx.args.seed
    );
    let path = ctx.args.work_dir.join(name);
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    all.write_jsonl(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        all.spans().len(),
        path.display()
    ));
    Ok(())
}

/// Median time of the batch worker's call at batch size `b`: the
/// registry's batched predict, or the pipelines' `run_each`.
fn lane_time_us(inputs: &Inputs, entry: Option<&ModelEntry>, b: usize) -> f64 {
    let batch: Vec<Mts> = (0..b)
        .map(|i| inputs.series[i % inputs.series.len()].clone())
        .collect();
    match entry {
        Some(entry) => {
            let mut labels = Vec::with_capacity(b);
            median_call_us(5, 100, || {
                let done = entry.predict_batch_into(&batch, &mut labels);
                black_box(done.is_ok());
            })
        }
        None => {
            let items: Vec<(Mts, u64, u64)> = batch
                .into_iter()
                .enumerate()
                .map(|(i, s)| (s, inputs.seed, i as u64))
                .collect();
            let mut p = 0;
            median_call_us(8, 200, || {
                black_box(inputs.pipes[p % inputs.pipes.len()].run_each(&items));
                p += 1;
            })
        }
    }
}

/// `Rocket::transform` of one preprocessed request series.
fn rocket_transform_us(inputs: &Inputs, models: &Path) -> Result<f64, String> {
    let SavedModel::Rocket(rocket) =
        load_model(&models.join("rocket.tsda")).map_err(|e| e.to_string())?
    else {
        return Err("rocket.tsda does not hold a ROCKET model".into());
    };
    let mut ds = Dataset::empty(1);
    ds.push(inputs.series[0].clone(), 0);
    let clean = preprocess_dataset(&ds);
    Ok(median_call_us(5, 100, || {
        black_box(rocket.transform(&clean));
    }))
}

/// `Batcher::submit` → `PendingReply::recv` through a constant-label
/// stub model at `max_batch` 1: the handoff cost alone.
fn handoff_us() -> Result<f64, String> {
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::stub("stub", 0, 1, 8));
    let config = BatchConfig {
        max_batch: 1,
        ..BatchConfig::default()
    };
    let batcher = Batcher::start(
        Arc::new(registry),
        Arc::new(PipelineRegistry::new()),
        Arc::new(ServerStats::new()),
        config,
        None,
    )
    .map_err(|e| format!("stub batcher: {e}"))?;
    let series = Mts::zeros(1, 8);
    let us = median_call_us(200, 2000, || {
        let reply = batcher.submit("stub", series.clone()).map(|p| p.recv());
        black_box(reply.is_ok());
    });
    batcher.shutdown();
    Ok(us)
}

/// Replay the run's own requests through the server's decode
/// (`parse_request` + `decode_series`, or `check_frame` +
/// `decode_request`) and its replies through the server's encoders
/// (`*_response_into` / `encode_reply_*_into`); median µs of each.
fn replay_codec(inputs: &Inputs, samples: &[Sample]) -> (f64, f64) {
    let mut decode = Vec::with_capacity(samples.len());
    let mut encode = Vec::with_capacity(samples.len());
    let mut text = String::new();
    let mut bytes = Vec::new();
    for s in samples {
        let req = inputs.encode(&s.job);
        let t0 = Instant::now();
        match &req {
            WireRequest::Line(line) => {
                let parsed = protocol::parse_request(line);
                if let Ok(
                    protocol::Request::Predict { series, .. }
                    | protocol::Request::Augment { series, .. },
                ) = &parsed
                {
                    black_box(protocol::decode_series(series).is_ok());
                }
                black_box(parsed.is_ok());
            }
            WireRequest::Frame(frame) => {
                let body = proto2::check_frame(&frame[4..]);
                black_box(
                    body.map(|b| proto2::decode_request(b).is_ok())
                        .unwrap_or(false),
                );
            }
        }
        decode.push(t0.elapsed().as_secs_f64() * 1e6);

        let (id, batch, micros) = (s.job.id, s.batch, s.micros);
        text.clear();
        bytes.clear();
        let elapsed = match inputs.plan.model {
            Some(model) => {
                let label = inputs.expected[s.job.input];
                let t0 = Instant::now();
                match inputs.plan.proto {
                    Proto::V2 => proto2::encode_reply_predict_into(
                        &mut bytes,
                        id,
                        label as u64,
                        batch as u32,
                        micros,
                    ),
                    Proto::Ndjson => {
                        protocol::predict_response_into(&mut text, id, model, label, batch, micros)
                    }
                }
                t0.elapsed()
            }
            None => {
                let series = inputs.offline_series(&s.job);
                let pipe = inputs.pipes[s.job.pipe].name();
                let t0 = Instant::now();
                match inputs.plan.proto {
                    Proto::V2 => proto2::encode_reply_augment_into(
                        &mut bytes,
                        id,
                        &series,
                        batch as u32,
                        micros,
                    ),
                    Proto::Ndjson => {
                        protocol::augment_response_into(&mut text, id, pipe, &series, batch, micros)
                    }
                }
                t0.elapsed()
            }
        };
        black_box((&text, &bytes));
        encode.push(elapsed.as_secs_f64() * 1e6);
    }
    (median(&decode), median(&encode))
}
