//! The serving binaries as a user runs them: `tsda_client` speaks the
//! protocol `--proto` names, and `tsda_serve` and `tsda_router` serve
//! offline-identical replies, then drain and exit 0 on SIGTERM.

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsda_classify::persist::{load_model, SavedModel};
use tsda_classify::Classifier;
use tsda_core::{Dataset, Label, Mts, TrainTest};
use tsda_datasets::registry::ALL_DATASETS;
use tsda_datasets::synth::{generate, GenOptions};
use tsda_datasets::ts_format::format_series_line;
use tsda_serve::client::{Conn, Proto, WireRequest};
use tsda_serve::pipelines::PipelineRegistry;
use tsda_serve::proto2::{self, Request2};

const SERVE: &str = env!("CARGO_BIN_EXE_tsda_serve");
const ROUTER: &str = env!("CARGO_BIN_EXE_tsda_router");
const CLIENT: &str = env!("CARGO_BIN_EXE_tsda_client");

fn client(args: &[&str]) -> Output {
    Command::new(CLIENT)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run tsda_client")
}

/// The label in `tsda_client`'s one-shot predict line, `label N (...)`.
fn printed_label(out: &Output) -> Label {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "tsda_client failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("label "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no label line in {stdout:?}"))
}

/// A model directory of its own per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        Self(std::env::temp_dir().join(format!("tsda-bins-{name}-{}", std::process::id())))
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _removed = std::fs::remove_dir_all(&self.0);
    }
}

/// A running server or router: its `listening on` address, and the
/// process, stopped with SIGTERM (then SIGKILL) if a test fails first.
struct Running {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Running {
    fn start(bin: &str, args: &[&str]) -> Self {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Drains stdout for the process's whole life, so it never blocks
        // on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _sent = tx.send(addr.to_string());
                }
            }
        });
        // Owned before the wait, so a stalled start is stopped on drop.
        let mut running = Self { child, addr: String::new(), drain: Some(drain) };
        running.addr = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("{bin} exited or stalled before listening"));
        running
    }

    /// SIGTERM, as a supervisor stops it, then the exit status within
    /// 20 s (`None` if it is still running).
    fn terminate(&mut self) -> Option<ExitStatus> {
        let pid = self.child.id().to_string();
        let _signalled = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) && self.terminate().is_none() {
            let _killed = self.child.kill();
            let _reaped = self.child.wait();
        }
        // The process is gone, so its stdout is closed and the drain ends.
        if let Some(drain) = self.drain.take() {
            let _joined = drain.join();
        }
    }
}

/// The request stream and training data the binaries use by default.
fn racket_sports() -> TrainTest {
    let meta = ALL_DATASETS.iter().find(|m| m.name == "RacketSports").expect("dataset meta");
    generate(meta, &GenOptions::ci(7))
}

/// Offline label of one series by the model the server saved in `dir`.
fn offline_label(dir: &TempDir, model: &str, series: &Mts, n_classes: usize) -> Label {
    let mut saved =
        load_model(&dir.0.join(format!("{model}.tsda"))).expect("load the saved model");
    let clf: &mut dyn Classifier = match &mut saved {
        SavedModel::Rocket(m) => m,
        SavedModel::InceptionTime(m) => m,
        other => panic!("unexpected {:?} model", other.kind()),
    };
    let mut one = Dataset::empty(n_classes);
    one.push(series.clone(), 0);
    clf.predict(&one)[0]
}

fn pipelines_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../pipelines.toml")
}

#[test]
fn client_one_shot_predict_speaks_the_requested_protocol() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut head = [0u8; 4];
        stream.read_exact(&mut head).expect("first 4 bytes");
        assert_eq!(head, proto2::PREAMBLE, "a --proto v2 client must open with the v2 preamble");
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("frame length");
        let len = u32::from_le_bytes(len) as usize;
        assert!((5..=proto2::MAX_FRAME).contains(&len), "frame length {len}");
        let mut raw = vec![0u8; len];
        stream.read_exact(&mut raw).expect("frame");
        let body = proto2::check_frame(&raw).expect("frame intact");
        let Ok(Request2::Predict { id, model, series }) = proto2::decode_request(body) else {
            panic!("expected one predict frame");
        };
        let mut reply = Vec::new();
        proto2::encode_reply_predict_into(&mut reply, id, 2, 1, 17);
        stream.write_all(&reply).expect("reply");
        (model, series)
    });
    let out = client(&[
        "--addr", &addr, "--proto", "v2", "--model", "rocket", "--series", "1,2,3:4,5,6",
        "--retries", "1",
    ]);
    let (model, series) = server.join().expect("the listener got one v2 predict frame");
    assert_eq!(model, "rocket");
    assert_eq!(series, Mts::from_dims(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]));
    assert_eq!(printed_label(&out), 2);

    // A series that does not parse fails in the client, before any
    // connection (nothing listens at `addr` any more).
    let out = client(&["--addr", &addr, "--model", "rocket", "--series", "1,zz", "--retries", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--series"), "{stderr}");
}

#[test]
fn serve_answers_like_offline_then_drains_and_exits_zero_on_sigterm() {
    let dir = TempDir::new("serve");
    let pipelines = pipelines_file();
    let mut server = Running::start(
        SERVE,
        &[
            "--addr", "127.0.0.1:0", "--models", "rocket,inception", "--fast",
            "--dir", dir.as_str(), "--pipelines", pipelines.to_str().expect("utf-8 path"),
        ],
    );
    let addr = server.addr.clone();
    let ready = client(&["--addr", &addr, "--wait-ready", "30"]);
    assert!(ready.status.success(), "{}", String::from_utf8_lossy(&ready.stderr));

    // One predict per model through the client binary, one protocol
    // each; labels equal the saved models' offline predict.
    let tt = racket_sports();
    let s = &tt.test.series()[0];
    let text = format_series_line(s);
    for (model, proto) in [("rocket", "v2"), ("inception", "ndjson")] {
        let out = client(&[
            "--addr", &addr, "--proto", proto, "--model", model, "--series", &text,
        ]);
        assert_eq!(
            printed_label(&out),
            offline_label(&dir, model, s, tt.test.n_classes()),
            "{model} over {proto}: served label diverged from offline"
        );
    }

    // One augment: the reply equals the offline pipeline.
    let registry = PipelineRegistry::from_file(&pipelines).expect("pipelines.toml");
    let pipe = registry.get("light").expect("the light pipeline");
    let mut conn =
        Conn::open_proto(&addr, Some(Duration::from_secs(10)), Proto::Ndjson).expect("connect");
    let reply = conn
        .round_trip_request(&WireRequest::augment(Proto::Ndjson, 2, "light", 7, 3, s))
        .expect("augment reply");
    assert!(reply.ok, "{:?}", reply.error);
    assert_eq!(reply.series.as_ref(), Some(&pipe.apply_one(s, 7, 3)));
    drop(conn);

    let status = server.terminate().expect("tsda_serve exits within 20 s of SIGTERM");
    assert!(status.success(), "tsda_serve exited with {status}");
}

#[test]
fn router_drains_reaps_its_replicas_and_exits_zero_on_sigterm() {
    let dir = TempDir::new("router");
    let mut router = Running::start(
        ROUTER,
        &[
            "--addr", "127.0.0.1:0", "--replicas", "2", "--models", "rocket", "--fast",
            "--serve-bin", SERVE, "--dir", dir.as_str(),
        ],
    );
    let addr = router.addr.clone();

    let out = client(&["--addr", &addr, "--wait-ready", "30", "--stats"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let json = stdout.strip_prefix("ready\n").expect("ready, then the stats");
    let stats = serde_json::parse_value(json).expect("stats JSON");
    let Some(Value::Array(replicas)) = stats.get("replicas") else {
        panic!("router stats without replicas: {json}");
    };
    let replica_addrs: Vec<String> = replicas
        .iter()
        .filter_map(|r| r.get("addr").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    assert_eq!(replica_addrs.len(), 2, "{json}");
    for replica in &replica_addrs {
        TcpStream::connect(replica).expect("a replica listens while the router runs");
    }

    let tt = racket_sports();
    let s = &tt.test.series()[1];
    let mut conn =
        Conn::open_proto(&addr, Some(Duration::from_secs(10)), Proto::V2).expect("connect");
    let reply = conn
        .round_trip_request(&WireRequest::predict(Proto::V2, 1, "rocket", s))
        .expect("predict reply");
    assert!(reply.ok, "{:?}", reply.error);
    assert_eq!(reply.label, Some(offline_label(&dir, "rocket", s, tt.test.n_classes())));
    drop(conn);

    let status = router.terminate().expect("tsda_router exits within 20 s of SIGTERM");
    assert!(status.success(), "tsda_router exited with {status}");
    for replica in &replica_addrs {
        assert!(
            TcpStream::connect(replica).is_err(),
            "replica {replica} still accepts connections after the router exited"
        );
    }
}
