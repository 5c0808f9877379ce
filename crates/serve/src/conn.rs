//! The connection layer the server and the router share: one accept
//! loop, one protocol negotiation, one read/drain loop, and one
//! line/frame splitter over reused per-connection scratch. What a
//! connection answers is its [`Handler`]'s business; reading requests
//! off the socket and writing replies back happens here, once.
//!
//! Connections negotiate their protocol from the first bytes: a
//! [`proto2::PREAMBLE`] switches the connection to length-prefixed
//! binary frames (protocol v2); anything else is newline-delimited
//! JSON. The mode is fixed for the connection's lifetime — see
//! [`crate::proto2`] for the framing rules. Each connection gets its own
//! thread answering one reply per request, in order, so clients may
//! pipeline freely.
//!
//! Shutdown drains: when the flag flips, each connection does a final
//! non-blocking read pass and answers every complete request (line or
//! frame) it has already received before closing.

use crate::client::Proto;
use crate::dispatch::Reply;
use crate::faults::{self, FaultPlan};
use crate::{proto2, protocol};
use std::io::{ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What a connection answers: one reply per request, in order.
pub(crate) trait Handler {
    /// Answer one NDJSON request line (trimmed, never empty), appending
    /// the reply line without its newline.
    fn answer_line(&mut self, line: &str, out: &mut String);
    /// Answer one raw v2 frame (`body + crc`), appending one reply frame.
    fn answer_frame(&mut self, raw: &[u8], out: &mut Vec<u8>);
    /// Where the loop counts the refusals it answers itself: a broken
    /// preamble or an invalid frame length.
    fn errors(&self) -> &AtomicU64;
}

/// A connection's admission key: the peer IP, so reconnecting keeps
/// the same bucket.
pub(crate) fn peer_ip(stream: &TcpStream) -> String {
    stream.peer_addr().map(|a| a.ip().to_string()).unwrap_or_else(|_| "unknown".to_string())
}

/// Accept connections until `shutdown` flips, running `serve` for each
/// on its own thread named `thread`, then join every connection thread.
/// The listener blocks in `accept`: whoever flips the flag then wakes
/// the loop with [`wake_accept`], and anything accepted after the flip
/// is dropped unserved.
pub(crate) fn accept_loop<F>(listener: &TcpListener, shutdown: &AtomicBool, thread: &str, serve: F)
where
    F: Fn(TcpStream) + Clone + Send + 'static,
{
    let mut conn_threads = Vec::new();
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Replies are small; without TCP_NODELAY Nagle holds
                // them for the peer's delayed ACK (~40ms).
                stream.set_nodelay(true).ok();
                let serve = serve.clone();
                let spawned = std::thread::Builder::new().name(thread.into());
                if let Ok(t) = spawned.spawn(move || serve(stream)) {
                    conn_threads.push(t);
                }
                // Opportunistically reap finished handlers so a
                // long-lived server doesn't accumulate join handles.
                conn_threads.retain(|t| !t.is_finished());
            }
            // A real accept error (EMFILE, ECONNABORTED, ...): back off
            // briefly instead of spinning on it.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// Wake an [`accept_loop`] blocked on a listener bound to `addr`, after
/// its shutdown flag flipped: one throwaway connection, to loopback when
/// the listener is bound to the unspecified address.
pub(crate) fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    let _woken = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok();
}

/// Serve one connection until the peer closes, a write fails, or
/// shutdown drains it. A short read timeout lets the loop notice
/// shutdown within ~100ms even on an idle keep-alive connection. On
/// shutdown one final read pass picks up anything the peer already
/// sent, and every complete request gets its reply before the socket
/// closes. `faults` corrupts request bytes and delays, tears or drops
/// reply writes on the plan's schedule (see [`crate::faults`]).
pub(crate) fn serve_conn(
    stream: TcpStream,
    handler: &mut impl Handler,
    shutdown: &AtomicBool,
    faults: Option<&FaultPlan>,
) {
    let Ok(mut reader) = stream.try_clone() else { return };
    if reader.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    let mut conn = Conn {
        writer: stream,
        faults,
        mode: None,
        buf: Vec::with_capacity(4096),
        reply_line: String::new(),
        reply_frame: Vec::new(),
    };
    let mut chunk = [0u8; 4096];
    loop {
        if !conn.answer_buffered(handler) {
            return;
        }
        if shutdown.load(Ordering::Relaxed) {
            // Final drain: requests the peer pipelined before shutdown
            // may still sit in the kernel buffer. Read until the socket
            // goes quiet, then answer everything complete.
            loop {
                match reader.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break, // WouldBlock/TimedOut: socket quiet
                }
            }
            conn.answer_buffered(handler);
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// One connection's write half, negotiated protocol, read buffer, and
/// the scratch reused across its requests: at steady state a
/// connection splits requests and encodes replies without allocating.
struct Conn<'a> {
    writer: TcpStream,
    faults: Option<&'a FaultPlan>,
    /// `None` until the first request byte arrives.
    mode: Option<Proto>,
    /// Bytes read but not yet answered. Each pass answers the complete
    /// requests in it from a cursor, then drops them in one compaction.
    buf: Vec<u8>,
    /// One NDJSON reply line.
    reply_line: String,
    /// One v2 reply frame.
    reply_frame: Vec<u8>,
}

impl Conn<'_> {
    /// Settle the protocol if still undecided, then answer everything
    /// complete in `buf`. Returns false when the connection must close.
    ///
    /// The preamble's first byte (0xB2) can never start a JSON line, so
    /// one byte settles NDJSON; a full preamble match settles v2 and
    /// consumes the preamble bytes.
    fn answer_buffered(&mut self, handler: &mut impl Handler) -> bool {
        let preamble = &proto2::PREAMBLE;
        if self.mode.is_none() && !self.buf.is_empty() {
            if self.buf[0] != preamble[0] {
                self.mode = Some(Proto::Ndjson);
            } else if self.buf.len() < preamble.len() {
                return true; // the rest of the preamble has not arrived
            } else if self.buf[..preamble.len()] == *preamble {
                self.buf.drain(..preamble.len());
                self.mode = Some(Proto::V2);
            } else {
                // A broken preamble is not attributable to either
                // protocol; answer once in NDJSON (any client can read
                // it) and close.
                self.refuse(handler, "bad protocol preamble".to_string());
                return false;
            }
        }
        match self.mode {
            None => true,
            Some(Proto::Ndjson) => self.answer_lines(handler),
            Some(Proto::V2) => self.answer_frames(handler),
        }
    }

    /// Answer each complete line in `buf`, in order, then drop them
    /// from it. Returns false when a write failed (peer gone or
    /// fault-injected drop).
    fn answer_lines(&mut self, handler: &mut impl Handler) -> bool {
        let mut start = 0;
        let open = loop {
            let Some(len) = self.buf[start..].iter().position(|&b| b == b'\n') else {
                break true;
            };
            let line = &mut self.buf[start..start + len];
            start += len + 1;
            if let Some(plan) = self.faults {
                // Wire corruption happens between the peer's write and
                // our parse; the parser must turn it into an error reply.
                plan.corrupt_line(line);
            }
            // Borrowed in the common (valid UTF-8) case; invalid bytes
            // are already a parse-error path.
            let text = String::from_utf8_lossy(line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            self.reply_line.clear();
            handler.answer_line(text, &mut self.reply_line);
            self.reply_line.push('\n');
            let reply = self.reply_line.as_bytes();
            if faults::write_response(&mut self.writer, reply, self.faults).is_err() {
                break false;
            }
        };
        self.buf.drain(..start);
        open
    }

    /// Answer each complete v2 frame in `buf`, in order, then drop them
    /// from it. Returns false when the connection must close: a failed
    /// write, or a corrupted *length prefix* — unlike body corruption
    /// (caught by the checksum and answered with an error reply on an
    /// intact stream), a bad prefix desynchronises framing beyond
    /// recovery.
    fn answer_frames(&mut self, handler: &mut impl Handler) -> bool {
        let mut start = 0;
        let open = loop {
            let end = match proto2::frame_end(&self.buf[start..]) {
                Ok(Some(end)) => start + end,
                Ok(None) => break true,
                Err(message) => {
                    self.refuse(handler, message);
                    break false;
                }
            };
            let raw = &mut self.buf[start + 4..end];
            start = end;
            if let Some(plan) = self.faults {
                // Corrupt after the boundary is known: frame extraction
                // used the (uncorrupted) length prefix, so the stream
                // stays in sync and the checksum turns the mangled
                // payload into an error reply instead of a different
                // request.
                plan.corrupt_line(raw);
            }
            self.reply_frame.clear();
            handler.answer_frame(raw, &mut self.reply_frame);
            if faults::write_response(&mut self.writer, &self.reply_frame, self.faults).is_err() {
                break false;
            }
        };
        self.buf.drain(..start);
        open
    }

    /// Count and answer a request the loop refuses itself, in the
    /// connection's protocol (NDJSON while undecided). Best effort: the
    /// connection closes whether or not the write lands.
    fn refuse(&mut self, handler: &impl Handler, message: String) {
        handler.errors().fetch_add(1, Ordering::Relaxed);
        let reply = Reply::Error { id: 0, message };
        let bytes = if self.mode == Some(Proto::V2) {
            self.reply_frame.clear();
            proto2::encode_reply_into(&mut self.reply_frame, &reply);
            &self.reply_frame[..]
        } else {
            self.reply_line.clear();
            protocol::encode_reply_into(&mut self.reply_line, &reply);
            self.reply_line.push('\n');
            self.reply_line.as_bytes()
        };
        let _delivered = faults::write_response(&mut self.writer, bytes, self.faults).is_ok();
    }
}
