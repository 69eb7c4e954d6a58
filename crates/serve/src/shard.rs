//! One shard of the event-driven server: a non-blocking event loop
//! multiplexing many connections on a single thread.
//!
//! The accept loop hands sockets over an mpsc channel and then writes a
//! byte to the shard's [`Waker`]; the shard owns the sockets outright
//! from then on. Between sweeps the shard blocks in `poll(2)` (see
//! [`crate::sys`]) on its waker and every connection: each open
//! connection waits for input, and one with unsent replies also waits
//! for the socket to take them. A sweep then visits only the
//! connections that reported events, still hold unsent output, or are
//! past their deadline, so neither a wake-up nor idling costs work per
//! idle connection.
//!
//! A visited connection is flushed, read, has **all** of its complete
//! frames parsed (pipelining: a client may send many requests before
//! reading a single response) and answered in request order into one
//! output buffer, which is written back in bulk. The wait's timeout is
//! the earliest progress deadline, so a connection that makes no
//! progress for the configured read timeout is closed with a
//! `protocol_error` even while the shard is blocked, without disturbing
//! the shard's other connections — the slow-loris guard, event-loop
//! edition.
//!
//! Codec negotiation is in-buffer: the first four bytes either spell
//! the binary magic (then four more carry the version) or are a JSON
//! length prefix. The rules — and every error reply — mirror the
//! threaded handler bit for bit, which is what lets the differential
//! tests referee the two architectures against each other.

use crate::proto::{self, Codec, Request, Response};
use crate::server::{handle_request, signal_shutdown, Handled, Shared};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use fsmgen::failpoints;
use fsmgen_obs as obs;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Per-sweep read chunk.
const READ_CHUNK: usize = 16 * 1024;

/// Longest readiness wait. Every event a shard must handle arrives on a
/// socket or its waker, so this is only a backstop for an idle shard.
const MAX_WAIT: Duration = Duration::from_secs(1);

/// Wakes a shard blocked in its readiness wait: the accept loop wakes
/// it after handing over a socket, shutdown wakes every shard. A
/// connected socket pair, so it needs no unsafe code.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the shard's next (or current) wait return. A full buffer
    /// means a wake-up is already pending, so a failed write is fine.
    pub(crate) fn wake(&self) {
        let _pending = (&self.tx).write(&[1]);
    }

    /// Consumes pending wake-ups, so the next wait blocks again.
    fn clear(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Negotiated on the first bytes, then fixed for the connection.
    codec: Option<Codec>,
    /// Bytes read but not yet parsed; `start` is the parse cursor.
    inbuf: Vec<u8>,
    start: usize,
    /// Encoded responses awaiting the socket; `sent` is the write cursor.
    outbuf: Vec<u8>,
    sent: usize,
    /// Last time this connection moved bytes in either direction.
    last_progress: Instant,
    /// Close once `outbuf` has drained; stop reading immediately.
    closing: bool,
    /// The peer closed its half; parse what is buffered, then close.
    peer_eof: bool,
    /// The last wait reported events on the socket (or it is new).
    ready: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            codec: None,
            inbuf: Vec::new(),
            start: 0,
            outbuf: Vec::new(),
            sent: 0,
            last_progress: Instant::now(),
            closing: false,
            peer_eof: false,
            ready: true,
        }
    }

    /// Encoded responses the socket has not taken yet.
    fn unsent(&self) -> bool {
        self.sent < self.outbuf.len()
    }

    /// Unparsed buffered bytes.
    fn pending(&self) -> &[u8] {
        &self.inbuf[self.start..]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        // Reclaim the buffer once everything buffered has been parsed
        // (the common case between pipelined bursts).
        if self.start == self.inbuf.len() {
            self.inbuf.clear();
            self.start = 0;
        }
    }

    /// Queues one response frame in this connection's codec.
    fn push_response(&mut self, response: &Response) {
        let codec = self.codec.unwrap_or_default();
        let payload = response.encode_with(codec);
        let len: u32 = payload.len().try_into().unwrap_or(u32::MAX);
        self.outbuf.extend_from_slice(&len.to_be_bytes());
        self.outbuf.extend_from_slice(&payload);
    }
}

/// What [`parse_frame`] found at the head of a connection's buffer.
enum Parsed {
    /// One complete frame payload (the codec is resolved by now).
    Frame(Vec<u8>),
    /// Not enough bytes yet; wait for more.
    Incomplete,
    /// Unrecoverable framing fault: reply `error`, then close.
    Fatal { error: String, oversized: bool },
}

/// Pulls the next frame out of `conn`'s input buffer, negotiating the
/// codec on the connection's very first bytes. Mirrors the threaded
/// path's `read_negotiated_frame` exactly.
fn parse_frame(conn: &mut Conn, max_frame: usize) -> Parsed {
    if conn.codec.is_none() {
        let head = conn.pending();
        if head.len() < 4 {
            return Parsed::Incomplete;
        }
        if head[..4] == proto::BINARY_MAGIC {
            if head.len() < proto::BINARY_PREAMBLE_LEN {
                return Parsed::Incomplete;
            }
            let mut version_bytes = [0u8; 4];
            version_bytes.copy_from_slice(&head[4..8]);
            let version = u32::from_be_bytes(version_bytes);
            conn.codec = Some(Codec::BinaryV2);
            conn.consume(proto::BINARY_PREAMBLE_LEN);
            if version != proto::PROTOCOL_VERSION {
                return Parsed::Fatal {
                    error: format!(
                        "unsupported binary protocol version {version} (this server speaks {})",
                        proto::PROTOCOL_VERSION
                    ),
                    oversized: false,
                };
            }
        } else {
            // Anything else is a JSON v1 length prefix: leave it in the
            // buffer for the framing step below.
            conn.codec = Some(Codec::JsonV1);
        }
    }
    let head = conn.pending();
    if head.len() < 4 {
        return Parsed::Incomplete;
    }
    let mut prefix = [0u8; 4];
    prefix.copy_from_slice(&head[..4]);
    let advertised = u32::from_be_bytes(prefix) as usize;
    if advertised > max_frame {
        return Parsed::Fatal {
            error: format!("frame of {advertised} bytes exceeds the {max_frame}-byte limit"),
            oversized: true,
        };
    }
    if head.len() < 4 + advertised {
        return Parsed::Incomplete;
    }
    let payload = head[4..4 + advertised].to_vec();
    conn.consume(4 + advertised);
    Parsed::Frame(payload)
}

/// Flushes as much of `conn.outbuf` as the socket will take right now,
/// stamping progress if any byte left. Returns false when the
/// connection is dead.
fn flush_writes(conn: &mut Conn) -> bool {
    while conn.sent < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.sent..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.sent += n;
                conn.last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.sent == conn.outbuf.len() && conn.sent > 0 {
        conn.outbuf.clear();
        conn.sent = 0;
    }
    true
}

/// Reads whatever the socket has ready, stamping progress if any byte
/// arrived. Returns false when the connection errored out.
fn drain_reads(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                return true;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                conn.last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Parses and answers every complete frame buffered on `conn`. Returns
/// false when the connection hit a fatal fault (already queued a reply
/// and flagged `closing`).
fn service_frames(shared: &Arc<Shared>, index: usize, addr: SocketAddr, conn: &mut Conn) -> bool {
    let max_frame = shared.config.max_frame_bytes;
    loop {
        match parse_frame(conn, max_frame) {
            Parsed::Incomplete => return true,
            Parsed::Fatal { error, oversized } => {
                let counter = if oversized {
                    shared
                        .metrics
                        .oversized_frames
                        .fetch_add(1, Ordering::Relaxed);
                    "oversized_frame"
                } else {
                    shared
                        .metrics
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    "malformed_frame"
                };
                obs::counter("serve", counter, 1);
                conn.push_response(&Response::ProtocolError { error });
                conn.closing = true;
                return false;
            }
            Parsed::Frame(payload) => {
                let codec = conn.codec.unwrap_or_default();
                let _request_span = obs::span("serve_request");
                let request_started = Instant::now();
                let request = {
                    let _parse_span = obs::span("serve_parse");
                    Request::decode_with(codec, &payload)
                };
                let request = match request {
                    Ok(request) => request,
                    Err(reason) => {
                        shared
                            .metrics
                            .malformed_frames
                            .fetch_add(1, Ordering::Relaxed);
                        obs::counter("serve", "malformed_frame", 1);
                        // Well-delimited frame, bad contents: the stream
                        // is still in sync, so reply and keep serving.
                        conn.push_response(&Response::ProtocolError { error: reason });
                        continue;
                    }
                };
                match handle_request(shared, Some(index), request) {
                    Handled::Reply(response) => conn.push_response(&response),
                    Handled::Shutdown => {
                        conn.push_response(&Response::ShutdownAck);
                        conn.closing = true;
                        signal_shutdown(shared, addr);
                        return false;
                    }
                }
                shared
                    .metrics
                    .request_latency
                    .record(request_started.elapsed());
            }
        }
    }
}

/// Registers a freshly accepted socket with this shard's connection set.
/// Returns `None` when the connection was refused (fault injection or a
/// socket that cannot be made non-blocking) — the caller un-counts it.
fn register(shared: &Arc<Shared>, index: usize, stream: TcpStream) -> Option<Conn> {
    shared
        .metrics
        .conns_accepted
        .fetch_add(1, Ordering::Relaxed);
    obs::counter("serve", "conn_accepted", 1);
    if let Some(metrics) = shared.metrics.shard(index) {
        metrics.conns.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(action) = failpoints::fire("serve-conn") {
        // Injected connection fault: modelled as an I/O-layer failure,
        // so the connection is dropped without a reply.
        let _ = action;
        shared
            .metrics
            .injected_faults
            .fetch_add(1, Ordering::Relaxed);
        obs::counter("serve", "conn_fault_injected", 1);
        return None;
    }
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    Some(Conn::new(stream))
}

/// Flushes, reads, answers and flushes again one connection, then
/// applies the close and timeout rules. Returns false once the
/// connection is finished and should be dropped.
fn service_conn(
    shared: &Arc<Shared>,
    index: usize,
    addr: SocketAddr,
    conn: &mut Conn,
    timeout: Duration,
) -> bool {
    if !flush_writes(conn) {
        return false;
    }
    if !conn.closing {
        if !drain_reads(conn) {
            return false;
        }
        service_frames(shared, index, addr, conn);
        if conn.peer_eof {
            // Half-closed peers may still want queued responses; close
            // once they are out.
            conn.closing = true;
        }
        if !flush_writes(conn) {
            return false;
        }
    }
    if conn.closing {
        return conn.unsent();
    }
    if conn.last_progress.elapsed() > timeout {
        // The slow-loris guard: a stalled connection is told off and
        // closed; the shard's other connections are untouched.
        shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve", "read_timeout", 1);
        conn.push_response(&Response::ProtocolError {
            error: "read timed out".into(),
        });
        conn.closing = true;
        let _best_effort = flush_writes(conn);
        return false;
    }
    true
}

/// Blocks until the waker or a connection is ready, or the earliest
/// progress deadline passes, then marks the ready connections. Only
/// connections still reading wait for input (and carry a deadline);
/// only those with unsent output wait for the socket to take it, since
/// an always-writable socket would end every wait at once.
fn wait_for_events(waker: &Waker, conns: &mut [Conn], fds: &mut Vec<PollFd>, timeout: Duration) {
    let now = Instant::now();
    let mut wait = MAX_WAIT;
    fds.clear();
    fds.push(PollFd::new(waker.rx.as_raw_fd(), POLLIN));
    for conn in conns.iter() {
        let mut events = 0;
        if !conn.closing {
            events |= POLLIN;
            if let Some(deadline) = conn.last_progress.checked_add(timeout) {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }
        if conn.unsent() {
            events |= POLLOUT;
        }
        fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
    }
    match sys::wait(fds, wait) {
        Ok(_) => {
            if fds[0].ready() {
                waker.clear();
            }
            for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
                conn.ready = fd.ready();
            }
        }
        // A signal: just start the next sweep.
        Err(e) if e.kind() == ErrorKind::Interrupted => {}
        Err(e) => {
            // Without readiness information, visit every connection.
            obs::mark("serve", "shard_poll_failed", &e.to_string());
            for conn in conns.iter_mut() {
                conn.ready = true;
            }
        }
    }
}

/// The shard thread body: own every connection handed over `rx` until
/// shutdown, multiplexing them through one readiness-driven loop.
pub(crate) fn run_shard(
    shared: &Arc<Shared>,
    index: usize,
    rx: &mpsc::Receiver<TcpStream>,
    addr: SocketAddr,
) {
    let _shard_span = obs::span("serve_shard");
    let timeout = shared.config.read_timeout;
    let waker = &shared.wakers[index];
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);

        // Adopt newly accepted sockets. The accept loop already counted
        // them in active_conns; refusals must un-count.
        while let Ok(stream) = rx.try_recv() {
            if shutting_down {
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            match register(shared, index, stream) {
                Some(conn) => conns.push(conn),
                None => {
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }

        // Visit the connections that need it: ready, unsent output, or
        // past their deadline. The rest cost one comparison.
        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let due = conn.ready
                || conn.unsent()
                || (!conn.closing && now.saturating_duration_since(conn.last_progress) > timeout);
            conn.ready = false;
            if due && !service_conn(shared, index, addr, conn, timeout) {
                conns.swap_remove(i);
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            } else {
                i += 1;
            }
        }

        if shutting_down {
            // Final best-effort flush, then release every connection so
            // the server's drain sees active_conns reach zero.
            for conn in &mut conns {
                let _best_effort = flush_writes(conn);
            }
            let remaining = conns.len();
            conns.clear();
            for _ in 0..remaining {
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            }
            // Un-count anything still queued on the channel.
            while rx.try_recv().is_ok() {
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        wait_for_events(waker, &mut conns, &mut fds, timeout);
    }
}
