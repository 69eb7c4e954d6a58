//! The open-loop load generator: requests go out on a fixed schedule
//! whether or not earlier ones were answered, so a stalled server keeps
//! receiving load and every request it delays is counted. Latency is
//! measured from each request's *due* time, not from when it was
//! actually written, which folds the generator's own lateness and any
//! wait for a free connection into the number (no coordinated omission).
//!
//! A step can also run closed-loop ([`Load::Closed`]): a fixed number of
//! requests in flight, each sent the moment a reply frees its
//! connection, which measures the saturation throughput.
//!
//! Requests come from [`LANES`] sender threads. Each keeps a pool of
//! keep-alive connections and writes a request only on a connection with
//! nothing in flight, the way independent users (or an HTTP/1.1 client
//! without pipelining) behave; a reader thread per connection takes the
//! reply. One request in flight per connection also means every request
//! acknowledges the previous reply, so the server's socket never holds a
//! reply back waiting for a delayed acknowledgement: with one pipelined
//! connection per thread, replies on this host sat in the server's send
//! queue until the connection's next request left, roughly one request
//! interval (8 ms at 250 req/s) in some windows and not in others.

use fsmgen_serve::{Codec, Request, Response, DEFAULT_MAX_FRAME};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Sender threads (sized for a two-CPU host).
pub const LANES: usize = 2;
/// Most connections one sender keeps; when all are busy it waits for one
/// to free, and the wait shows up as lateness.
pub const POOL_CAP: usize = 32;
/// Connections each sender opens before the first request is due.
pub const PREOPEN: usize = 2;

/// What one run of the generator sends and how it checks the replies.
pub trait Traffic: Sync {
    /// The request with global sequence number `seq`.
    fn request(&self, seq: u64) -> Request;
    /// Checks the reply to request `seq`; `Err` counts it as failed.
    fn check(&self, seq: u64, response: &Response) -> Result<(), String>;
}

/// How a step offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop: this many requests per second on a fixed schedule.
    Open(f64),
    /// Closed loop: this many requests in flight (split across the
    /// senders), each sent as soon as a reply frees a connection.
    Closed(usize),
}

/// One step of load.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The offered load.
    pub load: Load,
    /// How long requests keep being sent.
    pub duration: Duration,
    /// How long after the last send replies are waited for before the
    /// rest count as unanswered.
    pub drain: Duration,
}

impl Step {
    /// Requests an open-loop step schedules (`rate * duration`, at
    /// least one); `None` for a closed loop, which sends as many as it
    /// can.
    #[must_use]
    pub fn requests(&self) -> Option<u64> {
        match self.load {
            Load::Open(rate) => Some(((rate * self.duration.as_secs_f64()).round() as u64).max(1)),
            Load::Closed(_) => None,
        }
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answered and the answer passed the traffic's check.
    Ok,
    /// Answered with something the check rejected, or never sent.
    Failed(String),
    /// No answer before the drain deadline.
    Unanswered,
}

/// One request's timeline on the step's clock.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Global sequence number (also the request id).
    pub seq: u64,
    /// When it was due.
    pub due: Duration,
    /// When the sender finished writing it.
    pub sent: Duration,
    /// When its reply arrived, if it did.
    pub done: Option<Duration>,
    /// How it ended.
    pub outcome: Outcome,
    /// The server-reported design wall clock, for design replies.
    pub server_ms: Option<f64>,
    /// Client-side `Request::encode_with` time.
    pub encode_ns: f64,
    /// Client-side `Response::decode_with` time (0 when unanswered).
    pub decode_ns: f64,
}

impl Sample {
    /// Latency from the due time, when answered.
    #[must_use]
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the generator wrote the request.
    #[must_use]
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Everything one step recorded.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The step that ran.
    pub step: Step,
    /// In sequence order: every scheduled request of an open loop, only
    /// the failed ones of a closed loop (whose replies are counted in
    /// `replies_per_ms`, so its memory does not grow with throughput).
    pub samples: Vec<Sample>,
    /// Replies that passed their check, by millisecond of arrival.
    pub replies_per_ms: Vec<u32>,
    /// Requests the step sent or failed to send.
    pub attempted: u64,
    /// One past the highest sequence number the step used.
    pub next_seq: u64,
    /// Connections the generator opened.
    pub connections: usize,
    /// When the step started; sample times count from here.
    pub start: Instant,
}

impl StepReport {
    /// Requests that failed or went unanswered.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome != Outcome::Ok)
            .count()
    }

    /// Requests due by the end of the step that had no reply by then.
    #[must_use]
    pub fn backlog_at_end(&self) -> usize {
        let end = self.step.duration;
        self.samples
            .iter()
            .filter(|s| s.due <= end && s.done.is_none_or(|d| d > end))
            .count()
    }

    /// `(millisecond, replies in it)`: window sums of these count the
    /// replies that passed their check.
    pub fn completions(&self) -> impl Iterator<Item = (Duration, f64)> + '_ {
        self.replies_per_ms
            .iter()
            .enumerate()
            .map(|(ms, &n)| (Duration::from_millis(ms as u64), f64::from(n)))
    }

    /// `(due, latency in ms)` of every answered request.
    pub fn latencies_ms(&self) -> impl Iterator<Item = (Duration, f64)> + '_ {
        self.samples
            .iter()
            .filter_map(|s| s.latency().map(|l| (s.due, l.as_secs_f64() * 1e3)))
    }

    /// Generator lateness of every request, in ms.
    #[must_use]
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.lateness().as_secs_f64() * 1e3)
            .collect()
    }
}

/// Opens one keep-alive connection (JSON v1, Nagle off so each frame
/// leaves at once).
///
/// # Errors
///
/// Connection failures.
pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A request written on a connection whose reply is still owed.
struct Pending {
    seq: u64,
    due: Duration,
    sent: Duration,
    encode_ns: f64,
}

/// What every thread of one step shares.
struct Shared<'a> {
    start: Instant,
    deadline: Instant,
    traffic: &'a dyn Traffic,
    /// Keep a sample for every request, not only the failed ones.
    keep_all: bool,
    samples: Mutex<Vec<Sample>>,
    replies_per_ms: Vec<AtomicU32>,
    attempted: AtomicU64,
}

impl Shared<'_> {
    fn record(&self, sample: Sample) {
        if let (Outcome::Ok, Some(done)) = (&sample.outcome, sample.done) {
            if let Some(slot) = self.replies_per_ms.get(done.as_millis() as usize) {
                slot.fetch_add(1, Ordering::Relaxed);
            }
            if !self.keep_all {
                return;
            }
        }
        lock(&self.samples).push(sample);
    }
}

/// Runs one step against `addr`. Request `i` (sequence `first_seq + i`)
/// goes out from sender `i % LANES`; in an open loop it is due at
/// `i / rate`, in a closed loop when its sender has a free connection.
#[must_use]
pub fn run_step(addr: &str, step: Step, first_seq: u64, traffic: &dyn Traffic) -> StepReport {
    let start = Instant::now();
    let window = step.duration + step.drain + Duration::from_secs(1);
    let shared = Shared {
        start,
        deadline: start + step.duration + step.drain,
        traffic,
        keep_all: matches!(step.load, Load::Open(_)),
        samples: Mutex::new(Vec::new()),
        replies_per_ms: (0..window.as_millis()).map(|_| AtomicU32::new(0)).collect(),
        attempted: AtomicU64::new(0),
    };
    let lanes: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..LANES as u64)
            .map(|lane| {
                let shared = &shared;
                scope.spawn(move || send_lane(scope, addr, lane, step, first_seq, shared))
            })
            .collect();
        lanes
            .into_iter()
            .map(|l| l.join().expect("sender thread panicked"))
            .collect()
    });
    let mut samples = shared
        .samples
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    samples.sort_by_key(|s| s.seq);
    StepReport {
        step,
        samples,
        replies_per_ms: shared
            .replies_per_ms
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect(),
        attempted: shared.attempted.into_inner(),
        next_seq: lanes
            .iter()
            .map(|&(_, next)| next)
            .max()
            .unwrap_or(first_seq),
        connections: lanes.iter().map(|&(opened, _)| opened).sum(),
        start,
    }
}

/// One pooled connection as its sender sees it.
struct PoolConn {
    writer: TcpStream,
    pending: mpsc::Sender<Pending>,
}

/// Sends every request of lane `lane`; returns how many connections it
/// opened and one past the last sequence number it used.
fn send_lane<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    addr: &'env str,
    lane: u64,
    step: Step,
    first_seq: u64,
    shared: &'env Shared<'env>,
) -> (usize, u64) {
    let (idle_tx, idle_rx) = mpsc::channel::<usize>();
    let mut pool: Vec<Option<PoolConn>> = Vec::new();
    // Free connections, oldest first: cycling through all of them keeps
    // every one active, so none idles into the server's read timeout.
    let mut idle: VecDeque<usize> = VecDeque::new();
    let open = |pool: &mut Vec<Option<PoolConn>>| -> Result<usize, String> {
        let stream = connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?;
        let (tx, rx) = mpsc::channel();
        let index = pool.len();
        let idle_tx = idle_tx.clone();
        scope.spawn(move || read_conn(reader, index, shared, &rx, &idle_tx));
        pool.push(Some(PoolConn {
            writer: stream,
            pending: tx,
        }));
        Ok(index)
    };
    let fail = |seq: u64, due: Duration, encode_ns: f64, why: String| {
        shared.record(Sample {
            seq,
            due,
            sent: shared.start.elapsed(),
            done: None,
            outcome: Outcome::Failed(why),
            server_ms: None,
            encode_ns,
            decode_ns: 0.0,
        });
    };
    let (cap, preopen) = match step.load {
        Load::Open(_) => (POOL_CAP, PREOPEN),
        Load::Closed(in_flight) => {
            let mine = in_flight.div_ceil(LANES).max(1);
            (mine, mine)
        }
    };
    for _ in 0..preopen {
        if let Ok(i) = open(&mut pool) {
            idle.push_back(i);
        }
    }
    let send_until = shared.start + step.duration;
    let mut frame = Vec::new();
    let mut next_seq = first_seq;
    for i in (lane..).step_by(LANES) {
        let seq = first_seq + i;
        let due = match (step.load, step.requests()) {
            (Load::Open(rate), Some(total)) if i < total => {
                let due = Duration::from_secs_f64(i as f64 / rate);
                let wait = due.saturating_sub(shared.start.elapsed());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                Some(due)
            }
            (Load::Closed(_), _) if Instant::now() < send_until => None,
            _ => break,
        };
        idle.extend(idle_rx.try_iter());
        let conn = loop {
            if let Some(c) = idle.pop_front() {
                break Ok(c);
            }
            if pool.len() < cap {
                break open(&mut pool);
            }
            // A closed loop stops when its time is up; an open loop owes
            // this request and waits until the deadline.
            let until = if due.is_none() {
                send_until
            } else {
                shared.deadline
            };
            match idle_rx.recv_timeout(until.saturating_duration_since(Instant::now())) {
                Ok(c) => idle.push_back(c),
                Err(_) => break Err("no connection freed before the deadline".to_string()),
            }
        };
        if due.is_none() && conn.is_err() {
            break;
        }
        next_seq = seq + 1;
        shared.attempted.fetch_add(1, Ordering::Relaxed);
        // A closed-loop request is due the moment it has a connection.
        let due = due.unwrap_or_else(|| shared.start.elapsed());
        let request = shared.traffic.request(seq);
        let t0 = Instant::now();
        let payload = request.encode_with(Codec::JsonV1);
        let encode_ns = t0.elapsed().as_nanos() as f64;
        let c = match conn {
            Ok(c) => c,
            Err(why) => {
                fail(seq, due, encode_ns, why);
                continue;
            }
        };
        let Some(pc) = pool[c].as_mut() else {
            fail(seq, due, encode_ns, "connection retired".into());
            continue;
        };
        frame.clear();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        if let Err(e) = pc.writer.write_all(&frame) {
            // The connection is unusable: retire it (its reader exits
            // once its channel closes).
            pool[c] = None;
            fail(seq, due, encode_ns, format!("send failed: {e}"));
            continue;
        }
        let pending = Pending {
            seq,
            due,
            sent: shared.start.elapsed(),
            encode_ns,
        };
        if pc.pending.send(pending).is_err() {
            fail(seq, due, encode_ns, "reader gone".into());
        }
    }
    // Dropping the pool closes every reader's channel; each settles its
    // outstanding request and exits.
    (pool.len(), next_seq)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the replies of one connection, one outstanding request at a
/// time, and hands the connection back to its sender after each.
fn read_conn(
    mut stream: TcpStream,
    index: usize,
    shared: &Shared<'_>,
    rx: &mpsc::Receiver<Pending>,
    idle_tx: &mpsc::Sender<usize>,
) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .is_err()
    {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    while let Ok(p) = rx.recv() {
        let unanswered = |p: Pending| Sample {
            seq: p.seq,
            due: p.due,
            sent: p.sent,
            done: None,
            outcome: Outcome::Unanswered,
            server_ms: None,
            encode_ns: p.encode_ns,
            decode_ns: 0.0,
        };
        // Read until one whole frame is buffered.
        let arrived = loop {
            if buf.len() >= 4 {
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if len > DEFAULT_MAX_FRAME {
                    break None;
                }
                if buf.len() >= 4 + len {
                    break Some(shared.start.elapsed());
                }
            }
            if Instant::now() >= shared.deadline {
                break None;
            }
            match stream.read(&mut chunk) {
                Ok(0) => break None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => break None,
            }
        };
        let Some(arrived) = arrived else {
            // Dead, hostile or too slow: settle this request and every
            // later one the sender queues here, then stop.
            shared.record(unanswered(p));
            for p in rx.iter() {
                shared.record(unanswered(p));
            }
            return;
        };
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        let t0 = Instant::now();
        let decoded = Response::decode_with(Codec::JsonV1, &buf[4..4 + len]);
        let decode_ns = t0.elapsed().as_nanos() as f64;
        buf.drain(..4 + len);
        let (outcome, server_ms) = match decoded {
            Ok(response) => {
                let server_ms = match &response {
                    Response::DesignOk { wall_ms, .. } => Some(*wall_ms),
                    _ => None,
                };
                match shared.traffic.check(p.seq, &response) {
                    Ok(()) => (Outcome::Ok, server_ms),
                    Err(e) => (Outcome::Failed(e), server_ms),
                }
            }
            Err(e) => (Outcome::Failed(format!("undecodable reply: {e}")), None),
        };
        shared.record(Sample {
            seq: p.seq,
            due: p.due,
            sent: p.sent,
            done: Some(arrived),
            outcome,
            server_ms,
            encode_ns: p.encode_ns,
            decode_ns,
        });
        // The sender may already be done; then nobody wants it back.
        let _ = idle_tx.send(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    struct Pings;

    impl Traffic for Pings {
        fn request(&self, _seq: u64) -> Request {
            Request::Ping
        }
        fn check(&self, _seq: u64, response: &Response) -> Result<(), String> {
            match response {
                Response::Pong => Ok(()),
                other => Err(format!("expected pong, got {other:?}")),
            }
        }
    }

    /// Serves one connection: answers every ping, but holds replies
    /// while `now` is inside `[stall_at, stall_at + stall)`. With
    /// `stall` zero it never answers at all when `mute` is set.
    fn answer(
        mut stream: TcpStream,
        stall_at: Instant,
        stall: Duration,
        mute: bool,
        stop: &AtomicBool,
    ) {
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let pong = Response::Pong.encode_with(Codec::JsonV1);
        let mut frame = (pong.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&pong);
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while !stop.load(Ordering::Relaxed) {
            let n = match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => n,
                Err(_) => continue,
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut replies = Vec::new();
            while buf.len() >= 4 {
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if buf.len() < 4 + len {
                    break;
                }
                buf.drain(..4 + len);
                replies.extend_from_slice(&frame);
            }
            if mute {
                continue;
            }
            let now = Instant::now();
            if now >= stall_at && now < stall_at + stall {
                std::thread::sleep(stall_at + stall - now);
            }
            if stream.write_all(&replies).is_err() {
                return;
            }
        }
    }

    /// An in-process responder accepting any number of connections.
    fn responder(
        stall_at: Instant,
        stall: Duration,
        mute: bool,
        stop: Arc<AtomicBool>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false).unwrap();
                            let stop = &stop;
                            scope.spawn(move || answer(stream, stall_at, stall, mute, stop));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            });
        });
        (addr, handle)
    }

    #[test]
    fn a_server_stall_delays_every_request_due_during_it() {
        let rate = 2000.0;
        let stall = Duration::from_millis(50);
        let stop = Arc::new(AtomicBool::new(false));
        let stall_at = Instant::now() + Duration::from_millis(400);
        let (addr, server) = responder(stall_at, stall, false, Arc::clone(&stop));
        let step = Step {
            load: Load::Open(rate),
            duration: Duration::from_secs(1),
            drain: Duration::from_secs(2),
        };
        let report = run_step(&addr, step, 0, &Pings);
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();

        assert_eq!(report.samples.len(), 2000);
        assert_eq!(report.failures(), 0, "every ping is answered");
        // Every request due while the responder stalls is held until the
        // stall ends, whether it was written at once or waited for a free
        // connection, and its latency counts from its due time: the stall
        // shows up in rate x stall samples, not in one.
        let t0 = stall_at.duration_since(report.start);
        let end = t0 + stall;
        let during: Vec<&Sample> = report
            .samples
            .iter()
            .filter(|s| s.due >= t0 && s.due < end)
            .collect();
        let expected = rate * stall.as_secs_f64();
        assert!(
            (during.len() as f64 - expected).abs() <= 2.0,
            "{} requests due during the stall, expected {expected}",
            during.len()
        );
        for s in &during {
            let done = s.done.expect("answered");
            assert!(done >= end, "request {} answered inside the stall", s.seq);
            assert_eq!(s.latency(), Some(done - s.due));
        }
        let worst = report.latencies_ms().map(|(_, ms)| ms).fold(0.0, f64::max);
        assert!(worst >= 45.0, "the stall itself shows: {worst} ms");
        assert!(report.connections <= LANES * POOL_CAP);
    }

    #[test]
    fn unanswered_requests_are_counted_not_dropped() {
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, server) = responder(Instant::now(), Duration::ZERO, true, Arc::clone(&stop));
        let step = Step {
            load: Load::Open(500.0),
            duration: Duration::from_millis(100),
            drain: Duration::from_millis(50),
        };
        let report = run_step(&addr, step, 7, &Pings);
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();
        assert_eq!(report.samples.len(), 50);
        assert_eq!(report.samples[0].seq, 7);
        assert_eq!(report.failures(), 50);
        assert!(report.samples.iter().all(|s| s.done.is_none()));
        assert_eq!(report.backlog_at_end(), 50);
        // Nothing ever frees, so every request took a connection of its own.
        assert_eq!(report.connections, 50);
    }
}
