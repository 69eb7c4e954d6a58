//! A small blocking client for the design service — the counterpart the
//! CLI's `fsmgen client` command and the e2e tests are built on.

use crate::proto::{self, Codec, ProtoError, Request, Response, DEFAULT_MAX_FRAME};
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Cap on any single backoff sleep.
const MAX_BACKOFF_MS: u64 = 1_000;

/// A tiny deterministic xorshift64* generator for backoff jitter — no
/// dependency, no global state, seedable for tests.
#[derive(Debug, Clone)]
struct BackoffRng(u64);

impl BackoffRng {
    fn new(seed: u64) -> Self {
        // A zero state would be a fixed point; force a bit on.
        BackoffRng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-enough value in `0..n` (`0` for `n = 0`).
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// The jittered exponential backoff schedule: attempt `k` doubles the
/// server's `retry_after_ms` hint `k` times (capped at
/// [`MAX_BACKOFF_MS`]), then draws uniformly from `[base/2, base]` so a
/// fleet of clients rejected together does not reconnect in lockstep
/// (the thundering-herd fix).
fn backoff_delay(hint_ms: u64, attempt: u32, rng: &mut BackoffRng) -> Duration {
    let base = hint_ms
        .max(1)
        .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX))
        .min(MAX_BACKOFF_MS);
    let low = base / 2;
    Duration::from_millis(low + rng.below(base - low + 1))
}

/// Per-process client counter feeding connection-unique RNG seeds.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64);
    let seq = CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
    nanos ^ (seq << 32) ^ (std::process::id() as u64)
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the connection died mid-exchange.
    Io(io::Error),
    /// The server's reply could not be understood.
    Protocol(String),
    /// The server reported our frame as unintelligible and closed.
    Rejected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ClientError::Rejected(reason) => write!(f, "server rejected the frame: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client holding one request/response TCP session. The
/// connection is keep-alive: any number of requests may be exchanged
/// before dropping it.
pub struct ServeClient {
    stream: TcpStream,
    max_frame: usize,
    codec: Codec,
    rng: BackoffRng,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7450`) with a read/write
    /// timeout applied to every exchange, speaking JSON v1.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str, timeout: Duration) -> Result<ServeClient, ClientError> {
        Self::connect_with(addr, timeout, Codec::JsonV1)
    }

    /// Connects speaking `codec`. Binary v2 announces itself by sending
    /// the `FSMB` preamble before the first frame; JSON v1 sends nothing
    /// extra (the default the server assumes).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_with(
        addr: &str,
        timeout: Duration,
        codec: Codec,
    ) -> Result<ServeClient, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        // One request per write: Nagle would hold it for the ACK of the
        // previous segment.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        if codec == Codec::BinaryV2 {
            use std::io::Write as _;
            stream.write_all(&proto::binary_preamble())?;
        }
        Ok(ServeClient {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            codec,
            rng: BackoffRng::new(jitter_seed()),
        })
    }

    /// The codec this connection negotiated at connect time.
    #[must_use]
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// I/O failures, undecodable replies, or a server-side
    /// `protocol_error` (mapped to [`ClientError::Rejected`]).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        proto::write_frame(&mut self.stream, &request.encode_with(self.codec))?;
        let payload = match proto::read_frame(&mut self.stream, self.max_frame) {
            Ok(payload) => payload,
            Err(ProtoError::Io(e)) => return Err(ClientError::Io(e)),
            Err(ProtoError::Disconnected) => {
                return Err(ClientError::Protocol("server closed the connection".into()))
            }
            Err(other) => return Err(ClientError::Protocol(other.to_string())),
        };
        let response =
            Response::decode_with(self.codec, &payload).map_err(ClientError::Protocol)?;
        if let Response::ProtocolError { error } = &response {
            return Err(ClientError::Rejected(error.clone()));
        }
        Ok(response)
    }

    /// Convenience: a design request with retry-on-backpressure. Retries
    /// a [`Response::Rejected`] up to `retries` times, sleeping a
    /// jittered exponential backoff seeded from the server's
    /// `retry_after_ms` hint: attempt `k` waits uniformly within
    /// `[hint·2^k / 2, hint·2^k]` (capped at 1 s), so a fleet of
    /// clients rejected at the same instant spreads out instead of
    /// stampeding back in lockstep.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::call`]; also a protocol error when the server is
    /// still saturated after the last retry.
    pub fn design_with_retry(
        &mut self,
        request: &Request,
        retries: usize,
    ) -> Result<Response, ClientError> {
        for attempt in 0..=retries {
            match self.call(request)? {
                Response::Rejected { retry_after_ms, .. } => {
                    let delay = backoff_delay(retry_after_ms, attempt as u32, &mut self.rng);
                    std::thread::sleep(delay);
                }
                other => return Ok(other),
            }
        }
        Err(ClientError::Protocol(format!(
            "server still saturated after {retries} retries"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full schedule for one hint/seed pair.
    fn schedule(hint_ms: u64, seed: u64, attempts: u32) -> Vec<u64> {
        let mut rng = BackoffRng::new(seed);
        (0..attempts)
            .map(|k| backoff_delay(hint_ms, k, &mut rng).as_millis() as u64)
            .collect()
    }

    #[test]
    fn backoff_schedule_is_deterministic_for_a_seed() {
        assert_eq!(schedule(50, 42, 8), schedule(50, 42, 8));
        // This exact schedule is pinned so an accidental change to the
        // RNG or the base computation shows up as a test diff.
        assert_eq!(schedule(50, 42, 6), vec![46, 83, 169, 349, 555, 947]);
    }

    #[test]
    fn backoff_stays_within_the_jitter_window() {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let mut rng = BackoffRng::new(seed);
            for attempt in 0..10u32 {
                let base = 50u64
                    .saturating_mul(1 << attempt.min(32))
                    .min(MAX_BACKOFF_MS);
                let delay = backoff_delay(50, attempt, &mut rng).as_millis() as u64;
                assert!(
                    delay >= base / 2 && delay <= base,
                    "attempt {attempt}: {delay} ms outside [{}, {base}]",
                    base / 2
                );
            }
        }
    }

    #[test]
    fn backoff_is_capped_even_for_huge_hints_and_attempts() {
        let mut rng = BackoffRng::new(3);
        for attempt in [0, 5, 31, 63, u32::MAX] {
            let delay = backoff_delay(u64::MAX, attempt, &mut rng);
            assert!(delay <= Duration::from_millis(MAX_BACKOFF_MS));
        }
        // A zero hint still makes progress (base clamps to >= 1 ms).
        let delay = backoff_delay(0, 0, &mut rng);
        assert!(delay <= Duration::from_millis(1));
    }

    #[test]
    fn different_seeds_desynchronize_the_fleet() {
        // Two clients rejected at the same instant must not sleep an
        // identical schedule — the whole point of the jitter.
        assert_ne!(schedule(50, 1, 8), schedule(50, 2, 8));
    }
}
