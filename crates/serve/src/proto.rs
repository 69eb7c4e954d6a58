//! The wire protocol: length-prefixed frames, two codecs (JSON v1 and
//! compact binary v2) and the typed request/response vocabulary.
//!
//! Every message on the wire is one *frame*: a 4-byte big-endian payload
//! length followed by that many payload bytes. Frames larger than the
//! receiver's configured bound are rejected *before* the payload is
//! read, so an adversarial length prefix can never force an allocation.
//!
//! The payload is one of two codecs, negotiated per connection:
//!
//! - **JSON v1** (the default): a single JSON object carrying the shared
//!   schema conventions of the obs/farm JSON (versioned via a `"v"`
//!   field equal to [`fsmgen_obs::SCHEMA_VERSION`], discriminated via
//!   `"kind"`).
//! - **Binary v2**: the same message set in a compact tagged layout — a
//!   one-byte message tag, big-endian fixed-width integers and
//!   `u32`-length-prefixed UTF-8 strings (see [`Codec`]). A client opts
//!   in by sending the 8-byte preamble [`binary_preamble`] (`FSMB` magic
//!   followed by the protocol version) as its very first bytes. The magic read as
//!   a JSON length prefix would advertise a ~1.18 GB frame — far beyond
//!   any sane frame bound — so the two codecs can never be confused.
//!
//! Both codecs carry identical semantics: the differential harness pins
//! byte-identical design payloads whichever codec carried the request.

use crate::json::{self, Json};
use std::fmt;
use std::io::{self, Read, Write};

/// Default upper bound on a frame payload, in bytes (1 MiB). A design
/// request carrying a million-bit trace fits comfortably.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// The protocol's schema version — the same stamp the obs/farm JSON
/// carries, because the messages share that schema's conventions.
pub const PROTOCOL_VERSION: u32 = fsmgen_obs::SCHEMA_VERSION;

/// The magic a client sends first to negotiate binary framing v2.
pub const BINARY_MAGIC: [u8; 4] = *b"FSMB";

/// Length of the binary-negotiation preamble: magic + version.
pub const BINARY_PREAMBLE_LEN: usize = 8;

/// The 8-byte preamble a binary-v2 client sends before its first frame:
/// [`BINARY_MAGIC`] followed by the big-endian [`PROTOCOL_VERSION`].
#[must_use]
pub fn binary_preamble() -> [u8; BINARY_PREAMBLE_LEN] {
    let mut out = [0u8; BINARY_PREAMBLE_LEN];
    out[..4].copy_from_slice(&BINARY_MAGIC);
    out[4..].copy_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    out
}

/// Which payload codec a connection speaks. Negotiated once, at the
/// first bytes of the connection; every subsequent frame on that
/// connection uses the same codec in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Length-prefixed JSON objects (protocol v1, the default).
    #[default]
    JsonV1,
    /// Length-prefixed compact tagged binary (protocol v2).
    BinaryV2,
}

impl Codec {
    /// A stable name for reports and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::JsonV1 => "json-v1",
            Codec::BinaryV2 => "binary-v2",
        }
    }

    /// Parses a CLI spelling (`v1`/`json` vs `v2`/`binary`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized spelling.
    pub fn parse(text: &str) -> Result<Codec, String> {
        match text {
            "v1" | "json" | "json-v1" => Ok(Codec::JsonV1),
            "v2" | "binary" | "binary-v2" => Ok(Codec::BinaryV2),
            other => Err(format!(
                "unknown codec {other:?} (expected v1|json or v2|binary)"
            )),
        }
    }
}

/// Why a frame could not be read or understood.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection at a frame boundary (not an error
    /// in spirit: this is the clean end of a session).
    Disconnected,
    /// An I/O failure mid-frame, including read timeouts.
    Io(io::Error),
    /// The length prefix exceeds the receiver's frame bound.
    Oversized {
        /// The advertised payload length.
        advertised: usize,
        /// The receiver's bound.
        limit: usize,
    },
    /// The payload was not valid UTF-8 JSON of the expected shape.
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Disconnected => f.write_str("peer disconnected"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Oversized { advertised, limit } => {
                write!(
                    f,
                    "frame of {advertised} bytes exceeds the {limit}-byte limit"
                )
            }
            ProtoError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// True when the underlying cause is a read timeout (the slow-loris
    /// guard) rather than a hard I/O failure.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ProtoError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

/// Reads one frame payload. Returns [`ProtoError::Disconnected`] on EOF
/// at a frame boundary and [`ProtoError::Oversized`] without consuming
/// the advertised payload.
///
/// # Errors
///
/// See [`ProtoError`]; timeouts surface as `Io` with a timeout kind.
pub fn read_frame(stream: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, ProtoError> {
    let prefix = read_prefix(stream)?;
    read_frame_after_prefix(stream, prefix, max_frame)
}

/// Reads the 4-byte frame length prefix (or the first 4 bytes of a
/// binary-negotiation preamble — the caller sniffs which). EOF before
/// any byte is [`ProtoError::Disconnected`]; a partial prefix is
/// mid-frame and must complete or fail.
///
/// # Errors
///
/// See [`ProtoError`].
pub fn read_prefix(stream: &mut impl Read) -> Result<[u8; 4], ProtoError> {
    let mut prefix = [0u8; 4];
    match stream.read(&mut prefix) {
        Ok(0) => return Err(ProtoError::Disconnected),
        Ok(n) => {
            // A partial length prefix is mid-frame: finish it or fail.
            stream
                .read_exact(&mut prefix[n..])
                .map_err(ProtoError::Io)?;
        }
        Err(e) => return Err(ProtoError::Io(e)),
    }
    Ok(prefix)
}

/// Finishes reading a frame whose 4-byte length prefix was already
/// consumed (the codec-sniffing path): validates the bound, then reads
/// the payload.
///
/// # Errors
///
/// See [`ProtoError`]; [`ProtoError::Oversized`] is returned without
/// consuming the advertised payload.
pub fn read_frame_after_prefix(
    stream: &mut impl Read,
    prefix: [u8; 4],
    max_frame: usize,
) -> Result<Vec<u8>, ProtoError> {
    let advertised = u32::from_be_bytes(prefix) as usize;
    if advertised > max_frame {
        return Err(ProtoError::Oversized {
            advertised,
            limit: max_frame,
        });
    }
    let mut payload = vec![0u8; advertised];
    stream.read_exact(&mut payload).map_err(ProtoError::Io)?;
    Ok(payload)
}

/// Writes one frame (length prefix + payload) with a single write, so
/// the frame never leaves as a small prefix segment followed by the
/// payload.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Design a predictor for a 0/1 trace.
    Design {
        /// Caller-chosen id, echoed in the response.
        id: u64,
        /// The behaviour trace, in [`fsmgen_traces::BitTrace`] text form.
        trace: String,
        /// History order for the designer.
        history: usize,
        /// Pattern probability threshold (designer default when `None`).
        threshold: Option<f64>,
        /// Don't-care fraction (designer default when `None`).
        dont_care: Option<f64>,
    },
    /// Stream outcome bits through the server's live predictor (only
    /// answered when the server runs with online redesign enabled).
    Predict {
        /// Caller-chosen id, echoed in the response.
        id: u64,
        /// A chunk of 0/1 outcome bits (whitespace ignored).
        bits: String,
    },
    /// Liveness probe.
    Ping,
    /// Ask for the server's metrics JSON.
    Stats,
    /// Ask the server to drain in-flight requests and exit.
    Shutdown,
}

impl Request {
    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason (bad JSON, wrong version, unknown
    /// kind, missing or ill-typed fields).
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let value = json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
        let version = value
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("missing \"v\" field")?;
        if version != u64::from(PROTOCOL_VERSION) {
            return Err(format!(
                "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION})"
            ));
        }
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\" field")?;
        match kind {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "design_request" => {
                let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
                let trace = value
                    .get("trace")
                    .and_then(Json::as_str)
                    .ok_or("design_request needs a \"trace\" string")?
                    .to_string();
                let history = value
                    .get("history")
                    .and_then(Json::as_u64)
                    .ok_or("design_request needs an integer \"history\"")?;
                let history = usize::try_from(history).map_err(|_| "history out of range")?;
                let float_field = |name: &str| -> Result<Option<f64>, String> {
                    match value.get(name) {
                        None => Ok(None),
                        Some(v) => v
                            .as_f64()
                            .map(Some)
                            .ok_or_else(|| format!("\"{name}\" must be a number")),
                    }
                };
                Ok(Request::Design {
                    id,
                    trace,
                    history,
                    threshold: float_field("threshold")?,
                    dont_care: float_field("dont_care")?,
                })
            }
            "predict_request" => {
                let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
                let bits = value
                    .get("bits")
                    .and_then(Json::as_str)
                    .ok_or("predict_request needs a \"bits\" string")?
                    .to_string();
                Ok(Request::Predict { id, bits })
            }
            other => Err(format!("unknown request kind {other:?}")),
        }
    }

    /// Renders the request as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let v = PROTOCOL_VERSION;
        match self {
            Request::Ping => format!("{{\"v\": {v}, \"kind\": \"ping\"}}").into_bytes(),
            Request::Stats => format!("{{\"v\": {v}, \"kind\": \"stats\"}}").into_bytes(),
            Request::Shutdown => format!("{{\"v\": {v}, \"kind\": \"shutdown\"}}").into_bytes(),
            Request::Design {
                id,
                trace,
                history,
                threshold,
                dont_care,
            } => {
                let mut out = format!(
                    "{{\"v\": {v}, \"kind\": \"design_request\", \"id\": {id}, \"history\": {history}"
                );
                if let Some(t) = threshold {
                    out.push_str(&format!(", \"threshold\": {t}"));
                }
                if let Some(d) = dont_care {
                    out.push_str(&format!(", \"dont_care\": {d}"));
                }
                out.push_str(&format!(", \"trace\": {}}}", json::json_string(trace)));
                out.into_bytes()
            }
            Request::Predict { id, bits } => format!(
                "{{\"v\": {v}, \"kind\": \"predict_request\", \"id\": {id}, \"bits\": {}}}",
                json::json_string(bits)
            )
            .into_bytes(),
        }
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A design succeeded.
    DesignOk {
        /// Echo of the request id.
        id: u64,
        /// States in the designed machine.
        states: usize,
        /// Whether the design was served from the farm's cache.
        cache_hit: bool,
        /// In-worker design wall clock, milliseconds.
        wall_ms: f64,
        /// The machine in `fsmgen-automata` table form (reloadable with
        /// `fsmgen predict`, byte-identical to a local design).
        machine: String,
    },
    /// A design failed with a typed error.
    DesignError {
        /// Echo of the request id.
        id: u64,
        /// The rendered error.
        error: String,
    },
    /// The server is saturated; retry after the given delay.
    Rejected {
        /// Echo of the request id.
        id: u64,
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Reply to [`Request::Predict`]: per-chunk accounting from the
    /// live predictor.
    PredictOk {
        /// Echo of the request id.
        id: u64,
        /// Bits in the chunk.
        total: u64,
        /// Bits the live predictor got right.
        correct: u64,
        /// Generation of the machine that served the *end* of the chunk
        /// (bumped by every hot swap).
        generation: u64,
        /// Whether a hot swap landed while this chunk was streaming.
        swapped: bool,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Stats`]: the server's metrics JSON, verbatim.
    Stats(String),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck,
    /// The frame itself could not be understood; the server closes the
    /// connection after sending this.
    ProtocolError {
        /// What was wrong with the frame.
        error: String,
    },
}

impl Response {
    /// Renders the response as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let v = PROTOCOL_VERSION;
        match self {
            Response::Pong => format!("{{\"v\": {v}, \"kind\": \"pong\"}}").into_bytes(),
            Response::ShutdownAck => {
                format!("{{\"v\": {v}, \"kind\": \"shutdown_ack\"}}").into_bytes()
            }
            Response::Stats(json_text) => format!(
                "{{\"v\": {v}, \"kind\": \"stats_response\", \"metrics\": {}}}",
                json_text.trim()
            )
            .into_bytes(),
            Response::ProtocolError { error } => format!(
                "{{\"v\": {v}, \"kind\": \"protocol_error\", \"error\": {}}}",
                json::json_string(error)
            )
            .into_bytes(),
            Response::DesignOk {
                id,
                states,
                cache_hit,
                wall_ms,
                machine,
            } => format!(
                "{{\"v\": {v}, \"kind\": \"design_response\", \"id\": {id}, \"status\": \"ok\", \
                 \"states\": {states}, \"cache_hit\": {cache_hit}, \"wall_ms\": {wall_ms:.3}, \
                 \"machine\": {}}}",
                json::json_string(machine)
            )
            .into_bytes(),
            Response::DesignError { id, error } => format!(
                "{{\"v\": {v}, \"kind\": \"design_response\", \"id\": {id}, \
                 \"status\": \"error\", \"error\": {}}}",
                json::json_string(error)
            )
            .into_bytes(),
            Response::Rejected { id, retry_after_ms } => format!(
                "{{\"v\": {v}, \"kind\": \"design_response\", \"id\": {id}, \
                 \"status\": \"rejected\", \"retry_after_ms\": {retry_after_ms}}}"
            )
            .into_bytes(),
            Response::PredictOk {
                id,
                total,
                correct,
                generation,
                swapped,
            } => format!(
                "{{\"v\": {v}, \"kind\": \"predict_response\", \"id\": {id}, \
                 \"total\": {total}, \"correct\": {correct}, \
                 \"generation\": {generation}, \"swapped\": {swapped}}}"
            )
            .into_bytes(),
        }
    }

    /// Parses a response payload (the client half of the protocol).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the payload is not a valid
    /// response object.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let value = json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\" field")?;
        match kind {
            "pong" => Ok(Response::Pong),
            "shutdown_ack" => Ok(Response::ShutdownAck),
            "predict_response" => Ok(Response::PredictOk {
                id: value.get("id").and_then(Json::as_u64).unwrap_or(0),
                total: value
                    .get("total")
                    .and_then(Json::as_u64)
                    .ok_or("missing total")?,
                correct: value
                    .get("correct")
                    .and_then(Json::as_u64)
                    .ok_or("missing correct")?,
                generation: value.get("generation").and_then(Json::as_u64).unwrap_or(0),
                swapped: value
                    .get("swapped")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            }),
            "stats_response" => {
                // Keep the metrics as text: it is the last field, so it
                // runs from after its key to the outer object's final
                // closing brace.
                let at = text.find("\"metrics\":").ok_or("missing metrics")?;
                let body = text[at + "\"metrics\":".len()..]
                    .trim()
                    .strip_suffix('}')
                    .ok_or("unterminated stats_response")?
                    .trim()
                    .to_string();
                Ok(Response::Stats(body))
            }
            "protocol_error" => Ok(Response::ProtocolError {
                error: value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            }),
            "design_response" => {
                let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
                match value.get("status").and_then(Json::as_str) {
                    Some("ok") => Ok(Response::DesignOk {
                        id,
                        states: value
                            .get("states")
                            .and_then(Json::as_u64)
                            .ok_or("missing states")? as usize,
                        cache_hit: value
                            .get("cache_hit")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                        wall_ms: value.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
                        machine: value
                            .get("machine")
                            .and_then(Json::as_str)
                            .ok_or("missing machine")?
                            .to_string(),
                    }),
                    Some("error") => Ok(Response::DesignError {
                        id,
                        error: value
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                    }),
                    Some("rejected") => Ok(Response::Rejected {
                        id,
                        retry_after_ms: value
                            .get("retry_after_ms")
                            .and_then(Json::as_u64)
                            .unwrap_or(0),
                    }),
                    other => Err(format!("unknown design_response status {other:?}")),
                }
            }
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Binary codec v2: one tag byte, big-endian fixed-width integers,
// u32-length-prefixed UTF-8 strings. Floats travel as raw IEEE-754 bits
// so binary round trips are exact. Decoding is a bounds-checked cursor
// that can never panic: any truncation, bad tag, bad UTF-8 or trailing
// garbage is a typed `Err`, which the server answers with
// `protocol_error` and a close.

mod tag {
    pub const PING: u8 = 0x01;
    pub const STATS: u8 = 0x02;
    pub const SHUTDOWN: u8 = 0x03;
    pub const DESIGN: u8 = 0x10;
    pub const PREDICT: u8 = 0x11;
    pub const PONG: u8 = 0x81;
    pub const SHUTDOWN_ACK: u8 = 0x82;
    pub const STATS_RESPONSE: u8 = 0x83;
    pub const DESIGN_OK: u8 = 0x84;
    pub const DESIGN_ERROR: u8 = 0x85;
    pub const REJECTED: u8 = 0x86;
    pub const PREDICT_OK: u8 = 0x87;
    pub const PROTOCOL_ERROR: u8 = 0x88;
}

/// Bit flags for optional design-request fields.
const DESIGN_HAS_THRESHOLD: u8 = 0b01;
const DESIGN_HAS_DONT_CARE: u8 = 0b10;

fn put_str(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// A never-panicking binary payload cursor.
struct BinReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> BinReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| format!("binary payload truncated at byte {}", self.at))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bool byte must be 0 or 1, got {other}")),
        }
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|e| format!("string is not UTF-8: {e}"))
    }

    /// Rejects trailing garbage: a valid message consumes its payload
    /// exactly.
    fn finish(self) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.at
            ))
        }
    }
}

impl Request {
    /// Renders the request as a frame payload in the given codec.
    #[must_use]
    pub fn encode_with(&self, codec: Codec) -> Vec<u8> {
        match codec {
            Codec::JsonV1 => self.encode(),
            Codec::BinaryV2 => self.encode_binary(),
        }
    }

    /// Parses a request payload in the given codec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason; never panics on adversarial
    /// bytes.
    pub fn decode_with(codec: Codec, payload: &[u8]) -> Result<Request, String> {
        match codec {
            Codec::JsonV1 => Request::decode(payload),
            Codec::BinaryV2 => Request::decode_binary(payload),
        }
    }

    fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(tag::PING),
            Request::Stats => out.push(tag::STATS),
            Request::Shutdown => out.push(tag::SHUTDOWN),
            Request::Design {
                id,
                trace,
                history,
                threshold,
                dont_care,
            } => {
                out.push(tag::DESIGN);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&(*history as u64).to_be_bytes());
                let mut flags = 0u8;
                if threshold.is_some() {
                    flags |= DESIGN_HAS_THRESHOLD;
                }
                if dont_care.is_some() {
                    flags |= DESIGN_HAS_DONT_CARE;
                }
                out.push(flags);
                if let Some(t) = threshold {
                    out.extend_from_slice(&t.to_bits().to_be_bytes());
                }
                if let Some(d) = dont_care {
                    out.extend_from_slice(&d.to_bits().to_be_bytes());
                }
                put_str(&mut out, trace);
            }
            Request::Predict { id, bits } => {
                out.push(tag::PREDICT);
                out.extend_from_slice(&id.to_be_bytes());
                put_str(&mut out, bits);
            }
        }
        out
    }

    fn decode_binary(payload: &[u8]) -> Result<Request, String> {
        let mut r = BinReader::new(payload);
        let request = match r.u8().map_err(|_| "empty binary payload".to_string())? {
            tag::PING => Request::Ping,
            tag::STATS => Request::Stats,
            tag::SHUTDOWN => Request::Shutdown,
            tag::DESIGN => {
                let id = r.u64()?;
                let history = usize::try_from(r.u64()?).map_err(|_| "history out of range")?;
                let flags = r.u8()?;
                if flags & !(DESIGN_HAS_THRESHOLD | DESIGN_HAS_DONT_CARE) != 0 {
                    return Err(format!("unknown design flags {flags:#04x}"));
                }
                let threshold = if flags & DESIGN_HAS_THRESHOLD != 0 {
                    Some(r.f64()?)
                } else {
                    None
                };
                let dont_care = if flags & DESIGN_HAS_DONT_CARE != 0 {
                    Some(r.f64()?)
                } else {
                    None
                };
                let trace = r.str()?;
                Request::Design {
                    id,
                    trace,
                    history,
                    threshold,
                    dont_care,
                }
            }
            tag::PREDICT => {
                let id = r.u64()?;
                let bits = r.str()?;
                Request::Predict { id, bits }
            }
            other => return Err(format!("unknown binary request tag {other:#04x}")),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Renders the response as a frame payload in the given codec.
    #[must_use]
    pub fn encode_with(&self, codec: Codec) -> Vec<u8> {
        match codec {
            Codec::JsonV1 => self.encode(),
            Codec::BinaryV2 => self.encode_binary(),
        }
    }

    /// Parses a response payload in the given codec (the client half).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason; never panics on adversarial
    /// bytes.
    pub fn decode_with(codec: Codec, payload: &[u8]) -> Result<Response, String> {
        match codec {
            Codec::JsonV1 => Response::decode(payload),
            Codec::BinaryV2 => Response::decode_binary(payload),
        }
    }

    fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(tag::PONG),
            Response::ShutdownAck => out.push(tag::SHUTDOWN_ACK),
            Response::Stats(json_text) => {
                out.push(tag::STATS_RESPONSE);
                put_str(&mut out, json_text);
            }
            Response::ProtocolError { error } => {
                out.push(tag::PROTOCOL_ERROR);
                put_str(&mut out, error);
            }
            Response::DesignOk {
                id,
                states,
                cache_hit,
                wall_ms,
                machine,
            } => {
                out.push(tag::DESIGN_OK);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&(*states as u64).to_be_bytes());
                out.push(u8::from(*cache_hit));
                out.extend_from_slice(&wall_ms.to_bits().to_be_bytes());
                put_str(&mut out, machine);
            }
            Response::DesignError { id, error } => {
                out.push(tag::DESIGN_ERROR);
                out.extend_from_slice(&id.to_be_bytes());
                put_str(&mut out, error);
            }
            Response::Rejected { id, retry_after_ms } => {
                out.push(tag::REJECTED);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&retry_after_ms.to_be_bytes());
            }
            Response::PredictOk {
                id,
                total,
                correct,
                generation,
                swapped,
            } => {
                out.push(tag::PREDICT_OK);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&total.to_be_bytes());
                out.extend_from_slice(&correct.to_be_bytes());
                out.extend_from_slice(&generation.to_be_bytes());
                out.push(u8::from(*swapped));
            }
        }
        out
    }

    fn decode_binary(payload: &[u8]) -> Result<Response, String> {
        let mut r = BinReader::new(payload);
        let response = match r.u8().map_err(|_| "empty binary payload".to_string())? {
            tag::PONG => Response::Pong,
            tag::SHUTDOWN_ACK => Response::ShutdownAck,
            tag::STATS_RESPONSE => Response::Stats(r.str()?),
            tag::PROTOCOL_ERROR => Response::ProtocolError { error: r.str()? },
            tag::DESIGN_OK => {
                let id = r.u64()?;
                let states = usize::try_from(r.u64()?).map_err(|_| "states out of range")?;
                let cache_hit = r.bool()?;
                let wall_ms = r.f64()?;
                let machine = r.str()?;
                Response::DesignOk {
                    id,
                    states,
                    cache_hit,
                    wall_ms,
                    machine,
                }
            }
            tag::DESIGN_ERROR => {
                let id = r.u64()?;
                let error = r.str()?;
                Response::DesignError { id, error }
            }
            tag::REJECTED => {
                let id = r.u64()?;
                let retry_after_ms = r.u64()?;
                Response::Rejected { id, retry_after_ms }
            }
            tag::PREDICT_OK => {
                let id = r.u64()?;
                let total = r.u64()?;
                let correct = r.u64()?;
                let generation = r.u64()?;
                let swapped = r.bool()?;
                Response::PredictOk {
                    id,
                    total,
                    correct,
                    generation,
                    swapped,
                }
            }
            other => return Err(format!("unknown binary response tag {other:#04x}")),
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(ProtoError::Disconnected)
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_reading_payload() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = io::Cursor::new(wire);
        match read_frame(&mut cursor, 1024) {
            Err(ProtoError::Oversized { advertised, limit }) => {
                assert_eq!(advertised, u32::MAX as usize);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Design {
                id: 42,
                trace: "0000 1000 1011".into(),
                history: 3,
                threshold: Some(0.75),
                dont_care: None,
            },
            Request::Predict {
                id: 43,
                bits: "0101 1100".into(),
            },
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Pong,
            Response::ShutdownAck,
            Response::DesignOk {
                id: 7,
                states: 3,
                cache_hit: true,
                wall_ms: 1.25,
                machine: "start 0\n0 1 2 0\n".into(),
            },
            Response::DesignError {
                id: 8,
                error: "trace too short".into(),
            },
            Response::Rejected {
                id: 9,
                retry_after_ms: 50,
            },
            Response::PredictOk {
                id: 10,
                total: 128,
                correct: 97,
                generation: 2,
                swapped: true,
            },
            Response::ProtocolError {
                error: "bad frame".into(),
            },
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn decode_rejects_wrong_version_and_kind() {
        assert!(Request::decode(b"{\"v\": 99, \"kind\": \"ping\"}")
            .unwrap_err()
            .contains("version"));
        assert!(Request::decode(b"{\"v\": 1, \"kind\": \"explode\"}")
            .unwrap_err()
            .contains("unknown request kind"));
        assert!(Request::decode(b"{\"v\": 1}").unwrap_err().contains("kind"));
        assert!(Request::decode(b"not json").unwrap_err().contains("JSON"));
        assert!(Request::decode(&[0xff, 0xfe])
            .unwrap_err()
            .contains("UTF-8"));
        assert!(
            Request::decode(b"{\"v\": 1, \"kind\": \"design_request\", \"history\": 2}")
                .unwrap_err()
                .contains("trace")
        );
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Design {
                id: 42,
                trace: "0000 1000 1011".into(),
                history: 3,
                threshold: Some(0.75),
                dont_care: None,
            },
            Request::Design {
                id: u64::MAX,
                trace: String::new(),
                history: 0,
                threshold: None,
                dont_care: Some(0.125),
            },
            Request::Predict {
                id: 43,
                bits: "0101 1100".into(),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::ShutdownAck,
            Response::Stats("{\"x\": 1}".into()),
            Response::DesignOk {
                id: 7,
                states: 3,
                cache_hit: true,
                wall_ms: 1.25,
                machine: "start 0\n0 1 2 0\n".into(),
            },
            Response::DesignError {
                id: 8,
                error: "trace too short".into(),
            },
            Response::Rejected {
                id: 9,
                retry_after_ms: 50,
            },
            Response::PredictOk {
                id: 10,
                total: 128,
                correct: 97,
                generation: 2,
                swapped: true,
            },
            Response::ProtocolError {
                error: "bad frame".into(),
            },
        ]
    }

    #[test]
    fn binary_messages_round_trip_exactly() {
        for request in sample_requests() {
            let payload = request.encode_with(Codec::BinaryV2);
            let decoded = Request::decode_with(Codec::BinaryV2, &payload).unwrap();
            assert_eq!(decoded, request);
        }
        for response in sample_responses() {
            let payload = response.encode_with(Codec::BinaryV2);
            let decoded = Response::decode_with(Codec::BinaryV2, &payload).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn binary_decode_rejects_truncation_at_every_length() {
        // Chopping a valid payload anywhere must be a typed error (or,
        // for a prefix that happens to be a complete shorter message,
        // a decode that is not the original) — never a panic.
        for request in sample_requests() {
            let payload = request.encode_with(Codec::BinaryV2);
            for cut in 0..payload.len() {
                let _ = Request::decode_with(Codec::BinaryV2, &payload[..cut]);
            }
            // Trailing garbage is always rejected.
            let mut padded = payload.clone();
            padded.push(0);
            assert!(Request::decode_with(Codec::BinaryV2, &padded).is_err());
        }
        for response in sample_responses() {
            let payload = response.encode_with(Codec::BinaryV2);
            for cut in 0..payload.len() {
                let _ = Response::decode_with(Codec::BinaryV2, &payload[..cut]);
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert!(Response::decode_with(Codec::BinaryV2, &padded).is_err());
        }
    }

    #[test]
    fn binary_decode_rejects_bad_tags_lengths_and_bools() {
        assert!(Request::decode_with(Codec::BinaryV2, &[])
            .unwrap_err()
            .contains("empty"));
        assert!(Request::decode_with(Codec::BinaryV2, &[0x7f])
            .unwrap_err()
            .contains("unknown binary request tag"));
        assert!(Response::decode_with(Codec::BinaryV2, &[0x01])
            .unwrap_err()
            .contains("unknown binary response tag"));
        // A string length far beyond the payload is truncation, not an
        // allocation.
        let mut huge = vec![tag::PROTOCOL_ERROR];
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Response::decode_with(Codec::BinaryV2, &huge)
            .unwrap_err()
            .contains("truncated"));
        // Non-UTF-8 strings are rejected.
        let mut bad_utf8 = vec![tag::PROTOCOL_ERROR];
        bad_utf8.extend_from_slice(&2u32.to_be_bytes());
        bad_utf8.extend_from_slice(&[0xff, 0xfe]);
        assert!(Response::decode_with(Codec::BinaryV2, &bad_utf8)
            .unwrap_err()
            .contains("UTF-8"));
        // Bool bytes other than 0/1 are rejected (PredictOk.swapped).
        let response = Response::PredictOk {
            id: 1,
            total: 2,
            correct: 1,
            generation: 0,
            swapped: false,
        };
        let mut payload = response.encode_with(Codec::BinaryV2);
        let last = payload.len() - 1;
        payload[last] = 2;
        assert!(Response::decode_with(Codec::BinaryV2, &payload)
            .unwrap_err()
            .contains("bool"));
    }

    #[test]
    fn binary_preamble_is_unmistakable_for_a_frame() {
        let preamble = binary_preamble();
        assert_eq!(&preamble[..4], b"FSMB");
        assert_eq!(preamble.len(), BINARY_PREAMBLE_LEN);
        // Read as a JSON length prefix, the magic advertises a frame far
        // beyond any configured bound — the sniff is unambiguous.
        let as_len = u32::from_be_bytes(BINARY_MAGIC) as usize;
        assert!(as_len > DEFAULT_MAX_FRAME * 100);
        assert_eq!(
            u32::from_be_bytes([preamble[4], preamble[5], preamble[6], preamble[7]]),
            PROTOCOL_VERSION
        );
    }

    #[test]
    fn codec_parse_spellings() {
        assert_eq!(Codec::parse("v1").unwrap(), Codec::JsonV1);
        assert_eq!(Codec::parse("json").unwrap(), Codec::JsonV1);
        assert_eq!(Codec::parse("v2").unwrap(), Codec::BinaryV2);
        assert_eq!(Codec::parse("binary").unwrap(), Codec::BinaryV2);
        assert!(Codec::parse("v3").is_err());
        assert_eq!(Codec::BinaryV2.name(), "binary-v2");
    }

    #[test]
    fn every_encoded_message_is_versioned() {
        for payload in [
            Request::Ping.encode(),
            Response::Pong.encode(),
            Response::ProtocolError { error: "x".into() }.encode(),
        ] {
            let text = String::from_utf8(payload).unwrap();
            assert!(text.starts_with("{\"v\": 1, \"kind\": "), "{text}");
        }
    }
}
