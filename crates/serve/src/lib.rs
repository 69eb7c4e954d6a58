//! `fsmgen-serve`: a networked design service over the farm.
//!
//! The paper's pipeline (trace → Markov model → logic minimization →
//! Moore predictor) is a pure function of its inputs, which makes it an
//! ideal service workload: the server fronts a shared [`fsmgen_farm::Farm`]
//! whose content-addressed cache and single-flight dedup turn repeated
//! requests into lookups, and a design served over the wire is
//! byte-identical to one computed locally — the correctness contract the
//! e2e differential tests pin. With `--cache-file` the cache is backed
//! by a durable append-only store: every insert is logged and
//! periodically fsync'd, so even a SIGKILL'd server restarts warm,
//! losing at most one flush interval of designs — the contract the
//! crash-drill tests pin.
//!
//! # Protocol
//!
//! One TCP connection carries any number of frames; each frame is a
//! 4-byte big-endian length followed by that many bytes of UTF-8 JSON
//! (see [`proto`]). Messages carry `"v"` (schema version, shared with
//! `fsmgen-obs`) and `"kind"` discriminators. The full wire-format spec
//! lives in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use fsmgen_serve::{Request, Response, ServeClient, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! let handle = server.handle();
//! let addr = server.local_addr().to_string();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let mut client = ServeClient::connect(&addr, Duration::from_secs(5)).unwrap();
//! let response = client
//!     .call(&Request::Design {
//!         id: 1,
//!         trace: "0000 1000 1011 1101 1110 1111".into(),
//!         history: 2,
//!         threshold: None,
//!         dont_care: None,
//!     })
//!     .unwrap();
//! match response {
//!     Response::DesignOk { states, .. } => assert!(states >= 2),
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! handle.shutdown();
//! thread.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]
// `poll(2)` in `sys` is the one exception, allowed there alone.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod predictor;
pub mod proto;
pub mod server;
mod shard;
mod sys;
pub mod watch;

/// The shared JSON reader (re-exported from `fsmgen-obs`, where it moved
/// so the scenario engine can parse plan files with the same grammar the
/// wire protocol uses). Existing `fsmgen_serve::json` call sites keep
/// working unchanged.
pub mod json {
    pub use fsmgen_obs::json::{json_string, parse, Json, JsonError};
}

pub use client::{ClientError, ServeClient};
pub use loadgen::{run_loadgen, LoadReport, LoadgenConfig, TrafficMix};
pub use metrics::{ServeMetrics, ServeMetricsSnapshot, ShardMetrics};
pub use predictor::{initial_machine, ChunkOutcome, LivePredictor, RedesignConfig};
pub use proto::{
    read_frame, write_frame, Codec, ProtoError, Request, Response, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use watch::{parse_stats, RateTracker, StatsSample, WatchFrame};
