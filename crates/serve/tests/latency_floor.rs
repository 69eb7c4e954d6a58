//! Latency-floor regressions for both server architectures:
//!
//! - **Nagle.** Sequential request/reply round trips on one connection
//!   must not wait out a delayed ACK (~40 ms on loopback). Both sides
//!   set `TCP_NODELAY` and write each frame with a single write.
//! - **Wake-ups.** A shard blocked in its readiness wait must notice a
//!   new connection and a shutdown at once, not at its next timeout.
//! - **Idle cost.** A shard holding many idle connections must sleep in
//!   the kernel, not sweep them.
//!
//! The tests share one lock: the idle-CPU probe finds the shard thread
//! by name, so no other server may run in this process meanwhile.

use fsmgen_serve::{Request, Response, ServeClient, ServeConfig, Server, ServerHandle};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes the tests in this binary (see the module doc).
static ONE_SERVER: Mutex<()> = Mutex::new(());

fn one_server() -> MutexGuard<'static, ()> {
    ONE_SERVER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Idle connections parked on the shard for the wake-up tests.
const IDLE_CONNS: usize = 64;

struct Fixture {
    handle: ServerHandle,
    addr: String,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Fixture {
    fn start(shards: usize) -> Fixture {
        let server = Arc::new(
            Server::bind(ServeConfig {
                shards,
                max_connections: 256,
                read_timeout: Duration::from_secs(30),
                ..ServeConfig::default()
            })
            .expect("bind"),
        );
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Fixture {
            handle,
            addr,
            thread: Some(thread),
        }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.addr, Duration::from_secs(10)).expect("connect")
    }

    /// Opens `n` connections that never send a byte, and waits until the
    /// server has adopted them all.
    fn park_idle(&self, n: usize) -> Vec<TcpStream> {
        let idle: Vec<TcpStream> = (0..n)
            .map(|_| TcpStream::connect(&self.addr).expect("connect idle"))
            .collect();
        // A ping on a fresh connection is answered only after the
        // accept loop has dispatched every earlier connection.
        assert!(matches!(
            self.client().call(&Request::Ping),
            Ok(Response::Pong)
        ));
        // Let the shard finish its sweep and block in its wait.
        std::thread::sleep(Duration::from_millis(100));
        idle
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The median of 20 sequential design round trips on one connection.
fn median_round_trip(shards: usize) -> Duration {
    let fixture = Fixture::start(shards);
    let mut client = fixture.client();
    let mut samples: Vec<Duration> = (0..20u64)
        .map(|id| {
            let started = Instant::now();
            let response = client
                .call(&Request::Design {
                    id,
                    trace: "0000 1000 1011 1101 1110 1111".into(),
                    history: 2,
                    threshold: None,
                    dont_care: None,
                })
                .expect("design call");
            assert!(
                matches!(response, Response::DesignOk { id: got, .. } if got == id),
                "unexpected response: {response:?}"
            );
            started.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn sequential_round_trips_do_not_wait_for_delayed_acks() {
    let _lock = one_server();
    for shards in [0, 1] {
        let median = median_round_trip(shards);
        assert!(
            median < Duration::from_millis(10),
            "shards={shards}: median round trip {median:?} (a delayed-ACK stall is ~40 ms)"
        );
    }
}

#[test]
fn blocked_shard_answers_a_new_connection_promptly() {
    let _lock = one_server();
    let fixture = Fixture::start(1);
    let _idle = fixture.park_idle(IDLE_CONNS);
    let started = Instant::now();
    let mut client = fixture.client();
    assert!(matches!(client.call(&Request::Ping), Ok(Response::Pong)));
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "ping on a new connection took {took:?}"
    );
}

#[test]
fn blocked_shard_shuts_down_promptly() {
    let _lock = one_server();
    let mut fixture = Fixture::start(1);
    let _idle = fixture.park_idle(IDLE_CONNS);
    let started = Instant::now();
    fixture.handle.shutdown();
    let thread = fixture.thread.take().expect("running");
    thread
        .join()
        .expect("server thread joins")
        .expect("server exits clean");
    // Well inside a second: the shard's backstop wait is a second long,
    // so a shutdown that waited for it instead of waking would miss.
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

/// utime + stime, in clock ticks, of this process's thread named `comm`.
#[cfg(target_os = "linux")]
fn thread_cpu_ticks(comm: &str) -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    for task in tasks {
        let dir = task.expect("task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if name.trim_end() != comm {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("read thread stat");
        // Fields after the parenthesised comm: state is field 3, utime
        // and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("stat has a comm") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields[11].parse().expect("utime");
        let stime: u64 = fields[12].parse().expect("stime");
        return utime + stime;
    }
    panic!("no thread named {comm}");
}

#[cfg(target_os = "linux")]
#[test]
fn idle_shard_thread_sleeps_in_the_kernel() {
    let _lock = one_server();
    let fixture = Fixture::start(1);
    let _idle = fixture.park_idle(IDLE_CONNS);
    let before = thread_cpu_ticks("serve-shard-0");
    let window = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let ticks = thread_cpu_ticks("serve-shard-0") - before;
    let elapsed = window.elapsed().as_secs_f64();
    // USER_HZ is 100 on Linux: one tick is 10 ms of CPU.
    let cores = ticks as f64 / 100.0 / elapsed;
    assert!(
        cores < 0.05,
        "idle shard with {IDLE_CONNS} connections used {cores:.3} cores ({ticks} ticks)"
    );
}
