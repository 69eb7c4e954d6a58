//! `poll(2)`: the crate's one `unsafe` exception.
//!
//! The standard library can block on one socket at a time (a read
//! timeout) but offers no safe way to block until *any* of many sockets
//! is ready. A shard needs exactly that, so it calls `poll(2)` through
//! `extern "C"`. Everything unsafe stays in this module: one FFI
//! declaration and one call, over a slice the caller owns.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and the BSDs.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// There is data to read (or the peer closed).
pub(crate) const POLLIN: c_short = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`: one descriptor, the events to wait for, and the
/// events the kernel reports back.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the last wait reported any event, errors and hang-ups
    /// (which the kernel reports whether asked for or not) included.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (rounded up to whole milliseconds, so a deadline is never woken
/// early). Returns how many entries report events.
///
/// # Errors
///
/// The `poll(2)` error, `ErrorKind::Interrupted` for a signal.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    let nfds =
        Nfds::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and `nfds` is its length, so
    // the kernel reads and writes only memory the slice owns. `poll`
    // keeps no pointer past its return.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, millis) };
    usize::try_from(ready).map_err(|_| io::Error::last_os_error())
}
