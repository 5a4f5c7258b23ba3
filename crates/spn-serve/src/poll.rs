//! Minimal readiness-polling wrapper over `poll(2)`.
//!
//! The readiness-driven TCP front-end ([`crate::tcp`]) multiplexes every
//! connection plus the listener on one thread; this module supplies the one
//! primitive that needs: given a set of file descriptors and the events each
//! is interested in, sleep until at least one is ready (or a timeout
//! elapses).  `poll(2)` is the right level for a std-only crate — it needs
//! no persistent kernel object, its cost is linear in the descriptor count
//! per call (fine for the thousands of connections the front-end targets),
//! and the symbol is always available wherever `std::net` works on Unix.
//!
//! This is the single place in the workspace that uses `unsafe`: one
//! foreign call with a pointer/length pair taken from a live slice.  The
//! crate root pins that containment with `#![deny(unsafe_code)]` and this
//! module's narrowly scoped `allow`.
//!
//! On non-Unix hosts a degraded fallback reports every descriptor as
//! readable and writable after a short sleep; combined with the front-end's
//! non-blocking sockets this preserves correctness (spurious readiness just
//! costs a `WouldBlock` round) at the price of busy-polling.

use std::time::Duration;

/// Interest/readiness flag: data can be read (or a peer hung up with data
/// pending).
pub const POLLIN: i16 = 0x001;
/// Interest/readiness flag: the socket's send buffer has room.
pub const POLLOUT: i16 = 0x004;
/// Readiness flag (output only): error condition on the descriptor.
pub(crate) const POLLERR: i16 = 0x008;
/// Readiness flag (output only): the peer hung up.
pub(crate) const POLLHUP: i16 = 0x010;
/// Readiness flag (output only): the descriptor is invalid.
pub(crate) const POLLNVAL: i16 = 0x020;

/// One polled descriptor: layout-compatible with the C `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry for `fd` interested in `events` (a bitwise-or of [`POLLIN`]
    /// and [`POLLOUT`]).
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The descriptor became readable (or hung up / errored, which a read
    /// also observes and must handle anyway).
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Blocks until at least one entry of `fds` is ready or `timeout` elapses,
/// filling in each entry's readiness; returns the number of ready entries
/// (zero on timeout).
///
/// An interrupted wait (`EINTR`) is reported as zero ready entries rather
/// than an error — callers run in a loop and simply poll again.
///
/// # Errors
///
/// Returns the OS error when the poll itself fails.
#[cfg(unix)]
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    #[allow(unsafe_code)]
    mod sys {
        use super::PollFd;

        // `nfds_t` is `c_ulong` on every Unix libc that std links against.
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
        }

        /// Safety contract: the pointer/length pair comes from one live
        /// mutable slice, and `poll` writes only within the given entries.
        pub(crate) fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
            // SAFETY: `fds` is a valid, exclusively borrowed slice for the
            // whole call; `poll` reads/writes only `fds.len()` entries.
            unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) }
        }
    }

    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    let ready = sys::poll_raw(fds, timeout_ms);
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(ready as usize)
}

/// Degraded non-Unix fallback: sleep briefly, then report everything ready.
/// Non-blocking sockets turn the spurious readiness into `WouldBlock`, so
/// behaviour stays correct at the cost of busy-polling.
#[cfg(not(unix))]
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    std::thread::sleep(timeout.min(Duration::from_millis(5)));
    for fd in fds.iter_mut() {
        fd.revents = fd.events | POLLIN | POLLOUT;
    }
    Ok(fds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[cfg(unix)]
    fn raw_fd(socket: &impl std::os::unix::io::AsRawFd) -> i32 {
        socket.as_raw_fd()
    }

    #[cfg(unix)]
    #[test]
    fn times_out_when_nothing_is_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(raw_fd(&listener), POLLIN)];
        let start = Instant::now();
        let ready = wait(&mut fds, Duration::from_millis(20)).unwrap();
        assert_eq!(ready, 0);
        assert!(!fds[0].readable());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[cfg(unix)]
    #[test]
    fn reports_a_pending_connection_and_pending_data_as_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(raw_fd(&listener), POLLIN)];
        let ready = wait(&mut fds, Duration::from_millis(1000)).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].readable());

        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"hello\n").unwrap();
        let mut fds = [
            PollFd::new(raw_fd(&server_side), POLLIN | POLLOUT),
            PollFd::new(raw_fd(&listener), POLLIN),
        ];
        let ready = wait(&mut fds, Duration::from_millis(1000)).unwrap();
        assert!(ready >= 1);
        assert!(fds[0].readable(), "pending data must mark POLLIN");
        assert!(
            fds[0].revents & POLLOUT != 0,
            "an idle socket's send buffer has room"
        );
        assert!(!fds[1].readable(), "no second connection is pending");
    }
}
