//! Readiness primitives for the event loop: a thin safe wrapper over
//! `poll(2)` and a cross-thread wake pipe.
//!
//! The event loop watches thousands of nonblocking sockets at once; the
//! only piece the standard library does not provide is the readiness
//! syscall itself. Rather than pull in a dependency (this workspace is
//! std-only by construction), [`poll`] binds the libc `poll` symbol that
//! std already links on every Unix target and wraps it behind a safe
//! slice-based API. The `unsafe` is confined to the `sys` module — the only
//! `unsafe` in the workspace — and consists of one FFI call whose
//! contract (`repr(C)` array pointer + length) the wrapper upholds by
//! taking a live `&mut [PollFd]`.
//!
//! Workers finish jobs on their own threads while the loop may be parked
//! inside `poll` with a long timeout. [`WakePipe`] gives them a way to
//! interrupt it immediately: a loopback socket pair whose read end sits
//! in the poll set and whose write end ([`Waker`]) is shared with
//! completion callbacks. One byte written = one poll wakeup; the loop
//! drains the pipe and consumes whatever queues the byte advertised.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Readable-data event bit (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable-space event bit (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition bit (`POLLERR`, only ever set in `revents`).
pub const POLLERR: i16 = 0x008;
/// Peer-hangup bit (`POLLHUP`, only ever set in `revents`).
pub const POLLHUP: i16 = 0x010;
/// Invalid-descriptor bit (`POLLNVAL`, only ever set in `revents`).
pub const POLLNVAL: i16 = 0x020;

/// One slot of a `poll(2)` set. Layout-identical to `struct pollfd` so
/// a `&mut [PollFd]` can be handed to the syscall directly.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT` ored together).
    pub events: i16,
    /// Returned events, written by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// A slot watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the descriptor is readable — or in an error/hangup state,
    /// which a nonblocking read also surfaces (as 0 bytes or an error),
    /// so callers treat all three as "go read".
    pub fn readable(self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Whether the descriptor has write space (or an error to surface).
    pub fn writable(self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

mod sys {
    //! The workspace's single FFI site (see the crate-level lint note in
    //! `lib.rs`): `poll(2)` from the platform libc that std links anyway.
    #![allow(unsafe_code)]

    use super::PollFd;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    pub(super) fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `PollFd` is `repr(C)` with the exact field order and
        // types of `struct pollfd`; the pointer and length come from a
        // live exclusive slice, so the kernel writes only into memory we
        // own for the duration of the call.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) }
    }
}

/// Waits until at least one slot in `fds` is ready or `timeout` elapses
/// (`None` = wait indefinitely). Returns the number of ready slots;
/// `Ok(0)` means the timeout fired. Sub-millisecond timeouts are rounded
/// *up* so a short deadline cannot degenerate into a zero-timeout spin.
///
/// # Errors
///
/// The underlying OS error, with `EINTR` retried internally.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_micros().div_ceil(1000);
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    };
    loop {
        let n = sys::poll_raw(fds, timeout_ms);
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        // EINTR: retry with the full timeout; callers recompute their
        // deadlines every iteration so the worst case is a late wakeup.
    }
}

/// A self-wakeup channel for one event loop: a nonblocking loopback
/// socket pair. The read end lives in the loop's poll set; any number of
/// [`Waker`] clones write single bytes into the other end from worker
/// threads to interrupt a parked `poll`.
pub struct WakePipe {
    rx: TcpStream,
    tx: Arc<TcpStream>,
}

impl WakePipe {
    /// Builds the pair over an ephemeral loopback listener.
    ///
    /// # Errors
    ///
    /// When loopback sockets cannot be created (fd exhaustion, no
    /// loopback interface).
    pub fn new() -> io::Result<WakePipe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tx = TcpStream::connect(addr)?;
        let expect = tx.local_addr()?;
        // Accept until we see our own connect: a foreign process racing
        // SYNs at the ephemeral port must not become the wake source.
        let rx = loop {
            let (stream, peer) = listener.accept()?;
            if peer == expect {
                break stream;
            }
        };
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        Ok(WakePipe {
            rx,
            tx: Arc::new(tx),
        })
    }

    /// The descriptor to register with `POLLIN` in the poll set.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A cloneable handle for waking this pipe's owner.
    pub fn waker(&self) -> Waker {
        Waker {
            tx: Arc::clone(&self.tx),
        }
    }

    /// Consumes every pending wake byte. Called once per loop iteration
    /// after `poll` reports the read end readable; many wakes coalesce
    /// into one drain.
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return, // writer gone; nothing to drain
                Ok(_) => {}      // keep reading until the buffer is dry
                Err(_) => return, // WouldBlock or real error: done
            }
        }
    }
}

/// The write end of a [`WakePipe`]; cheap to clone into completion
/// callbacks. Waking is best-effort and never blocks: if the socket
/// buffer is full, a wakeup is already pending and the byte is moot.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<TcpStream>,
}

impl Waker {
    /// Interrupts the owning loop's `poll` (or makes its next `poll`
    /// return immediately).
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poll_times_out_on_a_quiet_socket() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "no readiness without a wake");
        assert!(start.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn a_wake_interrupts_poll_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
        });
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        pipe.drain();
        // Drained: the next short poll sees silence again.
        fds[0].revents = 0;
        let n = poll(&mut fds, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0, "drain consumed the wake byte");
        handle.join().unwrap();
    }

    #[test]
    fn many_wakes_coalesce_into_one_drain() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        // Loopback TCP may still have bytes in transit after the first
        // drain; poll-and-drain converges in a bounded number of rounds.
        for _ in 0..100 {
            pipe.drain();
            fds[0].revents = 0;
            if poll(&mut fds, Some(Duration::from_millis(5))).unwrap() == 0 {
                return;
            }
        }
        panic!("wake pipe never went quiet after draining");
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_down() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        // 100µs must become a 1ms poll, not a 0ms busy-return; either
        // way it returns 0 ready fds, but it must not error.
        let n = poll(&mut fds, Some(Duration::from_micros(100))).unwrap();
        assert_eq!(n, 0);
    }
}
