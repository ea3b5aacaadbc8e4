//! Readiness waits for the serve loops: a `poll(2)` binding and a
//! self-pipe [`Waker`].
//!
//! This is the crate's only unsafe code: one foreign declaration and
//! one call. Everything else reaches it through [`Waker::wait`], which
//! parks the calling thread until a registered socket is ready, the
//! waker fires, or a timeout passes. The server (and so this module)
//! is unix-only.

#![allow(
    unsafe_code,
    reason = "poll(2) is a foreign call; this module is the crate's only unsafe code"
)]

use std::ffi::{c_int, c_short};
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `nfds_t` from `<poll.h>`: `unsigned long` on Linux and Android,
/// `unsigned int` on the BSDs and macOS.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

/// Readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` ([`POLLIN`], [`POLLOUT`] or both).
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The last `poll(2)` reported some event on this entry.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` reports readiness or `timeout` passes.
/// Sub-millisecond timeouts round up, so a near deadline parks instead
/// of spinning.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let millis = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
    let nfds = Nfds::try_from(fds.len()).map_err(|_| io::Error::from(ErrorKind::InvalidInput))?;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` values and `nfds` is its length, so the kernel
    // reads and writes only inside it; the borrow outlives the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, millis) };
    if ready < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A self-pipe that wakes one thread parked in [`Waker::wait`].
///
/// Wakes merge: between two waits at most one byte is written, so a
/// burst of wakes costs one syscall and never fills the pipe.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    /// A byte was (or is about to be) written and not yet drained.
    pending: AtomicBool,
}

impl Waker {
    /// A fresh waker over a nonblocking socket pair.
    ///
    /// # Errors
    ///
    /// Returns the `socketpair(2)` or `fcntl(2)` failure.
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            pending: AtomicBool::new(false),
        })
    }

    /// Makes the parked (or next) [`Waker::wait`] return. State the
    /// waiter must see has to be published before this call.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // A full pipe already holds a wake, so a failed write
            // loses nothing.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Parks until a socket in `fds` is ready for its events, the
    /// waker fires, or `timeout` passes. The waker's own entry is
    /// appended and removed again, so callers pass only their sockets.
    /// A failed `poll(2)` (only `EINTR` or `ENOMEM` are possible here)
    /// returns like a spurious wake: the caller re-checks its state
    /// either way.
    pub(crate) fn wait(&self, fds: &mut Vec<PollFd>, timeout: Duration) {
        fds.push(PollFd::new(self.rx.as_raw_fd(), POLLIN));
        let polled = poll_fds(fds, timeout);
        let woken = fds.pop().is_some_and(|waker| waker.revents != 0);
        if polled.is_ok() && woken {
            // Drain, then reset. Reset first, a wake racing the drain
            // could write a byte the drain swallows and leave `pending`
            // set over an empty pipe, muting every later wake. In this
            // order a wake that saw `pending` still set is covered by
            // the swap, whose acquire pairs with `wake`'s release, so
            // the waiter sees what that wake published.
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
            self.pending.swap(false, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn wait_without_a_wake_times_out() {
        let waker = Waker::new().expect("waker");
        let started = Instant::now();
        waker.wait(&mut Vec::new(), Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wakes_coalesce_and_end_the_next_wait() {
        let waker = Waker::new().expect("waker");
        for _ in 0..3 {
            waker.wake();
            waker.wake();
            let started = Instant::now();
            waker.wait(&mut Vec::new(), Duration::from_secs(5));
            assert!(started.elapsed() < Duration::from_secs(1));
        }
        // Both wakes of the last round were consumed by one wait.
        let started = Instant::now();
        waker.wait(&mut Vec::new(), Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn a_ready_socket_ends_the_wait() {
        let waker = Waker::new().expect("waker");
        let (tx, rx) = UnixStream::pair().expect("pair");
        (&tx).write_all(b"x").expect("write");
        let mut fds = vec![PollFd::new(rx.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        waker.wait(&mut fds, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(fds.len(), 1, "the waker's own entry is removed");
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn wakes_racing_the_drain_are_never_lost() {
        // A lost wake stalls the waiter for a whole timeout, so the
        // loop below would take seconds instead of milliseconds.
        const WAKES: u64 = 20_000;
        let waker = Arc::new(Waker::new().expect("waker"));
        let progress = Arc::new(AtomicU64::new(0));
        let sender = {
            let waker = Arc::clone(&waker);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                for i in 1..=WAKES {
                    progress.store(i, Ordering::Release);
                    waker.wake();
                }
            })
        };
        let started = Instant::now();
        let mut stalls = 0;
        while progress.load(Ordering::Acquire) < WAKES {
            let before = Instant::now();
            waker.wait(&mut Vec::new(), Duration::from_secs(2));
            if before.elapsed() >= Duration::from_secs(2) {
                stalls += 1;
            }
        }
        sender.join().expect("sender");
        assert_eq!(stalls, 0, "a wake was lost ({:?} total)", started.elapsed());
    }
}
