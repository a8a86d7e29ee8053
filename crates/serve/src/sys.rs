//! Readiness notification for the reactor — a dependency-free wrapper
//! around `poll(2)` on Unix with a portable degraded fallback — plus
//! graceful-shutdown signal handling (SIGTERM/SIGINT → a flag).
//!
//! The workspace denies `unsafe_code`; this module holds the audited
//! exceptions (scoped `allow`s on the FFI below). The surface kept
//! unsafe-free for callers is deliberately tiny: register sockets with
//! read/write interests, block until one is ready (or a timeout), then
//! ask which slots became readable/writable/closed; and for signals,
//! install once and poll a boolean.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; read by [`shutdown_requested`].
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that set a process-wide shutdown
/// flag (readable via [`shutdown_requested`]) instead of killing the
/// process, so `soct serve` can drain, checkpoint, and flush before
/// exiting. No-op on non-Unix platforms, where the default signal
/// disposition keeps applying.
pub fn install_shutdown_signal() {
    #[cfg(unix)]
    signal::install();
}

/// True once SIGTERM or SIGINT has been received after
/// [`install_shutdown_signal`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// A socket the reactor can poll: the listener, a connection, or the
/// wake channel.
#[cfg(unix)]
pub(crate) trait Pollable: std::os::unix::io::AsRawFd {}
#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> Pollable for T {}
/// A socket the reactor can poll: the listener, a connection, or the
/// wake channel.
#[cfg(not(unix))]
pub(crate) trait Pollable {}
#[cfg(not(unix))]
impl<T> Pollable for T {}

/// One registered socket's interests and readiness results.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    // Interests are echoed back as readiness by the non-unix fallback;
    // on unix the kernel decides and these two are write-only.
    #[cfg_attr(unix, allow(dead_code))]
    read: bool,
    #[cfg_attr(unix, allow(dead_code))]
    write: bool,
    readable: bool,
    writable: bool,
    closed: bool,
}

/// A reusable poll set. `clear` + `register_*` each iteration, then
/// `wait`, then query by the slot index `register_*` returned.
#[derive(Debug, Default)]
pub(crate) struct PollSet {
    slots: Vec<Slot>,
    #[cfg(unix)]
    fds: Vec<unix::PollFd>,
}

impl PollSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops all registrations (capacity is kept across iterations).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        #[cfg(unix)]
        self.fds.clear();
    }

    fn push(&mut self, #[cfg(unix)] fd: i32, read: bool, write: bool) -> usize {
        self.slots.push(Slot {
            read,
            write,
            ..Slot::default()
        });
        #[cfg(unix)]
        self.fds.push(unix::PollFd::new(fd, read, write));
        self.slots.len() - 1
    }

    /// Registers a socket with the given interests (read on a listener
    /// means accept-readiness); returns its slot. Registering with no
    /// interests still reports `closed` (error/hangup).
    pub(crate) fn register(&mut self, s: &impl Pollable, read: bool, write: bool) -> usize {
        #[cfg(unix)]
        {
            self.push(s.as_raw_fd(), read, write)
        }
        #[cfg(not(unix))]
        {
            let _ = s;
            self.push(read, write)
        }
    }

    /// Blocks until a registered socket is ready or `timeout_ms` elapses.
    /// `EINTR` is treated as a zero-ready wakeup, not an error.
    pub(crate) fn wait(&mut self, timeout_ms: i32) -> io::Result<()> {
        #[cfg(unix)]
        {
            let ready = unix::poll(&mut self.fds, timeout_ms)?;
            if ready > 0 {
                for (slot, fd) in self.slots.iter_mut().zip(self.fds.iter()) {
                    slot.readable = fd.readable();
                    slot.writable = fd.writable();
                    slot.closed = fd.closed();
                }
            }
            Ok(())
        }
        #[cfg(not(unix))]
        {
            // Degraded portable mode: sleep briefly, then report every
            // interest as ready. All reactor I/O is nonblocking and treats
            // `WouldBlock` as "not actually ready", so optimistic readiness
            // is correct — it merely costs spurious syscalls.
            std::thread::sleep(std::time::Duration::from_millis(
                timeout_ms.clamp(0, 2) as u64
            ));
            for slot in &mut self.slots {
                slot.readable = slot.read;
                slot.writable = slot.write;
                slot.closed = false;
            }
            Ok(())
        }
    }

    pub(crate) fn readable(&self, slot: usize) -> bool {
        self.slots[slot].readable
    }

    pub(crate) fn writable(&self, slot: usize) -> bool {
        self.slots[slot].writable
    }

    /// Error/hangup: the peer is gone in both directions (a half-close
    /// arrives as a readable slot whose read returns 0, not as `closed`).
    pub(crate) fn closed(&self, slot: usize) -> bool {
        self.slots[slot].closed
    }
}

#[cfg(unix)]
#[allow(unsafe_code)] // audited FFI: registering an async-signal-safe flag setter
mod signal {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: core::ffi::c_int = 2;
    const SIGTERM: core::ffi::c_int = 15;

    extern "C" fn on_signal(_sig: core::ffi::c_int) {
        // A relaxed atomic store is async-signal-safe: no locks, no
        // allocation, no reentry into the runtime.
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    mod ffi {
        extern "C" {
            /// `signal(2)` from the platform libc that `std` already
            /// links. The handler is passed and returned as a plain
            /// address (`usize` and a function pointer have identical
            /// size/ABI on every platform std supports).
            pub(super) fn signal(signum: core::ffi::c_int, handler: usize) -> usize;
        }
    }

    pub(super) fn install() {
        // SAFETY: `on_signal` is an `extern "C" fn(c_int)` matching the
        // handler ABI `signal(2)` expects, lives for the whole program,
        // and only performs an async-signal-safe atomic store. The call
        // itself touches no memory owned by Rust.
        let handler = on_signal as *const () as usize;
        unsafe {
            ffi::signal(SIGTERM, handler);
            ffi::signal(SIGINT, handler);
        }
    }
}

#[cfg(unix)]
#[allow(unsafe_code)] // the one poll(2) FFI call; see the safety argument below
mod unix {
    use std::io;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// Mirror of `struct pollfd` (POSIX): layout fixed by `repr(C)`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub(super) struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub(super) fn new(fd: i32, read: bool, write: bool) -> Self {
            let mut events = 0;
            if read {
                events |= POLLIN;
            }
            if write {
                events |= POLLOUT;
            }
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        pub(super) fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLHUP) != 0
        }

        pub(super) fn writable(&self) -> bool {
            self.revents & POLLOUT != 0
        }

        pub(super) fn closed(&self) -> bool {
            self.revents & (POLLERR | POLLNVAL) != 0
        }
    }

    mod ffi {
        extern "C" {
            /// `poll(2)` from the platform libc that `std` already links.
            pub(super) fn poll(
                fds: *mut super::PollFd,
                nfds: core::ffi::c_ulong,
                timeout: core::ffi::c_int,
            ) -> core::ffi::c_int;
        }
    }

    /// Safe wrapper: blocks until readiness or timeout, returns the number
    /// of ready descriptors. `EINTR` reads as zero-ready.
    pub(super) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `repr(C)` pollfd records for the duration of the call;
        // `poll(2)` reads `events` and writes `revents` strictly within
        // `fds.len()` elements and retains no pointer after returning.
        let rc = unsafe {
            ffi::poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}
