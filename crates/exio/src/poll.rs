//! Thin, vendorable epoll + eventfd wrapper (Linux only).
//!
//! The serve layer's reactor needs exactly three kernel facilities: a
//! readiness multiplexer (`epoll`), a cross-thread wakeup primitive that the
//! multiplexer can watch (`eventfd`), and nonblocking sockets (std already
//! provides those). This module binds the first two directly against the
//! C library that `std` already links — no `libc`/`mio` dependency, so the
//! crate stays buildable in the offline vendored workspace.
//!
//! Everything is level-triggered: the reactor re-arms nothing, it just
//! drains each readiness source until `WouldBlock`. Level-triggered epoll
//! plus drain-to-WouldBlock is the least surprising correct combination —
//! a fact the event-loop literature relearns every decade.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

// x86_64's epoll_event is packed (a 32-bit mask followed by an unaligned
// 64-bit cookie); other Linux targets use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a registered descriptor wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP; // always learn about peer half-close
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness report: the registration token plus what fired.
/// `hangup`/`error` are delivered regardless of requested interest.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
    pub error: bool,
}

/// A level-triggered epoll instance. Tokens are caller-chosen `u64` cookies
/// echoed back verbatim in [`Event`]s.
pub struct Poller {
    ep: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes a flags integer and touches no
        // caller memory; failure is a negative return, checked by `cvt`.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            // SAFETY: `cvt` returned, so `fd` is a fresh, open descriptor
            // the kernel just created; nothing else holds it, so this
            // `OwnedFd` is its sole owner and the only one to close it.
            ep: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `&mut ev` points at a live, initialised `EpollEvent` laid
        // out as the kernel's `epoll_event` (the `repr` above) for the whole
        // call; the kernel only reads it. A bad `fd` or `op` is an error
        // return, not undefined behaviour.
        cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Watch `fd` under `token`. The fd must outlive the registration.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), token, interest)
    }

    /// Change an existing registration's interest set.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), token, interest)
    }

    /// Stop watching `fd`. (Closing the fd deregisters implicitly, but an
    /// explicit removal keeps stale events from firing while it lingers.)
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`: `&mut ev` is a live `EpollEvent` for the
        // call (kernels before 2.6.9 required non-null even for DEL).
        cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), EPOLL_CTL_DEL, fd.as_raw_fd(), &mut ev) })
            .map(|_| ())
    }

    /// Block until at least one event, `timeout` elapses (`None` = forever),
    /// or a signal. Fills `events` and returns how many fired (0 = timeout).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        // round up to whole milliseconds, so a deadline of "1.9 ms from
        // now" sleeps 2 ms instead of waking at 1 ms to loop for nothing,
        // and "200 µs" sleeps instead of busy-spinning at timeout 0; a zero
        // timeout stays 0 (poll), and anything past i32::MAX ms saturates
        let timeout_ms: i32 = match timeout {
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let mut raw = [EpollEvent { events: 0, data: 0 }; 128];
        let n = loop {
            // SAFETY: `raw` is a live, writable array of `raw.len()`
            // `EpollEvent`s and `maxevents` is exactly that length, so the
            // kernel writes at most `raw.len()` events into it; the return
            // value (checked by `cvt`) says how many it wrote.
            match cvt(unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    raw.as_mut_ptr(),
                    raw.len() as i32,
                    timeout_ms,
                )
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
                error: bits & EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

/// A nonblocking eventfd: the reactor's cross-thread doorbell. Worker
/// threads [`EventFd::notify`]; the owning reactor registers it readable and
/// [`EventFd::drain`]s on wakeup. Notifications coalesce (the kernel keeps a
/// counter, not a queue), which is exactly the semantics a completion-queue
/// doorbell wants.
pub struct EventFd {
    file: File,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: `eventfd` takes two integers and touches no caller
        // memory; failure is a negative return, checked by `cvt`.
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(EventFd {
            // SAFETY: `cvt` returned, so `fd` is a fresh, open descriptor
            // the kernel just created and nothing else holds; the `File`
            // is its sole owner and closes it exactly once.
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// Ring the doorbell. Never blocks: the counter saturating (u64::MAX-1
    /// pending notifies) cannot happen before the reactor drains.
    pub fn notify(&self) -> io::Result<()> {
        match (&self.file).write_all(&1u64.to_ne_bytes()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Consume all pending notifications; returns whether any were pending.
    pub fn drain(&self) -> io::Result<bool> {
        let mut buf = [0u8; 8];
        match (&self.file).read(&mut buf) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(e),
        }
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_wakes_poller_and_coalesces() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        poller.register(&efd, 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        // nothing pending: a short wait times out
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);

        efd.notify().unwrap();
        efd.notify().unwrap(); // coalesces with the first
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        assert!(efd.drain().unwrap());
        assert!(!efd.drain().unwrap(), "drain consumed both notifies");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "level-triggered readiness cleared by drain");
    }

    // a fractional-millisecond deadline must round up: truncating 1.9 ms to
    // 1 ms wakes an idle loop early, only for it to wait again
    #[test]
    fn idle_wait_never_returns_before_its_timeout() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let timeout = Duration::from_micros(1900);
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            assert_eq!(poller.wait(&mut events, Some(timeout)).unwrap(), 0);
            let waited = t0.elapsed();
            assert!(
                waited >= timeout,
                "woke after {waited:?}, asked {timeout:?}"
            );
        }
    }

    #[test]
    fn socket_readiness_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(&server, 42, Interest::BOTH).unwrap();

        let mut events = Vec::new();
        // an idle connected socket is writable but not readable
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 42).unwrap();
        assert!(ev.writable && !ev.readable);

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        // level-triggered: readable stays asserted until the bytes are read
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            let ev = events.iter().find(|e| e.token == 42).unwrap();
            assert!(ev.readable);
        }

        poller.deregister(&server).unwrap();
        client.write_all(b"more").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd no longer reports");
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(&server, 1, Interest::READABLE).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 1).unwrap();
        assert!(ev.hangup || ev.readable, "peer close surfaces as rdhup");
    }
}
