//! Thin, vendorable readiness wrapper over `poll(2)` (every unix).
//!
//! The serve layer's reactor needs exactly three kernel facilities: a
//! readiness multiplexer, a cross-thread wakeup primitive that the
//! multiplexer can watch, and nonblocking sockets (std already provides
//! those). This module binds `poll(2)` directly against the C library that
//! `std` already links — no `libc`/`mio` dependency, so the crate stays
//! buildable in the offline vendored workspace — and builds the wakeup from
//! a std `UnixStream` pair, so the only `unsafe` is the one `poll` call.
//!
//! Everything is level-triggered: the reactor re-arms nothing, it just
//! drains each readiness source until `WouldBlock`. `poll(2)` scans its whole
//! table on every call; the reactor already walks every connection on each
//! wakeup (deadlines), so the scan adds no asymptotic cost.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `struct pollfd`, identical on every unix.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

// the same bit values on Linux, the BSDs and macOS
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

// `nfds_t`: the one type `poll(2)` spells differently across unixes
#[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
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

    fn mask(self) -> i16 {
        let mut m = 0;
        if self.readable {
            m |= POLLIN;
        }
        if self.writable {
            m |= POLLOUT;
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

/// A level-triggered readiness set: a table of `(fd, token, interest)`
/// handed to `poll(2)` whole on every [`Poller::wait`]. Tokens are
/// caller-chosen `u64` cookies echoed back verbatim in [`Event`]s.
#[derive(Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    /// `tokens[i]` belongs to `fds[i]`.
    tokens: Vec<u64>,
    /// Where each registered fd sits in the two tables above.
    slot: HashMap<RawFd, usize>,
}

impl Poller {
    /// Watch `fd` under `token`. The fd must outlive the registration.
    pub fn register(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = fd.as_raw_fd();
        if self.slot.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} is already registered"),
            ));
        }
        self.slot.insert(fd, self.fds.len());
        self.fds.push(PollFd {
            fd,
            events: interest.mask(),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Change an existing registration's token and interest set.
    pub fn modify(&mut self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        let i = self.slot_of(fd.as_raw_fd())?;
        self.fds[i].events = interest.mask();
        self.tokens[i] = token;
        Ok(())
    }

    /// Stop watching `fd` (before closing it: a closed fd left in the table
    /// reports `POLLNVAL` on every wait).
    pub fn deregister(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
        let fd = fd.as_raw_fd();
        let i = self.slot_of(fd)?;
        self.slot.remove(&fd);
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        if let Some(moved) = self.fds.get(i) {
            self.slot.insert(moved.fd, i);
        }
        Ok(())
    }

    fn slot_of(&self, fd: RawFd) -> io::Result<usize> {
        self.slot.get(&fd).copied().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("fd {fd} is not registered"),
            )
        })
    }

    /// Block until at least one event, `timeout` elapses (`None` = forever),
    /// or a signal. Fills `events` and returns how many fired (0 = timeout).
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        // round up to whole milliseconds, so a deadline of "1.9 ms from
        // now" sleeps 2 ms instead of waking at 1 ms to loop for nothing,
        // and "200 µs" sleeps instead of busy-spinning at timeout 0; a zero
        // timeout stays 0 (poll), and anything past i32::MAX ms saturates
        let timeout_ms: i32 = match timeout {
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
            None => -1,
        };
        loop {
            // SAFETY: `self.fds` is a live, writable slice of `PollFd`s laid
            // out as the C `struct pollfd` (`repr(C)`, three fields of the
            // C types), and `nfds` is exactly its length, so the kernel
            // reads and writes (`revents` only) within the slice for the
            // duration of the call. Stale fds are reported as `POLLNVAL`,
            // not undefined behaviour.
            let ret = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, timeout_ms) };
            if ret >= 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: bits & (POLLIN | POLLHUP) != 0,
                writable: bits & POLLOUT != 0,
                hangup: bits & POLLHUP != 0,
                error: bits & (POLLERR | POLLNVAL) != 0,
            });
        }
        Ok(events.len())
    }
}

/// The reactor's cross-thread doorbell: a nonblocking socket pair. Worker
/// threads [`Doorbell::notify`] by writing a byte to one end; the owning
/// reactor registers the other end readable and [`Doorbell::drain`]s it on
/// wakeup. Notifications coalesce into one wakeup, and a full socket buffer
/// means the bell is already ringing, so `notify` never blocks.
pub struct Doorbell {
    rx: UnixStream,
    tx: UnixStream,
}

impl Doorbell {
    pub fn new() -> io::Result<Doorbell> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Doorbell { rx, tx })
    }

    /// Ring the doorbell.
    pub fn notify(&self) -> io::Result<()> {
        loop {
            match (&self.tx).write(&[1]) {
                Ok(_) => return Ok(()),
                // the buffer is full of unread rings: already rung
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Consume all pending notifications; returns whether any were pending.
    pub fn drain(&self) -> io::Result<bool> {
        let mut buf = [0u8; 256];
        let mut rung = false;
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return Ok(rung),
                Ok(_) => rung = true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(rung),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl AsRawFd for Doorbell {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    #[test]
    fn doorbell_rung_from_another_thread_wakes_poller_and_coalesces() {
        let mut poller = Poller::default();
        let bell = Arc::new(Doorbell::new().unwrap());
        poller.register(&*bell, 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        // nothing pending: a short wait times out
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);

        // many rings from another thread, then one wakeup for all of them
        let ringer = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    bell.notify().unwrap();
                }
            })
        };
        ringer.join().unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        assert!(bell.drain().unwrap());
        assert!(!bell.drain().unwrap(), "one drain consumed every ring");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "level-triggered readiness cleared by drain");

        // a parked wait is woken by a ring from another thread
        let ringer = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                bell.notify().unwrap();
            })
        };
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        ringer.join().unwrap();
        assert_eq!((n, events[0].token), (1, 7));
    }

    // a fractional-millisecond deadline must round up: truncating 1.9 ms to
    // 1 ms wakes an idle loop early, only for it to wait again
    #[test]
    fn idle_wait_never_returns_before_its_timeout() {
        let mut poller = Poller::default();
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

    fn connected_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn socket_readiness_is_level_triggered() {
        let (mut client, server) = connected_pair();
        let mut poller = Poller::default();
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

    // the reactor's backpressure drops read interest on a connection with
    // bytes waiting and adds write interest while output is queued: modify
    // must switch what a registration reports, and its token, in place
    #[test]
    fn modify_switches_interest_and_token() {
        let (mut client, server) = connected_pair();
        let mut poller = Poller::default();
        poller.register(&server, 1, Interest::READABLE).unwrap();
        client.write_all(b"pending").unwrap();

        let mut events = Vec::new();
        let wait = |poller: &mut Poller, events: &mut Vec<Event>| {
            poller
                .wait(events, Some(Duration::from_millis(200)))
                .unwrap();
            events.first().copied()
        };
        let ev = wait(&mut poller, &mut events).expect("bytes are waiting");
        assert!(ev.readable && !ev.writable && ev.token == 1);

        // reads paused: the unread bytes no longer wake the poller
        poller
            .modify(
                &server,
                2,
                Interest {
                    readable: false,
                    writable: false,
                },
            )
            .unwrap();
        assert!(wait(&mut poller, &mut events).is_none(), "{events:?}");

        // write interest only: writable, and the waiting bytes stay silent
        poller.modify(&server, 3, Interest::WRITABLE).unwrap();
        let ev = wait(&mut poller, &mut events).expect("an idle socket is writable");
        assert!(ev.writable && !ev.readable && ev.token == 3);

        // reads resumed: the same bytes are reported again
        poller.modify(&server, 4, Interest::READABLE).unwrap();
        let ev = wait(&mut poller, &mut events).expect("still unread");
        assert!(ev.readable && !ev.writable && ev.token == 4);
    }

    // the table stays consistent when a registration in the middle leaves:
    // the entry moved into its slot keeps its own token and interest
    #[test]
    fn deregister_keeps_the_other_registrations() {
        let pairs: Vec<_> = (0..3).map(|_| connected_pair()).collect();
        let mut poller = Poller::default();
        for (i, (_, server)) in pairs.iter().enumerate() {
            poller
                .register(server, i as u64, Interest::READABLE)
                .unwrap();
        }
        assert!(poller.register(&pairs[0].1, 9, Interest::READABLE).is_err());
        poller.deregister(&pairs[0].1).unwrap();
        assert!(poller.deregister(&pairs[0].1).is_err());
        for (client, _) in &pairs {
            (&*client).write_all(b"x").unwrap();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        tokens.sort();
        assert_eq!(tokens, vec![1, 2]);
        poller.modify(&pairs[2].1, 5, Interest::READABLE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        tokens.sort();
        assert_eq!(tokens, vec![1, 5]);
    }

    #[test]
    fn hangup_is_reported() {
        let (client, server) = connected_pair();
        let mut poller = Poller::default();
        poller.register(&server, 1, Interest::READABLE).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 1).unwrap();
        assert!(ev.hangup || ev.readable, "peer close surfaces as readable");
    }
}
