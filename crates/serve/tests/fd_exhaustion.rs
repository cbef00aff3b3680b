//! Descriptor exhaustion: when `accept` fails with `EMFILE` the serving core
//! backs off for 100 ms instead of waking again at once for the backlog that
//! is still pending, warns once, and serves the waiting clients as soon as
//! descriptors free up.
//!
//! The test lowers this process's descriptor limit, so it is the only test
//! in its binary. The limit and socket constants are Linux's.

#![cfg(target_os = "linux")]

use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_obs::{CaptureSink, Logger};
use oociso_serve::protocol::{read_frame, write_frame, FrameIn};
use oociso_serve::{IsoServer, Message, ServeOptions};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::{Dims3, Volume};
use std::ffi::c_ulong;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RLIMIT_NOFILE: i32 = 7;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;

#[repr(C)]
struct Rlimit {
    cur: c_ulong,
    max: c_ulong,
}

#[repr(C)]
struct SockaddrIn {
    family: u16,
    port: u16,
    addr: u32,
    zero: [u8; 8],
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
}

/// Set the soft descriptor limit; returns the previous one.
fn set_fd_limit(cur: c_ulong) -> c_ulong {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live `struct rlimit` (two `rlim_t`s) the call fills.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    let old = lim.cur;
    lim.cur = cur;
    // SAFETY: `lim` is a live, initialised `struct rlimit` the call reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
    old
}

/// A TCP socket that exists now and connects later, after the limit drops.
fn socket_now() -> OwnedFd {
    // SAFETY: `socket` takes three integers and touches no caller memory.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    assert!(fd >= 0, "socket: {}", std::io::Error::last_os_error());
    // SAFETY: `fd` is a fresh descriptor nothing else owns.
    unsafe { OwnedFd::from_raw_fd(fd) }
}

fn connect_to(fd: &OwnedFd, addr: SocketAddr) {
    let SocketAddr::V4(v4) = addr else {
        panic!("an IPv4 listener")
    };
    let sa = SockaddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let len = std::mem::size_of::<SockaddrIn>() as u32;
    // SAFETY: `sa` is a live `struct sockaddr_in` of `len` bytes.
    let rc = unsafe { connect(fd.as_raw_fd(), &sa, len) };
    assert_eq!(rc, 0, "connect: {}", std::io::Error::last_os_error());
}

#[test]
fn accept_backs_off_on_fd_exhaustion_and_then_serves_the_backlog() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("oociso_fd_exhaustion_{}", std::process::id()));
    let vol: Volume<u8> = SphereField::centered(0.32, 128.0).sample(Dims3::cube(17));
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let sink = Arc::new(CaptureSink::new());
    let server = IsoServer::bind(
        db,
        ("127.0.0.1", 0),
        ServeOptions {
            // two loops watch the one listener: the back-off is theirs to share
            reactor_threads: 2,
            logger: Logger::new(sink.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let clients: Vec<OwnedFd> = (0..8).map(|_| socket_now()).collect();

    // the next descriptor this process would get is the lowest free one;
    // a limit at that number leaves none for the server to accept into
    let lowest_free = std::fs::File::open("/dev/null").unwrap().as_raw_fd();
    let old_limit = set_fd_limit(lowest_free as c_ulong);
    for fd in &clients {
        connect_to(fd, server.addr()); // completes in the kernel's backlog
    }
    std::thread::sleep(Duration::from_millis(500));
    let starved = server.report();
    set_fd_limit(old_limit);

    // one back-off per 100 ms across both loops: about 5 in 500 ms, where
    // a loop that keeps watching the listener counts thousands
    assert!(starved.accept_backoffs >= 1, "the limit was never hit");
    assert!(
        starved.accept_backoffs <= 8,
        "{} accept back-offs in 500 ms: the loops spin on the backlog",
        starved.accept_backoffs
    );
    assert_eq!(starved.active_connections, 0);
    assert_eq!(
        sink.named("accept_backoff").len(),
        1,
        "one warning per episode"
    );

    // descriptors are back: the waiting clients are accepted and served
    let t0 = Instant::now();
    while server.report().active_connections < clients.len() as u64 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "backlog never accepted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for (i, fd) in clients.into_iter().enumerate() {
        let mut stream = TcpStream::from(fd);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let payload = vec![i as u8; 16];
        write_frame(
            &mut stream,
            &Message::Ping {
                payload: payload.clone(),
            },
        )
        .unwrap();
        match read_frame(&mut stream).unwrap() {
            Some(FrameIn::Ok {
                msg: Message::Pong { payload: got },
                ..
            }) => assert_eq!(got, payload, "client {i}"),
            other => panic!("client {i}: {other:?}"),
        }
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
