//! The two things the store's poll loops (`fanout.rs`, `node.rs`) need
//! that `std::net` does not offer: a TCP `connect` that does not block,
//! and `poll(2)`.
//!
//! Both are reached through the C library `std` already links — no
//! crate for three calls. Everything `std` *does* offer stays in `std`:
//! the connected socket is handed back as a [`TcpStream`], whose
//! `take_error`, `set_nodelay`, reads, writes and close are the safe
//! ones.
//!
//! 64-bit Linux only: the constants and struct layouts below are the
//! kernel's generic ABI (x86-64, aarch64, riscv64).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "ec-store's poll loops speak the 64-bit Linux socket ABI; port crates/store/src/sys.rs"
);

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;

/// Readable (or the peer closed).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable — for a socket still connecting: the attempt has ended, one
/// way or the other.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`. Error conditions (`POLLERR`, `POLLHUP`, `POLLNVAL`)
/// are reported in `revents` whether asked for or not, so "`revents` is
/// non-zero" is "this socket has something to say".
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    /// Watch `socket` (a stream or a listener) for `events`.
    pub(crate) fn new(socket: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// `struct sockaddr_in`; port and address in network byte order.
#[repr(C)]
struct SockAddrV4 {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6`; port and address in network byte order,
/// flow label and scope id as the host holds them.
#[repr(C)]
struct SockAddrV6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// `struct timespec`.
#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
}

/// Start a TCP connection to `addr` and return at once. The stream is
/// non-blocking and most likely still connecting: wait for [`POLLOUT`],
/// then `take_error()` says whether it got through. An `Err` here is a
/// connect that failed on the spot (no route, refused by loopback).
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: `socket` takes no pointers; any argument values are safe
    // to pass (a bad combination is an error return).
    let fd = unsafe { socket(family as i32, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by a successful `socket`, so it is
    // open and nothing else owns it; from here `OwnedFd` closes it on
    // every path.
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    let rc = match addr {
        SocketAddr::V4(a) => {
            let sa = SockAddrV4 {
                family,
                port: a.port().to_be_bytes(),
                addr: a.ip().octets(),
                zero: [0; 8],
            };
            // SAFETY: `fd` is an open socket, `sa` is a live, fully
            // initialised `sockaddr_in` (`repr(C)`, 16 bytes, no
            // padding) and the length passed is its size; `connect`
            // only reads it.
            unsafe { connect(fd, (&raw const sa).cast(), size_of::<SockAddrV4>() as u32) }
        }
        SocketAddr::V6(a) => {
            let sa = SockAddrV6 {
                family,
                port: a.port().to_be_bytes(),
                flowinfo: a.flowinfo(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            // SAFETY: as above, for a `sockaddr_in6` (28 bytes, no
            // padding).
            unsafe { connect(fd, (&raw const sa).cast(), size_of::<SockAddrV6>() as u32) }
        }
    };
    if rc != 0 {
        let err = io::Error::last_os_error();
        // In progress is the expected answer; interrupted means the
        // same for a non-blocking connect (it carries on in the kernel).
        let pending = err.raw_os_error() == Some(115 /* EINPROGRESS */)
            || err.kind() == io::ErrorKind::Interrupted;
        if !pending {
            return Err(err);
        }
    }
    Ok(TcpStream::from(owned))
}

/// Wait until one of `fds` has something to say or `timeout` passes;
/// returns how many do. `ppoll` rather than `poll` for its nanosecond
/// timeout: a read's straggler hedge wakes on a patience of fractions of
/// a millisecond.
pub(crate) fn poll_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout = TimeSpec {
        sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `repr(C)` `pollfd`s and the count passed is its length — the
        // kernel writes only the `revents` fields inside it; `timeout`
        // is a live `timespec` that is only read; a null signal mask
        // is allowed and means "leave the mask alone".
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as u64,
                &timeout,
                std::ptr::null(),
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Wait for the connect to end and report how.
    fn outcome(stream: &TcpStream) -> io::Result<()> {
        let mut fds = [PollFd::new(stream, POLLOUT)];
        assert_eq!(poll_ready(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        match stream.take_error()? {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    #[test]
    fn connects_to_a_listener_and_is_refused_by_a_closed_port() {
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let Ok(listener) = TcpListener::bind(bind) else {
                assert!(bind.starts_with('['), "IPv4 loopback must bind");
                continue; // no IPv6 loopback on this host
            };
            let addr = listener.local_addr().unwrap();
            let stream = connect_nonblocking(&addr).unwrap();
            outcome(&stream).unwrap();
            assert_eq!(stream.peer_addr().unwrap(), addr);
            let (accepted, _) = listener.accept().unwrap();
            assert_eq!(accepted.peer_addr().unwrap(), stream.local_addr().unwrap());

            // The same port with nobody listening: refused, on the spot
            // or when the attempt ends.
            drop((listener, accepted, stream));
            let refused = connect_nonblocking(&addr).and_then(|s| outcome(&s));
            assert_eq!(
                refused.unwrap_err().kind(),
                io::ErrorKind::ConnectionRefused,
                "{addr}"
            );
        }
    }

    #[test]
    fn poll_times_out_on_a_silent_socket_and_wakes_on_data() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect_nonblocking(&listener.local_addr().unwrap()).unwrap();
        outcome(&stream).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(&stream, POLLIN)];
        assert_eq!(
            poll_ready(&mut fds, Duration::from_micros(1500)).unwrap(),
            0
        );
        peer.write_all(b"x").unwrap();
        assert_eq!(poll_ready(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }
}
