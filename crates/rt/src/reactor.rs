//! Readiness polling for non-blocking I/O: epoll on Linux, POSIX
//! `poll(2)` everywhere else — zero dependencies.
//!
//! The workspace is hermetic (no libc crate, no mio), so the two
//! backends declare the handful of C functions they need directly;
//! the symbols resolve against the libc every Rust binary already
//! links. [`Poller`] is a level-triggered readiness queue: register a
//! file descriptor under a `u64` key with a read/write [`Interest`],
//! then [`Poller::wait`] fills a buffer of [`Event`]s. One poller, one
//! thread — the service's reactor owns it for the life of the process.
//!
//! On Linux both backends are compiled and tested; [`Poller::new`]
//! picks epoll, [`Poller::with_backend`] forces the portable fallback
//! (exercised by unit tests so the non-Linux path cannot rot).
//!
//! ```no_run
//! use soteria_rt::reactor::{Event, Interest, Poller};
//! use std::net::TcpListener;
//! use std::os::fd::AsRawFd;
//! use std::time::Duration;
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! listener.set_nonblocking(true).unwrap();
//! let mut poller = Poller::new().unwrap();
//! poller.register(listener.as_raw_fd(), 7, Interest::Read).unwrap();
//! let mut events: Vec<Event> = Vec::new();
//! poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
//! ```

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    Read,
    /// Wake when the descriptor is writable.
    Write,
    /// Wake on either direction.
    Both,
}

impl Interest {
    fn readable(self) -> bool {
        matches!(self, Interest::Read | Interest::Both)
    }

    fn writable(self) -> bool {
        matches!(self, Interest::Write | Interest::Both)
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The key the descriptor was registered under.
    pub key: u64,
    /// The descriptor has bytes to read (or a pending accept).
    pub readable: bool,
    /// The descriptor can accept more bytes.
    pub writable: bool,
    /// The peer closed or the descriptor errored; reads will drain
    /// whatever is left and then return 0/error.
    pub hangup: bool,
}

/// Which polling backend a [`Poller`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll(7)`; O(ready) wakeups.
    #[cfg(target_os = "linux")]
    Epoll,
    /// POSIX `poll(2)`; O(registered) per wait, portable.
    Poll,
}

/// Converts an optional timeout to the millisecond convention shared by
/// `epoll_wait` and `poll`: `-1` blocks, `0` returns immediately, and a
/// sub-millisecond positive timeout rounds up so waits cannot spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            if ms == 0 && !t.is_zero() {
                1
            } else {
                ms.min(i32::MAX as u128) as i32
            }
        }
    }
}

/// A level-triggered readiness poller over raw file descriptors.
#[derive(Debug)]
pub struct Poller {
    backend: BackendImpl,
}

#[derive(Debug)]
enum BackendImpl {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(poll::Poll),
}

impl Poller {
    /// Opens the best backend for this platform (epoll on Linux).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Poller::with_backend(Backend::Epoll)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::with_backend(Backend::Poll)
        }
    }

    /// Opens a specific backend (tests force the portable fallback).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        let backend = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => BackendImpl::Epoll(epoll::Epoll::open()?),
            Backend::Poll => BackendImpl::Poll(poll::Poll::new()),
        };
        Ok(Poller { backend })
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(_) => Backend::Epoll,
            BackendImpl::Poll(_) => Backend::Poll,
        }
    }

    /// Starts watching `fd` under `key`. One registration per fd.
    pub fn register(&mut self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.register(fd, key, interest),
            BackendImpl::Poll(p) => p.register(fd, key, interest),
        }
    }

    /// Changes the interest (and key) of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.modify(fd, key, interest),
            BackendImpl::Poll(p) => p.modify(fd, key, interest),
        }
    }

    /// Stops watching `fd`. Call before closing the descriptor.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.deregister(fd),
            BackendImpl::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), then fills `events`.
    /// Clears `events` first; returns the number of events delivered.
    /// `EINTR` is retried internally.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.wait(events, timeout),
            BackendImpl::Poll(p) => p.wait(events, timeout),
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! The Linux epoll backend: O(ready) wakeups, one syscall per wait.

    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    /// Kernel `struct epoll_event`. The x86-64 ABI packs it (the kernel
    /// header applies `__attribute__((packed))` there only).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
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

    fn mask(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.readable() {
            events |= EPOLLIN;
        }
        if interest.writable() {
            events |= EPOLLOUT;
        }
        events
    }

    #[derive(Debug)]
    pub(super) struct Epoll {
        /// The epoll instance; closed on drop.
        epfd: OwnedFd,
        scratch: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for EpollEvent {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Copy out of the (possibly packed) struct before formatting.
            let (events, data) = (self.events, self.data);
            write!(f, "EpollEvent {{ events: {events:#x}, data: {data} }}")
        }
    }

    impl Epoll {
        pub(super) fn open() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; any flag value is
            // safe to pass and errors are reported via the return value.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: epfd was just returned by epoll_create1 as a fresh
            // open descriptor this process exclusively owns.
            let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
            Ok(Epoll {
                epfd,
                scratch: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn epfd(&self) -> i32 {
            use std::os::fd::AsRawFd;
            self.epfd.as_raw_fd()
        }

        fn ctl(&mut self, op: i32, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask(interest),
                data: key,
            };
            // SAFETY: `event` is a live stack value matching the kernel
            // ABI layout; the kernel reads it before the call returns
            // (and ignores it entirely for EPOLL_CTL_DEL).
            let rc = unsafe { epoll_ctl(self.epfd(), op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            key: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, key, interest)
        }

        pub(super) fn modify(&mut self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, key, interest)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::Read)
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let n = loop {
                // SAFETY: `scratch` is a live, initialized buffer and
                // `maxevents` is exactly its length, so the kernel writes
                // only within bounds.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd(),
                        self.scratch.as_mut_ptr(),
                        self.scratch.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for raw in &self.scratch[..n] {
                let (bits, key) = (raw.events, raw.data);
                events.push(Event {
                    key,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                    hangup: bits & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(n)
        }
    }
}

mod poll {
    //! The portable `poll(2)` backend: the fd set lives in user space
    //! and is handed to the kernel on every wait.

    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// POSIX `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        /// `nfds_t` is `c_ulong`, which is pointer-width on every Unix
        /// this workspace targets.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    fn mask(interest: Interest) -> i16 {
        let mut events = 0;
        if interest.readable() {
            events |= POLLIN;
        }
        if interest.writable() {
            events |= POLLOUT;
        }
        events
    }

    #[derive(Debug)]
    pub(super) struct Poll {
        fds: Vec<PollFd>,
        keys: Vec<u64>,
    }

    impl Poll {
        pub(super) fn new() -> Poll {
            Poll {
                fds: Vec::new(),
                keys: Vec::new(),
            }
        }

        fn position(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            key: u64,
            interest: Interest,
        ) -> io::Result<()> {
            if self.fds.iter().any(|p| p.fd == fd) {
                return Err(io::Error::from(io::ErrorKind::AlreadyExists));
            }
            self.fds.push(PollFd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.keys.push(key);
            Ok(())
        }

        pub(super) fn modify(&mut self, fd: RawFd, key: u64, interest: Interest) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds[i].events = mask(interest);
            self.keys[i] = key;
            Ok(())
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds.swap_remove(i);
            self.keys.swap_remove(i);
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            for p in &mut self.fds {
                p.revents = 0;
            }
            loop {
                let (fds, nfds) = (self.fds.as_mut_ptr(), self.fds.len());
                // SAFETY: `fds` is a live, contiguous buffer of PollFd
                // and `nfds` is exactly its length; the kernel writes
                // only the `revents` fields within bounds.
                let rc = unsafe { poll(fds, nfds, timeout_ms(timeout)) };
                if rc >= 0 {
                    break;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            for (p, &key) in self.fds.iter().zip(&self.keys) {
                if p.revents == 0 {
                    continue;
                }
                let bits = p.revents;
                events.push(Event {
                    key,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & (POLLOUT | POLLHUP | POLLERR) != 0,
                    hangup: bits & (POLLHUP | POLLERR) != 0,
                });
            }
            Ok(events.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        {
            vec![Backend::Epoll, Backend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Backend::Poll]
        }
    }

    fn wait_for_key(poller: &mut Poller, key: u64, tries: usize) -> Option<Event> {
        let mut events = Vec::new();
        for _ in 0..tries {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if let Some(ev) = events.iter().find(|e| e.key == key) {
                return Some(*ev);
            }
        }
        None
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let mut poller = Poller::with_backend(backend).unwrap();
            poller
                .register(listener.as_raw_fd(), 1, Interest::Read)
                .unwrap();

            // Nothing pending yet: a short wait returns no events.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious events {events:?}");

            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let ev = wait_for_key(&mut poller, 1, 50)
                .unwrap_or_else(|| panic!("{backend:?}: no accept readiness"));
            assert!(ev.readable);
        }
    }

    #[test]
    fn stream_readable_after_peer_write_and_hangup_after_close() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut poller = Poller::with_backend(backend).unwrap();
            poller
                .register(server.as_raw_fd(), 42, Interest::Read)
                .unwrap();

            client.write_all(b"ping").unwrap();
            let ev = wait_for_key(&mut poller, 42, 50)
                .unwrap_or_else(|| panic!("{backend:?}: no read readiness"));
            assert!(ev.readable);

            let mut buf = [0u8; 8];
            let n = (&server).read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"ping");

            drop(client);
            let ev = wait_for_key(&mut poller, 42, 50)
                .unwrap_or_else(|| panic!("{backend:?}: no hangup readiness"));
            assert!(ev.readable, "{backend:?}: EOF must read as readable");
        }
    }

    #[test]
    fn write_interest_and_modify_and_deregister() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            drop(server);
            client.set_nonblocking(true).unwrap();

            let mut poller = Poller::with_backend(backend).unwrap();
            poller
                .register(client.as_raw_fd(), 7, Interest::Write)
                .unwrap();
            let ev = wait_for_key(&mut poller, 7, 50)
                .unwrap_or_else(|| panic!("{backend:?}: no write readiness"));
            assert!(ev.writable);

            // Rekey + switch interest, then confirm the new key arrives.
            poller
                .modify(client.as_raw_fd(), 9, Interest::Both)
                .unwrap();
            let ev = wait_for_key(&mut poller, 9, 50)
                .unwrap_or_else(|| panic!("{backend:?}: no readiness after modify"));
            assert!(ev.writable);

            poller.deregister(client.as_raw_fd()).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(
                events.is_empty(),
                "{backend:?}: events after deregister {events:?}"
            );
        }
    }

    #[test]
    fn timeout_conversion_rounds_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }
}
