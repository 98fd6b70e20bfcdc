//! The connection engine behind both HTTP planes, the job server and
//! the fleet coordinator's control plane: one reactor thread drives
//! every connection through read → route → write, so an idle or stalled
//! socket costs a buffer instead of a thread and never holds up another
//! client.
//!
//! A plane plugs in through [`Plane`]: it routes a parsed request, books
//! each settled request, and says when to stop. Framing is
//! [`crate::http::parse_request`] and rendering is `Response::to_wire`,
//! on [`soteria_rt::reactor::Poller`] (epoll on Linux, `poll(2)`
//! elsewhere). The job server's campaigns run on its worker pool; the
//! reactor only parses, routes, and shuttles bytes, so a submit is
//! accepted or shed in microseconds even while thousands of connections
//! are parked.
//!
//! A plane may also park a request and answer it later from another
//! thread through [`Wake::send`]. That [`Wake`], a socket pair the poller
//! watches, is also how [`Plane::stop`] changes are noticed: the loop
//! otherwise sleeps until I/O or the soonest read deadline, never on a
//! timer.
//!
//! Per-connection lifecycle:
//!
//! ```text
//! accept → Reading --parse ok--> route → Writing → close
//!             |  |                 \--parked--> Parked --reply--> Writing → close
//!             |  \--body too large--> DrainingBody → Writing → close
//!             \--deadline--> 408 → Writing → close
//! ```
//!
//! Error semantics are the same on both planes: pinned strings, a `408`
//! once reads stop making progress for the read timeout, a bounded drain
//! of the declared body before a `413`, and a `400` for a request cut
//! short.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use soteria_rt::obs::Timer;
use soteria_rt::reactor::{Event, Interest, Poller};

use crate::error::SvcError;
use crate::http::{drain_budget, parse_request, ReadLimits, Request, Response};

/// One HTTP plane, as [`event_loop`] serves it.
pub(crate) trait Plane {
    /// Answers one parsed request now, or parks it (`Ok(None)`): the plane
    /// keeps `later` and must answer it through [`Wake::send`].
    fn route(&self, req: &Request, later: Reply) -> Result<Option<Response>, SvcError>;
    /// Books one settled request: its routed path (`/` when it never
    /// parsed), its status, and a timer started at accept.
    fn record(&self, path: &str, status: u16, timer: Timer);
    /// Whether to stop accepting; the loop returns once every open
    /// connection has settled.
    fn stop(&self) -> bool;
}

/// The poller key reserved for the listening socket.
const LISTENER_KEY: u64 = u64::MAX;

/// The poller key reserved for the [`Wake`] socket.
const WAKE_KEY: u64 = u64::MAX - 1;

/// A parked request's connection, answered through [`Wake::send`].
pub(crate) struct Reply(usize);

/// Wakes [`event_loop`] from other threads: one byte on a socket pair the
/// poller watches, plus the answers to parked requests it should write.
pub(crate) struct Wake {
    tx: UnixStream,
    rx: UnixStream,
    replies: Mutex<Vec<(Reply, Result<Response, SvcError>)>>,
}

impl Wake {
    pub(crate) fn new() -> io::Result<Wake> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let replies = Mutex::new(Vec::new());
        Ok(Wake { tx, rx, replies })
    }

    /// Wakes the loop with answers to parked requests, or none.
    pub(crate) fn send(&self, replies: Vec<(Reply, Result<Response, SvcError>)>) {
        self.replies.lock().unwrap().extend(replies);
        // A full socket buffer already holds an unread wake.
        let _ = (&self.tx).write(&[1]);
    }

    /// Drains the wakes, then takes the answers (a later one wakes again).
    fn take(&self) -> Vec<(Reply, Result<Response, SvcError>)> {
        while matches!((&self.rx).read(&mut [0u8; 64]), Ok(n) if n > 0) {}
        std::mem::take(&mut *self.replies.lock().unwrap())
    }
}

const READ_CHUNK: usize = 16 * 1024;

/// What to do with a connection after an I/O pass.
#[derive(PartialEq, Eq)]
enum Next {
    Keep,
    Close,
}

enum Phase {
    /// Accumulating request bytes until `parse_request` completes.
    Reading,
    /// Oversized body rejected; discarding the declared remainder
    /// (bounded) so the close does not RST the 413 away.
    DrainingBody { budget: usize, err: SvcError },
    /// Routed, its [`Reply`] held by the plane; out of the poller.
    Parked { path: String },
    /// Response rendered; flushing `out`.
    Writing,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
    /// Reads must make progress before this instant or the request
    /// times out (refreshed on every received chunk).
    deadline: Instant,
    timer: Option<Timer>,
    phase: Phase,
}

impl Conn {
    fn new(stream: TcpStream, read_timeout: Duration) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(512),
            out: Vec::new(),
            written: 0,
            deadline: Instant::now() + read_timeout,
            timer: Some(Timer::start(true)),
            phase: Phase::Reading,
        }
    }

    /// Whether the read deadline applies: the request is still arriving.
    fn reads(&self) -> bool {
        matches!(self.phase, Phase::Reading | Phase::DrainingBody { .. })
    }

    /// Writes as much of `out` as the socket accepts right now.
    fn flush(&mut self) -> Next {
        loop {
            if self.written == self.out.len() {
                let _ = self.stream.flush();
                return Next::Close;
            }
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Next::Close,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Next::Close,
            }
        }
    }

    /// Books the settled request, renders the response, and starts
    /// writing it. `path` is the routed request path, or `/` when the
    /// request never parsed.
    fn respond(
        &mut self,
        plane: &dyn Plane,
        path: &str,
        outcome: Result<Response, SvcError>,
    ) -> Next {
        let response = outcome.unwrap_or_else(|err| Response::error(&err));
        if let Some(timer) = self.timer.take() {
            plane.record(path, response.status, timer);
        }
        self.out = response.to_wire();
        self.written = 0;
        self.phase = Phase::Writing;
        self.flush()
    }

    /// A readable event while accumulating the request of the
    /// connection in `slot`.
    fn on_reading(
        &mut self,
        plane: &dyn Plane,
        limits: &ReadLimits,
        read_timeout: Duration,
        slot: usize,
    ) -> Next {
        let mut chunk = [0u8; READ_CHUNK];
        let mut closed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.deadline = Instant::now() + read_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        match parse_request(&self.buf, limits) {
            Ok(Some((request, _consumed))) => {
                match plane.route(&request, Reply(slot)).transpose() {
                    Some(outcome) => self.respond(plane, &request.path, outcome),
                    None => {
                        self.phase = Phase::Parked { path: request.path };
                        Next::Keep
                    }
                }
            }
            Ok(None) if closed => self.respond(
                plane,
                "/",
                Err(SvcError::BadRequest(
                    "connection closed before the request was complete".into(),
                )),
            ),
            Ok(None) => Next::Keep,
            Err(err @ SvcError::PayloadTooLarge { what: "body", .. }) => {
                let budget = drain_budget(&self.buf).min(1 << 20);
                if budget == 0 || closed {
                    self.respond(plane, "/", Err(err))
                } else {
                    self.buf.clear();
                    self.phase = Phase::DrainingBody { budget, err };
                    Next::Keep
                }
            }
            Err(err) => self.respond(plane, "/", Err(err)),
        }
    }

    /// A readable event while discarding an oversized body.
    fn on_draining(&mut self, plane: &dyn Plane, read_timeout: Duration) -> Next {
        let mut chunk = [0u8; READ_CHUNK];
        let mut settle = false;
        loop {
            let Phase::DrainingBody { budget, .. } = &mut self.phase else {
                return Next::Keep;
            };
            if *budget == 0 || settle {
                break;
            }
            let take = chunk.len().min(*budget);
            match self.stream.read(&mut chunk[..take]) {
                Ok(0) => settle = true,
                Ok(n) => {
                    *budget -= n;
                    self.deadline = Instant::now() + read_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => settle = true,
            }
        }
        let Phase::DrainingBody { err, .. } = std::mem::replace(&mut self.phase, Phase::Writing)
        else {
            return Next::Keep;
        };
        self.respond(plane, "/", Err(err))
    }

    /// The plane's answer to the parked request.
    fn on_answer(&mut self, plane: &dyn Plane, outcome: Result<Response, SvcError>) -> Next {
        let Phase::Parked { path } = &mut self.phase else {
            return Next::Keep;
        };
        let path = std::mem::take(path);
        self.respond(plane, &path, outcome)
    }

    /// The read deadline passed: a `408`, or the `413` of a body being
    /// drained.
    fn on_deadline(&mut self, plane: &dyn Plane) -> Next {
        let err = match std::mem::replace(&mut self.phase, Phase::Writing) {
            Phase::DrainingBody { err, .. } => err,
            _ => SvcError::RequestTimeout,
        };
        self.respond(plane, "/", Err(err))
    }
}

/// Accepts every pending connection; returns `false` when the listener
/// has failed fatally.
fn accept_all(
    listener: &TcpListener,
    read_timeout: Duration,
    poller: &mut Poller,
    conns: &mut Vec<Option<Conn>>,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let conn = Conn::new(stream, read_timeout);
                let fd = conn.stream.as_raw_fd();
                let slot = match conns.iter().position(|c| c.is_none()) {
                    Some(i) => i,
                    None => {
                        conns.push(None);
                        conns.len() - 1
                    }
                };
                conns[slot] = Some(conn);
                if poller.register(fd, slot as u64, Interest::Read).is_err() {
                    conns[slot] = None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Closes the connection, or makes sure the poller watches the direction
/// it is waiting on (and not at all while it is parked).
fn settle(poller: &mut Poller, conns: &mut [Option<Conn>], slot: usize, next: Next) {
    let Some(conn) = conns[slot].as_ref() else {
        return;
    };
    let fd = conn.stream.as_raw_fd();
    let _ = match conn.phase {
        _ if next == Next::Close => poller.deregister(fd),
        Phase::Parked { .. } => poller.deregister(fd),
        Phase::Writing => poller.modify(fd, slot as u64, Interest::Write),
        _ => poller.modify(fd, slot as u64, Interest::Read),
    };
    if next == Next::Close {
        conns[slot] = None;
    }
}

/// Serves `plane` on `listener` until [`Plane::stop`] (or a listener
/// failure) ends accepting and every open connection, parked ones
/// included, has settled; whoever may change [`Plane::stop`] must
/// [`Wake::send`] on `wake`. Returns at once when the poller cannot be
/// set up.
pub(crate) fn event_loop(
    listener: &TcpListener,
    limits: &ReadLimits,
    read_timeout: Duration,
    wake: &Wake,
    plane: &dyn Plane,
) {
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    if poller
        .register(listener.as_raw_fd(), LISTENER_KEY, Interest::Read)
        .is_err()
        || poller
            .register(wake.rx.as_raw_fd(), WAKE_KEY, Interest::Read)
            .is_err()
    {
        return;
    }
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut accepting = true;
    loop {
        if accepting && plane.stop() {
            let _ = poller.deregister(listener.as_raw_fd());
            accepting = false;
        }
        if !accepting && conns.iter().all(|c| c.is_none()) {
            break;
        }
        // Sleep until I/O, a wake, or the soonest read deadline.
        let now = Instant::now();
        let timeout = conns
            .iter()
            .flatten()
            .filter(|conn| conn.reads())
            .map(|conn| conn.deadline.saturating_duration_since(now))
            .min();
        if poller.wait(&mut events, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        for &ev in &events {
            if ev.key == LISTENER_KEY {
                if accepting && !accept_all(listener, read_timeout, &mut poller, &mut conns) {
                    // Listener died: settle what was accepted and return.
                    let _ = poller.deregister(listener.as_raw_fd());
                    accepting = false;
                }
                continue;
            }
            if ev.key == WAKE_KEY {
                for (Reply(slot), outcome) in wake.take() {
                    let Some(conn) = conns[slot].as_mut() else {
                        continue;
                    };
                    // Back in the poller, which `settle` then adjusts.
                    let _ = poller.register(conn.stream.as_raw_fd(), slot as u64, Interest::Write);
                    let next = conn.on_answer(plane, outcome);
                    settle(&mut poller, &mut conns, slot, next);
                }
                continue;
            }
            let slot = ev.key as usize;
            let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            let next = match conn.phase {
                Phase::Writing => {
                    if ev.writable || ev.hangup {
                        conn.flush()
                    } else {
                        Next::Keep
                    }
                }
                Phase::Reading => conn.on_reading(plane, limits, read_timeout, slot),
                Phase::DrainingBody { .. } => conn.on_draining(plane, read_timeout),
                Phase::Parked { .. } => Next::Keep,
            };
            settle(&mut poller, &mut conns, slot, next);
        }
        // Deadline sweep: time out requests that stopped making progress.
        let now = Instant::now();
        for slot in 0..conns.len() {
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            if !conn.reads() || now < conn.deadline {
                continue;
            }
            let next = conn.on_deadline(plane);
            settle(&mut poller, &mut conns, slot, next);
        }
    }
}
