//! Stream transports for the frame protocol: unix sockets and TCP.
//!
//! The frame codec in [`crate::proto`] is transport-agnostic — it only
//! needs a byte stream. This module provides the two concrete streams the
//! fleet uses and the polled, stall-bounded frame reader of the front
//! door ([`crate::door`]):
//!
//! * [`Endpoint`] — where a daemon listens or a client connects: a unix
//!   socket path (single-host, default) or a TCP address (`tcp:HOST:PORT`,
//!   the fleet/router transport);
//! * [`Listener`] / [`Stream`] — thin enums over the std unix and TCP
//!   types, so the daemon and the router are generic over both without a
//!   trait object per connection;
//! * [`read_frame_polled`] — the incremental reader behind the door:
//!   idle between frames is unbounded (sessions stay open) unless the
//!   owner is draining, but a *partial* frame that stops making progress
//!   for longer than the stall grace is a typed [`ProtoError::Stalled`].
//!   Split reads, partial reads, and mid-frame disconnects all land on
//!   the same typed errors as the blocking [`crate::proto::read_frame`].

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::proto::{check_frame_len, ProtoError};

/// How long a connection may stall *mid-frame* before the read is
/// abandoned as [`ProtoError::Stalled`]. Idle time between frames is
/// unbounded (clients may hold a session open).
pub const STALL_GRACE: Duration = Duration::from_millis(2_000);

/// Stream read timeout: the poll tick at which server loops notice drain.
pub const READ_TICK: Duration = Duration::from_millis(50);

/// A place a daemon listens (or a client connects): unix socket or TCP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket path (removed by the owning server on drain).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7070`. Port `0` binds an ephemeral
    /// port; the listener reports the resolved address back.
    Tcp(String),
}

impl Endpoint {
    /// A unix-socket endpoint.
    pub fn unix(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint::Tcp(addr.into())
    }

    /// Parses a CLI address: `tcp:HOST:PORT` is TCP, anything else is a
    /// unix socket path.
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("tcp:") {
            Some(addr) => Endpoint::Tcp(addr.to_string()),
            None => Endpoint::Unix(PathBuf::from(s)),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A bound, non-blocking listener on either transport.
pub enum Listener {
    /// Unix-domain listener.
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `endpoint` non-blocking. Returns the listener plus the
    /// *actual* endpoint — for TCP port `0` that is the resolved
    /// ephemeral port; for unix it echoes the path. A socket file left
    /// by a SIGKILLed daemon is detected (bind fails, a probe connect is
    /// refused) and unlinked before one retry — but a *live* daemon's
    /// socket (the probe connects) is never stolen: the original
    /// `AddrInUse` propagates.
    pub fn bind(endpoint: &Endpoint) -> std::io::Result<(Listener, Endpoint)> {
        match endpoint {
            Endpoint::Unix(path) => {
                let l = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        match UnixStream::connect(path) {
                            Err(probe) if probe.kind() == std::io::ErrorKind::ConnectionRefused => {
                                // Nobody is accepting: an ungraceful kill
                                // left the file behind. Reclaim the path.
                                std::fs::remove_file(path)?;
                                UnixListener::bind(path)?
                            }
                            // Connected (a daemon is alive there) or an
                            // ambiguous probe failure: do not unlink.
                            _ => return Err(e),
                        }
                    }
                    Err(e) => return Err(e),
                };
                l.set_nonblocking(true)?;
                Ok((Listener::Unix(l), endpoint.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let actual = l.local_addr()?;
                Ok((Listener::Tcp(l), Endpoint::Tcp(actual.to_string())))
            }
        }
    }

    /// Accepts one connection (non-blocking; `WouldBlock` when idle).
    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Small request/response frames: never batch them behind
                // Nagle's algorithm.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// One connected byte stream on either transport.
pub enum Stream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `endpoint` (blocking).
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Stream> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }

    /// Connects with a bound on how long the attempt may take. Unix
    /// connects are local and effectively instant, so only TCP consults
    /// the timeout (first resolved address).
    pub fn connect_timeout(endpoint: &Endpoint, timeout: Duration) -> std::io::Result<Stream> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => {
                let resolved = addr.as_str().to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("address {addr:?} resolved to nothing"),
                    )
                })?;
                let s = TcpStream::connect_timeout(&resolved, timeout)?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }

    /// Sets the read timeout (both transports support it natively).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Reads one frame with a polled, stall-bounded loop: the front door's
/// reader, for the daemon and the router alike. The stream must carry a
/// read timeout of [`READ_TICK`] so the loop notices `draining`
/// promptly. `Ok(None)` means the connection should close quietly:
/// client EOF at a frame boundary, or drain while idle between frames.
pub fn read_frame_polled(
    stream: &mut Stream,
    draining: &AtomicBool,
) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut prefix = [0u8; 4];
    let mut have = 0usize;
    let mut stall_start: Option<Instant> = None;
    // Phase 1: the length prefix. Idle (have == 0) is unbounded unless
    // draining; a partial prefix is subject to the stall grace.
    loop {
        match stream.read(&mut prefix[have..]) {
            Ok(0) => {
                if have == 0 {
                    return Ok(None);
                }
                return Err(ProtoError::Truncated {
                    expected: 4 - have,
                    got: 0,
                });
            }
            Ok(n) => {
                have += n;
                stall_start = None;
                if have == 4 {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if have == 0 {
                    if draining.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                    continue;
                }
                let s = *stall_start.get_or_insert_with(Instant::now);
                if s.elapsed() > STALL_GRACE {
                    return Err(ProtoError::Stalled {
                        grace_ms: STALL_GRACE.as_millis() as u64,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(prefix);
    check_frame_len(len)?;
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    let mut stall_start: Option<Instant> = None;
    while filled < payload.len() {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    expected: payload.len() - filled,
                    got: filled,
                })
            }
            Ok(n) => {
                filled += n;
                stall_start = None;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let s = *stall_start.get_or_insert_with(Instant::now);
                if s.elapsed() > STALL_GRACE {
                    return Err(ProtoError::Stalled {
                        grace_ms: STALL_GRACE.as_millis() as u64,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_discriminates_tcp_from_paths() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070"),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse("/tmp/mdfused.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/mdfused.sock"))
        );
        assert_eq!(Endpoint::parse("tcp:host:0").to_string(), "tcp:host:0");
    }

    #[test]
    fn stale_unix_socket_is_reclaimed_but_a_live_one_is_not() {
        let path = std::env::temp_dir().join(format!("mdf-stale-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let endpoint = Endpoint::unix(&path);

        // Simulate an ungraceful kill: bind, then drop the listener
        // without removing the file (SIGKILL never runs drain).
        let (listener, _) = Listener::bind(&endpoint).unwrap();
        drop(listener);
        assert!(path.exists(), "the stale socket file must survive");

        // Rebinding detects the dead socket (connect refused) and
        // reclaims the path.
        let (live, _) = Listener::bind(&endpoint).unwrap();

        // But a *live* listener's socket is never stolen: the second
        // bind fails and the first keeps accepting.
        let err = match Listener::bind(&endpoint) {
            Ok(_) => panic!("live socket must not be reclaimed"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
        let _client = Stream::connect(&endpoint).unwrap();
        drop(live);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tcp_bind_resolves_ephemeral_ports() {
        let (listener, actual) = Listener::bind(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let Endpoint::Tcp(addr) = &actual else {
            panic!("expected a TCP endpoint, got {actual:?}");
        };
        assert!(!addr.ends_with(":0"), "port must be resolved: {addr}");
        // And the resolved endpoint is connectable.
        let _client = Stream::connect(&actual).unwrap();
        let _accepted = {
            // Non-blocking accept: poll briefly.
            let mut accepted = None;
            for _ in 0..100 {
                match listener.accept() {
                    Ok(s) => {
                        accepted = Some(s);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
            accepted.expect("accept should land within the poll window")
        };
    }
}
