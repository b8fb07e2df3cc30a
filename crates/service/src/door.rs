//! The front door: one connection lifecycle for every process that serves
//! the frame protocol, the `mdfused` daemon and the `mdf-router` fleet
//! router alike.
//!
//! A process implements [`Service`]: its answer to each [`Request`], its
//! drain flag, and what it counts. [`Door::open`] then owns the rest:
//!
//! * **Acceptor** — one thread polls the listener and hands each
//!   connection to its own handler thread. Before it registers a new
//!   handler it joins every handler whose connection has closed, so the
//!   registry holds at most the connections open at once plus those that
//!   closed since the last accept. A handler left unjoined keeps its
//!   stack mapped until process exit.
//! * **Handler** — reads frames with the polled, stall-bounded
//!   [`read_frame_polled`]. A frame that fails to read or decode gets a
//!   typed `Proto` error and the connection closes; every decoded request
//!   gets [`Service::answer`]'s response.
//! * **Panic isolation** — each answer and each response write runs under
//!   `catch_unwind`: a panic costs one typed `Internal` error, and a panic
//!   outside both (the `service.accept` chaos site, which fires before any
//!   framing) costs the connection, never the process.
//! * **Drain** — once [`Service::draining`] is set the acceptor stops, a
//!   handler idle between frames closes on its next `READ_TICK`, and a
//!   connection is closed after any answer written while draining: the
//!   read loop notices a drain only on an idle tick, so a client sending
//!   faster than that would otherwise hold the drain open forever.
//!   [`Door::join`] then joins the acceptor and every handler.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{ErrCode, Request, Response, ServiceError};
use crate::transport::{read_frame_polled, Listener, Stream, READ_TICK};

/// What the door counts on a [`Service`]'s behalf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoorEvent {
    /// A connection was accepted.
    Connection,
    /// A request frame was read and decoded (counted before its answer).
    Request,
    /// A frame failed to read or decode; the connection closes.
    ProtoError,
    /// A panic was caught: in an answer, in a response write, or anywhere
    /// else on the connection.
    PanicIsolated,
}

/// A process behind the [`Door`].
pub trait Service: Send + Sync + 'static {
    /// The drain flag: once set, the acceptor stops and every connection
    /// closes, idle ones on their next read tick and busy ones after the
    /// answer they are being given. A `Shutdown` answer sets it.
    fn draining(&self) -> &AtomicBool;

    /// The response to one decoded request. Runs under `catch_unwind`: a
    /// panic here is answered with a typed `Internal` error.
    fn answer(&self, req: Request) -> Response;

    /// Counts one event on the door. The default counts nothing.
    fn count(&self, _event: DoorEvent) {}

    /// Whether the door consults the `service.accept` and `service.write`
    /// chaos sites. The default is no.
    fn chaos(&self) -> bool {
        false
    }
}

/// A panic while holding a mutex poisons it; the data every lock site in
/// the daemon and the router guards (counters, cache entries, shard
/// state) stays structurally valid, so they recover the guard instead of
/// cascading the panic.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fires a `WorkerPanic` chaos fault at `site`, if one is armed. Called
/// only inside `catch_unwind` scopes and never while holding a lock.
pub(crate) fn chaos_panic(enabled: bool, site: &'static str) {
    if enabled && mdf_chaos::hit(site) == Some(mdf_chaos::FaultKind::WorkerPanic) {
        panic!("chaos: injected worker panic at {site}");
    }
}

/// A listener's acceptor thread. It returns its registry of handlers not
/// yet joined when the service drains.
pub struct Door {
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Door {
    /// Starts accepting on `listener`, one handler thread per connection,
    /// each answering through `service`.
    pub fn open<S: Service>(listener: Listener, service: Arc<S>) -> Door {
        Door {
            acceptor: std::thread::spawn(move || accept_loop(&service, &listener)),
        }
    }

    /// Joins the acceptor, then every handler it has not joined yet. Call
    /// it once the service's drain flag is set: the acceptor runs until
    /// then.
    pub fn join(self) {
        for handler in self.acceptor.join().unwrap_or_default() {
            let _ = handler.join();
        }
    }
}

fn accept_loop<S: Service>(service: &Arc<S>, listener: &Listener) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !service.draining().load(Ordering::SeqCst) {
        let Ok(stream) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                let _ = handlers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        service.count(DoorEvent::Connection);
        let service = Arc::clone(service);
        let spawned = std::thread::Builder::new().spawn(move || {
            if catch_unwind(AssertUnwindSafe(|| serve(&*service, stream))).is_err() {
                service.count(DoorEvent::PanicIsolated);
            }
        });
        // A thread the system refuses costs this connection (it drops,
        // unanswered), never the acceptor.
        if let Ok(handler) = spawned {
            handlers.push(handler);
        }
    }
    handlers
}

fn internal(message: &str) -> Response {
    Response::Err(ServiceError {
        code: ErrCode::Internal,
        retry_after_ms: 25,
        message: message.into(),
    })
}

fn serve<S: Service>(service: &S, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    // The service.accept site models a fault in connection setup: the
    // panic unwinds to the handler's catch, the client sees EOF, and a
    // reconnect succeeds (faults are one-shot).
    chaos_panic(service.chaos(), "service.accept");
    loop {
        let read = read_frame_polled(&mut stream, service.draining())
            .and_then(|frame| frame.map(|payload| Request::decode(&payload)).transpose());
        let req = match read {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(err) => {
                service.count(DoorEvent::ProtoError);
                let refusal = Response::Err(ServiceError {
                    code: ErrCode::Proto,
                    retry_after_ms: 0,
                    message: err.to_string(),
                });
                let _ = stream.write_all(&refusal.encode());
                return; // protocol errors close the connection
            }
        };
        service.count(DoorEvent::Request);
        let resp = catch_unwind(AssertUnwindSafe(|| service.answer(req))).unwrap_or_else(|_| {
            service.count(DoorEvent::PanicIsolated);
            internal("worker panicked; the fault was isolated")
        });
        // A fault in the write (service.write) downgrades to a best-effort
        // Internal error: the chaos fault is spent, so the fallback write
        // cannot re-fire.
        let wrote = catch_unwind(AssertUnwindSafe(|| {
            chaos_panic(service.chaos(), "service.write");
            stream.write_all(&resp.encode())
        }));
        match wrote {
            Ok(Ok(())) => {}
            Ok(Err(_)) => return, // client went away
            Err(_) => {
                service.count(DoorEvent::PanicIsolated);
                let fallback = internal("response writer panicked; the fault was isolated");
                let _ = stream.write_all(&fallback.encode());
            }
        }
        if service.draining().load(Ordering::SeqCst) {
            return;
        }
    }
}
