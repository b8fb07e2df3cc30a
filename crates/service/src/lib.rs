#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-service` — `mdfused`, fusion as a service
//!
//! A fault-tolerant daemon that plans, certifies, and executes loop
//! fusion for many concurrent clients over a unix socket or TCP:
//!
//! * [`proto`] — the hand-rolled length-prefixed frame protocol, total
//!   decoders, and typed [`proto::ServiceError`] taxonomy;
//! * [`transport`] — the [`transport::Endpoint`]/[`transport::Stream`]
//!   abstraction over unix and TCP byte streams, plus the polled
//!   stall-bounded frame reader;
//! * [`door`] — the front door the daemon and `mdf-router` both serve
//!   through: the acceptor, one handler thread per connection (finished
//!   ones joined as new ones arrive, every one at drain), typed protocol
//!   errors, panic isolation and the drain-close rule. Each process
//!   supplies a [`door::Service`]: its answers and what it counts;
//! * [`cache`] — the LRU plan cache keyed by
//!   [`mdf_graph::canonical_fingerprint`], with mandatory revalidation
//!   on every hit (collisions and poisoned entries cost a replan, never
//!   a wrong answer);
//! * [`server`] — the daemon behind the door: admission control with a
//!   bounded queue and typed overload rejection, per-request deadlines
//!   on the shared [`mdf_graph::Budget`] meter, one supervised execution
//!   per request (the supervisor retries a faulted barrier from its
//!   checkpoint), and graceful drain;
//! * [`client`] — a blocking client with timeouts on its side of the
//!   contract too.
//!
//! Everything is plain `std`: threads, unix sockets, mutexes and
//! condvars. The chaos sites `service.accept`, `service.read`,
//! `service.write`, `service.cache`, and the persistence sites
//! `persist.append`, `persist.compact`, `persist.load` (see
//! `mdf-chaos`) inject faults at each service layer; `mdfuse chaos`
//! sweeps them and requires every one to land as *Recovered* or
//! *Detected* — never a wrong answer or an unhandled panic.
//!
//! [`store`] adds crash-safe persistence for the plan cache: an
//! append-only checksummed log with atomic compacted snapshots, loaded
//! on boot (`mdfused --cache-dir`) so restarts and shard respawns
//! warm-start instead of replanning.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod door;
pub mod proto;
pub mod server;
pub mod store;
pub mod transport;

pub use cache::{CacheLookup, PlanCache};
pub use client::Client;
pub use proto::{
    Engine, ErrCode, FleetStats, Outcome, ProtoError, Request, Response, ServiceError,
    ServiceStats, ShardRow, Submit, MAX_FRAME,
};
pub use server::{submit_fingerprint, Server, ServiceConfig, DEFAULT_DEADLINE_MS};
pub use store::CacheSync;
pub use transport::{Endpoint, Listener, Stream};
