//! # mdf-router — fingerprint-sharded fleet front door for `mdfused`
//!
//! One `mdfused` daemon pins one process; this crate turns N of them
//! into a fleet behind a single endpoint. The pieces:
//!
//! - [`ring`] — consistent-hash ring over canonical MLDG fingerprints:
//!   identical graphs land on the shard whose plan cache is warm, and a
//!   shard death remaps only that shard's keys.
//! - [`backend`] — how shards start/stop: in-process [`Server`]s for
//!   tests and `loadgen --shards`, child processes in the CLI.
//! - [`batch`] — same-fingerprint submissions inside a bounded window
//!   coalesce into one shard execution (`batched = k` in every member's
//!   outcome).
//! - [`fair`] — identity-aware fair-share admission in front of the
//!   per-shard `Budget` meters: a hot client past its entitlement gets a
//!   typed `Overloaded`, not the whole fleet.
//! - [`router`] — the process itself: clients served through
//!   `mdf-service`'s front door (unix or TCP; the daemon's own connection
//!   lifecycle), per-request routing with typed reroute on shard death,
//!   and a health loop that detects deaths and respawns with
//!   deterministic backoff.
//!
//! [`Server`]: mdf_service::Server

pub mod backend;
pub mod batch;
pub mod fair;
pub mod ring;
pub mod router;

pub use backend::{Backend, InProcessBackend};
pub use batch::{BatchKey, Batcher, LeaderGuard, Role};
pub use fair::{FairPermit, FairShare};
pub use ring::{Ring, DEFAULT_VNODES};
pub use router::{Router, RouterConfig};
