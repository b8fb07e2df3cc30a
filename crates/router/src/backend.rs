//! How the router starts and stops its worker shards.
//!
//! The router supervises N `mdfused` shards but does not care how they
//! run: [`Backend`] abstracts over in-process servers (tests, chaos
//! sweeps, `loadgen --shards`) and real child processes (`mdfuse route`,
//! implemented in the CLI where `current_exe` is available).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mdf_service::transport::Endpoint;
use mdf_service::{Server, ServiceConfig};

/// Starts and stops shard daemons on behalf of the router.
pub trait Backend: Send + Sync + 'static {
    /// Starts (or restarts) shard `shard` as generation `generation` and
    /// returns the endpoint it serves on. Must not return until the
    /// shard is accepting connections.
    fn start(&self, shard: u32, generation: u64) -> std::io::Result<Endpoint>;

    /// Stops shard `shard`, releasing its resources. Used on drain and
    /// by the `router.shard` chaos fault (shard kill).
    fn stop(&self, shard: u32);
}

/// Shards as in-process [`Server`]s on temp unix sockets. This is the
/// fleet the tests, the chaos sweep, and `loadgen --shards` use: one
/// process, N daemons, real sockets between them.
pub struct InProcessBackend {
    template: ServiceConfig,
    servers: Mutex<Vec<Option<Server>>>,
    /// Distinguishes this backend's sockets from those of every other
    /// backend in the process, so concurrent fleets never share a path.
    nonce: u64,
}

impl InProcessBackend {
    /// A backend whose shards clone `template` (endpoint overridden per
    /// shard/generation).
    pub fn new(shards: u32, template: ServiceConfig) -> InProcessBackend {
        static NEXT_NONCE: AtomicU64 = AtomicU64::new(0);
        InProcessBackend {
            template,
            servers: Mutex::new((0..shards).map(|_| None).collect()),
            nonce: NEXT_NONCE.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl Backend for InProcessBackend {
    fn start(&self, shard: u32, generation: u64) -> std::io::Result<Endpoint> {
        let path = std::env::temp_dir().join(format!(
            "mdfused-shard-{}-{}-{shard}-g{generation}.sock",
            std::process::id(),
            self.nonce
        ));
        let mut config = self.template.clone();
        config.endpoint = Endpoint::Unix(path);
        // Per-shard-*slot* cache dir (generation-independent): a
        // respawned generation reopens its predecessor's store and
        // warm-starts instead of replanning the shard's key range.
        if let Some(root) = &self.template.cache_dir {
            config.cache_dir = Some(root.join(format!("shard-{shard}")));
        }
        let server = Server::start(config)?;
        let endpoint = server.endpoint().clone();
        let mut servers = self.servers.lock().unwrap_or_else(|e| e.into_inner());
        let slot = servers
            .get_mut(shard as usize)
            .ok_or_else(|| std::io::Error::other(format!("no such shard {shard}")))?;
        // A lingering previous generation is drained before the new one
        // takes the slot.
        if let Some(old) = slot.replace(server) {
            drop(servers); // drain joins threads; don't hold the lock
            let _ = old.drain();
        }
        Ok(endpoint)
    }

    fn stop(&self, shard: u32) {
        let server = {
            let mut servers = self.servers.lock().unwrap_or_else(|e| e.into_inner());
            servers.get_mut(shard as usize).and_then(Option::take)
        };
        if let Some(s) = server {
            let _ = s.drain();
        }
    }
}
