//! Connection churn leaves nothing behind.
//!
//! Every connection the daemon or the router accepts gets its own
//! handler thread. A handler thread that ends but is never joined keeps
//! its stack mapped until the process exits, so a long-running front
//! door that only joined at drain would grow by two mappings (the stack
//! and its guard page) for every connection it ever served, until the
//! kernel's map count refused a new thread. This test serves hundreds of
//! short connections through a `Server` and then a 2-shard `Router`, and
//! requires the process's memory map to stay flat across them.
//!
//! It is the file's only test, so nothing else maps or unmaps memory in
//! this process while it counts.

use mdf_router::{InProcessBackend, Router, RouterConfig};
use mdf_service::transport::Endpoint;
use mdf_service::{Client, Server, ServiceConfig};

const WARM_UP: usize = 16;
const ROUND_TRIPS: usize = 300;
/// Slack for allocator arenas and the handlers of the last few
/// connections, which the door joins at its next accept.
const MAX_GROWTH: usize = 32;

fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps is readable")
        .lines()
        .count()
}

fn ping_once(endpoint: &Endpoint) {
    let mut client = Client::connect_endpoint(endpoint).expect("front door accepts");
    client.ping().expect("front door answers a ping");
}

/// The mappings `ROUND_TRIPS` connect–ping–close round trips add, after
/// `WARM_UP` round trips have settled the allocator.
fn churn_growth(endpoint: &Endpoint) -> usize {
    for _ in 0..WARM_UP {
        ping_once(endpoint);
    }
    let before = mapping_count();
    for _ in 0..ROUND_TRIPS {
        ping_once(endpoint);
    }
    mapping_count().saturating_sub(before)
}

#[test]
fn short_lived_connections_leave_no_mappings_behind() {
    let server =
        Server::start(ServiceConfig::at(Endpoint::tcp("127.0.0.1:0"))).expect("daemon boots");
    let daemon_growth = churn_growth(server.endpoint());
    server.drain();

    let backend = InProcessBackend::new(2, ServiceConfig::at(Endpoint::tcp("127.0.0.1:0")));
    let router = Router::start(
        RouterConfig::new(Endpoint::tcp("127.0.0.1:0"), 2),
        Box::new(backend),
    )
    .expect("router boots");
    let router_growth = churn_growth(router.endpoint());
    router.drain();

    assert!(
        daemon_growth <= MAX_GROWTH,
        "{ROUND_TRIPS} connections to the daemon added {daemon_growth} mappings"
    );
    assert!(
        router_growth <= MAX_GROWTH,
        "{ROUND_TRIPS} connections to the router added {router_growth} mappings"
    );
}
