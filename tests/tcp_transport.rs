//! Transport robustness over a real TCP stream, at both front doors.
//!
//! The frame codec is already fuzzed in isolation (`mdfuse fuzz`'s
//! protocol oracle); this suite drives the same mutation corpus through
//! an actual TCP connection against a live daemon and a live 2-shard
//! router, where the failure modes the codec cannot see live: split
//! writes, partial frames that pause mid-prefix, mid-frame disconnects,
//! and hostile length claims arriving from a real socket. The contract
//! for every case, at each endpoint:
//!
//! * a well-formed frame gets its answer, no matter how the bytes were
//!   chopped up in transit;
//! * a hostile frame gets a typed error response or a clean close —
//!   never a hang (a read timeout fails the test);
//! * the endpoint survives: after every case a fresh client must connect
//!   and ping successfully.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mdf_router::{InProcessBackend, Router, RouterConfig};
use mdf_service::proto::read_frame;
use mdf_service::transport::Endpoint;
use mdf_service::{Client, Engine, Request, Response, Server, ServiceConfig, Submit};

/// How the case's bytes are put on the wire.
enum Wire {
    /// One `write_all`, then read the response.
    Whole,
    /// One byte per write with a short pause between bytes.
    ByteAtATime,
    /// Split at `at`, pause `ms`, then send the rest and read.
    Pause { at: usize, ms: u64 },
    /// Write the first `at` bytes, then drop the connection unread.
    Disconnect { at: usize },
}

/// What the client must observe.
enum Expect {
    /// A Pong frame.
    Pong,
    /// A Done frame (any fingerprint; correctness is checked elsewhere).
    Done,
    /// A typed error frame or a clean close; never a timeout.
    ErrorOrClose,
    /// Nothing to read (the case disconnected mid-frame).
    Nothing,
}

struct Case {
    name: &'static str,
    bytes: fn() -> Vec<u8>,
    wire: Wire,
    expect: Expect,
}

fn ping_frame() -> Vec<u8> {
    Request::Ping.encode()
}

fn submit_frame() -> Vec<u8> {
    let path = format!("{}/examples/dsl/figure2.mdf", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).expect("figure2.mdf exists");
    Request::Submit(Submit {
        engine: Engine::Kernel,
        n: 8,
        m: 8,
        deadline_ms: 30_000,
        client: String::new(),
        source,
    })
    .encode()
}

/// A ping frame claiming a payload far past `MAX_FRAME`.
fn oversize_claim() -> Vec<u8> {
    let mut bytes = ping_frame();
    bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes
}

/// A frame whose length is fine but whose tag is not a request.
fn unknown_tag() -> Vec<u8> {
    vec![1, 0, 0, 0, 0xEE]
}

/// A zero-length frame: nothing to decode a tag from.
fn empty_frame() -> Vec<u8> {
    vec![0, 0, 0, 0]
}

/// A valid ping with garbage bytes trailing past the framed length.
fn ping_with_trailing_garbage() -> Vec<u8> {
    let mut bytes = ping_frame();
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
    bytes
}

/// A submit frame with one payload byte corrupted.
fn bit_flipped_submit() -> Vec<u8> {
    let mut bytes = submit_frame();
    // Flip inside the payload (past the prefix and the tag), where the
    // corruption must surface as a decode error, not a framing error.
    let i = 5 + (bytes.len() - 5) / 2;
    bytes[i] ^= 0x40;
    bytes
}

const CASES: &[Case] = &[
    Case {
        name: "ping-whole",
        bytes: ping_frame,
        wire: Wire::Whole,
        expect: Expect::Pong,
    },
    Case {
        name: "ping-split-byte-at-a-time",
        bytes: ping_frame,
        wire: Wire::ByteAtATime,
        expect: Expect::Pong,
    },
    Case {
        name: "submit-split-mid-prefix",
        bytes: submit_frame,
        wire: Wire::Pause { at: 2, ms: 120 },
        expect: Expect::Done,
    },
    Case {
        name: "submit-partial-then-complete",
        bytes: submit_frame,
        wire: Wire::Pause { at: 40, ms: 250 },
        expect: Expect::Done,
    },
    Case {
        name: "disconnect-mid-prefix",
        bytes: submit_frame,
        wire: Wire::Disconnect { at: 2 },
        expect: Expect::Nothing,
    },
    Case {
        name: "disconnect-mid-frame",
        bytes: submit_frame,
        wire: Wire::Disconnect { at: 40 },
        expect: Expect::Nothing,
    },
    Case {
        name: "oversize-length-claim",
        bytes: oversize_claim,
        wire: Wire::Whole,
        expect: Expect::ErrorOrClose,
    },
    Case {
        name: "unknown-tag",
        bytes: unknown_tag,
        wire: Wire::Whole,
        expect: Expect::ErrorOrClose,
    },
    Case {
        name: "empty-frame",
        bytes: empty_frame,
        wire: Wire::Whole,
        expect: Expect::ErrorOrClose,
    },
    Case {
        name: "trailing-garbage-after-ping",
        bytes: ping_with_trailing_garbage,
        wire: Wire::Whole,
        expect: Expect::Pong,
    },
    Case {
        name: "bit-flipped-submit-payload",
        bytes: bit_flipped_submit,
        wire: Wire::Whole,
        expect: Expect::ErrorOrClose,
    },
];

/// Runs `cases` against a TCP daemon, then against a 2-shard router's
/// TCP endpoint, draining each afterwards.
fn at_each_front_door(mut cases: impl FnMut(&str, &Endpoint)) {
    let mut config = ServiceConfig::at(Endpoint::parse("tcp:127.0.0.1:0"));
    config.workers = 2;
    let server = Server::start(config.clone()).expect("tcp daemon boots");
    cases("daemon", server.endpoint());
    server.drain();

    let router = Router::start(
        RouterConfig::new(Endpoint::parse("tcp:127.0.0.1:0"), 2),
        Box::new(InProcessBackend::new(2, config)),
    )
    .expect("tcp router boots");
    cases("router", router.endpoint());
    router.drain();
}

fn raw_connect(endpoint: &Endpoint) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("test endpoint must resolve to TCP, got {endpoint}");
    };
    let stream = TcpStream::connect(addr.as_str()).expect("raw connect");
    // Well past the door's 2 s mid-frame stall grace: a case that trips
    // this timeout means the endpoint hung, which is the bug.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

fn alive(endpoint: &Endpoint) -> bool {
    Client::connect_endpoint(endpoint).is_ok_and(|mut c| c.ping().is_ok())
}

/// Reads one response frame; `None` on a clean close.
fn read_response(stream: &mut TcpStream) -> Option<Response> {
    match read_frame(stream) {
        Ok(Some(payload)) => {
            Some(Response::decode(&payload).expect("endpoint sent an undecodable frame"))
        }
        Ok(None) => None,
        // A reset after we sent garbage is a close, not a hang. A read
        // timeout (TimedOut on some platforms, WouldBlock/EAGAIN on
        // Linux) means the endpoint hung, which is the bug this suite
        // exists to catch.
        Err(e) => {
            let msg = format!("{e}");
            let timed_out = [
                "TimedOut",
                "timed out",
                "temporarily unavailable",
                "WouldBlock",
            ]
            .iter()
            .any(|p| msg.contains(p));
            assert!(
                !timed_out,
                "read timed out: the endpoint hung instead of answering or closing: {msg}"
            );
            None
        }
    }
}

#[test]
fn hostile_and_fragmented_frames_over_tcp() {
    at_each_front_door(|front, endpoint| {
        for case in CASES {
            run_case(front, endpoint, case);
        }
    });
}

fn run_case(front: &str, endpoint: &Endpoint, case: &Case) {
    let bytes = (case.bytes)();
    let response = match case.wire {
        Wire::Whole => {
            let mut s = raw_connect(endpoint);
            s.write_all(&bytes).unwrap();
            read_response(&mut s)
        }
        Wire::ByteAtATime => {
            let mut s = raw_connect(endpoint);
            for b in &bytes {
                s.write_all(std::slice::from_ref(b)).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            read_response(&mut s)
        }
        Wire::Pause { at, ms } => {
            let mut s = raw_connect(endpoint);
            let at = at.min(bytes.len());
            s.write_all(&bytes[..at]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(ms));
            s.write_all(&bytes[at..]).unwrap();
            read_response(&mut s)
        }
        Wire::Disconnect { at } => {
            let mut s = raw_connect(endpoint);
            let at = at.min(bytes.len());
            s.write_all(&bytes[..at]).unwrap();
            drop(s);
            None
        }
    };
    let name = case.name;
    match case.expect {
        Expect::Pong => {
            assert!(
                matches!(response, Some(Response::Pong)),
                "{front} {name}: expected Pong, got {response:?}"
            );
        }
        Expect::Done => {
            assert!(
                matches!(response, Some(Response::Done(_))),
                "{front} {name}: expected Done, got {response:?}"
            );
        }
        Expect::ErrorOrClose => {
            assert!(
                matches!(response, None | Some(Response::Err(_))),
                "{front} {name}: expected a typed error or a close, got {response:?}"
            );
        }
        Expect::Nothing => {}
    }
    assert!(
        alive(endpoint),
        "{front} {name}: the endpoint stopped answering after this case"
    );
}

/// splitmix64, the workspace-standard seed chain.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `mdfuse fuzz` mutation corpus — bit flips, truncations, hostile
/// length claims, appended garbage, payload noise — each written whole
/// over a fresh TCP connection. Every mutation must end in a typed
/// error, a clean close, or (when the mutation left the frame valid) a
/// real answer; the daemon must survive all of them.
#[test]
fn seeded_mutation_corpus_over_tcp() {
    let frame = submit_frame();
    at_each_front_door(|front, endpoint| {
        let mut state = 0x7463_705f_6d75_7461; // "tcp_muta"
        for k in 0..32u64 {
            let mut bytes = frame.clone();
            match mix(&mut state) % 5 {
                0 => {
                    let i = (mix(&mut state) as usize) % bytes.len();
                    bytes[i] ^= 1 << (mix(&mut state) % 8);
                }
                1 => {
                    let cut = (mix(&mut state) as usize) % bytes.len();
                    bytes.truncate(cut);
                }
                2 => {
                    let claim = (mix(&mut state) as u32).to_le_bytes();
                    bytes[..4].copy_from_slice(&claim);
                }
                3 => {
                    let extra = (mix(&mut state) % 16) as usize + 1;
                    for _ in 0..extra {
                        bytes.push(mix(&mut state) as u8);
                    }
                }
                _ => {
                    if bytes.len() > 5 {
                        let start = 4 + (mix(&mut state) as usize) % (bytes.len() - 4);
                        for b in bytes.iter_mut().skip(start) {
                            *b = mix(&mut state) as u8;
                        }
                    }
                }
            }
            let mut s = raw_connect(endpoint);
            s.write_all(&bytes).unwrap();
            // Truncations leave a partial frame on an open connection;
            // the door's stall grace closes it. Closing our half right
            // away keeps the case bounded without waiting out the grace.
            s.shutdown(std::net::Shutdown::Write).ok();
            let _ = read_response(&mut s);
            drop(s);
            assert!(
                alive(endpoint),
                "{front} stopped answering after mutation {k} ({} bytes: {:02x?}...)",
                bytes.len(),
                &bytes[..bytes.len().min(12)]
            );
        }
    });
}
