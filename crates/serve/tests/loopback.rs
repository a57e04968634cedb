//! Loopback integration tests: the network path may add framing, never
//! semantics.
//!
//! Pinned here:
//!
//! (a) **Differential bit-identity** — for every built-in [`Method`] and
//!     a grid of specs, the answer served over TCP equals the answer from
//!     calling the same [`ServingEngine`] in-process, before and after
//!     churn + refresh.
//! (b) **Concurrency** — query and mutate clients hammering the server
//!     from multiple threads all complete, and the post-churn state still
//!     answers bit-identically to the in-process engine.
//! (c) **Deterministic sheds** — a single saturated worker queue makes
//!     the accept thread refuse with [`Reply::Overloaded`]`(QueueFull)`;
//!     a queued connection is still served once the worker frees up. A
//!     shed is an explicit refusal — never a wrong or partial answer.
//! (d) **Malformed input** — a bad frame gets a [`Reply::Error`] and the
//!     connection is closed; an oversize length prefix never reaches the
//!     allocator, and a length prefix whose body never comes costs one
//!     read chunk.
//!     A well-formed frame the engine would panic on (`k = 0`, no
//!     candidate location) or over-allocate for (a huge `k`) costs one
//!     reply, not the worker; a huge `ws` is answered; removing the last
//!     user, inserting a document with a huge term id and inserting at a
//!     NaN coordinate are rejections, and a query at one is an error.
//! (e) **Introspection** — `stats` returns the engine's counters as JSON
//!     and `metrics` returns a Prometheus page that includes the serve
//!     counters next to the engine's own.
//! (f) **Worker arenas** — a worker keeps one query arena, and with it the
//!     candidate context's text half, across requests: Algorithm 3 and §7
//!     queries interleaved with every kind of write on one connection are
//!     answered as a fresh query on the snapshot answers them.
//! (g) **Frames behind frames** — two request frames sent in one write
//!     get both replies, in order: a frame's bytes read ahead into the
//!     worker's connection buffer are kept for the next frame.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::rng::{Rng, SeedableRng, StdRng};
use geo::Point;
use mbrstk_core::{Engine, Method, Mutation, ObjectData, QuerySpec, ServingEngine, UserData};
use serve::{encode_request, write_frame, Client, Reply, Request, ServeConfig, Server, ShedReason};
use text::{Document, TermId, WeightModel};

fn t(i: u32) -> TermId {
    TermId(i)
}

/// Small jittered-grid corpus; LM model so answers depend on corpus
/// statistics (a stale snapshot would be detectably different).
fn serving_engine(seed: u64) -> Arc<ServingEngine> {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects: Vec<ObjectData> = (0..120u32)
        .map(|i| ObjectData {
            id: i,
            point: Point::new(
                (i % 12) as f64 + rng.gen_range(0.0..0.9),
                (i / 12) as f64 + rng.gen_range(0.0..0.9),
            ),
            doc: Document::from_terms([t(i % 5), t(6)]),
        })
        .collect();
    let users: Vec<UserData> = (0..25u32)
        .map(|i| UserData {
            id: i,
            point: Point::new(
                (i % 10) as f64 + rng.gen_range(0.0..0.9),
                (i % 8) as f64 + rng.gen_range(0.0..0.9),
            ),
            doc: Document::from_terms([t(i % 5), t(6)]),
        })
        .collect();
    ServingEngine::new(
        Engine::build_with_fanout(objects, users, WeightModel::lm(), 0.5, 4).with_user_index(),
    )
}

fn specs() -> Vec<QuerySpec> {
    [1usize, 2, 3]
        .into_iter()
        .map(|k| QuerySpec {
            ox_doc: Document::from_terms([t(6)]),
            locations: vec![
                Point::new(2.1, 1.4),
                Point::new(7.8, 4.2),
                Point::new(4.4, 6.9),
            ],
            keywords: vec![t(0), t(1), t(2), t(3), t(4)],
            ws: 2,
            k,
        })
        .collect()
}

fn bind(serving: &Arc<ServingEngine>, cfg: ServeConfig) -> Server {
    Server::bind("127.0.0.1:0", Arc::clone(serving), cfg).expect("bind ephemeral")
}

/// Every method × spec answered over the wire must equal the in-process
/// answer on the same serving engine — including `brstknn` member order,
/// which is deterministic for a fixed snapshot.
#[test]
fn network_answers_are_bit_identical_to_in_process() {
    let serving = serving_engine(7);
    let server = bind(&serving, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let check_all = |client: &mut Client| {
        for method in Method::ALL {
            for spec in specs() {
                let net = client.query(method, &spec).expect("network query");
                let (local, _guard) = serving.query(&spec, method);
                assert_eq!(net, local, "method {} spec k={}", method.name(), spec.k);
            }
        }
    };

    check_all(&mut client);

    // Churn over the wire, refresh, and the identity must still hold on
    // the post-refresh snapshot.
    for i in 0..10u32 {
        let io = client
            .mutate(Mutation::InsertObject(ObjectData {
                id: 1_000 + i,
                point: Point::new(1.0 + f64::from(i) * 0.7, 2.0),
                doc: Document::from_terms([t(i % 5), t(6)]),
            }))
            .expect("network mutate");
        assert!(io.is_some(), "fresh id must apply");
    }
    assert!(client.mutate(Mutation::RemoveObject(3)).unwrap().is_some());
    assert!(
        client
            .mutate(Mutation::RemoveObject(999_999))
            .unwrap()
            .is_none(),
        "unknown id is rejected, not an error"
    );
    serving.refresh_now();
    check_all(&mut client);
}

/// One worker, one connection: JointGreedy and UserIndexGreedy queries
/// that share their text but move their locations and `k`, interleaved
/// with object and user inserts and removes. The worker's arena keeps the
/// text half between writes and must drop it at each; every answer equals
/// a fresh query on the snapshot.
#[test]
fn interleaved_methods_and_writes_share_one_worker_arena() {
    let serving = serving_engine(23);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let writes = [
        Mutation::InsertObject(ObjectData {
            id: 2_000,
            point: Point::new(3.3, 2.2),
            doc: Document::from_terms([t(1), t(6)]),
        }),
        Mutation::InsertUser(UserData {
            id: 2_000,
            point: Point::new(5.5, 4.4),
            doc: Document::from_terms([t(2), t(6)]),
        }),
        Mutation::RemoveObject(17),
        Mutation::RemoveUser(4),
    ];
    let reused = || {
        serving
            .snapshot()
            .metrics()
            .counter("engine_select_context_total{how=\"reused\"}")
            .get()
    };
    let before = reused();
    for (round, write) in writes.into_iter().enumerate() {
        for (i, mut spec) in specs().into_iter().enumerate() {
            spec.locations.rotate_left(i);
            spec.locations.truncate(3 - i);
            for method in [Method::JointGreedy, Method::UserIndexGreedy] {
                let net = client.query(method, &spec).expect("network query");
                let local = serving.snapshot().query(&spec, method);
                assert_eq!(net, local, "round {round}, {}, spec {i}", method.name());
            }
        }
        assert!(client.mutate(write).expect("network mutate").is_some());
    }
    // Per round, the first query of each method derives its half and the
    // other two keep all of it (on this data the §7 expansion order does
    // not move with the locations, so every user keeps its index).
    assert_eq!(reused() - before, 4 * 2 * 2);
}

/// Concurrent query and mutate clients: every request completes without a
/// transport error, and once the dust settles the served snapshot still
/// answers identically to the in-process engine.
#[test]
fn concurrent_clients_get_consistent_answers() {
    let serving = serving_engine(11);
    let server = bind(&serving, ServeConfig::default());
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for q in 0..3u32 {
        let serving = Arc::clone(&serving);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let spec = &specs()[(q as usize) % specs().len()];
            for _ in 0..20 {
                let net = client.query(Method::JointExact, spec).expect("query");
                // The network answer must equal *some* valid snapshot
                // answer; membership size is pinned by spec.k ≤ |flat|.
                assert!(net.brstknn.len() <= serving.snapshot().users.len());
            }
        }));
    }
    for m in 0..2u32 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for i in 0..15u32 {
                let id = 10_000 + m * 100 + i;
                client
                    .mutate(Mutation::InsertObject(ObjectData {
                        id,
                        point: Point::new(f64::from(i % 9) + 0.3, f64::from(m) + 0.6),
                        doc: Document::from_terms([t(i % 5), t(6)]),
                    }))
                    .expect("mutate")
                    .expect("fresh ids apply");
            }
        }));
    }
    for h in handles {
        h.join().expect("no client thread panicked");
    }

    serving.refresh_now();
    let mut client = Client::connect(addr).unwrap();
    for method in Method::ALL {
        for spec in specs() {
            let net = client.query(method, &spec).unwrap();
            let (local, _) = serving.query(&spec, method);
            assert_eq!(net, local, "post-churn identity for {}", method.name());
        }
    }
}

/// One worker with a depth-1 queue: a connection being served plus one
/// queued connection saturate the pool, so the next arrival is refused
/// with `Overloaded(QueueFull)` by the accept thread itself. Freeing the
/// worker then drains the queued connection — sheds refuse, they don't
/// drop queued work.
#[test]
fn saturated_worker_queue_sheds_with_queue_full() {
    let serving = serving_engine(17);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // c0: prove the single worker has picked this connection up (a
    // completed round trip), which pins the worker to it.
    let mut c0 = Client::connect(addr).unwrap();
    c0.stats_json().unwrap();
    // c1: accepted and parked in the worker's depth-1 queue.
    let mut c1 = Client::connect(addr).unwrap();
    // Give the accept thread time to deal c1 into the queue; the accept
    // loop is sequential, so once c2 is dealt below, c1 was first.
    std::thread::sleep(std::time::Duration::from_millis(50));
    // c2: every queue full — must be refused explicitly.
    let mut c2 = Client::connect(addr).unwrap();
    let reply = c2.request(&Request::Stats).unwrap();
    assert_eq!(reply, Reply::Overloaded(ShedReason::QueueFull));

    // Release the worker; the queued c1 must now be served.
    drop(c0);
    let stats = c1.stats_json().unwrap();
    assert!(
        stats.contains("\"epoch\""),
        "queued connection served: {stats}"
    );
}

/// A peer that pipelines requests and never reads a byte of the replies
/// eventually zeroes its receive window; the worker's reply write must
/// hit [`ServeConfig::write_timeout`] and drop the connection instead of
/// pinning the worker forever. With a single worker, a fresh client being
/// served at all proves the deadline fired.
#[test]
fn stalled_reader_cannot_pin_a_worker_past_the_write_deadline() {
    let serving = serving_engine(29);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            write_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // The stalled peer: pipeline metrics requests (multi-KiB replies)
    // without ever reading. Replies fill both socket buffers, then the
    // worker blocks in `write_frame`. The peer's own sends are bounded by
    // a client-side timeout — once they start failing the worker is
    // already wedged, which is all the flood needs to achieve.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let body = encode_request(&Request::Metrics);
    for _ in 0..20_000 {
        if write_frame(&mut stalled, &body).is_err() {
            break;
        }
    }

    // The single worker is stuck behind the stalled peer until the
    // deadline cuts it loose; this round trip hangs forever without it.
    let start = Instant::now();
    let mut probe = Client::connect(addr).unwrap();
    probe
        .stats_json()
        .expect("worker freed by the write deadline");
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "worker pinned by a stalled reader for {:?}",
        start.elapsed()
    );
    drop(stalled);
}

/// Shed replies run off the accept thread: forty refused peers that never
/// read their refusal (each shed waits out ~60ms of drain reads) must not
/// serialize in front of `accept` — a fresh arrival still gets its
/// explicit `Overloaded` refusal promptly.
#[test]
fn sheds_do_not_block_the_accept_thread() {
    let serving = serving_engine(31);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // Saturate the pool: c0 pins the worker (a completed round trip), c1
    // parks in the depth-1 queue.
    let mut c0 = Client::connect(addr).unwrap();
    c0.stats_json().unwrap();
    let _c1 = Client::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Forty connections that must all be shed, whose peers never write a
    // request nor read the refusal. Inline sheds would stall the accept
    // thread for their summed drain timeouts (seconds); off-thread they
    // overlap.
    let stalled: Vec<TcpStream> = (0..40).map(|_| TcpStream::connect(addr).unwrap()).collect();

    let start = Instant::now();
    let reply = serve::one_shot(addr, &Request::Stats).unwrap();
    assert_eq!(reply, Reply::Overloaded(ShedReason::QueueFull));
    assert!(
        start.elapsed() < Duration::from_millis(1500),
        "accept thread throttled by stalled shed peers: {:?}",
        start.elapsed()
    );
    drop(stalled);
    drop(c0);
}

/// A syntactically broken frame earns a `Reply::Error` and a closed
/// connection (the stream may be desynchronized); an oversize length
/// prefix is rejected before any allocation.
#[test]
fn malformed_frames_get_error_replies() {
    let serving = serving_engine(19);
    let server = bind(&serving, ServeConfig::default());

    // Unknown opcode: one Error reply, then EOF.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut raw, &[0x7f]).unwrap();
    let body = serve::read_frame(&mut raw, serve::MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    match serve::decode_reply(&body).unwrap() {
        Reply::Error(msg) => assert!(msg.contains("opcode"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        raw.read_to_end(&mut rest).unwrap_or(0),
        0,
        "connection closed"
    );

    // Oversize declared length: connection dropped without a 4 GiB
    // allocation; the read ends in EOF or a reset, never a reply.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 16]).unwrap();
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no reply to an oversize frame");

    // A well-formed request on a fresh connection still works — the bad
    // clients above poisoned nothing shared.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.stats_json().unwrap();
}

/// A peer that sends a header claiming the largest frame and then closes
/// costs the single worker an `UnexpectedEof` after one read chunk — not a
/// 16 MiB buffer, and not the worker: the next client is answered.
#[test]
fn a_header_without_its_body_does_not_cost_the_worker() {
    let serving = serving_engine(37);
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = bind(&serving, cfg);
    let mut peer = TcpStream::connect(server.local_addr()).unwrap();
    peer.write_all(&serve::MAX_FRAME_LEN.to_le_bytes()).unwrap();
    peer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    let _ = peer.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no reply to a frame that never arrived");
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .stats_json()
        .expect("the worker serves the next client");
}

/// Three well-formed frames that used to end the worker thread — `k = 0`
/// and an empty location list tripped engine assertions, a huge `k` made
/// the baseline reserve `k` slots — sent to a single-worker server, the
/// refused ones each on a connection of its own so that a dead worker
/// would leave the next one unanswered. The first two are refused as
/// counted errors; the third is a legitimate query ("every object") and
/// is answered; the server then still answers correctly, and the request
/// counter reconciles.
#[test]
fn hostile_query_specs_cost_a_reply_not_the_worker() {
    let serving = serving_engine(29);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let good = specs().remove(1);

    let zero_k = QuerySpec {
        k: 0,
        ..good.clone()
    };
    let nowhere = QuerySpec {
        locations: Vec::new(),
        ..good.clone()
    };
    for (spec, needle) in [(zero_k, "k must be positive"), (nowhere, "location")] {
        for method in [
            Method::JointGreedy,
            Method::Baseline,
            Method::UserIndexGreedy,
        ] {
            let mut client = Client::connect(server.local_addr()).unwrap();
            match client
                .request(&Request::Query {
                    method,
                    spec: spec.clone(),
                })
                .unwrap()
            {
                Reply::Error(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected Error for {}, got {other:?}", method.name()),
            }
        }
    }

    let everything = QuerySpec {
        k: usize::MAX >> 1,
        ..good.clone()
    };
    let mut client = Client::connect(server.local_addr()).unwrap();
    let net = client.query(Method::Baseline, &everything).unwrap();
    assert_eq!(net, serving.query(&everything, Method::Baseline).0);

    for method in Method::ALL {
        let net = client.query(method, &good).expect("the worker is alive");
        assert_eq!(net, serving.query(&good, method).0, "{}", method.name());
    }

    let snap = serving.snapshot().metrics().snapshot();
    let count = |name: &str| snap.counter(name).expect(name);
    assert_eq!(count("serve_request_errors_total{kind=\"query\"}"), 6);
    assert_eq!(
        count("serve_requests_total{kind=\"query\"}"),
        snap.histogram("serve_request_latency_us{kind=\"query\"}")
            .expect("latency histogram")
            .count()
            + 6
    );
}

/// A keyword budget near `usize::MAX` beside a non-empty `ox.d` used to
/// overflow `|ox.d| + ws`: a panic that ended the worker in a debug build,
/// a reference length of 1 that reweighed every candidate keyword in a
/// release one. A single-worker server answers that frame for every method
/// as the in-process engine does, then answers the next client.
#[test]
fn a_huge_keyword_budget_is_answered() {
    let serving = serving_engine(41);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let good = specs().remove(0);
    let huge = QuerySpec {
        ws: usize::MAX,
        ..good.clone()
    };
    assert!(!huge.ox_doc.is_empty());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for method in Method::ALL {
        let net = client
            .query(method, &huge)
            .unwrap_or_else(|e| panic!("{}: no answer: {e}", method.name()));
        assert_eq!(net, serving.query(&huge, method).0, "{}", method.name());
    }
    // A worker serves one connection at a time: close this one first.
    drop(client);
    let mut next = Client::connect(server.local_addr()).unwrap();
    let net = next
        .query(Method::JointGreedy, &good)
        .expect("the worker is alive");
    assert_eq!(net, serving.query(&good, Method::JointGreedy).0);
}

/// Removing the last user is a rejected mutation, not a panic under the
/// publish lock: every user of a 2-user engine is removed over the wire on
/// a single-worker server, which then still answers a query and a stats
/// request.
#[test]
fn removing_every_user_is_rejected_at_the_last_one() {
    let objects: Vec<ObjectData> = (0..6u32)
        .map(|i| ObjectData {
            id: i,
            point: Point::new(f64::from(i), f64::from(i % 3)),
            doc: Document::from_terms([t(i % 2), t(6)]),
        })
        .collect();
    let users: Vec<UserData> = (0..2u32)
        .map(|i| UserData {
            id: i,
            point: Point::new(1.5 + f64::from(i), 1.0),
            doc: Document::from_terms([t(i), t(6)]),
        })
        .collect();
    let serving = ServingEngine::new(
        Engine::build_with_fanout(objects, users, WeightModel::lm(), 0.5, 4).with_user_index(),
    );
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(client.mutate(Mutation::RemoveUser(0)).unwrap().is_some());
    let last = client.mutate(Mutation::RemoveUser(1)).unwrap();
    assert!(last.is_none(), "the last user stays");

    let spec = specs().remove(0);
    let net = client
        .query(Method::UserIndexExact, &spec)
        .expect("the worker is alive");
    assert_eq!(net, serving.query(&spec, Method::UserIndexExact).0);
    assert!(client.stats_json().unwrap().contains("\"users\":1"));
}

/// An object naming a term id near `u32::MAX` used to be accepted, and the
/// corpus statistics a refresh builds were then sized by that id
/// (a 17 GB allocation that aborted the process). A single-worker server
/// rejects the frame, then answers `stats` and the next client.
#[test]
fn a_huge_term_id_is_rejected() {
    let serving = serving_engine(43);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let huge = Mutation::InsertObject(ObjectData {
        id: 500,
        point: Point::new(3.0, 3.0),
        doc: Document::from_terms([t(u32::MAX - 1)]),
    });
    assert!(
        client.mutate(huge).unwrap().is_none(),
        "a huge term id is MutateRejected"
    );
    assert!(client.stats_json().unwrap().contains("\"objects\":120"));
    drop(client);
    let spec = specs().remove(0);
    let mut next = Client::connect(server.local_addr()).unwrap();
    let net = next
        .query(Method::JointGreedy, &spec)
        .expect("the worker is alive");
    assert_eq!(net, serving.query(&spec, Method::JointGreedy).0);
}

/// A NaN coordinate off the wire used to be accepted into the trees:
/// removing that entry later panicked under the publish lock (poisoning
/// every later snapshot), debug builds panicked on the next query, and a
/// query at a NaN location could name it the winner. A single-worker
/// server rejects both inserts and refuses the query as a counted error,
/// then answers `stats` and the next query as the in-process engine does.
#[test]
fn non_finite_coordinates_are_refused() {
    let serving = serving_engine(47);
    let server = bind(
        &serving,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let epoch = serving.epoch();
    let nan = Point::new(f64::NAN, 3.0);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let object = Mutation::InsertObject(ObjectData {
        id: 500,
        point: nan,
        doc: Document::from_terms([t(1), t(6)]),
    });
    let user = Mutation::InsertUser(UserData {
        id: 500,
        point: nan,
        doc: Document::from_terms([t(1), t(6)]),
    });
    for m in [object, user] {
        assert!(client.mutate(m).unwrap().is_none(), "MutateRejected");
    }
    assert_eq!(serving.epoch(), epoch);

    let good = specs().remove(1);
    let nowhere = QuerySpec {
        locations: vec![nan, Point::new(5.0, 3.0)],
        ..good.clone()
    };
    for method in [Method::JointGreedy, Method::Baseline] {
        let request = Request::Query {
            method,
            spec: nowhere.clone(),
        };
        match client.request(&request).unwrap() {
            Reply::Error(msg) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("expected Error for {}, got {other:?}", method.name()),
        }
    }
    assert!(client.stats_json().unwrap().contains("\"objects\":120"));
    for method in Method::ALL {
        let net = client.query(method, &good).expect("the worker is alive");
        assert_eq!(net, serving.query(&good, method).0, "{}", method.name());
    }
    let snap = serving.snapshot().metrics().snapshot();
    let errors = snap.counter("serve_request_errors_total{kind=\"query\"}");
    assert_eq!(errors, Some(2));
}

/// `stats` carries the serving counters as JSON; `metrics` renders the
/// shared registry, so serve-layer counters appear next to engine ones.
#[test]
fn stats_and_metrics_expose_the_shared_registry() {
    let serving = serving_engine(23);
    let server = bind(&serving, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.query(Method::Baseline, &specs()[0]).unwrap();
    client
        .mutate(Mutation::RemoveObject(1))
        .unwrap()
        .expect("object 1 exists");

    let stats = client.stats_json().unwrap();
    for key in [
        "\"epoch\"",
        "\"objects\"",
        "\"users\"",
        "\"refreshes\"",
        "\"metrics\"",
    ] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }

    let page = client.metrics_prometheus().unwrap();
    for needle in [
        "serve_requests_total{kind=\"query\"}",
        "serve_requests_total{kind=\"mutate\"}",
        "serve_connections_total",
        "serve_request_latency_us",
    ] {
        assert!(page.contains(needle), "metrics page missing {needle}");
    }

    // The encode/decode helpers are the same ones the server uses; a
    // stats request built by hand round-trips through them.
    let body = encode_request(&Request::Stats);
    assert!(matches!(
        serve::decode_request(&body).unwrap(),
        Request::Stats
    ));
}

/// The `serve` binary rejects an unparsable shard count from the
/// environment exactly like one from the flag (it used to fall back to
/// unsharded serving without a word).
#[test]
fn serve_binary_rejects_an_unparsable_shard_count() {
    let run = |shards_env: Option<&str>, args: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_serve"));
        cmd.env_remove("MBRSTK_SHARDS").args(args);
        if let Some(v) = shards_env {
            cmd.env("MBRSTK_SHARDS", v);
        }
        let out = cmd.output().expect("run serve");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let from_env = run(Some("four"), &[]);
    let from_flag = run(None, &["--shards", "four"]);
    assert_eq!(from_env.0, Some(2));
    assert_eq!(from_env, from_flag);
}

/// Two query frames in a single `write`: the worker's first read may take
/// both, and the second must still be answered, after the first.
#[test]
fn two_frames_in_one_write_get_both_replies_in_order() {
    let serving = serving_engine(43);
    let server = bind(&serving, ServeConfig::default());
    let asks = [
        (Method::JointGreedy, specs().remove(0)),
        (Method::UserIndexExact, specs().remove(2)),
    ];
    let mut wire = Vec::new();
    for (method, spec) in &asks {
        let req = Request::Query {
            method: *method,
            spec: spec.clone(),
        };
        write_frame(&mut wire, &encode_request(&req)).unwrap();
    }
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&wire).unwrap();
    for (method, spec) in &asks {
        let body = serve::read_frame(&mut raw, serve::MAX_FRAME_LEN)
            .unwrap()
            .expect("a reply per frame");
        let (local, _guard) = serving.query(spec, *method);
        match serve::decode_reply(&body).unwrap() {
            Reply::Answer(net) => assert_eq!(net, local, "{}", method.name()),
            other => panic!("expected an answer, got {other:?}"),
        }
    }
}
