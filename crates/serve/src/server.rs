//! Thread-per-core TCP server over a [`ServingEngine`].
//!
//! One accept thread owns the listener and deals connections round-robin
//! to a fixed pool of workers over bounded queues. Admission control is
//! *shed, don't queue deep*: when every worker's queue is full the
//! connection is refused with [`Reply::Overloaded`] — an explicit
//! refusal, never a silently late (or wrong) answer — from a short-lived
//! shed thread, so a slow refused peer never throttles `accept` itself.
//! Every write to a peer (replies and shed refusals) carries
//! [`ServeConfig::write_timeout`]: a client that stops reading gets its
//! connection dropped at the deadline instead of pinning a worker
//! forever.
//!
//! Request handling is deliberately boring: decode a frame, call the same
//! [`ServingEngine`] entry points an in-process caller would use, encode
//! the reply. That is what makes the loopback differential test
//! meaningful — the network path can only add framing, not semantics.
//!
//! Each worker owns one [`QueryArena`] and one answer buffer for every
//! request it serves ([`ServingEngine::query_reusing`]), so a warm query
//! allocates nothing in the engine, and the candidate context's
//! location-independent half (per-user candidate terms, `UBL` text, `HW`
//! rows) outlives the request. It is rebuilt when the
//! snapshot's engine state (a write or a refresh moves it) or the query's
//! `W`, `ox.d` or `ws` changes; answers never depend on it.
//!
//! All serving metrics live in the engine's own swap-stable registry
//! (`serve_requests_total{kind=...}`, `serve_shed_total{reason=...}`,
//! `serve_request_errors_total{kind=...}`, `serve_worker_lost_total`,
//! `serve_request_latency_us{kind=...}`, `serve_connections_total`), so
//! one `metrics` request exposes index, refresh and network counters in a
//! single Prometheus page.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mbrstk_core::{QueryArena, QueryResult, ServingEngine};
use mbrstk_obs::{Counter, Histogram, MetricsRegistry};

use crate::protocol::{
    decode_request, encode_reply, read_body, write_frame, Reply, Request, ShedReason, MAX_FRAME_LEN,
};

/// How long a worker blocks in `read` before re-checking the stop flag on
/// an idle connection.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Knobs for [`Server::bind`]. The frame-size limit is not one: every
/// frame a client sends is checked against [`MAX_FRAME_LEN`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` means one per available core.
    pub workers: usize,
    /// Pending connections each worker will queue before the accept
    /// thread sheds with [`ShedReason::QueueFull`].
    pub queue_depth: usize,
    /// Deadline for any single blocking write to a peer (replies and shed
    /// refusals). A client that stops reading — a stalled or malicious
    /// zero-window peer — would otherwise pin whichever thread is writing
    /// to it forever; past the deadline the write errors and the
    /// connection is dropped. Zero disables the deadline (unbounded
    /// writes).
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// `set_write_timeout` rejects a zero duration; map "zero = disabled"
/// onto the `Option` the socket API wants.
fn write_deadline(timeout: Duration) -> Option<Duration> {
    (!timeout.is_zero()).then_some(timeout)
}

/// Handles into the engine's metrics registry, resolved once at bind.
struct ServeMetrics {
    connections: Arc<Counter>,
    req_query: Arc<Counter>,
    req_mutate: Arc<Counter>,
    req_stats: Arc<Counter>,
    req_metrics: Arc<Counter>,
    shed_queue: Arc<Counter>,
    /// Queries answered with `Reply::Error` (no latency sample is
    /// recorded for them, so `req_query == lat_query.count + query_errors`
    /// always reconciles).
    query_errors: Arc<Counter>,
    /// Times the accept round-robin found a worker's queue hung up — the
    /// worker thread died. Distinct from `shed_queue` (full queues are
    /// overload; a dead worker is a server bug worth its own alarm).
    worker_lost: Arc<Counter>,
    lat_query: Arc<Histogram>,
    lat_mutate: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        ServeMetrics {
            connections: reg.counter("serve_connections_total"),
            req_query: reg.counter("serve_requests_total{kind=\"query\"}"),
            req_mutate: reg.counter("serve_requests_total{kind=\"mutate\"}"),
            req_stats: reg.counter("serve_requests_total{kind=\"stats\"}"),
            req_metrics: reg.counter("serve_requests_total{kind=\"metrics\"}"),
            shed_queue: reg.counter("serve_shed_total{reason=\"queue\"}"),
            query_errors: reg.counter("serve_request_errors_total{kind=\"query\"}"),
            worker_lost: reg.counter("serve_worker_lost_total"),
            lat_query: reg.histogram("serve_request_latency_us{kind=\"query\"}"),
            lat_mutate: reg.histogram("serve_request_latency_us{kind=\"mutate\"}"),
        }
    }
}

/// A running server; shuts down on [`Server::shutdown`] or drop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — read it back with
    /// [`Server::local_addr`]) and starts the accept thread and worker
    /// pool serving `engine`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<ServingEngine>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServeMetrics::new(&engine.snapshot().metrics()));
        let nworkers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            cfg.workers
        };
        let queue_depth = cfg.queue_depth.max(1);

        let mut senders: Vec<SyncSender<TcpStream>> = Vec::with_capacity(nworkers);
        let mut workers = Vec::with_capacity(nworkers);
        for i in 0..nworkers {
            let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_depth);
            senders.push(tx);
            let worker = Worker {
                engine: Arc::clone(&engine),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                write_timeout: cfg.write_timeout,
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker.run(rx))?,
            );
        }

        let accept_stop = Arc::clone(&stop);
        let accept_metrics = Arc::clone(&metrics);
        let write_timeout = cfg.write_timeout;
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                accept_loop(
                    listener,
                    senders,
                    accept_stop,
                    accept_metrics,
                    write_timeout,
                );
            })?;

        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread owned the senders; its exit hangs up every
        // worker queue, so recv errors out once the backlog drains.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    senders: Vec<SyncSender<TcpStream>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    write_timeout: Duration,
) {
    let mut rr = 0usize;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        metrics.connections.inc();
        let _ = stream.set_nodelay(true);
        if let Some(conn) = place_connection(stream, &senders, &mut rr, &metrics) {
            metrics.shed_queue.inc();
            // Off-thread: a shed reply talks to an arbitrarily slow peer
            // (its drain reads wait up to 60ms even when healthy). Doing
            // that inline would throttle `accept` precisely when the
            // server is saturated — the moment sheds must be prompt.
            let spawned = std::thread::Builder::new()
                .name("serve-shed".into())
                .spawn(move || shed(conn, write_timeout));
            // Spawn failure (fd/thread exhaustion) drops the connection:
            // the peer sees a reset instead of an explicit refusal, which
            // beats stalling the accept loop.
            drop(spawned);
        }
    }
}

/// Deals `conn` to a worker queue round-robin, skipping full queues —
/// every queue full means the pool is saturated past its configured
/// backlog, so the connection comes back to the caller to shed rather
/// than buffer unbounded work. A hung-up queue means that worker thread
/// died; it is counted on `serve_worker_lost_total` (not as overload) and
/// skipped like a full one.
fn place_connection(
    conn: TcpStream,
    senders: &[SyncSender<TcpStream>],
    rr: &mut usize,
    metrics: &ServeMetrics,
) -> Option<TcpStream> {
    let mut conn = Some(conn);
    for i in 0..senders.len() {
        let w = (*rr + i) % senders.len();
        match senders[w].try_send(conn.take().expect("connection not yet placed")) {
            Ok(()) => {
                *rr = w + 1;
                return None;
            }
            Err(TrySendError::Full(back)) => {
                conn = Some(back);
            }
            Err(TrySendError::Disconnected(back)) => {
                metrics.worker_lost.inc();
                conn = Some(back);
            }
        }
    }
    conn
}

/// Refuses a connection with an explicit `Overloaded(QueueFull)` reply.
/// The client has usually already written its request; drain briefly
/// before replying, then half-close, so the refusal is not lost to a reset
/// (closing a socket with unread inbound data discards the send buffer).
/// The reply write carries the configured deadline — a zero-window peer
/// must not pin the shed thread.
fn shed(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(write_deadline(write_timeout));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let mut sink = [0u8; 512];
    let _ = stream.read(&mut sink);
    let _ = write_frame(
        &mut stream,
        &encode_reply(&Reply::Overloaded(ShedReason::QueueFull)),
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.read(&mut sink);
}

struct Worker {
    engine: Arc<ServingEngine>,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
    write_timeout: Duration,
}

impl Worker {
    fn run(&self, rx: Receiver<TcpStream>) {
        // One arena and one answer buffer for every request this worker
        // serves, whichever connection it arrives on.
        let (mut arena, mut out) = (QueryArena::new(), QueryResult::default());
        // Drain queued connections until the accept thread hangs up.
        while let Ok(stream) = rx.recv() {
            let _ = self.serve_connection(stream, &mut arena, &mut out);
            if self.stop.load(Ordering::SeqCst) {
                // Finish nothing further; remaining queued peers get a
                // connection reset, which shutdown tests tolerate.
                while rx.try_recv().is_ok() {}
            }
        }
    }

    /// Serves frames until clean EOF, a protocol error, a blown write
    /// deadline, or shutdown.
    fn serve_connection(
        &self,
        mut stream: TcpStream,
        arena: &mut QueryArena,
        out: &mut QueryResult,
    ) -> io::Result<()> {
        stream.set_read_timeout(Some(IDLE_POLL))?;
        // Reply writes must complete within the deadline: a peer that
        // stops reading (zero receive window) otherwise parks this worker
        // in `write_frame` forever, silently shrinking the pool.
        stream.set_write_timeout(write_deadline(self.write_timeout))?;
        loop {
            let body = match self.read_frame_interruptible(&mut stream) {
                Ok(Some(body)) => body,
                Ok(None) => return Ok(()),
                Err(e) => return Err(e),
            };
            let reply = match decode_request(&body) {
                Ok(req) => self.handle(req, arena, out),
                Err(e) => {
                    // The stream may be desynchronized — answer, then
                    // drop the connection.
                    let reply = Reply::Error(e.to_string());
                    write_frame(&mut stream, &encode_reply(&reply))?;
                    return Ok(());
                }
            };
            let frame = encode_reply(&reply);
            if let Reply::Answer(answer) = reply {
                // Hand the answer's buffers back for the next query.
                *out = answer;
            }
            write_frame(&mut stream, &frame)?;
        }
    }

    /// [`read_frame`] that tolerates read timeouts while *between* frames
    /// (checking the stop flag), but treats them as fatal mid-frame.
    fn read_frame_interruptible(&self, stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            match stream.read(&mut header[got..]) {
                Ok(0) => {
                    if got == 0 {
                        return Ok(None);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    ));
                }
                Ok(n) => got += n,
                Err(e)
                    if got == 0
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside (0, {MAX_FRAME_LEN}]"),
            ));
        }
        // The header arrived, so the body is in flight; a bounded number
        // of idle polls is enough for any live client.
        let mut idle_polls = 0u32;
        let body = read_body(len as usize, |buf| loop {
            match stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    idle_polls += 1;
                    if idle_polls >= 40 || self.stop.load(Ordering::SeqCst) {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "stalled mid-frame"));
                    }
                }
                Ok(n) => {
                    idle_polls = 0;
                    return Ok(n);
                }
                other => return other,
            }
        })?;
        Ok(Some(body))
    }

    fn handle(&self, req: Request, arena: &mut QueryArena, out: &mut QueryResult) -> Reply {
        match req {
            Request::Query { method, spec } => {
                self.metrics.req_query.inc();
                let start = Instant::now();
                // What the engine would panic on is refused here: a panic
                // under this call ends the worker thread for good.
                let refused = if spec.k == 0 {
                    Some("k must be positive".to_string())
                } else if spec.locations.is_empty() {
                    Some("a query needs at least one candidate location".to_string())
                } else if method.requires_user_index() && self.engine.snapshot().miur.is_none() {
                    Some(format!(
                        "method {} requires the user index, but the served engine \
                         was built without one",
                        method.name()
                    ))
                } else {
                    None
                };
                if let Some(why) = refused {
                    // Counted, not latency-sampled: `req_query` always
                    // equals `lat_query.count + query_errors`, so the
                    // counter and histogram reconcile.
                    self.metrics.query_errors.inc();
                    return Reply::Error(why);
                }
                self.engine.query_reusing(&spec, method, arena, out);
                self.metrics.lat_query.record_duration_us(start.elapsed());
                Reply::Answer(std::mem::take(out))
            }
            Request::Mutate(m) => {
                self.metrics.req_mutate.inc();
                let start = Instant::now();
                let reply = match self.engine.apply(m) {
                    Some(io) => Reply::MutateOk(io),
                    None => Reply::MutateRejected,
                };
                self.metrics.lat_mutate.record_duration_us(start.elapsed());
                reply
            }
            Request::Stats => {
                self.metrics.req_stats.inc();
                let snap = self.engine.snapshot();
                Reply::Stats(format!(
                    "{{\"epoch\":{},\"objects\":{},\"users\":{},\"refreshes\":{},\
                     \"metrics\":{}}}",
                    snap.epoch(),
                    snap.objects.len(),
                    snap.users.len(),
                    self.engine.refreshes(),
                    snap.metrics().snapshot().to_json(),
                ))
            }
            Request::Metrics => {
                self.metrics.req_metrics.inc();
                Reply::Metrics(self.engine.snapshot().metrics().render_prometheus())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback stream pair's server half — `place_connection`
    /// wants real `TcpStream`s, not mocks.
    fn loopback_conn(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (server_side, client)
    }

    /// A dead worker (hung-up receiver) is skipped and counted on
    /// `serve_worker_lost_total` — not folded into the overload shed
    /// counter — and live workers keep receiving connections.
    #[test]
    fn dead_worker_is_counted_and_skipped() {
        let reg = MetricsRegistry::new();
        let metrics = ServeMetrics::new(&reg);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();

        let (dead_tx, dead_rx) = std::sync::mpsc::sync_channel::<TcpStream>(1);
        let (live_tx, live_rx) = std::sync::mpsc::sync_channel::<TcpStream>(2);
        drop(dead_rx); // worker 0 "died"
        let senders = vec![dead_tx, live_tx];

        // rr = 0 points the round-robin at the dead worker first.
        let mut rr = 0usize;
        let (conn, _client) = loopback_conn(&listener);
        assert!(
            place_connection(conn, &senders, &mut rr, &metrics).is_none(),
            "the live worker takes the connection"
        );
        assert_eq!(metrics.worker_lost.get(), 1);
        assert!(live_rx.try_recv().is_ok(), "placed on the live queue");

        // Dead worker plus a full live queue: the connection comes back
        // for shedding, the dead worker is counted again, and the full
        // queue is not misattributed to worker loss.
        let (fill_a, _ka) = loopback_conn(&listener);
        let (fill_b, _kb) = loopback_conn(&listener);
        assert!(place_connection(fill_a, &senders, &mut rr, &metrics).is_none());
        assert!(place_connection(fill_b, &senders, &mut rr, &metrics).is_none());
        let lost_before = metrics.worker_lost.get();
        let (conn, _client) = loopback_conn(&listener);
        assert!(
            place_connection(conn, &senders, &mut rr, &metrics).is_some(),
            "saturated pool returns the connection for shedding"
        );
        assert_eq!(metrics.worker_lost.get(), lost_before + 1);
    }

    /// Zero means "no deadline"; anything else maps through unchanged.
    #[test]
    fn write_deadline_maps_zero_to_none() {
        assert_eq!(write_deadline(Duration::ZERO), None);
        assert_eq!(
            write_deadline(Duration::from_millis(250)),
            Some(Duration::from_millis(250))
        );
    }
}
