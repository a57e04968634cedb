//! A minimal blocking client for the serve wire protocol.
//!
//! [`Client`] keeps one connection open and pipelines nothing: each
//! [`Client::request`] writes one frame and reads one reply, which is the
//! shape both the differential tests and the closed-connection load
//! generator need. [`one_shot`] opens, asks, and closes — the open-loop
//! generator uses it so every request pays the full connection cost, like
//! an independent arriving client would.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use mbrstk_core::{MaintenanceIo, Method, Mutation, QueryResult, QuerySpec};

use crate::protocol::{
    decode_reply, encode_request, read_frame, write_frame, Reply, Request, MAX_FRAME_LEN,
};

/// One blocking connection to a serve endpoint.
pub struct Client {
    /// Replies are read through one buffer for the connection (a reply
    /// that arrived whole is one `read`); requests go straight to the
    /// socket underneath it.
    conn: BufReader<TcpStream>,
}

impl Client {
    /// Connects (with `TCP_NODELAY` — a request is one small frame, sent
    /// in one write).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        write_frame(self.conn.get_mut(), &encode_request(req))?;
        let body = read_frame(&mut self.conn, MAX_FRAME_LEN)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            )
        })?;
        Ok(decode_reply(&body)?)
    }

    /// Runs one query; errors on any reply other than an answer
    /// (including an overload shed — callers that must distinguish sheds
    /// use [`Client::request`]).
    pub fn query(&mut self, method: Method, spec: &QuerySpec) -> io::Result<QueryResult> {
        match self.request(&Request::Query {
            method,
            spec: spec.clone(),
        })? {
            Reply::Answer(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Applies one mutation; `Ok(Some(io))` on success, `Ok(None)` when
    /// the engine rejected it (duplicate insert / unknown remove).
    pub fn mutate(&mut self, mutation: Mutation) -> io::Result<Option<MaintenanceIo>> {
        match self.request(&Request::Mutate(mutation))? {
            Reply::MutateOk(io) => Ok(Some(io)),
            Reply::MutateRejected => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the stats JSON document.
    pub fn stats_json(&mut self) -> io::Result<String> {
        match self.request(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the Prometheus text exposition of the engine registry.
    pub fn metrics_prometheus(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics)? {
            Reply::Metrics(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::other(match reply {
        Reply::Overloaded(r) => format!("server overloaded ({r:?})"),
        Reply::Error(msg) => format!("server error: {msg}"),
        other => format!("unexpected reply {other:?}"),
    })
}

/// Opens a fresh connection, sends one request, returns the reply. Sheds
/// come back as `Ok(Reply::Overloaded(_))`, not errors — the load
/// generator counts them separately from transport failures.
pub fn one_shot(addr: SocketAddr, req: &Request) -> io::Result<Reply> {
    let mut client = Client::connect(addr)?;
    client.request(req)
}
