//! Network front door for the MaxBRSTkNN serving engine.
//!
//! Everything below the paper's algorithms in this workspace is callable
//! in-process; this crate puts a socket in front of it:
//!
//! * [`mod@protocol`] — the length-prefixed binary wire format
//!   (`query` / `mutate` / `stats` / `metrics` requests and their
//!   replies, including the explicit [`Reply::Overloaded`] shed),
//! * [`Server`] — a thread-per-core accept/worker pool over
//!   [`mbrstk_core::ServingEngine`] with bounded queues that shed when
//!   full,
//! * [`Client`] / [`one_shot`] — blocking clients used by the loopback
//!   differential tests and the open-loop load generator in the bench
//!   crate,
//! * `src/bin/serve.rs` — the `serve` binary: generates a corpus, builds
//!   an engine, and serves it.
//!
//! The protocol carries the exact in-process types ([`QuerySpec`] in,
//! [`QueryResult`] out), bit-identically: the loopback tests assert that
//! an answer served over TCP equals the answer from calling the same
//! snapshot directly.
//!
//! [`QuerySpec`]: mbrstk_core::QuerySpec
//! [`QueryResult`]: mbrstk_core::QueryResult

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{one_shot, Client};
pub use protocol::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
    ProtocolError, Reply, Request, ShedReason, MAX_FRAME_LEN,
};
pub use server::{ServeConfig, Server};
