//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌───────────────┬────────────┬───────────────────────────┐
//! │ len: u32 LE   │ opcode: u8 │ payload: len - 1 bytes    │
//! └───────────────┴────────────┴───────────────────────────┘
//! ```
//!
//! `len` counts the opcode byte plus the payload (not itself). Integers
//! are LEB128 varints unless noted; coordinates are `f64::to_bits`
//! little-endian (bit-exact round trips — the differential tests compare
//! network answers against in-process calls by `==`); documents are
//! `(term, tf)` pair lists. Frames above [`MAX_FRAME_LEN`] are rejected
//! before allocation, and a body buffer grows only as its bytes arrive, so
//! a hostile length prefix cannot balloon memory.
//!
//! Request opcodes: `0x01` query, `0x02` mutate, `0x03` stats (JSON),
//! `0x04` metrics (Prometheus text). Reply opcodes mirror them at
//! `0x81..0x85`, plus `0x86` [`Reply::Overloaded`] (admission control
//! shed — the server refuses work rather than answer late or wrong) and
//! `0x87` [`Reply::Error`] (malformed frame or unusable method).
//!
//! Decoding never panics on malformed input: every read is
//! bounds-checked and surfaces as a [`ProtocolError`], which the server
//! answers with `Reply::Error` before dropping the connection (a parse
//! failure means the stream may be desynchronized).

use std::io::{self, Read, Write};

use geo::Point;
use mbrstk_core::{MaintenanceIo, Method, Mutation, ObjectData, QueryResult, QuerySpec, UserData};
use storage::codec::Reader;
use text::{Document, TermId};

/// Cap on one frame's body (opcode + payload), in bytes.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// The most a frame read commits to body bytes that have not arrived: the
/// buffer grows in steps of this size, so a length prefix alone cannot pin
/// [`MAX_FRAME_LEN`] bytes.
const READ_CHUNK: usize = 64 << 10;

/// A parse failure on a received frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError(msg.into()))
}

/// What a client asks the server to do.
#[derive(Debug, Clone)]
pub enum Request {
    /// Answer one MaxBRSTkNN query on the current snapshot.
    Query {
        /// Which built-in strategy answers it.
        method: Method,
        /// The query.
        spec: QuerySpec,
    },
    /// Apply one mutation to the served engine.
    Mutate(Mutation),
    /// Serving stats + metrics snapshot as JSON.
    Stats,
    /// The metrics registry in Prometheus text exposition format.
    Metrics,
}

/// Why the server shed a request instead of serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every worker's pending-connection queue was at capacity.
    QueueFull,
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The query answer, bit-identical to the in-process call.
    Answer(QueryResult),
    /// The mutation applied; its maintenance I/O.
    MutateOk(MaintenanceIo),
    /// The mutation was rejected by the engine (duplicate insert id,
    /// unknown remove id) — state is unchanged.
    MutateRejected,
    /// Stats JSON.
    Stats(String),
    /// Prometheus text.
    Metrics(String),
    /// Admission control refused the work; retry later. Never carries a
    /// partial or stale answer.
    Overloaded(ShedReason),
    /// The request could not be served (malformed frame, method needs an
    /// index the engine was built without, ...).
    Error(String),
}

// ---------------------------------------------------------------------
// Byte-level helpers (bounds-checked reads; encoding cannot fail).

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Bounds-checked cursor over a received frame body: a storage [`Reader`]
/// whose every read is checked before it is made. Varints go through its
/// strict decoder, so a truncated, overlong or overflowing one is an error.
struct Take<'a> {
    buf: &'a [u8],
    r: Reader<'a>,
}

impl<'a> Take<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Take {
            buf,
            r: Reader::new(buf),
        }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        if self.r.is_exhausted() {
            return err("truncated frame");
        }
        Ok(self.r.get_u8())
    }

    fn varint(&mut self) -> Result<u64, ProtocolError> {
        self.r
            .try_get_varint_u64()
            .ok_or_else(|| ProtocolError("malformed varint".into()))
    }

    fn varint_u32(&mut self) -> Result<u32, ProtocolError> {
        u32::try_from(self.varint()?).map_err(|_| ProtocolError("varint exceeds u32".into()))
    }

    /// A length prefix that will be used to reserve memory: capped by the
    /// bytes actually remaining so a hostile count cannot balloon a
    /// `Vec::with_capacity`.
    fn count(&mut self) -> Result<usize, ProtocolError> {
        let n = self.varint()? as usize;
        if n > self.r.remaining() {
            return err("count exceeds frame");
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        if self.r.remaining() < 8 {
            return err("truncated f64");
        }
        Ok(self.r.get_f64())
    }

    fn rest_utf8(&mut self) -> Result<String, ProtocolError> {
        let rest = &self.buf[self.r.position()..];
        let s = std::str::from_utf8(rest)
            .map_err(|_| ProtocolError("invalid utf-8 payload".into()))?
            .to_string();
        self.r.skip(rest.len());
        Ok(s)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.r.is_exhausted() {
            Ok(())
        } else {
            err("trailing bytes after message")
        }
    }
}

// ---------------------------------------------------------------------
// Domain encodings.

fn put_document(out: &mut Vec<u8>, doc: &Document) {
    put_varint(out, doc.num_terms() as u64);
    for &(t, tf) in doc.entries() {
        put_varint(out, u64::from(t.0));
        put_varint(out, u64::from(tf));
    }
}

fn take_document(t: &mut Take<'_>) -> Result<Document, ProtocolError> {
    let n = t.count()?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let term = t.varint_u32()?;
        let tf = t.varint_u32()?;
        pairs.push((TermId(term), tf));
    }
    Ok(Document::from_pairs(pairs))
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn take_point(t: &mut Take<'_>) -> Result<Point, ProtocolError> {
    Ok(Point::new(t.f64()?, t.f64()?))
}

fn put_spec(out: &mut Vec<u8>, spec: &QuerySpec) {
    put_document(out, &spec.ox_doc);
    put_varint(out, spec.locations.len() as u64);
    for &l in &spec.locations {
        put_point(out, l);
    }
    put_varint(out, spec.keywords.len() as u64);
    for &k in &spec.keywords {
        put_varint(out, u64::from(k.0));
    }
    put_varint(out, spec.ws as u64);
    put_varint(out, spec.k as u64);
}

fn take_spec(t: &mut Take<'_>) -> Result<QuerySpec, ProtocolError> {
    let ox_doc = take_document(t)?;
    let n = t.count()?;
    let mut locations = Vec::with_capacity(n);
    for _ in 0..n {
        locations.push(take_point(t)?);
    }
    let n = t.count()?;
    let mut keywords = Vec::with_capacity(n);
    for _ in 0..n {
        keywords.push(TermId(t.varint_u32()?));
    }
    let ws = t.varint()? as usize;
    let k = t.varint()? as usize;
    Ok(QuerySpec {
        ox_doc,
        locations,
        keywords,
        ws,
        k,
    })
}

fn method_to_wire(m: Method) -> u8 {
    Method::ALL
        .iter()
        .position(|&x| x == m)
        .expect("built-in method") as u8
}

fn method_from_wire(b: u8) -> Result<Method, ProtocolError> {
    Method::ALL
        .get(b as usize)
        .copied()
        .ok_or_else(|| ProtocolError(format!("unknown method id {b}")))
}

fn put_mutation(out: &mut Vec<u8>, m: &Mutation) {
    match m {
        Mutation::InsertObject(o) => {
            out.push(0);
            put_varint(out, u64::from(o.id));
            put_point(out, o.point);
            put_document(out, &o.doc);
        }
        Mutation::RemoveObject(id) => {
            out.push(1);
            put_varint(out, u64::from(*id));
        }
        Mutation::InsertUser(u) => {
            out.push(2);
            put_varint(out, u64::from(u.id));
            put_point(out, u.point);
            put_document(out, &u.doc);
        }
        Mutation::RemoveUser(id) => {
            out.push(3);
            put_varint(out, u64::from(*id));
        }
    }
}

fn take_mutation(t: &mut Take<'_>) -> Result<Mutation, ProtocolError> {
    Ok(match t.u8()? {
        0 => {
            let id = t.varint_u32()?;
            let point = take_point(t)?;
            let doc = take_document(t)?;
            Mutation::InsertObject(ObjectData { id, point, doc })
        }
        1 => Mutation::RemoveObject(t.varint_u32()?),
        2 => {
            let id = t.varint_u32()?;
            let point = take_point(t)?;
            let doc = take_document(t)?;
            Mutation::InsertUser(UserData { id, point, doc })
        }
        3 => Mutation::RemoveUser(t.varint_u32()?),
        k => return err(format!("unknown mutation kind {k}")),
    })
}

fn put_result(out: &mut Vec<u8>, r: &QueryResult) {
    put_varint(out, r.location as u64);
    put_varint(out, r.keywords.len() as u64);
    for &k in &r.keywords {
        put_varint(out, u64::from(k.0));
    }
    put_varint(out, r.brstknn.len() as u64);
    for &u in &r.brstknn {
        put_varint(out, u64::from(u));
    }
}

fn take_result(t: &mut Take<'_>) -> Result<QueryResult, ProtocolError> {
    let location = t.varint()? as usize;
    let n = t.count()?;
    let mut keywords = Vec::with_capacity(n);
    for _ in 0..n {
        keywords.push(TermId(t.varint_u32()?));
    }
    let n = t.count()?;
    let mut brstknn = Vec::with_capacity(n);
    for _ in 0..n {
        brstknn.push(t.varint_u32()?);
    }
    Ok(QueryResult {
        location,
        keywords,
        brstknn,
    })
}

fn shed_to_wire(r: ShedReason) -> u8 {
    match r {
        ShedReason::QueueFull => 0,
    }
}

fn shed_from_wire(b: u8) -> Result<ShedReason, ProtocolError> {
    match b {
        0 => Ok(ShedReason::QueueFull),
        _ => err(format!("unknown shed reason {b}")),
    }
}

// ---------------------------------------------------------------------
// Message encode/decode (frame bodies: opcode + payload).

/// Encodes a request into a frame body (opcode + payload, no length
/// prefix — [`write_frame`] adds it).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match req {
        Request::Query { method, spec } => {
            out.push(0x01);
            out.push(method_to_wire(*method));
            put_spec(&mut out, spec);
        }
        Request::Mutate(m) => {
            out.push(0x02);
            put_mutation(&mut out, m);
        }
        Request::Stats => out.push(0x03),
        Request::Metrics => out.push(0x04),
    }
    out
}

/// Decodes a frame body into a [`Request`].
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let mut t = Take::new(body);
    let req = match t.u8()? {
        0x01 => {
            let method = method_from_wire(t.u8()?)?;
            let spec = take_spec(&mut t)?;
            Request::Query { method, spec }
        }
        0x02 => Request::Mutate(take_mutation(&mut t)?),
        0x03 => Request::Stats,
        0x04 => Request::Metrics,
        op => return err(format!("unknown request opcode {op:#04x}")),
    };
    t.finish()?;
    Ok(req)
}

/// Encodes a reply into a frame body.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match reply {
        Reply::Answer(r) => {
            out.push(0x81);
            put_result(&mut out, r);
        }
        Reply::MutateOk(io) => {
            out.push(0x82);
            put_varint(&mut out, io.reads);
            put_varint(&mut out, io.node_writes);
            put_varint(&mut out, io.payload_blocks);
        }
        Reply::MutateRejected => out.push(0x83),
        Reply::Stats(s) => {
            out.push(0x84);
            out.extend_from_slice(s.as_bytes());
        }
        Reply::Metrics(s) => {
            out.push(0x85);
            out.extend_from_slice(s.as_bytes());
        }
        Reply::Overloaded(r) => {
            out.push(0x86);
            out.push(shed_to_wire(*r));
        }
        Reply::Error(msg) => {
            out.push(0x87);
            out.extend_from_slice(msg.as_bytes());
        }
    }
    out
}

/// Decodes a frame body into a [`Reply`].
pub fn decode_reply(body: &[u8]) -> Result<Reply, ProtocolError> {
    let mut t = Take::new(body);
    let reply = match t.u8()? {
        0x81 => Reply::Answer(take_result(&mut t)?),
        0x82 => Reply::MutateOk(MaintenanceIo {
            reads: t.varint()?,
            node_writes: t.varint()?,
            payload_blocks: t.varint()?,
        }),
        0x83 => Reply::MutateRejected,
        0x84 => Reply::Stats(t.rest_utf8()?),
        0x85 => Reply::Metrics(t.rest_utf8()?),
        0x86 => Reply::Overloaded(shed_from_wire(t.u8()?)?),
        0x87 => Reply::Error(t.rest_utf8()?),
        op => return err(format!("unknown reply opcode {op:#04x}")),
    };
    t.finish()?;
    Ok(reply)
}

// ---------------------------------------------------------------------
// Frame I/O.

/// Writes one frame (length prefix + body) and flushes.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body. `Ok(None)` on clean EOF *between* frames; EOF
/// mid-frame is an error. Frames longer than `max_len` are rejected
/// without allocating, and the body buffer grows by at most 64 KiB ahead
/// of the bytes received.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(header);
    if len == 0 || len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {max_len}]"),
        ));
    }
    read_body(len as usize, |buf| r.read(buf)).map(Some)
}

/// Reads a `len`-byte frame body through `read` (which returns `Ok(0)` at
/// EOF), growing the buffer by at most [`READ_CHUNK`] bytes ahead of the
/// bytes received. EOF before `len` bytes is `UnexpectedEof`; an
/// `Interrupted` read is retried.
pub(crate) fn read_body(
    len: usize,
    mut read: impl FnMut(&mut [u8]) -> io::Result<usize>,
) -> io::Result<Vec<u8>> {
    let (mut body, mut got) = (Vec::new(), 0);
    while got < len {
        if got == body.len() {
            body.resize(len.min(got + READ_CHUNK), 0);
        }
        match read(&mut body[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(body)
}

enum ReadOutcome {
    Full,
    Eof,
}

/// `read_exact` that distinguishes clean EOF before the first byte from
/// EOF mid-buffer (the latter is an `UnexpectedEof` error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> QuerySpec {
        QuerySpec {
            ox_doc: Document::from_pairs([(TermId(3), 2), (TermId(9), 1)]),
            locations: vec![Point::new(1.25, -3.5), Point::new(f64::MIN_POSITIVE, 1e300)],
            keywords: vec![TermId(0), TermId(7), TermId(300_000)],
            ws: 2,
            k: 10,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query {
                method: Method::UserIndexExact,
                spec: spec(),
            },
            Request::Mutate(Mutation::InsertObject(ObjectData {
                id: 42,
                point: Point::new(0.125, 7.75),
                doc: Document::from_terms([TermId(1), TermId(2)]),
            })),
            Request::Mutate(Mutation::RemoveObject(7)),
            Request::Mutate(Mutation::InsertUser(UserData {
                id: 9,
                point: Point::new(-1.0, -2.0),
                doc: Document::from_terms([TermId(5)]),
            })),
            Request::Mutate(Mutation::RemoveUser(1)),
            Request::Stats,
            Request::Metrics,
        ];
        for req in reqs {
            let body = encode_request(&req);
            let back = decode_request(&body).unwrap();
            // Spot-check the interesting payloads bit-exactly.
            match (&req, &back) {
                (
                    Request::Query { method, spec },
                    Request::Query {
                        method: m2,
                        spec: s2,
                    },
                ) => {
                    assert_eq!(method, m2);
                    assert_eq!(spec.ox_doc, s2.ox_doc);
                    assert_eq!(spec.keywords, s2.keywords);
                    assert_eq!(spec.ws, s2.ws);
                    assert_eq!(spec.k, s2.k);
                    for (a, b) in spec.locations.iter().zip(&s2.locations) {
                        assert_eq!(a.x.to_bits(), b.x.to_bits());
                        assert_eq!(a.y.to_bits(), b.y.to_bits());
                    }
                }
                (Request::Mutate(a), Request::Mutate(b)) => match (a, b) {
                    (Mutation::InsertObject(x), Mutation::InsertObject(y)) => {
                        assert_eq!(x.id, y.id);
                        assert_eq!(x.doc, y.doc);
                        assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    }
                    (Mutation::RemoveObject(x), Mutation::RemoveObject(y)) => assert_eq!(x, y),
                    (Mutation::InsertUser(x), Mutation::InsertUser(y)) => {
                        assert_eq!(x.id, y.id);
                        assert_eq!(x.doc, y.doc);
                    }
                    (Mutation::RemoveUser(x), Mutation::RemoveUser(y)) => assert_eq!(x, y),
                    other => panic!("mutation kind changed: {other:?}"),
                },
                (Request::Stats, Request::Stats) | (Request::Metrics, Request::Metrics) => {}
                other => panic!("request kind changed: {other:?}"),
            }
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Answer(QueryResult {
                location: 3,
                keywords: vec![TermId(2), TermId(5)],
                brstknn: vec![0, 9, 100_000],
            }),
            Reply::MutateOk(MaintenanceIo {
                reads: 10,
                node_writes: 3,
                payload_blocks: 1 << 40,
            }),
            Reply::MutateRejected,
            Reply::Stats("{\"epoch\":3}".into()),
            Reply::Metrics("# TYPE x counter\nx 1\n".into()),
            Reply::Overloaded(ShedReason::QueueFull),
            Reply::Error("boom".into()),
        ];
        for r in replies {
            assert_eq!(decode_reply(&encode_reply(&r)).unwrap(), r);
        }
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        // Truncations of a valid query frame at every prefix length.
        let body = encode_request(&Request::Query {
            method: Method::Baseline,
            spec: spec(),
        });
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown opcodes, methods, mutation kinds, shed reasons.
        assert!(decode_request(&[0x7f]).is_err());
        assert!(decode_request(&[0x01, 99]).is_err());
        assert!(decode_request(&[0x02, 9]).is_err());
        assert!(decode_reply(&[0x00]).is_err());
        assert!(decode_reply(&[0x86, 9]).is_err());
        // Byte 1 once meant a journal-backlog shed; no server sends it.
        assert!(decode_reply(&[0x86, 1]).is_err());
        // Trailing garbage after a complete message.
        let mut noisy = encode_request(&Request::Stats);
        noisy.push(0);
        assert!(decode_request(&noisy).is_err());
        // A hostile count cannot balloon allocation: claims 2^28 entries
        // in a 3-byte frame.
        let mut hostile = vec![0x01, 0x00];
        hostile.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x01]); // varint 2^28
        assert!(decode_request(&hostile).is_err());
        // A query whose `k` is a 10-byte varint with bits past bit 63.
        let mut overflow = body.clone();
        overflow.pop(); // `k`, the last field, is one byte
        overflow.extend_from_slice(&[0xff; 9]);
        overflow.push(0x02);
        assert!(decode_request(&overflow).is_err());
        // Invalid utf-8 in a text reply.
        assert!(decode_reply(&[0x84, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn frame_io_round_trips_and_rejects_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, &[9]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 16).unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(read_frame(&mut r, 16).unwrap().unwrap(), vec![9]);
        assert!(read_frame(&mut r, 16).unwrap().is_none(), "clean EOF");

        // Oversize length prefix rejected without allocating.
        let huge = u32::MAX.to_le_bytes();
        assert!(read_frame(&mut &huge[..], 16).is_err());
        // Zero-length frames are invalid (every body has an opcode).
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut &zero[..], 16).is_err());
        // EOF mid-frame is an error, not a clean end.
        let mut cut = Vec::new();
        write_frame(&mut cut, &[1, 2, 3, 4]).unwrap();
        cut.truncate(6);
        assert!(read_frame(&mut &cut[..], 16).is_err());
    }

    /// Hands out at most one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_body_arriving_a_byte_at_a_time_decodes() {
        // Longer than one read chunk, so the buffer grows mid-body.
        let body: Vec<u8> = (0..READ_CHUNK as u32 + 1_000).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let got = read_frame(&mut Trickle(&wire), MAX_FRAME_LEN).unwrap();
        assert_eq!(got, Some(body));
    }

    #[test]
    fn a_header_without_its_body_is_unexpected_eof() {
        let header = MAX_FRAME_LEN.to_le_bytes();
        let err = read_frame(&mut &header[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
