//! The load generator: `clients` threads, one persistent connection
//! each. Closed loop (a caller waits for its reply before sending the
//! next request), an open-loop phase on a precomputed Poisson schedule,
//! and the quiesced write tail. Every reply is checked where it arrives.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mbrstk_core::{Mutation, QueryResult};
use serve::{Client, Reply, Request};

use crate::gen::{Op, Plan, QueryKey, WS};

/// Ops that did not produce a correct answer, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub shed: u64,
    pub error: u64,
    pub transport: u64,
    pub wrong: u64,
    pub rejected: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.shed + self.error + self.transport + self.wrong + self.rejected
    }

    pub fn add(&mut self, o: Failures) {
        self.shed += o.shed;
        self.error += o.error;
        self.transport += o.transport;
        self.wrong += o.wrong;
        self.rejected += o.rejected;
    }
}

/// How a query reply is judged.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Bit-for-bit against the in-process answer per query key.
    Exact(&'a [QueryResult]),
    /// Writes are in flight, so only what holds under every interleaving:
    /// at most `ws` keywords, a valid location index, known user ids.
    Structural(&'a HashSet<u32>),
}

impl Check<'_> {
    fn holds(&self, idx: usize, key: &QueryKey, got: &QueryResult) -> bool {
        match self {
            Check::Exact(expected) => *got == expected[idx],
            Check::Structural(universe) => {
                got.keywords.len() <= WS
                    && got.location < key.spec().locations.len()
                    && got.brstknn.iter().all(|u| universe.contains(u))
            }
        }
    }
}

/// What kind of request a sample timed: a query by method and `k`, or a
/// write by mutation kind. Requests of one class do the same work up to
/// the few percent by which location windows differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// `Method::name()` and `k`.
    Query(&'static str, usize),
    InsertObject,
    RemoveObject,
    InsertUser,
    RemoveUser,
}

impl OpClass {
    fn of_write(m: &Mutation) -> OpClass {
        match m {
            Mutation::InsertObject(_) => OpClass::InsertObject,
            Mutation::RemoveObject(_) => OpClass::RemoveObject,
            Mutation::InsertUser(_) => OpClass::InsertUser,
            Mutation::RemoveUser(_) => OpClass::RemoveUser,
        }
    }

    pub fn is_query(self) -> bool {
        matches!(self, OpClass::Query(..))
    }
}

/// One phase's samples and counts.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// First send to last reply across all clients.
    pub wall_s: f64,
    /// Closed loop and tail: class and round-trip time of every op.
    pub ops: Vec<(OpClass, u64)>,
    /// Open loop only: reply minus *scheduled* arrival.
    pub sched_ns: Vec<u64>,
    /// Open loop only: actual send minus scheduled arrival.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failures: Failures,
}

impl PhaseResult {
    fn merge(&mut self, o: PhaseResult) {
        self.ops.extend(o.ops);
        self.sched_ns.extend(o.sched_ns);
        self.late_ns.extend(o.late_ns);
        self.attempted += o.attempted;
        self.failures.add(o.failures);
    }
}

/// Connects the persistent client connections.
pub fn connect(addr: SocketAddr, clients: usize) -> Vec<Client> {
    (0..clients)
        .map(|_| Client::connect(addr).expect("connect to the loopback server"))
        .collect()
}

/// Sends one query and judges its reply; returns the latency.
fn query(
    client: &mut Client,
    plan: &Plan,
    idx: usize,
    check: Check<'_>,
    fails: &mut Failures,
) -> Duration {
    let key = &plan.queries[idx];
    let start = Instant::now();
    let reply = client.request(&key.request);
    let elapsed = start.elapsed();
    judge_answer(reply, |got| check.holds(idx, key, got), fails);
    elapsed
}

/// Books a query reply under the cause it failed by, if it did.
pub fn judge_answer(
    reply: std::io::Result<Reply>,
    holds: impl FnOnce(&QueryResult) -> bool,
    fails: &mut Failures,
) {
    match reply {
        Ok(Reply::Answer(got)) => fails.wrong += u64::from(!holds(&got)),
        Ok(Reply::Overloaded(_)) => fails.shed += 1,
        Ok(_) => fails.error += 1,
        Err(_) => fails.transport += 1,
    }
}

/// Sends one write and judges its reply; returns the ack latency.
fn write(client: &mut Client, mutation: &Mutation, fails: &mut Failures) -> Duration {
    let request = Request::Mutate(mutation.clone());
    let start = Instant::now();
    let reply = client.request(&request);
    let elapsed = start.elapsed();
    match reply {
        Ok(Reply::MutateOk(_)) => {}
        Ok(Reply::MutateRejected) => fails.rejected += 1,
        Ok(Reply::Overloaded(_)) => fails.shed += 1,
        Ok(_) => fails.error += 1,
        Err(_) => fails.transport += 1,
    }
    elapsed
}

/// Closed loop: every client replays its list back to back.
pub fn closed_loop(
    clients: &mut [Client],
    lists: &[Vec<Op>],
    plan: &Plan,
    check: Check<'_>,
) -> PhaseResult {
    assert_eq!(clients.len(), lists.len(), "one list per client");
    let barrier = Barrier::new(clients.len());
    let parts: Vec<(Instant, Instant, PhaseResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .map(|(client, list)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = PhaseResult::default();
                    barrier.wait();
                    let start = Instant::now();
                    for op in list {
                        out.attempted += 1;
                        match op {
                            Op::Query(idx) => {
                                let d = query(client, plan, *idx, check, &mut out.failures);
                                let key = &plan.queries[*idx];
                                let class = OpClass::Query(key.method.name(), key.spec().k);
                                out.ops.push((class, d.as_nanos() as u64));
                            }
                            Op::Write(m) => {
                                let d = write(client, m, &mut out.failures);
                                out.ops.push((OpClass::of_write(m), d.as_nanos() as u64));
                            }
                        }
                    }
                    (start, Instant::now(), out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    gather(parts)
}

fn gather(parts: Vec<(Instant, Instant, PhaseResult)>) -> PhaseResult {
    let first = parts
        .iter()
        .map(|p| p.0)
        .min()
        .expect("at least one client");
    let last = parts
        .iter()
        .map(|p| p.1)
        .max()
        .expect("at least one client");
    let mut total = PhaseResult {
        wall_s: (last - first).as_secs_f64(),
        ..PhaseResult::default()
    };
    for (_, _, part) in parts {
        total.merge(part);
    }
    total
}

/// Open loop: arrival `i` is due at `base + offset[i]` on connection
/// `i % clients`. Latency runs from the scheduled instant, so time a
/// request waits behind a slow predecessor on its connection is charged
/// to it, and how late the generator actually sent is reported.
pub fn open_loop(clients: &mut [Client], plan: &Plan, check: Check<'_>) -> PhaseResult {
    let n = clients.len();
    let base = Instant::now() + Duration::from_millis(5);
    let parts: Vec<(Instant, Instant, PhaseResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = PhaseResult::default();
                    for &(offset, idx) in plan.open.iter().skip(c).step_by(n) {
                        let due = base + offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        out.late_ns
                            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                        out.attempted += 1;
                        query(client, plan, idx, check, &mut out.failures);
                        out.sched_ns.push(due.elapsed().as_nanos() as u64);
                    }
                    (base, Instant::now(), out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    gather(parts)
}

/// The quiesced tail: one write at a time, round-robin over the
/// connections, nothing else in flight.
pub fn write_tail(clients: &mut [Client], writes: &[Mutation]) -> PhaseResult {
    let mut out = PhaseResult::default();
    let n = clients.len();
    let start = Instant::now();
    for (i, m) in writes.iter().enumerate() {
        out.attempted += 1;
        let d = write(&mut clients[i % n], m, &mut out.failures);
        out.ops.push((OpClass::of_write(m), d.as_nanos() as u64));
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Asks every listed query key once over TCP (round-robin over the
/// connections) and compares with `expected`.
pub fn verify_keys(
    clients: &mut [Client],
    plan: &Plan,
    keys: impl Iterator<Item = usize>,
    expected: &[QueryResult],
) -> PhaseResult {
    let mut out = PhaseResult::default();
    let n = clients.len();
    for (i, idx) in keys.enumerate() {
        out.attempted += 1;
        query(
            &mut clients[i % n],
            plan,
            idx,
            Check::Exact(expected),
            &mut out.failures,
        );
    }
    out
}
