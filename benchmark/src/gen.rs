//! Inputs: the fixed corpus and user set, and everything `--seed` drives
//! — query variants, per-client op lists, the open-loop arrival schedule
//! and the objects and users the writes insert. The server sees only the
//! requests generated here.

use std::collections::HashSet;
use std::time::Duration;

use datagen::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use geo::Point;
use mbrstk_core::{Method, Mutation, ObjectData, QuerySpec, UserData};
use serve::Request;
use text::{Document, TermId, WeightModel};

use crate::catalogue::{Workload, REFERENCE_SECONDS, TAIL_WRITES, VARIANTS};

/// Table 5 bold values shared by every workload.
pub const ALPHA: f64 = 0.5;
pub const FANOUT: usize = 32;
pub const WS: usize = 3;

/// The weight model of every engine (the paper's LM default).
pub fn model() -> WeightModel {
    WeightModel::lm()
}

/// Seed of the user set. The user window decides how much work one query
/// is (cold joint-greedy spans 22-44 ms across user seeds), so it is part
/// of the fixed data set; `--seed` drives the traffic.
const USER_SEED: u64 = 100;

/// Ids the writes insert start here, far above every seed id.
const FRESH_ID_BASE: u32 = 10_000_000;
const FRESH_ID_STRIDE: u32 = 1_000_000;

/// Corpus and user-set sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub name: &'static str,
    pub objects: usize,
    pub users: usize,
    pub locations: usize,
}

impl Scale {
    /// The measured configuration: Table 5 bold values over 100K objects.
    pub const FULL: Scale = Scale {
        name: "full",
        objects: 100_000,
        users: 1_000,
        locations: 50,
    };
    /// A few seconds end to end, for `cargo test`.
    pub const QUICK: Scale = Scale {
        name: "quick",
        objects: 4_000,
        users: 120,
        locations: 20,
    };

    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::FULL, Scale::QUICK]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// The seed-independent data set.
#[derive(Debug, Clone)]
pub struct Data {
    pub objects: Vec<ObjectData>,
    pub users: Vec<UserData>,
    pub keywords: Vec<TermId>,
    pub locations: Vec<Point>,
}

impl Data {
    pub fn generate(scale: Scale) -> Data {
        let objects = generate_objects(&CorpusConfig::flickr_like(scale.objects));
        let wl = generate_workload(
            &objects,
            &UserGenConfig {
                num_users: scale.users,
                area: 5.0,
                uw: 20,
                ul: 3,
                num_locations: scale.locations,
                seed: USER_SEED,
            },
        );
        Data {
            objects,
            users: wl.users,
            keywords: wl.candidate_keywords,
            locations: wl.candidate_locations,
        }
    }
}

/// One step of a client's list: an index into [`Plan::queries`] or a write.
#[derive(Debug, Clone)]
pub enum Op {
    Query(usize),
    Write(Mutation),
}

/// One distinct query request of a run (variant × method; the variant
/// fixes `k`) with its wire form built once.
#[derive(Debug, Clone)]
pub struct QueryKey {
    pub variant: usize,
    pub method: Method,
    pub request: Request,
}

impl QueryKey {
    pub fn spec(&self) -> &QuerySpec {
        match &self.request {
            Request::Query { spec, .. } => spec,
            _ => unreachable!("query keys hold query requests"),
        }
    }
}

/// Everything one run replays, fixed by `(workload, seed, seconds,
/// clients)`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub queries: Vec<QueryKey>,
    /// Untimed warm-up, one list per client.
    pub warmup: Vec<Vec<Op>>,
    /// The timed closed loop, one list per client.
    pub closed: Vec<Vec<Op>>,
    /// Open-loop arrivals (reads only): offset from the phase start and
    /// query key; arrival `i` goes out on connection `i % clients`.
    pub open: Vec<(Duration, usize)>,
    /// Quiesced tail writes (inserts), issued one at a time.
    pub tail: Vec<Mutation>,
    /// Requests the traced pass replays.
    pub replay: Vec<usize>,
    /// Every user id an answer may name: seed users plus every user any
    /// list inserts.
    pub user_universe: HashSet<u32>,
    /// Writes in the closed loop (sets the refresher cadence).
    pub closed_writes: usize,
}

fn scaled(count: usize, seconds: f64) -> usize {
    ((count as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(1)
}

/// Per-client generator of self-consistent writes: a client removes only
/// ids it inserted itself or seed ids of its own parity class, so no
/// mutation is rejected under any interleaving of the clients.
struct WriteGen<'a> {
    data: &'a Data,
    client: usize,
    clients: usize,
    next_object: u32,
    next_user: u32,
    live_objects: Vec<u32>,
    live_users: Vec<u32>,
    removed_seed_objects: HashSet<u32>,
    removed_seed_users: HashSet<u32>,
}

impl<'a> WriteGen<'a> {
    fn new(data: &'a Data, client: usize, clients: usize) -> Self {
        let base = FRESH_ID_BASE + client as u32 * FRESH_ID_STRIDE;
        WriteGen {
            data,
            client,
            clients,
            next_object: base,
            next_user: base,
            live_objects: Vec::new(),
            live_users: Vec::new(),
            removed_seed_objects: HashSet::new(),
            removed_seed_users: HashSet::new(),
        }
    }

    fn insert_object(&mut self, rng: &mut StdRng) -> Mutation {
        let donor = &self.data.objects[rng.gen_range(0..self.data.objects.len())];
        let id = self.next_object;
        self.next_object += 1;
        self.live_objects.push(id);
        Mutation::InsertObject(ObjectData {
            id,
            point: donor.point,
            doc: donor.doc.clone(),
        })
    }

    fn insert_user(&mut self, rng: &mut StdRng) -> Mutation {
        let donor = &self.data.users[rng.gen_range(0..self.data.users.len())];
        let id = self.next_user;
        self.next_user += 1;
        self.live_users.push(id);
        Mutation::InsertUser(UserData {
            id,
            point: donor.point,
            doc: donor.doc.clone(),
        })
    }

    /// A seed id of this client's parity class not removed before.
    fn seed_victim(
        rng: &mut StdRng,
        ids: impl Fn(usize) -> u32,
        len: usize,
        client: usize,
        clients: usize,
        removed: &mut HashSet<u32>,
    ) -> Option<u32> {
        for _ in 0..64 {
            let id = ids(rng.gen_range(0..len));
            if id as usize % clients == client && removed.insert(id) {
                return Some(id);
            }
        }
        None
    }

    fn remove_object(&mut self, rng: &mut StdRng) -> Mutation {
        if !self.live_objects.is_empty() && rng.gen_bool(0.5) {
            let i = rng.gen_range(0..self.live_objects.len());
            return Mutation::RemoveObject(self.live_objects.swap_remove(i));
        }
        let objects = &self.data.objects;
        match Self::seed_victim(
            rng,
            |i| objects[i].id,
            objects.len(),
            self.client,
            self.clients,
            &mut self.removed_seed_objects,
        ) {
            Some(id) => Mutation::RemoveObject(id),
            None => self.insert_object(rng),
        }
    }

    fn remove_user(&mut self, rng: &mut StdRng) -> Mutation {
        if !self.live_users.is_empty() && rng.gen_bool(0.5) {
            let i = rng.gen_range(0..self.live_users.len());
            return Mutation::RemoveUser(self.live_users.swap_remove(i));
        }
        let users = &self.data.users;
        // Keep most of the seed users: answers stay comparable in size.
        if self.removed_seed_users.len() * 8 >= users.len() {
            return self.insert_user(rng);
        }
        match Self::seed_victim(
            rng,
            |i| users[i].id,
            users.len(),
            self.client,
            self.clients,
            &mut self.removed_seed_users,
        ) {
            Some(id) => Mutation::RemoveUser(id),
            None => self.insert_user(rng),
        }
    }

    /// Three in four writes touch objects, one in four users; half
    /// insert, half remove.
    fn next(&mut self, rng: &mut StdRng) -> Mutation {
        let object = rng.gen_bool(0.75);
        let insert = rng.gen_bool(0.5);
        match (object, insert) {
            (true, true) => self.insert_object(rng),
            (true, false) => self.remove_object(rng),
            (false, true) => self.insert_user(rng),
            (false, false) => self.remove_user(rng),
        }
    }
}

fn pick_method(methods: &[(Method, u32)], rng: &mut StdRng) -> usize {
    let total: u32 = methods.iter().map(|m| m.1).sum();
    let mut draw = rng.gen_range(0..total as usize) as u32;
    for (i, (_, w)) in methods.iter().enumerate() {
        if draw < *w {
            return i;
        }
        draw -= w;
    }
    unreachable!("weights sum to total")
}

impl Plan {
    /// FNV-1a over the debug rendering of every list: equal plans, and
    /// only equal plans, print equal.
    pub fn fingerprint(&self) -> u64 {
        let text = format!(
            "{:?}{:?}{:?}{:?}{:?}",
            self.closed, self.warmup, self.open, self.tail, self.replay
        );
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    pub fn generate(data: &Data, w: &Workload, seed: u64, seconds: f64, clients: usize) -> Plan {
        assert!(clients >= 1, "at least one client");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0B5E_55ED);

        // Variants: the location pool in a seed-drawn order, rotated by
        // `i`, half-pool window (as `Scenario::batch_specs`).
        let mut pool = data.locations.clone();
        pool.shuffle(&mut rng);
        let take = (pool.len() / 2).max(1);
        let mut queries = Vec::with_capacity(VARIANTS * w.methods.len());
        for variant in 0..VARIANTS {
            let mut locations = pool.clone();
            locations.rotate_left(variant % pool.len());
            locations.truncate(take);
            let spec = QuerySpec {
                ox_doc: Document::new(),
                locations,
                keywords: data.keywords.clone(),
                ws: WS,
                k: w.ks[variant % w.ks.len()],
            };
            for &(method, _) in w.methods {
                queries.push(QueryKey {
                    variant,
                    method,
                    request: Request::Query {
                        method,
                        spec: spec.clone(),
                    },
                });
            }
        }
        let draw_query = |rng: &mut StdRng| {
            rng.gen_range(0..VARIANTS) * w.methods.len() + pick_method(w.methods, rng)
        };

        // Warm-up primes connections, worker arenas and the allocator;
        // the caches were filled when the expected answers were computed.
        let mut warmup = vec![Vec::new(); clients];
        for i in 0..16 * clients {
            warmup[i % clients].push(Op::Query(draw_query(&mut rng)));
        }

        let closed_total = scaled(w.closed_ops, seconds);
        let mut closed = Vec::with_capacity(clients);
        let mut closed_writes = 0;
        let mut user_universe: HashSet<u32> = data.users.iter().map(|u| u.id).collect();
        for client in 0..clients {
            let n = closed_total / clients + usize::from(client < closed_total % clients);
            let mut writes = WriteGen::new(data, client, clients);
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                if w.write_frac > 0.0 && rng.gen_bool(w.write_frac) {
                    let m = writes.next(&mut rng);
                    if let Mutation::InsertUser(u) = &m {
                        user_universe.insert(u.id);
                    }
                    list.push(Op::Write(m));
                    closed_writes += 1;
                } else {
                    list.push(Op::Query(draw_query(&mut rng)));
                }
            }
            closed.push(list);
        }

        // Poisson arrivals: exponential gaps with mean 1/rate.
        let open_n = scaled((w.open_rate * REFERENCE_SECONDS * 0.3) as usize, seconds);
        let mut open = Vec::with_capacity(open_n);
        let mut t = 0.0f64;
        for _ in 0..open_n {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / w.open_rate;
            open.push((Duration::from_secs_f64(t), draw_query(&mut rng)));
        }

        // Tail ids come from a client slot no closed-loop list uses.
        let mut tail_gen = WriteGen::new(data, clients, clients + 1);
        let tail = (0..TAIL_WRITES)
            .map(|i| {
                let m = if i % 4 == 3 {
                    tail_gen.insert_user(&mut rng)
                } else {
                    tail_gen.insert_object(&mut rng)
                };
                if let Mutation::InsertUser(u) = &m {
                    user_universe.insert(u.id);
                }
                m
            })
            .collect();

        let replay = (0..scaled(200, seconds * REFERENCE_SECONDS / 24.0))
            .map(|_| draw_query(&mut rng))
            .collect();

        Plan {
            queries,
            warmup,
            closed,
            open,
            tail,
            replay,
            user_universe,
            closed_writes,
        }
    }
}
