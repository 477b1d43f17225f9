//! The three workloads' generated inputs. Everything here is built from
//! the `dprov-workloads` generators and the run's `--seed` before any
//! timing starts; the systems under test receive only these inputs.

use std::collections::BTreeMap;

use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::{AnalystConstraintSpec, SystemConfig};
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{GroupedRequest, QueryRequest, SubmissionMode};
use dprov_delta::UpdateBatch;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::database::Database;
use dprov_engine::datagen::adult::{adult_database, ADULT_TABLE};
use dprov_engine::query::Query;
use dprov_workloads::rrq::{generate, RrqConfig};
use dprov_workloads::skew::{generate_stream, StreamEvent, StreamingConfig};
use dprov_workloads::star::{generate_grouped, GroupedConfig};

/// One client operation of a lane.
#[derive(Clone)]
pub enum Op {
    Query {
        analyst: usize,
        request: QueryRequest,
    },
    Grouped {
        analyst: usize,
        request: GroupedRequest,
    },
    Update(UpdateBatch),
    Seal,
}

impl Op {
    pub fn analyst(&self) -> Option<usize> {
        match self {
            Op::Query { analyst, .. } | Op::Grouped { analyst, .. } => Some(*analyst),
            Op::Update(_) | Op::Seal => None,
        }
    }

    pub fn is_query(&self) -> bool {
        self.analyst().is_some()
    }
}

/// Which public surface a replay drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Entry {
    /// `DProvClient` over the event-loop TCP frontend.
    Tcp,
    /// `QueryService::submit_wait` in process.
    Service,
    /// `DProvDb::submit_with_rng` on the bare system.
    Core,
}

/// A workload's fixed part: the table, the roster and the configuration.
/// Its client streams are generated per trial pair by [`Workload::stream`].
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub db: Database,
    /// Analyst privilege levels; analyst `i` is named `analyst-{i}`.
    pub privileges: Vec<u8>,
    pub total_epsilon: f64,
    /// Trial `t` runs `mechanisms[t % len]`.
    pub mechanisms: Vec<MechanismKind>,
    /// The surface the end-to-end metrics are measured through.
    pub entry: Entry,
    /// Durable service: WAL with fsync on every append.
    pub durable: bool,
    generate: Generator,
}

/// Generates one client stream from the table and a stream seed.
type Generator = fn(&Database, u64) -> Stream;

/// One generated client stream.
pub struct Stream {
    /// Per-lane operations run before timing starts (counted in set-up).
    pub warmup: Vec<Vec<Op>>,
    /// Per-lane timed operations; one client thread per lane.
    pub lanes: Vec<Vec<Op>>,
}

impl Stream {
    pub fn ops(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    pub fn warmup_ops(&self) -> usize {
        self.warmup.iter().map(Vec::len).sum()
    }
}

/// Service worker threads for every workload.
pub const WORKERS: usize = 2;
/// The updater name configured on every service.
pub const UPDATER: &str = "loader";

impl Workload {
    pub fn config(&self) -> SystemConfig {
        SystemConfig::new(self.total_epsilon)
            .expect("positive table budget")
            .with_seed(self.seed)
            .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum)
    }

    pub fn registry(&self) -> AnalystRegistry {
        let mut registry = AnalystRegistry::new();
        for (i, &p) in self.privileges.iter().enumerate() {
            registry
                .register(&analyst_name(i), p)
                .expect("privilege in range");
        }
        registry
    }

    pub fn catalog(&self) -> ViewCatalog {
        ViewCatalog::one_per_attribute(&self.db, ADULT_TABLE).expect("adult views")
    }

    /// The client stream of trial pair `index`: generated from the run's
    /// seed and the index, so a run's inputs repeat exactly for its seed
    /// while the trials of one run average over many streams.
    pub fn stream(&self, index: u64) -> Stream {
        (self.generate)(
            &self.db,
            self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

pub fn analyst_name(i: usize) -> String {
    format!("analyst-{i}")
}

pub const WORKLOADS: [&str; 3] = ["rrq_accuracy", "tcp_cached", "durable_stream"];

pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let (rows, privileges, mechanisms, entry, durable, generate) = match name {
        // The paper's RRQ in accuracy mode, in process, with the
        // `service_throughput` configuration: 8 analysts (privileges 1–8),
        // 2 client threads with 4 sessions each; trials alternate the two
        // mechanisms so both translation and admission paths are timed.
        "rrq_accuracy" => (
            10_000,
            RRQ_ANALYSTS,
            vec![MechanismKind::Vanilla, MechanismKind::AdditiveGaussian],
            Entry::Service,
            false,
            rrq_stream as Generator,
        ),
        // Warm-cache traffic over the event-loop frontend: 2 connections,
        // one analyst session each, on the RRQ roster.
        "tcp_cached" => (
            10_000,
            RRQ_ANALYSTS,
            vec![MechanismKind::Vanilla],
            Entry::Tcp,
            false,
            tcp_stream as Generator,
        ),
        // Writes beside reads on the durable service (fsync on every WAL
        // append), adult at the paper's size, one client in stream order.
        "durable_stream" => (
            DURABLE_ROWS,
            DURABLE_ANALYSTS,
            vec![MechanismKind::Vanilla],
            Entry::Service,
            true,
            durable_stream_ops as Generator,
        ),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    Ok(Workload {
        name: WORKLOADS
            .into_iter()
            .find(|w| *w == name)
            .expect("matched above"),
        seed,
        db: adult_database(rows, seed),
        privileges: (1..=privileges as u8).collect(),
        total_epsilon: 25.6,
        mechanisms,
        entry,
        durable,
        generate,
    })
}

/// RRQ analysts of the `service_throughput` configuration.
const RRQ_ANALYSTS: usize = 8;
/// Queries per analyst in one trial. Small enough that one trial's
/// hit/miss/reject mix does not drift as budgets drain.
const RRQ_PER_ANALYST: usize = 100;

/// RRQ in accuracy mode: 2 lanes, each interleaving 4 analysts' queries.
fn rrq_stream(db: &Database, seed: u64) -> Stream {
    let mut config = RrqConfig::new(ADULT_TABLE, RRQ_PER_ANALYST, seed);
    config.attribute_bias = 1.0;
    config.accuracy_range = (1_000.0, 10_000.0);
    let workload = generate(db, &config, RRQ_ANALYSTS).expect("rrq over adult");
    let lanes = (0..2)
        .map(|lane| {
            let analysts: Vec<usize> = (lane..RRQ_ANALYSTS).step_by(2).collect();
            (0..RRQ_PER_ANALYST)
                .flat_map(|i| analysts.iter().map(move |&a| (a, i)).collect::<Vec<_>>())
                .map(|(a, i)| Op::Query {
                    analyst: a,
                    request: workload.per_analyst[a][i].clone(),
                })
                .collect()
        })
        .collect();
    Stream {
        warmup: vec![Vec::new(), Vec::new()],
        lanes,
    }
}

/// Scalar and grouped requests per TCP connection in one trial.
const TCP_OPS_PER_CLIENT: usize = 6_000;
/// One request in this many is a single-attribute GROUP BY.
const TCP_GROUPED_EVERY: usize = 16;

/// Warm-cache traffic: one lane per connection, each one analyst session
/// (the two highest privileges of the RRQ roster). A warm-up buys, per
/// (analyst, view), the synopsis the tightest request of the stream needs,
/// so every timed request is a cache hit.
fn tcp_stream(db: &Database, seed: u64) -> Stream {
    let clients = [RRQ_ANALYSTS - 2, RRQ_ANALYSTS - 1];
    let grouped_per_client = TCP_OPS_PER_CLIENT / TCP_GROUPED_EVERY;
    let scalar_per_client = TCP_OPS_PER_CLIENT - grouped_per_client;
    let mut config = RrqConfig::new(ADULT_TABLE, scalar_per_client, seed);
    config.attribute_bias = 1.0;
    config.accuracy_range = (20_000.0, 200_000.0);
    let scalar = generate(db, &config, clients.len()).expect("rrq over adult");
    // Single-attribute grouped COUNTs: the shape the one-way view catalog
    // answers. The generator's pair groupings and SUMs need views this
    // catalog does not have, so they are filtered out, and the generator
    // is asked for enough requests to fill the share.
    let grouped = generate_grouped(
        db,
        &GroupedConfig::grouped_heavy(ADULT_TABLE, clients.len(), grouped_per_client * 4)
            .with_seed(seed),
    )
    .expect("grouped over adult");

    let mut warmup = Vec::new();
    let mut lanes = Vec::new();
    for (c, &analyst) in clients.iter().enumerate() {
        let mut grouped_iter = grouped.per_analyst[c].iter().filter(|r| {
            r.query.group_cols.len() == 1
                && matches!(r.query.aggregate, dprov_engine::query::AggregateKind::Count)
        });
        let mut scalar_iter = scalar.per_analyst[c].iter();
        let mut lane = Vec::with_capacity(TCP_OPS_PER_CLIENT);
        for i in 0..TCP_OPS_PER_CLIENT {
            let op = if i % TCP_GROUPED_EVERY == TCP_GROUPED_EVERY - 1 {
                grouped_iter.next().map(|r| Op::Grouped {
                    analyst,
                    request: r.clone(),
                })
            } else {
                scalar_iter.next().map(|r| Op::Query {
                    analyst,
                    request: r.clone(),
                })
            };
            lane.push(op.expect("generator produced enough requests"));
        }
        warmup.push(tightest_per_view(db, &lane));
        lanes.push(lane);
    }
    Stream { warmup, lanes }
}

/// Per view, a copy of the lane's request with the smallest per-bin
/// variance target: once it is answered, every other request of the lane
/// on that view is met by the cached synopsis.
fn tightest_per_view(db: &Database, lane: &[Op]) -> Vec<Op> {
    let catalog = ViewCatalog::one_per_attribute(db, ADULT_TABLE).expect("adult views");
    let schema = db.table(ADULT_TABLE).expect("adult table").schema().clone();
    let mut best: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (i, op) in lane.iter().enumerate() {
        let (query, mode) = match op {
            Op::Query { request, .. } => (request.query.clone(), request.mode),
            Op::Grouped { request, .. } => (
                request
                    .query
                    .scalar_queries(&schema)
                    .expect("grouping over the adult schema")
                    .swap_remove(0),
                request.mode,
            ),
            Op::Update(_) | Op::Seal => continue,
        };
        let SubmissionMode::Accuracy { variance } = mode else {
            continue;
        };
        let Ok((view, linear)) = catalog.select_view(&query, db) else {
            continue;
        };
        let target = variance / linear.answer_variance(1.0);
        let slot = best.entry(view.name).or_insert((f64::INFINITY, i));
        if target < slot.0 {
            *slot = (target, i);
        }
    }
    best.values().map(|&(_, i)| lane[i].clone()).collect()
}

/// Adult at the paper's size.
const DURABLE_ROWS: usize = 45_222;
const DURABLE_ANALYSTS: usize = 4;
const DURABLE_QUERIES_PER_ANALYST: usize = 120;
/// The fixed epsilon every privacy-mode query asks for.
const DURABLE_EPSILON: f64 = 0.05;

/// The update-heavy stream shape (~40% update batches, a seal every 4
/// batches) with its queries re-issued in privacy mode at a fixed epsilon,
/// replayed in order by one client.
fn durable_stream_ops(db: &Database, seed: u64) -> Stream {
    let config =
        StreamingConfig::update_heavy(ADULT_TABLE, DURABLE_ANALYSTS, DURABLE_QUERIES_PER_ANALYST)
            .with_seed(seed);
    let events = generate_stream(db, &config).expect("stream over adult");
    let lane = events
        .into_iter()
        .map(|event| match event {
            StreamEvent::Query { analyst, request } => Op::Query {
                analyst,
                request: QueryRequest::with_privacy(request.query, DURABLE_EPSILON),
            },
            StreamEvent::Update(batch) => Op::Update(batch),
            StreamEvent::Seal => Op::Seal,
        })
        .collect();
    Stream {
        warmup: vec![Vec::new()],
        lanes: vec![lane],
    }
}

/// The query a leaf replay resolves for an operation (grouped requests are
/// timed as a whole by `answer_group_by_with_rng`, not through leaves).
pub fn scalar_query(op: &Op) -> Option<(&Query, SubmissionMode)> {
    match op {
        Op::Query { request, .. } => Some((&request.query, request.mode)),
        _ => None,
    }
}
