//! One trial: a fresh system plus the workload's generated stream, driven
//! through one public surface, with the output checks.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprov_api::protocol::{Request, Response};
use dprov_api::{DProvClient, MuxConnection};
use dprov_core::analyst::AnalystId;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{GroupedOutcome, QueryOutcome, SubmissionMode};
use dprov_core::recorder::{AccessRecord, CommitRecord, Recorder};
use dprov_core::system::{DProvDb, EpochReport};
use dprov_core::StorageError;
use dprov_delta::EncodedBatch;
use dprov_dp::rng::DpRng;
use dprov_net::{EventLoopFrontend, NetConfig};
use dprov_server::{DurabilityConfig, QueryService, ServiceConfig, SessionId};
use dprov_storage::{ProvenanceStore, StoreOptions};

use crate::inputs::{analyst_name, Entry, Op, Stream, Workload, UPDATER, WORKERS};
use crate::trace;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Answered from a cached synopsis.
    Hit,
    /// A fresh release that spent budget.
    Miss,
    /// A legitimate DP refusal.
    Reject,
    Update,
    Seal,
    /// An `Err` from the call.
    Failed,
}

/// What one operation returned.
pub enum Done {
    Query(QueryOutcome),
    Grouped(GroupedOutcome),
    Update {
        batch_seq: u64,
        pending: u64,
    },
    Seal {
        epoch: u64,
        batches: u64,
        rows: u64,
        views_patched: u64,
        invalidated: u64,
    },
    /// The surface has no call for this operation (grouped requests go
    /// only through `DProvClient::group_by` and the core).
    Skipped,
}

/// One timed operation.
pub struct Rec {
    /// Request id shared with the spans of this operation.
    pub req: u64,
    pub lane: usize,
    pub idx: usize,
    pub warm: bool,
    pub us: f64,
    pub kind: Kind,
    /// Group cells of a grouped request (0 otherwise).
    pub cells: usize,
    pub invalidated: u64,
    /// Kept only when a replay asks for outcomes (codec measurement).
    pub done: Option<Box<Done>>,
}

pub struct TrialOut {
    pub mechanism: MechanismKind,
    pub setup_s: f64,
    pub timed_s: f64,
    pub recs: Vec<Rec>,
    pub eps_spent: f64,
    /// Output-check failures (overspent constraints, accuracy misses,
    /// recovery mismatch).
    pub violations: Vec<String>,
    /// Core replays: the timing store's append latencies and counters.
    pub store: Option<StoreFigures>,
    /// Durable service replays: `QueryService::checkpoint()` time.
    pub checkpoint_ms: Option<f64>,
}

pub struct StoreFigures {
    /// (request id, microseconds) per ledger append.
    pub append_us: Vec<(u64, f64)>,
    pub appends: u64,
    pub wal_bytes: u64,
}

pub struct TrialOpts {
    pub keep_outcomes: bool,
    /// After the trial, reopen the WAL with `start_durable` and compare the
    /// recovered ledger with the live one.
    pub verify_recovery: bool,
    pub time_checkpoint: bool,
    /// Core replays: attach a timed durable store as the recorder.
    pub journal: bool,
}

/// A per-trial directory under the checkout, removed on drop (also while
/// unwinding from a panic).
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(root: &Path, tag: &str) -> Result<Self, String> {
        let dir = root.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create WAL directory {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wraps the durable store as the system's recorder and times every
/// ledger append as a child span of the submission that caused it.
struct TimingStore {
    inner: Arc<ProvenanceStore>,
    append_us: Mutex<Vec<(u64, f64)>>,
}

impl TimingStore {
    fn timed(&self, f: impl FnOnce() -> Result<(), StorageError>) -> Result<(), StorageError> {
        let (out, us) = trace::child("storage.append", f);
        self.append_us
            .lock()
            .expect("timing store poisoned")
            .push((trace::current_req(), us));
        out
    }
}

impl Recorder for TimingStore {
    fn record_commit(&self, record: &CommitRecord) -> Result<(), StorageError> {
        self.timed(|| self.inner.record_commit(record))
    }
    fn record_access(&self, record: &AccessRecord) -> Result<(), StorageError> {
        self.timed(|| self.inner.record_access(record))
    }
    fn record_rollback(&self, seq: u64) -> Result<(), StorageError> {
        self.timed(|| self.inner.record_rollback(seq))
    }
    fn record_update(&self, batch: &EncodedBatch) -> Result<(), StorageError> {
        self.timed(|| self.inner.record_update(batch))
    }
    fn record_epoch_seal(&self, epoch: u64, through_seq: u64) -> Result<(), StorageError> {
        self.timed(|| self.inner.record_epoch_seal(epoch, through_seq))
    }
}

/// A lane's client state on one surface.
enum Lane<'a> {
    Tcp {
        clients: HashMap<usize, DProvClient>,
        updater: Option<DProvClient>,
        /// Keeps a multiplexed socket open while its channels are in use.
        _mux: Option<MuxConnection>,
    },
    Service {
        service: &'a QueryService,
        sessions: HashMap<usize, SessionId>,
    },
    Core {
        system: &'a DProvDb,
        rngs: HashMap<usize, DpRng>,
    },
}

impl Lane<'_> {
    fn exec(&mut self, op: &Op) -> Result<Done, String> {
        match self {
            Lane::Tcp {
                clients, updater, ..
            } => {
                let s = |e: dprov_api::ApiError| e.to_string();
                match op {
                    Op::Query { analyst, request } => client(clients, *analyst)?
                        .query(request)
                        .map(Done::Query)
                        .map_err(s),
                    Op::Grouped { analyst, request } => client(clients, *analyst)?
                        .group_by(request)
                        .map(Done::Grouped)
                        .map_err(s),
                    Op::Update(batch) => {
                        let (batch_seq, pending) = updater
                            .as_mut()
                            .ok_or("lane has no updater connection")?
                            .apply_update(batch)
                            .map_err(s)?;
                        Ok(Done::Update { batch_seq, pending })
                    }
                    Op::Seal => {
                        let report = updater
                            .as_mut()
                            .ok_or("lane has no updater connection")?
                            .seal_epoch()
                            .map_err(s)?;
                        Ok(Done::Seal {
                            epoch: report.epoch,
                            batches: report.batches,
                            rows: report.rows,
                            views_patched: report.views_patched,
                            invalidated: report.synopses_invalidated,
                        })
                    }
                }
            }
            Lane::Service { service, sessions } => match op {
                Op::Query { analyst, request } => service
                    .submit_wait(sessions[analyst], request.clone())
                    .map(Done::Query)
                    .map_err(|e| e.to_string()),
                Op::Grouped { .. } => Ok(Done::Skipped),
                Op::Update(batch) => service
                    .apply_update(batch)
                    .map(|batch_seq| Done::Update {
                        batch_seq,
                        pending: 0,
                    })
                    .map_err(|e| e.to_string()),
                Op::Seal => service.seal_epoch().map(sealed).map_err(|e| e.to_string()),
            },
            Lane::Core { system, rngs } => match op {
                Op::Query { analyst, request } => system
                    .submit_with_rng(AnalystId(*analyst), request, rng(rngs, *analyst)?)
                    .map(Done::Query)
                    .map_err(|e| e.to_string()),
                Op::Grouped { analyst, request } => system
                    .answer_group_by_with_rng(AnalystId(*analyst), request, rng(rngs, *analyst)?)
                    .map(Done::Grouped)
                    .map_err(|e| e.to_string()),
                Op::Update(batch) => system
                    .apply_update(batch)
                    .map(|batch_seq| Done::Update {
                        batch_seq,
                        pending: 0,
                    })
                    .map_err(|e| e.to_string()),
                Op::Seal => system.seal_epoch().map(sealed).map_err(|e| e.to_string()),
            },
        }
    }
}

fn sealed(r: EpochReport) -> Done {
    Done::Seal {
        epoch: r.epoch,
        batches: r.batches as u64,
        rows: r.rows as u64,
        views_patched: r.views_patched.len() as u64,
        invalidated: r.synopses_invalidated as u64,
    }
}

fn client(clients: &mut HashMap<usize, DProvClient>, a: usize) -> Result<&mut DProvClient, String> {
    clients
        .get_mut(&a)
        .ok_or_else(|| format!("no connection for analyst {a}"))
}

fn rng(rngs: &mut HashMap<usize, DpRng>, a: usize) -> Result<&mut DpRng, String> {
    rngs.get_mut(&a)
        .ok_or_else(|| format!("no noise stream for analyst {a}"))
}

/// Span name of an operation on a surface.
fn span_name(entry: Entry, op: &Op) -> &'static str {
    match (entry, op) {
        (Entry::Tcp, Op::Query { .. }) => "api.DProvClient::query",
        (Entry::Tcp, Op::Grouped { .. }) => "api.DProvClient::group_by",
        (Entry::Tcp, Op::Update(_)) => "api.DProvClient::apply_update",
        (Entry::Tcp, Op::Seal) => "api.DProvClient::seal_epoch",
        (Entry::Service, Op::Query { .. }) => "server.submit_wait",
        (Entry::Service, Op::Grouped { .. }) => "server.grouped_not_sent",
        (Entry::Service, Op::Update(_)) => "server.apply_update",
        (Entry::Service, Op::Seal) => "server.seal_epoch",
        (Entry::Core, Op::Query { .. }) => "core.submit_with_rng",
        (Entry::Core, Op::Grouped { .. }) => "core.answer_group_by_with_rng",
        (Entry::Core, Op::Update(_)) => "delta.apply_update",
        (Entry::Core, Op::Seal) => "delta.seal_epoch",
    }
}

/// Classifies an outcome and checks accuracy-mode answers against their
/// requested variance. Returns (kind, cells, invalidated, accuracy misses).
fn classify(op: &Op, done: &Done) -> (Kind, usize, u64, usize) {
    let over = |mode: SubmissionMode, v: f64| match mode {
        SubmissionMode::Accuracy { variance } => usize::from(v > variance * (1.0 + 1e-9)),
        SubmissionMode::Privacy { .. } => 0,
    };
    match (op, done) {
        (Op::Query { request, .. }, Done::Query(outcome)) => match outcome {
            QueryOutcome::Answered(a) => (
                if a.from_cache { Kind::Hit } else { Kind::Miss },
                0,
                0,
                over(request.mode, a.noise_variance),
            ),
            QueryOutcome::Rejected { .. } => (Kind::Reject, 0, 0, 0),
        },
        (Op::Grouped { request, .. }, Done::Grouped(g)) => {
            let answered: Vec<_> = g
                .outcomes
                .iter()
                .filter_map(QueryOutcome::answered)
                .collect();
            let misses = answered
                .iter()
                .filter(|a| over(request.mode, a.noise_variance) > 0)
                .count();
            let kind = if answered.iter().any(|a| !a.from_cache) {
                Kind::Miss
            } else if answered.len() == g.outcomes.len() {
                Kind::Hit
            } else {
                Kind::Reject
            };
            (kind, g.outcomes.len(), 0, misses)
        }
        (Op::Update(_), Done::Update { .. }) => (Kind::Update, 0, 0, 0),
        (Op::Seal, Done::Seal { invalidated, .. }) => (Kind::Seal, 0, *invalidated, 0),
        _ => (Kind::Failed, 0, 0, 0),
    }
}

/// Runs a lane's operations in order, one at a time (closed loop).
fn run_lane(
    lane: &mut Lane<'_>,
    entry: Entry,
    ops: &[Op],
    lane_idx: usize,
    warm: bool,
    keep: bool,
) -> (Vec<Rec>, Vec<String>) {
    let mut recs = Vec::with_capacity(ops.len());
    let mut violations = Vec::new();
    for (idx, op) in ops.iter().enumerate() {
        let req = trace::next_req();
        let (result, us) = trace::root(span_name(entry, op), req, || lane.exec(op));
        let rec = match result {
            Ok(Done::Skipped) => continue,
            Ok(done) => {
                let (kind, cells, invalidated, over) = classify(op, &done);
                if over > 0 {
                    violations.push(format!(
                        "lane {lane_idx} op {idx}: {over} answer(s) above the requested variance"
                    ));
                }
                Rec {
                    req,
                    lane: lane_idx,
                    idx,
                    warm,
                    us,
                    kind,
                    cells,
                    invalidated,
                    done: keep.then(|| Box::new(done)),
                }
            }
            Err(e) => {
                eprintln!("lane {lane_idx} op {idx} failed: {e}");
                Rec {
                    req,
                    lane: lane_idx,
                    idx,
                    warm,
                    us,
                    kind: Kind::Failed,
                    cells: 0,
                    invalidated: 0,
                    done: None,
                }
            }
        };
        recs.push(rec);
    }
    (recs, violations)
}

/// Runs every lane on its own thread and waits for all of them.
fn run_lanes(
    lanes: &mut [Lane<'_>],
    entry: Entry,
    ops: &[Vec<Op>],
    warm: bool,
    keep: bool,
) -> (Vec<Rec>, Vec<String>) {
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(ops)
            .enumerate()
            .map(|(i, (lane, ops))| s.spawn(move || run_lane(lane, entry, ops, i, warm, keep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut recs = Vec::new();
    let mut violations = Vec::new();
    for (r, v) in results {
        recs.extend(r);
        violations.extend(v);
    }
    (recs, violations)
}

/// The warm-up (part of set-up, which started at `start`) and the timed
/// phase of a trial.
struct Phases {
    recs: Vec<Rec>,
    violations: Vec<String>,
    setup_s: f64,
    timed_s: f64,
}

fn run_phases(
    mut lanes: Vec<Lane<'_>>,
    entry: Entry,
    stream: &Stream,
    start: Instant,
    keep: bool,
) -> Phases {
    let (mut recs, mut violations) = run_lanes(&mut lanes, entry, &stream.warmup, true, keep);
    let setup_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let (timed, v) = run_lanes(&mut lanes, entry, &stream.lanes, false, keep);
    let timed_s = t.elapsed().as_secs_f64();
    recs.extend(timed);
    violations.extend(v);
    Phases {
        recs,
        violations,
        setup_s,
        timed_s,
    }
}

/// Analysts a lane submits for, and whether it updates, in first-use order.
fn lane_roles(stream: &Stream, lane: usize) -> (Vec<usize>, bool) {
    let mut analysts = Vec::new();
    let mut updates = false;
    for op in stream.warmup[lane].iter().chain(&stream.lanes[lane]) {
        match op.analyst() {
            Some(a) if !analysts.contains(&a) => analysts.push(a),
            Some(_) => {}
            None => updates = true,
        }
    }
    (analysts, updates)
}

fn service_config() -> ServiceConfig {
    ServiceConfig::builder()
        .workers(WORKERS)
        .updaters(&[UPDATER])
        .build()
        .expect("valid service configuration")
}

/// Opens a lane's TCP clients: one plain connection when the lane is one
/// analyst session, else one multiplexed socket with a channel per session
/// (so a lane never costs more than one connection).
fn connect_lane(
    addr: std::net::SocketAddr,
    analysts: &[usize],
    updates: bool,
) -> Result<Lane<'static>, String> {
    let s = |e: dprov_api::ApiError| format!("cannot connect to the frontend at {addr}: {e}");
    let mut clients = HashMap::new();
    let mut updater = None;
    let mut mux = None;
    if analysts.len() == 1 && !updates {
        let mut c = DProvClient::connect_tcp(addr, "perfbench").map_err(s)?;
        c.register(&analyst_name(analysts[0])).map_err(s)?;
        clients.insert(analysts[0], c);
    } else {
        let m = MuxConnection::connect_tcp(addr, "perfbench").map_err(s)?;
        for &a in analysts {
            let mut c =
                DProvClient::connect(m.open_channel().map_err(s)?.1, "perfbench").map_err(s)?;
            c.register(&analyst_name(a)).map_err(s)?;
            clients.insert(a, c);
        }
        if updates {
            let mut c =
                DProvClient::connect(m.open_channel().map_err(s)?.1, "perfbench").map_err(s)?;
            c.register_updater(UPDATER).map_err(s)?;
            updater = Some(c);
        }
        mux = Some(m);
    }
    Ok(Lane::Tcp {
        clients,
        updater,
        _mux: mux,
    })
}

/// Checks that no row, column or table constraint is overspent.
fn check_constraints(system: &DProvDb, mechanism: MechanismKind) -> Vec<String> {
    const TOL: f64 = 1e-9;
    let p = system.provenance();
    let mut out = Vec::new();
    for a in 0..p.num_analysts() {
        let id = AnalystId(a);
        if p.row_total(id) > p.row_constraint(id) + TOL {
            out.push(format!(
                "analyst {a} overspent: {} > {}",
                p.row_total(id),
                p.row_constraint(id)
            ));
        }
    }
    let additive = mechanism == MechanismKind::AdditiveGaussian;
    for view in p.view_names() {
        let spent = if additive {
            p.column_max(view)
        } else {
            p.column_sum(view)
        };
        if spent > p.col_constraint(view) + TOL {
            out.push(format!(
                "view {view} overspent: {spent} > {}",
                p.col_constraint(view)
            ));
        }
    }
    let table = if additive {
        p.total_of_column_maxes()
    } else {
        p.total_sum()
    };
    if table > p.table_constraint() + TOL {
        out.push(format!(
            "table overspent: {table} > {}",
            p.table_constraint()
        ));
    }
    out
}

/// The ledger and provenance state compared across a restart.
fn budget_state(system: &DProvDb) -> String {
    let p = system.provenance();
    let entries: Vec<f64> = (0..p.num_analysts())
        .flat_map(|a| p.view_names().iter().map(move |v| (a, v)))
        .map(|(a, v)| p.entry(AnalystId(a), v))
        .collect();
    format!("ledger {:?} provenance {entries:?}", system.ledger().all())
}

fn new_system(
    w: &Workload,
    mechanism: MechanismKind,
    db: dprov_engine::database::Database,
) -> Result<DProvDb, String> {
    DProvDb::new(db, w.catalog(), w.registry(), w.config(), mechanism)
        .map_err(|e| format!("cannot build the system: {e}"))
}

/// Runs one trial of `w` with `stream` through `entry`.
pub fn run_trial(
    w: &Workload,
    stream: &Stream,
    mechanism: MechanismKind,
    entry: Entry,
    tmp_root: &Path,
    opts: &TrialOpts,
) -> Result<TrialOut, String> {
    // Input copies are made before the clock starts.
    let db = w.db.clone();
    let durable = match entry {
        Entry::Core => opts.journal,
        Entry::Service | Entry::Tcp => w.durable,
    };
    let wal = if durable {
        Some(TmpDir::new(tmp_root, &format!("{}-{entry:?}", w.name))?)
    } else {
        None
    };
    let start = Instant::now();
    let mut system = new_system(w, mechanism, db)?;
    let out = match entry {
        Entry::Core => {
            let store = match &wal {
                Some(dir) => {
                    let (store, _) =
                        ProvenanceStore::open_with(&dir.0, StoreOptions { fsync: true }).map_err(
                            |e| format!("cannot open the ledger in {}: {e}", dir.0.display()),
                        )?;
                    let store = Arc::new(TimingStore {
                        inner: Arc::new(store),
                        append_us: Mutex::new(Vec::new()),
                    });
                    system.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);
                    Some(store)
                }
                None => None,
            };
            let lanes = (0..stream.lanes.len())
                .map(|l| Lane::Core {
                    system: &system,
                    rngs: lane_roles(stream, l)
                        .0
                        .into_iter()
                        .map(|a| (a, DpRng::for_stream(w.seed, a as u64)))
                        .collect(),
                })
                .collect();
            let mut phases = run_phases(lanes, entry, stream, start, opts.keep_outcomes);
            let figures = store.map(|store| StoreFigures {
                append_us: std::mem::take(
                    &mut *store.append_us.lock().expect("timing store poisoned"),
                ),
                appends: store.inner.total_appends(),
                wal_bytes: store.inner.wal_len(),
            });
            phases
                .violations
                .extend(check_constraints(&system, mechanism));
            TrialOut {
                mechanism,
                setup_s: phases.setup_s,
                timed_s: phases.timed_s,
                recs: phases.recs,
                eps_spent: system.provenance().total_sum(),
                violations: phases.violations,
                store: figures,
                checkpoint_ms: None,
            }
        }
        Entry::Service | Entry::Tcp => {
            let service = if let Some(dir) = &wal {
                let (service, _) = QueryService::start_durable(
                    system,
                    service_config(),
                    DurabilityConfig::new(&dir.0),
                )
                .map_err(|e| format!("cannot start the durable service: {e}"))?;
                service
            } else {
                QueryService::start(Arc::new(system), service_config())
            };
            let service = Arc::new(service);
            let mut listener = None;
            let lanes = if entry == Entry::Tcp {
                let frontend = EventLoopFrontend::new(&service, NetConfig::default());
                let l = frontend
                    .listen("127.0.0.1:0")
                    .map_err(|e| format!("cannot bind 127.0.0.1:0: {e}"))?;
                let addr = l.local_addr();
                listener = Some(l);
                (0..stream.lanes.len())
                    .map(|i| {
                        let (analysts, updates) = lane_roles(stream, i);
                        connect_lane(addr, &analysts, updates)
                    })
                    .collect::<Result<_, _>>()?
            } else {
                (0..stream.lanes.len())
                    .map(|i| {
                        let sessions = lane_roles(stream, i)
                            .0
                            .into_iter()
                            .map(|a| {
                                service
                                    .open_session(AnalystId(a))
                                    .map(|s| (a, s))
                                    .map_err(|e| format!("cannot open a session: {e}"))
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(Lane::Service {
                            service: &service,
                            sessions,
                        })
                    })
                    .collect::<Result<_, String>>()?
            };
            let Phases {
                recs,
                mut violations,
                setup_s,
                timed_s,
            } = run_phases(lanes, entry, stream, start, opts.keep_outcomes);
            if let Some(l) = listener {
                l.shutdown();
            }
            let checkpoint_ms = if opts.time_checkpoint {
                let t = Instant::now();
                service
                    .checkpoint()
                    .map_err(|e| format!("checkpoint failed: {e}"))?;
                Some(t.elapsed().as_secs_f64() * 1e3)
            } else {
                None
            };
            let system = Arc::clone(service.system());
            violations.extend(check_constraints(&system, mechanism));
            let eps_spent = system.provenance().total_sum();
            let live = budget_state(&system);
            drop(system);
            let service = Arc::try_unwrap(service)
                .map_err(|_| "the frontend still holds the service".to_owned())?;
            service.shutdown();
            if opts.verify_recovery {
                if let Some(dir) = &wal {
                    let fresh = new_system(w, mechanism, w.db.clone())?;
                    let (recovered, _) = QueryService::start_durable(
                        fresh,
                        service_config(),
                        DurabilityConfig::new(&dir.0),
                    )
                    .map_err(|e| format!("cannot reopen the WAL: {e}"))?;
                    let back = budget_state(recovered.system());
                    if back != live {
                        let at = live
                            .bytes()
                            .zip(back.bytes())
                            .take_while(|(a, b)| a == b)
                            .count();
                        let near = |s: &str| {
                            s.get(at.saturating_sub(40)..(at + 80).min(s.len()))
                                .unwrap_or("")
                                .to_owned()
                        };
                        violations.push(format!(
                            "recovered ledger differs from the live one: live …{}… recovered …{}…",
                            near(&live),
                            near(&back)
                        ));
                    }
                    recovered.shutdown();
                }
            }
            TrialOut {
                mechanism,
                setup_s,
                timed_s,
                recs,
                eps_spent,
                violations,
                store: None,
                checkpoint_ms,
            }
        }
    };
    drop(wal);
    Ok(out)
}

/// The request and response frames an operation puts on the wire.
pub fn wire_messages(op: &Op, done: &Done) -> Option<(Request, Response)> {
    let pair = match (op, done) {
        (Op::Query { request, .. }, Done::Query(o)) => (
            Request::SubmitQuery(request.clone()),
            Response::QueryAnswer(o.clone()),
        ),
        (Op::Grouped { request, .. }, Done::Grouped(g)) => (
            Request::GroupByQuery(request.clone()),
            Response::GroupedAnswer(g.clone()),
        ),
        (Op::Update(batch), Done::Update { batch_seq, pending }) => (
            Request::ApplyUpdate(batch.clone()),
            Response::UpdateAccepted {
                batch_seq: *batch_seq,
                pending: *pending,
            },
        ),
        (
            Op::Seal,
            Done::Seal {
                epoch,
                batches,
                rows,
                views_patched,
                invalidated,
            },
        ) => (
            Request::SealEpoch,
            Response::EpochSealed {
                epoch: *epoch,
                batches: *batches,
                rows: *rows,
                views_patched: *views_patched,
                synopses_invalidated: *invalidated,
            },
        ),
        _ => return None,
    };
    Some(pair)
}
