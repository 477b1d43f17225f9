//! Differential oracle: event-loop TCP vs. the in-process transport.
//!
//! Each test runs the *same* deterministic workload (same system seed, same
//! session registration order, same per-session submission order) through
//! the event-loop frontend over real TCP sockets and through the in-process
//! [`Frontend`] over channel pairs — both feed the same shared protocol
//! state machine — and asserts the analyst-visible transcripts — answers,
//! noise values, epsilon charges, budget reports — are **bit-identical**.
//! Float fields are compared through their IEEE bit patterns
//! (`f64::to_bits`), so "identical" means identical, not "close".

use std::sync::Arc;

use dprov_api::{Connection, DProvClient, MuxConnection, RequestId};
use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{GroupedRequest, QueryOutcome, QueryRequest};
use dprov_core::system::DProvDb;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::group::GroupByQuery;
use dprov_engine::query::Query;
use dprov_net::{EventLoopFrontend, NetConfig};
use dprov_server::{Frontend, QueryService, ServiceConfig};

/// How a workload reaches the service.
#[derive(Debug, Clone, Copy)]
enum Transport {
    /// Real TCP sockets served by the event loop.
    EventLoopTcp,
    /// In-process channel pairs served by [`Frontend::connect`].
    InProcess,
}

const TRANSPORTS: [Transport; 2] = [Transport::EventLoopTcp, Transport::InProcess];

/// A workload opens every connection it needs through `connect`.
type Workload = fn(&dyn Fn() -> Connection) -> Vec<String>;

fn service(queue_capacity: usize) -> Arc<QueryService> {
    let db = adult_database(600, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("alice", 2).unwrap();
    registry.register("bob", 4).unwrap();
    let config = SystemConfig::new(8.0).unwrap().with_seed(17);
    let system = Arc::new(
        DProvDb::new(
            db,
            catalog,
            registry,
            config,
            MechanismKind::AdditiveGaussian,
        )
        .unwrap(),
    );
    Arc::new(QueryService::start(
        system,
        ServiceConfig::builder()
            .workers(2)
            .queue_capacity(queue_capacity)
            .build()
            .unwrap(),
    ))
}

fn age_query(lo: i64, hi: i64, variance: f64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance)
}

fn hours_query(lo: i64, hi: i64, variance: f64) -> QueryRequest {
    QueryRequest::with_accuracy(
        Query::range_count("adult", "hours_per_week", lo, hi),
        variance,
    )
}

/// Renders an outcome with float fields as exact bit patterns.
fn render(tag: &str, outcome: &QueryOutcome) -> String {
    match outcome {
        QueryOutcome::Answered(a) => format!(
            "{tag}: answered value={:016x} eps={:016x} var={:016x} cache={} epoch={} view={:?}",
            a.value.to_bits(),
            a.epsilon_charged.to_bits(),
            a.noise_variance.to_bits(),
            a.from_cache,
            a.epoch,
            a.view,
        ),
        QueryOutcome::Rejected { reason } => format!("{tag}: rejected {reason:?}"),
    }
}

fn render_budget(tag: &str, client: &mut DProvClient) -> String {
    let b = client.budget().unwrap();
    format!(
        "{tag}: session={} analyst={} priv={} constraint={:016x} consumed={:016x} \
         remaining={:016x} submitted={} answered={}",
        b.session,
        b.analyst,
        b.privilege,
        b.budget_constraint.to_bits(),
        b.budget_consumed.to_bits(),
        b.budget_remaining.to_bits(),
        b.submitted,
        b.answered,
    )
}

/// Two analysts on separate connections, synchronous and pipelined
/// traffic on disjoint views, closed out with budget reports.
fn plain_workload(connect: &dyn Fn() -> Connection) -> Vec<String> {
    let mut log = Vec::new();
    let mut alice = DProvClient::connect(connect(), "alice-conn").unwrap();
    let a = alice.register("alice").unwrap();
    log.push(format!(
        "alice: session={} resumed={}",
        a.session, a.resumed
    ));
    let mut bob = DProvClient::connect(connect(), "bob-conn").unwrap();
    let b = bob.register("bob").unwrap();
    log.push(format!("bob: session={} resumed={}", b.session, b.resumed));

    for i in 0..5 {
        let out = alice
            .query(&age_query(20 + i, 60, 400.0 + i as f64))
            .unwrap();
        log.push(render(&format!("alice q{i}"), &out));
        let out = bob
            .query(&hours_query(10, 40 + i, 500.0 + i as f64))
            .unwrap();
        log.push(render(&format!("bob q{i}"), &out));
    }

    // A pipelined burst (several frames in flight on one connection).
    let ids: Vec<_> = (0..6)
        .map(|i| alice.submit(&age_query(25, 35 + i, 600.0)).unwrap())
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        log.push(render(&format!("alice burst{i}"), &alice.poll(id).unwrap()));
    }

    log.push(render_budget("alice budget", &mut alice));
    log.push(render_budget("bob budget", &mut bob));
    alice.close().unwrap();
    bob.close().unwrap();
    log
}

fn transcript(transport: Transport, queue_capacity: usize, workload: Workload) -> Vec<String> {
    let service = service(queue_capacity);
    match transport {
        Transport::EventLoopTcp => {
            let listener = EventLoopFrontend::new(&service, NetConfig::default())
                .listen("127.0.0.1:0")
                .unwrap();
            let addr = listener.local_addr();
            let log = workload(&|| Connection::connect_tcp(addr).unwrap());
            assert!(
                listener.take_fatal_error().is_none(),
                "no fatal listener error during the workload"
            );
            listener.shutdown();
            log
        }
        Transport::InProcess => {
            let frontend = Frontend::new(&service);
            workload(&|| frontend.connect())
        }
    }
}

/// Runs `workload` over every transport and asserts bit-identical
/// transcripts.
fn assert_transports_agree(queue_capacity: usize, workload: Workload) -> Vec<String> {
    let logs: Vec<Vec<String>> = TRANSPORTS
        .iter()
        .map(|&transport| transcript(transport, queue_capacity, workload))
        .collect();
    assert!(!logs[0].is_empty());
    assert_eq!(
        logs[0], logs[1],
        "event-loop TCP and in-process transcripts diverged (queue capacity {queue_capacity})"
    );
    logs.into_iter().next().unwrap()
}

#[test]
fn frontends_produce_bit_identical_transcripts() {
    assert_transports_agree(256, plain_workload);
}

/// The same differential check with a tiny submission queue: the
/// event-loop arm is forced through its park/retry backpressure path and
/// the in-process arm through its blocking submit, and the analyst-visible
/// results still match bit for bit.
#[test]
fn backpressure_path_is_result_transparent() {
    assert_transports_agree(1, plain_workload);
}

/// One shared connection carrying two independent sessions over mux
/// channels, then a reconnect onto a *new* shared connection with a
/// per-session `resume()`, checked differentially.
fn mux_workload(connect: &dyn Fn() -> Connection) -> Vec<String> {
    let mut log = Vec::new();
    let mux = MuxConnection::establish(connect(), "shared-conn").unwrap();
    let mut alice = DProvClient::connect(mux.channel(1).unwrap(), "alice-ch").unwrap();
    let mut bob = DProvClient::connect(mux.channel(2).unwrap(), "bob-ch").unwrap();
    let a = alice.register("alice").unwrap();
    let b = bob.register("bob").unwrap();
    log.push(format!("sessions: alice={} bob={}", a.session, b.session));

    for i in 0..3 {
        let out = alice.query(&age_query(30, 50 + i, 450.0)).unwrap();
        log.push(render(&format!("alice q{i}"), &out));
        let out = bob.query(&hours_query(20 + i, 60, 550.0)).unwrap();
        log.push(render(&format!("bob q{i}"), &out));
    }

    // Drop the whole shared connection with both sessions still open.
    drop(alice);
    drop(bob);
    drop(mux);

    // Reconnect: one new connection, both sessions resumed on fresh
    // channels.
    let mux = MuxConnection::establish(connect(), "shared-conn-2").unwrap();
    let mut alice = DProvClient::connect(mux.channel(7).unwrap(), "alice-ch2").unwrap();
    let mut bob = DProvClient::connect(mux.channel(9).unwrap(), "bob-ch2").unwrap();
    let ra = alice.resume("alice", a.session).unwrap();
    let rb = bob.resume("bob", b.session).unwrap();
    assert!(ra.resumed && rb.resumed, "both sessions resumed");
    log.push(format!("resumed: alice={} bob={}", ra.session, rb.session));

    // Noise streams continue where they left off, on both transports.
    for i in 0..3 {
        let out = alice.query(&age_query(30, 53 + i, 450.0)).unwrap();
        log.push(render(&format!("alice r{i}"), &out));
        let out = bob.query(&hours_query(23 + i, 60, 550.0)).unwrap();
        log.push(render(&format!("bob r{i}"), &out));
    }

    log.push(render_budget("alice budget", &mut alice));
    log.push(render_budget("bob budget", &mut bob));
    alice.close().unwrap();
    bob.close().unwrap();
    log
}

#[test]
fn multiplexed_sessions_with_resume_are_bit_identical() {
    assert_transports_agree(256, mux_workload);
}

/// A range count on `attribute` at the grouped leg's accuracy.
fn range(attribute: &str, lo: i64, hi: i64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", attribute, lo, hi), 600.0)
}

/// The grouped leg's scalar query for one round.
type Scalar = fn(i64) -> QueryRequest;

/// One submission of the grouped leg.
enum Sent {
    Grouped(RequestId),
    Query(RequestId),
}

/// Four sessions on separate connections, each on views no other session
/// touches, pipelining GROUP BYs interleaved with scalar queries before
/// reading any answer. With a one-slot queue and two workers, a session's
/// head submission regularly meets a full queue, so grouped work parks
/// and is retried through the event loop's single dispatch (and blocks
/// the in-process reader).
fn grouped_workload(connect: &dyn Fn() -> Connection) -> Vec<String> {
    // (analyst, GROUP BY attribute, scalar query for round r).
    let plan: [(&str, &str, Scalar); 4] = [
        ("alice", "sex", |r| range("age", 20 + r, 50)),
        ("bob", "race", |r| range("hours_per_week", 10, 40 + r)),
        ("alice", "relationship", |r| {
            range("education_num", 1 + r, 10)
        }),
        ("bob", "marital_status", |r| {
            range("capital_loss", 0, 100 * (r + 1) - 1)
        }),
    ];
    let mut log = Vec::new();
    let mut clients = Vec::new();
    for (i, (analyst, ..)) in plan.iter().enumerate() {
        let mut client = DProvClient::connect(connect(), &format!("grouped-{i}")).unwrap();
        let s = client.register(analyst).unwrap();
        log.push(format!("session {i}: {analyst} id={}", s.session));
        clients.push((client, Vec::new()));
    }
    for round in 0..3i64 {
        for ((client, sent), (_, group_col, scalar)) in clients.iter_mut().zip(&plan) {
            let grouped = GroupedRequest::with_accuracy(
                GroupByQuery::count("adult", &[*group_col]),
                900.0 + 100.0 * round as f64,
            );
            sent.push(Sent::Grouped(client.submit_group_by(&grouped).unwrap()));
            let query = scalar(round);
            sent.push(Sent::Query(client.submit(&query).unwrap()));
        }
    }
    for (i, (client, sent)) in clients.iter_mut().enumerate() {
        for (j, submission) in std::mem::take(sent).into_iter().enumerate() {
            match submission {
                Sent::Grouped(id) => {
                    let grouped = client.poll_grouped(id).unwrap();
                    for (key, cell) in grouped.keys.iter().zip(&grouped.outcomes) {
                        log.push(render(&format!("s{i} #{j} group {key:?}"), cell));
                    }
                }
                Sent::Query(id) => {
                    log.push(render(
                        &format!("s{i} #{j} scalar"),
                        &client.poll(id).unwrap(),
                    ));
                }
            }
        }
    }
    // Budgets are per analyst, shared across that analyst's sessions: read
    // them only once every session's work has drained.
    for (i, (mut client, _)) in clients.into_iter().enumerate() {
        log.push(render_budget(&format!("s{i} budget"), &mut client));
        client.close().unwrap();
    }
    log
}

/// GROUP BY pipelines agree across transports, with and without queue
/// pressure — and queue pressure itself changes nothing.
#[test]
fn grouped_pipelines_are_bit_identical_under_backpressure() {
    let roomy = assert_transports_agree(256, grouped_workload);
    let tight = assert_transports_agree(1, grouped_workload);
    assert_eq!(roomy, tight, "queue-full handling changed grouped results");
}

/// Repeating the event-loop run twice yields the same transcript — the
/// loop/worker scheduling does not leak into analyst-visible results.
#[test]
fn event_loop_runs_are_reproducible() {
    let first = transcript(Transport::EventLoopTcp, 256, plain_workload);
    let second = transcript(Transport::EventLoopTcp, 256, plain_workload);
    assert_eq!(first, second);
}
