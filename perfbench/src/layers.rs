//! The traced run: per-layer metrics from spans around each layer's public
//! calls. The same generated stream is replayed at successively deeper
//! entry points — TCP client, service, core, then the leaf calls on each
//! request's resolved inputs — and the layer figures are differences and
//! shares of those timings.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dprov_api::frame::{frame, FrameDecoder};
use dprov_api::protocol::{decode_request, decode_response, encode_request, encode_response};
use dprov_core::config::SystemConfig;
use dprov_core::processor::SubmissionMode;
use dprov_dp::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use dprov_dp::rng::DpRng;
use dprov_dp::translation::translate_variance_to_epsilon;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::ADULT_TABLE;
use dprov_exec::{ColumnarExecutor, ExecConfig};

use crate::drive::{run_trial, wire_messages, Kind, Rec, StoreFigures, TrialOpts, TrialOut};
use crate::inputs::{scalar_query, Entry, Op, Stream, Workload};
use crate::stats::{median, Report};
use crate::trace;

/// Hits sampled per replay for the leaf timings (misses and rejects are
/// all replayed).
const LEAF_HIT_SAMPLES: usize = 200;
/// Repetitions of the set-up calls timed in isolation.
const EXEC_REPS: usize = 3;

fn op<'a>(s: &'a Stream, r: &Rec) -> &'a Op {
    let lanes = if r.warm { &s.warmup } else { &s.lanes };
    &lanes[r.lane][r.idx]
}

fn us_of(trials: &[TrialOut], keep: impl Fn(&Rec) -> bool) -> Vec<f64> {
    trials
        .iter()
        .flat_map(|t| &t.recs)
        .filter(|r| keep(r))
        .map(|r| r.us)
        .collect()
}

fn ops_per_s(t: &TrialOut) -> f64 {
    t.recs.iter().filter(|r| !r.warm).count() as f64 / t.timed_s
}

fn opts() -> TrialOpts {
    TrialOpts {
        keep_outcomes: false,
        verify_recovery: false,
        time_checkpoint: false,
        journal: false,
    }
}

/// Leaf timings of one replayed request.
#[derive(Default)]
struct Leaf {
    select_us: f64,
    translate_us: Option<f64>,
    calibrate_us: Vec<f64>,
    noise_us: f64,
    bins: usize,
    /// Leaf time on the path the core took for this request.
    on_path_us: f64,
}

/// Replays the leaf calls of one scalar request on its resolved inputs:
/// view selection, accuracy→ε translation, σ calibration and one Gaussian
/// draw per bin of the selected view.
fn leaf(
    w: &Workload,
    catalog: &ViewCatalog,
    config: &SystemConfig,
    op: &Op,
    kind: Kind,
    rng: &mut DpRng,
) -> Option<Leaf> {
    let (query, mode) = scalar_query(op)?;
    let delta = config.delta;
    let schema = w.db.table(ADULT_TABLE).ok()?.schema();
    let req = trace::next_req();
    let (out, _) = trace::root("leaf.request", req, || {
        let mut l = Leaf::default();
        let (selected, us) =
            trace::child("engine.select_view", || catalog.select_view(query, &w.db));
        l.select_us = us;
        let (view, linear) = selected.ok()?;
        let sens = view.sensitivity();
        let coeff = linear.answer_variance(1.0);
        let mut on_path = us;
        let epsilon = match mode {
            SubmissionMode::Accuracy { variance } => {
                let (t, us) = trace::child("dp.translate", || {
                    translate_variance_to_epsilon(
                        variance / coeff,
                        delta,
                        sens,
                        config.total_epsilon,
                        config.translation_precision,
                    )
                });
                l.translate_us = Some(us);
                on_path += us;
                t.ok().map(|t| t.epsilon.value())
            }
            SubmissionMode::Privacy { epsilon } => {
                // Resolution calibrates the requested ε to its per-bin
                // target; translating that target back is off the path.
                let (sigma, us) = trace::child("dp.calibrate", || {
                    analytic_gaussian_sigma(epsilon, delta.value(), sens.value())
                });
                l.calibrate_us.push(us);
                on_path += us;
                let target = sigma.ok()?.powi(2);
                let (_, us) = trace::child("dp.translate", || {
                    translate_variance_to_epsilon(
                        target,
                        delta,
                        sens,
                        config.total_epsilon,
                        config.translation_precision,
                    )
                });
                l.translate_us = Some(us);
                Some(epsilon)
            }
        };
        if let Some(epsilon) = epsilon {
            let (sigma, us) = trace::child("dp.calibrate", || {
                analytic_gaussian_sigma(epsilon, delta.value(), sens.value())
            });
            l.calibrate_us.push(us);
            let sigma = sigma.ok()?;
            l.bins = view.domain_size(schema).ok()?;
            let bins = l.bins;
            let (_, noise) = trace::child("dp.noise", || {
                black_box((0..bins).map(|_| rng.gaussian(sigma)).sum::<f64>())
            });
            l.noise_us = noise;
            if kind == Kind::Miss {
                on_path += us + noise;
            }
        }
        l.on_path_us = on_path;
        Some(l)
    });
    out
}

/// Median nanoseconds to encode, frame, unframe and decode one request and
/// its response, and the mean bytes both frames put on the wire.
fn codec(stream: &Stream, core: &[TrialOut]) -> (Option<f64>, Option<f64>, usize) {
    let mut ns = Vec::new();
    let mut bytes = 0usize;
    for (id, r) in core.iter().flat_map(|t| &t.recs).enumerate() {
        let Some((request, response)) = r
            .done
            .as_deref()
            .and_then(|d| wire_messages(op(stream, r), d))
        else {
            continue;
        };
        let id = id as u64;
        let ((), us) = trace::root("api.codec", trace::next_req(), || {
            let mut decoder = FrameDecoder::new();
            let req_frame = frame(&encode_request(id, &request));
            decoder.feed(&req_frame);
            let payload = decoder
                .next_frame()
                .ok()
                .flatten()
                .expect("one whole frame");
            black_box(decode_request(&payload).expect("request round-trips"));
            let resp_frame = frame(&encode_response(id, &response));
            decoder.feed(&resp_frame);
            let payload = decoder
                .next_frame()
                .ok()
                .flatten()
                .expect("one whole frame");
            black_box(decode_response(&payload).expect("response round-trips"));
            bytes += req_frame.len() + resp_frame.len();
        });
        ns.push(us * 1e3);
    }
    let n = ns.len();
    (median(&ns), (n > 0).then(|| bytes as f64 / n as f64), n)
}

/// Set-up calls timed in isolation: columnar ingest and histogram
/// materialisation of the view catalog.
fn exec_setup(w: &Workload) -> (Vec<f64>, Vec<f64>) {
    let catalog = w.catalog();
    let mut ingest = Vec::new();
    let mut materialize = Vec::new();
    for _ in 0..EXEC_REPS {
        let (exec, us) = trace::root("exec.ingest", trace::next_req(), || {
            ColumnarExecutor::ingest(&w.db, &ExecConfig::default())
        });
        ingest.push(us / 1e3);
        let (h, us) = trace::root("exec.materialize_histograms", trace::next_req(), || {
            exec.materialize_histograms(catalog.views())
        });
        black_box(h.expect("catalog views materialise"));
        materialize.push(us / 1e3);
    }
    (ingest, materialize)
}

pub fn run_traced(w: &Workload, seconds: f64, tmp_root: &Path, spans: &Path) -> Result<(), String> {
    let started = Instant::now();
    // Tracing overhead: interleaved untraced/traced trials of the
    // end-to-end loop, alternating which side goes first.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let m = w.mechanisms.len();
    let mut pair = 0;
    while pair < 2 || pair % m != 0 || started.elapsed().as_secs_f64() < seconds * 0.6 {
        let stream = w.stream(pair as u64);
        let mechanism = w.mechanisms[pair % m];
        for side in [pair % 2 == 0, pair % 2 == 1] {
            trace::set_enabled(side);
            let t = run_trial(w, &stream, mechanism, w.entry, tmp_root, &opts())?;
            if side {
                traced.push(ops_per_s(&t))
            } else {
                plain.push(ops_per_s(&t))
            }
        }
        pair += 1;
    }
    trace::set_enabled(true);

    let mut tcp = Vec::new();
    let mut service = Vec::new();
    let mut core = Vec::new();
    let mut journal = Vec::new();
    let stream = w.stream(0);
    for &mechanism in &w.mechanisms {
        let run = |entry, opts: &TrialOpts| run_trial(w, &stream, mechanism, entry, tmp_root, opts);
        tcp.push(run(Entry::Tcp, &opts())?);
        service.push(run(
            Entry::Service,
            &TrialOpts {
                time_checkpoint: w.durable,
                ..opts()
            },
        )?);
        core.push(run(
            Entry::Core,
            &TrialOpts {
                keep_outcomes: true,
                journal: w.durable,
                ..opts()
            },
        )?);
        if !w.durable {
            // Without a WAL on the serving path, the ledger appends are
            // timed on a separate core replay so they do not inflate the
            // core latencies above.
            journal.push(run(
                Entry::Core,
                &TrialOpts {
                    journal: true,
                    ..opts()
                },
            )?);
        }
    }
    let journal = if w.durable { &core } else { &journal };

    // Ledger appends made inside each core request (durable workloads
    // journal on the core path; the others do not).
    let mut appended_in: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    if w.durable {
        for s in core.iter().filter_map(|t| t.store.as_ref()) {
            for &(req, us) in &s.append_us {
                *appended_in.entry(req).or_default() += us;
            }
        }
    }

    // Leaf replay of every core miss and reject plus a sample of hits.
    let mut rng = DpRng::seed_from_u64(w.seed);
    let (catalog, config) = (w.catalog(), w.config());
    let mut leaves = Vec::new();
    let mut non_hit_core_us = 0.0;
    let mut non_hit_leaf_us = 0.0;
    let mut non_hit_translate_us = 0.0;
    for t in &core {
        let hits = t.recs.iter().filter(|r| r.kind == Kind::Hit).count();
        let stride = (hits / LEAF_HIT_SAMPLES).max(1);
        let mut seen_hits = 0;
        for r in &t.recs {
            let sampled = match r.kind {
                Kind::Miss | Kind::Reject => true,
                Kind::Hit => {
                    seen_hits += 1;
                    seen_hits % stride == 0
                }
                _ => false,
            };
            if !sampled {
                continue;
            }
            let Some(l) = leaf(w, &catalog, &config, op(&stream, r), r.kind, &mut rng) else {
                continue;
            };
            if r.kind != Kind::Hit {
                non_hit_core_us += r.us;
                non_hit_leaf_us += l.on_path_us + appended_in.get(&r.req).copied().unwrap_or(0.0);
                if matches!(
                    scalar_query(op(&stream, r)),
                    Some((_, SubmissionMode::Accuracy { .. }))
                ) {
                    non_hit_translate_us += l.translate_us.unwrap_or(0.0);
                }
            }
            leaves.push(l);
        }
    }

    let (codec_ns, bytes_per_op, codec_n) = codec(&stream, &core);
    let (ingest_ms, materialize_ms) = exec_setup(w);

    let scalar_hit = |r: &Rec| r.kind == Kind::Hit && r.cells == 0;
    let tcp_hit = us_of(&tcp, scalar_hit);
    let svc_hit = us_of(&service, scalar_hit);
    let core_hit = us_of(&core, scalar_hit);
    let core_miss = us_of(&core, |r| r.kind == Kind::Miss && r.cells == 0);
    let core_reject = us_of(&core, |r| r.kind == Kind::Reject && r.cells == 0);
    let core_queries = core
        .iter()
        .flat_map(|t| &t.recs)
        .filter(|r| op(&stream, r).is_query())
        .count();
    let diff = |a: &[f64], b: &[f64]| Some(median(a)? - median(b)?);
    let ratio = |n: usize| (core_queries > 0).then(|| n as f64 / core_queries as f64);

    let select: Vec<f64> = leaves.iter().map(|l| l.select_us).collect();
    let translate: Vec<f64> = leaves.iter().filter_map(|l| l.translate_us).collect();
    let calibrate: Vec<f64> = leaves.iter().flat_map(|l| l.calibrate_us.clone()).collect();
    let noise_ns: Vec<f64> = leaves
        .iter()
        .filter(|l| l.bins > 0)
        .map(|l| l.noise_us * 1e3 / l.bins as f64)
        .collect();
    let stores: Vec<&StoreFigures> = journal.iter().filter_map(|t| t.store.as_ref()).collect();
    let appends: Vec<f64> = stores
        .iter()
        .flat_map(|s| s.append_us.iter().map(|&(_, us)| us))
        .collect();
    let journal_ops: usize = journal.iter().map(|t| t.recs.len()).sum();
    let appended: u64 = stores.iter().map(|s| s.appends).sum();
    let wal_bytes: u64 = stores.iter().map(|s| s.wal_bytes).sum();
    let per_op = |x: u64| (journal_ops > 0).then(|| x as f64 / journal_ops as f64);
    let overhead = (|| Some((median(&plain)? / median(&traced)? - 1.0) * 100.0))();

    let mut r = Report::default();
    r.listed("api.codec_ns", codec_ns, "ns", codec_n);
    r.listed("api.bytes_per_op", bytes_per_op, "bytes", codec_n);
    r.listed(
        "net.overhead_p50_us",
        diff(&tcp_hit, &svc_hit),
        "us",
        tcp_hit.len(),
    );
    r.listed(
        "server.overhead_p50_us",
        diff(&svc_hit, &core_hit),
        "us",
        svc_hit.len(),
    );
    r.listed("core.hit_p50_us", median(&core_hit), "us", core_hit.len());
    r.listed(
        "core.miss_p50_us",
        median(&core_miss),
        "us",
        core_miss.len(),
    );
    let count = |k: Kind| {
        core.iter()
            .flat_map(|t| &t.recs)
            .filter(|r| r.kind == k)
            .count()
    };
    r.listed(
        "core.hit_ratio",
        ratio(count(Kind::Hit)),
        "ratio",
        core_queries,
    );
    r.listed(
        "core.reject_ratio",
        ratio(count(Kind::Reject)),
        "ratio",
        core_queries,
    );
    r.listed(
        "engine.select_view_p50_us",
        median(&select),
        "us",
        select.len(),
    );
    r.listed(
        "dp.translate_p50_us",
        median(&translate),
        "us",
        translate.len(),
    );
    r.listed(
        "dp.translate_share",
        (non_hit_core_us > 0.0).then(|| non_hit_translate_us / non_hit_core_us),
        "ratio",
        core_miss.len() + core_reject.len(),
    );
    r.listed(
        "dp.calibrate_p50_us",
        median(&calibrate),
        "us",
        calibrate.len(),
    );
    r.listed(
        "dp.noise_ns_per_bin",
        median(&noise_ns),
        "ns",
        noise_ns.len(),
    );
    r.listed("exec.ingest_ms", median(&ingest_ms), "ms", ingest_ms.len());
    r.listed(
        "exec.materialize_ms",
        median(&materialize_ms),
        "ms",
        materialize_ms.len(),
    );
    r.listed(
        "storage.append_p50_us",
        median(&appends),
        "us",
        appends.len(),
    );
    r.listed(
        "storage.appends_per_op",
        per_op(appended),
        "count",
        journal_ops,
    );
    r.listed(
        "storage.wal_bytes_per_op",
        per_op(wal_bytes),
        "bytes",
        journal_ops,
    );
    r.listed(
        "core.leaf_cover_pct",
        (non_hit_core_us > 0.0).then(|| 100.0 * non_hit_leaf_us / non_hit_core_us),
        "%",
        core_miss.len() + core_reject.len(),
    );
    r.listed(
        "obs.trace_overhead_pct",
        overhead,
        "%",
        plain.len() + traced.len(),
    );

    r.extra(
        "core.reject_p50_us",
        median(&core_reject),
        "us",
        core_reject.len(),
    );
    let grouped: Vec<&Rec> = core
        .iter()
        .flat_map(|t| &t.recs)
        .filter(|r| r.cells > 0)
        .collect();
    let cells: usize = grouped.iter().map(|r| r.cells).sum();
    r.extra(
        "core.group_cell_us",
        (cells > 0).then(|| grouped.iter().map(|r| r.us).sum::<f64>() / cells as f64),
        "us",
        cells,
    );
    let update = us_of(&core, |r| r.kind == Kind::Update);
    let seal = us_of(&core, |r| r.kind == Kind::Seal);
    let seals: Vec<&Rec> = core
        .iter()
        .flat_map(|t| &t.recs)
        .filter(|r| r.kind == Kind::Seal)
        .collect();
    r.extra("delta.apply_p50_us", median(&update), "us", update.len());
    r.extra("delta.seal_p50_us", median(&seal), "us", seal.len());
    r.extra(
        "delta.invalidated_per_seal",
        (!seals.is_empty())
            .then(|| seals.iter().map(|r| r.invalidated as f64).sum::<f64>() / seals.len() as f64),
        "count",
        seals.len(),
    );
    let checkpoints: Vec<f64> = service.iter().filter_map(|t| t.checkpoint_ms).collect();
    r.extra(
        "storage.compact_ms",
        median(&checkpoints),
        "ms",
        checkpoints.len(),
    );

    let written = trace::write_spans(spans)
        .map_err(|e| format!("cannot write spans to {}: {e}", spans.display()))?;
    println!("wrote {written} spans to {}", spans.display());

    let violations: Vec<String> = [&tcp, &service, &core]
        .into_iter()
        .flatten()
        .flat_map(|t| t.violations.iter().cloned())
        .collect();
    crate::print_violations(&violations);
    let all = [&tcp, &service, &core]
        .into_iter()
        .flatten()
        .flat_map(|t| &t.recs);
    let (attempted, failed) = all.fold((0u64, 0u64), |(a, f), r| {
        (a + 1, f + u64::from(r.kind == Kind::Failed))
    });
    r.print(violations.is_empty(), attempted, failed);
    Ok(())
}
