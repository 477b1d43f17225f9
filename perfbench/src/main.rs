//! End-to-end and per-layer benchmark of the DProvDB serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rrq_accuracy|tcp_cached|durable_stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: each client lane waits for an answer
//! before it sends its next operation. A run is a sequence of trials; a
//! trial is a fresh system plus a generated stream, so the hit/miss/reject
//! mix does not drift as budgets drain. The trials of one group (one per
//! mechanism) share a stream; each group gets its own. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` replays
//! the stream at successively deeper entry points (TCP client, service,
//! core, leaf calls), records spans around each public call and derives
//! the per-layer metrics from them. The last line of output is the JSON
//! result. Workload rationale and sizes are in `perfbench/WORKLOADS.md`.

mod drive;
mod inputs;
mod layers;
mod stats;
mod trace;

use std::path::Path;
use std::time::Instant;

use drive::{run_trial, Kind, TrialOpts, TrialOut};
use inputs::{Entry, Stream, Workload};
use stats::{median, peak_rss_mb, percentile, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Minimum trials per run, so set-up time has a median.
const MIN_TRIALS: usize = 4;

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: cannot run: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let tmp_root = cwd.join(".perfbench_tmp");
    let w = inputs::build(&args.workload, args.seed)?;
    print_header(&w, &w.stream(0), args);
    let result = if args.trace {
        let spans = cwd
            .join(".perfbench_out")
            .join(format!("spans-{}-seed{}.json", w.name, args.seed));
        layers::run_traced(&w, args.seconds, &tmp_root, &spans)
    } else {
        run_end_to_end(&w, args.seconds, &tmp_root)
    };
    // Each trial removed its own directory; drop the (then empty) root.
    let _ = std::fs::remove_dir(&tmp_root);
    result
}

fn print_header(w: &Workload, stream: &Stream, args: &Args) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fsync = if w.durable {
        "WAL fsync on every append, compaction every 4096 appends"
    } else {
        "no WAL"
    };
    let surface = match w.entry {
        Entry::Tcp => "DProvClient over the event-loop TCP frontend (2 loop threads)",
        Entry::Service => "QueryService::submit_wait in process",
        Entry::Core => "DProvDb::submit_with_rng",
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} available_parallelism={cores}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  closed loop: {} client lane(s), {} service workers, via {surface}; {fsync}",
        stream.lanes.len(),
        inputs::WORKERS
    );
    println!(
        "  inputs: {} rows, {} analysts, {} timed ops + {} warm-up ops per trial, mechanisms {:?}",
        w.db.total_rows(),
        w.privileges.len(),
        stream.ops(),
        stream.warmup_ops(),
        w.mechanisms
    );
}

/// Runs a priming group (one trial per mechanism on the first stream,
/// handed to `on_group` with `priming` set and left out of every timing,
/// so allocator, caches and lazy set-up are warm when timing starts), then
/// trials for about `seconds` of wall time (whole trials, an equal number
/// per mechanism; a trial is the last when it and one more of the previous
/// trial's length would overrun), handing each finished group of one trial
/// per mechanism to `on_group`. A group shares one freshly generated stream.
fn run_trials(
    w: &Workload,
    seconds: f64,
    tmp_root: &Path,
    mut on_group: impl FnMut(Vec<TrialOut>, bool),
) -> Result<(), String> {
    let m = w.mechanisms.len();
    let priming_opts = TrialOpts {
        keep_outcomes: false,
        verify_recovery: false,
        time_checkpoint: false,
        journal: false,
    };
    let stream = w.stream(0);
    let priming = w
        .mechanisms
        .iter()
        .map(|&mechanism| run_trial(w, &stream, mechanism, w.entry, tmp_root, &priming_opts))
        .collect::<Result<_, _>>()?;
    on_group(priming, true);
    let started = Instant::now();
    let mut group = Vec::with_capacity(m);
    let mut stream = w.stream(0);
    // Wall time of the previous trial, stream generation and checks included.
    let mut prev = 0.0;
    for i in 0.. {
        let begun = started.elapsed().as_secs_f64();
        let last = i + 1 >= MIN_TRIALS && (i + 1) % m == 0 && begun + 2.0 * prev >= seconds;
        let opts = TrialOpts {
            keep_outcomes: false,
            verify_recovery: w.durable && last,
            time_checkpoint: false,
            journal: false,
        };
        if i > 0 && i % m == 0 {
            stream = w.stream((i / m) as u64);
        }
        let t = run_trial(w, &stream, w.mechanisms[i % m], w.entry, tmp_root, &opts)?;
        print_trial(i, &t);
        prev = started.elapsed().as_secs_f64() - begun;
        group.push(t);
        if group.len() == m {
            on_group(std::mem::take(&mut group), false);
        }
        if last {
            break;
        }
    }
    Ok(())
}

fn print_trial(i: usize, t: &TrialOut) {
    let timed: Vec<_> = t.recs.iter().filter(|r| !r.warm).collect();
    let warm = t.recs.len() - timed.len();
    let c = |k: Kind| timed.iter().filter(|r| r.kind == k).count();
    println!(
        "trial {i} {:?}: hit={} miss={} reject={} update={} seal={} failed={} warmup={} \
         setup_s={:.4} timed_s={:.4} ops_per_s={:.1} eps_spent={:.4}",
        t.mechanism,
        c(Kind::Hit),
        c(Kind::Miss),
        c(Kind::Reject),
        c(Kind::Update),
        c(Kind::Seal),
        c(Kind::Failed),
        warm,
        t.setup_s,
        t.timed_s,
        timed.len() as f64 / t.timed_s,
        t.eps_spent
    );
}

/// Index in [`OUTCOMES`] of the one outcome median on the result line.
const MISS: usize = 1;
const OUTCOMES: [(Kind, &str); 5] = [
    (Kind::Hit, "hit_p50_us"),
    (Kind::Miss, "miss_p50_us"),
    (Kind::Reject, "reject_p50_us"),
    (Kind::Update, "update_p50_us"),
    (Kind::Seal, "seal_p50_us"),
];

/// Run-wide counts plus one value per group for each timing. Timings are
/// summarised per group and the median over groups is reported, so a
/// burst of load from outside the benchmark moves a few groups rather than
/// the result. Records are dropped once their group is summarised.
#[derive(Default)]
struct Summary {
    ops_per_s: Vec<f64>,
    p99_us: Vec<f64>,
    /// Per outcome: per-group medians and the total sample count.
    outcome_p50: [(Vec<f64>, usize); 5],
    setup_s: Vec<f64>,
    eps_spent: Vec<f64>,
    timed: usize,
    queries: usize,
    answered: usize,
    attempted: usize,
    failed: usize,
    violations: Vec<String>,
}

impl Summary {
    /// A priming group counts only towards the output checks and the
    /// attempted and failed operations.
    fn add_priming(&mut self, group: Vec<TrialOut>) {
        for t in group {
            self.attempted += t.recs.len();
            self.failed += t.recs.iter().filter(|r| r.kind == Kind::Failed).count();
            self.violations.extend(t.violations);
        }
    }

    fn add_group(&mut self, group: Vec<TrialOut>) {
        let recs = || group.iter().flat_map(|t| &t.recs);
        let timed_us: Vec<f64> = recs().filter(|r| !r.warm).map(|r| r.us).collect();
        let secs: f64 = group.iter().map(|t| t.timed_s).sum();
        self.ops_per_s.push(timed_us.len() as f64 / secs);
        self.p99_us.extend(percentile(&timed_us, 99.0));
        // Per-outcome medians cover every operation with that outcome; on
        // tcp_cached the fresh releases happen in the (set-up) warm-up.
        for ((kind, _), (p50s, n)) in OUTCOMES.iter().zip(&mut self.outcome_p50) {
            let us: Vec<f64> = recs().filter(|r| r.kind == *kind).map(|r| r.us).collect();
            *n += us.len();
            p50s.extend(median(&us));
        }
        let timed = || recs().filter(|r| !r.warm);
        self.timed += timed_us.len();
        self.queries += timed()
            .filter(|r| !matches!(r.kind, Kind::Update | Kind::Seal))
            .count();
        self.answered += timed()
            .filter(|r| matches!(r.kind, Kind::Hit | Kind::Miss))
            .count();
        self.attempted += recs().count();
        self.failed += recs().filter(|r| r.kind == Kind::Failed).count();
        for t in group {
            self.setup_s.push(t.setup_s);
            self.eps_spent.push(t.eps_spent);
            self.violations.extend(t.violations);
        }
    }
}

fn run_end_to_end(w: &Workload, seconds: f64, tmp_root: &Path) -> Result<(), String> {
    let mut s = Summary::default();
    run_trials(w, seconds, tmp_root, |group, priming| {
        if priming {
            s.add_priming(group)
        } else {
            s.add_group(group)
        }
    })?;
    print_violations(&s.violations);

    let mut r = Report::default();
    let outcome = |i: usize| (median(&s.outcome_p50[i].0), s.outcome_p50[i].1);
    r.listed("setup_s", median(&s.setup_s), "s", s.setup_s.len());
    r.listed("ops_per_s", median(&s.ops_per_s), "1/s", s.timed);
    let (miss, n) = outcome(MISS);
    r.listed(OUTCOMES[MISS].1, miss, "us", n);
    r.listed(
        "answered_pct",
        (s.queries > 0).then(|| 100.0 * s.answered as f64 / s.queries as f64),
        "%",
        s.queries,
    );
    r.listed("eps_spent", median(&s.eps_spent), "eps", s.eps_spent.len());
    r.listed("peak_rss_mb", peak_rss_mb(), "MB", 1);
    // The tail, and the hit median (a hit is little work between two
    // thread wake-ups), move with load from outside the benchmark far more
    // than the bounds allow on a small shared host, so they are reported,
    // not gated.
    r.extra("p99_us", median(&s.p99_us), "us", s.timed);
    for (i, (_, name)) in OUTCOMES.iter().enumerate().filter(|&(i, _)| i != MISS) {
        let (value, n) = outcome(i);
        r.extra(name, value, "us", n);
    }
    r.extra(
        "failed_pct",
        Some(100.0 * s.failed as f64 / s.attempted.max(1) as f64),
        "%",
        s.attempted,
    );
    r.print(s.violations.is_empty(), s.attempted as u64, s.failed as u64);
    Ok(())
}

/// Prints the first output-check failures and how many there were.
pub fn print_violations(violations: &[String]) {
    const SHOWN: usize = 10;
    for v in violations.iter().take(SHOWN) {
        println!("CHECK FAILED: {v}");
    }
    if violations.len() > SHOWN {
        println!("CHECK FAILED: … and {} more", violations.len() - SHOWN);
    }
}
