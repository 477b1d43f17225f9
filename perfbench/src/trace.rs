//! In-memory spans recorded by the benchmark around the public calls it
//! makes into each layer. Spans live in memory and are written out once,
//! at the end of a traced run.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Request id shared by every span of one replayed operation.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// (span id, request id) of the innermost open span on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Turns span recording on or off; timings are taken either way.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

/// A fresh request id for one replayed operation.
pub fn next_req() -> u64 {
    tracer().next_id.fetch_add(1, Ordering::Relaxed)
}

/// The request id of the innermost open span on this thread (0 if none).
pub fn current_req() -> u64 {
    CURRENT.with(Cell::get).1
}

/// Runs `f` as a root span of request `req`; returns its result and
/// duration in microseconds.
pub fn root<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    run(name, 0, req, f)
}

/// Runs `f` as a child of the innermost open span on this thread (a root
/// span of a fresh request when none is open).
pub fn child<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let (parent, req) = CURRENT.with(Cell::get);
    let req = if req == 0 { next_req() } else { req };
    run(name, parent, req, f)
}

fn run<R>(name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        let outer = CURRENT.with(|c| c.replace((0, req)));
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        CURRENT.with(|c| c.set(outer));
        return (out, us);
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(|c| c.replace((id, req)));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    CURRENT.with(|c| c.set(outer));
    let span = Span {
        id,
        parent,
        req,
        name,
        start_ns: (start - t.epoch).as_nanos() as u64,
        end_ns: (end - t.epoch).as_nanos() as u64,
    };
    t.spans.lock().expect("span buffer poisoned").push(span);
    (out, (end - start).as_secs_f64() * 1e6)
}

/// Writes every recorded span as a JSON array; returns how many.
pub fn write_spans(path: &Path) -> std::io::Result<usize> {
    let spans = tracer().spans.lock().expect("span buffer poisoned");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(spans.len())
}
