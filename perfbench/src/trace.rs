//! The benchmark's span recorder.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the program (setup, the run call, client stub polls, benchmark-owned
//! handler bodies, collective awaits, probe batches); nothing inside the
//! program is instrumented. Recording is off unless [`enable`] was called,
//! in which case each span costs two clock reads and one push. Spans stay
//! in memory until [`take`] hands them to the report at the end of a run.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::task::{Context, Poll};
use std::time::Instant;

/// One closed span. `parent` is 0 for a root span; ids start at 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id.
    pub id: u32,
    /// Id of the span that was open on the same thread when this one
    /// started (0 for none).
    pub parent: u32,
    /// Span name (the layer boundary it times).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off.
pub fn enable(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drain every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store"))
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard {
    open: Option<(u32, u32, &'static str, u64)>,
}

/// Open a span named `name` on this thread (a no-op when recording is off).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    Guard { open: Some((id, parent, name, now_ns())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            OPEN.with(|s| s.borrow_mut().pop());
            SPANS.lock().expect("span store").push(Span { id, parent, name, start_ns, end_ns });
        }
    }
}

/// Run `f` inside a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// A future wrapper that opens a span around every `poll` of the inner
/// future, so the span covers the host time spent inside the call and
/// none of the simulated waiting between polls.
pub struct Timed<F> {
    name: &'static str,
    inner: F,
}

/// Wrap `fut` so each of its polls is timed as a span named `name`.
pub fn timed_future<F: Future>(name: &'static str, fut: F) -> Timed<F> {
    Timed { name, inner: fut }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let _g = span(self.name);
        // SAFETY: `inner` is structurally pinned: it is never moved out of
        // `self`, and `Timed` has no `Drop` impl.
        unsafe { self.map_unchecked_mut(|s| &mut s.inner) }.poll(cx)
    }
}

/// Total and self time per span name. Self time is a span's duration
/// minus the durations of its direct children.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Aggregate `spans` by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: HashMap<u32, u64> = HashMap::with_capacity(spans.len() / 2);
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Write the per-name totals, then the first `limit` spans as
/// tab-separated `id parent name start_ns end_ns` rows (a traced call mix
/// records millions of spans; the totals cover all of them).
pub fn write_tsv(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# name\tcount\ttotal_ns\tself_ns")?;
    for (name, t) in totals(spans) {
        writeln!(w, "# {name}\t{}\t{}\t{}", t.count, t.total_ns, t.self_ns)?;
    }
    writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans.iter().take(limit) {
        writeln!(w, "{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.name, s.start_ns, s.end_ns)?;
    }
    w.flush()
}

/// Record a root span for an interval measured elsewhere (for instance
/// set-up that ends inside the program's run call).
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let origin = *ORIGIN.get_or_init(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    SPANS.lock().expect("span store").push(Span {
        id,
        parent: 0,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    });
}
