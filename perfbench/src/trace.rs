//! In-memory spans recorded by the harness around its calls into the
//! library crates, written out as a Chrome trace at the end of a run.
//!
//! A span has a name, start, end, parent and a request id shared by all
//! spans of one operation. Nothing is recorded inside the program: every
//! span wraps a public function call made from the harness.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
struct SpanRec {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A span recorder; inert when built with `on = false`.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    rec: Option<SpanRec>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_ns = self.tracer.now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            self.tracer.spans.lock().unwrap_or_else(|p| p.into_inner()).push(rec);
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span for request `req`, nested under the innermost span
    /// open on this thread.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { tracer: self, rec: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let rec = SpanRec {
            id,
            parent,
            req,
            name,
            tid: TID.with(|t| *t),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        SpanGuard { tracer: self, rec: Some(rec) }
    }

    /// Runs `f` inside a span.
    pub fn in_span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, req);
        f()
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the part of it that its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > hi {
                        covered += hi - lo;
                        lo = a;
                        hi = b;
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as a Chrome trace-event JSON document.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.req
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}
