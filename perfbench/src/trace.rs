//! The benchmark's own span recorder. Spans are taken around the
//! benchmark's calls into each layer's public functions, kept in memory,
//! and written out as chrome://tracing JSON when the run ends. Nothing
//! inside the library is instrumented by this module.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds from the recorder's epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
    /// The benchmark's request index, for serve spans.
    pub req: Option<u64>,
    /// A per-span quantity (columns dispatched, bytes), when one applies.
    pub arg: Option<u64>,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Converts an instant to recorder nanoseconds (0 if it predates the epoch).
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(recorder().epoch).as_nanos() as u64
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    req: Option<u64>,
}

/// An open span; records itself when dropped. Inert when tracing is off.
#[must_use = "a span records when dropped"]
pub struct Span {
    open: Option<Open>,
    arg: Option<u64>,
}

impl Span {
    /// Opens a span nested under the innermost open span of this thread.
    pub fn begin(name: &'static str, req: Option<u64>) -> Span {
        if !enabled() {
            return Span {
                open: None,
                arg: None,
            };
        }
        let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Span {
            open: Some(Open {
                id,
                parent,
                name,
                start_ns: now_ns(),
                req,
            }),
            arg: None,
        }
    }

    pub fn set_arg(&mut self, arg: u64) {
        self.arg = Some(arg);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(Open {
            id,
            parent,
            name,
            start_ns,
            req,
        }) = self.open.take()
        {
            let end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos);
                }
            });
            push(SpanRec {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                tid: TID.with(|t| *t),
                req,
                arg: self.arg,
            });
        }
    }
}

/// Records a span whose bounds were measured elsewhere (e.g. a request's
/// due time and its response), with no parent.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, req: Option<u64>) {
    if !enabled() {
        return;
    }
    push(SpanRec {
        id: recorder().next_id.fetch_add(1, Ordering::Relaxed),
        parent: None,
        name,
        start_ns,
        end_ns: end_ns.max(start_ns),
        tid: TID.with(|t| *t),
        req,
        arg: None,
    });
}

fn push(rec: SpanRec) {
    recorder()
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(rec);
}

/// Takes every recorded span out of the recorder.
pub fn drain() -> Vec<SpanRec> {
    std::mem::take(&mut *recorder().spans.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::ms)
        .collect()
}

/// Self time per span name, in milliseconds: each span's duration minus
/// the part covered by its direct children. Children always nest inside
/// their parent on one thread, so they never overlap one another.
pub fn self_ms(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 / 1e6;
    }
    out
}

/// chrome://tracing "complete" events, one per span.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.req {
            let _ = write!(out, ",\"req\":{r}");
        }
        if let Some(a) = s.arg {
            let _ = write!(out, ",\"arg\":{a}");
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            tid: 1,
            req: None,
            arg: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            rec(1, None, "outer", 0, 10_000_000),
            rec(2, Some(1), "inner", 1_000_000, 4_000_000),
            rec(3, Some(1), "inner", 5_000_000, 6_000_000),
            rec(4, Some(2), "leaf", 2_000_000, 3_000_000),
        ];
        let s = self_ms(&spans);
        assert!((s["outer"] - 6.0).abs() < 1e-9);
        assert!((s["inner"] - 3.0).abs() < 1e-9);
        assert!((s["leaf"] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_names_every_span() {
        let json = chrome_json(&[
            rec(1, None, "serve.submit", 0, 1000),
            rec(2, Some(1), "x", 0, 10),
        ]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":1"));
    }
}
