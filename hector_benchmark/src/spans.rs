//! The benchmark's own spans: recorded from this side of the API,
//! around every call into a layer, kept in memory, and written as
//! chrome-trace JSON when the run ends. Every timing the benchmark
//! reports is taken by [`Recorder::timed`], traced run or not, so the
//! two runs differ only in whether the span is kept.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Timeline the span is drawn on (one per thread; served requests
    /// overlap in time, so they are spread over lanes of their own).
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation (round, batch or
    /// request number).
    pub op: u64,
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Recorders of one run share `origin`, so their timelines align.
    pub fn new(on: bool, origin: Instant, tid: u32) -> Recorder {
        Recorder {
            on,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self, tid: u32) -> Recorder {
        Recorder::new(self.on, self.origin, tid)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and its wall time in ms. When the
    /// recorder is on the interval is kept as a span under the
    /// innermost open one.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let start_ns = self.now_ns();
        let slot = self.on.then(|| {
            let idx = self.push(
                name,
                self.tid,
                start_ns,
                start_ns,
                self.open.last().copied(),
                op,
            );
            self.open.push(idx);
            idx
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(idx) = slot {
            self.spans[idx].end_ns = end_ns;
            self.open.pop();
        }
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Records a finished (or, with `end_ns == start_ns`, still open)
    /// span directly; returns its index, 0 when the recorder is off.
    pub fn push(
        &mut self,
        name: &'static str,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            tid,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize, end_ns: u64) {
        if self.on {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Appends another recorder's spans (a thread's, after it joined),
    /// keeping their parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per span name: count, total ms, self ms.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let own = self_ns(spans);
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
        e.2 += own as f64 / 1e6;
    }
    out
}

/// The spans as a chrome-trace document (`chrome://tracing`, Perfetto):
/// complete events in µs; `args` carries the operation id and the
/// parent's name.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or(Json::Null, |p| Json::str(spans[p].name));
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.tid))),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([("op", Json::Num(s.op as f64)), ("parent", parent)]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            tid: 0,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 with children 10..40 and 50..70; the first child
        // has a child of its own, which the root must not count twice.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn timed_nests_and_off_recorder_keeps_nothing() {
        let mut rec = Recorder::new(true, Instant::now(), 3);
        let (v, ms) = rec.timed("outer", 7, |rec| rec.timed("inner", 7, |_| 41).0 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert_eq!(by_name(&rec.spans)["outer"].0, 1);

        let mut off = Recorder::new(false, Instant::now(), 0);
        assert_eq!(off.timed("x", 0, |_| 1).0, 1);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_trace_names_them() {
        let mut a = Recorder::new(true, Instant::now(), 0);
        a.timed("a", 0, |_| ());
        let mut b = a.fork(1);
        b.timed("outer", 1, |rec| rec.timed("inner", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        let doc = chrome_trace(&a.spans).render();
        assert!(doc.contains(r#""name":"inner""#) && doc.contains(r#""parent":"outer""#));
    }
}
