//! Outside-in host-time tracing.
//!
//! Spans are recorded only here, in the benchmark, around its calls into
//! each layer: world construction, reservations, thread spawns and arrival
//! generation, `World::run`, snapshots, every database operation and — via
//! [`Timed`] — every `MemSpace` call a database operation makes. Names are
//! `layer:call`. Totals (count, time, time covered by child spans) are kept
//! for every span; the span log itself is kept only while
//! [`Recorder::keep_log`] is on, and then only for every
//! [`OP_SAMPLE`]-th database operation, so memory stays bounded.

use cohfree_core::backend::AccessStats;
use cohfree_core::{Json, MemSpace, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One database operation in this many keeps its spans in the log.
pub const OP_SAMPLE: u64 = 64;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer:call`.
    pub name: &'static str,
    /// Unique within the recorder.
    pub id: u64,
    /// Shared by a database operation and all its child spans.
    pub op: u64,
    /// The enclosing span, for child spans.
    pub parent: Option<u64>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration.
    pub ns: u64,
    /// The part of that time covered by their child spans.
    pub child_ns: u64,
}

impl Total {
    /// Time spent in the span itself, outside its children.
    pub fn self_ns(&self) -> u64 {
        self.ns - self.child_ns
    }
}

/// The operation whose child spans are being collected.
struct OpCtx {
    id: u64,
    logged: bool,
    child_ns: u64,
}

/// The `MemSpace` calls a [`Timed`] backend records. They are totalled in
/// a fixed array: they are tens of millions of ~100 ns spans per run, where
/// a map lookup by name would more than double the tracing overhead.
#[derive(Debug, Clone, Copy)]
enum Call {
    Alloc,
    Read,
    Write,
    Compute,
}

const CALL_NAMES: [&str; 4] = [
    "core:MemSpace::alloc",
    "core:MemSpace::read",
    "core:MemSpace::write",
    "core:MemSpace::compute",
];

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
    calls: [Total; 4],
    keep_log: bool,
    next_id: u64,
    ops: u64,
    op: Option<OpCtx>,
}

/// In-memory span store. Methods take `&self` so a [`Timed`] backend and
/// the operation loop driving it can record into the same recorder.
pub struct Recorder {
    epoch: Instant,
    state: RefCell<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }
}

impl Recorder {
    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Turn the span log on or off; totals are always kept.
    pub fn keep_log(&self, on: bool) {
        self.state.borrow_mut().keep_log = on;
    }

    /// Append a span to the log; a span without `parent` is its own op.
    fn log(
        &self,
        st: &mut State,
        name: &'static str,
        parent: Option<u64>,
        t0: Instant,
        dur_ns: u64,
    ) {
        let id = st.next_id;
        st.next_id += 1;
        st.spans.push(Span {
            name,
            id,
            op: parent.unwrap_or(id),
            parent,
            start_ns: self.ns_since_epoch(t0),
            dur_ns,
        });
    }

    /// Run `f` inside a top-level span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let tot = st.totals.entry(name).or_default();
        tot.count += 1;
        tot.ns += dur;
        if st.keep_log {
            self.log(&mut st, name, None, t0, dur);
        }
        v
    }

    /// Run one database operation `f` inside a span that collects the
    /// [`Timed`] calls it makes as children.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        {
            let mut st = self.state.borrow_mut();
            let logged = st.keep_log && st.ops.is_multiple_of(OP_SAMPLE);
            st.ops += 1;
            let id = st.next_id;
            st.next_id += 1;
            st.op = Some(OpCtx {
                id,
                logged,
                child_ns: 0,
            });
        }
        let t0 = Instant::now();
        let v = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let ctx = st.op.take().expect("operation context set above");
        let tot = st.totals.entry(name).or_default();
        tot.count += 1;
        tot.ns += dur;
        tot.child_ns += ctx.child_ns;
        if ctx.logged {
            st.spans.push(Span {
                name,
                id: ctx.id,
                op: ctx.id,
                parent: None,
                start_ns: self.ns_since_epoch(t0),
                dur_ns: dur,
            });
        }
        v
    }

    /// Close a child span of the current operation that began at `t0`.
    fn child(&self, call: Call, t0: Instant) {
        let dur = t0.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let tot = &mut st.calls[call as usize];
        tot.count += 1;
        tot.ns += dur;
        let Some(ctx) = st.op.as_mut() else { return };
        ctx.child_ns += dur;
        if ctx.logged {
            let parent = Some(ctx.id);
            self.log(&mut st, CALL_NAMES[call as usize], parent, t0, dur);
        }
    }

    /// Totals by span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let st = self.state.borrow();
        let mut out = st.totals.clone();
        for (name, t) in CALL_NAMES.iter().zip(st.calls) {
            if t.count > 0 {
                out.insert(name, t);
            }
        }
        out
    }

    /// Summed totals of every span whose name starts with `prefix`.
    pub fn total_of(&self, prefix: &str) -> Total {
        let mut t = Total::default();
        for (_, v) in self.totals().iter().filter(|(k, _)| k.starts_with(prefix)) {
            t.count += v.count;
            t.ns += v.ns;
            t.child_ns += v.child_ns;
        }
        t
    }

    /// Self time by layer (the part of each name before `:`), in seconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (name, t) in self.totals() {
            let layer = name.split(':').next().unwrap_or(name).to_string();
            *out.entry(layer).or_default() += t.self_ns() as f64 * 1e-9;
        }
        out
    }

    /// The span log as Chrome trace-event JSON (`ph: "X"` complete events,
    /// microsecond timestamps), with `summary` carried alongside.
    pub fn chrome_json(&self, summary: Json) -> Json {
        let st = self.state.borrow();
        let events = st
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("id", Json::from(s.id)), ("op", Json::from(s.op))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::from(p)));
                }
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("cat", Json::from(s.name.split(':').next().unwrap_or(""))),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur", Json::from(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
            ("summary", summary),
        ])
    }
}

/// A `MemSpace` that records one child span per call into `inner`.
pub struct Timed<'r, M> {
    inner: M,
    rec: &'r Recorder,
}

impl<'r, M: MemSpace> Timed<'r, M> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: M, rec: &'r Recorder) -> Self {
        Timed { inner, rec }
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: MemSpace> MemSpace for Timed<'_, M> {
    fn alloc(&mut self, bytes: u64) -> u64 {
        let t0 = Instant::now();
        let va = self.inner.alloc(bytes);
        self.rec.child(Call::Alloc, t0);
        va
    }

    fn read(&mut self, va: u64, buf: &mut [u8]) {
        let t0 = Instant::now();
        self.inner.read(va, buf);
        self.rec.child(Call::Read, t0);
    }

    fn write(&mut self, va: u64, data: &[u8]) {
        let t0 = Instant::now();
        self.inner.write(va, data);
        self.rec.child(Call::Write, t0);
    }

    fn compute(&mut self, d: SimDuration) {
        let t0 = Instant::now();
        self.inner.compute(d);
        self.rec.child(Call::Compute, t0);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohfree_core::{ClusterConfig, LocalMachine};

    #[test]
    fn child_spans_nest_in_their_operation_and_share_its_id() {
        let rec = Recorder::default();
        rec.keep_log(true);
        let mut m = Timed::new(LocalMachine::new(ClusterConfig::prototype(), 1 << 20), &rec);
        let va = m.alloc(64);
        rec.op("workloads:db.test", || {
            m.write_u64(va, 7);
            assert_eq!(m.read_u64(va), 7);
        });
        let totals = rec.totals();
        let op = totals["workloads:db.test"];
        assert_eq!(op.count, 1);
        assert_eq!(totals["core:MemSpace::write"].count, 1);
        assert_eq!(totals["core:MemSpace::read"].count, 1);
        assert!(op.child_ns <= op.ns, "children are covered by the op");
        // The alloc ran outside any operation: totalled, never logged.
        assert_eq!(totals["core:MemSpace::alloc"].count, 1);
        let st = rec.state.borrow();
        let parent = st
            .spans
            .iter()
            .find(|s| s.name == "workloads:db.test")
            .unwrap();
        let kids: Vec<&Span> = st
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|s| s.op == parent.op));
    }

    #[test]
    fn only_every_sampled_operation_is_logged() {
        let rec = Recorder::default();
        rec.keep_log(true);
        for _ in 0..(2 * OP_SAMPLE) {
            rec.op("workloads:db.test", || ());
        }
        assert_eq!(rec.totals()["workloads:db.test"].count, 2 * OP_SAMPLE);
        assert_eq!(rec.state.borrow().spans.len(), 2);
        rec.keep_log(false);
        rec.span("core:World::run", || ());
        assert_eq!(rec.state.borrow().spans.len(), 2, "log off: totals only");
    }
}
