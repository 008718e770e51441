//! In-memory spans for the traced run.
//!
//! A span is one call into a layer, timed from outside: name, start, end,
//! the span that caused it, the tick all spans of one tick share, and the
//! allocator counters over the same interval. Spans nest on a stack, stay
//! in memory for the whole run and are written out at exit. A layer's
//! *self* time (or allocation count) is its span minus its child spans,
//! so the self values of one tick's spans add up to the tick exactly.

use crate::alloc::{self, AllocCount};
use crate::json::{obj, Value};
use std::time::Instant;

/// Index of an interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(usize);

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: NameId,
    pub tick: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocator traffic between start and end, children included.
    pub allocs: AllocCount,
    /// Calls this span stands for: 1, or the number of short calls
    /// [`Tracer::fold`] summed into it.
    pub calls: u64,
}

/// Self totals of every span carrying one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub self_ns: u64,
    pub self_allocs: AllocCount,
    pub calls: u64,
}

pub struct Tracer {
    names: Vec<String>,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    epoch: Instant,
    tick: u32,
}

impl Tracer {
    /// Room for `spans` spans, reserved up front so that recording does
    /// not allocate inside the windows it measures.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            names: Vec::new(),
            spans: Vec::with_capacity(spans),
            stack: Vec::with_capacity(16),
            epoch: Instant::now(),
            tick: 0,
        }
    }

    /// Intern `name` (before the measured window: this allocates).
    pub fn name(&mut self, name: &str) -> NameId {
        let known = self.names.iter().position(|n| n == name);
        NameId(known.unwrap_or_else(|| {
            self.names.push(name.to_string());
            self.names.len() - 1
        }))
    }

    pub fn name_of(&self, id: NameId) -> &str {
        &self.names[id.0]
    }

    /// Tick index stamped on every span entered from now on.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget the spans recorded so far (warm-up ticks), keeping the
    /// names and the reserved room.
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear inside an open span");
        self.spans.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: NameId) -> SpanId {
        // Counters first, clock last: the span's own bookkeeping stays
        // outside its interval.
        let allocs = alloc::snapshot();
        let now = self.now_ns();
        self.enter_at(name, now, allocs)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        let allocs = alloc::snapshot();
        self.exit_at(id, now, allocs);
    }

    /// Run `f` as a leaf span.
    pub fn span<T>(&mut self, name: NameId, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// [`Tracer::enter`] with the clock and counters supplied (tests).
    pub fn enter_at(&mut self, name: NameId, now_ns: u64, allocs: AllocCount) -> SpanId {
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name,
            tick: self.tick,
            parent: self.stack.last().copied(),
            start_ns: now_ns,
            end_ns: now_ns,
            // Holds the opening snapshot until the span closes.
            allocs,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// [`Tracer::exit`] with the clock and counters supplied (tests).
    pub fn exit_at(&mut self, id: SpanId, now_ns: u64, allocs: AllocCount) {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        span.end_ns = now_ns;
        span.allocs = allocs - span.allocs;
    }

    /// Record, as one child of the innermost open span, the sum of many
    /// calls too short to be worth a span each (`HopPricer::hops`). The
    /// child is placed at its parent's start; only its length is real —
    /// or estimated, when the caller timed a sample of the calls, which
    /// is why it is capped at the time its parent has been open.
    pub fn fold(&mut self, name: NameId, total_ns: u64, allocs: AllocCount, calls: u64) {
        let now = self.now_ns();
        self.fold_at(name, total_ns, allocs, calls, now);
    }

    /// [`Tracer::fold`] with the clock supplied (tests).
    pub fn fold_at(
        &mut self,
        name: NameId,
        total_ns: u64,
        allocs: AllocCount,
        calls: u64,
        now_ns: u64,
    ) {
        let parent = *self.stack.last().expect("fold outside any span");
        let start_ns = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name,
            tick: self.tick,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + total_ns.min(now_ns - start_ns),
            allocs,
            calls,
        });
    }

    /// Self time and self allocations of each span: its own interval
    /// minus what its direct children cover.
    pub fn self_values(&self) -> Vec<(u64, AllocCount)> {
        let mut own: Vec<(u64, AllocCount)> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns, s.allocs))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                // A child's clock and counter reads nest inside its
                // parent's (a folded child's too: each call it sums did),
                // so neither subtraction can underflow.
                own[p.0].0 -= s.end_ns - s.start_ns;
                own[p.0].1 = own[p.0].1 - s.allocs;
            }
        }
        own
    }

    /// Self totals per name, indexed like the interned names.
    pub fn totals(&self) -> Vec<NameTotals> {
        let mut out = vec![NameTotals::default(); self.names.len()];
        for (span, (ns, allocs)) in self.spans.iter().zip(self.self_values()) {
            let t = &mut out[span.name.0];
            t.self_ns += ns;
            t.self_allocs = t.self_allocs + allocs;
            t.calls += span.calls;
        }
        out
    }

    /// Self totals of `name` (zero if it never ran).
    pub fn total_of(&self, totals: &[NameTotals], name: &str) -> NameTotals {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| totals[i].clone())
            .unwrap_or_default()
    }

    /// Every span, for `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", self.name_of(s.name).into()),
                    ("tick", (s.tick as u64).into()),
                    ("parent", s.parent.map_or(Value::Null, |p| p.0.into())),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("alloc_calls", s.allocs.calls.into()),
                    ("alloc_bytes", s.allocs.bytes.into()),
                    ("calls", s.calls.into()),
                ])
            })
            .collect();
        Value::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(calls: u64, bytes: u64) -> AllocCount {
        AllocCount { calls, bytes }
    }

    /// tick[0,100] { stage[10,40], cost[50,90] { scheme[55,85] + folded
    /// hops of 12 ns over 3 calls } }
    fn sample() -> Tracer {
        let mut t = Tracer::with_capacity(8);
        let (tick, stage, cost, scheme, hops) = (
            t.name("tick"),
            t.name("stage"),
            t.name("cost"),
            t.name("scheme"),
            t.name("hops"),
        );
        t.set_tick(7);
        let root = t.enter_at(tick, 0, count(100, 1000));
        let s = t.enter_at(stage, 10, count(101, 1010));
        t.exit_at(s, 40, count(111, 1110));
        let c = t.enter_at(cost, 50, count(112, 1120));
        let b = t.enter_at(scheme, 55, count(114, 1140));
        t.fold_at(hops, 12, count(2, 16), 3, 80);
        t.exit_at(b, 85, count(120, 1200));
        t.exit_at(c, 90, count(121, 1210));
        t.exit_at(root, 100, count(125, 1250));
        t
    }

    #[test]
    fn parents_and_ticks_are_recorded() {
        let t = sample();
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent.map(|p| p.0)).collect();
        // tick, stage, cost, scheme, hops (folded under scheme)
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), Some(3)]);
        assert!(t.spans().iter().all(|s| s.tick == 7));
        assert_eq!(t.spans()[4].calls, 3);
        assert_eq!(t.spans()[3].allocs, count(6, 60));
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let t = sample();
        let own = t.self_values();
        let ns: Vec<u64> = own.iter().map(|o| o.0).collect();
        // tick 100-30-40, stage 30, cost 40-30, scheme 30-12, hops 12
        assert_eq!(ns, [30, 30, 10, 18, 12]);
        let calls: Vec<u64> = own.iter().map(|o| o.1.calls).collect();
        // tick 25-10-9, stage 10, cost 9-6, scheme 6-2, hops 2
        assert_eq!(calls, [6, 10, 3, 4, 2]);
    }

    #[test]
    fn self_values_add_up_to_the_root_exactly() {
        let t = sample();
        let own = t.self_values();
        let root = &t.spans()[0];
        assert_eq!(
            own.iter().map(|o| o.0).sum::<u64>(),
            root.end_ns - root.start_ns
        );
        assert_eq!(own.iter().map(|o| o.1).sum::<AllocCount>(), root.allocs);
    }

    #[test]
    fn totals_group_spans_by_name() {
        let mut t = sample();
        let stage = t.name("stage");
        t.set_tick(8);
        let s = t.enter_at(stage, 200, count(130, 1300));
        t.exit_at(s, 205, count(131, 1301));
        let totals = t.totals();
        let st = t.total_of(&totals, "stage");
        assert_eq!(
            (st.self_ns, st.self_allocs, st.calls),
            (35, count(11, 101), 2)
        );
        assert_eq!(t.total_of(&totals, "hops").calls, 3);
        assert_eq!(t.total_of(&totals, "never"), NameTotals::default());
    }

    #[test]
    fn an_estimated_fold_cannot_outgrow_its_parent() {
        let mut t = Tracer::with_capacity(4);
        let (scheme, hops) = (t.name("scheme"), t.name("hops"));
        let s = t.enter_at(scheme, 100, count(0, 0));
        // 16 x one slow timed call: more than the 40 ns the span has run.
        t.fold_at(hops, 640, count(0, 0), 16, 140);
        t.exit_at(s, 150, count(0, 0));
        let ns: Vec<u64> = t.self_values().iter().map(|o| o.0).collect();
        assert_eq!(ns, [10, 40]);
    }

    #[test]
    fn clear_keeps_names_and_room() {
        let mut t = sample();
        let room = t.spans.capacity();
        t.clear();
        assert!(t.spans().is_empty());
        assert_eq!(t.spans.capacity(), room);
        assert_eq!(t.name("stage"), NameId(1));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::with_capacity(4);
        let n = t.name("x");
        let a = t.enter_at(n, 0, count(0, 0));
        let _b = t.enter_at(n, 1, count(0, 0));
        t.exit_at(a, 2, count(0, 0));
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let t = sample();
        let v = t.to_json();
        let spans = v.as_arr().expect("array");
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[3].get("name").and_then(Value::as_str), Some("scheme"));
        assert_eq!(spans[3].get("parent").and_then(Value::as_f64), Some(2.0));
        assert_eq!(spans[3].get("tick").and_then(Value::as_f64), Some(7.0));
    }
}
