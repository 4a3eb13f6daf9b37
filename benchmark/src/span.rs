//! Host-time spans recorded by the benchmark around its calls into the
//! product.
//!
//! The product has no host-clock instrumentation of its own yet, so the
//! outside view is all there is: one span per call into a layer, with
//! the span that caused it and a request id shared by all spans of one
//! operation. Spans live in a pre-sized `Vec` and are written out once,
//! when the workload ends. A disabled tracer costs one branch per call,
//! which is how the untraced run stays untraced.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marker for "no parent" / "tracer disabled".
pub const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// Shared by every span of one operation.
    pub request: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::with_capacity(false, 0)
    }

    /// A tracer keeping at most `capacity` spans (later ones are counted
    /// as dropped, never reallocated for).
    pub fn enabled(capacity: usize) -> Self {
        Self::with_capacity(true, capacity)
    }

    fn with_capacity(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            request: 0,
            capacity,
            dropped: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: spans begun from here on share a fresh id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Open a span under the innermost open one. Returns a token for
    /// [`end`](Self::end).
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request: self.request });
        self.stack.push(id);
        id
    }

    /// Close the span `begin` returned.
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        // Spans nest, so the closed one is on top; pop through it to stay
        // consistent even if a caller skipped an `end`.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_of(&self.spans)
    }

    /// The trace as JSON: `{"dropped":n,"spans":[{name,start_ns,end_ns,parent,request},…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(&format!("{{\"dropped\":{},\"spans\":[", self.dropped));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
            out.push_str(&format!(
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                parent,
                s.request
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            if let Some(list) = children.get_mut(s.parent as usize) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span("op", 0, 100, NO_SPAN),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("b.inner", 45, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 15, 15]);
        let t = totals_of(&spans);
        assert_eq!(t["op"], NameTotals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(t["b"], NameTotals { count: 1, total_ns: 30, self_ns: 15 });
        // Self times of a tree sum to the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span("op", 10, 110, NO_SPAN),
            span("a", 20, 60, 0),
            span("b", 50, 80, 0),   // overlaps a by 10
            span("c", 100, 150, 0), // sticks out by 40
        ];
        assert_eq!(self_times(&spans)[0], 100 - (60 - 20) - (80 - 60) - (110 - 100));
    }

    #[test]
    fn tracer_nests_shares_request_ids_and_bounds_memory() {
        let mut t = Tracer::enabled(3);
        t.next_request();
        let op = t.begin("op");
        let a = t.begin("a");
        t.end(a);
        let b = t.begin("b");
        t.end(b);
        let lost = t.begin("lost");
        assert_eq!(lost, NO_SPAN);
        t.end(lost);
        t.end(op);
        assert_eq!(t.dropped(), 1);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_SPAN, 0, 0));
        assert!(s.iter().all(|x| x.request == 1 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
        t.next_request();
        let next = Tracer::enabled(1).begin("x");
        assert_eq!(next, 0);
        assert!(t.to_json().starts_with("{\"dropped\":1,\"spans\":[{\"name\":\"op\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("op");
        assert_eq!(id, NO_SPAN);
        t.end(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
