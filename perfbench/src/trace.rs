//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark, around its calls into the
//! program's layers.  Each span keeps its name, start, end, parent and step
//! id; nothing is written until the run ends.

use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `tensor.complement`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// The span that caused this one; `None` for a step's root span.
    pub parent: Option<SpanId>,
    /// The stream step the span belongs to.
    pub step: usize,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the root span of `step`.
    pub fn begin_step(&mut self, name: &'static str, step: usize) -> SpanId {
        self.open(name, None, step)
    }

    /// Opens a child span of `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let step = self.spans[parent].step;
        self.open(name, Some(parent), step)
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a new child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f(self, id);
        self.end(id);
        out
    }

    fn open(&mut self, name: &'static str, parent: Option<SpanId>, step: usize) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            step,
        });
        self.spans.len() - 1
    }

    /// Records a child span of `parent` timed elsewhere, e.g. on a worker
    /// thread that returned its own start and end instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let step = self.spans[parent].step;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: Some(parent),
            step,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the part of it its children cover.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let span = &self.spans[id];
        self_time_ns((span.start_ns, span.end_ns), &children)
    }

    /// Checks that every span's chain of parents ends at a root span of the
    /// same step, and that each step has exactly one root.
    ///
    /// # Errors
    /// Describes the first span that breaks the nesting.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut roots: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut cur = id;
            while let Some(p) = self.spans[cur].parent {
                if p >= cur {
                    return Err(format!(
                        "span {id} ({}) has a parent recorded after it",
                        span.name
                    ));
                }
                cur = p;
            }
            let root = &self.spans[cur];
            if root.step != span.step {
                return Err(format!(
                    "span {id} ({}) of step {} nests under the root of step {}",
                    span.name, span.step, root.step
                ));
            }
            if cur == id {
                *roots.entry(span.step).or_default() += 1;
            }
        }
        match roots.iter().find(|(_, &n)| n != 1) {
            Some((step, n)) => Err(format!("step {step} has {n} root spans")),
            None => Ok(()),
        }
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> serde::Value {
        use serde::Value;
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("step".into(), Value::U64(s.step as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of `parent` not covered by any of `children`.  Children are
/// clipped to the parent and overlaps between them count once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time_ns((10, 110), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping and nested children count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 60), (35, 45)]), 50);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time_ns((20, 60), &[(0, 30), (50, 90)]), 20);
        // A child outside the parent covers nothing.
        assert_eq!(self_time_ns((0, 10), &[(20, 30)]), 10);
        // Fully covered.
        assert_eq!(self_time_ns((0, 10), &[(0, 4), (4, 10)]), 0);
    }

    #[test]
    fn tracer_nests_children_under_their_step() {
        let mut t = Tracer::default();
        let root = t.begin_step("step", 0);
        t.child("a", root, |t, a| {
            t.child("b", a, |_, _| ());
        });
        t.end(root);
        let root = t.begin_step("step", 1);
        t.child("c", root, |_, _| ());
        t.end(root);
        assert!(t.check_nesting().is_ok());
        assert_eq!(t.spans().len(), 5);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let a = &t.spans()[1];
        let b = &t.spans()[2];
        assert_eq!(t.self_time_ns(1), a.duration_ns() - b.duration_ns());
    }

    #[test]
    fn nesting_check_rejects_a_second_root_for_a_step() {
        let mut t = Tracer::default();
        let a = t.begin_step("step", 0);
        t.end(a);
        let b = t.begin_step("stray", 0);
        t.end(b);
        assert!(t.check_nesting().is_err());
    }
}
