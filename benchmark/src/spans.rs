//! Spans around every call the benchmark makes into a layer.
//!
//! Spans live in the benchmark's own files only (spans inside the kernel
//! are ROADMAP item 5). They are held in memory and written when the run
//! ends. A disabled recorder costs one branch per call, so untraced and
//! traced passes run the same code.

use cmd_core::trace::json::JsonWriter;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a unit's root span.
    pub parent: Option<usize>,
    /// The unit this span belongs to: all spans of one unit share it.
    pub unit: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: usize,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans::new(true)
    }

    fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the matching [`Spans::exit`] closes it.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.unit += 1;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent,
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (name, unit, parent, start and end in ns).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_u64("unit", s.unit as u64);
            w.key("parent");
            match s.parent {
                Some(p) => w.number_u64(p as u64),
                None => w.raw("null"),
            }
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one parent never overlap here (one thread), so the
/// covered part is the sum of the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Total duration of the root spans: the traced pass.
pub fn pass_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Self time of the spans named any of `names`, as a share of the pass.
pub fn share(spans: &[Span], names: &[&str]) -> f64 {
    let pass = pass_ns(spans);
    if pass == 0 {
        return 0.0;
    }
    let own: u64 = self_times_ns(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| names.contains(&s.name))
        .map(|(ns, _)| ns)
        .sum();
    own as f64 / pass as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            unit: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_sum_to_the_pass() {
        let spans = vec![
            span("unit", None, 0, 100),
            span("ooo.build", Some(0), 5, 25),
            span("ooo.run", Some(0), 25, 90),
            span("ooo.detail", Some(2), 30, 50),
            span("unit", None, 100, 160),
            span("ooo.run", Some(4), 110, 160),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![15, 20, 45, 20, 10, 50]);
        assert_eq!(own.iter().sum::<u64>(), pass_ns(&spans));
        assert_eq!(share(&spans, &["ooo.run"]), 95.0 / 160.0);
        assert_eq!(share(&spans, &["ff.run"]), 0.0);
    }

    #[test]
    fn recorded_spans_nest_and_sum() {
        let mut sp = Spans::on();
        for _ in 0..2 {
            sp.enter("unit");
            sp.scope("workloads.gen", || std::hint::black_box(1 + 1));
            sp.enter("ooo.run");
            sp.scope("ooo.detail", || std::hint::black_box(2 + 2));
            sp.exit();
            sp.exit();
        }
        let spans = sp.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[0].unit, spans[4].unit), (1, 2));
        assert_eq!(self_times_ns(spans).iter().sum::<u64>(), pass_ns(spans));
        assert!(sp
            .to_json()
            .starts_with("[{\"name\":\"unit\",\"unit\":1,\"parent\":null,"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut sp = Spans::off();
        sp.enter("unit");
        assert_eq!(sp.scope("ooo.run", || 7), 7);
        sp.exit();
        assert!(sp.spans().is_empty());
    }
}
