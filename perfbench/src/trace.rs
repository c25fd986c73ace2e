//! In-memory span recording for the traced run.
//!
//! A span brackets one call into a layer of the program: its name, start and
//! end (nanoseconds since the tracer was created), the span that caused it
//! and the operation it belongs to. Spans are kept in memory and written out
//! once at the end. A disabled tracer records nothing, so the untraced run
//! pays one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one measured operation (0 for
    /// set-up and everything else outside the measured operations).
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call, in `scale` units per nanosecond (0 with no calls).
    pub fn mean(&self, scale: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 * scale
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0, next_op: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new measured operation: spans opened from now on share its
    /// identifier.
    pub fn begin_op(&mut self) {
        self.next_op += 1;
        self.op = self.next_op;
    }

    /// Leaves the measured operations: spans opened from now on get
    /// identifier 0, like set-up.
    pub fn end_ops(&mut self) {
        self.op = 0;
    }

    /// Whether spans opened now belong to a measured operation.
    pub fn in_op(&self) -> bool {
        self.op != 0
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`] (the innermost open one).
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end_ns = self.now_ns();
            self.spans[index].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count summed per span name, over the spans `keep`
    /// selects.
    pub fn totals(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)).filter(|(s, _)| keep(s)) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(file, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(file, "]")?;
        file.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once, and a child
/// reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut current: Option<(u64, u64)> = None;
            for &(s, e) in kids.iter() {
                match current {
                    Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        current = Some((s, e));
                    }
                    None => current = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = current {
                covered += ce - cs;
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [span("op", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 50, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("op", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // Reaches past the parent's end: only 190..200 is covered.
            span("c", 190, 230, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let spans = [span("op", 0, 100, None), span("a", 0, 60, Some(0)), span("b", 10, 20, Some(1))];
        assert_eq!(self_times(&spans), vec![40, 50, 10]);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut tracer = Tracer::new(true);
        tracer.begin_op();
        let op = tracer.enter("op");
        tracer.time("leaf", || std::hint::black_box(1 + 1));
        tracer.time("leaf", || ());
        tracer.exit(op);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let totals = tracer.totals(|_| true);
        assert_eq!(totals["leaf"].calls, 2);
        let whole = spans[0].duration_ns();
        assert_eq!(totals["op"].self_ns + totals["leaf"].self_ns, whole);
    }

    #[test]
    fn totals_keep_only_the_selected_spans() {
        let mut tracer = Tracer::new(true);
        tracer.time("leaf", || ());
        assert!(!tracer.in_op());
        tracer.begin_op();
        assert!(tracer.in_op());
        tracer.time("leaf", || ());
        tracer.end_ops();
        tracer.time("leaf", || ());
        assert_eq!(tracer.totals(|s| s.op != 0)["leaf"].calls, 1);
        assert_eq!(tracer.totals(|s| s.op == 0)["leaf"].calls, 2);
        assert!(tracer.totals(|s| s.name == "other").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.enter("op");
        tracer.exit(open);
        assert!(tracer.spans().is_empty());
        assert_eq!(Totals::default().mean(1.0), 0.0);
    }
}
