//! The benchmark's own spans.
//!
//! The traced pass wraps every call into a layer's public function in a
//! span — name, start, end, parent, request id — recorded here, in
//! memory, and written to `benchmark/out/trace-<workload>.jsonl` when
//! the run ends.  A layer's **self time** is its span's duration minus
//! the part covered by its child spans.  Calls shorter than about a
//! microsecond (`advance_to`, `next_departure`) are *tallied* — count
//! plus total time under their parent — instead of getting one record
//! each, so tracing stays within its overhead budget.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle to a registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(usize);

/// Totals of one span name over the whole pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans (or tallied calls) closed under this name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), nanoseconds.
    pub self_ns: u64,
}

/// One closed span as it is written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Sequence number, unique within the tracer.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Registered name.
    pub name: Name,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Request the span belongs to (decision number, op number, ...).
    pub req: u64,
}

struct Open {
    id: u64,
    name: Name,
    start_ns: u64,
    req: u64,
    child_ns: u64,
}

/// Span recorder for one thread.  Aggregates cover every span; full
/// records are kept for the first `cap` of them.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    recs: Vec<SpanRec>,
    cap: usize,
    next_id: u64,
    stack: Vec<Open>,
}

impl Tracer {
    /// A tracer keeping at most `cap` full span records, timing from
    /// `epoch` (share one epoch across threads so records line up).
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Tracer {
            epoch,
            names: Vec::new(),
            aggs: Vec::new(),
            recs: Vec::new(),
            cap,
            next_id: 0,
            stack: Vec::new(),
        }
    }

    /// Registers (or finds) a span name.
    pub fn name(&mut self, name: &'static str) -> Name {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return Name(i);
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        Name(self.names.len() - 1)
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn enter(&mut self, name: Name, req: u64) {
        let start_ns = self.now_ns();
        self.enter_at(name, req, start_ns);
    }

    /// Opens a span with a start time the caller already read.
    pub fn enter_at(&mut self, name: Name, req: u64, start_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            name,
            start_ns,
            req,
            child_ns: 0,
        });
    }

    /// Closes the innermost span now; returns its duration.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        self.exit_at(end_ns)
    }

    /// Closes the innermost span at `end_ns`; returns its duration.
    pub fn exit_at(&mut self, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let agg = &mut self.aggs[open.name.0];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.recs.len() < self.cap {
            self.recs.push(SpanRec {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                req: open.req,
            });
        }
        dur
    }

    /// Records a complete child span `[start_ns, end_ns]` of the
    /// innermost open span.
    pub fn leaf(&mut self, name: Name, req: u64, start_ns: u64, end_ns: u64) {
        self.enter_at(name, req, start_ns);
        self.exit_at(end_ns);
    }

    /// Accumulates a sub-microsecond call: count + time under `name`,
    /// charged to the innermost open span as child time, no record.
    pub fn tally(&mut self, name: Name, ns: u64) {
        let agg = &mut self.aggs[name.0];
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += ns;
        }
    }

    /// Totals for `name` (zero if it was never registered).
    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.aggs[i])
            .unwrap_or_default()
    }

    /// Mean duration of `name` in nanoseconds (0 if never seen).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64
        }
    }

    /// Full records kept so far.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Folds another thread's tracer into this one.  Record ids are
    /// re-based so they stay unique; names are matched by text.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "merging a tracer with open spans");
        let map: Vec<Name> = other.names.iter().map(|n| self.name(n)).collect();
        for (i, a) in other.aggs.iter().enumerate() {
            let mine = &mut self.aggs[map[i].0];
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        let base = self.next_id;
        for r in other.recs {
            if self.recs.len() >= self.cap {
                break;
            }
            self.recs.push(SpanRec {
                id: base + r.id,
                parent: r.parent.map(|p| base + p),
                name: map[r.name.0],
                ..r
            });
        }
        self.next_id += other.next_id;
    }

    /// Writes one JSON object per kept record, then one `agg` line per
    /// name, and returns how many lines were written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut lines = 0;
        for r in &self.recs {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"req":{}}}"#,
                r.id, parent, self.names[r.name.0], r.start_ns, r.end_ns, r.req
            )?;
            lines += 1;
        }
        for (name, a) in self.names.iter().zip(&self.aggs) {
            writeln!(
                out,
                r#"{{"agg":"{}","count":{},"total_ns":{},"self_ns":{}}}"#,
                name, a.count, a.total_ns, a.self_ns
            )?;
            lines += 1;
        }
        out.flush()?;
        Ok(lines)
    }
}

/// Loads a trace file back and checks that every line parses, that
/// every parent id names a kept span or one cut by the record cap, and
/// that children lie inside their parents.  Returns the line count.
pub fn load_and_check(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = std::collections::BTreeMap::new();
    let mut lines = 0;
    for line in text.lines() {
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("line {lines}: {e}"))?;
        lines += 1;
        if v.get("agg").is_some() {
            continue;
        }
        let get = |k: &str| v[k].as_u64().ok_or(format!("line {lines}: no {k}"));
        let (start, end) = (get("start_ns")?, get("end_ns")?);
        if end < start {
            return Err(format!("line {lines}: span ends before it starts"));
        }
        spans.insert(get("id")?, (v["parent"].as_u64(), start, end));
    }
    for (id, (parent, start, end)) in &spans {
        if let Some((_, ps, pe)) = parent.and_then(|p| spans.get(&p)) {
            if start < ps || end > pe {
                return Err(format!("span {id} is not inside its parent"));
            }
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now(), 100)
    }

    #[test]
    fn self_time_is_the_span_minus_its_children_when_nested() {
        let mut t = tracer();
        let (a, b, c) = (t.name("a"), t.name("b"), t.name("c"));
        // a [0,100] > b [10,60] > c [20,30]
        t.enter_at(a, 1, 0);
        t.enter_at(b, 1, 10);
        t.leaf(c, 1, 20, 30);
        t.exit_at(60);
        t.exit_at(100);
        assert_eq!(t.agg("c").self_ns, 10);
        assert_eq!(t.agg("b").total_ns, 50);
        assert_eq!(t.agg("b").self_ns, 40, "b minus c");
        assert_eq!(t.agg("a").total_ns, 100);
        assert_eq!(t.agg("a").self_ns, 50, "a minus b only: c is b's child");
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        let by_name = |n: Name| recs.iter().find(|r| r.name == n).expect("recorded");
        assert_eq!(by_name(c).parent, Some(by_name(b).id));
        assert_eq!(by_name(b).parent, Some(by_name(a).id));
        assert_eq!(by_name(a).parent, None);
    }

    #[test]
    fn sibling_children_are_all_subtracted() {
        let mut t = tracer();
        let (a, b) = (t.name("a"), t.name("b"));
        let quick = t.name("quick");
        t.enter_at(a, 7, 0);
        t.leaf(b, 7, 10, 30);
        t.leaf(b, 7, 40, 70);
        t.tally(quick, 5);
        t.exit_at(100);
        assert_eq!(t.agg("b").count, 2);
        assert_eq!(t.agg("b").total_ns, 50);
        assert_eq!(t.agg("a").self_ns, 100 - 50 - 5, "two siblings and a tally");
        assert_eq!(t.agg("quick").count, 1);
        assert_eq!(t.records().len(), 3, "tallies leave no record");
        assert!(t.records().iter().all(|r| r.req == 7));
    }

    #[test]
    fn the_record_cap_bounds_memory_but_not_the_totals() {
        let mut t = Tracer::new(Instant::now(), 2);
        let a = t.name("a");
        for i in 0..5 {
            t.leaf(a, i, i * 10, i * 10 + 4);
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.agg("a").count, 5);
        assert_eq!(t.agg("a").total_ns, 20);
    }

    #[test]
    fn merge_keeps_ids_unique_and_sums_totals() {
        let epoch = Instant::now();
        let mut x = Tracer::new(epoch, 100);
        let mut y = Tracer::new(epoch, 100);
        let ax = x.name("op");
        let outer = y.name("outer");
        let ay = y.name("op");
        x.leaf(ax, 1, 0, 10);
        y.enter_at(outer, 2, 0);
        y.leaf(ay, 2, 5, 25);
        y.exit_at(30);
        x.merge(y);
        assert_eq!(x.agg("op").count, 2);
        assert_eq!(x.agg("op").total_ns, 30);
        let mut ids: Vec<u64> = x.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let child = x
            .records()
            .iter()
            .find(|r| r.req == 2 && r.parent.is_some());
        let parent_id = child.and_then(|c| c.parent).expect("child keeps a parent");
        assert!(x.records().iter().any(|r| r.id == parent_id));
    }

    #[test]
    fn the_trace_file_round_trips() {
        let mut t = tracer();
        let (a, b) = (t.name("fleet.handle_routed"), t.name("policy.decide"));
        t.enter_at(a, 3, 100);
        t.leaf(b, 3, 120, 180);
        t.exit_at(200);
        let dir = crate::env::out_dir().join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let written = t.write_jsonl(&path).expect("write");
        assert_eq!(written, 4, "two spans and two agg lines");
        assert_eq!(load_and_check(&path), Ok(4));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
