//! Nested spans that collapse to flamegraph stacks.
//!
//! Weights are *deterministic units supplied by the caller* — search
//! node counts in this workspace, never elapsed time — so the collapsed
//! output is byte-identical across runs.  The rendered format is the
//! standard collapsed-stack line (`root;child weight`) consumed by
//! `flamegraph.pl` and compatible tooling.

/// A stack of named spans; exiting a span records its full
/// semicolon-joined path with a self-weight.
#[derive(Debug, Default, Clone)]
pub struct SpanStack {
    stack: Vec<&'static str>,
    recorded: Vec<(String, u64)>,
}

impl SpanStack {
    /// An empty stack.
    pub fn new() -> Self {
        SpanStack::default()
    }

    /// Opens a nested span named `name` (e.g. `"decide"`, then
    /// `"search"` inside it).
    pub fn enter(&mut self, name: &'static str) {
        self.stack.push(name);
    }

    /// Closes the innermost span, attributing `self_weight` units to its
    /// full path.  Zero-weight exits close the span without recording a
    /// line.
    pub fn exit(&mut self, self_weight: u64) {
        let path = self.stack.join(";");
        self.stack.pop();
        if self_weight > 0 && !path.is_empty() {
            self.recorded.push((path, self_weight));
        }
    }

    /// Consumes the stack, returning the recorded `(path, weight)`
    /// pairs in exit order.  Any still-open spans are discarded.
    pub fn finish(self) -> Vec<(String, u64)> {
        self.recorded
    }
}

/// Renders `(path, weight)` pairs as collapsed-stack lines, merging
/// duplicate paths and sorting for deterministic output.
pub fn render_collapsed<'a, I>(spans: I) -> String
where
    I: IntoIterator<Item = (&'a str, u64)>,
{
    let mut merged = std::collections::BTreeMap::<&str, u64>::new();
    for (path, weight) in spans {
        *merged.entry(path).or_insert(0) += weight;
    }
    let mut out = String::new();
    for (path, weight) in merged {
        out.push_str(path);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_records_the_full_path() {
        let mut s = SpanStack::new();
        s.enter("decide");
        s.enter("search");
        s.enter("local");
        s.exit(3);
        s.exit(40);
        s.exit(0); // decide itself: no self-weight, no line
        assert_eq!(
            s.finish(),
            vec![
                ("decide;search;local".to_string(), 3),
                ("decide;search".to_string(), 40),
            ]
        );
    }

    #[test]
    fn collapsed_rendering_merges_and_sorts() {
        let spans = [("a;b", 2), ("a", 1), ("a;b", 3)];
        assert_eq!(
            render_collapsed(spans.iter().map(|&(p, w)| (p, w))),
            "a 1\na;b 5\n"
        );
    }
}
