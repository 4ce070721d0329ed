//! Prometheus text exposition: typed rendering, parsing, validation.
//!
//! The renderer emits real `counter` and `histogram` families (with
//! `_bucket`/`_sum`/`_count` series) instead of gauges-only text; the
//! parser and [`validate`] exist so the service can roundtrip-test its
//! own `/metrics` output: HELP/TYPE pairing, `_total` naming for
//! counters, bucket monotonicity and cumulative counts, and absence of
//! duplicate series.

use crate::hist::Histogram;

/// Label pairs attached to one sample, in render order.
pub type Labels = Vec<(String, String)>;

/// One sample of a counter or gauge family: label set plus a
/// pre-formatted value (callers control decimal precision).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledValue {
    /// Label pairs, rendered in order.
    pub labels: Labels,
    /// Pre-formatted sample value.
    pub value: String,
}

/// The value payload of one metric family.  Every variant holds one or
/// more samples; multi-sample families carry distinguishing labels
/// (e.g. `cluster="..."` in the fleet daemon's per-tenant exposition).
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyData {
    /// A monotone counter; the name must end in `_total`.
    Counter(Vec<LabeledValue>),
    /// A point-in-time gauge.
    Gauge(Vec<LabeledValue>),
    /// Cumulative histograms over `u64` observations, one per label set.
    Histogram(Vec<(Labels, Histogram)>),
}

/// One named family: HELP text plus data.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric family name.
    pub name: String,
    /// HELP line text.
    pub help: String,
    /// The samples.
    pub data: FamilyData,
}

/// An ordered set of families rendering to exposition text.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    families: Vec<Family>,
}

/// One sample's value, typed as the family it joins.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample<'a> {
    /// A monotone counter value (the family name must end in `_total`).
    Counter(String),
    /// A point-in-time gauge value.
    Gauge(String),
    /// A cumulative histogram.
    Histogram(&'a Histogram),
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// Appends one sample under `labels` to the family `name`, which its
    /// first sample creates with `help`; families render in creation
    /// order, each sample under its family.
    pub fn push(&mut self, name: &str, help: &str, labels: Labels, sample: Sample<'_>) {
        debug_assert!(
            !matches!(sample, Sample::Counter(_)) || name.ends_with("_total"),
            "counter {name} must end in _total"
        );
        let at = match self.families.iter().position(|f| f.name == name) {
            Some(at) => at,
            None => {
                self.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    data: match sample {
                        Sample::Counter(_) => FamilyData::Counter(Vec::new()),
                        Sample::Gauge(_) => FamilyData::Gauge(Vec::new()),
                        Sample::Histogram(_) => FamilyData::Histogram(Vec::new()),
                    },
                });
                self.families.len() - 1
            }
        };
        match (&mut self.families[at].data, sample) {
            (FamilyData::Counter(samples), Sample::Counter(value))
            | (FamilyData::Gauge(samples), Sample::Gauge(value)) => {
                samples.push(LabeledValue { labels, value });
            }
            (FamilyData::Histogram(series), Sample::Histogram(h)) => {
                series.push((labels, h.clone()));
            }
            _ => debug_assert!(false, "family {name} changed type"),
        }
    }

    /// Renders the exposition text (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            out.push_str("# HELP ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(&f.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(match f.data {
                FamilyData::Counter(_) => "counter",
                FamilyData::Gauge(_) => "gauge",
                FamilyData::Histogram(_) => "histogram",
            });
            out.push('\n');
            match &f.data {
                FamilyData::Counter(samples) | FamilyData::Gauge(samples) => {
                    for s in samples {
                        out.push_str(&f.name);
                        out.push_str(&label_block(&s.labels, None));
                        out.push(' ');
                        out.push_str(&s.value);
                        out.push('\n');
                    }
                }
                FamilyData::Histogram(series) => {
                    for (labels, h) in series {
                        let cumulative = h.cumulative();
                        for (bound, cum) in h.bounds().iter().zip(&cumulative) {
                            out.push_str(&format!(
                                "{}_bucket{} {cum}\n",
                                f.name,
                                label_block(labels, Some(&bound.to_string()))
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            label_block(labels, Some("+Inf")),
                            h.count()
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            f.name,
                            label_block(labels, None),
                            h.sum()
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            f.name,
                            label_block(labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Renders `{k="v",...}` (with an optional trailing `le`), or the empty
/// string when there are no labels at all — so unlabeled families render
/// byte-identically to the pre-label format.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Sample name (family name plus any `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One parsed family: HELP + TYPE + samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFamily {
    /// Family name from the HELP/TYPE lines.
    pub name: String,
    /// HELP text.
    pub help: String,
    /// TYPE string (`counter` / `gauge` / `histogram`).
    pub kind: String,
    /// The family's samples in source order.
    pub samples: Vec<ParsedSample>,
}

/// Parses exposition text into families.
///
/// Strict enough for roundtrip-testing our own renderer: every sample
/// must follow a `# HELP` + `# TYPE` pair for its family, and HELP must
/// precede TYPE.
pub fn parse(text: &str) -> Result<Vec<ParsedFamily>, String> {
    let mut families: Vec<ParsedFamily> = Vec::new();
    let mut pending_help: Option<(String, String)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').ok_or_else(|| err("malformed HELP"))?;
            if pending_help.is_some() {
                return Err(err("HELP without a following TYPE"));
            }
            pending_help = Some((name.to_string(), help.to_string()));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').ok_or_else(|| err("malformed TYPE"))?;
            let (help_name, help) = pending_help
                .take()
                .ok_or_else(|| err("TYPE without a preceding HELP"))?;
            if help_name != name {
                return Err(err("HELP/TYPE name mismatch"));
            }
            families.push(ParsedFamily {
                name: name.to_string(),
                help,
                kind: kind.to_string(),
                samples: Vec::new(),
            });
        } else if line.starts_with('#') {
            continue; // comment
        } else {
            let sample = parse_sample(line).map_err(|m| err(&m))?;
            let family = families
                .last_mut()
                .filter(|f| belongs_to(&sample.name, &f.name))
                .ok_or_else(|| err("sample outside its HELP/TYPE family"))?;
            family.samples.push(sample);
        }
    }
    if pending_help.is_some() {
        return Err("trailing HELP without TYPE".to_string());
    }
    Ok(families)
}

fn belongs_to(sample: &str, family: &str) -> bool {
    sample == family
        || sample
            .strip_prefix(family)
            .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count"))
}

fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let (name, labels, value_part) = match line.find('{') {
        Some(open) => {
            let (labels, rest) = parse_label_block(&line[open + 1..])?;
            (line[..open].to_string(), labels, rest.trim())
        }
        None => {
            let (n, v) = line.split_once(' ').ok_or("missing value")?;
            (n.to_string(), Vec::new(), v.trim())
        }
    };
    let value: f64 = match value_part {
        "+Inf" => f64::INFINITY,
        v => v.parse().map_err(|_| format!("bad value {v:?}"))?,
    };
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

/// Scans a `k="v",...}` label block (the leading `{` already consumed),
/// honoring backslash escapes inside quoted values — a `}`, `,`, or
/// escaped quote *inside* a value must not terminate the block.
/// Returns the labels with their values unescaped, plus the text after
/// the closing `}`, so escaped expositions round-trip through the
/// parser.
type LabelBlock<'a> = (Vec<(String, String)>, &'a str);

fn parse_label_block(s: &str) -> Result<LabelBlock<'_>, String> {
    let mut labels = Vec::new();
    let mut it = s.char_indices().peekable();
    loop {
        match it.peek() {
            Some(&(i, '}')) => return Ok((labels, &s[i + 1..])),
            None => return Err("unclosed label set".into()),
            _ => {}
        }
        let mut key = String::new();
        let mut saw_eq = false;
        while let Some(&(_, c)) = it.peek() {
            if c == '=' {
                it.next();
                saw_eq = true;
                break;
            }
            if c == '}' || c == ',' {
                break;
            }
            key.push(c);
            it.next();
        }
        if !saw_eq {
            return Err("malformed label".into());
        }
        if !matches!(it.next(), Some((_, '"'))) {
            return Err("unquoted label value".into());
        }
        let mut value = String::new();
        loop {
            let Some((_, c)) = it.next() else {
                return Err("unterminated label value".into());
            };
            match c {
                '"' => break,
                '\\' => match it.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, other)) => {
                        value.push('\\');
                        value.push(other);
                    }
                    None => return Err("unterminated escape in label value".into()),
                },
                other => value.push(other),
            }
        }
        labels.push((key, value));
        match it.peek() {
            Some(&(_, ',')) => {
                it.next();
            }
            Some(&(_, '}')) => {}
            _ => return Err("malformed label".into()),
        }
    }
}

/// Parses and cross-checks exposition text.
///
/// Checks: HELP/TYPE pairing per family, known TYPE strings, counter
/// `_total` naming and non-negative values, no duplicate series
/// (name + label set), and for histograms: `_bucket`/`_sum`/`_count`
/// presence, monotone nondecreasing cumulative bucket counts, and the
/// `+Inf` bucket equalling `_count`.
pub fn validate(text: &str) -> Result<Vec<ParsedFamily>, String> {
    let families = parse(text)?;
    let mut seen_families = std::collections::BTreeSet::new();
    let mut seen_series = std::collections::BTreeSet::new();
    for f in &families {
        if !seen_families.insert(f.name.clone()) {
            return Err(format!("duplicate family {}", f.name));
        }
        for s in &f.samples {
            let series = format!("{}{:?}", s.name, s.labels);
            if !seen_series.insert(series) {
                return Err(format!("duplicate series {} in {}", s.name, f.name));
            }
        }
        match f.kind.as_str() {
            "gauge" => validate_scalar(f, false)?,
            "counter" => {
                if !f.name.ends_with("_total") {
                    return Err(format!("counter {} does not end in _total", f.name));
                }
                validate_scalar(f, true)?;
            }
            "histogram" => validate_histogram(f)?,
            other => return Err(format!("family {} has unknown TYPE {other}", f.name)),
        }
    }
    Ok(families)
}

fn validate_scalar(f: &ParsedFamily, counter: bool) -> Result<(), String> {
    let kind = if counter { "counter" } else { "gauge" };
    if f.samples.is_empty() {
        return Err(format!("{kind} {} has no samples", f.name));
    }
    let unlabeled = f.samples.iter().filter(|s| s.labels.is_empty()).count();
    if f.samples.len() > 1 && unlabeled > 0 {
        return Err(format!(
            "{kind} {} mixes labeled and unlabeled samples",
            f.name
        ));
    }
    for s in &f.samples {
        if s.name != f.name {
            return Err(format!("{kind} {} has stray sample {}", f.name, s.name));
        }
        if counter && s.value < 0.0 {
            return Err(format!("counter {} is negative", f.name));
        }
    }
    Ok(())
}

/// Validates a histogram family by grouping its samples per non-`le`
/// label set, then checking each group independently (buckets present,
/// bounds increasing, counts cumulative, `+Inf` == `_count`).
fn validate_histogram(f: &ParsedFamily) -> Result<(), String> {
    #[derive(Default)]
    struct Group {
        buckets: Vec<(f64, f64)>,
        sum: Option<f64>,
        count: Option<f64>,
    }
    let bucket_name = format!("{}_bucket", f.name);
    let sum_name = format!("{}_sum", f.name);
    let count_name = format!("{}_count", f.name);
    let mut groups: std::collections::BTreeMap<String, Group> = std::collections::BTreeMap::new();
    let group_key = |labels: &[(String, String)]| -> String {
        let mut pairs: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        pairs.sort();
        pairs.join(",")
    };
    for s in &f.samples {
        let group = groups.entry(group_key(&s.labels)).or_default();
        if s.name == bucket_name {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("{} bucket without le label", f.name))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|_| format!("{} has bad le {le:?}", f.name))?
            };
            group.buckets.push((bound, s.value));
        } else if s.name == sum_name {
            group.sum = Some(s.value);
        } else if s.name == count_name {
            group.count = Some(s.value);
        } else {
            return Err(format!("histogram {} has stray sample {}", f.name, s.name));
        }
    }
    if groups.is_empty() {
        return Err(format!("histogram {} has no samples", f.name));
    }
    for (key, g) in &groups {
        let tag = if key.is_empty() {
            f.name.clone()
        } else {
            format!("{}{{{key}}}", f.name)
        };
        let count = g
            .count
            .ok_or_else(|| format!("histogram {tag} missing _count"))?;
        if g.sum.is_none() {
            return Err(format!("histogram {tag} missing _sum"));
        }
        if g.buckets.is_empty() {
            return Err(format!("histogram {tag} has no buckets"));
        }
        for w in g.buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("histogram {tag} bucket bounds not increasing"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("histogram {tag} bucket counts not cumulative"));
            }
        }
        if let Some(last) = g.buckets.last() {
            if !last.0.is_infinite() {
                return Err(format!("histogram {tag} missing +Inf bucket"));
            }
            if last.1 != count {
                return Err(format!("histogram {tag} +Inf bucket != _count"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_exposition() -> Exposition {
        let mut e = Exposition::new();
        e.push(
            "up",
            "Whether the scraper is happy.",
            vec![],
            Sample::Gauge("1".into()),
        );
        e.push(
            "requests_total",
            "Requests served.",
            vec![],
            Sample::Counter("42".into()),
        );
        let mut h = Histogram::new(&[1, 10, 100]);
        for v in [0, 5, 5, 50, 500] {
            h.observe(v);
        }
        e.push(
            "latency",
            "Latency distribution.",
            vec![],
            Sample::Histogram(&h),
        );
        e
    }

    #[test]
    fn render_parse_validate_roundtrip() {
        let text = sample_exposition().render();
        let families = validate(&text).expect("valid exposition");
        assert_eq!(families.len(), 3);
        assert_eq!(families[1].kind, "counter");
        assert_eq!(families[1].samples[0].value, 42.0);
        let hist = &families[2];
        assert_eq!(hist.kind, "histogram");
        // buckets: le=1 -> 1, le=10 -> 3, le=100 -> 4, +Inf -> 5
        let values: Vec<f64> = hist.samples.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![1.0, 3.0, 4.0, 5.0, 560.0, 5.0]);
    }

    #[test]
    fn validation_rejects_broken_text() {
        // TYPE without HELP
        assert!(validate("# TYPE x gauge\nx 1\n").is_err());
        // counter not ending in _total
        assert!(validate("# HELP c x\n# TYPE c counter\nc 1\n").is_err());
        // duplicate series
        assert!(validate("# HELP g x\n# TYPE g gauge\ng 1\ng 2\n").is_err());
        // non-cumulative buckets
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        assert!(validate(bad).is_err());
        // +Inf bucket must equal _count
        let bad2 = "# HELP h x\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 4\n";
        assert!(validate(bad2).is_err());
        // sample outside its family
        assert!(validate("# HELP a x\n# TYPE a gauge\nb 1\n").is_err());
        // mixing labeled and unlabeled samples in one scalar family
        let mixed = "# HELP g x\n# TYPE g gauge\ng 1\ng{cluster=\"a\"} 2\n";
        assert!(validate(mixed).is_err());
    }

    #[test]
    fn labeled_families_group_and_roundtrip() {
        let mut e = Exposition::new();
        let cluster = |id: &str| vec![("cluster".to_string(), id.to_string())];
        e.push(
            "jobs_total",
            "Jobs per cluster.",
            cluster("alpha"),
            Sample::Counter("7".into()),
        );
        e.push(
            "jobs_total",
            "Jobs per cluster.",
            cluster("beta"),
            Sample::Counter("11".into()),
        );
        let mut ha = Histogram::new(&[1, 10]);
        ha.observe(5);
        let mut hb = Histogram::new(&[1, 10]);
        hb.observe(0);
        hb.observe(100);
        e.push(
            "lat",
            "Latency per cluster.",
            cluster("alpha"),
            Sample::Histogram(&ha),
        );
        e.push(
            "lat",
            "Latency per cluster.",
            cluster("beta"),
            Sample::Histogram(&hb),
        );
        let text = e.render();
        // One HELP/TYPE header per family, samples distinguished by label.
        assert_eq!(text.matches("# TYPE jobs_total counter").count(), 1);
        assert!(text.contains("jobs_total{cluster=\"alpha\"} 7\n"));
        assert!(text.contains("jobs_total{cluster=\"beta\"} 11\n"));
        assert!(text.contains("lat_bucket{cluster=\"alpha\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_sum{cluster=\"beta\"} 100\n"));
        let families = validate(&text).expect("labeled exposition validates");
        assert_eq!(families.len(), 2);
        assert_eq!(families[0].samples.len(), 2);
    }

    #[test]
    fn unlabeled_rendering_is_unchanged_by_label_support() {
        let text = sample_exposition().render();
        assert!(text.contains("up 1\n"));
        assert!(text.contains("requests_total 42\n"));
        assert!(text.contains("latency_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("latency_sum 560\n"));
        assert!(!text.contains("{}"), "no empty label blocks");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        let labels = vec![("cluster".into(), "a\"b\\c".into())];
        e.push("g", "x", labels, Sample::Gauge("1".into()));
        assert!(e.render().contains("g{cluster=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn escaped_label_values_round_trip_through_the_parser() {
        // Every character the renderer escapes, plus the structural
        // characters (`}`, `,`, `=`) that a naive scanner trips over.
        let hostile = "a\"b\\c\nd}e,f=g";
        let mut e = Exposition::new();
        let labels = || vec![("cluster".to_string(), hostile.to_string())];
        e.push("g", "x", labels(), Sample::Gauge("1".into()));
        let mut h = Histogram::new(&[1, 10]);
        h.observe(5);
        e.push("lat", "y", labels(), Sample::Histogram(&h));
        let text = e.render();
        let families = validate(&text).expect("escaped exposition validates");
        assert_eq!(families[0].samples[0].labels[0].1, hostile);
        // The histogram's `le` label survives next to the escaped value.
        let bucket = &families[1].samples[0];
        assert_eq!(bucket.labels[0].1, hostile);
        assert_eq!(bucket.labels[1].0, "le");
    }

    #[test]
    fn parser_rejects_malformed_label_blocks() {
        assert!(parse_sample("g{cluster=\"open 1").is_err());
        assert!(parse_sample("g{cluster=\"a\\").is_err());
        assert!(parse_sample("g{cluster=unquoted} 1").is_err());
        assert!(parse_sample("g{cluster} 1").is_err());
        assert!(parse_sample("g{cluster=\"a\"b=\"c\"} 1").is_err());
    }
}
