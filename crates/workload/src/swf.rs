//! Minimal Standard Workload Format (SWF) support.
//!
//! The parallel-workloads community archives traces in SWF: one job per
//! line, 18 whitespace-separated numeric fields, `;` comment/header
//! lines.  This module reads the subset of fields this workspace needs
//! (submit time, run time, requested processors, requested time) and can
//! write generated workloads back out, so the simulator can replay real
//! traces when they are available and our synthetic traces can be
//! inspected with standard tooling.
//!
//! Field mapping (1-based SWF columns):
//!
//! | SWF field | Meaning                      | Use                    |
//! |-----------|------------------------------|------------------------|
//! | 1         | job number                   | ignored (ids re-assigned) |
//! | 2         | submit time (s)              | [`Job::submit`]        |
//! | 4         | run time (s)                 | [`Job::runtime`]       |
//! | 5         | allocated processors         | fallback for nodes     |
//! | 8         | requested processors         | [`Job::nodes`]         |
//! | 9         | requested time (s)           | [`Job::requested`]     |
//!
//! Records with non-positive runtime or processor count (cancelled jobs,
//! missing data markers `-1`) are skipped, mirroring common practice.

use crate::generator::Workload;
use crate::job::{Job, JobId};
use crate::time::Time;

/// An error produced while parsing an SWF document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Reads the machine size from the SWF header comments.
///
/// The archive convention is a `; MaxNodes: N` and/or `; MaxProcs: N`
/// line in the header block; since this workspace models allocation in
/// nodes, `MaxNodes` wins when both are present.
pub fn header_capacity(text: &str) -> Option<u32> {
    let mut max_procs = None;
    for raw in text.lines() {
        let line = raw.trim();
        let Some(comment) = line.strip_prefix(';') else {
            // Header comments precede the first job record.
            if !line.is_empty() {
                break;
            }
            continue;
        };
        let Some((key, value)) = comment.split_once(':') else {
            continue;
        };
        let parsed = value.trim().parse::<u32>().ok().filter(|&v| v > 0);
        match key.trim() {
            "MaxNodes" if parsed.is_some() => return parsed,
            "MaxProcs" => max_procs = parsed.or(max_procs),
            _ => {}
        }
    }
    max_procs
}

/// Parses SWF text into a [`Workload`] for a machine of `capacity` nodes.
///
/// Jobs requesting more than `capacity` nodes are clamped to `capacity`
/// (some archive traces contain occasional oversized requests).  The
/// measurement window spans the first to last submit time; adjust it
/// afterwards if warm-up handling is desired.
pub fn parse(text: &str, capacity: u32) -> Result<Workload, SwfError> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut max_requested: Time = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 9 {
            return Err(SwfError {
                line: line_no,
                message: format!("expected >= 9 fields, found {}", fields.len()),
            });
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SWF fields are integers written as decimals; float-to-int `as` saturates deterministically"
        )]
        let field = |i: usize| -> Result<i64, SwfError> {
            fields[i - 1]
                .parse::<f64>()
                .map(|v| v as i64)
                .map_err(|_| SwfError {
                    line: line_no,
                    message: format!("field {i} is not numeric: {:?}", fields[i - 1]),
                })
        };
        let submit = field(2)?;
        let runtime = field(4)?;
        let allocated = field(5)?;
        let requested_procs = field(8)?;
        let requested_time = field(9)?;
        let user = if fields.len() >= 12 { field(12)? } else { -1 };

        // Skip unusable records (cancelled jobs, unknown runtimes).
        let procs = if requested_procs > 0 {
            requested_procs
        } else {
            allocated
        };
        if runtime <= 0 || procs <= 0 || submit < 0 {
            continue;
        }
        let runtime = runtime as Time;
        let requested = Time::try_from(requested_time)
            .ok()
            .filter(|&rt| rt >= runtime)
            .unwrap_or(runtime);
        max_requested = max_requested.max(requested);
        jobs.push(
            Job::new(
                JobId(u32::try_from(jobs.len()).unwrap_or(u32::MAX)),
                submit as Time,
                u32::try_from(procs).unwrap_or(u32::MAX).min(capacity),
                runtime,
                requested,
            )
            .with_user(u32::try_from(user.max(0)).unwrap_or(u32::MAX)),
        );
    }
    jobs.sort_by_key(|j| j.submit);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = JobId(u32::try_from(i).unwrap_or(u32::MAX));
    }
    let window = match (jobs.first(), jobs.last()) {
        (Some(a), Some(b)) => (a.submit, b.submit.saturating_add(1)),
        _ => (0, 0),
    };
    Ok(Workload {
        jobs,
        capacity,
        window,
        runtime_limit: max_requested.max(1),
        month: None,
    })
}

/// Serializes a workload as SWF text (one line per job, fields this crate
/// does not model written as `-1`).
pub fn write(workload: &Workload) -> String {
    let mut out = String::new();
    out.push_str("; Generated by sbs-workload\n");
    out.push_str(&format!("; MaxNodes: {}\n", workload.capacity));
    out.push_str(&format!("; MaxProcs: {}\n", workload.capacity));
    for j in &workload.jobs {
        // fields:        1       2  3  4  5  6  7  8  9  10..18
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 -1 {} -1 -1 -1 -1 -1 -1\n",
            j.id.0 + 1,
            j.submit,
            j.runtime,
            j.nodes,
            j.nodes,
            j.requested,
            j.user,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_workload, RandomWorkloadCfg};

    #[test]
    fn round_trip_preserves_jobs() {
        let w = random_workload(RandomWorkloadCfg::default(), 3);
        let text = write(&w);
        let parsed = parse(&text, w.capacity).expect("parse back");
        assert_eq!(parsed.jobs.len(), w.jobs.len());
        for (a, b) in w.jobs.iter().zip(&parsed.jobs) {
            assert_eq!(
                (a.submit, a.nodes, a.runtime, a.requested, a.user),
                (b.submit, b.nodes, b.runtime, b.requested, b.user)
            );
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "; header\n\n1 100 -1 3600 4 -1 -1 4 7200 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        let w = parse(text, 128).expect("parse");
        assert_eq!(w.jobs.len(), 1);
        assert_eq!(w.jobs[0].submit, 100);
        assert_eq!(w.jobs[0].nodes, 4);
        assert_eq!(w.jobs[0].runtime, 3600);
        assert_eq!(w.jobs[0].requested, 7200);
    }

    #[test]
    fn cancelled_jobs_are_dropped() {
        let text = "1 100 -1 -1 4 -1 -1 4 7200 -1 -1 -1 -1 -1 -1 -1 -1 -1\n\
                    2 200 -1 60 0 -1 -1 0 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n\
                    3 300 -1 60 2 -1 -1 2 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        let w = parse(text, 128).expect("parse");
        assert_eq!(w.jobs.len(), 1);
        assert_eq!(w.jobs[0].submit, 300);
    }

    #[test]
    fn requested_below_runtime_is_repaired() {
        let text = "1 0 -1 3600 4 -1 -1 4 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        let w = parse(text, 128).expect("parse");
        assert_eq!(w.jobs[0].requested, 3600);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse("garbage line here x y z a b c d\n", 128).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn header_capacity_reads_a_realistic_header_block() {
        // Shaped like the parallel-workloads archive headers (NCSA-style).
        let text = "; Version: 2.2\n\
                    ; Computer: IA-64 Linux Cluster\n\
                    ; Installation: NCSA\n\
                    ; Acknowledge: anonymous\n\
                    ; MaxJobs: 10000\n\
                    ; MaxRecords: 10000\n\
                    ; UnixStartTime: 1054425600\n\
                    ; MaxProcs: 128\n\
                    ; MaxRuntime: 172800\n\
                    ;\n\
                    1 100 -1 3600 4 -1 -1 4 7200 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        assert_eq!(header_capacity(text), Some(128));
        let w = parse(text, 128).expect("parse with the header's capacity");
        assert_eq!(w.capacity, 128);
        assert_eq!(w.jobs.len(), 1);
    }

    #[test]
    fn max_nodes_wins_over_max_procs() {
        // Dual-processor nodes: MaxProcs = 2 * MaxNodes; allocation here
        // is modelled in nodes.
        let text = "; MaxNodes: 64\n; MaxProcs: 128\n";
        assert_eq!(header_capacity(text), Some(64));
        let text = "; MaxProcs: 128\n; MaxNodes: 64\n";
        assert_eq!(header_capacity(text), Some(64));
    }

    #[test]
    fn header_scan_stops_at_the_first_job_record() {
        // A stray comment *after* data must not override the header.
        let text = "1 100 -1 60 1 -1 -1 1 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n\
                    ; MaxProcs: 4\n";
        assert_eq!(header_capacity(text), None);
    }

    #[test]
    fn malformed_header_values_fall_through() {
        // A MaxNodes that does not parse (or is zero) must not shadow a
        // usable MaxProcs, and vice versa.
        assert_eq!(
            header_capacity("; MaxNodes: abc\n; MaxProcs: 128\n"),
            Some(128)
        );
        assert_eq!(
            header_capacity("; MaxNodes: 0\n; MaxProcs: 128\n"),
            Some(128)
        );
        assert_eq!(
            header_capacity("; MaxNodes: -64\n; MaxProcs: 128\n"),
            Some(128)
        );
        assert_eq!(
            header_capacity("; MaxNodes: 64\n; MaxProcs: abc\n"),
            Some(64)
        );
        // Nothing usable at all: no capacity.
        assert_eq!(header_capacity("; MaxNodes: ?\n; MaxProcs:\n"), None);
        assert_eq!(header_capacity("; MaxProcs: zero\n"), None);
    }

    #[test]
    fn header_values_tolerate_archive_spacing() {
        // Archive headers vary in whitespace around the colon.
        assert_eq!(header_capacity(";MaxNodes:64\n"), Some(64));
        assert_eq!(header_capacity(";   MaxNodes  :   64\n"), Some(64));
        assert_eq!(header_capacity("; MaxProcs\t: 128\n"), Some(128));
    }

    #[test]
    fn repeated_header_lines_keep_the_last_valid_value() {
        // Some concatenated traces repeat header lines; a later valid
        // MaxProcs wins, a later malformed one is ignored.
        assert_eq!(
            header_capacity("; MaxProcs: 64\n; MaxProcs: 128\n"),
            Some(128)
        );
        assert_eq!(
            header_capacity("; MaxProcs: 64\n; MaxProcs: oops\n"),
            Some(64)
        );
    }

    #[test]
    fn headerless_trace_parses_with_explicit_capacity() {
        // No header names a machine size: the caller gives one to parse().
        let text = "1 100 -1 60 1 -1 -1 1 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        assert_eq!(header_capacity(text), None);
        let w = parse(text, 32).expect("explicit capacity");
        assert_eq!(w.capacity, 32);
        assert_eq!(w.jobs.len(), 1);
    }

    #[test]
    fn auto_round_trip_preserves_capacity() {
        let w = random_workload(RandomWorkloadCfg::default(), 9);
        let text = write(&w);
        let capacity = header_capacity(&text).expect("written headers name the machine");
        let parsed = parse(&text, capacity).expect("parse");
        assert_eq!(parsed.capacity, w.capacity);
        assert_eq!(parsed.jobs.len(), w.jobs.len());
    }

    #[test]
    fn unsorted_input_is_sorted_and_reindexed() {
        let text = "1 500 -1 60 1 -1 -1 1 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n\
                    2 100 -1 60 1 -1 -1 1 60 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        let w = parse(text, 128).expect("parse");
        assert_eq!(w.jobs[0].submit, 100);
        assert_eq!(w.jobs[0].id, JobId(0));
        assert_eq!(w.jobs[1].submit, 500);
    }
}
