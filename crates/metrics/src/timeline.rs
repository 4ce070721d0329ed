//! ASCII machine-utilization and queue timelines.
//!
//! A scheduler repo needs a way to *look* at a schedule.  This module
//! renders the node occupancy (and optionally queue length) of a
//! completed simulation as a fixed-width sparkline over the measurement
//! window — enough to spot drain-out gaps, backfill density, and the
//! difference between policies at a glance.

use sbs_sim::JobRecord;
use sbs_workload::time::Time;

/// Glyphs from idle to fully busy.
const LEVELS: &[u8] = b" .:-=+*#@";

/// Renders machine occupancy over `[window.0, window.1)` in `width`
/// buckets, one glyph per bucket (` ` idle .. `@` fully busy).
pub fn utilization_sparkline(
    records: &[JobRecord],
    capacity: u32,
    window: (Time, Time),
    width: usize,
) -> String {
    assert!(width >= 1, "need at least one bucket");
    let (w0, w1) = window;
    assert!(w1 > w0, "empty window");
    let span = (w1 - w0) as u128;
    // Busy node-seconds per bucket, exact via interval overlap.
    let mut busy = vec![0u128; width];
    for r in records {
        let lo = r.start.max(w0);
        let hi = r.end.min(w1);
        if hi <= lo {
            continue;
        }
        // Buckets the job overlaps.
        // Bucket indices are provably < width (lo, hi lie inside the
        // window), so the fallbacks never trigger.
        let first = usize::try_from(lo.saturating_sub(w0) as u128 * width as u128 / span)
            .unwrap_or(usize::MAX);
        let last = usize::try_from((hi.saturating_sub(w0) as u128 - 1) * width as u128 / span)
            .unwrap_or(usize::MAX);
        for (b, slot) in busy
            .iter_mut()
            .enumerate()
            .take(last.min(width - 1) + 1)
            .skip(first)
        {
            // Bucket edges are offsets within `span`, which itself came
            // from a u64 difference, so they always fit back in Time.
            let b_start = w0.saturating_add(
                Time::try_from(span * b as u128 / width as u128).unwrap_or(Time::MAX),
            );
            let b_end = w0.saturating_add(
                Time::try_from(span * (b as u128 + 1) / width as u128).unwrap_or(Time::MAX),
            );
            let o_lo = lo.max(b_start);
            let o_hi = hi.min(b_end);
            if o_hi > o_lo {
                *slot += o_hi.saturating_sub(o_lo) as u128 * r.nodes as u128;
            }
        }
    }
    let mut out = String::with_capacity(width);
    for (b, &node_secs) in busy.iter().enumerate() {
        let b_start = span * b as u128 / width as u128;
        let b_end = span * (b as u128 + 1) / width as u128;
        let bucket_cap = (b_end - b_start) * capacity as u128;
        let frac = if bucket_cap > 0 {
            node_secs as f64 / bucket_cap as f64
        } else {
            0.0
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the level index is clamped to the table length"
        )]
        let idx = ((frac * (LEVELS.len() - 1) as f64).round() as usize).min(LEVELS.len() - 1);
        out.push(LEVELS[idx] as char);
    }
    out
}

/// Renders a labelled multi-line utilization panel: the sparkline plus a
/// scale line and the overall utilization number.
pub fn utilization_panel(
    label: &str,
    records: &[JobRecord],
    capacity: u32,
    window: (Time, Time),
    width: usize,
) -> String {
    let spark = utilization_sparkline(records, capacity, window, width);
    let busy: u128 = records
        .iter()
        .map(|r| {
            let lo = r.start.max(window.0);
            let hi = r.end.min(window.1);
            if hi > lo {
                hi.saturating_sub(lo) as u128 * r.nodes as u128
            } else {
                0
            }
        })
        .sum();
    let util = busy as f64 / ((window.1 - window.0) as u128 * capacity as u128) as f64;
    format!(
        "{label:<16} |{spark}| {:.0}% busy\n{:<16} |{}|\n",
        util * 100.0,
        "",
        scale_line(width),
    )
}

fn scale_line(width: usize) -> String {
    // A start / mid / end tick ruler.
    let mut s = vec![b'-'; width];
    if width >= 1 {
        s[0] = b'|';
        s[width - 1] = b'|';
    }
    if width >= 3 {
        s[width / 2] = b'+';
    }
    String::from_utf8(s).expect("ascii")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::job::JobId;
    use sbs_workload::time::HOUR;

    fn record(start: Time, runtime: Time, nodes: u32) -> JobRecord {
        JobRecord {
            id: JobId(0),
            submit: start,
            start,
            end: start + runtime,
            nodes,
            runtime,
            requested: runtime,
            r_star: runtime,
            user: 0,
            in_window: true,
        }
    }

    #[test]
    fn idle_machine_renders_spaces() {
        let s = utilization_sparkline(&[], 8, (0, HOUR), 10);
        assert_eq!(s, " ".repeat(10));
    }

    #[test]
    fn fully_busy_machine_renders_at_signs() {
        let rs = [record(0, HOUR, 8)];
        let s = utilization_sparkline(&rs, 8, (0, HOUR), 10);
        assert_eq!(s, "@".repeat(10));
    }

    #[test]
    fn half_busy_first_half_only() {
        // 8 of 8 nodes busy for the first half of the window.
        let rs = [record(0, HOUR, 8)];
        let s = utilization_sparkline(&rs, 8, (0, 2 * HOUR), 10);
        assert_eq!(&s[..5], "@@@@@");
        assert_eq!(&s[5..], "     ");
    }

    #[test]
    fn intermediate_levels_use_mid_glyphs() {
        // 4 of 8 nodes busy the whole window => the middle glyph.
        let rs = [record(0, HOUR, 4)];
        let s = utilization_sparkline(&rs, 8, (0, HOUR), 4);
        assert_eq!(s, "====");
    }

    #[test]
    fn panel_includes_label_and_percentage() {
        let rs = [record(0, HOUR, 4)];
        let p = utilization_panel("LXF-backfill", &rs, 8, (0, HOUR), 20);
        assert!(p.contains("LXF-backfill"));
        assert!(p.contains("50% busy"));
        assert!(p.lines().count() == 2);
    }

    #[test]
    fn jobs_outside_the_window_are_clipped() {
        let rs = [record(0, 4 * HOUR, 8)];
        let s = utilization_sparkline(&rs, 8, (HOUR, 2 * HOUR), 5);
        assert_eq!(s, "@".repeat(5));
    }
}
