//! Text-mode rendering of the monitoring timeline — the demo's
//! "geographical visualization of vantage points … that select the
//! (il-)legitimate origin-AS" (paper §4), as a terminal strip chart.

use artemis_core::monitor::TimelinePoint;
use artemis_simnet::SimTime;

/// Render the hijack/mitigation timeline as a strip chart: one row per
/// recorded state change, a bar showing the vantage-point split
/// (`#` = hijacked, `.` = legitimate, space = no data) plus counts.
pub fn render_timeline(points: &[TimelinePoint], width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12}  {:<width$}  legit/hijacked/unknown\n",
        "time",
        "vantage points",
        width = width
    ));
    for p in points {
        let total = (p.legitimate + p.hijacked + p.unknown).max(1);
        let hij = p.hijacked * width / total;
        let leg = p.legitimate * width / total;
        let unk = width.saturating_sub(hij + leg);
        let bar = format!("{}{}{}", "#".repeat(hij), ".".repeat(leg), " ".repeat(unk));
        out.push_str(&format!(
            "{:>12}  [{bar}]  {}/{}/{}\n",
            p.time.to_string(),
            p.legitimate,
            p.hijacked,
            p.unknown
        ));
    }
    out
}

/// Render annotated experiment milestones (hijack, detection,
/// mitigation trigger, resolution) on one line each — used by the
/// examples and E1's verbose mode.
pub fn render_milestones(milestones: &[(SimTime, String)]) -> String {
    let mut out = String::new();
    for (t, label) in milestones {
        out.push_str(&format!("{:>12}  {label}\n", t.to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_renders_rows_and_bars() {
        let points = vec![
            TimelinePoint {
                time: SimTime::from_secs(10),
                legitimate: 4,
                hijacked: 0,
                unknown: 0,
            },
            TimelinePoint {
                time: SimTime::from_secs(50),
                legitimate: 2,
                hijacked: 2,
                unknown: 0,
            },
        ];
        let out = render_timeline(&points, 8);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("[........]"), "all legit: {}", lines[1]);
        assert!(lines[2].contains("####"), "half hijacked: {}", lines[2]);
        assert!(lines[2].contains("2/2/0"));
    }

    #[test]
    fn empty_population_does_not_divide_by_zero() {
        let points = vec![TimelinePoint {
            time: SimTime::ZERO,
            legitimate: 0,
            hijacked: 0,
            unknown: 0,
        }];
        let out = render_timeline(&points, 10);
        assert!(out.contains("0/0/0"));
    }

    #[test]
    fn milestones_render_in_order() {
        let out = render_milestones(&[
            (SimTime::from_secs(600), "hijack launched".into()),
            (SimTime::from_secs(645), "DETECTED".into()),
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("hijack launched"));
        assert!(lines[1].contains("DETECTED"));
    }
}
