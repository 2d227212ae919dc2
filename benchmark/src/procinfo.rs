//! What the kernel says about this process (`/proc/self`).

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size so far, in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Threads alive in the process right now.
pub fn threads() -> u64 {
    status_field("Threads").expect("Threads in /proc/self/status")
}

/// User + system CPU seconds of the whole process (all threads), from
/// `/proc/self/stat` fields 14 and 15 in clock ticks. `USER_HZ` is 100
/// on every Linux this runs on; over a multi-second window the 10 ms
/// tick is well below the run-to-run spread.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("comm in stat") + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_sane_values() {
        assert!(rss_peak_mb() > 1.0);
        assert!(threads() >= 1);
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03);
    }
}
