//! Host and build metadata, process memory and CPU time.

use std::hint::black_box;
use std::time::Instant;

/// The median calibration of the host that recorded the figures in the
/// README (2 vCPU Intel Xeon, release build). A host whose calibration
/// differs by more than [`CALIBRATION_TOLERANCE`] is flagged: its results
/// are not comparable with that host's.
pub const REFERENCE_CALIBRATION_NS: f64 = 2.3;

/// Relative calibration difference beyond which two hosts' results are
/// not compared. The reference host itself, shared with other tenants,
/// read 2.0–2.6 ns from run to run.
pub const CALIBRATION_TOLERANCE: f64 = 0.25;

/// Iterations of the calibration loop (about 25 ms on the reference host).
const CALIBRATION_ITERS: u64 = 10_000_000;

/// Who ran the benchmark, and on what.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Nanoseconds per iteration of a fixed integer loop.
    pub calibration_ns: f64,
    /// The checkout's git revision, if it is a git repository.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl HostInfo {
    /// Probes the host, running the calibration loop once.
    pub fn probe() -> Self {
        HostInfo {
            nproc: nproc(),
            cpu_model: cpu_model(),
            calibration_ns: calibration_ns(),
            git_rev: git_rev(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }

    /// Whether this host's results may be compared with the reference
    /// host's.
    pub fn comparable_with_reference(&self) -> bool {
        comparable(self.calibration_ns, REFERENCE_CALIBRATION_NS)
    }

    /// One JSON object with every field plus the comparability flag.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"calibration_ns\": {}, \
             \"reference_calibration_ns\": {}, \"comparable\": {}, \"git_rev\": \"{}\", \
             \"profile\": \"{}\"}}",
            self.nproc,
            json_escape(&self.cpu_model),
            self.calibration_ns,
            REFERENCE_CALIBRATION_NS,
            self.comparable_with_reference(),
            json_escape(&self.git_rev),
            self.profile
        )
    }
}

/// Whether two calibrations are within [`CALIBRATION_TOLERANCE`] of each
/// other.
pub fn comparable(a_ns: f64, b_ns: f64) -> bool {
    a_ns > 0.0 && b_ns > 0.0 && (a_ns - b_ns).abs() / b_ns.min(a_ns) <= CALIBRATION_TOLERANCE
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A fixed xorshift loop: pure integer latency, no memory traffic.
fn calibration_ns() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64 / CALIBRATION_ITERS as f64
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Resets the process's peak-RSS mark to its current RSS, so that
/// [`peak_rss_mb`] reports the peak of the phase that follows. A no-op
/// where the kernel does not support it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds consumed by every thread of this
/// process so far (including threads that have exited).
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100 on Linux)
    // ticks. The command name (field 2) may hold spaces, so count from
    // its closing parenthesis.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrations_compare_within_tolerance() {
        assert!(comparable(1.0, 1.2));
        assert!(comparable(1.2, 1.0));
        assert!(!comparable(1.0, 1.3));
        assert!(!comparable(0.0, 1.0));
    }

    #[test]
    fn probe_reports_a_positive_calibration_and_cpu_time() {
        let h = HostInfo::probe();
        assert!(h.nproc >= 1 && h.calibration_ns > 0.0);
        assert!(h.to_json().contains("\"comparable\": "));
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {
            black_box(0);
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn json_escape_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
