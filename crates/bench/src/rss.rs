//! The process's peak RSS as a telemetry gauge.
//!
//! `examples/observability.rs` publishes the kernel's own high-water mark
//! (`VmHWM` in `/proc/self/status` on Linux) next to the throughput
//! series, so a scrape carries memory without an in-process estimate.
//! Elsewhere the call reports `None`.

/// Publishes the current peak RSS as the `process_peak_rss_bytes` gauge
/// in the global telemetry registry, so a live scrape (or a
/// `TELEM_*.json` snapshot) carries the memory high-water mark next to
/// the throughput series. Returns the recorded value, `None` where the
/// platform has no watermark (the gauge is then left untouched — absent,
/// not zero).
pub fn record_peak_rss_gauge() -> Option<u64> {
    let bytes = peak_rss_bytes()?;
    safeloc_telemetry::global()
        .gauge("process_peak_rss_bytes", &[])
        .set(bytes as i64);
    Some(bytes)
}

#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_bytes() -> Option<u64> {
    None
}

/// Parses the `VmHWM:  123456 kB` line out of a `/proc/self/status`
/// dump. Split out from the syscall so the parser is testable on any
/// platform.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_out_of_a_status_dump() {
        let status =
            "Name:\tobservability\nVmPeak:\t  200000 kB\nVmHWM:\t   81920 kB\nVmRSS:\t   40960 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(81920 * 1024));
    }

    #[test]
    fn missing_or_garbled_hwm_lines_yield_none() {
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }
}
