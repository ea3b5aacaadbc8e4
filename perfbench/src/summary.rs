//! Order statistics and process measurements shared by the workloads.

use std::time::Duration;

/// Nearest-rank quantile of `values` (any order), `p` in `[0, 1]`.
/// Returns 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns an error when `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
pub struct Timespec {
    /// Whole seconds.
    pub tv_sec: i64,
    /// Nanoseconds past `tv_sec`.
    pub tv_nsec: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads Linux CPU clocks and waits with ppoll(2); it needs 64-bit Linux"
);

extern "C" {
    /// `clock_gettime(2)` from the C library the standard library links.
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// ended threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid out `timespec` the call
    // writes; both clock ids are valid on Linux, so the call cannot
    // fail, and a failure would leave `ts` at zero.
    unsafe { clock_gettime(clock, &mut ts) };
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// CPU time this process has used so far. Time the hypervisor steals
/// from a virtual CPU is not charged to it (Linux with paravirtual
/// steal-time accounting), so on a shared machine it varies far less
/// between runs than wall time does.
#[must_use]
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
#[must_use]
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Arithmetic mean of `values` (0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Worker threads the machine offers.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
