//! What the kernel tells the benchmark about itself: CPU time of the
//! process and of the calling thread, and the peak resident set.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are the 14th and 15th fields overall, the
/// 12th and 13th after the name.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds used by every thread of this process, live or joined. Ten
/// millisecond ticks: only sections of seconds are timed with it.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// On-CPU nanoseconds of the calling thread from the text of
/// `/proc/thread-self/schedstat` (first field).
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

fn thread_cpu_ns() -> Option<u64> {
    // The kernel brings a running thread's figure up to date only at a
    // scheduler tick (4 ms at 250 Hz) or when it leaves the CPU; yielding
    // makes it do so now, which costs about a microsecond.
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    parse_schedstat_ns(&text)
}

/// `VmHWM`, the peak resident set in MB, from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

/// A stopwatch for one single-threaded stretch of work: wall-clock time,
/// and the calling thread's CPU time at nanosecond resolution where the
/// kernel exposes it (wall-clock stands in where it does not).
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu_ns: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
            _ => wall_s,
        };
        Elapsed { wall_s, cpu_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_spaces_and_parentheses_in_comm() {
        let stat = "4242 (my (odd) prog) name) R 1 4242 4242 0 -1 4194304 80 0 0 0 \
                    1234 66 7 8 20 0 3 0 118937 2703360 283 18446744073709551615";
        // utime 1234 + stime 66 ticks = 13.00 s; the children's 7 and 8
        // that follow are not counted.
        assert_eq!(parse_stat_cpu_seconds(stat), Some(13.0));
        let plain = "9 (cat) R 1 9 9 0 -1 0 0 0 0 0 150 50 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_cpu_seconds(plain), Some(2.0));
    }

    #[test]
    fn stat_parser_rejects_truncated_and_garbled_text() {
        assert_eq!(parse_stat_cpu_seconds(""), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_seconds("1 (x) R 1 1 1 0 -1 0 0 0 0 0 abc 5 0 0"),
            None
        );
    }

    #[test]
    fn schedstat_and_status_parsers() {
        assert_eq!(parse_schedstat_ns("527194 55757 1\n"), Some(527_194));
        assert_eq!(parse_schedstat_ns(""), None);
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let e = sw.elapsed();
        assert!(e.wall_s > 0.0 && e.cpu_s > 0.0 && x > 0);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
