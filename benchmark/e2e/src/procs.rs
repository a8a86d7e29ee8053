//! Resource use of the program's processes: CPU time and peak resident
//! set of the `soct` children, read with `getrusage(RUSAGE_CHILDREN)`,
//! and of a running server, read from `/proc`.

use std::io;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;
/// Linux reports `/proc/<pid>/stat` times in units of USER_HZ = 100.
const TICKS_PER_S: f64 = 100.0;

/// Totals over every child this process has waited for.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChildUsage {
    pub cpu_s: f64,
    pub max_rss_kib: u64,
}

pub fn children() -> ChildUsage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a valid, writable `struct rusage` of the size and
    // layout the kernel fills on 64-bit Linux; getrusage writes nothing
    // else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    ChildUsage {
        cpu_s: secs(&u.utime) + secs(&u.stime),
        max_rss_kib: u.maxrss.max(0) as u64,
    }
}

/// Asks process `pid` to shut down gracefully.
pub fn terminate(pid: u32) -> io::Result<()> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    match unsafe { kill(pid, SIGTERM) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// User plus system CPU seconds of a running process, all its threads.
pub fn cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> io::Result<f64> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((field(11)? + field(12)?) / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`, KiB) of a running process.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
