//! `perfbench exec REPORT -- PROGRAM ARGS...`: runs one command with the
//! caller's standard streams and writes `{"rc", "wall_s", "maxrss_kb"}`
//! to REPORT.
//!
//! The benchmark measures each `dpg` command through this small process
//! rather than straight from its Python driver: Linux carries a parent's
//! peak RSS into a child across `exec`, so a child spawned by a driver
//! that once held a large output would report the driver's peak, not
//! its own.

use std::process::{Command, ExitCode};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak RSS in KiB of the largest child this process has waited for.
fn children_maxrss_kb() -> i64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this target.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return -1;
    }
    usage.maxrss
}

pub fn run(args: &[String]) -> ExitCode {
    let (Some(report), Some("--"), Some(program)) =
        (args.first(), args.get(1).map(String::as_str), args.get(2))
    else {
        eprintln!("perfbench: usage: exec REPORT -- PROGRAM ARGS...");
        return ExitCode::from(2);
    };
    let t0 = Instant::now();
    let status = Command::new(program).args(&args[3..]).status();
    let wall_s = t0.elapsed().as_secs_f64();
    let rc = match status {
        Ok(s) => s.code().unwrap_or(-1),
        Err(e) => {
            eprintln!("perfbench: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = format!(
        "{{\"rc\": {rc}, \"wall_s\": {wall_s:?}, \"maxrss_kb\": {}}}\n",
        children_maxrss_kb()
    );
    match std::fs::write(report, doc) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: cannot write {report}: {e}");
            ExitCode::from(2)
        }
    }
}
