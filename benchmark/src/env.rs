//! Where the benchmark runs: its own directory, the pinned sizing file,
//! and the facts every report carries (cores, compiler, build profile,
//! revision, peak memory).

use serde_json::Value;
use std::path::PathBuf;

/// The `benchmark/` directory.  `cargo run` exports the manifest
/// directory at run time; the compile-time value covers a binary
/// started by hand.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out/`: trace files and snapshot scratch space.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Parses `benchmark/workloads.json`.
pub fn load_spec() -> Result<Value, String> {
    let path = bench_dir().join("workloads.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The pinned value of `key` for `workload` (each entry is
/// `{"value": ..., "why": "..."}`).
pub fn pinned<'a>(spec: &'a Value, workload: &str, key: &str) -> &'a Value {
    let v = &spec[workload][key]["value"];
    assert!(
        !v.is_null(),
        "workloads.json: {workload}.{key} is not pinned"
    );
    v
}

/// [`pinned`] as an unsigned integer.
pub fn pinned_u64(spec: &Value, workload: &str, key: &str) -> u64 {
    pinned(spec, workload, key)
        .as_u64()
        .unwrap_or_else(|| panic!("workloads.json: {workload}.{key} must be a whole number"))
}

/// [`pinned`] as a float.
pub fn pinned_f64(spec: &Value, workload: &str, key: &str) -> f64 {
    pinned(spec, workload, key)
        .as_f64()
        .unwrap_or_else(|| panic!("workloads.json: {workload}.{key} must be a number"))
}

/// A pinned count multiplied by the run's common scale factor (never
/// below `floor`).
pub fn scaled(spec: &Value, workload: &str, key: &str, scale: f64, floor: u64) -> u64 {
    ((pinned_u64(spec, workload, key) as f64 * scale).round() as u64).max(floor)
}

/// The `[profile.release]` table of a manifest: its non-empty,
/// non-comment lines, trimmed.  Empty when the table is absent.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut inside = false;
    let mut lines = Vec::new();
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
            continue;
        }
        if inside && !line.is_empty() && !line.starts_with('#') {
            lines.push(line.to_string());
        }
    }
    lines
}

/// Refuses to run when the benchmark's release profile differs from the
/// root workspace's: the judged numbers must come from the build
/// settings the product ships with.  Returns the shared profile.
pub fn check_release_profile() -> Result<String, String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let mine = release_profile(&read(bench_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(bench_dir().join("..").join("Cargo.toml"))?);
    if mine != root {
        return Err(format!(
            "release profile differs from the root's: benchmark {mine:?}, root {root:?}"
        ));
    }
    Ok(mine.join("; "))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses more load generators (threads or connections) than cores: a
/// generator that shares a core with another measures its neighbour.
pub fn check_generators(wanted: usize) -> Result<(), String> {
    if wanted > nproc() {
        return Err(format!(
            "{wanted} load generators on {} cores; the harness refuses more generators than cores",
            nproc()
        ));
    }
    Ok(())
}

/// Pins the calling thread to the `slot`-th core this process may run
/// on (wrapping), so a generator and the thread it loads never share a
/// core: left to the scheduler, two busy threads can sit on one core for
/// a second or for a whole run, and serve-tcp's throughput then reads a
/// quarter of what it reads on two.  Returns whether the pin took.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(slot: usize) -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, which is all sched_getaffinity(2) requires; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cores: Vec<usize> = (0..allowed.len() * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&core) = cores.get(slot % cores.len().max(1)) else {
        return false;
    };
    let mut wanted = [0u64; 16];
    wanted[core / 64] = 1 << (core % 64);
    // SAFETY: `wanted` is a live buffer of `size` bytes holding one core
    // taken from the allowed set just read; the call only reads it.
    unsafe { sched_setaffinity(0, size, wanted.as_ptr()) == 0 }
}

/// Pinning is Linux-only; elsewhere the scheduler decides.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_slot: usize) -> bool {
    false
}

/// Sleeps until one of `fds` is readable or `timeout` has passed.
#[cfg(target_os = "linux")]
pub fn wait_readable(fds: &[i32], timeout: std::time::Duration) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let limit = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `set` is a live array of exactly `set.len()` pollfd
    // structs laid out as ppoll(2) expects, `limit` is a valid timespec
    // that outlives the call, and a null signal mask is allowed.  The
    // result is not needed: the caller re-reads its sockets either way.
    unsafe {
        ppoll(set.as_mut_ptr(), set.len() as u64, &limit, std::ptr::null());
    }
}

/// Without `ppoll` the generator naps instead (coarser latencies).
#[cfg(not(target_os = "linux"))]
pub fn wait_readable(_fds: &[i32], timeout: std::time::Duration) {
    std::thread::sleep(timeout.min(std::time::Duration::from_micros(100)));
}

/// `rustc -V`, or `unknown` when the compiler is not on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` beside `benchmark/`
/// without leaving the checkout; `unknown` in an exported tree.
pub fn git_revision() -> String {
    let git = bench_dir().join("..").join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_read_up_to_the_next_table() {
        let text = "[package]\nname = \"x\"\n\n# c\n[profile.release]\n# why\ndebug = \"line-tables-only\"\n\nlto = true\n[profile.bench]\ndebug = 1\n";
        assert_eq!(
            release_profile(text),
            vec!["debug = \"line-tables-only\"", "lto = true"]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_committed_profile_matches_the_root() {
        check_release_profile().expect("benchmark and root release profiles agree");
    }

    #[test]
    fn more_generators_than_cores_are_refused() {
        assert!(check_generators(nproc()).is_ok());
        let err = check_generators(nproc() + 1).expect_err("one too many");
        assert!(err.contains("refuses"), "{err}");
    }
}
