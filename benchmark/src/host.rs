//! What the benchmark reads about the machine and its own process, all
//! from `/proc` so that no foreign call is needed.

use std::fs;
use std::process::Command;

use crate::json::Json;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Linux fixes
/// it at 100 for user space on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0.0) / 1024.0
}

/// CPU time and context switches of this process, all threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessUsage {
    pub user_s: f64,
    pub system_s: f64,
    pub switches: f64,
}

impl ProcessUsage {
    /// Take it twice while the same threads are alive.
    pub fn now() -> ProcessUsage {
        let (user_s, system_s) = cpu_seconds();
        ProcessUsage {
            user_s,
            system_s,
            switches: context_switches(),
        }
    }

    pub fn since(&self, earlier: &ProcessUsage) -> ProcessUsage {
        ProcessUsage {
            user_s: self.user_s - earlier.user_s,
            system_s: self.system_s - earlier.system_s,
            switches: self.switches - earlier.switches,
        }
    }
}

/// `(user, system)` CPU seconds of this process, all threads.
fn cpu_seconds() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let user = ticks();
    (user / TICKS_PER_S, ticks() / TICKS_PER_S)
}

/// Voluntary plus involuntary context switches of every live thread of
/// this process.
fn context_switches() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches").unwrap_or(0.0)
                + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0.0)
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance block stored with every results file.
pub fn provenance() -> Json {
    let nproc = nproc();
    let rank_threads = crate::spec::RANKS;
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rank_threads", Json::Num(rank_threads as f64)),
        (
            "oversubscription",
            Json::Num(rank_threads as f64 / nproc as f64),
        ),
        (
            "serve_client_connections",
            Json::Num(crate::spec::SERVE_CLIENTS as f64),
        ),
        ("transport", Json::str("inproc")),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("load_average_at_start", Json::Num(load_average())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let (user, system) = cpu_seconds();
        assert!(user >= 0.0 && system >= 0.0);
        assert!(context_switches() >= 0.0);
        assert_eq!(status_field("VmHWM:\t  2048 kB\n", "VmHWM"), Some(2048.0));
        assert_eq!(status_field("Vm:\t1 kB\n", "VmHWM"), None);
    }
}
