//! A lossy fabric owns a thread and takes it along when it goes. In a test
//! binary of its own: a sibling test's live fabric would own one too.

use std::time::{Duration, Instant};

use cartcomm_comm::envelope::Envelope;
use cartcomm_comm::fabric::Fabric;
use cartcomm_comm::{FaultSpec, RetryPolicy, TransportKind};

mod common;

/// Threads of this process named like the lossy transport's progress thread.
fn progress_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim() == "lossy-progress")
        .count()
}

/// [`progress_threads`] once it reads `want`, or as it reads after five
/// seconds. A dropped fabric joins its thread, but the kernel removes a
/// joined thread from `/proc/self/task` a moment later, so a count taken
/// right after the drop can still see it.
fn progress_threads_settled_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = progress_threads();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn dropped_lossy_fabrics_leave_no_progress_thread() {
    common::watchdog(|| {
        for i in 0..50 {
            let kind = match i % 10 {
                0 => TransportKind::Uds, // whose own threads must go too
                _ => TransportKind::InProcess,
            };
            let fabric = Fabric::lossy(kind, 2, FaultSpec::new(i), RetryPolicy::default()).unwrap();
            let env = Envelope::new(0, 0, 1, vec![1u8]);
            fabric.deposit(1, env).unwrap();
            assert_eq!(progress_threads_settled_at(1), 1, "fabric {i} is alive");
        }
        assert_eq!(progress_threads_settled_at(0), 0);
    });
}
