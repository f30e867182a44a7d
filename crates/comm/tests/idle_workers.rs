//! A worker whose ranks all wait parks instead of spinning. In a test
//! binary of its own: process CPU time counts every thread, and a sibling
//! test's ranks would add theirs.

use std::time::Duration;

use cartcomm_comm::Universe;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two times, then fourteen counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process so far.
fn process_cpu() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::uninit();
    // SAFETY: `getrusage` fills the whole struct, laid out as the kernel's.
    let usage = unsafe {
        assert_eq!(getrusage(RUSAGE_SELF, usage.as_mut_ptr()), 0);
        usage.assume_init()
    };
    let time = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    time(&usage.utime) + time(&usage.stime)
}

#[test]
fn ranks_waiting_300_ms_on_a_sleeping_peer_use_under_100_ms_of_cpu() {
    let before = process_cpu();
    Universe::builder(8).run(|comm| {
        // Every rank has started; then the last one sleeps and the others
        // wait for it in the barrier.
        comm.barrier().unwrap();
        if comm.rank() == 7 {
            std::thread::sleep(Duration::from_millis(300));
        }
        comm.barrier().unwrap();
    });
    let used = process_cpu() - before;
    assert!(
        used < Duration::from_millis(100),
        "300 ms of waiting cost {used:?} of CPU"
    );
}
