//! A worker whose ranks all wait parks instead of spinning. In a test
//! binary of its own: process CPU time counts every thread, and a sibling
//! test's ranks would add theirs (the one other test here spends a few
//! milliseconds of CPU).

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

/// A rank waiting on a peer that sends every millisecond, on a worker of
/// its own, sleeps once per message: its wait is armed, so its worker
/// looks at the wake flag between yields, parks once its idle budget is
/// spent and is woken by the push — it does not wake to re-poll, or park
/// again, in between. (Sharing one worker, the sleeping peer holds it,
/// and the waiting rank never gets to park.)
#[test]
fn a_rank_waiting_on_a_paced_peer_parks_once_per_message() {
    const MESSAGES: u64 = 100;
    let parks = Universe::builder(2).run(|comm| {
        if comm.rank() == 1 {
            for n in 0..MESSAGES {
                std::thread::sleep(Duration::from_millis(1));
                comm.send_bytes(0, n as u32, Vec::new()).unwrap();
            }
            return 0;
        }
        let before = comm.metrics().recv_parks;
        for n in 0..MESSAGES {
            comm.recv_bytes(1, n as u32).unwrap();
        }
        comm.metrics().recv_parks - before
    })[0];
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    if workers == 2 {
        assert!(
            parks >= MESSAGES / 2,
            "{parks} parks for {MESSAGES} messages"
        );
    }
    assert!(
        parks <= 2 * MESSAGES,
        "{parks} parks for {MESSAGES} messages"
    );
}
