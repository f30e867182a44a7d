//! A rank whose fiber overflows its stack is named before the process
//! aborts, and a fault elsewhere still ends the process the way it always
//! did. Each universe runs in a child process — this test binary run
//! again on the one test, as `transport_conformance.rs` does — because
//! the fault ends it.

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Output};

use cartcomm_comm::Universe;

/// Which fault the child run makes: `overflow` or `wild`.
const CHILD: &str = "CARTCOMM_FAULT_CHILD";

/// Recurse until the stack runs out, each frame holding 1 KiB.
fn deep(n: u64) -> u64 {
    let frame = black_box([n; 128]);
    if black_box(n) == u64::MAX {
        return frame[0];
    }
    deep(n + 1).wrapping_add(frame[7])
}

/// Run the universe the child was started for: four ranks on the
/// in-process fabric, rank 2 faulting while the others wait for it.
fn child(fault: &str) {
    Universe::builder(4).run(|comm| {
        if comm.rank() == 2 {
            match fault {
                "overflow" => {
                    black_box(deep(0));
                }
                // SAFETY: none — this reads an address no mapping holds, to
                // fault on purpose in a process that ends by it.
                _ => unsafe {
                    black_box(std::ptr::read_volatile(std::ptr::without_provenance::<u8>(
                        16,
                    )));
                },
            }
        }
        comm.barrier().unwrap();
    });
    unreachable!("rank 2 faulted");
}

fn spawn(name: &str, fault: &str) -> Output {
    Command::new(std::env::current_exe().unwrap())
        .args([name, "--exact", "--nocapture", "--test-threads", "1"])
        .env(CHILD, fault)
        .output()
        .unwrap()
}

#[test]
fn an_overflowing_fiber_names_its_rank() {
    if let Ok(fault) = std::env::var(CHILD) {
        return child(&fault);
    }
    let out = spawn("an_overflowing_fiber_names_its_rank", "overflow");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fiber of rank 2 has overflowed its stack"),
        "{:?}\n{stderr}",
        out.status
    );
    assert_eq!(out.status.signal(), Some(6), "{stderr}"); // SIGABRT
}

#[test]
fn a_fault_off_the_guard_pages_chains_to_the_previous_handler() {
    if let Ok(fault) = std::env::var(CHILD) {
        return child(&fault);
    }
    let out = spawn(
        "a_fault_off_the_guard_pages_chains_to_the_previous_handler",
        "wild",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("overflowed"), "{stderr}");
    assert_eq!(out.status.signal(), Some(11), "{stderr}"); // SIGSEGV
}
