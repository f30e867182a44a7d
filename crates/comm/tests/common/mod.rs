//! The suites' watchdog: a lost acknowledgement or a stuck join fails the
//! test instead of hanging it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

pub fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("no result within two minutes");
    }
    // Done, or disconnected by the body's panic, which the join passes on.
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}
