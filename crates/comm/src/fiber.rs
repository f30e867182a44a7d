//! Ranks as fibers: a universe runs its `p` ranks on one worker thread
//! per core, and a rank that must wait hands its core to a sibling rank
//! in user space instead of entering the kernel.
//!
//! A fiber is a rank program on a stack of its own
//! ([`GuardedStack`]: a constant [`STACK_BYTES`] reservation committed
//! as it is touched, over a guard page). A worker ([`run`]) resumes its
//! fibers round-robin; a fiber runs until it finishes or waits. Every
//! place the runtime makes a rank wait — a mailbox pop, a rendezvous, a
//! full shared-memory ring — goes through
//! the one [`wait`]: poll the condition, and while it does not hold,
//! switch back to the worker, which resumes the next fiber. A switch
//! saves six registers and two control words and swaps stack pointers:
//! no system call, no scheduler, no cache-cold wake-up on another core.
//!
//! A wait is *wake-driven*. Each fiber owns a [`Waker`]: a `ready`
//! flag beside its worker's `sleeping` flag. A poll that finds nothing
//! and registers the waker under its lock *arms* the wait, and the
//! worker does not resume an armed fiber again until someone notifies
//! its waker (one flag store, under the lock the poll read) or its
//! deadline passes: a wait costs no re-poll, and no cache line of the
//! mailbox it watches moves, until its peer has changed what it polls.
//! A poll that registers nothing (a full ring) is polled every
//! pass.
//!
//! The worker's idle rule: a *pass* over the fibers is idle when no
//! fiber's wait was satisfied (one that timed out does not count) and
//! none finished. After an idle pass a worker whose waits are all armed
//! yields its core and looks at their `ready` flags and deadlines
//! between yields — lines that change only when a fiber is woken —
//! resuming none of them until one is due; one with an unarmed wait
//! yields once and polls again. Once the worker has been idle for
//! [`IDLE_BEFORE_PARK`] it sets `sleeping`, looks at the flags once more
//! and parks until a waker or the earliest deadline among its waits ends
//! the sleep; a notifier unparks it only when it sleeps. A thread that
//! is not a worker (a unit test, a `spawn_processes` child) waits the
//! same way, as a worker of one fiber, with a waker of its own.
//!
//! What this asks of a rank program (DESIGN.md §2): ranks are
//! cooperative. A rank that computes, sleeps or blocks on an OS primitive
//! of its own holds its worker and the ranks that share it; waits on
//! another rank go through `Comm`. Thread-locals are per worker.
//!
//! The switch is x86_64 assembly; another architecture needs its own
//! `switch` and `trampoline` before this crate builds there.

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "cartcomm-comm runs ranks as fibers, and fiber.rs has its context switch \
     (`switch`, `trampoline`) for x86_64 only: write them for this target"
);

use std::any::Any;
use std::arch::naked_asm;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::transport::mmap::{self, AltStack, GuardedStack, SigInfo, PAGE_BYTES};

/// Bytes reserved for each fiber's stack. Reserved, not committed: a
/// rank pays for the pages it touches, so the reservation only bounds
/// recursion depth (a thread's default is 2 MiB). Overflowing it faults
/// on the guard page, which [`on_segv`] recognizes: it names the rank and
/// aborts, as std does for a thread's own guard page (DESIGN.md §2).
const STACK_BYTES: usize = 8 << 20;

/// How long a worker stays idle — yielding its core, and looking at its
/// fibers' wake flags between yields — before it parks.
///
/// A constant, picked from the run-to-run spread of ten 10 s `cartbench`
/// runs per value, not from their medians (8 ranks on 2 workers; DESIGN.md
/// §12 has the table): the medians of 30, 100 and 300 µs lie within
/// 2.5 % of each other on `a2a_small` and `a2a_trivial`, while 100 µs
/// had the narrowest quartiles on both. It costs a worker whose fibers
/// all wait on silent peers this much yielding before it sleeps.
const IDLE_BEFORE_PARK: Duration = Duration::from_micros(100);

thread_local! {
    /// The waker of a thread that is not a worker, made on its first wait.
    static WAKER: Waker = Waker::new(Host::current());
    /// Set when the running poll keeps its waker to be woken by: the wait
    /// it polls for is armed.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The worker whose fiber runs on this thread; null outside [`run`].
    static WORKER: Cell<*const Worker> = const { Cell::new(ptr::null()) };
}

/// A thread that waits — a worker, or a thread waiting on its own — and
/// whether it sleeps.
struct Host {
    thread: Thread,
    /// Set (SeqCst) before the thread looks at its wakers one last time
    /// and parks; a notifier that reads it set unparks the thread.
    sleeping: AtomicBool,
}

impl Host {
    /// The calling thread, awake.
    fn current() -> Arc<Host> {
        Arc::new(Host {
            thread: std::thread::current(),
            sleeping: AtomicBool::new(false),
        })
    }
}

struct Wake {
    /// Set by a notify, cleared by the wait before each poll.
    ready: AtomicBool,
    host: Arc<Host>,
}

/// Who to wake when what a wait polls may have changed: one fiber, or a
/// thread that is not a worker. A poll that finds nothing registers it
/// (or keeps a clone) under the lock it polled under, and stays
/// registered; whoever changes the state under that lock notifies it
/// there and unparks its thread after the unlock if it sleeps.
///
/// Registering or cloning the waker passed to a poll *arms* the wait:
/// its worker resumes it only once the waker is notified or its deadline
/// passes. A waker still registered where its wait has ended causes at
/// most one poll that finds nothing.
pub(crate) struct Waker(Arc<Wake>);

impl Clone for Waker {
    /// A clone is kept to be woken by, so it arms the wait being polled.
    fn clone(&self) -> Self {
        ARMED.set(true);
        Waker(Arc::clone(&self.0))
    }
}

impl Waker {
    fn new(host: Arc<Host>) -> Waker {
        Waker(Arc::new(Wake {
            ready: AtomicBool::new(false),
            host,
        }))
    }

    /// Register this waker in `slot`, under the lock the poll holds, and
    /// arm the wait. A slot that already holds it is left alone: a wait
    /// that polls again clones nothing.
    pub(crate) fn register(&self, slot: &mut Option<Waker>) {
        ARMED.set(true);
        if !slot.as_ref().is_some_and(|w| Arc::ptr_eq(&w.0, &self.0)) {
            *slot = Some(Waker(Arc::clone(&self.0)));
        }
    }

    /// Mark the waiter ready, under the lock its poll reads. Returns its
    /// thread if that sleeps: unpark it after the unlock.
    ///
    /// The flag store and the `sleeping` load are SeqCst, as are the
    /// sleeper's `sleeping` store and its last look at the flags: one of
    /// the two sides sees the other's store, so the waiter either finds
    /// the flag set or is unparked.
    #[must_use]
    pub(crate) fn notify(&self) -> Option<Thread> {
        self.0.ready.store(true, Ordering::SeqCst);
        let host = &self.0.host;
        host.sleeping
            .load(Ordering::SeqCst)
            .then(|| host.thread.clone())
    }

    /// Notify, and unpark the waiter's thread at once if it sleeps.
    #[cfg(test)]
    pub(crate) fn wake(&self) {
        if let Some(thread) = self.notify() {
            thread.unpark();
        }
    }

    /// Whether the waiter's thread has set `sleeping` and not cleared it.
    #[cfg(test)]
    pub(crate) fn sleeping(&self) -> bool {
        self.0.host.sleeping.load(Ordering::SeqCst)
    }

    fn ready(&self) -> bool {
        self.0.ready.load(Ordering::SeqCst)
    }

    /// Poll once: clear the flag (an RMW, so a notify that lands after it
    /// is not lost), poll, and if the poll found nothing, say whether it
    /// armed the wait.
    fn poll<T>(&self, poll: &mut impl FnMut(&Waker) -> Option<T>) -> Result<T, bool> {
        self.0.ready.swap(false, Ordering::SeqCst);
        ARMED.set(false);
        poll(self).ok_or_else(|| ARMED.get())
    }
}

/// How long a worker has been idle, and what to do after an idle pass.
#[derive(Default)]
struct Idle {
    since: Option<Instant>,
}

impl Idle {
    /// After an idle pass over `waits`: while the idle time is under
    /// [`IDLE_BEFORE_PARK`], yield the core until an armed wait's waker
    /// fires or a deadline passes if every wait is armed, or else once.
    /// Past it, bump the waits' park counters — each that rank's
    /// record that it slept (a park that a wake-up already pending ends at
    /// once counts too) — and park until a wake-up or the earliest
    /// deadline.
    fn pass<'w>(
        &mut self,
        host: &Host,
        waits: impl Iterator<Item = (&'w Waker, &'w Waiting)> + Clone,
    ) {
        let mut now = Instant::now();
        let since = *self.since.get_or_insert(now);
        let deadline = waits.clone().filter_map(|(_, w)| w.deadline).min();
        let woken = || waits.clone().any(|(waker, w)| w.armed && waker.ready());
        let armed = waits.clone().all(|(_, w)| w.armed);
        while now.duration_since(since) < IDLE_BEFORE_PARK {
            if woken() || deadline.is_some_and(|d| now >= d) {
                return;
            }
            std::thread::yield_now();
            if !armed {
                // An unarmed wait is polled again after every yield.
                return;
            }
            // Only a wake-up or a deadline changes what a pass would find.
            now = Instant::now();
        }
        for (_, w) in waits.clone() {
            // SAFETY: every wait in `waits` is suspended in (or is the
            // caller's own) `wait`, whose caller borrows the counter.
            if let Some(parks) = unsafe { w.parks.as_ref() } {
                parks.fetch_add(1, Ordering::Relaxed);
            }
        }
        host.sleeping.store(true, Ordering::SeqCst);
        // Woken, timed out, or spuriously: the caller polls again either way.
        if !woken() {
            match deadline {
                Some(d) => std::thread::park_timeout(d.saturating_duration_since(now)),
                None => std::thread::park(),
            }
        }
        // A notifier that still reads it set unparks once too often, which
        // makes one later park return at once.
        host.sleeping.store(false, Ordering::Relaxed);
    }
}

/// Wait until `poll` yields a value, or until `deadline` passes (`None`).
///
/// `poll` gets the waiting fiber's (or thread's) [`Waker`] and, when it
/// finds nothing, registers it under the lock it polled under before
/// returning `None`, which arms the wait (see [`Waker`]); a wait no one
/// can wake (a full ring) registers nothing, is polled on every pass and
/// is ended by its deadline. On a worker the fiber hands the core to its
/// siblings between polls; on any other thread the thread idles as a
/// worker does. Every time the wait sleeps, `parks` is bumped first.
pub(crate) fn wait<T>(
    deadline: Option<Instant>,
    parks: Option<&AtomicU64>,
    mut poll: impl FnMut(&Waker) -> Option<T>,
) -> Option<T> {
    let parks = parks.map_or(ptr::null(), |c| c as *const AtomicU64);
    let worker = WORKER.get();
    let mut idle = Idle::default();
    WAKER.with(|own| loop {
        let waker = if worker.is_null() {
            own
        } else {
            // SAFETY: a non-null `WORKER` is the worker running this fiber
            // on this thread; it outlives every fiber it runs, and points
            // `waker` at the fiber's own waker each time it resumes it (the
            // fiber list may have moved it since, so it is read again).
            unsafe { &*(*worker).waker.get() }
        };
        let armed = match waker.poll(&mut poll) {
            Ok(v) => {
                if !worker.is_null() {
                    // SAFETY: as above.
                    unsafe { (*worker).progress.set(true) };
                }
                return Some(v);
            }
            Err(armed) => armed,
        };
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // A wait that timed out is no progress: the worker idles on
            // until a wake-up or the next deadline instead of spinning.
            return None;
        }
        let waiting = Waiting {
            deadline,
            parks,
            armed,
        };
        if worker.is_null() {
            idle.pass(&own.0.host, std::iter::once((own, &waiting)));
        } else {
            // SAFETY: as above.
            unsafe { (*worker).suspend(waiting) };
        }
    })
}

/// What a suspended fiber waits for, as it told its worker.
#[derive(Clone, Copy)]
struct Waiting {
    deadline: Option<Instant>,
    /// The wait's park counter (null: none). It lives in the caller of
    /// the fiber's suspended [`wait`], so it is valid while the fiber
    /// stays suspended.
    parks: *const AtomicU64,
    /// The poll registered the fiber's waker: resume it only once the
    /// waker fires or the deadline passes.
    armed: bool,
}

impl Waiting {
    /// What a fiber that has not waited yet "waits" for: its first resume.
    const START: Waiting = Waiting {
        deadline: None,
        parks: ptr::null(),
        armed: false,
    };

    /// Whether the next pass polls this wait again.
    fn due(&self, waker: &Waker) -> bool {
        !self.armed || waker.ready() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A worker's scheduling state, on the worker's own stack and reachable
/// from its fibers through `WORKER`.
struct Worker {
    /// The worker's saved context while a fiber runs.
    sp: Cell<*mut u8>,
    /// Where the running fiber's context is saved when it suspends.
    running: Cell<*mut *mut u8>,
    /// The running fiber's waker.
    waker: Cell<*const Waker>,
    /// Set by the running fiber when it suspends; `None` when it finished.
    waiting: Cell<Option<Waiting>>,
    /// A wait was satisfied or a fiber finished during this pass.
    progress: Cell<bool>,
    /// The running fiber's guard page and rank, `(0, 0)` between fibers:
    /// what [`on_segv`] names an overflow by.
    running_guard: Cell<(usize, usize)>,
}

impl Worker {
    /// Save the running fiber and resume the worker, until the worker
    /// resumes this fiber again.
    ///
    /// # Safety
    /// Called on the worker's thread, from inside the fiber it is running.
    unsafe fn suspend(&self, waiting: Waiting) {
        self.waiting.set(Some(waiting));
        // SAFETY: `running` is this fiber's slot in the worker's fiber
        // list, which the worker keeps until the fiber finishes; `sp` is
        // the worker's context, saved when it resumed this fiber.
        unsafe { switch(self.running.get(), self.sp.get()) };
    }
}

/// What a fiber runs, and the panic it ended with.
struct Start<'a> {
    body: Option<Box<dyn FnOnce() + 'a>>,
    panic: Option<Box<dyn Any + Send>>,
}

/// One fiber: its stack, its saved context, its body.
struct Fiber<'a> {
    /// Saved stack pointer while suspended (or not yet started).
    sp: *mut u8,
    /// The rank it runs, named if its stack overflows.
    rank: usize,
    /// Owned (from `Box::into_raw`): the fiber's entry gets its address.
    start: *mut Start<'a>,
    waiting: Waiting,
    waker: Waker,
    /// Unmapped last, once nothing runs on it.
    _stack: GuardedStack,
}

/// The control words a fiber starts with: MXCSR (all exceptions masked,
/// round to nearest) in the low four bytes, the x87 control word (the
/// same, extended precision) above it — the values a thread starts with.
const INITIAL_FP_CONTROL: u64 = 0x1F80 | (0x037F << 32);

impl<'a> Fiber<'a> {
    fn new((rank, body): (usize, Box<dyn FnOnce() + 'a>), host: &Arc<Host>) -> Fiber<'a> {
        let stack = GuardedStack::new(STACK_BYTES).expect("cannot map a fiber stack");
        let start = Box::into_raw(Box::new(Start {
            body: Some(body),
            panic: None,
        }));
        // The frame `switch` pops to enter the fiber the first time: the
        // control words, r15, r14, r13, r12 (the entry), rbx (its
        // argument), rbp (0: the frame-pointer chain ends here), and the
        // return address, the trampoline. The two words above it are zero
        // and leave the trampoline's stack 16-byte aligned for its call.
        let frame = [
            INITIAL_FP_CONTROL,
            0,
            0,
            0,
            entry as *const () as u64,
            start as usize as u64,
            0,
            trampoline as *const () as u64,
        ];
        // SAFETY: the top 80 bytes of a fresh, page-aligned stack; nothing
        // else refers to them.
        let sp = unsafe {
            let sp = stack.top().sub(80);
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len());
            sp
        };
        Fiber {
            sp,
            rank,
            start,
            waiting: Waiting::START,
            waker: Waker::new(Arc::clone(host)),
            _stack: stack,
        }
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        // SAFETY: `start` came from `Box::into_raw` in `new`, and the entry
        // no longer uses it: it finished, or it is dropped unresumed
        // because a sibling's panic ends the worker.
        drop(unsafe { Box::from_raw(self.start) });
    }
}

/// Run `bodies` — each with the rank it is named by should its stack
/// overflow — as fibers on this thread until all have finished. A
/// panic that escapes a body is raised again here, abandoning the
/// fibers still suspended (their stacks are unmapped without unwinding).
pub(crate) fn run<'a>(bodies: impl IntoIterator<Item = (usize, Box<dyn FnOnce() + 'a>)>) {
    assert!(WORKER.get().is_null(), "a worker runs no second worker");
    mmap::on_segv(on_segv);
    let _alt = AltStack::ensure();
    let host = Host::current();
    let mut fibers: Vec<Fiber<'a>> = bodies
        .into_iter()
        .map(|body| Fiber::new(body, &host))
        .collect();
    let worker = Worker {
        sp: Cell::new(ptr::null_mut()),
        running: Cell::new(ptr::null_mut()),
        waker: Cell::new(ptr::null()),
        waiting: Cell::new(None),
        progress: Cell::new(false),
        running_guard: Cell::new((0, 0)),
    };
    /// Clears `WORKER` however `run` ends.
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            WORKER.set(ptr::null());
        }
    }
    WORKER.set(&worker);
    let _leave = Leave;
    let mut idle = Idle::default();
    while !fibers.is_empty() {
        worker.progress.set(false);
        let mut at = 0;
        while at < fibers.len() {
            let fiber = &mut fibers[at];
            if !fiber.waiting.due(&fiber.waker) {
                at += 1;
                continue;
            }
            worker.running.set(&mut fiber.sp);
            worker.waker.set(&fiber.waker);
            worker.running_guard.set((fiber._stack.guard(), fiber.rank));
            // SAFETY: `fiber.sp` is a context saved by `switch` or laid out
            // by `Fiber::new`, on a stack the fiber owns; the fiber comes
            // back through `Worker::suspend` or the entry's last switch.
            unsafe { switch(worker.sp.as_ptr(), fiber.sp) };
            worker.running_guard.set((0, 0));
            match worker.waiting.take() {
                Some(waiting) => {
                    fiber.waiting = waiting;
                    at += 1;
                }
                None => {
                    let done = fibers.remove(at);
                    worker.progress.set(true);
                    // SAFETY: the fiber finished; its entry is done with
                    // `start`.
                    if let Some(payload) = unsafe { (*done.start).panic.take() } {
                        panic::resume_unwind(payload);
                    }
                }
            }
        }
        if worker.progress.get() {
            idle = Idle::default();
        } else {
            idle.pass(&host, fibers.iter().map(|f| (&f.waker, &f.waiting)));
        }
    }
}

/// The process's `SIGSEGV` handler, on the alternate signal stack: a
/// fault on the guard page of the fiber running on this thread is that
/// rank's stack overflow — say so and abort, as std does for a thread.
/// Any other fault goes to the handler this one replaced.
extern "C" fn on_segv(sig: i32, info: *mut SigInfo, ctx: *mut core::ffi::c_void) {
    // `WORKER` is a const-initialized thread-local without a destructor:
    // reading it is a plain load, safe inside a signal handler.
    let worker = WORKER.get();
    // SAFETY: the kernel passes a valid `siginfo_t`; a non-null `WORKER`
    // is this thread's live worker.
    let (addr, (guard, rank)) = unsafe {
        let running = if worker.is_null() {
            (0, 0)
        } else {
            (*worker).running_guard.get()
        };
        ((*info).fault_addr(), running)
    };
    if guard != 0 && (guard..guard + PAGE_BYTES).contains(&addr) {
        // Formatted by hand: nothing in a signal handler may allocate.
        let mut digits = [0u8; 20];
        let (mut n, mut at) = (rank, digits.len());
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        mmap::write_stderr(b"\nfiber of rank ");
        mmap::write_stderr(&digits[at..]);
        mmap::write_stderr(b" has overflowed its stack\n");
        std::process::abort();
    }
    // SAFETY: called from the handler with its own arguments.
    unsafe { mmap::chain_segv(sig, info, ctx) };
}

/// A fiber's first frame, entered from the trampoline with its `Start`.
extern "C" fn entry(start: *mut u8) -> ! {
    let start = start.cast::<Start<'_>>();
    // SAFETY: `Fiber::new` passed its own `Start`, which the fiber owns
    // until the worker drops it after this function's last switch.
    if let Some(body) = unsafe { (*start).body.take() } {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
            // SAFETY: as above.
            unsafe { (*start).panic = Some(payload) };
        }
    }
    let worker = WORKER.get();
    let mut finished = ptr::null_mut();
    // SAFETY: the worker that resumed this fiber runs on this thread and
    // waits for it in `run`; `waiting: None` tells it the fiber finished,
    // and it never resumes the context saved into `finished`.
    unsafe {
        (*worker).waiting.set(None);
        switch(&mut finished, (*worker).sp.get());
    }
    std::process::abort()
}

/// Save the callee-saved state of the running context on its stack and
/// its stack pointer into `*save`, then resume the context saved at `to`.
/// Returns when something switches back to the saved context.
///
/// Saved: rbp, rbx, r12–r15, the MXCSR and the x87 control word — all a
/// C call must preserve on x86_64 System V besides the stack pointer.
/// Everything else a call may clobber, and the compiler treats this as a
/// call.
///
/// # Safety
/// `save` is writable. `to` is a context this function saved, on a stack
/// still mapped and not running, or one `Fiber::new` laid out; whatever
/// runs there must eventually switch back to `*save` or never return to
/// the caller's frames.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// A fiber's outermost frame: calls the entry (r12) with its argument
/// (rbx). The return-address column is undefined here, so unwinders and
/// backtraces stop at the fiber's base instead of walking off its stack.
///
/// # Safety
/// Entered only by `switch` from the frame `Fiber::new` lays out, never
/// called.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::Mutex;
    use std::time::Duration;

    fn boxed<'a>(rank: usize, f: impl FnOnce() + 'a) -> (usize, Box<dyn FnOnce() + 'a>) {
        (rank, Box::new(f))
    }

    #[test]
    fn fibers_interleave_at_their_waits_and_keep_their_locals() {
        // Three fibers take turns through a shared counter: each waits for
        // its turn, so the run only finishes if every wait hands the core on.
        let turn = Mutex::new(0usize);
        let log = Mutex::new(Vec::new());
        let (turn, log) = (&turn, &log);
        run((0..3).map(|me| {
            boxed(me, move || {
                let mut mine = Vec::new();
                for round in 0..4 {
                    wait(None, None, |_| {
                        (*turn.lock().unwrap() % 3 == me).then_some(())
                    });
                    mine.push(round * 10 + me);
                    log.lock().unwrap().push(round * 10 + me);
                    *turn.lock().unwrap() += 1;
                }
                assert_eq!(mine, [me, 10 + me, 20 + me, 30 + me]);
            })
        }));
        let expect: Vec<usize> = (0..4)
            .flat_map(|r| (0..3).map(move |m| r * 10 + m))
            .collect();
        assert_eq!(*log.lock().unwrap(), expect);
    }

    #[test]
    fn floating_point_control_is_per_fiber() {
        // Rust code never changes MXCSR, so each fiber must see the initial
        // value whatever ran on the worker before it.
        let seen = Mutex::new(Vec::new());
        let seen = &seen;
        run((0..2).map(|rank| {
            boxed(rank, move || {
                let mut csr = 0u32;
                // SAFETY: stores MXCSR to a local.
                unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut csr) };
                seen.lock().unwrap().push(csr & 0xFFC0);
            })
        }));
        assert_eq!(*seen.lock().unwrap(), [0x1F80, 0x1F80]);
    }

    #[test]
    fn a_panic_in_a_fiber_reaches_the_worker() {
        let out = panic::catch_unwind(|| run([boxed(0, || panic!("from a fiber"))]));
        let payload = out.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"from a fiber"));
        // The thread is no worker any more: a plain wait works again.
        assert_eq!(wait(None, None, |_| Some(7)), Some(7));
    }

    #[test]
    fn a_deadline_ends_a_wait_nobody_wakes() {
        let t0 = Instant::now();
        let limit = Duration::from_millis(20);
        run([boxed(0, || {
            let got: Option<()> = wait(Some(Instant::now() + limit), None, |_| None);
            assert!(got.is_none());
        })]);
        assert!(t0.elapsed() >= limit);
    }

    #[test]
    fn an_idle_worker_parks_and_a_waker_ends_it() {
        let flag = Mutex::new((false, None::<Waker>));
        let parks = AtomicU64::new(0);
        let (flag, parks) = (&flag, &parks);
        std::thread::scope(|s| {
            s.spawn(|| {
                run([boxed(0, || {
                    wait(None, Some(parks), |waker| {
                        let mut st = flag.lock().unwrap();
                        if st.0 {
                            return Some(());
                        }
                        st.1 = Some(waker.clone());
                        None
                    });
                })])
            });
            while parks.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let waker = {
                let mut st = flag.lock().unwrap();
                st.0 = true;
                st.1.take()
            };
            waker.expect("the wait registered its waker").wake();
        });
    }

    /// A condition a fiber waits for, with the waker its poll registers.
    #[derive(Default)]
    struct Cond {
        hit: bool,
        waker: Option<Waker>,
        polls: usize,
    }

    /// Wait for `cond`, registering this fiber's waker the way a mailbox
    /// does, and count the polls.
    fn wait_on(cond: &RefCell<Cond>) {
        wait(None, None, |waker| {
            let mut c = cond.borrow_mut();
            c.polls += 1;
            if c.hit {
                return Some(());
            }
            waker.register(&mut c.waker);
            None
        });
    }

    /// Two fibers that take `turns` turns through a counter: each wait is
    /// unarmed, so every pass resumes both, and each turn is progress.
    /// `at(turn)` runs at the start of every turn.
    fn turn_takers<'a>(
        turns: usize,
        turn: &'a Cell<usize>,
        at: &'a dyn Fn(usize),
    ) -> impl Iterator<Item = (usize, Box<dyn FnOnce() + 'a>)> {
        (0..2).map(move |me| {
            boxed(1 + me, move || loop {
                wait(None, None, |_| {
                    (turn.get() >= turns || turn.get() % 2 == me).then_some(())
                });
                let t = turn.get();
                if t >= turns {
                    break;
                }
                at(t);
                turn.set(t + 1);
            })
        })
    }

    #[test]
    fn an_armed_wait_is_polled_once_before_its_wake_and_once_after() {
        const TURNS: usize = 400;
        let (cond, turn) = (RefCell::new(Cond::default()), Cell::new(0));
        let (cond, turn) = (&cond, &turn);
        let at = |t: usize| {
            if t == TURNS / 2 {
                let mut c = cond.borrow_mut();
                c.hit = true;
                c.waker.as_ref().expect("the wait registered").wake();
            }
        };
        let waiter = boxed(0, move || wait_on(cond));
        run(std::iter::once(waiter).chain(turn_takers(TURNS, turn, &at)));
        // About TURNS / 4 passes went by between the two polls, with the
        // siblings taking their turns in every one.
        assert_eq!(cond.borrow().polls, 2);
        assert_eq!(turn.get(), TURNS);
    }

    #[test]
    fn an_unarmed_wait_is_polled_every_pass() {
        const TURNS: usize = 400;
        let (polls, turn) = (Cell::new(0usize), Cell::new(0));
        let (polls, turn) = (&polls, &turn);
        let waiter = boxed(0, move || {
            wait(None, None, |_| {
                polls.set(polls.get() + 1);
                (turn.get() >= TURNS / 2).then_some(())
            });
        });
        let at = |_| {};
        run(std::iter::once(waiter).chain(turn_takers(TURNS, turn, &at)));
        // A pass takes two turns: one poll per pass until half of them.
        assert!(
            polls.get() > TURNS / 4 - 2,
            "polled {} times in about {} passes",
            polls.get(),
            TURNS / 4
        );
    }

    #[test]
    fn a_stale_waker_costs_at_most_one_poll() {
        const TURNS: usize = 400;
        let (first, second) = (RefCell::new(Cond::default()), RefCell::new(Cond::default()));
        let turn = Cell::new(0);
        let (first, second, turn) = (&first, &second, &turn);
        let at = |t: usize| {
            let wake = |cond: &RefCell<Cond>, hit: bool| {
                let mut c = cond.borrow_mut();
                c.hit |= hit;
                c.waker.as_ref().expect("the wait registered").wake();
            };
            match t {
                10 => wake(first, true),
                // The first wait is over, but its waker is still
                // registered there: three notifies in one turn.
                100 => (0..3).for_each(|_| wake(first, false)),
                300 => wake(second, true),
                _ => {}
            }
        };
        let waiter = boxed(0, move || {
            wait_on(first);
            wait_on(second);
        });
        run(std::iter::once(waiter).chain(turn_takers(TURNS, turn, &at)));
        assert_eq!(first.borrow().polls, 2);
        // Once before, once for the stale wake-up, once after the real one.
        assert_eq!(second.borrow().polls, 3);
    }
}
