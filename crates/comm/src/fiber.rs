//! Ranks as fibers: a universe runs its `p` ranks on one worker thread
//! per core, and a rank that must wait hands its core to a sibling rank
//! in user space instead of entering the kernel.
//!
//! A fiber is a rank program on a stack of its own
//! ([`GuardedStack`]: a constant [`STACK_BYTES`] reservation committed
//! as it is touched, over a guard page). A worker ([`run`]) resumes its
//! fibers round-robin; a fiber runs until it finishes or waits. Every
//! place the runtime makes a rank wait — a mailbox pop, the lossy
//! transport's acknowledgement, a full shared-memory ring — goes through
//! the one [`wait`]: poll the condition, and while it does not hold,
//! switch back to the worker, which resumes the next fiber. A switch
//! saves six registers and two control words and swaps stack pointers:
//! no system call, no scheduler, no cache-cold wake-up on another core.
//!
//! The worker's idle rule replaces the old per-receive yield-then-park:
//! a *pass* over the fibers is idle when no fiber's wait was satisfied
//! (one that timed out does not count) and none finished. After each
//! idle pass the worker yields its core; after
//! [`IDLE_PASSES_BEFORE_PARK`] consecutive ones it parks until a
//! [`Waker`] — a push or close on one of its ranks' mailboxes, an
//! acknowledgement — or the earliest deadline among its waits wakes it.
//! A thread that is not a worker (a unit test, a `spawn_processes`
//! child) waits the same way, as a worker of one fiber.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::Thread;
use std::time::Instant;

use crate::transport::mmap::{self, AltStack, GuardedStack, SigInfo, PAGE_BYTES};

/// Bytes reserved for each fiber's stack. Reserved, not committed: a
/// rank pays for the pages it touches, so the reservation only bounds
/// recursion depth (a thread's default is 2 MiB). Overflowing it faults
/// on the guard page, which [`on_segv`] recognizes: it names the rank and
/// aborts, as std does for a thread's own guard page (DESIGN.md §2).
const STACK_BYTES: usize = 8 << 20;

/// How many idle passes a worker yields its core for before it parks.
///
/// A constant, picked from the run-to-run spread of ten 10 s `cartbench`
/// runs per count, not from their medians (8 ranks on 2 workers): the
/// medians of 4, 16, 64 and 256 lie within 2 % of each other on
/// `a2a_small` and `a2a_trivial`. The spreads do not: `a2a_small`'s
/// `ops_per_s` quartiles lay 5 832 and 5 864 1/s apart at 4 and 16
/// passes, 3 885 at 64 and 1 889 at 256, while at 256 one `a2a_trivial`
/// run in ten fell to half speed (quartiles 944 1/s apart, 459 at 64).
/// Beyond that the spread follows the machine, not the count. It costs a
/// worker whose fibers all wait on silent peers 64 `sched_yield` calls
/// before it sleeps.
const IDLE_PASSES_BEFORE_PARK: u32 = 64;

thread_local! {
    /// This thread's waker, made on its first wait.
    static WAKER: Waker = Waker(std::thread::current());
    /// The worker whose fiber runs on this thread; null outside [`run`].
    static WORKER: Cell<*const Worker> = const { Cell::new(ptr::null()) };
}

/// Who to wake when what a wait polls may have changed: the waiting
/// thread, worker or not. A waiting poll registers it under the lock it
/// polls under; whoever changes the state under that lock takes it and
/// wakes it after the unlock.
#[derive(Clone)]
pub(crate) struct Waker(Thread);

impl Waker {
    /// End the thread's park, or make its next one return at once. The
    /// wake-up enters the kernel only when the thread is parked.
    pub(crate) fn wake(self) {
        self.0.unpark();
    }
}

/// Consecutive idle passes, and what to do after one.
#[derive(Default)]
struct Idle {
    passes: u32,
}

impl Idle {
    /// After an idle pass: yield the core, or once the yields are spent,
    /// park until a wake-up or `deadline`, first bumping `parks` — one
    /// counter per waiting rank, each that rank's record that it slept (a
    /// park that a wake-up already pending ends at once counts too).
    fn pass<'c>(&mut self, deadline: Option<Instant>, parks: impl Iterator<Item = &'c AtomicU64>) {
        if self.passes < IDLE_PASSES_BEFORE_PARK {
            self.passes += 1;
            std::thread::yield_now();
            return;
        }
        parks.for_each(|c| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        // Woken, timed out, or spuriously: the caller polls again either way.
        match deadline {
            Some(d) => std::thread::park_timeout(d.saturating_duration_since(Instant::now())),
            None => std::thread::park(),
        }
    }
}

/// Wait until `poll` yields a value, or until `deadline` passes (`None`).
///
/// `poll` gets the calling thread's [`Waker`] and, when it finds nothing,
/// registers it under the lock it polled under before returning `None`;
/// a wait no one can wake (a full ring) registers nothing and is ended
/// by its deadline. On a worker the fiber hands the core to its siblings
/// between polls; on any other thread the thread yields, then parks.
/// Every time the wait sleeps, `parks` is bumped first.
pub(crate) fn wait<T>(
    deadline: Option<Instant>,
    parks: Option<&AtomicU64>,
    mut poll: impl FnMut(&Waker) -> Option<T>,
) -> Option<T> {
    let worker = WORKER.get();
    let mut idle = Idle::default();
    let out = WAKER.with(|waker| loop {
        if let Some(v) = poll(waker) {
            break Some(v);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break None;
        }
        if worker.is_null() {
            idle.pass(deadline, parks.into_iter());
        } else {
            let parks = parks.map_or(ptr::null(), |c| c as *const AtomicU64);
            // SAFETY: a non-null `WORKER` is the worker running this fiber
            // on this thread; it outlives every fiber it runs.
            unsafe { (*worker).suspend(Waiting { deadline, parks }) };
        }
    });
    if out.is_some() && !worker.is_null() {
        // A wait that timed out is no progress: the worker idles on until
        // a wake-up or the next deadline instead of spinning.
        // SAFETY: as above.
        unsafe { (*worker).progress.set(true) };
    }
    out
}

/// What a suspended fiber waits for, as it told its worker.
#[derive(Clone, Copy)]
struct Waiting {
    deadline: Option<Instant>,
    /// The wait's park counter (null: none). It lives in the caller of
    /// the fiber's suspended [`wait`], so it is valid while the fiber
    /// stays suspended.
    parks: *const AtomicU64,
}

/// A worker's scheduling state, on the worker's own stack and reachable
/// from its fibers through `WORKER`.
struct Worker {
    /// The worker's saved context while a fiber runs.
    sp: Cell<*mut u8>,
    /// Where the running fiber's context is saved when it suspends.
    running: Cell<*mut *mut u8>,
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
    /// Unmapped last, once nothing runs on it.
    _stack: GuardedStack,
}

/// The control words a fiber starts with: MXCSR (all exceptions masked,
/// round to nearest) in the low four bytes, the x87 control word (the
/// same, extended precision) above it — the values a thread starts with.
const INITIAL_FP_CONTROL: u64 = 0x1F80 | (0x037F << 32);

impl<'a> Fiber<'a> {
    fn new((rank, body): (usize, Box<dyn FnOnce() + 'a>)) -> Fiber<'a> {
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
            waiting: Waiting {
                deadline: None,
                parks: ptr::null(),
            },
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
    let mut fibers: Vec<Fiber<'a>> = bodies.into_iter().map(Fiber::new).collect();
    let worker = Worker {
        sp: Cell::new(ptr::null_mut()),
        running: Cell::new(ptr::null_mut()),
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
            worker.running.set(&mut fiber.sp);
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
            let deadline = fibers.iter().filter_map(|f| f.waiting.deadline).min();
            // SAFETY: every fiber left suspended itself in `wait` during this
            // pass, so each non-null counter is still borrowed by its wait.
            let parks = fibers
                .iter()
                .filter_map(|f| unsafe { f.waiting.parks.as_ref() });
            idle.pass(deadline, parks);
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
}
