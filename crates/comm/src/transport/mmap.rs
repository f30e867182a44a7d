//! A minimal mapping shim over `mmap(2)`: the shared file mapping the
//! shared-memory transport runs its rings in, the guarded anonymous
//! stacks a universe's rank fibers run on (`fiber.rs`), and the
//! `SIGSEGV` handler that names a fiber whose stack overflowed.
//!
//! The build environment has no registry access, so the usual `memmap2`
//! and `libc` crates are out; this is the few dozen lines of them the
//! runtime actually needs. Rust links the platform C runtime on
//! glibc/musl targets already, so declaring the symbols directly costs no
//! dependency.

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

const PROT_NONE: i32 = 0x0;
const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_SHARED: i32 = 0x01;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
/// The guard's size: the base page of every Linux target this builds for.
pub(crate) const PAGE_BYTES: usize = 4096;

extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    fn mprotect(addr: *mut core::ffi::c_void, len: usize, prot: i32) -> i32;
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn sigaltstack(stack: *const SigStack, old: *mut SigStack) -> i32;
    fn write(fd: i32, buf: *const core::ffi::c_void, len: usize) -> isize;
}

const SIGSEGV: i32 = 11;
const SA_SIGINFO: i32 = 0x4;
const SA_ONSTACK: i32 = 0x0800_0000;
const SS_DISABLE: i32 = 2;
const SIG_DFL: usize = 0;
const SIG_IGN: usize = 1;
/// A signal stack roomy enough for the handler and whatever it chains to.
const ALT_STACK_BYTES: usize = 64 << 10;

/// `struct sigaction` as glibc and musl lay it out on x86_64.
#[repr(C)]
pub(crate) struct SigAction {
    /// `sa_handler`, or `sa_sigaction` under `SA_SIGINFO`.
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

/// The head of `siginfo_t` on Linux: for `SIGSEGV` the faulting address
/// follows the three ints.
#[repr(C)]
pub(crate) struct SigInfo {
    signo: i32,
    errno: i32,
    code: i32,
    addr: usize,
}

impl SigInfo {
    /// The address whose access faulted.
    pub(crate) fn fault_addr(&self) -> usize {
        self.addr
    }
}

/// `stack_t`.
#[repr(C)]
struct SigStack {
    sp: *mut core::ffi::c_void,
    flags: i32,
    size: usize,
}

/// What a `SIGSEGV` handler gets: the signal, its `siginfo_t` and the
/// interrupted context.
pub(crate) type SegvHandler = extern "C" fn(i32, *mut SigInfo, *mut core::ffi::c_void);

/// The handler `SIGSEGV` had before [`on_segv`], called for every fault
/// the new one does not claim. Written by the kernel, once.
struct Prev(std::cell::UnsafeCell<SigAction>);

// SAFETY: written only by the one `sigaction` call in `on_segv`, under a
// `Once`, before any fault can reach the handler that reads it.
unsafe impl Sync for Prev {}

static PREV: Prev = Prev(std::cell::UnsafeCell::new(SigAction {
    handler: SIG_DFL,
    mask: [0; 16],
    flags: 0,
    restorer: 0,
}));

/// Install `handler` for `SIGSEGV`, on the alternate signal stack (see
/// [`AltStack`]), once per process; the handler it replaces is kept for
/// [`chain_segv`].
pub(crate) fn on_segv(handler: SegvHandler) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let act = SigAction {
            handler: handler as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_ONSTACK,
            restorer: 0,
        };
        // SAFETY: both pointers are valid `struct sigaction`s; the kernel
        // writes the old action into `PREV` before the new one can run.
        let rc = unsafe { sigaction(SIGSEGV, &act, PREV.0.get()) };
        assert_eq!(rc, 0, "cannot install the SIGSEGV handler");
    });
}

/// Hand a fault the new handler does not claim to the one it replaced:
/// call it, or — where that was the default or ignored — restore the
/// default and return, so the faulting access runs again and kills the
/// process the way it always would have.
///
/// # Safety
///
/// Called from the `SIGSEGV` handler with its own arguments.
pub(crate) unsafe fn chain_segv(sig: i32, info: *mut SigInfo, ctx: *mut core::ffi::c_void) {
    // SAFETY: `PREV` was written before this handler was installed.
    let prev = unsafe { &*PREV.0.get() };
    match prev.handler {
        SIG_DFL | SIG_IGN => {
            let dfl = SigAction {
                handler: SIG_DFL,
                mask: [0; 16],
                flags: 0,
                restorer: 0,
            };
            // SAFETY: a valid action; the old one is not asked for.
            unsafe { sigaction(SIGSEGV, &dfl, std::ptr::null_mut()) };
        }
        h if prev.flags & SA_SIGINFO != 0 => {
            // SAFETY: an `SA_SIGINFO` handler takes these three arguments.
            let h: SegvHandler = unsafe { std::mem::transmute(h) };
            h(sig, info, ctx);
        }
        h => {
            // SAFETY: a plain handler takes the signal number.
            let h: extern "C" fn(i32) = unsafe { std::mem::transmute(h) };
            h(sig);
        }
    }
}

/// Write `bytes` to standard error with one `write(2)`: safe inside a
/// signal handler, unlike `eprintln!`.
pub(crate) fn write_stderr(bytes: &[u8]) {
    // SAFETY: a valid buffer of `bytes.len()` bytes.
    unsafe { write(2, bytes.as_ptr().cast(), bytes.len()) };
}

/// An alternate signal stack for the calling thread, made only if it has
/// none (std gives the threads it spawns one when it watches for stack
/// overflow itself): a handler for an overflowed stack cannot run on
/// it. Removed and unmapped on drop.
pub(crate) struct AltStack(Option<GuardedStack>);

impl AltStack {
    pub(crate) fn ensure() -> AltStack {
        let mut old = SigStack {
            sp: std::ptr::null_mut(),
            flags: 0,
            size: 0,
        };
        // SAFETY: queries the current alternate stack into `old`.
        if unsafe { sigaltstack(std::ptr::null(), &mut old) } != 0 || old.flags & SS_DISABLE == 0 {
            return AltStack(None);
        }
        let Ok(stack) = GuardedStack::new(ALT_STACK_BYTES) else {
            return AltStack(None);
        };
        let new = SigStack {
            // SAFETY: the usable bytes start one guard page above `base`.
            sp: unsafe { stack.base.add(PAGE_BYTES) }.cast(),
            flags: 0,
            size: ALT_STACK_BYTES,
        };
        // SAFETY: `new` describes a mapping that outlives its use: it is
        // uninstalled in `drop` before it is unmapped.
        match unsafe { sigaltstack(&new, std::ptr::null_mut()) } {
            0 => AltStack(Some(stack)),
            _ => AltStack(None),
        }
    }
}

impl Drop for AltStack {
    fn drop(&mut self) {
        if self.0.is_some() {
            let off = SigStack {
                sp: std::ptr::null_mut(),
                flags: SS_DISABLE,
                size: 0,
            };
            // SAFETY: disables this thread's alternate stack, which is ours,
            // before `self.0` unmaps it.
            unsafe { sigaltstack(&off, std::ptr::null_mut()) };
        }
    }
}

/// A `MAP_SHARED` read-write mapping of a file, unmapped on drop.
///
/// Raw-pointer access only: the region is shared mutable memory across
/// threads *and processes*, so all access goes through atomics or
/// explicitly synchronized `copy_nonoverlapping` (see `shm.rs` for the
/// ring discipline that makes this sound).
pub struct SharedMap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `ptr` and `len` are a mapping no one else unmaps; the memory
// itself is shared by design, and the ring protocol layered on top
// provides the synchronization.
unsafe impl Send for SharedMap {}
// SAFETY: as for `Send`: `&SharedMap` only reads the two fields.
unsafe impl Sync for SharedMap {}

impl SharedMap {
    /// Map `len` bytes of `file` (which must be at least that long)
    /// shared and read-write.
    pub fn map(file: &File, len: usize) -> io::Result<SharedMap> {
        assert!(len > 0, "cannot map zero bytes");
        // SAFETY: a fresh mapping at an address the kernel picks; `file` is
        // open read-write and at least `len` bytes long (the caller's
        // contract), so no access through the mapping faults.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(SharedMap {
            ptr: ptr as *mut u8,
            len,
        })
    }

    /// Base pointer of the mapping.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never: `map` rejects zero).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for SharedMap {
    fn drop(&mut self) {
        // SAFETY: `ptr..ptr + len` is the mapping `map` made, and nothing
        // borrows from it past the owner's drop.
        unsafe {
            munmap(self.ptr as *mut core::ffi::c_void, self.len);
        }
    }
}

/// A private anonymous stack of `len` usable bytes above one `PROT_NONE`
/// guard page, unmapped on drop. The bytes are reserved, not committed
/// (`MAP_NORESERVE`): a page costs memory once it is first touched, so a
/// deep reservation is as cheap as a shallow one until a rank recurses
/// into it, and running off its end faults on the guard instead of
/// writing into a neighbour's memory.
pub(crate) struct GuardedStack {
    /// The guard page's address; the usable bytes follow it.
    base: *mut u8,
    len: usize,
}

impl GuardedStack {
    /// Reserve `len` bytes (a whole number of pages) under a guard page.
    pub(crate) fn new(len: usize) -> io::Result<GuardedStack> {
        assert!(
            len > 0 && len.is_multiple_of(PAGE_BYTES),
            "a stack is a whole number of pages"
        );
        let total = len + PAGE_BYTES;
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                total,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the lowest page of the mapping just made; no one else
        // knows its address yet.
        if unsafe { mprotect(base, PAGE_BYTES, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: the mapping made above, which nothing borrows.
            unsafe { munmap(base, total) };
            return Err(err);
        }
        Ok(GuardedStack {
            base: base as *mut u8,
            len,
        })
    }

    /// The guard page's address: a fault in `[guard, guard + 4096)` ran
    /// off the stack's end.
    pub(crate) fn guard(&self) -> usize {
        self.base as usize
    }

    /// One past the highest usable byte: page-aligned, where a stack that
    /// grows down starts.
    pub(crate) fn top(&self) -> *mut u8 {
        // SAFETY: guard page plus `len` bytes is the mapping's extent.
        unsafe { self.base.add(PAGE_BYTES + self.len) }
    }
}

impl Drop for GuardedStack {
    fn drop(&mut self) {
        // SAFETY: the mapping `new` made. Its owner, a fiber, drops it only
        // once nothing runs on it.
        unsafe {
            munmap(self.base as *mut core::ffi::c_void, self.len + PAGE_BYTES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch_file(name: &str, len: u64) -> (std::path::PathBuf, File) {
        let path =
            std::env::temp_dir().join(format!("cartcomm-mmap-test-{}-{name}", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(len).unwrap();
        (path, file)
    }

    #[test]
    fn mapping_reads_and_writes_through_to_file() {
        let (path, mut file) = scratch_file("rw", 4096);
        let map = SharedMap::map(&file, 4096).unwrap();
        assert_eq!(map.len(), 4096);
        assert!(!map.is_empty());
        unsafe {
            std::ptr::write_bytes(map.as_ptr(), 0xAB, 16);
        }
        // A second mapping of the same file sees the bytes.
        let map2 = SharedMap::map(&file, 4096).unwrap();
        let seen = unsafe { std::slice::from_raw_parts(map2.as_ptr(), 16) };
        assert_eq!(seen, &[0xABu8; 16]);
        drop(map);
        drop(map2);
        file.flush().unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn two_mappings_share_memory_live() {
        let (path, file) = scratch_file("live", 4096);
        let a = SharedMap::map(&file, 4096).unwrap();
        let b = SharedMap::map(&file, 4096).unwrap();
        unsafe {
            a.as_ptr().write_volatile(1);
            assert_eq!(b.as_ptr().read_volatile(), 1);
            b.as_ptr().add(1).write_volatile(2);
            assert_eq!(a.as_ptr().add(1).read_volatile(), 2);
        }
        drop((a, b));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_guarded_stack_is_writable_below_its_top_and_zeroed() {
        let stack = GuardedStack::new(16 * PAGE_BYTES).unwrap();
        assert_eq!(stack.top() as usize % PAGE_BYTES, 0);
        // SAFETY: the top page and the lowest usable page are both inside
        // the usable range.
        unsafe {
            let top_word = stack.top().sub(8);
            assert_eq!(top_word.read(), 0);
            top_word.write(0x5A);
            let lowest = stack.top().sub(16 * PAGE_BYTES);
            lowest.write(1);
            assert_eq!((top_word.read(), lowest.read()), (0x5A, 1));
        }
    }
}
