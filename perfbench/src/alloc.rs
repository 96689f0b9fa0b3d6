//! A counting global allocator, armed only during the traced pass.
//!
//! Disarmed, each allocation costs one relaxed load on top of `System`.
//! Armed, every allocation (and every `realloc`, which may move the block)
//! bumps a process-wide counter pair and a per-thread one. The process-wide
//! pair attributes pool-worker allocations to the query that caused them;
//! the per-thread pair isolates one caller when several run at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// `System`, plus allocation counting while [`arm`]ed.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<Count> = const { Cell::new(Count { allocs: 0, bytes: 0 }) };
}

#[inline]
fn note(bytes: usize) {
    if !ARMED.load(Relaxed) {
        return;
    }
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    // `try_with` fails only while the thread is being torn down; an
    // allocation made then is still in the process-wide count.
    let _ = LOCAL.try_with(|c| {
        let now = c.get();
        c.set(Count {
            allocs: now.allocs + 1,
            bytes: now.bytes + bytes as u64,
        });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and a const-initialized
// thread-local `Cell` without a destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and requested bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Sub for Count {
    type Output = Count;
    fn sub(self, before: Count) -> Count {
        Count {
            allocs: self.allocs - before.allocs,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// Start or stop counting.
pub fn arm(on: bool) {
    ARMED.store(on, Relaxed);
}

/// Allocations made by every thread while armed.
pub fn global() -> Count {
    Count {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Allocations made by the calling thread while armed.
pub fn local() -> Count {
    LOCAL.with(Cell::get)
}
