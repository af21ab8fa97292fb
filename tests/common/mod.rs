//! The counting global allocator the footprint tests measure with
//! (`mod common;` installs it for the whole test binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What a measured piece of work did to the heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Allocations made, growth included.
    pub allocations: usize,
    /// Allocations it left alive on balance (negative: it freed more
    /// than it made).
    pub blocks: isize,
    /// Bytes it left allocated on balance (negative: it freed more than
    /// it allocated).
    pub bytes: isize,
}

thread_local! {
    /// This thread's tally while it measures (`None`: not measuring — the
    /// harness's other threads never are).
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn tally(allocations: usize, blocks: isize, bytes: isize) {
    TALLY.with(|tally| {
        if let Some(t) = tally.get() {
            tally.set(Some(Tally {
                allocations: t.allocations + allocations,
                blocks: t.blocks + blocks,
                bytes: t.bytes + bytes,
            }));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, 1, layout.size() as isize);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -1, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System` under this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, 0, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` under this `layout`; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` on this thread and returns its result with what it did to
/// the heap.
pub fn measure<T>(work: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|tally| tally.set(Some(Tally::default())));
    let result = work();
    (result, TALLY.with(|tally| tally.take()).expect("measuring"))
}
