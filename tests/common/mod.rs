//! The counting global allocator the footprint tests measure with
//! (`mod common;` installs it for the whole test binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, net live bytes)` of this thread while it measures
    /// (`None`: not measuring — the harness's other threads never are).
    static TALLY: Cell<Option<(usize, isize)>> = const { Cell::new(None) };
}

fn tally(allocations: usize, bytes: isize) {
    TALLY.with(|tally| {
        if let Some((count, live)) = tally.get() {
            tally.set(Some((count + allocations, live + bytes)));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as isize);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System` under this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` under this `layout`; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` on this thread and returns its result with what it did to
/// the heap: the number of allocations (growth included) and the bytes it
/// left allocated on balance (negative: it freed more than it allocated).
pub fn measure<T>(work: impl FnOnce() -> T) -> (T, usize, isize) {
    TALLY.with(|tally| tally.set(Some((0, 0))));
    let result = work();
    let (allocations, live) = TALLY.with(|tally| tally.take()).expect("measuring");
    (result, allocations, live)
}
