//! A counting global allocator: live and peak heap bytes of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts live bytes. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so the `GlobalAlloc` contract holds exactly as it does for
// `System`; the counters are atomics touched only on success.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
    // the body passes on to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller under `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract, which
    // the body passes on to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller under `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, which
    // the body passes on to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, which
    // the body passes on to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is non-zero, per `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_large_allocation() {
        // The test binary does not install the allocator; drive it directly.
        let a = Counting;
        let layout = Layout::from_size_align(1 << 20, 8).expect("valid layout");
        reset_peak();
        let before = peak_bytes();
        // SAFETY: non-zero-size layout; the block is freed below with it.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        assert!(peak_bytes() >= before + (1 << 20));
        // SAFETY: `p` came from `a.alloc(layout)` above.
        unsafe { a.dealloc(p, layout) };
    }
}
