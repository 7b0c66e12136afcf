//! Pins `LoadEstimator::resident_bytes` to what the estimator really holds.
//!
//! A counting global allocator tracks live heap bytes (allocations minus
//! frees). The exact estimator is built and fed 50 000 distinct flows across
//! a few control ticks; the heap it holds at the end is the rise in live
//! bytes, and its own report must land within 2 % of that. The heap itself
//! must stay within what the live window needs: one per-tick map of 10 000
//! flows per slot, however many flows the estimator has seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pam_fleet::{EstimatorConfig, EstimatorKind, LoadEstimator};
use pam_types::{Gbps, SimDuration, SimTime};

/// Tracks live heap bytes: `alloc` adds, `dealloc` subtracts, `realloc`
/// moves by the size difference.
struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// One test, so that no other test's allocations share the global counter.
#[test]
fn exact_resident_bytes_match_the_heap_it_holds() {
    let interval = SimDuration::from_micros(500);
    let config =
        EstimatorConfig::of(EstimatorKind::Exact).with_window(SimDuration::from_micros(1_500));

    let before = LIVE.load(Ordering::Relaxed);
    let mut estimator = LoadEstimator::new(&config, interval);
    for flow in 0..50_000u64 {
        estimator.record_arrival(flow, 64 + flow % 1_436);
        if flow % 10_000 == 9_999 {
            let tick = flow / 10_000 + 1;
            estimator.record(SimTime::from_micros(tick * 500), Gbps::new(1.0));
        }
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    let reported = estimator.resident_bytes();

    // Four slots (window / interval + 1), each a map of one tick's 10 000
    // flows: a power-of-two array of 24-byte slots grown at 7/8 load, so
    // under 2 x 8/7 x 10 001 slots. The ring of maps and tick samples fit
    // in the slack. Holding all 50 000 flows would need over twice this.
    let per_tick_map = 2 * 8 * 10_001 / 7 * 24;
    assert!(held <= 4 * per_tick_map + 1024, "held {held} B");
    let error = reported.abs_diff(held) as f64 / held as f64;
    assert!(
        error <= 0.02,
        "resident_bytes {reported} B vs {held} B held ({:.1} % off)",
        error * 100.0
    );
    drop(estimator);
}
