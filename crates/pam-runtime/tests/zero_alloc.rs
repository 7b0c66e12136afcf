//! Pins what a whole run of the datapath allocates.
//!
//! A counting global allocator wraps the system allocator. After a warm-up
//! that sizes every recycled buffer (doorbell stages, the batch arena,
//! verdict scratch, calendar-queue buckets, flow tables, the Logger's ring),
//! the full Figure-1 chain — Logger included, metrics published every
//! interval — is driven through `run_until` by a live trace synthesizer.
//! The only allocation a packet may cost is its own frame, which the traffic
//! source builds (that is the offered workload); beyond one frame per
//! submitted packet, the measured window may allocate only a small constant
//! (the metrics history growing its ring). Deallocations are not counted:
//! delivered packets free their frames at egress.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pam_core::Placement;
use pam_nf::ServiceChainSpec;
use pam_runtime::{ChainRuntime, RuntimeConfig};
use pam_traffic::{
    ArrivalProcess, FlowGeneratorConfig, PacketSizeProfile, TraceConfig, TraceSynthesizer,
    TrafficSchedule,
};
use pam_types::{Gbps, SimDuration, SimTime};

/// Counts every allocation and reallocation (frees are not counted: egress
/// legitimately drops packet buffers).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the measured window may make beyond one frame per packet
/// (measured: one). The window spans more than ten metrics publications, so
/// one allocation per publication fails the test.
const SLACK: u64 = 4;

/// Runs the Figure-1 chain at doorbell batch `max_batch`: warms up for
/// 10 ms of traffic, then returns `(allocations, packets submitted)` over
/// the next 10 ms and the drain after it.
fn measured_window(max_batch: usize) -> (u64, u64) {
    let mut runtime = ChainRuntime::new(
        ServiceChainSpec::figure1(),
        &Placement::figure1_initial(),
        RuntimeConfig::evaluation_default().with_max_batch(max_batch),
    )
    .unwrap();
    // A small flow population, so the warm-up visits every flow and the
    // measured window performs only flow-table re-lookups.
    let mut trace = TraceSynthesizer::new(TraceConfig {
        sizes: PacketSizeProfile::paper_sweep(),
        flows: FlowGeneratorConfig {
            flow_count: 64,
            zipf_exponent: 1.0,
            tcp_fraction: 0.8,
        },
        arrival: ArrivalProcess::Cbr,
        schedule: TrafficSchedule::constant(Gbps::new(1.5), SimDuration::from_millis(20)),
        seed: 77,
    });
    runtime.run_until(&mut trace, SimTime::from_millis(10));

    // The run is deterministic (fixed seed, fixed schedule), so these
    // numbers cannot flake: they either always hold for a build or never do.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let submitted = runtime.run_until(&mut trace, SimTime::from_millis(25));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let outcome = runtime.outcome();
    assert_eq!(
        outcome.injected,
        outcome.delivered + outcome.drops_overload + outcome.drops_policy,
        "everything submitted was accounted for"
    );
    assert!(outcome.delivered > 2_000, "traffic flowed");
    (allocations, submitted)
}

// One test, so that no other test's allocations share the global counter.
#[test]
fn whole_run_allocates_at_most_one_frame_per_packet() {
    for max_batch in [1, 8] {
        let (allocations, submitted) = measured_window(max_batch);
        assert!(submitted > 2_000, "the window is long enough to measure");
        assert!(
            allocations <= submitted + SLACK,
            "batch {max_batch}: {allocations} allocations for {submitted} packets \
             (at most one frame each plus {SLACK})"
        );
    }
}
