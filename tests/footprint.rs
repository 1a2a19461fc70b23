//! Host memory of one simulated core. A counting global allocator (in
//! this test binary only) measures the heap bytes a [`Machine`] allocates
//! when built and the bytes it holds after serving the suite, and pins
//! both under ceilings: the caches keep only the sets they have filled
//! and TAGE packs its tables into 4-byte entries, so a machine's memory
//! follows the state a workload fills rather than the full Table 2
//! capacities.
//!
//! Each test counts only its own thread's allocations, so tests running
//! side by side do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::{Machine, PreparedFunction};
use ignite_engine::sim::{run_invocation_ctx, InvocationCtx};
use ignite_uarch::UarchConfig;
use ignite_workloads::suite::Suite;

/// The system allocator, counting the live bytes of each thread.
struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is touched
// only after a successful call and never affects the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's live heap bytes.
fn live() -> isize {
    LIVE.with(Cell::get)
}

fn machine() -> Machine {
    Machine::new(&UarchConfig::ice_lake_like(), &FrontEndConfig::ignite())
}

/// A new machine allocates its BTB and TAGE tables and no cache way.
#[test]
fn a_new_machine_allocates_at_most_400_kb() {
    let before = live();
    let m = machine();
    let bytes = live() - before;
    eprintln!("Machine::new(ice_lake_like, ignite) allocates {bytes} B");
    assert!(bytes <= 400_000, "a new machine allocates {bytes} B, above 400,000");
    drop(m);
}

/// A machine that has served every function of the scale-0.02 suite
/// three times, round-robin as a cluster core does, holds its caches'
/// filled prefixes and Ignite's per-container metadata.
#[test]
fn a_machine_that_served_the_suite_holds_at_most_750_kb() {
    let suite = Suite::paper_suite_scaled(0.02);
    let functions: Vec<PreparedFunction> = suite
        .functions()
        .iter()
        .enumerate()
        .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
        .collect();
    let before = live();
    let mut m = machine();
    for round in 0..3 {
        for f in &functions {
            let result = run_invocation_ctx(&mut m, f, round, InvocationCtx::default());
            assert!(result.instructions > 0, "{round}: an empty run");
        }
    }
    let bytes = live() - before;
    eprintln!("after 3 x {} invocations the machine holds {bytes} B", functions.len());
    assert!(bytes <= 750_000, "the machine holds {bytes} B, above 750,000");
    drop(m);
}
