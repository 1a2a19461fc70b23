//! Host memory of one simulated core. A counting global allocator (in
//! this test binary only) measures the heap bytes a [`Machine`] allocates
//! when built and the bytes it holds after serving the suite, and pins
//! both under ceilings: the caches keep only the sets they have filled
//! and TAGE packs its tables into 4-byte entries, so a machine's memory
//! follows the state a workload fills rather than the full Table 2
//! capacities. It also pins what a warmed machine allocates per
//! invocation: the engine keeps its per-invocation buffers in the
//! machine, so a steady-state invocation allocates nothing but the
//! metadata regions Ignite hands back.
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
    /// This thread's `alloc`, `alloc_zeroed` and `realloc` calls, and the
    /// bytes they requested (a `realloc` requests its new size, as
    /// perfbench's probe counts it).
    static REQUESTS: Cell<Requests> = const { Cell::new(Requests { calls: 0, bytes: 0 }) };
}

/// Heap requests made by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Requests {
    calls: u64,
    bytes: u64,
}

fn note(delta: isize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn note_request(bytes: usize) {
    let _ = REQUESTS.try_with(|r| {
        let Requests { calls, bytes: total } = r.get();
        r.set(Requests { calls: calls + 1, bytes: total + bytes as u64 });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are touched
// only after a successful call and never affects the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
            note_request(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
            note_request(layout.size());
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
            note_request(new_size);
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

/// This thread's heap requests so far.
fn requests() -> Requests {
    REQUESTS.with(Cell::get)
}

fn machine() -> Machine {
    Machine::new(&UarchConfig::ice_lake_like(), &FrontEndConfig::ignite())
}

/// Every function of the scale-0.02 suite, one container each.
fn suite_functions() -> Vec<PreparedFunction> {
    let suite = Suite::paper_suite_scaled(0.02);
    suite
        .functions()
        .iter()
        .enumerate()
        .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
        .collect()
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
    let functions = suite_functions();
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

/// Serves every scale-0.02 suite function on a `fe` machine three times,
/// round-robin as a cluster core does (a context switch before each
/// invocation, whose index is the round), then serves a fourth round and
/// returns each of its invocations' heap requests.
fn steady_state_requests(fe: &FrontEndConfig) -> Vec<Requests> {
    let functions = suite_functions();
    let mut m = Machine::new(&UarchConfig::ice_lake_like(), fe);
    let serve = |m: &mut Machine, f: &PreparedFunction, round: u64| {
        m.context_switch();
        let result = run_invocation_ctx(m, f, round, InvocationCtx::default());
        assert!(result.instructions > 0, "{round}: an empty run");
    };
    for round in 0..3 {
        for f in &functions {
            serve(&mut m, f, round);
        }
    }
    functions
        .iter()
        .map(|f| {
            let before = requests();
            serve(&mut m, f, 3);
            let after = requests();
            Requests { calls: after.calls - before.calls, bytes: after.bytes - before.bytes }
        })
        .collect()
}

fn report(name: &str, per_invocation: &[Requests]) {
    let calls: u64 = per_invocation.iter().map(|r| r.calls).sum();
    let bytes: u64 = per_invocation.iter().map(|r| r.bytes).sum();
    let n = per_invocation.len() as f64;
    eprintln!(
        "{name}: the fourth round's {} invocations make {:.1} allocations and {:.0} B each",
        per_invocation.len(),
        calls as f64 / n,
        bytes as f64 / n
    );
}

/// A warmed machine without Ignite allocates nothing per invocation, on
/// every such front-end: the walker's tables and the FTQ buffer live in
/// the machine, the next-line prefetcher reports its fills without
/// building a list, and Jukebox keeps its recording and replay queue.
#[test]
fn a_warmed_machine_without_ignite_allocates_nothing_per_invocation() {
    for fe in [
        FrontEndConfig::nl(),
        FrontEndConfig::fdp(),
        FrontEndConfig::jukebox(),
        FrontEndConfig::boomerang(),
        FrontEndConfig::boomerang_jukebox(),
        FrontEndConfig::confluence(),
        FrontEndConfig::ideal(),
    ] {
        let per_invocation = steady_state_requests(&fe);
        report(&fe.name, &per_invocation);
        for (i, r) in per_invocation.iter().enumerate() {
            assert_eq!(
                r.calls, 0,
                "{} function {i}: {} allocations, {} B",
                fe.name, r.calls, r.bytes
            );
        }
    }
}

/// A warmed Ignite machine allocates only the regions it hands back: the
/// recording and the merged region, at most 2 allocations and 4 KB per
/// invocation. The replay decode buffer, the line queue, the merge map
/// and the encoder buffer live in the mechanism.
#[test]
fn a_warmed_ignite_machine_allocates_only_its_regions() {
    let fe = FrontEndConfig::ignite();
    let per_invocation = steady_state_requests(&fe);
    report(&fe.name, &per_invocation);
    for (i, r) in per_invocation.iter().enumerate() {
        assert!(
            r.calls <= 2 && r.bytes <= 4096,
            "function {i}: {} allocations, {} B (at most 2 and 4,096)",
            r.calls,
            r.bytes
        );
    }
}
