//! Pins the predictor hot paths at **zero** heap allocations.
//!
//! The folded-history TAGE rewrite replaced the per-prediction scratch
//! struct and per-table fold recomputation with flat tables and packed
//! fold lanes updated in place; nothing on the predict / update / replay
//! path touches the allocator after construction. These tests make that
//! a regression boundary, the same way
//! `crates/codecs/tests/alloc_regression.rs` pins the encoder and
//! simulation hot paths.
//!
//! The counter wraps the system allocator for this whole test binary,
//! which is why the tests live in their own integration-test file. It
//! counts per thread, so allocations on the harness's other threads
//! (test spawns, output capture) never land in a measurement window; a
//! shared lock still runs the tests one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use vstress_bpred::{BranchPredictor, Gshare, Tage};
use vstress_trace::record::BranchRecord;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialized with no
    /// destructor, so the allocator may touch it at any point of a
    /// thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the tests one at a time. Taken through [`serial`], which
/// tolerates poisoning: one failed test must not fail the others.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A branchy trace shaped like encoder control flow: a few dozen static
/// sites, mixed biases, enough records to exercise TAGE allocation,
/// usefulness aging and the periodic reset sweep.
fn synthetic_trace(n: usize) -> Vec<BranchRecord> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x5000_0000_0000 + (x % 48) * 8;
            let taken = match x % 5 {
                0 => i % 3 != 0, // loop-ish
                1 => true,       // strongly biased
                2 => x & 8 == 0, // data-dependent
                3 => i % 7 < 5,  // periodic
                _ => x & 1 == 0, // noise
            };
            BranchRecord { pc, taken }
        })
        .collect()
}

/// The per-branch path: interleaved predict/update on both shipped TAGE
/// geometries allocates nothing — not even on mispredicts, where the
/// allocation-and-aging machinery runs.
#[test]
fn tage_predict_update_is_allocation_free() {
    let _serial = serial();
    let trace = synthetic_trace(600_000);
    for mut tage in [Tage::seznec_8kb(), Tage::seznec_64kb()] {
        let before = allocs();
        let mut mispredicts = 0u64;
        for r in &trace {
            let guess = tage.predict(r.pc);
            if guess != r.taken {
                mispredicts += 1;
            }
            tage.update(r.pc, r.taken, guess);
        }
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "{}: predict/update allocated {} times over {} branches",
            tage.label(),
            after - before,
            trace.len()
        );
        // The trace must actually have exercised the mispredict machinery
        // for the zero-allocation claim to mean anything.
        assert!(mispredicts > 1_000, "trace too predictable: {mispredicts} mispredicts");
    }
}

/// The whole-trace path: `replay` (the CBP loop the characterization
/// model drives) allocates nothing, for TAGE and — as a sanity anchor —
/// gshare.
#[test]
fn replay_is_allocation_free() {
    let _serial = serial();
    let trace = synthetic_trace(400_000);
    let mut tage = Tage::seznec_8kb();
    let mut gshare = Gshare::with_budget_bytes(32 * 1024);
    let preds: [&mut dyn BranchPredictor; 2] = [&mut tage, &mut gshare];
    for pred in preds {
        let label = pred.label();
        let before = allocs();
        let mispredicts = pred.replay(&trace);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "{label}: replay allocated {} times over {} branches",
            after - before,
            trace.len()
        );
        assert!(mispredicts > 0);
    }
}

/// Update-without-predict (the out-of-order corner the recompute guard
/// covers) stays allocation-free too: the guard recomputes into the
/// existing prediction state, never into fresh scratch.
#[test]
fn tage_update_without_predict_is_allocation_free() {
    let _serial = serial();
    let trace = synthetic_trace(100_000);
    let mut tage = Tage::seznec_8kb();
    let before = allocs();
    for r in &trace {
        // Deliberately skip predict for every other branch.
        let guess = if r.pc & 8 == 0 { tage.predict(r.pc) } else { false };
        tage.update(r.pc, r.taken, guess);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "guarded update allocated {} times", after - before);
}
