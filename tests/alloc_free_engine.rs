//! Proof that the cycle engine is allocation-free in steady state: wrap
//! the global allocator in a counter, warm a platform past its buffer
//! growth phase, then step it for thousands of cycles — through fetches,
//! bank conflicts, synchronizer barriers, sleeps and wakes — and assert
//! the allocation count does not move. The same holds for `run_until`
//! slices over a lockstep loop and over loaded paper kernels, which run
//! on the batched fast path: the sync kernel's batches carry loads,
//! stores and branches beside barrier sleepers, and the baseline
//! kernel's carry cores split across several PCs.
//!
//! This file holds exactly one test, so no concurrent test can pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use ulp_lockstep::isa::asm::assemble;
use ulp_lockstep::kernels::{run_benchmark_reusing, Benchmark, CheckpointControl, WorkloadConfig};
use ulp_lockstep::platform::{LockstepWidth, Platform, PlatformConfig, RunProgress};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
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
static GLOBAL: CountingAllocator = CountingAllocator;

/// An endless SPMD workload touching every engine phase: per-core
/// data-dependent spins, a shared `SINC`/`SDEC` barrier (sleep + wake),
/// loads, stores and an 8-way data bank conflict.
const SPIN_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11       ; private bank base
        li   r3, 18432     ; sync array base
        wrsync r3
        mov  r4, r1
loop:   sinc #0
        add  r4, r1
        addi r4, #3
        mov  r5, r4
        movi r0, #7
        and  r5, r0
        inc  r5
spin:   addi r5, #-1       ; data-dependent 1..8 rounds
        bne  spin
        st   r4, [r2]
        ld   r0, [r2]
        ld   r6, [r1]      ; 8 distinct addresses, one bank: conflict
        sdec #0
        br   loop";

/// An endless lockstep loop of ALU ops closed by a branch: one batch runs
/// it for as long as the slice lasts.
const LOCKSTEP_SRC: &str = "
        rdid r1
loop:   addi r4, #3
        mov  r5, r4
        movi r0, #7
        and  r5, r0
        add  r4, r5
        inc  r4
        br   loop";

#[test]
fn steady_state_step_performs_zero_heap_allocations() {
    let program = assemble(SPIN_SRC).expect("program assembles");
    let cfg = PlatformConfig::paper_with_sync().with_max_cycles(u64::MAX);
    let mut platform = Platform::new(cfg).expect("valid config");
    platform.load_program(&program);

    // Warm-up: let every scratch buffer reach its steady capacity.
    for _ in 0..2_000 {
        platform.step();
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        platform.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::step allocated in steady state"
    );

    // Observed stepping: with an observer attached, `step()` dispatches
    // over the platform's own observer list and builds nothing per call.
    let handle = platform.attach(Box::new(LockstepWidth::new()));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        platform.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::step with an attached observer allocated in steady state"
    );
    let width = platform.observer_as::<LockstepWidth>(&handle).unwrap();
    assert!(width.cycles() > 0, "the attached observer saw the steps");

    // Sanity: the measured window really exercised the machine.
    let stats = platform.stats();
    assert!(stats.cycles >= 22_000);
    assert!(stats.sync.expect("synchronizer present").batches > 0);
    assert!(stats.dxbar.conflict_cycles > 0, "conflicts exercised");
    assert!(
        stats.core_total.sleep_cycles > 0,
        "barrier sleeps exercised"
    );

    // Unobserved runs batch uniform lockstep runs; sliced `run_until`
    // over an endless lockstep loop exercises batches, and odd slice
    // lengths split a batched op across the pause.
    let program = assemble(LOCKSTEP_SRC).expect("program assembles");
    let cfg = PlatformConfig::paper_with_sync().with_max_cycles(u64::MAX);
    let mut platform = Platform::new(cfg).expect("valid config");
    platform.load_program(&program);
    let run_slice = |platform: &mut Platform, len: u64| {
        let limit = platform.cycle() + len;
        let progress = platform.run_until(limit).expect("endless loop runs");
        assert_eq!(progress, RunProgress::Paused);
        assert_eq!(platform.cycle(), limit);
    };
    run_slice(&mut platform, 2_000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for len in [1, 2, 3, 997, 2_000, 6_997] {
        run_slice(&mut platform, len);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::run_until allocated in steady state"
    );
    let stats = platform.stats();
    assert!(
        (stats.avg_lockstep_width() - 8.0).abs() < 1e-9,
        "the loop stayed in lockstep"
    );

    // A paper kernel on the sync design: its lockstep stretches are
    // batches of ALU ops, loads, stores and branches, between the
    // interpreted barrier cycles.
    let workload = WorkloadConfig::paper();
    let cfg = PlatformConfig::paper_with_sync().with_max_cycles(workload.max_cycles);
    let mut platform = Platform::new(cfg).expect("valid config");
    let parked =
        run_benchmark_reusing(Benchmark::Mrpdln, &mut platform, &workload, None, 1, |_| {
            CheckpointControl::Park
        })
        .expect("kernel loads");
    assert!(parked.is_none(), "parked after its first cycle");
    // Warm-up: past the barriers where the synchronizer's event lists
    // grow to the widest merge the kernel makes.
    run_slice(&mut platform, 100_000);
    let start = platform.stats();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for len in [1, 2, 3, 997, 2_000, 6_997, 30_000] {
        run_slice(&mut platform, len);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::run_until allocated in steady state on a paper kernel"
    );
    let stats = platform.stats();
    assert!(stats.dm.bank_reads > start.dm.bank_reads, "loads exercised");
    assert!(
        stats.dm.bank_writes > start.dm.bank_writes,
        "stores exercised"
    );
    assert!(
        stats.lockstep_width_sum - start.lockstep_width_sum
            > 7 * (stats.lockstep_width_cycles - start.lockstep_width_cycles),
        "the kernel ran mostly in lockstep"
    );

    // The same kernel on the baseline design: data-dependent divergence
    // splits the eight cores across PCs, so the batch runs several fetch
    // groups per cycle, contending for one IM bank.
    let cfg = PlatformConfig::paper_without_sync().with_max_cycles(workload.max_cycles);
    let mut platform = Platform::new(cfg).expect("valid config");
    let parked =
        run_benchmark_reusing(Benchmark::Mrpdln, &mut platform, &workload, None, 1, |_| {
            CheckpointControl::Park
        })
        .expect("kernel loads");
    assert!(parked.is_none(), "parked after its first cycle");
    run_slice(&mut platform, 100_000);
    let start = platform.stats();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for len in [1, 2, 3, 997, 2_000, 6_997, 30_000] {
        run_slice(&mut platform, len);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::run_until allocated in steady state on a diverged kernel"
    );
    let stats = platform.stats();
    assert!(
        stats.ixbar.conflict_cycles > start.ixbar.conflict_cycles,
        "fetch groups met in the I-Xbar"
    );
    assert!(
        stats.lockstep_width_sum - start.lockstep_width_sum
            < 7 * (stats.lockstep_width_cycles - start.lockstep_width_cycles),
        "the cores ran split across PCs"
    );
}
