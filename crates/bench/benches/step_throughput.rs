//! Criterion benchmark of the cycle engine itself: simulated cycles per
//! second at 2/4/8 cores, in four configurations:
//!
//! * `bare` — `Platform::step`, the interpreter;
//! * `observed` — `Platform::step` with nothing attached, the same code
//!   as `bare`. It survives only so the CI baseline keeps its records;
//!   ROADMAP item 2 retires it;
//! * `instrumented` — `step` with real observers attached (lockstep
//!   width + VCD), the full observer dispatch cost;
//! * `lockstep` — `Platform::run_until` on a lockstep ALU loop closed by
//!   a branch, which the engine's batched fast path runs as one batch
//!   per slice (the other three step one interpreted cycle at a time).
//!
//! A regression that reintroduces per-cycle allocation or observer
//! dispatch on the bare path shows up here directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ulp_isa::asm::assemble;
use ulp_platform::{LockstepWidth, Platform, PlatformConfig, RunProgress, VcdTracer};

/// Cycles stepped per benchmark iteration.
const CYCLES_PER_ITER: u64 = 1_000;

/// Cycles advanced per lockstep iteration (one `run_until` slice).
const LOCKSTEP_CYCLES_PER_ITER: u64 = 10_000;

/// An endless SPMD workload touching every engine phase: per-core
/// data-dependent spin, a shared `SINC`/`SDEC` barrier, loads and stores.
/// The cores never halt, so the platform can be stepped indefinitely.
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
        sdec #0
        br   loop";

/// An endless lockstep hot loop — straight-line ALU work plus a backward
/// branch, the inner-loop shape of the paper kernels; the branch stays
/// inside the batch. (`SPIN_SRC` deliberately diverges and synchronizes,
/// so it measures the interpreter; this one measures the lockstep fast
/// path.)
const LOCKSTEP_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11       ; private bank base
loop:   addi r4, #3
        mov  r5, r4
        movi r0, #7
        and  r5, r0
        add  r4, r5
        inc  r4
        br   loop";

fn prepared_platform_on(src: &str, cores: usize) -> Platform {
    let program = assemble(src).expect("benchmark program assembles");
    let cfg = PlatformConfig::paper_with_sync()
        .with_cores(cores)
        .with_max_cycles(u64::MAX);
    let mut p = Platform::new(cfg).expect("valid config");
    p.load_program(&program);
    // Warm past the prologue so every iteration measures steady state.
    for _ in 0..512 {
        p.step();
    }
    p
}

fn bench_step_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(CYCLES_PER_ITER));

    for cores in [2usize, 4, 8] {
        let mut platform = prepared_platform_on(SPIN_SRC, cores);
        group.bench_function(BenchmarkId::new("bare", cores), |b| {
            b.iter(|| {
                for _ in 0..CYCLES_PER_ITER {
                    platform.step();
                }
                platform.cycle()
            })
        });

        // Nothing attached: the same code as `bare`.
        let mut platform = prepared_platform_on(SPIN_SRC, cores);
        group.bench_function(BenchmarkId::new("observed", cores), |b| {
            b.iter(|| {
                for _ in 0..CYCLES_PER_ITER {
                    platform.step();
                }
                platform.cycle()
            })
        });

        let mut platform = prepared_platform_on(SPIN_SRC, cores);
        platform.attach(Box::new(LockstepWidth::new()));
        group.bench_function(BenchmarkId::new("instrumented", cores), |b| {
            b.iter(|| {
                // The tracer lives one iteration, so its change-dump text
                // stays bounded (~one sample's worth) instead of growing
                // across the whole measurement and skewing later samples.
                let vcd = platform.attach(Box::new(VcdTracer::new(&platform)));
                for _ in 0..CYCLES_PER_ITER {
                    platform.step();
                }
                platform.detach(vcd);
                platform.cycle()
            })
        });

        // One unobserved `run_until` slice per iteration: the run loop
        // batches the loop body and pauses exactly on the limit.
        let mut platform = prepared_platform_on(LOCKSTEP_SRC, cores);
        group.throughput(Throughput::Elements(LOCKSTEP_CYCLES_PER_ITER));
        group.bench_function(BenchmarkId::new("lockstep", cores), |b| {
            b.iter(|| {
                let limit = platform.cycle() + LOCKSTEP_CYCLES_PER_ITER;
                let progress = platform.run_until(limit).expect("endless loop runs");
                assert_eq!(progress, RunProgress::Paused);
                platform.cycle()
            })
        });
        group.throughput(Throughput::Elements(CYCLES_PER_ITER));
    }
    group.finish();
}

criterion_group!(benches, bench_step_throughput);
criterion_main!(benches);
