use super::*;
use ulp_isa::asm::assemble;
use ulp_isa::Reg;

/// Sync array base: bank 9 of the 16-bank 64 kB DM (2048 words per bank).
const SYNC_BASE: u16 = 9 * 2048;

fn platform(with_sync: bool, src: &str) -> Platform {
    let program = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut p = Platform::new(PlatformConfig::paper(with_sync).with_max_cycles(2_000_000)).unwrap();
    p.load_program(&program);
    p
}

/// Branch-free SPMD program: each core computes in its own DM bank.
const LOCKSTEP_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11     ; r2 = id * 2048 (own bank base)
        movi r3, #7
        st   r3, [r2]
        ld   r4, [r2]
        add  r4, r4
        st   r4, [r2, #1]
        halt";

#[test]
fn branchless_spmd_stays_in_perfect_lockstep() {
    let mut p = platform(true, LOCKSTEP_SRC);
    p.run().unwrap();
    let s = p.stats();

    // Every instruction is fetched once and broadcast to all eight cores.
    assert_eq!(s.im.bank_reads, 9, "one physical IM access per instruction");
    assert_eq!(s.im.broadcast_extra, 9 * 7);
    assert!(
        (s.avg_lockstep_width() - 8.0).abs() < 1e-9,
        "width {}",
        s.avg_lockstep_width()
    );
    assert_eq!(s.ixbar.stalls, 0);
    assert_eq!(s.dxbar.stalls, 0);

    // 9 instructions x 2 cycles, fully parallel.
    assert_eq!(s.cycles, 18);
    // 8 useful ops per core (HALT is overhead) over 18 cycles.
    assert!((s.ops_per_cycle() - 64.0 / 18.0).abs() < 1e-9);

    // Results landed in each core's bank.
    for id in 0..8u16 {
        assert_eq!(p.dm(id * 2048), 7);
        assert_eq!(p.dm(id * 2048 + 1), 14);
    }
}

#[test]
fn shared_constant_read_broadcasts() {
    let src = "
        li   r5, 16384    ; shared-constants bank
        ld   r6, [r5]     ; same address on all cores -> broadcast
        halt";
    let mut p = platform(true, src);
    p.set_dm(16384, 1234);
    p.run().unwrap();
    let s = p.stats();
    assert_eq!(s.dm.bank_reads, 1, "one physical DM access for 8 readers");
    assert_eq!(s.dm.broadcast_extra, 7);
    for i in 0..8 {
        assert_eq!(p.core(i).reg(Reg::R6), 1234);
    }
}

#[test]
fn same_bank_conflict_serializes_but_syncaware_keeps_lockstep() {
    // Every iteration, all cores load *different* addresses of one shared
    // bank (an 8-way data access conflict) and then execute a long
    // straight-line body. The baseline crossbar lets served cores run
    // ahead, so the bodies execute out of phase and fight over the single
    // IM bank; the enhanced policy holds the synchronous group together
    // and keeps every fetch a broadcast.
    let src = "
        rdid r1
        li   r2, 0x100
        add  r2, r1        ; 8 distinct addresses in DM bank 0
        movi r4, #16       ; iterations
loop:   ld   r3, [r2]      ; 8-way bank conflict every iteration
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        addi r4, #-1
        bne  loop
        halt";

    let mut with = platform(true, src);
    with.run().unwrap();
    let s_with = with.stats();

    let mut without = platform(false, src);
    without.run().unwrap();
    let s_without = without.stats();

    assert!(s_with.dxbar.holds > 0, "held cores expected");
    assert!(s_with.dxbar.releases > 0);
    assert_eq!(s_without.dxbar.holds, 0, "baseline never holds");

    // The enhanced policy keeps the group in perfect lockstep...
    assert!(
        (s_with.avg_lockstep_width() - 8.0).abs() < 1e-9,
        "width {}",
        s_with.avg_lockstep_width()
    );
    assert!(s_without.avg_lockstep_width() < 6.0);

    // ...which cuts the physical IM traffic dramatically (the paper's
    // instruction-broadcast power saving; up to 60 % in Section V-B)...
    let reduction = 1.0 - s_with.im.total_accesses() as f64 / s_without.im.total_accesses() as f64;
    assert!(reduction > 0.4, "IM access reduction only {reduction:.2}");

    // ...at a bounded cycle cost: holding trades a little overlap for
    // lockstep, so it must stay within a few percent of the baseline on
    // this conflict-pipeline workload.
    assert!(
        (s_with.cycles as f64) < 1.10 * s_without.cycles as f64,
        "{} vs {}",
        s_with.cycles,
        s_without.cycles
    );
}

/// The Listing-1 pattern of the paper, repeated in a loop: a data-dependent
/// conditional section wrapped in `SINC`/`SDEC`. Each core decides from its
/// own rolling value whether to take the long path, so the group splits
/// differently every iteration — without resynchronization the cores drift
/// apart permanently.
const DIVERGENT_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11
        li   r3, 18432     ; SYNC_BASE
        wrsync r3
        mov  r4, r1        ; rolling per-core value
        movi r6, #24       ; iterations
loop:   sinc #0
        add  r4, r1
        addi r4, #3        ; evolve the per-core value
        mov  r5, r4
        movi r0, #7
        and  r5, r0        ; n = value & 7: per-core trip count
        inc  r5
spin:   addi r5, #-1       ; data-dependent loop (0..7 extra rounds)
        bne  spin
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
skip:   sdec #0
        addi r6, #-1
        bne  loop
        movi r5, #42
        st   r5, [r2]
        halt";

#[test]
fn divergent_section_resynchronizes_at_checkout() {
    let mut p = platform(true, DIVERGENT_SRC);
    p.run().unwrap();
    let s = p.stats();

    // Functional result.
    for id in 0..8u16 {
        assert_eq!(p.dm(id * 2048), 42, "core {id}");
    }
    // The barrier bookkeeping balanced and the word was cleared.
    assert_eq!(p.dm(SYNC_BASE), 0, "sync word cleared after release");
    let sync = s.sync.expect("synchronizer present");
    assert_eq!(sync.checkin_requests, 8 * 24, "8 cores x 24 iterations");
    assert_eq!(sync.checkout_requests, 8 * 24);
    assert_eq!(sync.releases, 24, "one barrier release per iteration");
    assert!(sync.wakeups > 0, "early finishers must have slept");
    assert_eq!(s.core_total.checkins, 8 * 24);
    assert_eq!(s.core_total.checkouts, 8 * 24);
}

#[test]
fn synchronizer_speeds_up_divergent_workload() {
    let mut with = platform(true, DIVERGENT_SRC);
    with.run().unwrap();
    let s_with = with.stats();

    let mut without = platform(false, DIVERGENT_SRC);
    without.run().unwrap();
    let s_without = without.stats();

    // Same functional result on the baseline design.
    for id in 0..8u16 {
        assert_eq!(without.dm(id * 2048), 42);
    }

    // The improved design finishes the run in fewer cycles, executes more
    // ops per cycle and needs fewer physical IM accesses — the paper's
    // Section V-B effects in miniature.
    assert!(
        s_with.cycles < s_without.cycles,
        "{} vs {}",
        s_with.cycles,
        s_without.cycles
    );
    assert!(s_with.ops_per_cycle() > s_without.ops_per_cycle());
    assert!(
        s_with.im.total_accesses() < s_without.im.total_accesses(),
        "broadcasting must cut IM accesses: {} vs {}",
        s_with.im.total_accesses(),
        s_without.im.total_accesses()
    );
    assert!(s_with.avg_lockstep_width() > s_without.avg_lockstep_width());

    // Baseline executed the sync instructions as NOPs.
    assert!(s_without.sync.is_none());
    assert_eq!(s_without.core_total.checkins, 0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut p = platform(true, DIVERGENT_SRC);
        p.run().unwrap();
        p.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be fully deterministic");
}

#[test]
fn unbalanced_checkout_deadlocks_cleanly() {
    // Core 0 never checks out: the others sleep forever at the barrier.
    let src = "
        li   r3, 18432
        wrsync r3
        rdid r1
        cmpi r1, #0
        beq  stop
        sinc #1
        sdec #1
stop:   halt";
    // All cores except core 0 check in (7 cores), then check out; the
    // *last* of them releases the rest, so this actually completes.
    let mut p = platform(true, src);
    p.run().unwrap();

    // Now a real deadlock: eight check-ins but only seven check-outs.
    let src = "
        li   r3, 18432
        wrsync r3
        sinc #2
        rdid r1
        cmpi r1, #3
        beq  stop        ; core 3 leaves the section without SDEC
        sdec #2
        halt
stop:   halt";
    let mut p = platform(true, src);
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::Deadlock { .. }), "{err}");
}

#[test]
fn timeout_is_reported() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(100)).unwrap();
    p.load_program(&assemble("loop: br loop").unwrap());
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::Timeout { budget: 100 }));
}

#[test]
fn illegal_instruction_faults_the_run() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync()).unwrap();
    p.load_im(0, &[0xF800]);
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::CoreFault { .. }));
}

#[test]
fn interrupt_wakes_sleeping_core() {
    let src = "
        br   main
        br   isr
main:   ei
        sleep
        movi r2, #2
        halt
isr:    movi r3, #3
        iret";
    let mut p = platform(true, src);
    // Run until all cores sleep.
    for _ in 0..200 {
        p.step();
    }
    assert!((0..8).all(|i| p.core(i).is_sleeping()));
    p.raise_irq(5);
    for _ in 0..200 {
        p.step();
    }
    assert!(p.core(5).is_halted());
    assert_eq!(p.core(5).reg(Reg::R2), 2);
    assert_eq!(p.core(5).reg(Reg::R3), 3);
    assert!(p.core(0).is_sleeping(), "others still asleep");
}

#[test]
fn single_core_platform_works() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_cores(1)).unwrap();
    p.load_program(
        &assemble(
            "   li   r3, 18432
                wrsync r3
                sinc #0
                movi r1, #9
                sdec #0
                halt",
        )
        .unwrap(),
    );
    p.run().unwrap();
    assert_eq!(p.core(0).reg(Reg::R1), 9);
    assert_eq!(p.dm(SYNC_BASE), 0);
}

#[test]
fn pc_trace_records_fetches() {
    let mut p = platform(true, LOCKSTEP_SRC);
    let handle = p.attach(Box::new(crate::PcTrace::new(6)));
    p.run().unwrap();
    let trace = p.observer_as::<crate::PcTrace>(&handle).unwrap().rows();
    assert_eq!(trace.len(), 6);
    // Cycle 1: every core fetches address 0.
    assert!(trace[0].iter().all(|pc| *pc == Some(0)));
    // Cycle 2: execute phase, nobody fetches.
    assert!(trace[1].iter().all(|pc| pc.is_none()));
    // Cycle 3: every core fetches address 1.
    assert!(trace[2].iter().all(|pc| *pc == Some(1)));
}

/// A probe overriding every hook, counting what it sees.
#[derive(Default)]
struct CountingObserver {
    cycle_starts: u64,
    core_phases: u64,
    fetch_cycles: u64,
    cycle_ends: u64,
}

impl crate::Observer for CountingObserver {
    fn on_cycle_start(&mut self, _cycle: u64, _cores: &[ulp_cpu::Core]) {
        self.cycle_starts += 1;
    }
    fn on_core_phase(&mut self, _cycle: u64, _core: usize, _pc: u16, _phase: CoreState) {
        self.core_phases += 1;
    }
    fn on_fetch(&mut self, _cycle: u64, groups: &[FetchGroup]) {
        if !groups.is_empty() {
            self.fetch_cycles += 1;
        }
    }
    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[ulp_cpu::Core]) {
        self.cycle_ends += 1;
    }
}

#[test]
fn observed_run_is_bit_identical_to_bare_run() {
    let mut bare = platform(true, DIVERGENT_SRC);
    bare.run().unwrap();
    let bare_stats = bare.stats();

    let mut observed = platform(true, DIVERGENT_SRC);
    let counting = observed.attach(Box::new(CountingObserver::default()));
    let trace = observed.attach(Box::new(crate::PcTrace::new(128)));
    let vcd = observed.attach(Box::new(crate::VcdTracer::new(&observed)));
    let width = observed.attach(Box::new(crate::LockstepWidth::new()));
    observed.run().unwrap();
    let observed_stats = observed.stats();
    let counting = observed.observer_as::<CountingObserver>(&counting).unwrap();
    let trace = observed.observer_as::<crate::PcTrace>(&trace).unwrap();
    let vcd = observed.observer_as::<crate::VcdTracer>(&vcd).unwrap();
    let width = observed
        .observer_as::<crate::LockstepWidth>(&width)
        .unwrap();

    assert_eq!(
        bare_stats, observed_stats,
        "observers must not perturb the run"
    );
    for id in 0..8u16 {
        assert_eq!(observed.dm(id * 2048), 42);
    }

    // The probes actually saw the run.
    assert_eq!(counting.cycle_starts, observed_stats.cycles);
    assert_eq!(counting.cycle_ends, observed_stats.cycles);
    assert_eq!(counting.core_phases, observed_stats.cycles * 8);
    assert_eq!(trace.rows().len(), 128);
    assert_eq!(vcd.samples(), observed_stats.cycles);
    // The standalone width recorder sees the same fetches as the built-in.
    assert_eq!(width.sum(), observed_stats.lockstep_width_sum);
    assert_eq!(width.cycles(), observed_stats.lockstep_width_cycles);
    assert!(counting.fetch_cycles == width.cycles());
}

#[test]
fn deadlock_still_fires_with_observers_attached() {
    let src = "
        li   r3, 18432
        wrsync r3
        sinc #2
        rdid r1
        cmpi r1, #3
        beq  stop        ; core 3 leaves the section without SDEC
        sdec #2
        halt
stop:   halt";
    let mut p = platform(true, src);
    let counting = p.attach(Box::new(CountingObserver::default()));
    p.attach(Box::new(crate::VcdTracer::new(&p)));
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::Deadlock { .. }), "{err}");
    let counting = p.observer_as::<CountingObserver>(&counting).unwrap();
    assert_eq!(counting.cycle_ends, p.cycle(), "saw every cycle");
}

#[test]
fn timeout_still_fires_with_observers_attached() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(100)).unwrap();
    p.load_program(&assemble("loop: br loop").unwrap());
    let counting = p.attach(Box::new(CountingObserver::default()));
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::Timeout { budget: 100 }));
    let counting = p.observer_as::<CountingObserver>(&counting).unwrap();
    assert_eq!(counting.cycle_starts, 100, "ran exactly the budget");
}

#[test]
fn reset_reuses_a_platform_for_a_fresh_run() {
    let mut p = platform(true, DIVERGENT_SRC);
    p.run().unwrap();
    let first = p.stats();

    p.reset();
    assert_eq!(p.cycle(), 0);
    assert_eq!(p.stats().im.total_accesses(), 0);
    assert_eq!(p.dm(SYNC_BASE), 0);

    // Re-load and re-run: bit-identical statistics.
    let program = assemble(DIVERGENT_SRC).unwrap();
    p.load_program(&program);
    p.run().unwrap();
    assert_eq!(p.stats(), first, "reset platform must replay identically");

    // Reset also clears loaded state: a fresh run of a different program
    // must not see the old image.
    p.reset();
    p.load_program(&assemble("movi r1, #5\nhalt").unwrap());
    p.run().unwrap();
    assert_eq!(p.core(0).reg(Reg::R1), 5);
    assert_eq!(p.dm(0), 0, "old data memory contents cleared");
}

#[test]
fn stats_include_all_components() {
    let mut p = platform(true, DIVERGENT_SRC);
    p.run().unwrap();
    let s = p.stats();
    assert_eq!(s.num_cores, 8);
    assert_eq!(s.cores.len(), 8);
    assert!(s.cycles > 0);
    assert!(s.im.total_accesses() > 0);
    assert!(s.dm.total_accesses() > 0);
    assert!(s.ixbar.grants > 0);
    assert!(s.dxbar.grants > 0);
    assert!(s.sync.unwrap().batches > 0);
    let per_core_retired: u64 = s.cores.iter().map(|c| c.retired).sum();
    assert_eq!(per_core_retired, s.core_total.retired);
}

#[test]
fn run_summary_matches_cycle_count() {
    let mut p = platform(true, LOCKSTEP_SRC);
    let summary = p.run().unwrap();
    assert_eq!(summary.cycles, p.cycle());
    assert!(p.all_halted());
}

// ---- the lockstep fast path ----------------------------------------------

/// A lockstep loop: two set-up ops, then three iterations of four pure
/// ops and the `bne` that closes them.
const PURE_LOOP_SRC: &str = "
        rdid r1
        movi r0, #3
loop:   addi r2, #1
        addi r3, #2
        mov  r4, r2
        addi r0, #-1
        bne  loop
        halt";

/// One unobserved engine step with lockstep batches allowed up to
/// `limit` cycles; returns how many cycles it advanced.
fn fast_step(p: &mut Platform, limit: u64) -> u64 {
    let start = p.cycle();
    p.step_cycle::<false>(&mut [], limit);
    p.cycle() - start
}

/// Cores, memories, crossbars, synchronizer and counters of a platform.
fn machine(p: &Platform) -> (SimStats, Vec<CoreState>, Vec<Vec<u16>>, Vec<u16>) {
    let n = p.num_cores();
    (
        p.stats(),
        (0..n).map(|i| p.core(i).state()).collect(),
        (0..n)
            .map(|i| Reg::ALL.iter().map(|&r| p.core(i).reg(r)).collect())
            .collect(),
        p.dm_slice(0, p.config().dm_words),
    )
}

#[test]
fn lockstep_batch_runs_pure_ops_at_two_cycles_each() {
    let mut fast = platform(true, PURE_LOOP_SRC);
    // rdid, movi and three iterations of the loop with its `bne` (17 ops)
    // are one batch; the `halt` is fetched and executed by the
    // interpreter.
    let advanced: Vec<u64> = (0..3).map(|_| fast_step(&mut fast, u64::MAX)).collect();
    assert_eq!(advanced, [34, 1, 1]);
    assert!(fast.all_halted());

    let mut stepped = platform(true, PURE_LOOP_SRC);
    for _ in 0..36 {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped));
    // Eight cores, one broadcast fetch per op.
    assert_eq!(fast.stats().im.bank_reads, 18);
    assert_eq!(fast.stats().avg_lockstep_width(), 8.0);
}

#[test]
fn lockstep_batch_stops_at_its_limit_mid_op() {
    // An odd limit ends the batch on a fetch; the op's execute cycle is
    // left to the next (interpreted) cycle, as a step loop would do it.
    let mut fast = platform(true, PURE_LOOP_SRC);
    assert_eq!(fast_step(&mut fast, 5), 5);
    assert!(matches!(fast.core(0).state(), CoreState::Execute(_)));
    let mut stepped = platform(true, PURE_LOOP_SRC);
    for _ in 0..5 {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped));
    assert_eq!(fast_step(&mut fast, 5), 1, "nothing left to batch");
}

#[test]
fn batch_runs_cores_diverged_across_pcs() {
    // Core 3 starts one op ahead: two fetch groups in one IM bank, served
    // one per cycle, then apart in phase until the `halt`.
    let diverge = |p: &mut Platform| p.core_mut(3).set_pc(1);
    for with_sync in [true, false] {
        let advanced = batch_matches_a_step_loop_with(with_sync, PURE_LOOP_SRC, diverge);
        assert!(advanced > 30, "{advanced}");
    }
    let mut p = platform(true, PURE_LOOP_SRC);
    diverge(&mut p);
    fast_step(&mut p, u64::MAX);
    let s = p.stats();
    assert!(
        s.ixbar.conflict_cycles > 0,
        "the two groups met in the I-Xbar"
    );
    assert!(s.avg_lockstep_width() < 8.0);
}

#[test]
fn lockstep_batch_declines_while_the_synchronizer_is_busy() {
    let mut p = platform(true, PURE_LOOP_SRC);
    let sync = p.sync.as_mut().expect("synchronizer present");
    let mut busy = sync.save();
    busy.inflight = Some((SYNC_BASE, 2, 0));
    sync.load_snapshot(&busy);
    assert_eq!(fast_step(&mut p, u64::MAX), 1);
    assert_eq!(p.stats().sync.unwrap().busy_cycles, 1, "sync phase ran");
    // The RMW has one cycle left; once it commits, batching resumes.
    assert_eq!(fast_step(&mut p, u64::MAX), 1);
    assert!(fast_step(&mut p, u64::MAX) > 1);
}

#[test]
fn lockstep_batch_declines_on_ops_that_are_not_batchable() {
    for src in [
        "sinc #0\nhalt",
        "halt",
        // Can enable interrupts: left to the interpreter.
        "ei\nhalt",
        "wrsr r0\nhalt",
        "iret\nhalt",
    ] {
        let mut p = platform(true, src);
        assert_eq!(fast_step(&mut p, u64::MAX), 1, "{src}");
    }
}

#[test]
fn lockstep_batch_runs_loads_stores_and_branches() {
    // Every core reads one word (one broadcast read), writes it (one
    // write served, seven stalled) or branches the same way: each op
    // runs inside the batch.
    for src in [
        "ld r1, [r2]\nhalt",
        "st r1, [r2]\nhalt",
        "br next\nnext: halt",
    ] {
        for with_sync in [true, false] {
            let mut p = platform(with_sync, src);
            assert_eq!(fast_step(&mut p, u64::MAX), 2, "{src}");
        }
    }
}

/// Takes one fast-path step of `src` on a fresh platform and steps a
/// twin over the same cycles, asserts both machines agree after the
/// batch and again once both have run to completion, and returns how
/// many cycles the batch advanced.
fn batch_matches_a_step_loop(with_sync: bool, src: &str) -> u64 {
    batch_matches_a_step_loop_with(with_sync, src, |_| {})
}

/// [`batch_matches_a_step_loop`] with `setup` applied to both platforms
/// after loading.
fn batch_matches_a_step_loop_with(
    with_sync: bool,
    src: &str,
    setup: impl Fn(&mut Platform),
) -> u64 {
    let mut fast = platform(with_sync, src);
    setup(&mut fast);
    let advanced = fast_step(&mut fast, u64::MAX);
    let mut stepped = platform(with_sync, src);
    setup(&mut stepped);
    for _ in 0..advanced {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped), "{src}");
    fast.run().unwrap();
    while !stepped.all_halted() {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped), "{src}");
    advanced
}

#[test]
fn batch_serves_a_same_bank_store_conflict_like_a_step_loop() {
    // Eight different words of DM bank 0: one store is served per cycle.
    // SyncAware holds the first served core, which ends the batch: the
    // interpreter serves held groups. The baseline lets each served core
    // run on, so the batch goes on with the group split (served cores
    // fetching beside stalled ones) until core 0 reaches the `halt`.
    let src = "
        rdid r1
        st   r1, [r1]
        nop
        halt";
    assert_eq!(batch_matches_a_step_loop(true, src), 4);
    let mut p = platform(true, src);
    fast_step(&mut p, u64::MAX);
    let s = p.stats();
    assert_eq!(
        (s.dxbar.conflict_cycles, s.dxbar.stalls, s.dxbar.holds),
        (1, 7, 1)
    );
    assert!(matches!(p.core(0).state(), CoreState::Held { .. }));
    assert!((1..8).all(|i| matches!(p.core(i).state(), CoreState::Execute(_))));
    assert_eq!(fast_step(&mut p, u64::MAX), 1, "held cores are interpreted");

    assert_eq!(batch_matches_a_step_loop(false, src), 6);
    let mut p = platform(false, src);
    fast_step(&mut p, u64::MAX);
    let s = p.stats();
    assert_eq!(
        (s.dxbar.conflict_cycles, s.dxbar.stalls, s.dxbar.holds),
        (3, 18, 0)
    );
    assert_eq!(p.core(0).pc(), 3, "core 0 fetches the halt next");
    assert!((3..8).all(|i| matches!(p.core(i).state(), CoreState::Execute(_))));
}

#[test]
fn lockstep_batch_ends_after_a_branch_taken_by_some_cores() {
    // Core 4 falls through to the nop, the other seven branch past it.
    let src = "
        rdid r1
        cmpi r1, #4
        bne  skip
        nop
skip:   halt";
    for with_sync in [true, false] {
        assert_eq!(batch_matches_a_step_loop(with_sync, src), 6);
        let mut p = platform(with_sync, src);
        fast_step(&mut p, u64::MAX);
        assert_eq!(p.core(4).pc(), 3);
        assert!((0..8).filter(|&i| i != 4).all(|i| p.core(i).pc() == 4));
        assert_eq!(fast_step(&mut p, u64::MAX), 1, "the group has split");
    }
}

#[test]
fn illegal_word_still_faults_after_a_batch() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync()).unwrap();
    let nop = ulp_isa::encode(ulp_isa::Instr::Nop).unwrap();
    p.load_im(0, &[nop, nop, 0xF800]);
    assert_eq!(fast_step(&mut p, u64::MAX), 4, "the two nops");
    assert_eq!(fast_step(&mut p, u64::MAX), 1, "the illegal word");
    let err = p.run().unwrap_err();
    assert!(
        matches!(
            err,
            PlatformError::CoreFault {
                core: 0,
                error: ulp_cpu::CoreError::IllegalInstruction {
                    pc: 2,
                    word: 0xF800
                }
            }
        ),
        "{err}"
    );
}

#[test]
fn attached_observer_sees_every_cycle_of_a_lockstep_run() {
    let mut p = platform(true, PURE_LOOP_SRC);
    let handle = p.attach(Box::new(CountingObserver::default()));
    assert_eq!(p.run_until(19).unwrap(), RunProgress::Paused);
    let counting = p.observer_as::<CountingObserver>(&handle).unwrap();
    assert_eq!(counting.cycle_starts, 19);
    assert_eq!(counting.fetch_cycles, p.stats().lockstep_width_cycles);

    // Finish in more slices: the observer still sees every cycle.
    let mut limit = 19;
    while p.run_until(limit + 7).unwrap() == RunProgress::Paused {
        limit += 7;
    }
    assert!(limit > 19, "the run took more than one further slice");
    let counting = p.observer_as::<CountingObserver>(&handle).unwrap();
    assert_eq!(counting.cycle_starts, p.stats().cycles);
}

#[test]
fn interrupt_enabled_inside_a_lockstep_run_vectors_like_a_step_loop() {
    // Core 2's interrupt is pending from the start but disabled until
    // `ei`: the core must vector at the very next fetch, mid-way through
    // the straight line of ops after it.
    let src = "
        br   main
        br   isr
main:   movi r1, #1
        addi r1, #1
        ei
        addi r1, #1
        addi r1, #1
        halt
isr:    movi r3, #3
        iret";
    let mut fast = platform(true, src);
    fast.raise_irq(2);
    fast.run().unwrap();
    let mut stepped = platform(true, src);
    stepped.raise_irq(2);
    while !stepped.all_halted() {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped));
    assert_eq!(fast.core(2).reg(Reg::R3), 3, "handler ran");
    assert_eq!(fast.core(2).stats().interrupts, 1);
}

#[test]
fn batch_ends_before_a_group_fetches_an_op_it_cannot_batch() {
    // After the `beq`, core 5 waits at a `halt` beside the other seven
    // cores' loop: the batch ends before the cycle that fetches it.
    let src = "
        rdid r1
        movi r2, #4
        cmpi r1, #5
        beq  park
loop:   addi r2, #-1
        bne  loop
        halt
park:   halt";
    for with_sync in [true, false] {
        assert_eq!(batch_matches_a_step_loop(with_sync, src), 8);
        let mut p = platform(with_sync, src);
        fast_step(&mut p, u64::MAX);
        assert_eq!(p.core(5).pc(), 7);
        assert_eq!(fast_step(&mut p, u64::MAX), 1, "the halt is interpreted");
    }
}

#[test]
fn batch_ends_after_a_hold_with_the_cores_split_across_pcs() {
    // Cores 0-3 store to four words of DM bank 0 while cores 4-7 run
    // nops: SyncAware holds the first served store, mid-way through a
    // cycle with two groups, and the batch ends there.
    let src = "
        rdid r1
        mov  r2, r1
        shr  r2, #2
        cmpi r2, #0
        beq  low
        nop
        nop
        halt
low:    st   r1, [r1]
        halt";
    let advanced = batch_matches_a_step_loop(true, src);
    let mut p = platform(true, src);
    assert_eq!(fast_step(&mut p, u64::MAX), advanced);
    assert_eq!(p.stats().dxbar.holds, 1);
    let held = (0..4)
        .filter(|&i| matches!(p.core(i).state(), CoreState::Held { .. }))
        .count();
    assert_eq!(held, 1);
    assert!((4..8).all(|i| p.core(i).pc() > 4), "the nop group ran too");
    // The baseline serves the conflict without holding; the served core
    // then meets the `halt`, which ends the batch on the same cycle.
    assert_eq!(batch_matches_a_step_loop(false, src), advanced);
}

#[test]
fn batch_stops_at_an_odd_limit_with_the_cores_split_across_pcs() {
    for limit in [5, 7, 13, 29] {
        let mut fast = platform(false, PURE_LOOP_SRC);
        let mut stepped = platform(false, PURE_LOOP_SRC);
        for p in [&mut fast, &mut stepped] {
            p.core_mut(3).set_pc(1);
        }
        assert_eq!(fast_step(&mut fast, limit), limit);
        for _ in 0..limit {
            stepped.step();
        }
        assert_eq!(machine(&fast), machine(&stepped), "limit {limit}");
        assert!(
            (0..8).any(|i| matches!(fast.core(i).state(), CoreState::Execute(_))),
            "limit {limit} ends between a fetch and its execute"
        );
        fast.run().unwrap();
        while !stepped.all_halted() {
            stepped.step();
        }
        assert_eq!(machine(&fast), machine(&stepped), "limit {limit}");
    }
}

#[test]
fn a_sleeper_with_a_disabled_interrupt_pending_rides_the_batch() {
    // Core 2 sleeps with its interrupt raised but not enabled, so nothing
    // can wake it: the batch charges it a sleep cycle per cycle while the
    // other seven cores spin. With no wake-up left the run deadlocks, on
    // the same cycle as a step loop.
    let src = "
        rdid r1
        cmpi r1, #2
        bne  run
        sleep
        halt
run:    movi r3, #20
spin:   addi r3, #-1
        bne  spin
        halt";
    let mut fast = platform(true, src);
    fast.raise_irq(2);
    while !fast.core(2).is_sleeping() {
        fast_step(&mut fast, u64::MAX);
    }
    let advanced = fast_step(&mut fast, u64::MAX);
    assert!(advanced > 40, "the spin loop is one batch: {advanced}");
    let mut stepped = platform(true, src);
    stepped.raise_irq(2);
    while stepped.cycle() < fast.cycle() {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped));
    assert!(fast.core(2).stats().sleep_cycles >= advanced);

    let err = fast.run().unwrap_err();
    while !(0..8).all(|i| stepped.core(i).is_halted() || stepped.core(i).is_sleeping()) {
        stepped.step();
    }
    assert_eq!(
        err,
        PlatformError::Deadlock {
            cycle: stepped.cycle()
        }
    );
    assert_eq!(machine(&fast), machine(&stepped));
}

#[test]
fn an_illegal_word_as_one_groups_next_op_faults_on_the_step_loops_cycle() {
    // Core 6 branches to an illegal word while the others run on: the
    // batch leaves that fetch to the interpreter, which faults on it.
    let src = "
        rdid r1
        cmpi r1, #6
        beq  bad
        nop
        nop
        halt
bad:    .word 0xF800";
    for with_sync in [true, false] {
        let mut fast = platform(with_sync, src);
        let err = fast.run().unwrap_err();
        let mut stepped = platform(with_sync, src);
        while !stepped.core(6).is_halted() {
            stepped.step();
        }
        assert_eq!(
            err,
            PlatformError::CoreFault {
                core: 6,
                error: ulp_cpu::CoreError::IllegalInstruction {
                    pc: 6,
                    word: 0xF800
                }
            }
        );
        assert_eq!(machine(&fast), machine(&stepped));
    }
}

#[test]
fn a_one_cycle_double_fault_reports_the_lowest_banks_core() {
    // On interleaved IM, core 0 falls through to an illegal word in
    // bank 3 while core 1 branches to one in bank 1, in the same cycle.
    // Both fetches are granted; the fault reported is the one granted
    // first, in bank order: core 1's.
    let src = "
        rdid r1
        cmpi r1, #1
        beq  one
        .word 0xF800
        nop
        nop
        nop
        nop
        nop
one:    .word 0xF800";
    let mut cfg = PlatformConfig::paper_with_sync().with_cores(2);
    cfg.im_mapping = ulp_mem::BankMapping::Interleaved;
    let expected = PlatformError::CoreFault {
        core: 1,
        error: ulp_cpu::CoreError::IllegalInstruction {
            pc: 9,
            word: 0xF800,
        },
    };
    let mut fast = Platform::new(cfg.clone()).unwrap();
    fast.load_program(&assemble(src).unwrap());
    assert_eq!(fast.run().unwrap_err(), expected);

    let mut stepped = Platform::new(cfg).unwrap();
    stepped.load_program(&assemble(src).unwrap());
    let mut steps = 0;
    while stepped.fault.is_none() {
        stepped.step();
        steps += 1;
    }
    assert_eq!(stepped.fault, Some(expected));
    assert_eq!(steps, fast.cycle());
    assert!(
        stepped.core(0).is_halted() && stepped.core(1).is_halted(),
        "both fetches were granted"
    );
    assert_eq!(stepped.stats().ixbar.grants, fast.stats().ixbar.grants);
    assert_eq!(machine(&fast), machine(&stepped));
}

// ---- the decoded-op table ------------------------------------------------

#[test]
fn load_im_over_a_loaded_program_replaces_its_ops() {
    // The loop's `addi r2, #1` becomes `addi r2, #3` after the program is
    // loaded: the batch must run the new word, as the step loop does.
    let patch = ulp_isa::encode(ulp_isa::Instr::AddI {
        rd: Reg::R2,
        imm: 3,
    })
    .unwrap();
    let mut fast = platform(true, PURE_LOOP_SRC);
    let mut stepped = platform(true, PURE_LOOP_SRC);
    for p in [&mut fast, &mut stepped] {
        p.load_im(2, &[patch]);
    }
    fast.run().unwrap();
    while !stepped.all_halted() {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped));
    assert_eq!(fast.core(0).reg(Reg::R2), 9, "three rounds of +3");
}

#[test]
fn restore_from_adopts_the_checkpointed_program() {
    // Program A's checkpoint restored onto a platform that has program B
    // loaded (and run): the rest of the run is A's, batched from A's ops.
    // B spans A's whole image with other ops, so a table left over from
    // B would run them.
    let mut a = platform(true, DIVERGENT_SRC);
    let mut uninterrupted = platform(true, DIVERGENT_SRC);
    uninterrupted.run().unwrap();
    assert!(a.run_until(300).unwrap() == RunProgress::Paused);
    let ckpt = a.snapshot();

    let mut b = platform(true, &format!("{}halt", "addi r7, #1\n".repeat(64)));
    b.run().unwrap();
    b.restore_from(&ckpt).unwrap();
    b.run().unwrap();
    assert_eq!(machine(&b), machine(&uninterrupted));
}

#[test]
fn reset_forgets_the_old_program_ops() {
    // After a reset, a one-word program runs into zeroed IM (NOPs): the
    // old program's `addi`s must not run from the table.
    let mut fast = platform(true, PURE_LOOP_SRC);
    fast.run().unwrap();
    fast.reset();
    fast.set_max_cycles(200);
    let mut stepped = Platform::new(PlatformConfig::paper(true).with_max_cycles(200)).unwrap();
    let movi = ulp_isa::encode(ulp_isa::Instr::MovI {
        rd: Reg::R2,
        imm: 5,
    })
    .unwrap();
    for p in [&mut fast, &mut stepped] {
        p.load_im(0, &[movi]);
    }
    let err = fast.run().unwrap_err();
    assert!(matches!(err, PlatformError::Timeout { budget: 200 }));
    while stepped.cycle() < 200 {
        stepped.step();
    }
    assert_eq!(machine(&fast), machine(&stepped));
    assert_eq!(fast.core(0).reg(Reg::R2), 5);
}

#[test]
fn snapshot_into_a_used_checkpoint_equals_a_fresh_snapshot() {
    let mut p = platform(true, DIVERGENT_SRC);
    let mut ckpt = p.snapshot();
    let mut other = platform(false, PURE_LOOP_SRC);
    other.run().unwrap();
    other.snapshot_into(&mut ckpt);
    assert_eq!(ckpt, other.snapshot());
    p.run_until(500).unwrap();
    p.snapshot_into(&mut ckpt);
    assert_eq!(ckpt, p.snapshot());
}

#[test]
fn restore_refuses_a_core_whose_cycle_count_is_not_its_counters_sum() {
    let mut p = platform(true, DIVERGENT_SRC);
    assert_eq!(p.run_until(300).unwrap(), RunProgress::Paused);
    let mut ckpt = p.snapshot();
    assert_eq!(ckpt.cores[3].cycles, ckpt.cores[3].stats.total_cycles());
    ckpt.cores[3].cycles += 1;
    // The wire format carries the count as it is; restoring checks it.
    let decoded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    assert_eq!(decoded, ckpt);
    let refused = RestoreError::Corrupt { what: "core state" };
    assert_eq!(Platform::restore(&decoded).unwrap_err(), refused);
    assert_eq!(p.restore_from(&decoded), Err(refused));
}
