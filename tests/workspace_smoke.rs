//! Workspace smoke test: end-to-end exercise of the paper's core claim.
//!
//! Assembles a tiny two-core program whose cores drift apart in a
//! data-dependent section (per-core trip counts), check in with `SINC` and
//! check out with `SDEC`, and asserts that on the design with the hardware
//! synchronizer the cores resume in lockstep — same fetch PC on the same
//! cycle — while the baseline design never realigns.

use ulp_lockstep::isa::asm::assemble;
use ulp_lockstep::platform::{PcTrace, Platform, PlatformConfig};

/// Core `id` spins `id + 1` times between check-in and check-out, so the
/// two cores leave the section at different times.
const PROGRAM: &str = "
        rdid r1
        li   r3, 18432
        wrsync r3
        sinc #0            ; check-in (point A of Fig. 2)
        mov  r5, r1
        inc  r5
spin:   addi r5, #-1       ; data-dependent section: id + 1 iterations
        bne  spin
        sdec #0            ; check-out: resynchronize
        movi r0, #4
post:   add  r2, r2        ; lockstep region after the barrier
        add  r2, r2
        addi r0, #-1
        bne  post
        halt";

fn run(with_sync: bool) -> (Platform, PcTrace) {
    let program = assemble(PROGRAM).expect("program assembles");
    let config = PlatformConfig::paper(with_sync)
        .with_cores(2)
        .with_max_cycles(100_000);
    let mut platform = Platform::new(config).expect("valid config");
    platform.load_program(&program);
    let handle = platform.attach(Box::new(PcTrace::new(512)));
    platform.run().expect("program halts");
    let trace: Box<dyn std::any::Any> = platform.detach(handle).expect("attached above");
    (platform, *trace.downcast::<PcTrace>().expect("a PcTrace"))
}

/// Rows of the fetch trace classified per cycle: `Together(pc)` means both
/// cores fetched the same address that cycle.
#[derive(Debug, PartialEq)]
enum Row {
    Idle,
    Single,
    Together(u16),
    Split(u16, u16),
}

fn classify(trace: &PcTrace) -> Vec<Row> {
    trace
        .rows()
        .iter()
        .map(|row| match (row[0], row[1]) {
            (None, None) => Row::Idle,
            (Some(a), Some(b)) if a == b => Row::Together(a),
            (Some(a), Some(b)) => Row::Split(a, b),
            _ => Row::Single,
        })
        .collect()
}

#[test]
fn two_core_sinc_sdec_resumes_in_lockstep() {
    let (platform, trace) = run(true);
    for i in 0..2 {
        assert!(platform.core(i).is_halted(), "core {i} halted");
    }

    let stats = platform.stats();
    let sync = stats.sync.expect("synchronizer present");
    assert_eq!(sync.checkin_requests, 2, "both cores checked in");
    assert_eq!(sync.checkout_requests, 2, "both cores checked out");
    assert_eq!(sync.releases, 1, "barrier released exactly once");
    assert_eq!(sync.wakeups, 1, "the early core slept and was woken");
    assert_eq!(sync.underflows, 0);
    assert_eq!(platform.dm(18432), 0, "sync word cleared after release");

    // The divergent section must actually desynchronize the cores...
    let rows = classify(&trace);
    let last_apart = rows
        .iter()
        .rposition(|r| matches!(r, Row::Single | Row::Split(..)))
        .expect("the data-dependent section desynchronizes the cores");
    // ...and after the barrier the cores fetch together again, at the same
    // address on the same cycle, all the way to the halt.
    let tail: Vec<&Row> = rows[last_apart + 1..]
        .iter()
        .filter(|r| !matches!(r, Row::Idle))
        .collect();
    assert!(
        tail.len() >= 4,
        "expected a lockstep region after the barrier, got {tail:?}"
    );
    assert!(
        tail.iter().all(|r| matches!(r, Row::Together(_))),
        "post-barrier fetches not in lockstep: {tail:?}"
    );
}

#[test]
fn baseline_without_synchronizer_never_realigns() {
    let (platform, trace) = run(false);
    for i in 0..2 {
        assert!(platform.core(i).is_halted(), "core {i} halted");
    }
    assert!(platform.stats().sync.is_none(), "no synchronizer modeled");

    // Once the data-dependent section splits the cores, the baseline has
    // no mechanism to bring them back: no fetch after the split may be a
    // same-address broadcast.
    let rows = classify(&trace);
    let first_apart = rows
        .iter()
        .position(|r| matches!(r, Row::Single | Row::Split(..)))
        .expect("cores drift apart");
    assert!(
        !rows[first_apart..]
            .iter()
            .any(|r| matches!(r, Row::Together(_))),
        "baseline unexpectedly realigned"
    );
}

#[test]
fn synchronizer_improves_lockstep_width() {
    let with_sync = run(true).0.stats().avg_lockstep_width();
    let without = run(false).0.stats().avg_lockstep_width();
    assert!(
        with_sync > without,
        "synchronizer must improve average lockstep width \
         (with: {with_sync:.3}, without: {without:.3})"
    );
}
