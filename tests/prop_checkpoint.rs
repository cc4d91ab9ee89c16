//! Differential testing of platform checkpoints: pausing a run at an
//! arbitrary cycle, snapshotting, round-tripping the snapshot through its
//! byte encoding, restoring into a *fresh* platform (or in place into a
//! recycled one) and running to completion must be bit-identical to the
//! golden uninterrupted run — registers, flags, PCs, the whole data
//! memory, cycle counts, every [`SimStats`] counter, and attached-observer
//! artifacts. Damaged blobs (bit flips, truncations, inflated length
//! fields, an older schema) must each fail with a typed [`RestoreError`].

use proptest::prelude::*;
use ulp_lockstep::isa::{encode, AluOp, Cond, CsrOp, Instr, Reg, ShiftKind, UnaryOp};
use ulp_lockstep::platform::{
    BankHeatMap, Checkpoint, PcTrace, Platform, PlatformConfig, RestoreError, RunProgress,
    SimStats, CHECKPOINT_SCHEMA,
};

/// Strategy: one instruction of an SPMD body — same shape as the fast-path
/// differential suite (forward-only skips so every program terminates,
/// loads/stores confined to the core's private DM bank through `r2`).
fn body_instr() -> impl Strategy<Value = Instr> {
    let reg = || prop::sample::select(&[Reg::R0, Reg::R1, Reg::R3, Reg::R4, Reg::R5][..]);
    prop_oneof![
        (prop::sample::select(&AluOp::ALL[..]), reg(), reg()).prop_map(|(op, rd, rs)| Instr::Alu {
            op,
            rd,
            rs
        }),
        (reg(), -16i8..=15).prop_map(|(rd, imm)| Instr::AddI { rd, imm }),
        (reg(), any::<u8>()).prop_map(|(rd, imm)| Instr::MovI { rd, imm }),
        (prop::sample::select(&ShiftKind::ALL[..]), reg(), 0u8..=15)
            .prop_map(|(kind, rd, amount)| Instr::Shift { kind, rd, amount }),
        (prop::sample::select(&UnaryOp::ALL[..]), reg())
            .prop_map(|(op, rd)| Instr::Unary { op, rd }),
        (reg(), 0i8..=15).prop_map(|(rd, offset)| Instr::Ld {
            rd,
            base: Reg::R2,
            offset
        }),
        (reg(), 0i8..=15).prop_map(|(rs, offset)| Instr::St {
            rs,
            base: Reg::R2,
            offset
        }),
        (prop::sample::select(&Cond::ALL[..]), 0i16..=1)
            .prop_map(|(cond, offset)| Instr::Branch { cond, offset }),
        Just(Instr::Nop),
    ]
}

/// Prologue `r2 = id << 11`, body, HALT (with a NOP landing pad).
fn build_program(body: &[Instr]) -> Vec<u16> {
    let mut words = Vec::with_capacity(body.len() + 5);
    for i in [
        Instr::Csr {
            op: CsrOp::RdId,
            rd: Reg::R2,
        },
        Instr::Shift {
            kind: ShiftKind::Shl,
            rd: Reg::R2,
            amount: 11,
        },
    ] {
        words.push(encode(i).expect("prologue encodes"));
    }
    for i in body {
        words.push(encode(*i).expect("body encodes"));
    }
    words.push(encode(Instr::Halt).expect("halt encodes"));
    words.push(encode(Instr::Nop).expect("nop encodes"));
    words.push(encode(Instr::Halt).expect("halt encodes"));
    words
}

/// Full machine state after a run.
#[derive(Debug, PartialEq)]
struct MachineState {
    cycles: u64,
    stats: SimStats,
    regs: Vec<Vec<u16>>,
    pcs: Vec<u16>,
    flags: Vec<ulp_lockstep::isa::Flags>,
    dm: Vec<u16>,
}

fn capture(p: &Platform) -> MachineState {
    let cores = p.config().num_cores;
    MachineState {
        cycles: p.cycle(),
        regs: (0..cores)
            .map(|i| Reg::ALL.iter().map(|&r| p.core(i).reg(r)).collect())
            .collect(),
        pcs: (0..cores).map(|i| p.core(i).pc()).collect(),
        flags: (0..cores).map(|i| p.core(i).flags()).collect(),
        dm: p.dm_slice(0, p.config().dm_words),
        stats: p.stats(),
    }
}

fn config(cores: usize) -> PlatformConfig {
    PlatformConfig::paper(true)
        .with_cores(cores)
        .with_max_cycles(2_000_000)
}

/// Golden uninterrupted run of `words`.
fn golden(words: &[u16], cores: usize) -> MachineState {
    let mut p = Platform::new(config(cores)).expect("valid config");
    p.load_im(0, words);
    p.run().expect("terminates");
    capture(&p)
}

/// Runs `words` to the pause point, snapshots through the byte encoding,
/// restores into a fresh platform and finishes the run there.
fn paused_and_migrated(words: &[u16], cores: usize, pause: u64) -> MachineState {
    let mut p = Platform::new(config(cores)).expect("valid config");
    p.load_im(0, words);
    match p.run_until(pause).expect("first slice runs") {
        RunProgress::Done(_) => capture(&p),
        RunProgress::Paused => {
            assert_eq!(p.cycle(), pause, "pause lands exactly on the limit");
            let blob = p.snapshot().to_bytes();
            let ckpt = Checkpoint::from_bytes(&blob).expect("blob round-trips");
            let mut q = Platform::restore(&ckpt).expect("restore succeeds");
            q.run().expect("resumed run terminates");
            capture(&q)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Restore-at-an-arbitrary-cycle is bit-identical to never pausing,
    /// at 2, 4 and 8 cores.
    #[test]
    fn restore_mid_run_is_bit_identical(
        body in prop::collection::vec(body_instr(), 1..48),
        pause_seed in any::<u64>(),
    ) {
        let words = build_program(&body);
        for cores in [2usize, 4, 8] {
            let reference = golden(&words, cores);
            let pause = 1 + pause_seed % reference.cycles.max(1);
            let resumed = paused_and_migrated(&words, cores, pause);
            prop_assert_eq!(&reference, &resumed, "cores {} pause {}", cores, pause);
        }
    }
}

/// A lockstep loop checkpointed at *every* cycle of its run: pauses land
/// inside lockstep batches, between the fetch and the execute cycle of a
/// batched op, and on the barrier, and every resumed run is bit-exact.
#[test]
fn lockstep_loop_survives_checkpoint_at_every_cycle() {
    let src = "
        rdid r2
        movi r0, #11
    loop: addi r0, #-1
        sinc #0
        bne loop
        halt
    ";
    let program = ulp_lockstep::isa::asm::assemble(src).expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync();

    let mut p = Platform::new(cfg.clone()).expect("valid config");
    p.load_program(&program);
    p.run().expect("terminates");
    let reference = capture(&p);

    for pause in 1..reference.cycles {
        let mut q = Platform::new(cfg.clone()).expect("valid config");
        q.load_program(&program);
        assert!(matches!(
            q.run_until(pause).expect("first slice"),
            RunProgress::Paused
        ));
        let ckpt = q.snapshot();
        let mut r = Platform::restore(&ckpt).expect("restore succeeds");
        r.run().expect("resumed run terminates");
        assert_eq!(reference, capture(&r), "diverged after pause at {pause}");
    }
}

/// The in-place [`Platform::restore_from`] path — a *recycled* platform
/// (mid-way through a different program) adopts a checkpoint and finishes
/// the run bit-identically. This is the service's migration fast path.
#[test]
fn restore_in_place_onto_recycled_platform() {
    let job = ulp_lockstep::isa::asm::assemble(
        "
        rdid r2
        movi r0, #40
    loop: addi r0, #-1
        bne loop
        halt
    ",
    )
    .expect("valid asm");
    let other = ulp_lockstep::isa::asm::assemble(
        "
        movi r5, #7
        movi r6, #9
        add r5, r6
        halt
    ",
    )
    .expect("valid asm");

    let cfg = PlatformConfig::paper_with_sync();

    let mut p = Platform::new(cfg.clone()).expect("valid config");
    p.load_program(&job);
    p.run().expect("terminates");
    let reference = capture(&p);

    let mut q = Platform::new(cfg.clone()).expect("valid config");
    q.load_program(&job);
    assert!(matches!(
        q.run_until(reference.cycles / 2).expect("first slice"),
        RunProgress::Paused
    ));
    let ckpt = q.snapshot();

    // The adopting platform has run something else.
    let mut r = Platform::new(cfg).expect("valid config");
    r.load_program(&other);
    r.run().expect("other program terminates");
    r.reset();
    r.restore_from(&ckpt).expect("in-place restore succeeds");
    r.run().expect("resumed run terminates");
    assert_eq!(reference, capture(&r));
}

/// Attached observers checkpoint with the platform: a PC trace and a DM
/// bank heat map restored mid-run end up with exactly the artifacts of an
/// uninterrupted instrumented run.
#[test]
fn attached_observers_round_trip_through_checkpoints() {
    let program = ulp_lockstep::isa::asm::assemble(
        "
        rdid r2
        movi r0, #25
    loop: st r0, [r2]
        addi r0, #-1
        bne loop
        halt
    ",
    )
    .expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync();

    let mut p = Platform::new(cfg.clone()).expect("valid config");
    let trace = p.attach(Box::new(PcTrace::new(4096)));
    let heat = p.attach(Box::new(BankHeatMap::for_dm(&cfg, 16)));
    p.load_program(&program);
    p.run().expect("terminates");
    let reference = capture(&p);
    let reference_rows: Vec<_> = p
        .observer_as::<PcTrace>(&trace)
        .expect("trace attached")
        .rows()
        .to_vec();
    let reference_heat: Vec<_> = p
        .observer_as::<BankHeatMap>(&heat)
        .expect("heat map attached")
        .rows()
        .to_vec();
    assert!(!reference_rows.is_empty(), "trace recorded rows");

    let mut q = Platform::new(cfg.clone()).expect("valid config");
    q.attach(Box::new(PcTrace::new(4096)));
    q.attach(Box::new(BankHeatMap::for_dm(&cfg, 16)));
    q.load_program(&program);
    assert!(matches!(
        q.run_until(reference.cycles / 3).expect("first slice"),
        RunProgress::Paused
    ));
    let blob = q.snapshot().to_bytes();
    let ckpt = Checkpoint::from_bytes(&blob).expect("blob round-trips");
    assert_eq!(ckpt.observers.len(), 2, "both observers checkpointed");

    // Observers must be attached *before* the restore so the checkpointed
    // state has somewhere to land.
    let mut r = Platform::new(cfg.clone()).expect("valid config");
    let trace = r.attach(Box::new(PcTrace::new(4096)));
    let heat = r.attach(Box::new(BankHeatMap::for_dm(&cfg, 16)));
    r.restore_from(&ckpt).expect("restore succeeds");
    r.run().expect("resumed run terminates");
    assert_eq!(reference, capture(&r));
    assert_eq!(
        reference_rows,
        r.observer_as::<PcTrace>(&trace).expect("attached").rows(),
        "PC trace artifacts identical"
    );
    assert_eq!(
        reference_heat,
        r.observer_as::<BankHeatMap>(&heat)
            .expect("attached")
            .rows(),
        "heat-map artifacts identical"
    );

    // Restoring into a platform whose observer has different geometry is
    // a typed failure, not silent drift.
    let mut bad = Platform::new(cfg.clone()).expect("valid config");
    bad.attach(Box::new(BankHeatMap::for_dm(&cfg, 999)));
    assert_eq!(
        bad.restore_from(&ckpt),
        Err(RestoreError::ObserverMismatch {
            label: "bank-heat-map".into()
        })
    );
}

/// Structural config mismatches are rejected with a typed error; the
/// adopted (non-structural) run parameters come from the checkpoint.
#[test]
fn restore_rejects_structural_mismatch_and_adopts_run_parameters() {
    let program = ulp_lockstep::isa::asm::assemble(
        "
        movi r0, #30
    loop: addi r0, #-1
        bne loop
        halt
    ",
    )
    .expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync().with_max_cycles(123_456);
    let mut p = Platform::new(cfg.clone()).expect("valid config");
    p.load_program(&program);
    assert!(matches!(
        p.run_until(10).expect("first slice"),
        RunProgress::Paused
    ));
    let ckpt = p.snapshot();

    // Fewer cores: structurally different.
    let mut small =
        Platform::new(PlatformConfig::paper_with_sync().with_cores(4)).expect("valid config");
    assert_eq!(small.restore_from(&ckpt), Err(RestoreError::ConfigMismatch));

    // Same structure, different budget: adopted from the checkpoint.
    let mut q =
        Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(50)).expect("valid config");
    q.restore_from(&ckpt).expect("restore succeeds");
    assert_eq!(q.config().max_cycles, 123_456);
    q.run().expect("resumed run terminates");
}

/// A mid-run checkpoint blob of an 8-core synchronized loop (no observers).
fn mid_run_blob() -> Vec<u8> {
    let program = ulp_lockstep::isa::asm::assemble(
        "
        rdid r2
        movi r0, #20
    loop: addi r0, #-1
        st   r0, [r2]
        sinc #0
        bne  loop
        halt
    ",
    )
    .expect("valid asm");
    let mut p = Platform::new(PlatformConfig::paper_with_sync()).expect("valid config");
    p.load_program(&program);
    assert!(matches!(
        p.run_until(41).expect("first slice"),
        RunProgress::Paused
    ));
    p.snapshot().to_bytes()
}

/// Header: magic, schema, body length, body checksum (20 bytes).
const BODY_LEN_AT: usize = 8;
const CHECKSUM_AT: usize = 12;
const BODY_AT: usize = 20;

/// Offsets of length fields in [`mid_run_blob`]: the header's body
/// length, the core count (after the 40-byte config, the cycle and an
/// empty fault tag), the first core's register count (after its id) and
/// the observer count (the blob's last field).
fn length_fields(blob: &[u8]) -> [usize; 4] {
    let cores_at = BODY_AT + 40 + 8 + 1;
    let fields = [BODY_LEN_AT, cores_at, cores_at + 5, blob.len() - 4];
    let read = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
    assert_eq!(read(fields[0]) as usize, blob.len() - BODY_AT);
    assert_eq!(read(fields[1]), 8, "core count");
    assert_eq!(read(fields[2]), 8, "register count");
    assert_eq!(read(fields[3]), 0, "observer count");
    fields
}

/// FNV-1a, the body checksum of the wire format.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any one to three flipped bits, anywhere in the blob, are caught.
    #[test]
    fn bit_flips_are_typed_errors(
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let blob = mid_run_blob();
        let mut bad = blob.clone();
        for &(at, bit) in &flips {
            bad[at % blob.len()] ^= 1 << bit;
        }
        prop_assume!(bad != blob);
        prop_assert!(Checkpoint::from_bytes(&bad).is_err(), "flips {:?} restored", flips);
    }

    /// Every strict prefix of a blob is `Truncated`.
    #[test]
    fn truncations_are_typed_errors(cut in any::<usize>()) {
        let blob = mid_run_blob();
        let cut = cut % blob.len();
        prop_assert_eq!(Checkpoint::from_bytes(&blob[..cut]), Err(RestoreError::Truncated));
    }

    /// An inflated length field fails the checksum; with the checksum
    /// patched to match, the decoder itself still rejects it without
    /// panicking or allocating the claimed size.
    #[test]
    fn inflated_length_fields_are_typed_errors(field in 0usize..4, extra in 1u32..=u32::MAX / 2) {
        let blob = mid_run_blob();
        let at = length_fields(&blob)[field];
        let mut bad = blob.clone();
        let len = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
        bad[at..at + 4].copy_from_slice(&len.wrapping_add(extra).to_le_bytes());
        let stale = Checkpoint::from_bytes(&bad);
        if at == BODY_LEN_AT {
            prop_assert_eq!(stale, Err(RestoreError::Truncated));
        } else {
            prop_assert_eq!(stale, Err(RestoreError::Corrupt { what: "checksum" }));
            let checksum = fnv1a(&bad[BODY_AT..]);
            bad[CHECKSUM_AT..BODY_AT].copy_from_slice(&checksum.to_le_bytes());
            prop_assert!(Checkpoint::from_bytes(&bad).is_err(), "field at {} + {}", at, extra);
        }
    }
}

/// A blob written by the previous wire format is refused by version, not
/// misread.
#[test]
fn schema_1_blob_is_a_schema_mismatch() {
    let mut blob = mid_run_blob();
    blob[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        Checkpoint::from_bytes(&blob),
        Err(RestoreError::SchemaMismatch {
            found: 1,
            expected: CHECKPOINT_SCHEMA,
        })
    );
    assert_eq!(CHECKPOINT_SCHEMA, 2);
}
