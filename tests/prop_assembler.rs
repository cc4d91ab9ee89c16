//! Robustness of the assembler against arbitrary input: random token
//! streams over the ULP16 vocabulary — mnemonics, registers, labels,
//! directives, operators, in-range and overflowing literals, punctuation
//! and newlines — must assemble or fail with a typed error that names a
//! real source line. `assemble` must never panic.

use proptest::prelude::*;
use ulp_lockstep::isa::{asm::assemble, AluOp, Cond, CsrOp, ShiftKind, UnaryOp};

/// Every token the generator draws from.
fn vocabulary() -> Vec<String> {
    let mut words: Vec<String> = AluOp::ALL
        .iter()
        .map(|op| op.mnemonic())
        .chain(ShiftKind::ALL.iter().map(|k| k.mnemonic()))
        .chain(UnaryOp::ALL.iter().map(|op| op.mnemonic()))
        .chain(CsrOp::ALL.iter().map(|op| op.mnemonic()))
        .map(str::to_string)
        .chain(Cond::ALL.iter().map(|c| format!("b{}", c.suffix())))
        .collect();
    let instructions = [
        "addi", "cmpi", "movi", "movhi", "ld", "st", "ldp", "stp", "jal", "jr", "jalr", "sinc",
        "sdec", "nop", "sleep", "halt", "li", "br", "call", "ret", "push", "pop", "inc", "dec",
        "clr", "tst", "bult",
    ];
    let registers = ["r0", "r1", "r5", "r7", "R3", "sp", "lr", "r8", "r99"];
    let labels = ["loop", "end", "_tmp", "N", "loop:", "end:"];
    let directives = [".org", ".word", ".space", ".equ", ".bogus", "."];
    let operators = [
        "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "~", "(", ")",
    ];
    // In range, at the edges, overflowing and malformed.
    let literals = [
        "0", "1", "15", "-16", "255", "0x7fff", "0xffff", "0x10000", "65536", "0b101", "0x", "0b2",
        "1e3",
    ];
    let overflowing = ["99999999999999999999", "0xffffffffffffffffff"];
    let punctuation = [
        ",", "#", "[", "]", ":", ";", "//", "\n", "\n", "\n", "@", "é",
    ];
    words.extend(
        [
            &instructions[..],
            &registers,
            &labels,
            &directives,
            &operators,
            &literals,
            &overflowing,
            &punctuation,
        ]
        .concat()
        .into_iter()
        .map(str::to_string),
    );
    words
}

fn source() -> impl Strategy<Value = String> {
    let token = (
        prop::sample::select(vocabulary()),
        prop::sample::select(vec!["", " ", "\t"]),
    );
    prop::collection::vec(token, 0..48).prop_map(|tokens| {
        tokens
            .iter()
            .map(|(word, sep)| format!("{word}{sep}"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// `assemble` returns on every input, and a failure names a line
    /// between 1 and one past the source's last line.
    #[test]
    fn random_token_streams_never_panic_and_errors_name_a_real_line(src in source()) {
        if let Err(err) = assemble(&src) {
            let lines = src.lines().count();
            prop_assert!(
                (1..=lines + 1).contains(&err.line),
                "error line {} outside 1..={} for {:?}: {}",
                err.line, lines + 1, src, err
            );
        }
    }
}
