//! Visualizes lockstep execution and its loss — the behaviour sketched in
//! Fig. 2 of the paper — by tracing every core's fetch PC cycle by cycle.
//!
//! ```sh
//! cargo run --release --example lockstep_demo
//! ```
//!
//! Each printed row is one cycle; each column one core. A `.` means the
//! core did not fetch that cycle (execute phase, stalled, asleep or done).
//! On the baseline design the columns drift apart after the data-dependent
//! section; on the improved design the `SDEC` barrier pulls them back into
//! a single column of identical addresses.

use ulp_lockstep::isa::asm::assemble;
use ulp_lockstep::platform::{PcTrace, Platform, PlatformConfig};

const PROGRAM: &str = "
        rdid r1
        li   r3, 18432
        wrsync r3
        sinc #0            ; A  (check-in, Fig. 2)
        mov  r5, r1
        inc  r5
spin:   addi r5, #-1       ; per-core trip count: id + 1
        bne  spin
        sdec #0            ; A' (check-out: resynchronize)
        movi r0, #3
post:   add  r2, r2        ; lockstep SIMD region
        add  r2, r2
        addi r0, #-1
        bne  post
        halt";

fn render(trace: &PcTrace, title: &str, cycles: usize) {
    println!("== {title} ==");
    println!("cycle | c0   c1   c2   c3   c4   c5   c6   c7   | same-PC fetch width");
    for (cycle, row) in trace.rows().iter().enumerate().take(cycles) {
        let mut line = format!("{:>5} | ", cycle + 1);
        for pc in row {
            match pc {
                Some(a) => line.push_str(&format!("{a:<4} ")),
                None => line.push_str(".    "),
            }
        }
        let mut pcs: Vec<u16> = row.iter().flatten().copied().collect();
        pcs.sort_unstable();
        let width = pcs
            .chunk_by(|a, b| a == b)
            .map(|g| g.len())
            .max()
            .unwrap_or(0);
        if width > 0 {
            line.push_str(&format!("| {width}"));
        } else {
            line.push('|');
        }
        println!("{line}");
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = assemble(PROGRAM)?;
    for with_sync in [true, false] {
        let mut platform = Platform::new(PlatformConfig::paper(with_sync))?;
        platform.load_program(&program);
        let handle = platform.attach(Box::new(PcTrace::new(64)));
        platform.run()?;
        render(
            platform.observer_as(&handle).expect("attached above"),
            if with_sync {
                "improved design (SDEC barrier restores lockstep)"
            } else {
                "baseline design (cores drift apart for good)"
            },
            64,
        );
        let s = platform.stats();
        println!(
            "   -> {} cycles, average lockstep width {:.2}, {} physical IM accesses\n",
            s.cycles,
            s.avg_lockstep_width(),
            s.im.total_accesses()
        );
    }
    Ok(())
}
