//! Value-change-dump (VCD) tracing of platform execution.
//!
//! Samples the architectural state of every core once per cycle and emits
//! a standard VCD file viewable in GTKWave & friends: each core
//! contributes its program counter (16-bit) and its execution phase
//! (3-bit, see [`phase_code`]). One platform cycle is 12 ns — the paper's
//! relaxed clock period.
//!
//! [`VcdTracer`] implements [`Observer`], so the usual way to record a
//! run is to [attach](Platform::attach) it, run, and take it back with
//! [`Platform::detach`] (`ulprun --trace-vcd` does exactly this). It is a
//! debugging aid and keeps no state in [`Platform::snapshot`]s:
//!
//! ```no_run
//! use std::any::Any;
//! use ulp_platform::{Platform, PlatformConfig, VcdTracer};
//!
//! let mut platform = Platform::new(PlatformConfig::paper_with_sync()).unwrap();
//! // ... load a program ...
//! let handle = platform.attach(Box::new(VcdTracer::new(&platform)));
//! let _ = platform.run();
//! let observer: Box<dyn Any> = platform.detach(handle).unwrap();
//! let vcd = observer.downcast::<VcdTracer>().unwrap();
//! std::fs::write("run.vcd", vcd.finish()).unwrap();
//! ```
//!
//! Manual driving via [`VcdTracer::sample`] after each
//! [`Platform::step`] remains supported.

use crate::observer::Observer;
use crate::sim::Platform;
use std::fmt::Write as _;
use ulp_cpu::{Core, CoreState};

/// 3-bit encoding of a core's execution phase in the trace.
///
/// `0` fetch, `1` execute, `2` held by the D-Xbar policy, `3` inside the
/// synchronizer, `4` sleeping, `5` halted.
pub fn phase_code(state: CoreState) -> u8 {
    match state {
        CoreState::Fetch => 0,
        CoreState::Execute(_) => 1,
        CoreState::Held { .. } => 2,
        CoreState::SyncIssued(_) => 3,
        CoreState::Sleeping => 4,
        CoreState::Halted => 5,
    }
}

/// Incremental VCD writer for a [`Platform`].
#[derive(Debug, Clone)]
pub struct VcdTracer {
    cores: usize,
    body: String,
    last: Vec<(Option<u16>, Option<u8>)>,
    samples: u64,
}

/// Nanoseconds per platform cycle (the paper's 12 ns clock).
const NS_PER_CYCLE: u64 = 12;

fn pc_id(core: usize) -> char {
    (b'!' + core as u8) as char
}

fn phase_id(core: usize) -> char {
    (b'A' + core as u8) as char
}

impl VcdTracer {
    /// Creates a tracer for the given platform (captures its core count).
    pub fn new(platform: &Platform) -> VcdTracer {
        VcdTracer {
            cores: platform.num_cores(),
            body: String::new(),
            last: vec![(None, None); platform.num_cores()],
            samples: 0,
        }
    }

    /// Number of samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Records the state of every core at the platform's current cycle.
    /// Only changed signals are dumped, as VCD intends.
    pub fn sample(&mut self, platform: &Platform) {
        let mut stamped = false;
        for core in 0..self.cores {
            let c = platform.core(core);
            self.record(platform.cycle(), core, c.pc(), c.state(), &mut stamped);
        }
        self.samples += 1;
    }

    fn record(&mut self, cycle: u64, core: usize, pc: u16, state: CoreState, stamped: &mut bool) {
        let phase = phase_code(state);
        let (last_pc, last_phase) = self.last[core];
        if Some(pc) != last_pc || Some(phase) != last_phase {
            if !*stamped {
                writeln!(self.body, "#{}", cycle * NS_PER_CYCLE).expect("string write");
                *stamped = true;
            }
            if Some(pc) != last_pc {
                writeln!(self.body, "b{pc:016b} {}", pc_id(core)).expect("string write");
            }
            if Some(phase) != last_phase {
                writeln!(self.body, "b{phase:03b} {}", phase_id(core)).expect("string write");
            }
            self.last[core] = (Some(pc), Some(phase));
        }
    }

    /// Samples from an end-of-cycle observer hook.
    fn sample_slice(&mut self, cycle: u64, cores: &[Core]) {
        let mut stamped = false;
        for (core, c) in cores.iter().enumerate().take(self.cores) {
            self.record(cycle, core, c.pc(), c.state(), &mut stamped);
        }
        self.samples += 1;
    }

    /// Renders the complete VCD document.
    pub fn finish(self) -> String {
        let mut out = String::new();
        out.push_str("$comment ulp-lockstep platform trace $end\n");
        out.push_str("$timescale 1 ns $end\n");
        out.push_str("$scope module platform $end\n");
        for core in 0..self.cores {
            writeln!(out, "$var wire 16 {} pc{} [15:0] $end", pc_id(core), core)
                .expect("string write");
            writeln!(
                out,
                "$var wire 3 {} phase{} [2:0] $end",
                phase_id(core),
                core
            )
            .expect("string write");
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str(&self.body);
        out
    }
}

impl Observer for VcdTracer {
    fn on_cycle_end(&mut self, cycle: u64, cores: &[Core]) {
        self.sample_slice(cycle, cores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlatformConfig;
    use ulp_isa::asm::assemble;

    fn traced_run(src: &str) -> String {
        let program = assemble(src).unwrap();
        let mut p =
            Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(10_000)).unwrap();
        p.load_program(&program);
        let mut vcd = VcdTracer::new(&p);
        while !p.all_halted() {
            p.step();
            vcd.sample(&p);
        }
        vcd.finish()
    }

    #[test]
    fn header_declares_all_signals() {
        let vcd = traced_run("nop\nhalt");
        assert!(vcd.starts_with("$comment"));
        assert!(vcd.contains("$timescale 1 ns $end"));
        for core in 0..8 {
            assert!(vcd.contains(&format!("pc{core} [15:0]")), "pc{core}");
            assert!(vcd.contains(&format!("phase{core} [2:0]")), "phase{core}");
        }
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn timestamps_are_monotonic_multiples_of_the_clock() {
        let vcd = traced_run(
            "   movi r1, #3
             l: addi r1, #-1
                bne l
                halt",
        );
        let mut last = 0u64;
        let mut count = 0;
        for line in vcd.lines().filter(|l| l.starts_with('#')) {
            let t: u64 = line[1..].parse().expect("timestamp");
            assert!(t > last || count == 0, "monotonic: {t} after {last}");
            assert_eq!(t % 12, 0, "12 ns clock grid");
            last = t;
            count += 1;
        }
        assert!(count > 3, "several change dumps expected");
    }

    #[test]
    fn final_phase_is_halted_for_every_core() {
        let vcd = traced_run("nop\nhalt");
        // The last phase change of each core must be to 5 (halted).
        for core in 0..8 {
            let id = phase_id(core);
            let last_change = vcd
                .lines()
                .rfind(|l| l.starts_with('b') && l.ends_with(&format!(" {id}")))
                .unwrap_or_else(|| panic!("no phase changes for core {core}"));
            assert_eq!(last_change, format!("b101 {id}"), "core {core} halted");
        }
    }

    #[test]
    fn change_compression_dumps_less_than_full_sampling() {
        // Phases toggle fetch/execute every cycle, but PCs revisit the
        // same two loop addresses: the dump must stay below one change
        // per signal per cycle (full sampling) while still recording the
        // loop activity.
        let vcd = traced_run(
            "   movi r1, #200
             l: addi r1, #-1
                bne l
                halt",
        );
        let changes = vcd.lines().filter(|l| l.starts_with('b')).count();
        let cycles = vcd.lines().filter(|l| l.starts_with('#')).count();
        assert!(changes > 100, "loop activity must be visible: {changes}");
        assert!(
            changes < cycles * 16,
            "worse than full sampling: {changes} changes over {cycles} stamps"
        );
    }

    #[test]
    fn phase_codes_are_distinct() {
        use std::collections::BTreeSet;
        let set: BTreeSet<u8> = [
            CoreState::Fetch,
            CoreState::Execute(ulp_isa::Instr::Nop),
            CoreState::Held {
                instr: ulp_isa::Instr::Nop,
                data: None,
            },
            CoreState::SyncIssued(ulp_isa::Instr::Sinc { index: 0 }),
            CoreState::Sleeping,
            CoreState::Halted,
        ]
        .into_iter()
        .map(phase_code)
        .collect();
        assert_eq!(set.len(), 6);
    }
}
