//! `ulprun` — run a ULP16 assembly program on the simulated multi-core
//! platform and report its statistics.
//!
//! ```text
//! ulprun <file.s> [options]
//!   --no-sync            baseline design (no synchronizer, no ISE)
//!   --cores <n>          number of cores (default 8)
//!   --max-cycles <n>     cycle budget (default 10_000_000)
//!   --dump <addr> <len>  print a data-memory region after the run
//!   --trace <cycles>     print the per-core fetch-PC trace
//!   --trace-vcd <file>   write a value-change dump of the run
//! ```
//!
//! Tracing attaches [`PcTrace`] / [`VcdTracer`] observers to the run, so
//! no custom driver loop is needed and the options combine freely. An
//! untraced run takes the engine's batched fast path; a traced one
//! interprets every cycle. Both report identical statistics.

use std::process::ExitCode;
use ulp_isa::asm::assemble;
use ulp_platform::{PcTrace, Platform, PlatformConfig, VcdTracer};

struct Options {
    path: String,
    with_sync: bool,
    cores: usize,
    max_cycles: u64,
    dump: Option<(u16, usize)>,
    trace: usize,
    vcd: Option<String>,
}

/// Parses the arguments after the program name.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        path: String::new(),
        with_sync: true,
        cores: 8,
        max_cycles: 10_000_000,
        dump: None,
        trace: 0,
        vcd: None,
    };
    let next_num = |args: &mut dyn Iterator<Item = String>, what: &str| {
        args.next()
            .ok_or_else(|| format!("missing value for {what}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad value for {what}: {e}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-sync" => opts.with_sync = false,
            "--cores" => opts.cores = next_num(&mut args, "--cores")? as usize,
            "--max-cycles" => opts.max_cycles = next_num(&mut args, "--max-cycles")?,
            "--trace" => opts.trace = next_num(&mut args, "--trace")? as usize,
            // `--vcd` is the historical spelling of `--trace-vcd`.
            "--trace-vcd" | "--vcd" => {
                opts.vcd = Some(
                    args.next()
                        .ok_or_else(|| format!("missing value for {arg}"))?,
                );
            }
            "--dump" => {
                let addr = next_num(&mut args, "--dump addr")?;
                let len = next_num(&mut args, "--dump len")?;
                // The dump must stay inside the 16-bit data address space.
                if addr > u64::from(u16::MAX) || len > (1 << 16) - addr {
                    return Err(format!(
                        "--dump {addr} {len} runs past the last data address 0xffff"
                    ));
                }
                opts.dump = Some((addr as u16, len as usize));
            }
            other if opts.path.is_empty() && !other.starts_with('-') => {
                opts.path = other.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.path.is_empty() {
        return Err("no input file".into());
    }
    // A core count the platform rejects (1..=8 with the synchronizer,
    // 1..=16 without) is bad usage, caught before the source is read.
    PlatformConfig::paper(opts.with_sync)
        .with_cores(opts.cores)
        .validate()
        .map_err(|e| format!("--cores {}: {e}", opts.cores))?;
    Ok(opts)
}

const USAGE: &str = "usage: ulprun <file.s> [options]
  --no-sync            baseline design (no synchronizer, no ISE)
  --cores <n>          number of cores (default 8)
  --max-cycles <n>     cycle budget (default 10_000_000)
  --dump <addr> <len>  print a data-memory region after the run
  --trace <cycles>     print the per-core fetch-PC trace
  --trace-vcd <file>   write a value-change dump of the run";

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ulprun: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ulprun: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let program = match assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ulprun: {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };

    let config = PlatformConfig::paper(opts.with_sync)
        .with_cores(opts.cores)
        .with_max_cycles(opts.max_cycles);
    let mut platform = match Platform::new(config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ulprun: {e}");
            return ExitCode::FAILURE;
        }
    };
    platform.load_program(&program);

    // Tracing is plain observation: attach the requested observers and run.
    let pc_trace = (opts.trace > 0).then(|| platform.attach(Box::new(PcTrace::new(opts.trace))));
    let vcd = opts
        .vcd
        .as_ref()
        .map(|path| (path, platform.attach(Box::new(VcdTracer::new(&platform)))));
    let outcome = platform.run();
    let stats = platform.stats();

    if let Some((vcd_path, handle)) = vcd {
        let tracer: Box<dyn std::any::Any> = platform.detach(handle).expect("attached above");
        let tracer = tracer.downcast::<VcdTracer>().expect("a VcdTracer");
        if let Err(e) = std::fs::write(vcd_path, tracer.finish()) {
            eprintln!("ulprun: cannot write {vcd_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {vcd_path}");
    }

    if let Some(handle) = &pc_trace {
        let trace = platform.observer_as::<PcTrace>(handle).expect("a PcTrace");
        for (cycle, row) in trace.rows().iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .map(|pc| {
                    pc.map(|a| format!("{a:04x}"))
                        .unwrap_or_else(|| ".".repeat(4))
                })
                .collect();
            println!("{:>6}  {}", cycle + 1, cells.join(" "));
        }
    }

    match outcome {
        Ok(summary) => println!("halted after {} cycles", summary.cycles),
        Err(e) => {
            eprintln!("ulprun: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "ops/cycle {:.2} | retired {} | IM accesses {} | DM accesses {} | lockstep width {:.2}",
        stats.ops_per_cycle(),
        stats.core_total.retired,
        stats.im.total_accesses(),
        stats.dm.total_accesses(),
        stats.avg_lockstep_width()
    );
    if let Some(sync) = stats.sync {
        println!(
            "synchronizer: {} batches, {} wakeups, {} releases",
            sync.batches, sync.wakeups, sync.releases
        );
    }

    if let Some((addr, len)) = opts.dump {
        for (i, value) in platform.dm_slice(addr, len).iter().enumerate() {
            println!(
                "dm[{:#06x}] = {:#06x} ({})",
                addr as usize + i,
                value,
                *value as i16
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn dump_must_stay_inside_the_data_address_space() {
        for (addr, len) in [
            ("65536", "1"),
            ("65535", "2"),
            ("0", "65537"),
            ("1", "18446744073709551615"),
        ] {
            let err = parse(&["p.s", "--dump", addr, len])
                .err()
                .expect("an out-of-range dump is a usage error");
            assert!(err.contains("0xffff"), "{addr} {len}: {err}");
        }
        for (addr, len, want) in [("65535", "1", (0xffff, 1)), ("0", "65536", (0, 65536))] {
            let opts = parse(&["p.s", "--dump", addr, len]).expect("an in-range dump parses");
            assert_eq!(opts.dump, Some(want), "{addr} {len}");
        }
    }

    #[test]
    fn cores_must_fit_the_platform() {
        for args in [
            &["p.s", "--cores", "0"][..],
            &["p.s", "--cores", "9"],
            &["p.s", "--cores", "17", "--no-sync"],
        ] {
            let err = parse(args)
                .err()
                .expect("a bad core count is a usage error");
            assert!(err.starts_with("--cores"), "{args:?}: {err}");
        }
        for (args, cores) in [
            (&["p.s", "--cores", "1"][..], 1),
            (&["p.s", "--cores", "8"], 8),
            (&["p.s", "--no-sync", "--cores", "16"], 16),
        ] {
            assert_eq!(parse(args).expect("a valid core count parses").cores, cores);
        }
    }
}
