//! `sweep` — run the (benchmark × design × core-count) grid across OS
//! threads and print a comparison table.
//!
//! ```text
//! sweep [options]
//!   --smoke              tiny workload (CI smoke mode)
//!   --stream             print one JSON line per cell as it completes
//!   --n <samples>        samples per channel (default 256, paper workload)
//!   --cores <list>       comma-separated core counts (default 2,4,8)
//!   --benchmarks <list>  comma-separated subset of MRPFLTR,MRPDLN,SQRT32
//!   --shard <list>       comma-separated shard sizes: each cell splits the
//!                        recording into ≤ s-sample shards and merges (an
//!                        entry of `none` runs the single-window cell), so
//!                        grids sweep shard size × cores
//!   --heatmap <window>   record a per-bank DM heat map of every cell
//!   --threads <n>        worker threads (default: all hardware threads)
//!   --checkpoint-every <cycles>  checkpoint every job's platform at this
//!                        cadence (jobs become migratable)
//!   --checkpoint-dir <path>  persist each job's latest checkpoint blob
//!                        (requires --checkpoint-every)
//!   --trace-out <path>   write a Chrome trace-event JSON file (Perfetto /
//!                        chrome://tracing loadable, one track per worker)
//!   --stats-json <path>  write the final ServiceStats as one JSON object
//! ```
//!
//! `--stream` turns the sweep into a JSON-lines producer: cells are
//! emitted in completion order (not grid order) the moment the service
//! delivers them, so a long sweep reports incrementally and can be piped
//! into `jq`-style tooling while still running. In this mode stdout
//! carries only the records — the closing summary goes to stderr and the
//! comparison table is suppressed. Every record carries the cell's
//! `energy_uj` (priced at the paper's Table I workload) and, with
//! `--heatmap`, its recording-level `dm_bank_heatmap` per-bank totals and
//! `heatmap_rows` — sharded cells included, whose rows were re-indexed
//! onto the global cycle axis at the merge.
//!
//! `--trace-out` enables job-lifecycle telemetry for the whole sweep and,
//! on exit, writes every recorded span (queued → claimed → platform →
//! run, plus steals and merges) as Chrome trace-event JSON. With
//! `--stream` it also interleaves periodic `{"telemetry":…}` snapshot
//! lines — the service counters and the queue-wait and run-time
//! histograms — between the cell records, so a live consumer can watch
//! throughput and queue wait evolve. Snapshot lines never collide with
//! the `{"schema":3,…}` cell records: consumers filter on the leading key.

use std::io::Write;
use std::process::ExitCode;
use ulp_bench::{run_sweep_with, SweepCell, SweepSpec};
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_telemetry::{json, Telemetry};

/// One completed cell as a JSON-lines record (`--stream`, schema 3).
/// `emitted` and `total` number the *emitted* records: gapless from 1,
/// reaching `total` exactly when every cell of the grid ran and verified.
fn json_line(cell: &SweepCell, emitted: usize, total: usize) -> String {
    let run = &cell.run;
    json::object(|o| {
        o.uint("schema", 3u32)
            .str("benchmark", run.benchmark.name())
            .str("design", if run.with_sync { "sync" } else { "baseline" })
            .uint("cores", cell.cores);
        if let Some(s) = cell.shard_samples {
            o.uint("shard", s);
        }
        o.uint("cycles", run.stats.cycles)
            .fixed("ops_per_cycle", run.stats.ops_per_cycle(), 4)
            .fixed("lockstep_width", run.stats.avg_lockstep_width(), 4)
            .uint("im_accesses", run.stats.im.total_accesses());
        // Recording-level energy at the paper's Table I workload; absent
        // when that workload is infeasible for the cell's design.
        if let Some(uj) = cell.energy_uj {
            o.fixed("energy_uj", uj, 3);
        }
        // The heat map's per-bank totals (sharded cells merge every
        // shard's rows onto the global cycle axis first).
        if let Some(map) = &cell.heat_map {
            o.array("dm_bank_heatmap", |a| {
                for total in map.totals() {
                    a.uint(total);
                }
            })
            .uint("heatmap_rows", map.rows.len());
        }
        o.uint("completed", emitted).uint("total", total);
    })
}

const USAGE: &str = "usage: sweep [options]
  --smoke              tiny workload (CI smoke mode)
  --stream             print one JSON line per cell as it completes
  --n <samples>        samples per channel (default 256, paper workload)
  --cores <list>       comma-separated core counts (default 2,4,8)
  --benchmarks <list>  comma-separated subset of MRPFLTR,MRPDLN,SQRT32
  --shard <list>       comma-separated shard sizes (or `none`): each cell
                       splits the recording into <= s-sample shards and
                       merges the partial results
  --heatmap <window>   record a per-bank DM heat map of every cell
                       (cycles per row; merged across shards)
  --threads <n>        worker threads (default: all hardware threads)
  --checkpoint-every <cycles>
                       checkpoint every job's platform at this cadence in
                       simulated cycles — jobs become migratable: a lost
                       worker's in-flight job re-queues from its latest
                       checkpoint, bit-identically
  --checkpoint-dir <path>
                       persist each job's latest checkpoint blob as
                       job-<id>.ckpt under this directory (best-effort;
                       requires --checkpoint-every)
  --trace-out <path>   enable telemetry and write a Chrome trace-event
                       JSON file on exit (Perfetto loadable, one track
                       per worker; with --stream also interleaves
                       periodic {\"telemetry\":...} snapshot lines)
  --stats-json <path>  write the final service stats (schema 4, with
                       migration counters) as one JSON object";

struct Options {
    smoke: bool,
    stream: bool,
    n: Option<usize>,
    cores: Vec<usize>,
    benchmarks: Vec<Benchmark>,
    shard: Vec<Option<usize>>,
    heat_map_window: Option<u64>,
    threads: usize,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    trace_out: Option<String>,
    stats_json: Option<String>,
}

fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

fn parse_list<T>(
    value: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = value.split(',').map(|s| parse(s.trim())).collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("empty list for {what}"));
    }
    Ok(items)
}

/// Parses the arguments after the program name.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        stream: false,
        n: None,
        cores: vec![2, 4, 8],
        benchmarks: Benchmark::ALL.to_vec(),
        shard: vec![None],
        heat_map_window: None,
        threads: 0,
        checkpoint_every: None,
        checkpoint_dir: None,
        trace_out: None,
        stats_json: None,
    };
    let next_value = |args: &mut dyn Iterator<Item = String>, what: &str| {
        args.next()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--stream" => opts.stream = true,
            "--n" => {
                opts.n = Some(
                    next_value(&mut args, "--n")?
                        .parse()
                        .map_err(|e| format!("bad value for --n: {e}"))?,
                );
            }
            "--threads" => {
                opts.threads = next_value(&mut args, "--threads")?
                    .parse()
                    .map_err(|e| format!("bad value for --threads: {e}"))?;
            }
            "--cores" => {
                opts.cores = parse_list(&next_value(&mut args, "--cores")?, "--cores", |s| {
                    let n: usize = s
                        .parse()
                        .map_err(|e| format!("bad core count {s:?}: {e}"))?;
                    if n == 0 || n > 8 {
                        return Err(format!("core count {n} outside 1..=8"));
                    }
                    Ok(n)
                })?;
            }
            "--benchmarks" => {
                opts.benchmarks = parse_list(
                    &next_value(&mut args, "--benchmarks")?,
                    "--benchmarks",
                    parse_benchmark,
                )?;
            }
            "--shard" => {
                opts.shard = parse_list(&next_value(&mut args, "--shard")?, "--shard", |s| {
                    if s.eq_ignore_ascii_case("none") {
                        return Ok(None);
                    }
                    let samples: usize = s
                        .parse()
                        .map_err(|e| format!("bad shard size {s:?}: {e}"))?;
                    if samples == 0 {
                        return Err("shard size must be positive".into());
                    }
                    Ok(Some(samples))
                })?;
            }
            "--heatmap" => {
                let window: u64 = next_value(&mut args, "--heatmap")?
                    .parse()
                    .map_err(|e| format!("bad value for --heatmap: {e}"))?;
                if window == 0 {
                    return Err("heat-map window must be positive".into());
                }
                opts.heat_map_window = Some(window);
            }
            "--checkpoint-every" => {
                let cycles: u64 = next_value(&mut args, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad value for --checkpoint-every: {e}"))?;
                if cycles == 0 {
                    return Err("checkpoint cadence must be positive".into());
                }
                opts.checkpoint_every = Some(cycles);
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(next_value(&mut args, "--checkpoint-dir")?);
            }
            "--trace-out" => {
                opts.trace_out = Some(next_value(&mut args, "--trace-out")?);
            }
            "--stats-json" => {
                opts.stats_json = Some(next_value(&mut args, "--stats-json")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.checkpoint_dir.is_some() && opts.checkpoint_every.is_none() {
        return Err("--checkpoint-dir requires --checkpoint-every".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut workload = if opts.smoke {
        WorkloadConfig::quick_test()
    } else {
        WorkloadConfig::paper()
    };
    if let Some(n) = opts.n {
        workload.n = n;
    }

    // Telemetry rides along only when a trace was requested: the disabled
    // handle keeps the hot path at a single branch per event.
    let telemetry = if opts.trace_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    if let Some(dir) = &opts.checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("sweep: creating --checkpoint-dir {dir}: {e}");
            return ExitCode::from(2);
        }
    }
    let spec = SweepSpec {
        benchmarks: opts.benchmarks,
        designs: vec![true, false],
        core_counts: opts.cores,
        shard_samples: opts.shard,
        workload,
        heat_map_window: opts.heat_map_window,
        threads: opts.threads,
        telemetry: telemetry.clone(),
        checkpoint_every: opts.checkpoint_every,
        checkpoint_dir: opts.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
    };
    // Bad geometry is a usage error: report it and exit 2, like every
    // other invalid argument — the sweep library treats it as a caller
    // bug. Sharded entries must plan within the platform buffers;
    // unsharded entries must fit a single window outright.
    for &benchmark in &spec.benchmarks {
        for shard in &spec.shard_samples {
            match shard {
                Some(samples) => {
                    if let Err(e) =
                        ulp_shard::ShardPlan::for_workload(benchmark, &spec.workload, *samples)
                    {
                        eprintln!("sweep: --shard {samples} with {benchmark}: {e}");
                        eprintln!("{USAGE}");
                        return ExitCode::from(2);
                    }
                }
                None => {
                    let n = spec.workload.n;
                    if !(4..=ulp_kernels::layout::MAX_N).contains(&n) {
                        eprintln!(
                            "sweep: --n {n} outside the unsharded range 4..={} — \
                             sweep it with --shard <samples> instead",
                            ulp_kernels::layout::MAX_N
                        );
                        eprintln!("{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    let cells = spec.len();
    let stream = opts.stream;
    let start = std::time::Instant::now();
    let mut emitted = 0;
    let results = match run_sweep_with(&spec, |cell, progress| {
        if stream {
            // Suppress records whose outputs diverged from the golden
            // model, so a downstream consumer never ingests them (the
            // pipeline may mask this process's exit code); the post-sweep
            // verification below reports the mismatch and fails the run.
            if cell.run.verify().is_err() {
                return;
            }
            // Number the records this process actually emits, so the
            // stream stays gapless even when a cell was suppressed.
            emitted += 1;
            let mut out = std::io::stdout().lock();
            // Flush per record so a consumer sees cells as they finish,
            // not when the sweep exits.
            writeln!(out, "{}", json_line(cell, emitted, progress.total))
                .and_then(|()| out.flush())
                .ok();
            // Interleave a metrics snapshot every few records (and on the
            // last one) when telemetry is on. The `{"telemetry":…}` prefix
            // keeps snapshot lines distinguishable from cell records.
            if telemetry.is_enabled() && (emitted % 4 == 0 || progress.completed == progress.total)
            {
                let line = json::object(|o| {
                    o.raw("telemetry", &telemetry.snapshot_json());
                });
                writeln!(out, "{line}").and_then(|()| out.flush()).ok();
            }
        }
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    // Every cell is validated against its golden model regardless of the
    // output mode.
    for cell in &results.cells {
        if let Err(e) = cell.run.verify() {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Exporter artifacts: the Chrome trace (one track per worker, spans
    // for every job-lifecycle phase) and the final service stats. Both
    // are plain files so they survive the process and load straight into
    // Perfetto / jq.
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, telemetry.chrome_trace()) {
            eprintln!("sweep: writing --trace-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.stats_json {
        if let Err(e) = std::fs::write(path, results.service.to_json()) {
            eprintln!("sweep: writing --stats-json {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // In --stream mode stdout carries *only* JSON-lines records (so the
    // output stays pipeable into jq-style tooling); the human summary
    // moves to stderr and the table is suppressed — its numbers are all
    // in the records.
    let mut summary: Box<dyn Write> = if stream {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::io::stdout())
    };
    writeln!(
        summary,
        "{cells} runs on {} threads in {:.2} s ({} platforms built, {} reused)",
        results.threads_used,
        elapsed.as_secs_f64(),
        results.platforms_built,
        cells.saturating_sub(results.platforms_built),
    )
    .ok();
    writeln!(
        summary,
        "service: {} jobs, {} steals ({} jobs moved, max batch {}), {} platform-cache hits, {:.2} s wall",
        results.service.jobs_run,
        results.service.steals,
        results.service.jobs_stolen,
        results.service.steal_batch_max,
        results.service.platform_cache_hits,
        results.service.wall.as_secs_f64(),
    )
    .ok();
    writeln!(
        summary,
        "latency: p50 {:?}, p95 {:?}, max {:?} over {} jobs",
        results.service.latency.p50,
        results.service.latency.p95,
        results.service.latency.max,
        results.service.latency.samples,
    )
    .ok();
    if stream {
        return ExitCode::SUCCESS;
    }

    println!();
    println!(
        "{:<8} {:>5} | {:>10} {:>10} | {:>7} | {:>9} {:>9} | {:>5}",
        "bench", "cores", "base cyc", "sync cyc", "speedup", "base o/c", "sync o/c", "IM sav"
    );
    for &benchmark in &spec.benchmarks {
        for &cores in &spec.core_counts {
            let with = results.cell(benchmark, true, cores);
            let without = results.cell(benchmark, false, cores);
            let (Some(with), Some(without)) = (with, without) else {
                continue;
            };
            let im_saving = 1.0
                - with.run.stats.im.total_accesses() as f64
                    / without.run.stats.im.total_accesses() as f64;
            println!(
                "{:<8} {:>5} | {:>10} {:>10} | {:>6.2}x | {:>9.2} {:>9.2} | {:>4.0}%",
                benchmark.name(),
                cores,
                without.run.stats.cycles,
                with.run.stats.cycles,
                results.speedup(benchmark, cores).unwrap_or(0.0),
                without.run.stats.ops_per_cycle(),
                with.run.stats.ops_per_cycle(),
                im_saving * 100.0,
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

    /// `--heatmap` takes a positive window. PC traces are `ulprun
    /// --trace`'s job, so `--pctrace` is an unknown argument like any
    /// other.
    #[test]
    fn heatmap_window_parses_and_pctrace_is_unknown() {
        let opts = parse(&["--heatmap", "64", "--heatmap", "128"]).expect("repeats parse");
        assert_eq!(opts.heat_map_window, Some(128));
        assert_eq!(parse(&[]).expect("no flags").heat_map_window, None);
        let err = parse(&["--heatmap", "0"]).err().expect("a zero window");
        assert!(err.contains("must be positive"), "{err}");
        for args in [
            &["--pctrace", "5"][..],
            &["--heatmap", "64", "--pctrace", "5"],
        ] {
            let err = parse(args).err().expect("--pctrace is a usage error");
            assert_eq!(err, "unknown argument \"--pctrace\"", "{args:?}");
        }
    }

    #[test]
    fn checkpoint_dir_requires_checkpoint_every() {
        let err = parse(&["--checkpoint-dir", "ckpt"])
            .err()
            .expect("a directory without a cadence is a usage error");
        assert!(err.contains("--checkpoint-every"), "{err}");
        let opts = parse(&["--checkpoint-dir", "ckpt", "--checkpoint-every", "100"])
            .expect("a directory with a cadence parses");
        assert_eq!(opts.checkpoint_every, Some(100));
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ckpt"));
    }

    /// The full `--stream` record bytes with and without a heat map,
    /// sharded and not, with and without `energy_uj`, on fixed cells.
    /// Sharded cells are sync MRPDLN and the others baseline SQRT32, so
    /// both design names appear.
    #[test]
    fn json_line_bytes() {
        use ulp_platform::{Platform, PlatformConfig};
        use ulp_shard::{HeatMapRow, MergedHeatMap};

        let heat_row = |shard, start_cycle, end_cycle, banks: [u64; 4]| HeatMapRow {
            shard,
            start_cycle,
            end_cycle,
            banks: banks.to_vec(),
        };
        let heat_maps = [
            Some(MergedHeatMap {
                window: 4096,
                rows: vec![
                    heat_row(0, 0, 4096, [13548, 0, 548, 1080]),
                    heat_row(1, 4096, 6000, [2, 0, 0, 1]),
                ],
            }),
            None,
        ];
        let mut stats = Platform::new(PlatformConfig::paper(true).with_cores(2))
            .expect("paper platform builds")
            .stats();
        stats.cycles = 402_668;
        stats.core_total.useful_ops = 1_000_003;
        stats.lockstep_width_sum = 700_029;
        stats.lockstep_width_cycles = 400_000;
        stats.im.bank_reads = 123_456;

        let mut lines = Vec::new();
        for heat_map in &heat_maps {
            for shard_samples in [Some(150), None] {
                for energy_uj in [Some(10.17949), None] {
                    let sharded = shard_samples.is_some();
                    let cell = SweepCell {
                        cores: 2,
                        shard_samples,
                        run: ulp_kernels::BenchmarkRun {
                            benchmark: if sharded {
                                Benchmark::Mrpdln
                            } else {
                                Benchmark::Sqrt32
                            },
                            with_sync: sharded,
                            stats: stats.clone(),
                            outputs: Vec::new(),
                            expected: Vec::new(),
                        },
                        heat_map: heat_map.clone(),
                        energy_uj,
                    };
                    lines.push(json_line(&cell, lines.len() + 1, 8));
                }
            }
        }
        assert_eq!(
            lines,
            [
                concat!(
                    "{\"schema\":3,\"benchmark\":\"MRPDLN\",\"design\":\"sync\",\"cores\":2,\"shard\":150,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"energy_uj\":10.179,\"dm_bank_heatmap\":[13550,0,548,1081],\"heatmap_rows\":2,\"completed\":1,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"MRPDLN\",\"design\":\"sync\",\"cores\":2,\"shard\":150,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"dm_bank_heatmap\":[13550,0,548,1081],\"heatmap_rows\":2,\"completed\":2,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"SQRT32\",\"design\":\"baseline\",\"cores\":2,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"energy_uj\":10.179,\"dm_bank_heatmap\":[13550,0,548,1081],\"heatmap_rows\":2,\"completed\":3,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"SQRT32\",\"design\":\"baseline\",\"cores\":2,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"dm_bank_heatmap\":[13550,0,548,1081],\"heatmap_rows\":2,\"completed\":4,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"MRPDLN\",\"design\":\"sync\",\"cores\":2,\"shard\":150,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"energy_uj\":10.179,\"completed\":5,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"MRPDLN\",\"design\":\"sync\",\"cores\":2,\"shard\":150,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"completed\":6,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"SQRT32\",\"design\":\"baseline\",\"cores\":2,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"energy_uj\":10.179,\"completed\":7,\"total\":8}"
                ),
                concat!(
                    "{\"schema\":3,\"benchmark\":\"SQRT32\",\"design\":\"baseline\",\"cores\":2,",
                    "\"cycles\":402668,\"ops_per_cycle\":2.4834,\"lockstep_width\":1.7501,\"im_accesses\":123456,\"completed\":8,\"total\":8}"
                ),
            ]
        );
    }
}
