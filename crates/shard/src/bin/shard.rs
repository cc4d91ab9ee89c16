//! `shard` — plan, run and merge a long-recording workload, as JSON.
//!
//! ```text
//! shard [plan|run] [options]
//!   plan                 print the shard plan only (no simulation)
//!   run                  plan, execute on the service, merge (default)
//!   --n <samples>        recording length (default 2560 = 10× paper window)
//!   --shard <samples>    target core samples per shard (default 256)
//!   --halo <n|auto>      overlap per side (default auto = benchmark's radius)
//!   --benchmark <name>   MRPFLTR | MRPDLN | SQRT32 (default MRPDLN)
//!   --cores <n>          platform cores = recording channels (default 8)
//!   --baseline           run the design without the synchronizer
//!   --threads <n>        service workers (default: all hardware threads)
//!   --heatmap <window>   attach a per-bank DM heat map (cycles per row)
//!   --tenant <id>        tenant the shard jobs are submitted as (default 0)
//!   --checkpoint-every <cycles>  checkpoint every shard job's platform at
//!                        this cadence (makes shards migratable)
//!   --checkpoint-dir <path>  persist each job's latest checkpoint blob
//!                        (requires --checkpoint-every)
//!   --inject-worker-failure <w>  kill worker w at its first checkpoint
//!                        (fault-injection; requires --checkpoint-every)
//!   --trace-out <path>   write a Chrome trace-event JSON file (Perfetto
//!                        loadable; one track per service worker)
//!   --stats-json <path>  write the final service stats as one JSON object
//!   --smoke              tiny workload (CI smoke mode: short recording)
//! ```
//!
//! `run` verifies the merged outputs against a single full-recording
//! golden pass and exits non-zero on any mismatch, so the bin doubles as
//! an end-to-end equivalence check in CI. Output is one JSON object on
//! stdout.

use std::process::ExitCode;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_power::PowerModel;
use ulp_service::{ObserverSelection, TenantId};
use ulp_shard::{merge_verified, required_halo, ShardPlan, ShardRunConfig, ShardRunner};
use ulp_telemetry::Telemetry;

const USAGE: &str = "usage: shard [plan|run] [options]
  plan                 print the shard plan only (no simulation)
  run                  plan, execute on the service, merge (default)
  --n <samples>        recording length (default 2560 = 10x paper window)
  --shard <samples>    target core samples per shard (default 256)
  --halo <n|auto>      overlap per side (default auto = benchmark's radius)
  --benchmark <name>   MRPFLTR | MRPDLN | SQRT32 (default MRPDLN)
  --cores <n>          platform cores = recording channels (default 8)
  --baseline           run the design without the synchronizer
  --threads <n>        service workers (default: all hardware threads)
  --heatmap <window>   attach a per-bank DM heat map (cycles per row)
  --tenant <id>        tenant the shard jobs are submitted as (default 0)
  --checkpoint-every <cycles>
                       checkpoint every shard job's platform at this
                       cadence in simulated cycles — shards become
                       migratable: a killed or preempted worker's
                       in-flight shard re-queues from its latest
                       checkpoint and the merge stays bit-identical
  --checkpoint-dir <path>
                       persist each job's latest checkpoint blob as
                       job-<id>.ckpt under this directory (best-effort;
                       requires --checkpoint-every)
  --inject-worker-failure <w>
                       fault injection: worker w parks its first shard at
                       that shard's first checkpoint and exits; the
                       surviving workers finish the recording (requires
                       --checkpoint-every; the pool is sized >= 2)
  --trace-out <path>   enable telemetry and write a Chrome trace-event
                       JSON file on exit (one track per service worker)
  --stats-json <path>  write the final service stats (schema 3, with
                       per-tenant rows and migration counters) as one
                       JSON object
  --smoke              tiny workload (CI smoke mode: short recording)";

#[derive(Clone)]
struct Options {
    plan_only: bool,
    n: Option<usize>,
    shard: usize,
    halo: Option<usize>,
    benchmark: Benchmark,
    cores: usize,
    with_sync: bool,
    threads: usize,
    heatmap: Option<u64>,
    tenant: TenantId,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    inject_worker_failure: Option<usize>,
    trace_out: Option<String>,
    stats_json: Option<String>,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        plan_only: false,
        n: None,
        shard: 256,
        halo: None,
        benchmark: Benchmark::Mrpdln,
        cores: 8,
        with_sync: true,
        threads: 0,
        heatmap: None,
        tenant: TenantId::DEFAULT,
        checkpoint_every: None,
        checkpoint_dir: None,
        inject_worker_failure: None,
        trace_out: None,
        stats_json: None,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    let next_value = |args: &mut dyn Iterator<Item = String>, what: &str| {
        args.next()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    let parse_num = |s: String, what: &str| -> Result<usize, String> {
        s.parse().map_err(|e| format!("bad value for {what}: {e}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "plan" => opts.plan_only = true,
            "run" => opts.plan_only = false,
            "--smoke" => opts.smoke = true,
            "--baseline" => opts.with_sync = false,
            "--n" => opts.n = Some(parse_num(next_value(&mut args, "--n")?, "--n")?),
            "--shard" => opts.shard = parse_num(next_value(&mut args, "--shard")?, "--shard")?,
            "--halo" => {
                let v = next_value(&mut args, "--halo")?;
                opts.halo = if v == "auto" {
                    None
                } else {
                    Some(parse_num(v, "--halo")?)
                };
            }
            "--benchmark" => {
                let name = next_value(&mut args, "--benchmark")?;
                opts.benchmark = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name().eq_ignore_ascii_case(&name))
                    .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
            }
            "--cores" => {
                opts.cores = parse_num(next_value(&mut args, "--cores")?, "--cores")?;
                if opts.cores == 0 || opts.cores > 8 {
                    return Err(format!("core count {} outside 1..=8", opts.cores));
                }
            }
            "--threads" => {
                opts.threads = parse_num(next_value(&mut args, "--threads")?, "--threads")?;
            }
            "--tenant" => {
                opts.tenant =
                    TenantId(parse_num(next_value(&mut args, "--tenant")?, "--tenant")? as u32);
            }
            "--checkpoint-every" => {
                let cycles = parse_num(
                    next_value(&mut args, "--checkpoint-every")?,
                    "--checkpoint-every",
                )? as u64;
                if cycles == 0 {
                    return Err("checkpoint cadence must be positive".into());
                }
                opts.checkpoint_every = Some(cycles);
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(next_value(&mut args, "--checkpoint-dir")?);
            }
            "--inject-worker-failure" => {
                opts.inject_worker_failure = Some(parse_num(
                    next_value(&mut args, "--inject-worker-failure")?,
                    "--inject-worker-failure",
                )?);
            }
            "--trace-out" => {
                opts.trace_out = Some(next_value(&mut args, "--trace-out")?);
            }
            "--stats-json" => {
                opts.stats_json = Some(next_value(&mut args, "--stats-json")?);
            }
            "--heatmap" => {
                let window = parse_num(next_value(&mut args, "--heatmap")?, "--heatmap")? as u64;
                if window == 0 {
                    return Err("heat-map window must be positive".into());
                }
                opts.heatmap = Some(window);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn json_u64_list(values: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn plan_json(plan: &ShardPlan) -> String {
    let shards: Vec<String> = plan
        .shards()
        .iter()
        .map(|s| {
            format!(
                "{{\"index\":{},\"start\":{},\"end\":{},\"load_start\":{},\"load_end\":{}}}",
                s.index, s.start, s.end, s.load_start, s.load_end
            )
        })
        .collect();
    format!(
        "{{\"total\":{},\"halo\":{},\"shards\":[{}]}}",
        plan.total(),
        plan.halo(),
        shards.join(",")
    )
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("shard: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut workload = if opts.smoke {
        WorkloadConfig::quick_test()
    } else {
        WorkloadConfig::paper()
    };
    workload.n = opts.n.unwrap_or(if opts.smoke { 512 } else { 2560 });
    let halo = opts
        .halo
        .unwrap_or_else(|| required_halo(opts.benchmark, &workload));

    let plan = match ShardPlan::new(workload.n, opts.shard, halo) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("shard: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.plan_only {
        println!(
            "{{\"benchmark\":\"{}\",\"plan\":{}}}",
            opts.benchmark.name(),
            plan_json(&plan)
        );
        return ExitCode::SUCCESS;
    }

    // Telemetry is on only when a trace was requested; the disabled
    // handle keeps every record call at a single branch.
    let telemetry = if opts.trace_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut config = ShardRunConfig::new(opts.benchmark, opts.with_sync, opts.cores, workload)
        .with_tenant(opts.tenant)
        .with_telemetry(telemetry.clone());
    if let Some(window) = opts.heatmap {
        config.observers = ObserverSelection::BankHeatMap { window };
    }
    if opts.checkpoint_every.is_none()
        && (opts.checkpoint_dir.is_some() || opts.inject_worker_failure.is_some())
    {
        eprintln!("shard: --checkpoint-dir and --inject-worker-failure require --checkpoint-every");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if let Some(cycles) = opts.checkpoint_every {
        config = config.with_checkpoint_every(cycles);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("shard: creating --checkpoint-dir {dir}: {e}");
            return ExitCode::from(2);
        }
        config = config.with_checkpoint_dir(dir);
    }
    if let Some(worker) = opts.inject_worker_failure {
        config = config.with_injected_failure(worker);
    }
    let runner = match ShardRunner::new(config, plan.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shard: {e}");
            return ExitCode::from(2);
        }
    };
    let start = std::time::Instant::now();
    let (sharded, service_stats) = match runner.run_local_with_stats(opts.threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shard: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Exporter artifacts come out before merge verification so a
    // divergent run still leaves its trace behind for diagnosis.
    if let Some(path) = &opts.trace_out {
        telemetry.collect();
        if let Err(e) = std::fs::write(path, telemetry.chrome_trace()) {
            eprintln!("shard: writing --trace-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.stats_json {
        if let Err(e) = std::fs::write(path, service_stats.to_json()) {
            eprintln!("shard: writing --stats-json {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let merged = match merge_verified(&sharded) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("shard: sharded run diverged from the golden pass: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();
    // Recording-level heat map: the merge already re-indexed every
    // shard's rows onto the global cycle axis.
    let heatmap = merged.artifacts.bank_heat_map();

    let stats = &merged.run.stats;
    let model = PowerModel::calibrated_default();
    // Price the recording at the paper's Table I workload of 8 MOps/s.
    let energy = merged.energy_uj(&model, 8.0);
    let mut fields = vec![
        "\"schema\":2".to_string(),
        format!("\"benchmark\":\"{}\"", opts.benchmark.name()),
        format!("\"tenant\":{}", opts.tenant),
        format!(
            "\"design\":\"{}\"",
            if opts.with_sync { "sync" } else { "baseline" }
        ),
        format!("\"cores\":{}", opts.cores),
        format!("\"plan\":{}", plan_json(&plan)),
        format!("\"cycles\":{}", stats.cycles),
        format!("\"useful_ops\":{}", stats.useful_ops()),
        format!("\"ops_per_cycle\":{:.4}", stats.ops_per_cycle()),
        format!("\"im_accesses\":{}", stats.im.total_accesses()),
        format!("\"dm_accesses\":{}", stats.dm.total_accesses()),
        format!(
            "\"shard_cycles\":{}",
            json_u64_list(merged.shard_cycles.iter().copied())
        ),
        format!("\"events\":{}", merged.events().len()),
        "\"verified\":true".to_string(),
        format!("\"wall_s\":{:.3}", elapsed.as_secs_f64()),
        format!(
            "\"tenant_latency\":[{}]",
            service_stats
                .per_tenant
                .iter()
                .map(|t| format!(
                    "{{\"tenant\":{},\"jobs\":{},\"p50_us\":{:.1},\"p95_us\":{:.1},\"max_us\":{:.1}}}",
                    t.tenant,
                    t.latency.samples,
                    t.latency.p50.as_secs_f64() * 1e6,
                    t.latency.p95.as_secs_f64() * 1e6,
                    t.latency.max.as_secs_f64() * 1e6
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ];
    if let Some(uj) = energy {
        fields.push(format!("\"energy_uj\":{uj:.3}"));
    }
    if let Some(map) = heatmap {
        fields.push(format!(
            "\"dm_bank_heatmap\":{}",
            json_u64_list(map.totals())
        ));
        fields.push(format!("\"heatmap_rows\":{}", map.rows.len()));
    }
    println!("{{{}}}", fields.join(","));
    ExitCode::SUCCESS
}
