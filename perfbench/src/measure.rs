//! The two modes: the end-to-end measurement (`--trace 0`) and the traced
//! run that gives the per-layer numbers (`--trace 1`).

use crate::jobs::{cells, JobList, Recording, Workload};
use crate::rebuild::{rebuild_all, RebuildJob};
use crate::report::Values;
use crate::run::{median_pass_s, setup, timed_passes, Bench, Outcome, Pass};
use crate::spans::{self, Span, Tracer, NONE};
use crate::stats::{median, percentile, ratio, SimTotals};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use ulp_telemetry::{EventKind, JobEvent, Telemetry, NO_JOB};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Where the traced run writes its spans, relative to the working
/// directory (the build directory, which git ignores).
pub const TRACE_DIR: &str = ".bench_build/perfbench";

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Host seconds of measurement.
    pub seconds: f64,
    /// Pool workers.
    pub workers: usize,
}

/// A finished mode: correctness, the metric values, and report lines to
/// print before the result line.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted and failed.
    pub outcome: Outcome,
    /// Metric values by name.
    pub values: Values,
    /// Human-readable report.
    pub lines: Vec<String>,
}

/// `--trace 0`: set up [`SETUPS`] times, then run closed-loop passes for
/// the requested seconds with tracing off.
pub fn end_to_end(args: Args) -> Measured {
    let mut out = Measured::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        if let Some(old) = bench.take() {
            old.service.finish();
        }
        let start = Instant::now();
        bench = Some(setup(
            args.workload,
            args.seed,
            args.workers,
            Telemetry::disabled(),
            &mut out.outcome,
        ));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let passes = timed_passes(
        &mut bench,
        args.workload,
        args.seconds,
        &mut Tracer::disabled(),
        false,
        &mut out.outcome,
    );
    bench.service.finish();

    let pass_s = median_pass_s(&passes);
    let work = &passes[0];
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let totals = work.totals;
    let v = &mut out.values;
    v.insert("core_cycles_per_s", totals.core_cycles as f64 / pass_s);
    v.insert("sim_cycles_per_s", totals.cycles as f64 / pass_s);
    v.insert("samples_per_s", work.samples as f64 / pass_s);
    v.insert("jobs_per_s", work.jobs as f64 / pass_s);
    v.insert(
        "job_latency_p50_ms",
        percentile(&latencies, 50.0).unwrap_or(0.0),
    );
    v.insert(
        "job_latency_p90_ms",
        percentile(&latencies, 90.0).unwrap_or(0.0),
    );
    v.insert("sim_cycles", totals.cycles as f64);
    v.insert("ops_per_cycle", totals.ops_per_cycle());
    v.insert("im_accesses_per_op", totals.im_accesses_per_op());
    v.insert("setup_s", median(&setups));
    v.insert("peak_rss_mb", peak_rss_mb());

    out.lines.push(format!(
        "{} seed={} workers={} passes={} median_pass_s={pass_s:.4} jobs/pass={} samples/pass={} \
         latency_samples={}",
        args.workload.name(),
        args.seed,
        args.workers,
        passes.len(),
        work.jobs,
        work.samples,
        latencies.len(),
    ));
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
        .collect();
    out.lines.push(format!("pass_s=[{}]", walls.join(", ")));
    out.lines.extend(service_ledger(&bench.list, &passes));
    out
}

/// The per-cell engine ledger from the service's run times: per cell, the
/// median over jobs of host nanoseconds per simulated core-cycle.
fn service_ledger(list: &JobList, passes: &[Pass]) -> Vec<String> {
    let JobList::Jobs(jobs) = list else {
        return Vec::new();
    };
    let cells = cells();
    let mut per_cell: BTreeMap<usize, (Vec<f64>, u64, u64)> = BTreeMap::new();
    for record in passes.iter().flat_map(|p| &p.records) {
        let job = &jobs[record.index];
        let core_cycles = record.cycles * job.spec.cores as u64;
        let entry = per_cell.entry(job.cell).or_default();
        entry
            .0
            .push(record.run_time.as_nanos() as f64 / core_cycles.max(1) as f64);
        entry.1 += 1;
        entry.2 += record.cycles;
    }
    let mut lines = vec![format!(
        "ledger (service run time) {:<18} {:>6} {:>12} {:>16} {:>18}",
        "cell", "jobs", "cycles/job", "core-cycles/s", "host_ns/core-cycle"
    )];
    for (cell, (ns, count, cycles)) in per_cell {
        let ns = median(&ns);
        lines.push(format!(
            "ledger (service run time) {:<18} {count:>6} {:>12} {:>16.0} {ns:>18.3}",
            cells[cell].label(),
            cycles / count.max(1),
            1e9 / ns,
        ));
    }
    lines
}

/// Peak resident memory of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lifecycle timestamps of one service job, on the tracer's clock.
#[derive(Debug, Default, Clone, Copy)]
struct Lifecycle {
    submitted: Option<u64>,
    queued: Option<u64>,
    claimed: Option<u64>,
    run_start: Option<u64>,
    run_end: Option<u64>,
    merged: Option<u64>,
}

/// Service job lifecycles from telemetry events, for jobs `>= first_id`.
/// `offset` moves telemetry timestamps onto the tracer's clock.
fn lifecycles(events: &[JobEvent], first_id: u64, offset: i64) -> BTreeMap<u64, Lifecycle> {
    let mut out: BTreeMap<u64, Lifecycle> = BTreeMap::new();
    for e in events {
        if e.job == NO_JOB || e.job < first_id {
            continue;
        }
        let at = (e.at_ns as i64 + offset).max(0) as u64;
        let life = out.entry(e.job).or_default();
        match e.kind {
            EventKind::Submitted => life.submitted = life.submitted.or(Some(at)),
            EventKind::Queued => life.queued = life.queued.or(Some(at)),
            EventKind::Claimed => life.claimed = life.claimed.or(Some(at)),
            EventKind::RunStart => life.run_start = Some(at),
            EventKind::RunEnd => life.run_end = Some(at),
            EventKind::Merged => life.merged = Some(at),
            _ => {}
        }
    }
    out
}

/// Adds the service's spans (queue wait, dispatch, run) under the client
/// span that waited for each job: the job's own span, or the recording's
/// `shard.run`.
fn add_service_spans(tracer: &mut Tracer, lives: &BTreeMap<u64, Lifecycle>) {
    let mut job_span: HashMap<u64, usize> = HashMap::new();
    let mut shard_runs: Vec<(usize, u64, u64)> = Vec::new();
    for (i, span) in tracer.spans().iter().enumerate() {
        match span.name {
            "client.job" => {
                job_span.insert(span.job, i);
            }
            "shard.run" => shard_runs.push((i, span.start_ns, span.end_ns)),
            _ => {}
        }
    }
    for (&job, life) in lives {
        let (Some(queued), Some(claimed), Some(start), Some(end)) =
            (life.queued, life.claimed, life.run_start, life.run_end)
        else {
            continue;
        };
        let parent = job_span.get(&job).copied().unwrap_or_else(|| {
            shard_runs
                .iter()
                .find(|(_, s, e)| (*s..=*e).contains(&queued))
                .map_or(NONE, |r| r.0)
        });
        for (name, start_ns, end_ns) in [
            ("service.queue", queued, claimed),
            ("service.dispatch", claimed, start),
            ("service.run", start, end),
        ] {
            tracer.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                job,
            });
        }
    }
}

/// `--trace 1`: half the seconds untraced, half with the service's
/// telemetry and the benchmark's spans on, then one pass rebuilt layer by
/// layer. Reports the per-layer metrics and writes the spans out.
pub fn traced(args: Args) -> Measured {
    let mut out = Measured::default();
    let half = args.seconds / 2.0;
    let workload = args.workload;

    let mut bench = setup(
        workload,
        args.seed,
        args.workers,
        Telemetry::disabled(),
        &mut out.outcome,
    );
    let plain = timed_passes(
        &mut bench,
        workload,
        half,
        &mut Tracer::disabled(),
        false,
        &mut out.outcome,
    );
    bench.service.finish();

    let telemetry = Telemetry::enabled();
    let mut tracer = Tracer::new(Instant::now());
    let offset = tracer.now_ns() as i64 - telemetry.now_ns() as i64;
    let mut bench = setup(
        workload,
        args.seed,
        args.workers,
        telemetry.clone(),
        &mut out.outcome,
    );
    let before = bench.service.stats();
    let traced = timed_passes(
        &mut bench,
        workload,
        half,
        &mut tracer,
        true,
        &mut out.outcome,
    );
    let after = bench.service.stats();
    let list = bench.list.clone();
    let every = bench.every;
    bench.service.finish();
    let events = telemetry.events();
    let lives = lifecycles(&events, traced[0].first_id, offset);
    add_service_spans(&mut tracer, &lives);

    // Rebuild the last traced pass, job by job.
    let last = traced.last().expect("at least one traced pass");
    let cell_of = cells();
    let (jobs, job_cells): (Vec<RebuildJob<'_>>, Vec<usize>) = match &list {
        JobList::Jobs(jobs) => last
            .records
            .iter()
            .filter_map(|r| {
                let job = &jobs[r.index];
                Some((
                    RebuildJob {
                        id: r.id,
                        benchmark: job.spec.benchmark,
                        with_sync: job.spec.with_sync,
                        cores: job.spec.cores,
                        workload: job.workload.clone(),
                        every: None,
                        service_run: r.run.as_deref()?,
                    },
                    job.cell,
                ))
            })
            .unzip(),
        JobList::Recording(rec) => {
            let cell = cell_of
                .iter()
                .position(|c| {
                    c.benchmark == Recording::BENCHMARK
                        && c.with_sync
                        && c.cores == Recording::CORES
                })
                .expect("the recording's cell is a grid cell");
            let plan = Recording::plan(&rec.workload);
            let specs =
                Recording::runner(&rec.workload, plan, every, Telemetry::disabled()).job_specs();
            last.sharded
                .iter()
                .flat_map(|sharded| sharded.shards.iter().zip(specs.clone()))
                .enumerate()
                .map(|(i, (shard, spec))| {
                    (
                        RebuildJob {
                            id: last.first_id + i as u64,
                            benchmark: spec.benchmark,
                            with_sync: spec.with_sync,
                            cores: spec.cores,
                            workload: spec.workload,
                            every: spec.checkpoint_every,
                            service_run: &shard.run,
                        },
                        cell,
                    )
                })
                .unzip()
        }
    };
    let (rebuilt_spans, results) = rebuild_all(&jobs, args.workers, tracer.epoch());
    tracer.absorb(rebuilt_spans);
    // (job index, what it measured) of every rebuild that succeeded.
    let mut rebuilt = Vec::with_capacity(results.len());
    for (i, result) in results.into_iter().enumerate() {
        out.outcome.attempted += 1;
        match result {
            Ok(r) => rebuilt.push((i, r)),
            Err(e) => out.outcome.fail(format!("rebuild: {e}")),
        }
    }
    if jobs.is_empty() {
        out.outcome
            .fail("traced pass kept no runs to rebuild".into());
    }

    // Span durations by name; the engine's time is its self time
    // (snapshots taken mid-run are its children).
    let all = tracer.spans();
    let self_ns = spans::self_times(all);
    let durations = |name: &str| -> Vec<f64> {
        all.iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let us = |name: &str| median(&durations(name)) / 1e3;
    let mut run_ns_by_job: HashMap<u64, u64> = HashMap::new();
    for (span, own) in all.iter().zip(&self_ns) {
        if span.name == "platform.run" {
            run_ns_by_job.insert(span.job, *own);
        }
    }
    let run_us: Vec<f64> = run_ns_by_job.values().map(|&ns| ns as f64 / 1e3).collect();
    let mut cell_ns: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let (mut run_ns, mut core_cycles) = (0u64, 0u64);
    for (i, r) in &rebuilt {
        let ns = run_ns_by_job.get(&jobs[*i].id).copied().unwrap_or(0);
        run_ns += ns;
        core_cycles += r.core_cycles;
        let entry = cell_ns.entry(job_cells[*i]).or_default();
        entry.0 += ns;
        entry.1 += r.core_cycles;
    }
    let words: Vec<f64> = rebuilt
        .iter()
        .map(|(_, r)| r.program_words as f64)
        .collect();
    let bytes: Vec<f64> = rebuilt
        .iter()
        .map(|(_, r)| r.snapshot_bytes as f64)
        .collect();

    // Client-side service costs.
    let (submit_us, overhead_us) = match &list {
        JobList::Jobs(_) => {
            let overhead: Vec<f64> = traced
                .iter()
                .flat_map(|p| &p.records)
                .map(|r| {
                    let served = r.queue_wait + r.run_time;
                    r.latency.saturating_sub(served).as_secs_f64() * 1e6
                })
                .collect();
            (us("client.submit"), median(&overhead))
        }
        JobList::Recording(_) => {
            // Shard submissions happen inside the runner: time them as the
            // gap between consecutive submissions of one recording.
            let firsts: Vec<u64> = traced.iter().map(|p| p.first_id).collect();
            let gaps: Vec<f64> = lives
                .iter()
                .zip(lives.iter().skip(1))
                .filter(|((a, _), (b, _))| **b == **a + 1 && !firsts.contains(b))
                .filter_map(|((_, a), (_, b))| Some(b.submitted?.checked_sub(a.submitted?)? as f64))
                .collect();
            let overhead: Vec<f64> = lives
                .values()
                .filter_map(|l| {
                    let latency = l.merged?.checked_sub(l.submitted?)?;
                    let served = l.run_end?.checked_sub(l.queued?)?;
                    Some(latency.saturating_sub(served) as f64 / 1e3)
                })
                .collect();
            (median(&gaps) / 1e3, median(&overhead))
        }
    };
    let queue_ms: Vec<f64> = lives
        .values()
        .filter_map(|l| Some(l.claimed?.checked_sub(l.queued?)? as f64 / 1e6))
        .collect();

    let totals: SimTotals = traced[0].totals;
    let v = &mut out.values;
    v.insert("kernels.codegen_us", us("kernels.codegen"));
    v.insert("isa.assemble_us", us("isa.assemble"));
    v.insert("isa.program_words", median(&words));
    v.insert("biosignal.ecg_gen_us", us("biosignal.ecg_gen"));
    v.insert("biosignal.golden_us", us("biosignal.golden"));
    v.insert("platform.build_us", us("platform.build"));
    v.insert("platform.reset_load_us", us("platform.reset_load"));
    v.insert("platform.run_us", median(&run_us));
    v.insert(
        "platform.host_ns_per_core_cycle",
        ratio(run_ns, core_cycles),
    );
    v.insert("platform.snapshot_us", us("platform.snapshot"));
    v.insert("platform.snapshot_bytes", median(&bytes));
    v.insert("cpu.active_fraction", totals.fraction(totals.active_cycles));
    v.insert(
        "cpu.fetch_stall_fraction",
        totals.fraction(totals.fetch_stall_cycles),
    );
    v.insert(
        "cpu.mem_stall_fraction",
        totals.fraction(totals.mem_stall_cycles),
    );
    v.insert(
        "cpu.sync_stall_fraction",
        totals.fraction(totals.sync_stall_cycles),
    );
    v.insert("cpu.sleep_fraction", totals.fraction(totals.sleep_cycles));
    v.insert("mem.im_accesses", totals.im_accesses as f64);
    v.insert("mem.im_broadcast_extra", totals.im_broadcast_extra as f64);
    v.insert("mem.dm_accesses", totals.dm_accesses as f64);
    v.insert(
        "mem.ixbar_conflict_cycles",
        totals.ixbar_conflict_cycles as f64,
    );
    v.insert(
        "mem.dxbar_conflict_cycles",
        totals.dxbar_conflict_cycles as f64,
    );
    v.insert("mem.dxbar_lock_stalls", totals.dxbar_lock_stalls as f64);
    v.insert("sync.lockstep_width", totals.lockstep_width());
    v.insert("sync.busy_cycles", totals.sync_busy_cycles as f64);
    v.insert("sync.merged_requests", totals.sync_merged as f64);
    v.insert("service.submit_us", submit_us);
    v.insert("service.overhead_us", overhead_us);
    v.insert("service.queue_wait_ms", median(&queue_ms));
    v.insert(
        "service.steals",
        (after.steals - before.steals) as f64 / traced.len() as f64,
    );
    v.insert(
        "service.cache_hit_ratio",
        ratio(
            after.platform_cache_hits - before.platform_cache_hits,
            after.jobs_run - before.jobs_run,
        ),
    );
    v.insert("service.platforms_built", after.platforms_built as f64);
    let halo_ratio = match &list {
        JobList::Recording(rec) => {
            let plan = Recording::plan(&rec.workload);
            let loaded: usize = plan.shards().iter().map(|s| s.load_len()).sum();
            ratio(loaded as u64, plan.total() as u64)
        }
        JobList::Jobs(_) => 1.0,
    };
    v.insert("shard.halo_ratio", halo_ratio);
    v.insert(
        "trace.overhead_ratio",
        median_pass_s(&traced) / median_pass_s(&plain),
    );

    // Report: the shard layer, the rebuilt engine ledger, span totals.
    out.lines.push(format!(
        "{} seed={} workers={} untraced_passes={} traced_passes={} rebuilt_jobs={}",
        workload.name(),
        args.seed,
        args.workers,
        plain.len(),
        traced.len(),
        jobs.len(),
    ));
    if let JobList::Recording(_) = &list {
        let snapshots = events
            .iter()
            .filter(|e| e.kind == EventKind::Snapshot && lives.contains_key(&e.job))
            .count();
        out.lines.push(format!(
            "shard layer: plan_us={:.1} merge_us={:.1} events_us={:.1} snapshots/shard={:.2} \
             checkpoint_every={}",
            us("shard.plan"),
            us("shard.merge"),
            us("shard.events"),
            ratio(snapshots as u64, lives.len() as u64),
            every.unwrap_or(0),
        ));
    }
    for (cell, (ns, cc)) in &cell_ns {
        out.lines.push(format!(
            "ledger (rebuilt engine) {:<18} host_ns/core-cycle={:.3}",
            cell_of[*cell].label(),
            ratio(*ns, *cc),
        ));
    }
    let summary = spans::summary(all);
    for (name, (count, total, own)) in &summary {
        out.lines.push(format!(
            "span {name:<20} count={count:>7} total_ms={:>10.3} self_ms={:>10.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
        ));
    }
    let path = format!("{TRACE_DIR}/trace-{}-{}.jsonl", workload.name(), args.seed);
    match std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, spans::to_json_lines(all)))
    {
        Ok(()) => out.lines.push(format!("spans written to {path}")),
        Err(e) => out.lines.push(format!("spans not written to {path}: {e}")),
    }
    out
}
