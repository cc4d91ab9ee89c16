//! The service's per-job work, rebuilt from public items so each layer
//! call can be timed on its own: ECG generation, kernel codegen, assembly,
//! platform build, reset and load, the cycle engine, snapshots and the
//! golden model. The kernel runner's load step is private, so it is
//! re-done here; every rebuilt run must reproduce the service's
//! statistics and outputs bit for bit, which is what proves the rebuild
//! faithful.

use crate::spans::{Tracer, NONE};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Instant;
use ulp_biosignal::{combine_two_leads, delineate, mrpfltr, EcgSignal};
use ulp_isa::asm::{assemble, Program};
use ulp_kernels::layout::{buffer_base, SHARED_BASE};
use ulp_kernels::{kernel_source, Benchmark, BenchmarkRun, WorkloadConfig};
use ulp_platform::{Checkpoint, Platform, PlatformConfig, RunProgress};

/// Offset of MRPDLN's shared threshold word above [`SHARED_BASE`], as the
/// MRPDLN kernel reads it. Not exported by the kernels crate; a wrong
/// value shows up as a mismatch against the service run.
const MRPDLN_SHARED_THRESHOLD: u16 = 4;

/// One job to rebuild, paired with what the service produced for it.
pub struct RebuildJob<'a> {
    /// Id shared by the job's spans.
    pub id: u64,
    /// Kernel.
    pub benchmark: Benchmark,
    /// Design.
    pub with_sync: bool,
    /// Cores.
    pub cores: usize,
    /// Inputs.
    pub workload: Arc<WorkloadConfig>,
    /// Checkpoint cadence the service ran the job with.
    pub every: Option<u64>,
    /// The service's run of the same job.
    pub service_run: &'a BenchmarkRun,
}

/// What one rebuilt job measured beyond its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebuilt {
    /// Platform cycles × cores.
    pub core_cycles: u64,
    /// Words of the assembled program.
    pub program_words: usize,
    /// Encoded size of the job's last snapshot.
    pub snapshot_bytes: usize,
}

/// Rebuilds `jobs` on `threads` threads, each with its own platform cache,
/// recording spans on clocks that share `epoch`. Results come back in job
/// order.
pub fn rebuild_all(
    jobs: &[RebuildJob<'_>],
    threads: usize,
    epoch: Instant,
) -> (Tracer, Vec<Result<Rebuilt, String>>) {
    type Part = (Tracer, Vec<(usize, Result<Rebuilt, String>)>);
    let threads = threads.clamp(1, jobs.len().max(1));
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut platforms = HashMap::new();
                    let results = (t..jobs.len())
                        .step_by(threads)
                        .map(|i| (i, rebuild_one(&jobs[i], &mut platforms, &mut tracer)))
                        .collect();
                    (tracer, results)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rebuild thread panicked"))
            .collect()
    });
    let mut tracer = Tracer::new(epoch);
    let mut results: Vec<Option<Result<Rebuilt, String>>> = jobs.iter().map(|_| None).collect();
    for (part, part_results) in parts {
        tracer.absorb(part);
        for (i, result) in part_results {
            results[i] = Some(result);
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every job rebuilt"))
        .collect();
    (tracer, results)
}

fn rebuild_one(
    job: &RebuildJob<'_>,
    platforms: &mut HashMap<(bool, usize), Platform>,
    tracer: &mut Tracer,
) -> Result<Rebuilt, String> {
    let (id, w) = (job.id, &*job.workload);
    let root = tracer.open("rebuild.job", NONE, id);
    let channels = tracer.time("biosignal.ecg_gen", root, id, || w.channels(job.cores));
    let source = tracer.time("kernels.codegen", root, id, || {
        kernel_source(job.benchmark, w, job.with_sync)
    });
    let program = tracer
        .time("isa.assemble", root, id, || assemble(&source))
        .map_err(|e| e.to_string())?;
    let platform = match platforms.entry((job.with_sync, job.cores)) {
        Entry::Occupied(cached) => cached.into_mut(),
        Entry::Vacant(slot) => {
            let config = PlatformConfig::paper(job.with_sync)
                .with_cores(job.cores)
                .with_max_cycles(w.max_cycles);
            let platform = tracer
                .time("platform.build", root, id, || Platform::new(config))
                .map_err(|e| e.to_string())?;
            slot.insert(platform)
        }
    };
    platform.set_max_cycles(w.max_cycles);
    tracer.time("platform.reset_load", root, id, || {
        load(platform, job.benchmark, w, &program, &channels)
    });
    let run = tracer.open("platform.run", root, id);
    let mut last: Option<Checkpoint> = None;
    match job.every {
        // The service's checkpointed path: run in slices, snapshot at each
        // pause.
        Some(every) => loop {
            let limit = platform.cycle().saturating_add(every);
            match platform.run_until(limit).map_err(|e| e.to_string())? {
                RunProgress::Done(_) => break,
                RunProgress::Paused => {
                    last = Some(tracer.time("platform.snapshot", run, id, || platform.snapshot()));
                }
            }
        },
        None => {
            platform.run().map_err(|e| e.to_string())?;
        }
    }
    tracer.close(run);
    // A job that took no snapshot of its own measures one of its finished
    // platform.
    let last = match last {
        Some(ckpt) => ckpt,
        None => tracer.time("platform.snapshot", root, id, || platform.snapshot()),
    };
    let outputs = outputs(platform, job.benchmark, w);
    let expected = tracer.time("biosignal.golden", root, id, || {
        golden(job.benchmark, w, &channels)
    });
    let stats = platform.stats();
    tracer.close(root);

    let service = job.service_run;
    if outputs != expected {
        return Err(format!(
            "job {id}: rebuilt outputs differ from the golden model"
        ));
    }
    if expected != service.expected || outputs != service.outputs {
        return Err(format!(
            "job {id}: rebuilt outputs differ from the service run"
        ));
    }
    if stats != service.stats {
        return Err(format!(
            "job {id}: rebuilt statistics differ from the service run"
        ));
    }
    Ok(Rebuilt {
        core_cycles: stats.cycles * job.cores as u64,
        program_words: program.len(),
        snapshot_bytes: last.to_bytes().len(),
    })
}

/// Resets the platform and loads program and inputs exactly as the kernel
/// runner does.
fn load(
    platform: &mut Platform,
    benchmark: Benchmark,
    w: &WorkloadConfig,
    program: &Program,
    channels: &[EcgSignal],
) {
    let cores = platform.config().num_cores;
    let words = |signal: &EcgSignal| signal.samples.iter().map(|&v| v as u16).collect::<Vec<_>>();
    platform.reset();
    platform.load_program(program);
    for core in 0..cores {
        platform.load_dm(buffer_base(w.layout, core, 0), &words(&channels[core]));
        if benchmark == Benchmark::Sqrt32 {
            let pair = &channels[(core + 1) % cores];
            platform.load_dm(buffer_base(w.layout, core, 1), &words(pair));
        }
    }
    if benchmark == Benchmark::Mrpdln {
        platform.set_dm(
            SHARED_BASE + MRPDLN_SHARED_THRESHOLD,
            w.delineation.threshold as u16,
        );
    }
}

/// Every core's output buffer.
fn outputs(platform: &Platform, benchmark: Benchmark, w: &WorkloadConfig) -> Vec<Vec<u16>> {
    let buffer = match benchmark {
        Benchmark::Mrpfltr | Benchmark::Mrpdln => 5,
        Benchmark::Sqrt32 => 2,
    };
    (0..platform.config().num_cores)
        .map(|core| platform.dm_slice(buffer_base(w.layout, core, buffer), w.n))
        .collect()
}

/// The golden model on the channels already generated (the public
/// `golden_outputs` would generate them again).
fn golden(benchmark: Benchmark, w: &WorkloadConfig, channels: &[EcgSignal]) -> Vec<Vec<u16>> {
    (0..channels.len())
        .map(|core| {
            let x = &channels[core].samples;
            match benchmark {
                Benchmark::Mrpfltr => mrpfltr(x, &w.mrpfltr)
                    .into_iter()
                    .map(|v| v as u16)
                    .collect(),
                Benchmark::Mrpdln => delineate(x, &w.delineation)
                    .into_iter()
                    .map(u16::from)
                    .collect(),
                Benchmark::Sqrt32 => {
                    combine_two_leads(x, &channels[(core + 1) % channels.len()].samples)
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_kernels::run_benchmark_on;

    #[test]
    fn rebuilt_runs_match_the_kernel_runner() {
        let mut w = ulp_kernels::WorkloadConfig::quick_test();
        w.n = 24;
        let w = Arc::new(w);
        for benchmark in Benchmark::ALL {
            for (with_sync, every) in [(true, None), (false, Some(2_000))] {
                let config = PlatformConfig::paper(with_sync)
                    .with_cores(4)
                    .with_max_cycles(w.max_cycles);
                let service_run = run_benchmark_on(benchmark, config, &w).expect("runs");
                let job = RebuildJob {
                    id: 0,
                    benchmark,
                    with_sync,
                    cores: 4,
                    workload: w.clone(),
                    every,
                    service_run: &service_run,
                };
                let (tracer, results) = rebuild_all(std::slice::from_ref(&job), 1, Instant::now());
                let rebuilt = results[0].as_ref().expect("rebuild reproduces the run");
                assert!(rebuilt.program_words > 0 && rebuilt.snapshot_bytes > 0);
                let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
                for layer in [
                    "kernels.codegen",
                    "isa.assemble",
                    "platform.run",
                    "biosignal.golden",
                ] {
                    assert!(names.contains(&layer), "{benchmark} missing {layer}");
                }
            }
        }
    }
}
