//! Driving a workload through the service: set-up, closed-loop passes and
//! the correctness checks every result goes through.

use crate::jobs::{Job, JobList, Recording, Workload, SNAPSHOTS_PER_SHARD};
use crate::spans::{Tracer, NONE};
use crate::stats::{median, SimTotals};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use ulp_kernels::BenchmarkRun;
use ulp_platform::SimStats;
use ulp_service::{JobId, ServiceConfig, SimService};
use ulp_shard::{golden_events, merge_verified, DelineationEvent, ShardedRun};
use ulp_telemetry::{EventKind, Telemetry};

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verified jobs and merges attempted.
    pub attempted: u64,
    /// Golden mismatches, job/submit/shard/merge errors, and results that
    /// differ from an earlier run of the same job.
    pub failed: u64,
    /// Messages of the first failures.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// The first simulated statistics seen for each job of the list: every
/// later run of the same job must reproduce them exactly.
#[derive(Debug, Default)]
struct Reference(HashMap<usize, SimStats>);

impl Reference {
    /// `Err` when `stats` differ from the first run of job `index`.
    fn check(&mut self, index: usize, stats: &SimStats) -> Result<(), String> {
        match self.0.get(&index) {
            Some(first) if first != stats => Err(format!(
                "job {index}: simulated statistics differ from its first run"
            )),
            Some(_) => Ok(()),
            None => {
                self.0.insert(index, stats.clone());
                Ok(())
            }
        }
    }
}

/// One job of a pass as the client saw it.
#[derive(Debug)]
pub struct JobRecord {
    /// Position in the job list.
    pub index: usize,
    /// Service job id.
    pub id: JobId,
    /// Submit-to-recv latency.
    pub latency: Duration,
    /// Queue wait reported by the service.
    pub queue_wait: Duration,
    /// Worker run time reported by the service.
    pub run_time: Duration,
    /// Simulated platform cycles.
    pub cycles: u64,
    /// The run itself (kept for the last pass of a traced run only).
    pub run: Option<Box<BenchmarkRun>>,
}

/// One pass over a workload's job list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time of the whole pass.
    pub wall: Duration,
    /// Client latency of every service job, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Service jobs completed and verified.
    pub jobs: u64,
    /// ECG samples analysed (halo excluded).
    pub samples: u64,
    /// Simulated totals of the pass.
    pub totals: SimTotals,
    /// Per-job records (`paper_grid`, `short_windows`).
    pub records: Vec<JobRecord>,
    /// Service id of the pass's first submission.
    pub first_id: JobId,
    /// The sharded run (`long_recording`, traced runs only).
    pub sharded: Option<ShardedRun>,
}

/// A started pool with its job list, warmed up.
pub struct Bench {
    /// The pool.
    pub service: SimService,
    /// The inputs.
    pub list: JobList,
    /// Checkpoint cadence of `long_recording` shards.
    pub every: Option<u64>,
    golden_events: Vec<DelineationEvent>,
    reference: Reference,
}

/// Starts a pool of `workers`, generates the job list from `seed` and runs
/// one warm-up pass that fills the workers' platform caches — the
/// benchmark's set-up.
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
    telemetry: Telemetry,
    outcome: &mut Outcome,
) -> Bench {
    let mut bench = Bench::start(workload, seed, workers, telemetry);
    bench.warm_up(workload, outcome);
    bench
}

impl Bench {
    /// Starts the pool and generates the job list.
    pub fn start(workload: Workload, seed: u64, workers: usize, telemetry: Telemetry) -> Bench {
        let service = SimService::start(
            ServiceConfig::builder()
                .workers(workers)
                .telemetry(telemetry)
                .build(),
        );
        Bench {
            service,
            list: JobList::generate(workload, seed),
            every: None,
            golden_events: Vec::new(),
            reference: Reference::default(),
        }
    }

    /// One pass of the job list, or for `long_recording` the golden
    /// events and a short warm-up recording that also sets the checkpoint
    /// cadence: about [`SNAPSHOTS_PER_SHARD`] snapshots in a shard of
    /// median length.
    fn warm_up(&mut self, workload: Workload, outcome: &mut Outcome) {
        let rec = match &self.list {
            JobList::Jobs(_) => {
                self.pass(workload, &mut Tracer::disabled(), false, outcome);
                return;
            }
            JobList::Recording(rec) => rec.clone(),
        };
        self.golden_events = golden_events(&rec.workload, Recording::CORES);
        let runner = Recording::runner(
            &rec.warmup,
            Recording::plan(&rec.warmup),
            None,
            self.service.telemetry(),
        );
        outcome.attempted += 1;
        match runner
            .run(&mut self.service)
            .map_err(|e| e.to_string())
            .and_then(|sharded| merge_verified(&sharded).map_err(|e| e.to_string()))
        {
            Ok(merged) => {
                let cycles: Vec<f64> = merged.shard_cycles.iter().map(|&c| c as f64).collect();
                let every = median(&cycles) as u64 / (SNAPSHOTS_PER_SHARD + 1);
                self.every = Some(every.max(1));
            }
            Err(e) => outcome.fail(format!("warm-up recording: {e}")),
        }
    }

    /// Runs one pass of the job list. `keep` keeps every run's outputs for
    /// the traced replay.
    pub fn pass(
        &mut self,
        workload: Workload,
        tracer: &mut Tracer,
        keep: bool,
        outcome: &mut Outcome,
    ) -> Pass {
        match self.list.clone() {
            JobList::Jobs(jobs) => {
                // paper_grid submits the whole grid as one batch;
                // short_windows keeps one job outstanding per worker.
                let window = match workload {
                    Workload::PaperGrid => jobs.len(),
                    _ => self.service.workers(),
                };
                self.job_pass(&jobs, window, tracer, keep, outcome)
            }
            JobList::Recording(rec) => self.recording_pass(&rec, tracer, keep, outcome),
        }
    }

    fn job_pass(
        &mut self,
        jobs: &[Job],
        window: usize,
        tracer: &mut Tracer,
        keep: bool,
        outcome: &mut Outcome,
    ) -> Pass {
        struct Pending {
            index: usize,
            sent: Instant,
            span: usize,
        }
        let root = tracer.open("pass", NONE, NONE as u64);
        let mut pass = Pass {
            first_id: self.service.submitted(),
            ..Pass::default()
        };
        let start = Instant::now();
        let mut pending: HashMap<JobId, Pending> = HashMap::with_capacity(window);
        let mut next = 0;
        loop {
            while pending.len() < window && next < jobs.len() {
                let id = self.service.submitted();
                let span = tracer.open("client.job", root, id);
                let submit = tracer.open("client.submit", span, id);
                let sent = Instant::now();
                let submitted = self.service.submit(jobs[next].job_spec());
                tracer.close(submit);
                match submitted {
                    Ok(id) => {
                        pending.insert(
                            id,
                            Pending {
                                index: next,
                                sent,
                                span,
                            },
                        );
                    }
                    Err(e) => {
                        tracer.close(span);
                        outcome.attempted += 1;
                        outcome.fail(format!("job {next}: submit failed: {e}"));
                    }
                }
                next += 1;
            }
            if pending.is_empty() {
                break;
            }
            let result = match self.service.checked_recv() {
                Ok(Some(result)) => result,
                Ok(None) | Err(_) => {
                    outcome.attempted += pending.len() as u64;
                    outcome.fail(format!("pool died with {} jobs pending", pending.len()));
                    break;
                }
            };
            let Some(sent) = pending.remove(&result.id) else {
                outcome.fail(format!("result for unknown job {}", result.id));
                continue;
            };
            let latency = sent.sent.elapsed();
            tracer.close(sent.span);
            outcome.attempted += 1;
            let job = &jobs[sent.index];
            let checked = result
                .outcome
                .map_err(|e| e.to_string())
                .and_then(|out| {
                    out.run
                        .verify()
                        .map(|()| out.run)
                        .map_err(|e| e.to_string())
                })
                .and_then(|run| self.reference.check(sent.index, &run.stats).map(|()| run));
            match checked {
                Ok(run) => {
                    pass.jobs += 1;
                    pass.samples += job.samples();
                    pass.totals.add(&run.stats);
                    pass.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    pass.records.push(JobRecord {
                        index: sent.index,
                        id: result.id,
                        latency,
                        queue_wait: result.queue_wait,
                        run_time: result.run_time,
                        cycles: run.stats.cycles,
                        run: keep.then(|| Box::new(run)),
                    });
                }
                Err(e) => outcome.fail(format!("job {} ({}): {e}", sent.index, job.spec.label())),
            }
        }
        pass.wall = start.elapsed();
        tracer.close(root);
        pass
    }

    fn recording_pass(
        &mut self,
        rec: &Recording,
        tracer: &mut Tracer,
        keep: bool,
        outcome: &mut Outcome,
    ) -> Pass {
        let root = tracer.open("pass", NONE, NONE as u64);
        let mut pass = Pass {
            first_id: self.service.submitted(),
            ..Pass::default()
        };
        let start = Instant::now();
        let plan = tracer.time("shard.plan", root, NONE as u64, || {
            Recording::plan(&rec.workload)
        });
        let shards = plan.len() as u64;
        // The runner submits every shard at once and records a `Merged`
        // event as it receives each result: the client-side latency of
        // every shard job. With the pool's telemetry off, the runner gets
        // a sink of its own, so the workers record nothing.
        let telemetry = match self.service.telemetry() {
            pool if pool.is_enabled() => pool,
            _ => Telemetry::with_capacity(2 * shards as usize),
        };
        let runner = Recording::runner(&rec.workload, plan, self.every, telemetry.clone());
        let sent_ns = telemetry.now_ns();
        let sharded = tracer.time("shard.run", root, NONE as u64, || {
            runner.run(&mut self.service)
        });
        let received: Vec<f64> = telemetry
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Merged && e.job >= pass.first_id)
            .map(|e| e.at_ns.saturating_sub(sent_ns) as f64 / 1e6)
            .collect();
        // Every shard job, plus the merge.
        outcome.attempted += shards + 1;
        let sharded = match sharded {
            Ok(sharded) => sharded,
            Err(e) => {
                outcome.fail(format!("recording: {e}"));
                pass.wall = start.elapsed();
                tracer.close(root);
                return pass;
            }
        };
        let merged = tracer.time("shard.merge", root, NONE as u64, || {
            merge_verified(&sharded)
        });
        let checked = merged.map_err(|e| e.to_string()).and_then(|merged| {
            let events = tracer.time("shard.events", root, NONE as u64, || merged.events());
            if events != self.golden_events {
                return Err("merged delineation events differ from golden_events".into());
            }
            self.reference.check(0, &merged.run.stats)?;
            Ok(merged)
        });
        match checked {
            Ok(merged) => {
                pass.wall = start.elapsed();
                pass.jobs = shards;
                pass.samples = (rec.workload.n * Recording::CORES) as u64;
                pass.totals.add(&merged.run.stats);
                pass.latencies_ms = received;
                pass.sharded = keep.then_some(sharded);
            }
            Err(e) => {
                outcome.fail(format!("recording: {e}"));
                pass.wall = start.elapsed();
            }
        }
        tracer.close(root);
        pass
    }
}

/// Passes of a timed loop.
pub const MIN_PASSES: usize = 3;

/// Runs passes until `seconds` have passed and at least [`MIN_PASSES`]
/// are done. With `keep`, the last pass keeps its runs.
pub fn timed_passes(
    bench: &mut Bench,
    workload: Workload,
    seconds: f64,
    tracer: &mut Tracer,
    keep: bool,
    outcome: &mut Outcome,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        // Keep the telemetry rings drained on long traced runs.
        bench.service.telemetry().collect();
        if let Some(last) = passes.last_mut() {
            // Only the newest pass keeps its runs.
            last.sharded = None;
            for record in &mut last.records {
                record.run = None;
            }
        }
        passes.push(bench.pass(workload, tracer, keep, outcome));
    }
    passes
}

/// Median host time of `passes`, in seconds.
pub fn median_pass_s(passes: &[Pass]) -> f64 {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    median(&walls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::DEFAULT_SEED;

    /// One pass of a small short-window list, run twice on fresh pools.
    fn sim_totals_of(seed: u64) -> SimTotals {
        let mut outcome = Outcome::default();
        let mut bench = Bench::start(Workload::ShortWindows, seed, 2, Telemetry::disabled());
        if let JobList::Jobs(jobs) = &mut bench.list {
            jobs.retain(|job| job.workload.n == 16 && job.spec.cores == 2);
        }
        let pass = bench.pass(
            Workload::ShortWindows,
            &mut Tracer::disabled(),
            false,
            &mut outcome,
        );
        bench.service.finish();
        assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
        assert!(pass.jobs > 0);
        pass.totals
    }

    #[test]
    fn one_seed_gives_identical_sim_metrics() {
        assert_eq!(sim_totals_of(DEFAULT_SEED), sim_totals_of(DEFAULT_SEED));
    }

    #[test]
    fn reference_flags_a_changed_rerun() {
        let mut reference = Reference::default();
        let stats = ulp_kernels::run_benchmark(
            ulp_kernels::Benchmark::Sqrt32,
            true,
            &ulp_kernels::WorkloadConfig::quick_test(),
        )
        .expect("quick test runs")
        .stats;
        assert!(reference.check(0, &stats).is_ok());
        assert!(reference.check(0, &stats).is_ok());
        let mut changed = stats.clone();
        changed.cycles += 1;
        assert!(reference.check(0, &changed).is_err());
    }
}
