//! # ulp-service — the batch simulation service
//!
//! A long-lived front-end over the cycle engine: clients submit
//! [`JobSpec`]s (benchmark + platform design + core count + workload +
//! an optional heat-map window) to a [`SimService`] and receive
//! [`JobResult`]s as a
//! stream, in completion order. The pool is built for *grids* — the
//! (benchmark × design × cores) sweeps that every experiment in this
//! repository runs:
//!
//! * **Half-batch work stealing.** Jobs land on per-worker FIFO deques
//!   (round-robin or pinned); an owner claims the front of its own
//!   deque, and an idle worker steals the older half of a victim's deque
//!   in one lock acquisition, runs its front job and relocates the rest
//!   to its own deque — so a 2-core SQRT32 cell finishing early frees its
//!   worker to steal the tail of an 8-core full-signal MRPDLN backlog.
//! * **Bounded queues with backpressure.** With a
//!   [`ServiceConfig::queue_capacity`] bound, [`SimService::submit`]
//!   rejects at capacity with a typed [`SubmitError`] carrying the spec
//!   back for retry, and [`SimService::submit_blocking`] parks until the
//!   backlog drains — sustained traffic cannot grow an unbounded backlog.
//! * **Checkpoints and mid-run migration.** A job with
//!   [`JobSpec::checkpoint_every`] snapshots its platform every N cycles
//!   ([`ulp_platform::Checkpoint`]); when its worker is killed
//!   ([`SimService::inject_worker_failure`], or a panic recovered by the
//!   pool) the worker *parks* the run at a checkpoint and the
//!   partially-run job re-queues from there for any worker to resume.
//!   Migrated results are bit-identical to uninterrupted ones, heat map
//!   included, and latency attribution follows the job
//!   ([`JobResult::migrations`], [`ServiceStats::jobs_migrated`]).
//! * **Platform caching.** Each worker keeps one [`ulp_platform::Platform`]
//!   per `(design, cores)` key, reset and reused between jobs
//!   ([`ulp_kernels::run_benchmark_reusing`]) so memories and cycle
//!   buffers are allocated once per worker, not once per job. Every job
//!   takes that one run path on an unobserved platform, so the engine
//!   batches wherever it can; "no cadence" means a checkpoint interval
//!   of `u64::MAX`.
//! * **Streaming.** Results flow back over a channel the moment a worker
//!   finishes; long sweeps report incrementally instead of joining at the
//!   end.
//! * **Observability.** Every [`JobResult`] carries queue-wait and run
//!   latency; [`ServiceStats`] pools p50/p95/max latency
//!   ([`LatencyStats`]) next to jobs run, steal events and batch sizes,
//!   capacity rejections, platform-cache hits and platforms built, so
//!   scheduling quality *and* tail latency are measurable (the
//!   `service_latency` bench reports the percentiles of a saturated
//!   pool).
//!
//! A job carries one optional artifact: the per-bank DM heat map, the
//! paper's per-bank access accounting. [`JobSpec::heat_map`] asks for it;
//! the worker samples the D-Xbar's per-bank served counter
//! ([`ulp_platform::Platform::dm_bank_served`]) at every window boundary,
//! and the rows come back as [`JobOutput::heat_map`]. A migrated job
//! resumes with the rows taken up to its checkpoint. The workload-sharding layer merges the
//! per-shard rows of a recording onto its global cycle axis
//! (`ulp_shard::MergedRun::heat_map`) and the sweep carries them per
//! cell. PC traces and VCD dumps are debugging aids: attach
//! [`ulp_platform::PcTrace`] or [`ulp_platform::VcdTracer`] to a platform
//! directly, as `ulprun --trace` / `--trace-vcd` do.
//!
//! `ulp_bench::run_sweep` is a thin client of this service; use the
//! service directly when jobs arrive over time or don't form a
//! rectangular grid.

mod job;
mod service;

pub use job::{JobId, JobOutput, JobResult, JobSpec};
pub use service::{
    LatencyStats, PoolDied, ServiceConfig, ServiceConfigBuilder, ServiceStats, SimService,
    SubmitError, LATENCY_WINDOW,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ulp_kernels::{Benchmark, WorkloadConfig};

    fn quick() -> Arc<WorkloadConfig> {
        let mut w = WorkloadConfig::quick_test();
        w.n = 16;
        Arc::new(w)
    }

    fn pool(workers: usize) -> SimService {
        SimService::start(ServiceConfig::builder().workers(workers).build())
    }

    #[test]
    fn results_stream_before_finish() {
        let mut service = pool(2);
        let workload = quick();
        let a = service
            .submit(JobSpec::new(Benchmark::Sqrt32, 2, workload.clone()))
            .expect("unbounded queue admits");
        let b = service
            .submit(JobSpec::new(Benchmark::Sqrt32, 2, workload).with_sync(false))
            .expect("unbounded queue admits");
        let mut ids = vec![
            service.recv().expect("first result").id,
            service.recv().expect("second result").id,
        ];
        ids.sort_unstable();
        assert_eq!(ids, vec![a, b]);
        assert!(service.recv().is_none(), "all results received");
        let stats = service.finish();
        assert_eq!(stats.jobs_run, 2);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn idle_pool_finishes_immediately() {
        let service = pool(1);
        let stats = service.finish();
        assert_eq!(stats.jobs_run, 0);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.platforms_built, 0);
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let mut service = pool(1);
        assert!(service.try_recv().is_none(), "nothing submitted");
        service
            .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick()))
            .expect("unbounded queue admits");
        // Poll until the single job lands; try_recv never blocks.
        let result = loop {
            if let Some(r) = service.try_recv() {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(result.id, 0);
        assert!(result.outcome.is_ok());
        service.finish();
    }

    #[test]
    fn bank_heat_map_observer_selection_returns_rows() {
        let mut service = pool(1);
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, quick()).heat_map(64);
        service.submit(spec).expect("unbounded queue admits");
        let result = service.recv().expect("job completes");
        let rows = result
            .outcome
            .expect("job runs")
            .heat_map
            .expect("a heat map");
        assert!(!rows.is_empty(), "the run spans at least one window");
        // The paper platform has 16 DM banks.
        assert!(rows.iter().all(|row| row.len() == 16));
        let total: u64 = rows.iter().flatten().sum();
        assert!(total > 0, "the kernel reads and writes data memory");
        service.finish();
    }

    /// Regression: a zero heat-map window used to pass `submit` and then
    /// panic its worker, killing the pool for every later submission. It is now an invalid spec, and the pool lives on.
    #[test]
    fn zero_heat_map_window_is_rejected_at_submit() {
        let mut service = pool(1);
        for block in [false, true] {
            let spec = JobSpec::new(Benchmark::Sqrt32, 2, quick()).heat_map(0);
            let submitted = if block {
                service.submit_blocking(spec)
            } else {
                service.submit(spec)
            };
            match submitted {
                Err(SubmitError::Invalid { reason, spec }) => {
                    assert!(reason.contains("heat-map window"), "{reason}");
                    assert_eq!(spec.heat_map_window, Some(0), "the spec comes back");
                }
                other => panic!("expected an invalid-spec rejection, got {other:?}"),
            }
        }
        service
            .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick()).heat_map(64))
            .expect("the pool still admits");
        let result = service.checked_recv().expect("the pool is alive");
        assert!(result.expect("one result").outcome.is_ok());
        assert_eq!(service.finish().jobs_run, 1);
    }

    /// Regression: a pin beyond the pool size must land on a real deque
    /// (clamped modulo the worker count), not strand the job — this would
    /// hang in `recv` if the job were pushed somewhere no worker scans.
    #[test]
    fn out_of_range_pin_is_clamped_onto_a_real_worker() {
        let mut service = pool(2);
        let workload = quick();
        for pin in [2usize, 7, usize::MAX] {
            service
                .submit(JobSpec::new(Benchmark::Sqrt32, 2, workload.clone()).pinned(pin))
                .expect("unbounded queue admits");
        }
        for _ in 0..3 {
            let result = service.recv().expect("pinned job completes");
            assert!(result.worker < 2, "executed by a real worker");
            assert!(result.outcome.is_ok());
        }
        let stats = service.finish();
        assert_eq!(stats.jobs_run, 3);
    }

    #[test]
    fn drop_with_backlog_cancels_instead_of_draining() {
        let mut service = pool(2);
        let workload = quick();
        for _ in 0..32 {
            service
                .submit(JobSpec::new(Benchmark::Sqrt32, 8, workload.clone()))
                .expect("unbounded queue admits");
        }
        let first = service.recv().expect("at least one job completes");
        assert!(first.outcome.is_ok());
        // Dropping with a deep backlog must cancel the queued jobs and
        // join promptly — workers finish at most their current job. A
        // livelock in claim abandonment would hang this test.
        drop(service);
    }

    #[test]
    fn invalid_core_count_yields_an_error_outcome() {
        let mut service = pool(1);
        for cores in [0, 9, 16] {
            service
                .submit(JobSpec::new(Benchmark::Sqrt32, cores, quick()))
                .expect("unbounded queue admits");
        }
        for _ in 0..3 {
            let result = service.recv().expect("job completes");
            let err = result.outcome.expect_err("bad core count must error");
            assert!(
                err.to_string().contains("core count"),
                "unexpected error: {err}"
            );
        }
        let stats = service.finish();
        assert_eq!(stats.jobs_run, 3);
        assert_eq!(
            stats.platforms_built, 0,
            "no platform is built for bad specs"
        );
    }
}
