//! `vstress-serve` — a long-running encode service under deterministic
//! synthetic traffic.
//!
//! The batch workbench answers "what does one encode look like?"; this
//! module answers the datacenter question the paper opens with — what
//! happens when encode jobs *arrive* rather than being swept. It runs a
//! staged pipeline:
//!
//! ```text
//!   traffic ──▶ [ingress queue] ──▶ encode worker pool ──▶
//!           ──▶ [characterized queue] ──▶ post stage ──▶
//!           ──▶ [egress queue] ──▶ collector / metrics
//! ```
//!
//! Every stage boundary is a [`queue::Bounded`] MPMC queue, so memory
//! is bounded end to end: when encode workers fall behind, the ingress
//! queue fills and the configured [`IngressPolicy`] either *blocks* the
//! arrival thread (closed-loop traffic) or *rejects* the job with a
//! reason (open-loop overload shedding). Interior stages always block —
//! overload policy is an edge decision, a slow interior stage is just
//! backpressure.
//!
//! Shutdown is a drain cascade: the ingress thread stops submitting
//! (traffic exhausted, or the shutdown flag was raised by a signal /
//! stdin EOF) and closes the ingress queue; the last encode worker to
//! exit closes the characterized queue; the post stage closes egress;
//! the collector returns. Queued work is always finished, never
//! dropped — "graceful drain-then-shutdown".
//!
//! Encode workers run jobs through the same [`RunCache`] /
//! [`RunStore`](crate::RunStore) layers as `vstress-repro`, so repeated
//! job keys (the mix has many) cost one encode, and a `--store` warmed
//! by a previous run serves the whole job list without encoding at all.
//!
//! Determinism: per-job *results* (bits, PSNR, instructions, modeled
//! service time) are pure functions of the job spec, so the job-level
//! summary ([`ServeReport::job_summary`]) is byte-identical for a fixed
//! traffic seed at any worker count, queue capacity, or machine load.
//! Wall-clock observations (sojourn latency, throughput, queue
//! high-water marks) are real measurements of the live pipeline and are
//! reported separately ([`ServeReport::wall_summary`]).

pub mod metrics;
pub mod queue;
pub mod traffic;

pub use metrics::LatencyStats;
pub use queue::{Bounded, PushError, QueueStats};
pub use traffic::{generate, JobSpec, TrafficConfig};

use crate::exec::{run_all, RunCache};
use crate::workbench::{CharacterizationRun, RunSpec, WorkbenchError};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What ingress does with an arrival when the ingress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressPolicy {
    /// Block the arrival thread until space frees up (closed-loop
    /// traffic; nothing is ever shed).
    Block,
    /// Reject the job immediately with a reason (open-loop overload
    /// shedding; memory stays bounded no matter the offered rate).
    Reject,
}

/// Configuration of the serve pipeline.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Encode worker threads (≥ 1).
    pub workers: usize,
    /// Ingress queue capacity — the overload-shedding bound.
    pub ingress_capacity: usize,
    /// Capacity of the interior (characterized, egress) queues.
    pub stage_capacity: usize,
    /// Full-queue policy at the ingress edge.
    pub ingress: IngressPolicy,
    /// Real-time pacing factor against the virtual arrival timestamps:
    /// `0.0` injects as fast as ingress accepts (the deterministic CI
    /// mode), `1.0` paces 1:1, `2.0` replays at double speed.
    pub pace: f64,
    /// Shared run cache (attach a store via
    /// [`RunCache::with_store`] for cross-process reuse).
    pub cache: Arc<RunCache>,
    /// Tile workers per encode ([`RunSpec::tile_workers`]): how many
    /// threads each encode worker spends on the intra-encode
    /// tile/wavefront decomposition. Results are byte-identical at any
    /// value (the probe-merge contract), so this only shifts wall-clock
    /// parallelism from across-job to within-job.
    pub tile_workers: usize,
    /// Frame workers per encode ([`RunSpec::frame_workers`]): the
    /// frames in flight inside each encode worker. Also
    /// worker-count invariant on every deterministic output; purely a
    /// wall-clock knob.
    pub frame_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: crate::exec::default_threads(),
            ingress_capacity: 16,
            stage_capacity: 16,
            ingress: IngressPolicy::Block,
            pace: 0.0,
            cache: Arc::new(RunCache::new()),
            tile_workers: 1,
            frame_workers: 1,
        }
    }
}

/// A completed job with its deterministic results and wall timing.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job as generated.
    pub job: JobSpec,
    /// Encoded bitstream size in bits.
    pub bits: u64,
    /// Mean luma PSNR of the reconstruction.
    pub psnr: f64,
    /// Retired instructions (the paper's cost currency).
    pub instructions: u64,
    /// Modeled service time in milliseconds (pipeline-model seconds for
    /// the job's instruction stream — deterministic).
    pub modeled_ms: f64,
    /// Measured sojourn time in milliseconds (ingress enqueue → post
    /// stage) — wall clock, not deterministic.
    pub wall_ms: f64,
    /// Cross-frame pipeline time the encode spent planning (wall clock;
    /// zero for cache/store hits, which skip the encode entirely).
    pub pipeline_busy_ns: u64,
    /// Cross-frame pipeline time plan workers spent blocked on
    /// reference-row watermarks (wall clock; zero for cache/store hits).
    pub pipeline_stall_ns: u64,
}

/// A job whose encode failed (deterministic: the error is a function of
/// the spec).
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The job as generated.
    pub job: JobSpec,
    /// The encode/characterization error.
    pub error: String,
}

/// A job shed at the ingress edge.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The job as generated.
    pub job: JobSpec,
    /// Why it was shed, e.g. `ingress queue full (capacity 16)`.
    pub reason: String,
}

/// Occupancy gauges for the three stage-boundary queues.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageGauges {
    /// Traffic → encode workers.
    pub ingress: QueueStats,
    /// Encode workers → post stage.
    pub characterized: QueueStats,
    /// Post stage → collector.
    pub egress: QueueStats,
}

/// Everything a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Jobs offered by the traffic schedule.
    pub offered: usize,
    /// Completed jobs, sorted by job id.
    pub completed: Vec<JobOutcome>,
    /// Failed jobs, sorted by job id.
    pub failed: Vec<JobFailure>,
    /// Jobs rejected at ingress (arrival order).
    pub rejected: Vec<Rejection>,
    /// Jobs never submitted because shutdown was requested first
    /// (arrival order).
    pub shed_on_shutdown: Vec<JobSpec>,
    /// Final queue gauges.
    pub gauges: StageGauges,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_seconds: f64,
    /// Whether every accepted job was accounted for and all queues
    /// drained to empty — the graceful-shutdown invariant.
    pub drained: bool,
}

impl ServeReport {
    /// The deterministic job-level summary (stdout): per-job results
    /// and modeled-service-time percentiles. Byte-identical for a fixed
    /// traffic seed under the default (`Block` + unpaced) policy,
    /// regardless of worker count.
    pub fn job_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "vstress-serve summary v1");
        let _ = writeln!(out, "offered {}", self.offered);
        let accepted = self.offered - self.rejected.len() - self.shed_on_shutdown.len();
        let _ = writeln!(out, "accepted {accepted}");
        let _ = writeln!(out, "rejected {}", self.rejected.len());
        let _ = writeln!(out, "shed {}", self.shed_on_shutdown.len());
        let _ = writeln!(out, "completed {}", self.completed.len());
        let _ = writeln!(out, "failed {}", self.failed.len());
        for o in &self.completed {
            let _ = writeln!(
                out,
                "job id={} {} bits={} psnr={:.2} instr={} modeled_ms={:.3}",
                o.job.id,
                o.job.describe(),
                o.bits,
                o.psnr,
                o.instructions,
                o.modeled_ms
            );
        }
        for f in &self.failed {
            let _ = writeln!(out, "failure id={} {} error={}", f.job.id, f.job.describe(), f.error);
        }
        for r in &self.rejected {
            let _ =
                writeln!(out, "reject id={} {} reason={}", r.job.id, r.job.describe(), r.reason);
        }
        let modeled: Vec<f64> = self.completed.iter().map(|o| o.modeled_ms).collect();
        if let Some(s) = LatencyStats::from_sample(&modeled) {
            let _ = writeln!(out, "modeled_service_ms {}", s.render_ms());
        }
        let _ = writeln!(out, "end summary");
        out
    }

    /// The wall-clock metrics (stderr): throughput, measured sojourn
    /// latency percentiles, and per-stage queue gauges. Real
    /// measurements — varies run to run.
    pub fn wall_summary(&self) -> String {
        let mut out = String::new();
        let jobs_per_s = if self.wall_seconds > 0.0 {
            self.completed.len() as f64 / self.wall_seconds
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "wall {:.3}s, {:.1} jobs/s, drained={}",
            self.wall_seconds, jobs_per_s, self.drained
        );
        let walls: Vec<f64> = self.completed.iter().map(|o| o.wall_ms).collect();
        if let Some(s) = LatencyStats::from_sample(&walls) {
            let _ = writeln!(out, "latency_wall_ms {}", s.render_ms());
        }
        for (name, q) in [
            ("ingress", &self.gauges.ingress),
            ("characterized", &self.gauges.characterized),
            ("egress", &self.gauges.egress),
        ] {
            let _ = writeln!(
                out,
                "queue {name} cap={} max_depth={} pushed={} popped={} rejected={} depth={}",
                q.capacity, q.max_depth, q.pushed, q.popped, q.rejected, q.depth
            );
        }
        let busy: u64 = self.completed.iter().map(|o| o.pipeline_busy_ns).sum();
        let stall: u64 = self.completed.iter().map(|o| o.pipeline_stall_ns).sum();
        // Cache/store hits perform no encode, so fully warmed runs
        // legitimately report zero on both counters.
        let occupancy = if busy + stall > 0 { busy as f64 / (busy + stall) as f64 } else { 1.0 };
        let _ = writeln!(out, "pipeline busy_ns={busy} stall_ns={stall} occupancy={occupancy:.3}");
        out
    }
}

/// The unique [`RunSpec`]s behind a job list, first-seen order — what a
/// prewarm pass needs to encode so serving is pure cache/store hits.
pub fn unique_specs(jobs: &[JobSpec]) -> Vec<RunSpec> {
    let mut seen = HashSet::new();
    jobs.iter().filter(|j| seen.insert(j.work_key())).map(JobSpec::run_spec).collect()
}

/// Encodes every unique spec of `jobs` through the batch executor
/// ([`run_all`]) so a subsequent [`serve`] over the same cache performs
/// zero encodes. Returns the number of unique specs warmed.
///
/// # Errors
///
/// Propagates the first-by-index [`WorkbenchError`].
pub fn prewarm(cfg: &ServeConfig, jobs: &[JobSpec]) -> Result<usize, WorkbenchError> {
    let mut specs = unique_specs(jobs);
    for spec in &mut specs {
        spec.tile_workers = cfg.tile_workers.max(1);
        spec.frame_workers = cfg.frame_workers.max(1);
    }
    run_all(&cfg.cache, cfg.workers, &specs)?;
    Ok(specs.len())
}

/// A job travelling through the pipeline with its admission timestamp.
struct Ticket {
    job: JobSpec,
    enqueued: Instant,
}

/// A worker's output: the job plus its (possibly failed) run.
struct Encoded {
    ticket: Ticket,
    result: Result<Arc<CharacterizationRun>, String>,
}

/// A post-stage record ready for collection.
enum Done {
    Ok(JobOutcome),
    Failed(JobFailure),
}

/// Closes a queue when dropped. Each stage holds one for its downstream
/// queue so the drain cascade survives a panicking stage: unwinding
/// still closes the queue and wakes the consumers, turning a would-be
/// deadlock into a propagated panic at scope exit.
struct CloseOnDrop<'a, T>(&'a Bounded<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The worker-pool variant: the last worker out — by return *or* by
/// unwind — closes the downstream queue.
struct WorkerExit<'a, T> {
    live: &'a AtomicUsize,
    downstream: &'a Bounded<T>,
}

impl<T> Drop for WorkerExit<'_, T> {
    fn drop(&mut self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.downstream.close();
        }
    }
}

/// Sleeps until the pacing target for `arrival_us`, in short slices so
/// a shutdown request interrupts promptly. Returns `false` if shutdown
/// was requested while waiting.
fn pace_until(start: Instant, arrival_us: u64, pace: f64, shutdown: &AtomicBool) -> bool {
    if pace <= 0.0 {
        return !shutdown.load(Ordering::Acquire);
    }
    let target = Duration::from_micros((arrival_us as f64 / pace) as u64);
    loop {
        if shutdown.load(Ordering::Acquire) {
            return false;
        }
        let elapsed = start.elapsed();
        if elapsed >= target {
            return true;
        }
        std::thread::sleep((target - elapsed).min(Duration::from_millis(20)));
    }
}

/// Runs the staged pipeline over `jobs` until the traffic is exhausted
/// or `shutdown` is raised, then drains and returns the report (see
/// module docs for the stage/shutdown design).
///
/// # Panics
///
/// Panics if `cfg.workers` is zero or an encode worker panics.
pub fn serve(cfg: &ServeConfig, jobs: &[JobSpec], shutdown: &AtomicBool) -> ServeReport {
    assert!(cfg.workers > 0, "need at least one encode worker");
    let start = Instant::now();
    let ingress: Bounded<Ticket> = Bounded::new(cfg.ingress_capacity);
    let characterized: Bounded<Encoded> = Bounded::new(cfg.stage_capacity);
    let egress: Bounded<Done> = Bounded::new(cfg.stage_capacity);
    let live_workers = AtomicUsize::new(cfg.workers);

    let (completed, failed, rejected, shed) = std::thread::scope(|s| {
        // Ingress: replay the arrival schedule against the bounded
        // queue, shedding per policy; close the queue when done.
        let ingress_handle = s.spawn(|| {
            let _close = CloseOnDrop(&ingress);
            let mut rejected: Vec<Rejection> = Vec::new();
            let mut shed: Vec<JobSpec> = Vec::new();
            for job in jobs {
                if !pace_until(start, job.arrival_us, cfg.pace, shutdown) {
                    shed.push(*job);
                    continue;
                }
                let ticket = Ticket { job: *job, enqueued: Instant::now() };
                match cfg.ingress {
                    IngressPolicy::Block => {
                        if let Err(t) = ingress.push(ticket) {
                            shed.push(t.job);
                        }
                    }
                    IngressPolicy::Reject => match ingress.try_push(ticket) {
                        Ok(()) => {}
                        Err(PushError::Full(t)) => rejected.push(Rejection {
                            job: t.job,
                            reason: format!(
                                "ingress queue full (capacity {})",
                                cfg.ingress_capacity
                            ),
                        }),
                        Err(PushError::Closed(t)) => shed.push(t.job),
                    },
                }
            }
            (rejected, shed)
        });

        // Encode worker pool: the service's hot stage. The last worker
        // out (return or unwind) closes the downstream queue.
        for _ in 0..cfg.workers {
            s.spawn(|| {
                let _exit = WorkerExit { live: &live_workers, downstream: &characterized };
                while let Some(ticket) = ingress.pop() {
                    let mut spec = ticket.job.run_spec();
                    spec.tile_workers = cfg.tile_workers.max(1);
                    spec.frame_workers = cfg.frame_workers.max(1);
                    let result = cfg.cache.run(&spec).map_err(|e| e.to_string());
                    if characterized.push(Encoded { ticket, result }).is_err() {
                        break; // downstream shut first; nothing to do
                    }
                }
            });
        }

        // Post stage: turn runs into service-level records.
        s.spawn(|| {
            let _close = CloseOnDrop(&egress);
            while let Some(enc) = characterized.pop() {
                let wall_ms = enc.ticket.enqueued.elapsed().as_secs_f64() * 1e3;
                let done = match enc.result {
                    Ok(run) => Done::Ok(JobOutcome {
                        job: enc.ticket.job,
                        bits: run.total_bits,
                        psnr: run.mean_psnr,
                        instructions: run.mix.total(),
                        modeled_ms: run.seconds * 1e3,
                        wall_ms,
                        pipeline_busy_ns: run.tasks.frames.iter().map(|f| f.pipeline.busy_ns).sum(),
                        pipeline_stall_ns: run
                            .tasks
                            .frames
                            .iter()
                            .map(|f| f.pipeline.stall_ns)
                            .sum(),
                    }),
                    Err(error) => Done::Failed(JobFailure { job: enc.ticket.job, error }),
                };
                if egress.push(done).is_err() {
                    break;
                }
            }
        });

        // Collector (this thread): drain egress until the cascade ends.
        let mut completed: Vec<JobOutcome> = Vec::new();
        let mut failed: Vec<JobFailure> = Vec::new();
        while let Some(done) = egress.pop() {
            match done {
                Done::Ok(o) => completed.push(o),
                Done::Failed(f) => failed.push(f),
            }
        }
        let (rejected, shed) = ingress_handle.join().expect("ingress thread");
        (completed, failed, rejected, shed)
    });

    // Completion order is racy; job id order is canonical.
    let mut completed = completed;
    completed.sort_by_key(|o| o.job.id);
    let mut failed = failed;
    failed.sort_by_key(|f| f.job.id);

    let gauges = StageGauges {
        ingress: ingress.stats(),
        characterized: characterized.stats(),
        egress: egress.stats(),
    };
    let accounted = completed.len() + failed.len() + rejected.len() + shed.len();
    let drained = accounted == jobs.len()
        && gauges.ingress.depth == 0
        && gauges.characterized.depth == 0
        && gauges.egress.depth == 0;
    ServeReport {
        offered: jobs.len(),
        completed,
        failed,
        rejected,
        shed_on_shutdown: shed,
        gauges,
        wall_seconds: start.elapsed().as_secs_f64(),
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_jobs(seed: u64, n: usize) -> Vec<JobSpec> {
        // Tiny frame counts keep unit tests fast; integration tests
        // exercise the real quick profile.
        let mut cfg = TrafficConfig::quick(seed, n);
        cfg.frame_count = 2;
        cfg.ladder = vec![(32, 1)];
        generate(&cfg)
    }

    #[test]
    fn serve_completes_everything_under_block_policy() {
        let jobs = quick_jobs(1, 8);
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let report = serve(&cfg, &jobs, &AtomicBool::new(false));
        assert_eq!(report.completed.len(), 8);
        assert!(report.failed.is_empty() && report.rejected.is_empty());
        assert!(report.drained, "all queues must drain");
        // Canonical ordering by id.
        let ids: Vec<u64> = report.completed.iter().map(|o| o.job.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn job_summary_is_worker_count_invariant() {
        let jobs = quick_jobs(5, 10);
        let one = serve(
            &ServeConfig { workers: 1, ..ServeConfig::default() },
            &jobs,
            &AtomicBool::new(false),
        );
        let four = serve(
            &ServeConfig { workers: 4, ingress_capacity: 3, ..ServeConfig::default() },
            &jobs,
            &AtomicBool::new(false),
        );
        assert_eq!(one.job_summary(), four.job_summary());
        // Splitting each encode across tile workers must not change a
        // byte either — the probe-merge contract, end to end.
        let tiled = serve(
            &ServeConfig { workers: 2, tile_workers: 3, ..ServeConfig::default() },
            &jobs,
            &AtomicBool::new(false),
        );
        assert_eq!(one.job_summary(), tiled.job_summary());
    }

    #[test]
    #[should_panic]
    fn panicking_worker_does_not_deadlock_the_drain() {
        // Regression: an encode worker that panics (here: a divisor the
        // scaled cache hierarchy rejects, injected past `generate`'s
        // validation) used to skip the last-worker countdown, leaving
        // `characterized` open and the post/collector stages blocked
        // forever. The drop guards must instead complete the cascade
        // and let the scope propagate the panic out of `serve`.
        let mut jobs = quick_jobs(1, 3);
        jobs[1].divisor = 24;
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let _ = serve(&cfg, &jobs, &AtomicBool::new(false));
    }

    #[test]
    fn unique_specs_dedup_repeats() {
        let jobs = quick_jobs(9, 64);
        let unique = unique_specs(&jobs);
        assert!(unique.len() < jobs.len(), "the mix must repeat keys over 64 draws");
        assert!(!unique.is_empty());
    }

    #[test]
    fn prewarmed_serve_does_zero_encodes() {
        let jobs = quick_jobs(13, 12);
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let warmed = prewarm(&cfg, &jobs).unwrap();
        assert!(warmed >= 1);
        let misses_after_warm = cfg.cache.stats().run_misses;
        let report = serve(&cfg, &jobs, &AtomicBool::new(false));
        assert_eq!(report.completed.len(), 12);
        assert_eq!(
            cfg.cache.stats().run_misses,
            misses_after_warm,
            "serving after prewarm must be pure cache hits"
        );
    }
}
