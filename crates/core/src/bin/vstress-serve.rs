//! A long-running encode service under deterministic synthetic traffic.
//!
//! ```text
//! vstress-serve                          # 32 quick-mix jobs, seed 42, drain, summarize
//! vstress-serve --seed 7 --jobs 100      # a different fixed schedule
//! vstress-serve --workers 4 --queue-cap 8
//! vstress-serve --reject --pace 1        # real-time replay, shed on overload
//! vstress-serve --store cache/ --prewarm # encode unique specs first, then serve warm
//! vstress-serve --stdin                  # drain-then-exit on stdin EOF
//! ```
//!
//! Stdout carries the deterministic job-level summary (same seed ⇒
//! byte-identical at any worker count under the default block/unpaced
//! policy); wall-clock metrics — throughput, measured p50/p95/p99
//! latency, queue gauges — go to stderr. SIGINT/SIGTERM (and stdin EOF
//! with `--stdin`) request a graceful drain: no new jobs are admitted,
//! queued work finishes, then the summary prints. The first signal also
//! restores the default disposition, so a second Ctrl-C force-exits
//! instead of being ignored during a long drain.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vstress::cli::{self, FlagSpec};
use vstress::serve::{generate, prewarm, serve, IngressPolicy, ServeConfig, TrafficConfig};
use vstress::{RunCache, RunStore};

/// Every flag this binary accepts; anything else `--`-prefixed is a
/// usage error (exit 2), as are missing or flag-like values.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::value("--seed", "N", "traffic seed (default 42)"),
    FlagSpec::value("--jobs", "N", "jobs to offer (default 32)"),
    FlagSpec::value("--workers", "N", "encode worker pool size (default: cores)"),
    FlagSpec::value("--tile-workers", "N", "tile/wavefront threads per encode (default 1)"),
    FlagSpec::value("--frame-workers", "N", "frames in flight per encode (default 1)"),
    FlagSpec::value("--queue-cap", "N", "ingress queue capacity (default 16)"),
    FlagSpec::value("--stage-cap", "N", "interior queue capacity (default 16)"),
    FlagSpec::switch("--reject", "shed jobs when ingress is full (default: block)"),
    FlagSpec::value("--pace", "X", "real-time pacing factor; 0 = unpaced (default)"),
    FlagSpec::switch("--standard", "standard job mix (full ladder; default: quick)"),
    FlagSpec::value("--mean-gap-ms", "N", "override mean inter-arrival gap"),
    FlagSpec::value("--store", "DIR", "persistent run store shared with vstress-repro"),
    FlagSpec::switch("--prewarm", "batch-encode unique specs before serving"),
    FlagSpec::switch("--stdin", "treat stdin EOF as a shutdown request"),
];

/// The process-wide graceful-shutdown request flag, raised by
/// SIGINT/SIGTERM and (with `--stdin`) by stdin EOF.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    /// `SIG_DFL` — the platform's default disposition (terminate, for
    /// SIGINT/SIGTERM).
    const SIG_DFL: usize = 0;

    extern "C" fn request_shutdown(signum: i32) {
        // Only an atomic store and a signal(2) call: async-signal-safe.
        SHUTDOWN.store(true, Ordering::Release);
        // Two-stage shutdown: the first signal requests a graceful
        // drain; restoring the default disposition here means a second
        // Ctrl-C (or TERM) kills the process immediately instead of
        // being swallowed while a long drain runs. Without this, an
        // operator facing a stuck drain had no way out short of
        // SIGKILL.
        unsafe {
            let _ = signal(signum, SIG_DFL);
        }
    }

    // The handler slot is a `usize` so the same declaration covers both
    // a function pointer (install) and `SIG_DFL` (restore).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Routes SIGINT (2) and SIGTERM (15) into the shutdown flag.
    pub fn install() {
        unsafe {
            let _ = signal(2, request_shutdown as extern "C" fn(i32) as usize);
            let _ = signal(15, request_shutdown as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal routing off unix; `--stdin` still works.
    pub fn install() {}
}

/// Watches stdin on a detached thread and raises the shutdown flag on
/// EOF (or a read error). Content is ignored — the pipe closing *is*
/// the signal, which lets a supervisor stop the service portably.
fn watch_stdin() {
    std::thread::spawn(|| {
        use std::io::Read;
        let mut sink = [0u8; 1024];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        SHUTDOWN.store(true, Ordering::Release);
    });
}

fn usage_error(e: &cli::CliError) -> ! {
    eprintln!("error: {e}");
    eprint!("{}", cli::usage("vstress-serve", "[flags]", FLAGS));
    std::process::exit(cli::USAGE_EXIT.into());
}

/// A non-negative float for `--pace`.
fn pace_value(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err("expected a finite non-negative number".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(&args, FLAGS) {
        Ok(p) => p,
        Err(e) => usage_error(&e),
    };
    if !parsed.positionals.is_empty() {
        eprintln!("error: unexpected argument: {}", parsed.positionals[0]);
        eprint!("{}", cli::usage("vstress-serve", "[flags]", FLAGS));
        return ExitCode::from(cli::USAGE_EXIT);
    }
    macro_rules! flag {
        ($name:expr, $parse:expr, $default:expr) => {
            match parsed.parsed($name, $parse) {
                Ok(v) => v.unwrap_or($default),
                Err(e) => usage_error(&e),
            }
        };
    }
    let seed = flag!("--seed", |s: &str| s.parse::<u64>(), 42);
    let jobs = flag!("--jobs", cli::positive_usize, 32);
    let workers = flag!("--workers", cli::positive_usize, vstress::exec::default_threads());
    let tile_workers = flag!("--tile-workers", cli::positive_usize, 1);
    let frame_workers = flag!("--frame-workers", cli::positive_usize, 1);
    let queue_cap = flag!("--queue-cap", cli::positive_usize, 16);
    let stage_cap = flag!("--stage-cap", cli::positive_usize, 16);
    let pace = flag!("--pace", pace_value, 0.0);
    let standard = parsed.switch("--standard");

    let mut traffic = if standard {
        TrafficConfig::standard(seed, jobs)
    } else {
        TrafficConfig::quick(seed, jobs)
    };
    match parsed.parsed("--mean-gap-ms", cli::positive_usize) {
        Ok(Some(ms)) => traffic.mean_gap_us = ms as u64 * 1000,
        Ok(None) => {}
        Err(e) => usage_error(&e),
    }

    let cache = match parsed.value("--store") {
        None => Arc::new(RunCache::new()),
        Some(dir) => match RunStore::open(std::path::Path::new(dir)) {
            Ok(store) => Arc::new(RunCache::with_store(Arc::new(store))),
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let cfg = ServeConfig {
        workers,
        ingress_capacity: queue_cap,
        stage_capacity: stage_cap,
        ingress: if parsed.switch("--reject") {
            IngressPolicy::Reject
        } else {
            IngressPolicy::Block
        },
        pace,
        cache,
        tile_workers,
        frame_workers,
    };

    sig::install();
    if parsed.switch("--stdin") {
        watch_stdin();
    }

    let schedule = generate(&traffic);
    eprintln!(
        "vstress-serve: profile={} seed={} jobs={} workers={} tile-workers={} frame-workers={} ingress={} cap={} stage-cap={} pace={}",
        if standard { "standard" } else { "quick" },
        seed,
        schedule.len(),
        cfg.workers,
        cfg.tile_workers,
        cfg.frame_workers,
        if cfg.ingress == IngressPolicy::Reject { "reject" } else { "block" },
        cfg.ingress_capacity,
        cfg.stage_capacity,
        cfg.pace,
    );

    if parsed.switch("--prewarm") {
        match prewarm(&cfg, &schedule) {
            Ok(n) => eprintln!("vstress-serve: prewarmed {n} unique specs"),
            Err(e) => {
                eprintln!("error: prewarm failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = serve(&cfg, &schedule, &SHUTDOWN);

    // Deterministic job-level summary on stdout; everything wall-clock
    // on stderr, so fixed-seed runs stay byte-comparable.
    print!("serve seed {seed}\n{}", report.job_summary());
    eprint!("{}", report.wall_summary());
    if cfg.cache.store().is_some() {
        let s = cfg.cache.stats();
        eprintln!(
            "vstress-serve: store {} hits, {} misses, {} quarantined",
            s.store_hits, s.store_misses, s.store_quarantined
        );
    }
    if report.drained {
        eprintln!(
            "vstress-serve: drained cleanly ({} completed, {} failed, {} rejected, {} shed)",
            report.completed.len(),
            report.failed.len(),
            report.rejected.len(),
            report.shed_on_shutdown.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("vstress-serve: drain incomplete");
        ExitCode::FAILURE
    }
}
