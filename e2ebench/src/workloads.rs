//! The three workloads, each in an untraced form (end-to-end metrics)
//! and a traced form (per-layer metrics).
//!
//! * `repro-cold` — the quick profile's full experiment set, cold, with
//!   no store: what `vstress-repro --quick` does.
//! * `store-resim` — the per-clip characterization runners captured
//!   into a fresh store, then re-simulated from it, in a fresh process,
//!   under another modelled cache: capture once, simulate many.
//! * `serve-open` — `serve::serve` as an open loop over a fixed
//!   quick-mix job list whose arrival times the seed draws.

use crate::host::{cpu_seconds, nproc, peak_rss_mb, reset_peak_rss, HostInfo};
use crate::spans::Tracer;
use crate::stats::{median, met_limit_share, percentile, tail_percentile, with_misses};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vstress::bpred::harness;
use vstress::codecs::taskgraph::build_task_graph;
use vstress::codecs::{CodecId, Decoder, Encoder, EncoderParams};
use vstress::exec::store::fnv64;
use vstress::experiments::{
    catalogue, cbp, crf_sweep, decode_cost, mix, preset_sweep, profile, runtime_quality, threads,
    ExperimentConfig,
};
use vstress::sched::speedup_curve;
use vstress::serve::{self, IngressPolicy, JobSpec, ServeConfig, ServeReport, TrafficConfig};
use vstress::trace::{BranchWindowProbe, CountingProbe};
use vstress::video::vbench;
use vstress::workbench::{
    capture_encode_with, characterize_from_capture, equivalent_params, WorkbenchError,
};
use vstress::{RunCache, RunCacheStats, RunSpec, RunStore, Table};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick profile's experiment set, cold, no store.
    ReproCold,
    /// Capture into a fresh store, then re-simulate from it.
    StoreResim,
    /// Open-loop `serve` over a fixed job list.
    ServeOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ReproCold, Workload::StoreResim, Workload::ServeOpen];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproCold => "repro-cold",
            Workload::StoreResim => "store-resim",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few seconds' worth (two clips, two frames, 20 jobs), so that a
    /// workload broken by a change fails fast in the benchmark's tests.
    Smoke,
}

impl Size {
    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    fn golden(self) -> &'static str {
        match self {
            Size::Full => include_str!("../golden/full.txt"),
            Size::Smoke => include_str!("../golden/smoke.txt"),
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: serve-open's arrival times.
    pub seed: u64,
    /// Measurement budget in seconds: sets serve-open's job count. The
    /// batch workloads run their set once.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Work size.
    pub size: Size,
    /// Scratch directory for stores and span files.
    pub work_dir: PathBuf,
    /// Whether tables must match the golden digests, not just the golden
    /// shapes. Digests only match a build made through `run.py` (see
    /// there); the tests, built by plain cargo, check shapes.
    pub check_digests: bool,
    /// The benchmark binary: the untraced store-resim runs its resim
    /// phase in a fresh process of it (`--resim-store`).
    pub exe: PathBuf,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("video.synth_calls", "count"),
    ("video.synth_ms", "ms"),
    ("codecs.encodes", "count"),
    ("codecs.frames", "count"),
    ("codecs.encode_ms", "ms"),
    ("codecs.plan_busy_ms", "ms"),
    ("codecs.plan_stall_ms", "ms"),
    ("codecs.decode_ms", "ms"),
    ("trace.events", "count"),
    ("trace.packed_mb", "MB"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.record_ms", "ms"),
    ("trace.window_ms", "ms"),
    ("exec.store_hits", "count"),
    ("exec.store_misses", "count"),
    ("exec.store_quarantined", "count"),
    ("exec.store_stream_mb", "MB"),
    ("exec.store_load_ms", "ms"),
    ("exec.capture_hit_ratio", "ratio"),
    ("exec.run_hit_ratio", "ratio"),
    ("exec.window_hit_ratio", "ratio"),
    ("exec.stream_captures", "count"),
    ("exec.warm_check_ms", "ms"),
    ("pipeline.events", "count"),
    ("pipeline.sim_instructions", "count"),
    ("pipeline.replay_ms", "ms"),
    ("pipeline.ns_per_event", "ns"),
    ("bpred.branches", "count"),
    ("bpred.replay_ms", "ms"),
    ("bpred.ns_per_branch", "ns"),
    ("sched.ms", "ms"),
    ("experiments.render_ms", "ms"),
    ("experiments.table1_ms", "ms"),
    ("experiments.fig01_ms", "ms"),
    ("experiments.fig02_ms", "ms"),
    ("experiments.table2_ms", "ms"),
    ("experiments.fig03_ms", "ms"),
    ("experiments.fig04_07_ms", "ms"),
    ("experiments.fig08_10_ms", "ms"),
    ("experiments.fig11_ms", "ms"),
    ("experiments.fig12_16_ms", "ms"),
    ("experiments.decode_ms", "ms"),
    ("experiments.profile_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p95_ms", "ms"),
    ("serve.ingress_max_depth", "count"),
    ("serve.characterized_max_depth", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.pipeline_stall_ms", "ms"),
    ("serve.sojourn_p50_ms", "ms"),
    ("serve.sojourn_p95_ms", "ms"),
    ("serve.sojourn_samples", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.limit_met_frac", "ratio"),
    ("store.capture_s", "s"),
    ("store.capture_rss_mb", "MB"),
    ("store.resim_s", "s"),
    ("store.resim_rss_mb", "MB"),
    ("store.mb", "MB"),
    ("sample.specs", "count"),
    ("traced_wall_s", "s"),
    ("unattributed_ms", "ms"),
];

/// Fixed latency limit on serve-open's sojourn p95.
pub const SOJOURN_LIMIT_MS: f64 = 1000.0;

/// Mean gap between serve-open arrivals: 10 jobs/s, which keeps the
/// two workers of the reference host about a third busy.
const SERVE_GAP_US: u64 = 100_000;

/// Resolution ladder of serve-open's jobs (divisor, weight): the quick
/// mix without its 1/16 rung, so that a 30 s run offers 300 jobs (p95
/// with fifteen beyond it) at a third of the workers' capacity.
const SERVE_LADDER: [(usize, u32); 2] = [(32, 60), (64, 40)];

/// Seed of the fixed serve-open job list.
const SERVE_MIX_SEED: u64 = 8;

/// Fewest jobs a serve-open run offers: p95 of 210 jobs has ten beyond it.
const SERVE_MIN_JOBS: usize = 210;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// The modelled cache the `resim` phase switches to (the quick profile
/// models a 1/16-scaled Broadwell hierarchy).
const RESIM_DIVISOR: usize = 8;

/// A third modelled cache for the traced store sample, so its
/// store-backed runs load streams instead of finding stored runs.
const SAMPLE_DIVISOR: usize = 4;

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// A line per failure.
    pub failures: Vec<String>,
    /// Human-readable notes (printed before the result line).
    pub notes: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Host metadata, probed before the set-up.
    pub host: Option<HostInfo>,
    /// Spans of the traced run, as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one workload in the requested mode.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let result = match (p.workload, p.trace) {
        (Workload::ReproCold, false) => repro_cold(p, &mut out),
        (Workload::ReproCold, true) => repro_cold_traced(p, &mut out),
        (Workload::StoreResim, false) => store_resim(p, &mut out),
        (Workload::StoreResim, true) => store_resim_traced(p, &mut out),
        (Workload::ServeOpen, false) => serve_open(p, &mut out),
        (Workload::ServeOpen, true) => serve_open_traced(p, &mut out),
    };
    if let Err(e) = result {
        out.fail(format!("workload error: {e}"));
    }
    out
}

// ---------------------------------------------------------------------
// Experiment runners

type Tables = Vec<(&'static str, Table)>;

/// A workload's error: a workbench or I/O failure.
type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// One `vstress-repro` experiment body: the tables it prints, in order.
struct Runner {
    id: &'static str,
    span: &'static str,
    run: fn(&ExperimentConfig) -> Result<Tables, WorkbenchError>,
}

/// The quick profile's experiment set in `vstress-repro` order.
const RUNNERS: [Runner; 11] = [
    Runner {
        id: "table1",
        span: "experiments.table1",
        run: |_| Ok(vec![("table1", catalogue::table1_vbench())]),
    },
    Runner {
        id: "fig01",
        span: "experiments.fig01",
        run: |c| Ok(vec![("fig01", runtime_quality::fig01_runtime_vs_crf(c)?.0)]),
    },
    Runner {
        id: "fig02",
        span: "experiments.fig02",
        run: |c| {
            Ok(vec![
                ("fig02a", runtime_quality::fig02a_bdrate(c)?.0),
                ("fig02b", runtime_quality::fig02b_psnr_vs_time(c)?),
            ])
        },
    },
    Runner {
        id: "table2",
        span: "experiments.table2",
        run: |c| Ok(vec![("table2", mix::table2_instruction_mix(c)?)]),
    },
    Runner {
        id: "fig03",
        span: "experiments.fig03",
        run: |c| Ok(vec![("fig03", mix::fig03_opmix_sweep(c)?)]),
    },
    Runner {
        id: "fig04_07",
        span: "experiments.fig04_07",
        run: |c| {
            let points = crf_sweep::crf_sweep(c)?;
            Ok(vec![
                ("fig04", crf_sweep::fig04_crf_sweep(&points)),
                ("fig05", crf_sweep::fig05_topdown(&points)),
                ("fig06", crf_sweep::fig06_microarch(&points)),
                ("fig07", crf_sweep::fig07_missrate(&points)),
            ])
        },
    },
    Runner {
        id: "fig08_10",
        span: "experiments.fig08_10",
        run: |c| {
            Ok(vec![
                ("fig08", cbp::fig08_cbp(c)?.0),
                ("fig09", cbp::fig09_cbp(c)?.0),
                ("fig10", cbp::fig10_cbp(c)?.0),
            ])
        },
    },
    Runner {
        id: "fig11",
        span: "experiments.fig11",
        run: |c| {
            let points = preset_sweep::preset_sweep(c)?;
            Ok(vec![
                ("fig11ab", preset_sweep::fig11ab_runtime_quality(&points)),
                ("fig11cde", preset_sweep::fig11cde_microarch(&points)),
            ])
        },
    },
    Runner {
        id: "fig12_16",
        span: "experiments.fig12_16",
        run: |c| {
            let (scaling, _) = threads::fig12_15_thread_scaling(c)?;
            let mut tables: Tables =
                ["fig12", "fig13", "fig14", "fig15"].into_iter().zip(scaling).collect();
            tables.push(("fig16", threads::fig16_topdown_threads(c)?));
            Ok(tables)
        },
    },
    Runner {
        id: "decode",
        span: "experiments.decode",
        run: |c| Ok(vec![("decode_cost", decode_cost::table_decode_vs_encode(c)?.0)]),
    },
    Runner {
        id: "profile",
        span: "experiments.profile",
        run: |c| Ok(vec![("hot_kernels", profile::table_hot_kernels(c)?)]),
    },
];

/// Every runner: repro-cold's set.
const REPRO_SET: [&str; 11] = [
    "table1", "fig01", "fig02", "table2", "fig03", "fig04_07", "fig08_10", "fig11", "fig12_16",
    "decode", "profile",
];

/// store-resim's set: the per-clip characterization runners plus the
/// thread-scaling and decode-cost studies. The headline-clip quality
/// sweeps (Figs. 1, 2 and 11) are left out to keep a run near the
/// measurement budget.
const STORE_SET: [&str; 6] = ["table2", "fig03", "fig04_07", "fig08_10", "fig12_16", "decode"];

/// Runs the runners named in `ids`, in set order, with a span per
/// runner when traced.
fn run_set(
    cfg: &ExperimentConfig,
    ids: &[&str],
    tr: Option<&Tracer>,
) -> Result<Tables, WorkbenchError> {
    let mut tables = Tables::new();
    for r in RUNNERS.iter().filter(|r| ids.contains(&r.id)) {
        let produced = match tr {
            Some(tr) => tr.span(r.span, || (r.run)(cfg))?,
            None => (r.run)(cfg)?,
        };
        tables.extend(produced);
    }
    Ok(tables)
}

/// The quick profile `vstress-repro --quick` runs, at `nproc` threads.
///
/// The batch workloads take no input from the seed: seeding the clip
/// synthesis changed the encode work by up to 7% between seeds, twice
/// the run-to-run noise of one seed, and the tables then had no golden
/// digest to match.
pub fn experiment_config(size: Size) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick().with_threads(nproc());
    if size == Size::Smoke {
        cfg.clips = vec!["desktop", "game1"];
        cfg.fidelity.frame_count = 2;
        cfg.preset_points = vec![4, 8];
        cfg.cbp_window = 50_000;
    }
    cfg
}

// ---------------------------------------------------------------------
// Output checks

/// One committed table: its shape (slug, title, rows) and the digest of
/// its printed text.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GoldenTable {
    slug: String,
    rows: usize,
    digest: u64,
    title: String,
}

fn parse_golden(text: &str) -> Vec<GoldenTable> {
    text.lines()
        .filter_map(|l| l.strip_prefix("table "))
        .filter_map(|l| {
            let mut it = l.splitn(4, ' ');
            Some(GoldenTable {
                slug: it.next()?.to_owned(),
                rows: it.next()?.parse().ok()?,
                digest: u64::from_str_radix(it.next()?, 16).ok()?,
                title: it.next()?.to_owned(),
            })
        })
        .collect()
}

fn digest(t: &Table) -> u64 {
    fnv64(t.to_string().as_bytes())
}

/// The golden file for `tables` (see `--bless`).
pub fn golden_text(tables: &[(&str, Table)]) -> String {
    let mut out = String::from("# table <slug> <rows> <fnv64 of the printed table> <title>\n");
    for (slug, t) in tables {
        out.push_str(&format!("table {slug} {} {:016x} {}\n", t.rows.len(), digest(t), t.title));
    }
    out
}

/// Checks each produced table against its golden entry: the shape, and
/// the digest when `digests` is set. Each table is one checked operation.
fn check_golden(
    out: &mut Outcome,
    golden: &str,
    digests: bool,
    phase: &str,
    tables: &[(&str, Table)],
) {
    let golden = parse_golden(golden);
    for (slug, t) in tables {
        let Some(g) = golden.iter().find(|g| g.slug == *slug) else {
            out.fail(format!("{phase}: table {slug} has no golden entry"));
            continue;
        };
        let shape = g.title == t.title && g.rows == t.rows.len();
        let exact = !digests || g.digest == digest(t);
        out.check(shape && exact, || {
            format!(
                "{phase}: table {slug} differs from golden (rows {} vs {}, digest {:016x} vs {:016x})",
                t.rows.len(),
                g.rows,
                digest(t),
                g.digest
            )
        });
    }
}

// ---------------------------------------------------------------------
// Shared measurement helpers

/// The end-to-end metrics of a run: its set-up time and its timed
/// phase's (wall s, cpu s, peak RSS MB).
fn end_to_end(setup_s: f64, (wall_s, cpu_s, peak_rss_mb): (f64, f64, f64)) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip([setup_s, wall_s, cpu_s, peak_rss_mb])
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Runs the workload's set-up `SETUP_REPS` times and returns the median
/// set-up time with the last repetition's inputs. The host is probed
/// before, outside the timing: its calibration loop is the benchmark's,
/// not the program's.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let v = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times).expect("SETUP_REPS > 0"), last.expect("SETUP_REPS > 0"))
}

/// A phase's wall, CPU and peak-RSS measurement.
struct Phase {
    t0: Instant,
    cpu0: f64,
}

impl Phase {
    fn start() -> Self {
        reset_peak_rss();
        Phase { t0: Instant::now(), cpu0: cpu_seconds() }
    }

    /// (wall s, cpu s, peak RSS MB) since `start`.
    fn end(&self) -> (f64, f64, f64) {
        (self.t0.elapsed().as_secs_f64(), cpu_seconds() - self.cpu0, peak_rss_mb())
    }
}

/// A store directory removed when dropped.
struct ScratchStore {
    dir: PathBuf,
    store: Arc<RunStore>,
}

impl ScratchStore {
    fn create(work_dir: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir.join(format!("store-{}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let store = Arc::new(RunStore::open(&dir)?);
        Ok(ScratchStore { dir, store })
    }

    fn mb(&self, kind: Option<&str>) -> f64 {
        let usage = self.store.disk_usage();
        let bytes: u64 =
            usage.kinds.iter().filter(|k| kind.is_none_or(|n| k.kind == n)).map(|k| k.bytes).sum();
        bytes as f64 / (1024.0 * 1024.0)
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------
// repro-cold

fn repro_cold(p: &Params, out: &mut Outcome) -> Res<()> {
    out.host = Some(HostInfo::probe());
    let (setup_s, cfg) = timed_setup(|| experiment_config(p.size));
    let phase = Phase::start();
    let tables = run_set(&cfg, &REPRO_SET, None)?;
    let (wall, cpu, rss) = phase.end();
    check_golden(out, p.size.golden(), p.check_digests, "repro-cold", &tables);
    out.notes.push(format!(
        "repro-cold: {} tables, wall {wall:.3} s, cpu {cpu:.3} s, peak RSS {rss:.1} MB, {} encodes",
        tables.len(),
        cfg.cache.stats().encodes
    ));
    out.metrics = end_to_end(setup_s, (wall, cpu, rss));
    Ok(())
}

fn repro_cold_traced(p: &Params, out: &mut Outcome) -> Res<()> {
    out.host = Some(HostInfo::probe());
    let cfg = experiment_config(p.size);
    let tr = Tracer::new(run_id(p));
    let mut layers = Layers::new();
    let sample = tr.span("run", || -> Res<LayerSample> {
        let tables = run_set(&cfg, &REPRO_SET, Some(&tr))?;
        check_golden(out, p.size.golden(), p.check_digests, "repro-cold", &tables);
        layers.exec_stats(&cfg.cache.stats());
        let warm = tr.span("experiments.render", || run_set(&cfg, &REPRO_SET, None))?;
        out.check(warm == tables, || "repro-cold: warm re-render differs from cold tables".into());
        let mid_crf = cfg.crf_points[cfg.crf_points.len() / 2];
        let specs: Vec<RunSpec> = CodecId::ALL
            .into_iter()
            .map(|c| cfg.spec(cfg.headline_clip, c, equivalent_params(c, mid_crf, 4)))
            .collect();
        layer_pass(&tr, &specs, None, cfg.cbp_window, cfg.max_threads)
    })?;
    layers.set("experiments.render_ms", tr.total_ms("experiments.render"));
    finish_traced(out, &tr, layers, &sample);
    Ok(())
}

// ---------------------------------------------------------------------
// store-resim

/// The capture and resim phases' results.
struct StoreRun {
    capture: Tables,
    resim_tables: usize,
    capture_phase: (f64, f64, f64),
    resim_phase: (f64, f64, f64),
    store_mb: f64,
    stream_mb: f64,
    cache_stats: Vec<RunCacheStats>,
}

/// Capture into `store`, check a warm re-run, then re-simulate under
/// [`RESIM_DIVISOR`]. Every output check lands in `out`.
fn store_phases(
    p: &Params,
    out: &mut Outcome,
    store: &ScratchStore,
    tr: Option<&Tracer>,
) -> Res<StoreRun> {
    let base = experiment_config(p.size);
    let capture_cfg = base.clone().with_store(Arc::clone(&store.store));
    let phase = Phase::start();
    let capture = run_set(&capture_cfg, &STORE_SET, tr)?;
    let capture_phase = phase.end();
    check_golden(out, p.size.golden(), p.check_digests, "store-resim capture", &capture);
    let store_mb = store.mb(None);
    let stream_mb = store.mb(Some("stream"));

    // Warm check: a fresh cache over the same store and model must
    // reproduce every table without encoding.
    let warm_cfg = base.with_store(Arc::clone(&store.store));
    let warm_run = || run_set(&warm_cfg, &STORE_SET, None);
    let warm = match tr {
        Some(tr) => tr.span("exec.warm_check", warm_run)?,
        None => warm_run()?,
    };
    out.check(warm == capture, || "store-resim: warm re-run tables differ from capture".into());
    let warm_stats = warm_cfg.cache.stats();
    let warm_encodes = warm_stats.encodes;
    out.check(warm_encodes == 0, || format!("store-resim: warm re-run encoded {warm_encodes}×"));
    let mut cache_stats = vec![capture_cfg.cache.stats(), warm_stats];
    drop((capture_cfg, warm_cfg));

    // Resim: another modelled cache over the same captures. Re-simulating
    // a warm store is a new process's work, which does not hold the
    // captures this one has in memory: the untraced run measures it in
    // one. The traced run keeps it in-process, for its spans.
    let (resim, resim_phase, rs) = match tr {
        None => resim_in_child(p, &store.dir)?,
        Some(tr) => {
            let (tables, phase, stats) = resim(p.size, Arc::clone(&store.store), Some(tr))?;
            (golden_text(&tables), phase, stats)
        }
    };
    out.check(rs.encodes == 0 && rs.stream_captures == 0, || {
        format!(
            "store-resim: resim ran {} encodes, {} stream captures",
            rs.encodes, rs.stream_captures
        )
    });
    let resim_tables = parse_golden(&resim).len();
    out.check(resim_tables == capture.len(), || {
        format!("store-resim resim: {resim_tables} tables vs {}", capture.len())
    });
    check_golden(out, &resim, false, "store-resim resim", &capture);
    cache_stats.push(rs);
    Ok(StoreRun {
        capture,
        resim_tables,
        capture_phase,
        resim_phase,
        store_mb,
        stream_mb,
        cache_stats,
    })
}

/// Re-simulates the store set from `store` on a fresh cache under
/// [`RESIM_DIVISOR`]: the tables, the phase's measurement and the cache
/// counters.
fn resim(
    size: Size,
    store: Arc<RunStore>,
    tr: Option<&Tracer>,
) -> Res<(Tables, (f64, f64, f64), RunCacheStats)> {
    let mut cfg = experiment_config(size).with_store(store);
    cfg.cache_divisor = RESIM_DIVISOR;
    let phase = Phase::start();
    let tables = run_set(&cfg, &STORE_SET, tr)?;
    Ok((tables, phase.end(), cfg.cache.stats()))
}

/// The resim phase over the store in `dir`, as the `--resim-store`
/// process prints it: a `resim <wall s> <cpu s> <peak RSS MB> <encodes>
/// <stream captures>` line, then the tables in the golden-file format.
///
/// # Errors
///
/// Returns a store-open or runner error.
pub fn resim_report(size: Size, dir: &Path) -> Res<String> {
    let (tables, (wall, cpu, rss), st) = resim(size, Arc::new(RunStore::open(dir)?), None)?;
    Ok(format!(
        "resim {wall} {cpu} {rss} {} {}\n{}",
        st.encodes,
        st.stream_captures,
        golden_text(&tables)
    ))
}

/// Runs [`resim_report`] in a fresh process of the benchmark binary and
/// parses what it prints.
fn resim_in_child(p: &Params, dir: &Path) -> Res<(String, (f64, f64, f64), RunCacheStats)> {
    let child = Command::new(&p.exe)
        .arg("--resim-store")
        .arg(dir)
        .args(["--size", p.size.name()])
        .stderr(Stdio::inherit())
        .output()?;
    if !child.status.success() {
        return Err(format!("resim process failed: {}", child.status).into());
    }
    let text = String::from_utf8(child.stdout)?;
    let head = text.lines().find_map(|l| l.strip_prefix("resim ")).ok_or("no resim line")?;
    let v = head.split(' ').map(str::parse).collect::<Result<Vec<f64>, _>>()?;
    let &[wall, cpu, rss, encodes, stream_captures] = &v[..] else {
        return Err(format!("malformed resim line {head:?}").into());
    };
    let stats = RunCacheStats {
        encodes: encodes as u64,
        stream_captures: stream_captures as u64,
        ..RunCacheStats::default()
    };
    Ok((text, (wall, cpu, rss), stats))
}

fn store_resim(p: &Params, out: &mut Outcome) -> Res<()> {
    out.host = Some(HostInfo::probe());
    // Set-up opens the store. Its directory is created first, untimed:
    // creating a directory took from 40 to 360 µs on the reference
    // host's shared disk, a swing no change to the program causes.
    let mut store = ScratchStore::create(&p.work_dir)?;
    let (setup_s, opened) = timed_setup(|| RunStore::open(&store.dir));
    store.store = Arc::new(opened?);
    let s = store_phases(p, out, &store, None)?;
    let ((cw, cc, cr), (rw, rc, rr)) = (s.capture_phase, s.resim_phase);
    out.notes.push(format!(
        "store-resim: capture {cw:.3} s at {cr:.1} MB RSS, store {:.1} MB ({:.1} MB streams); \
         resim {rw:.3} s at {rr:.1} MB RSS; {} + {} tables",
        s.store_mb,
        s.stream_mb,
        s.capture.len(),
        s.resim_tables
    ));
    // Peak RSS is the resim process's, the part that repeats for every
    // modelled machine. The capture phase's peak is bimodal (about 1.4 or
    // 1.6 GB, as two threads' store writes overlap or not); it is
    // reported in the notes and by the traced run.
    out.metrics = end_to_end(setup_s, (cw + rw, cc + rc, rr));
    Ok(())
}

fn store_resim_traced(p: &Params, out: &mut Outcome) -> Res<()> {
    out.host = Some(HostInfo::probe());
    let store = ScratchStore::create(&p.work_dir)?;
    let tr = Tracer::new(run_id(p));
    let mut layers = Layers::new();
    let sample = tr.span("run", || -> Res<LayerSample> {
        let s = store_phases(p, out, &store, Some(&tr))?;
        for st in &s.cache_stats {
            layers.exec_stats(st);
        }
        layers.set("store.capture_s", s.capture_phase.0);
        layers.set("store.capture_rss_mb", s.capture_phase.2);
        layers.set("store.resim_s", s.resim_phase.0);
        layers.set("store.resim_rss_mb", s.resim_phase.2);
        layers.set("store.mb", s.store_mb);
        layers.set("exec.store_stream_mb", s.stream_mb);
        let cfg = experiment_config(p.size);
        let mid_crf = cfg.crf_points[cfg.crf_points.len() / 2];
        let specs: Vec<RunSpec> = cfg
            .clips
            .iter()
            .map(|clip| {
                let mut spec = cfg.spec(clip, CodecId::SvtAv1, EncoderParams::new(mid_crf, 4));
                spec.cache_divisor = SAMPLE_DIVISOR;
                spec
            })
            .collect();
        layer_pass(&tr, &specs, Some(&store.store), cfg.cbp_window, cfg.max_threads)
    })?;
    let st = store.store.stats();
    layers.set("exec.store_hits", st.hits as f64);
    layers.set("exec.store_misses", st.misses as f64);
    layers.set("exec.store_quarantined", st.quarantined as f64);
    layers.set("exec.warm_check_ms", tr.total_ms("exec.warm_check"));
    layers
        .set("exec.store_load_ms", tr.total_ms("exec.store_run") - tr.total_ms("pipeline.replay"));
    finish_traced(out, &tr, layers, &sample);
    Ok(())
}

// ---------------------------------------------------------------------
// serve-open

/// The open-loop traffic and serve configuration.
///
/// The jobs are one fixed draw of the traffic mix, in their drawn order;
/// the seed draws their arrival times, scaled so that the last job
/// arrives at `jobs × gap` and every run offers the same rate. When the
/// seed drew the jobs too, CPU time and peak RSS varied by ±20% between
/// seeds; unscaled, the arrival span alone moved `wall_s` by 11%.
fn serve_inputs(p: &Params) -> (Vec<JobSpec>, ServeConfig) {
    let mut mix = TrafficConfig::quick(SERVE_MIX_SEED, 20);
    match p.size {
        Size::Full => {
            let jobs = (p.seconds * 1_000_000 / SERVE_GAP_US) as usize;
            mix.jobs = jobs.max(SERVE_MIN_JOBS);
            mix.mean_gap_us = SERVE_GAP_US;
            mix.ladder = SERVE_LADDER.to_vec();
        }
        Size::Smoke => {
            mix.mean_gap_us = 20_000;
            mix.frame_count = 2;
        }
    }
    let mut jobs = serve::generate(&mix);
    let schedule = serve::generate(&TrafficConfig { seed: p.seed, ..mix });
    let span = u128::from(mix.mean_gap_us) * jobs.len() as u128;
    let last = u128::from(schedule.last().map_or(1, |j| j.arrival_us.max(1)));
    for (job, slot) in jobs.iter_mut().zip(&schedule) {
        job.arrival_us = u64::try_from(u128::from(slot.arrival_us) * span / last)
            .expect("arrival times are bounded by jobs × gap");
    }
    let cfg = ServeConfig {
        workers: nproc(),
        ingress: IngressPolicy::Reject,
        pace: 1.0,
        ..ServeConfig::default()
    };
    (jobs, cfg)
}

/// Checks a serve report: drained, nothing failed, and completed jobs
/// sharing a work key agree on every deterministic result. Each offered
/// job is one operation.
fn check_serve(out: &mut Outcome, report: &ServeReport) {
    let mut seen: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let mut disagreements = 0;
    for o in &report.completed {
        let result = (o.bits, o.psnr.to_bits(), o.instructions);
        let first = *seen.entry(format!("{:?}", o.job.work_key())).or_insert(result);
        if first != result {
            disagreements += 1;
        }
    }
    let failed = report.failed.len() as u64 + disagreements;
    out.attempted += report.offered as u64;
    out.failed += failed;
    if failed > 0 {
        out.failures.push(format!(
            "serve-open: {} failed jobs, {disagreements} results disagree with an earlier job of \
             the same work key",
            report.failed.len()
        ));
    }
    out.check(report.drained, || "serve-open: pipeline did not drain".into());
}

/// Sojourn samples with refused, failed and shed jobs counted as waiting
/// the whole run (they miss any latency limit).
fn sojourns(report: &ServeReport) -> Vec<f64> {
    let served: Vec<f64> = report.completed.iter().map(|o| o.wall_ms).collect();
    let missed = report.failed.len() + report.rejected.len() + report.shed_on_shutdown.len();
    let whole_run = report.wall_seconds * 1e3;
    with_misses(&served, missed).into_iter().map(|l| l.min(whole_run)).collect()
}

fn serve_notes(out: &mut Outcome, report: &ServeReport, sojourn: &[f64]) -> (f64, f64) {
    let missed = report.failed.len() + report.rejected.len() + report.shed_on_shutdown.len();
    let shed_frac = missed as f64 / report.offered.max(1) as f64;
    let met = met_limit_share(sojourn, SOJOURN_LIMIT_MS).unwrap_or(0.0);
    let tail = tail_percentile(sojourn, 10)
        .map_or("no percentile has ten samples beyond it".to_owned(), |(p, v)| {
            format!("p{p} {v:.1} ms")
        });
    out.notes.push(format!(
        "serve-open: {} offered, {} completed, {} rejected, {} failed, {} shed; wall {:.3} s; \
         sojourn p50 {:.1} ms, tail {tail} over {} samples; {:.1}% within the {SOJOURN_LIMIT_MS} ms \
         limit",
        report.offered,
        report.completed.len(),
        report.rejected.len(),
        report.failed.len(),
        report.shed_on_shutdown.len(),
        report.wall_seconds,
        percentile(sojourn, 50.0).unwrap_or(0.0),
        sojourn.len(),
        met * 100.0
    ));
    (shed_frac, met)
}

fn serve_open(p: &Params, out: &mut Outcome) -> Res<()> {
    out.host = Some(HostInfo::probe());
    let (setup_s, (jobs, cfg)) = timed_setup(|| serve_inputs(p));
    let phase = Phase::start();
    let report = serve::serve(&cfg, &jobs, &AtomicBool::new(false));
    let (wall, cpu, rss) = phase.end();
    check_serve(out, &report);
    let sojourn = sojourns(&report);
    serve_notes(out, &report, &sojourn);
    out.metrics = end_to_end(setup_s, (wall, cpu, rss));
    Ok(())
}

fn serve_open_traced(p: &Params, out: &mut Outcome) -> Res<()> {
    out.host = Some(HostInfo::probe());
    let (jobs, cfg) = serve_inputs(p);
    let tr = Tracer::new(run_id(p));
    let mut layers = Layers::new();
    let sample = tr.span("run", || -> Res<LayerSample> {
        let report = tr.span("serve.serve", || serve::serve(&cfg, &jobs, &AtomicBool::new(false)));
        check_serve(out, &report);
        let sojourn = sojourns(&report);
        let (shed_frac, met) = serve_notes(out, &report, &sojourn);
        layers.exec_stats(&cfg.cache.stats());
        layers.set("serve.sojourn_p50_ms", percentile(&sojourn, 50.0).unwrap_or(0.0));
        layers.set("serve.sojourn_p95_ms", percentile(&sojourn, 95.0).unwrap_or(0.0));
        layers.set("serve.sojourn_samples", sojourn.len() as f64);
        layers.set("serve.shed_frac", shed_frac);
        layers.set("serve.limit_met_frac", met);
        layers.set("serve.ingress_max_depth", report.gauges.ingress.max_depth as f64);
        layers.set("serve.characterized_max_depth", report.gauges.characterized.max_depth as f64);
        layers.set("serve.completed", report.completed.len() as f64);
        layers.set("serve.rejected", report.rejected.len() as f64);
        layers.set("serve.failed", report.failed.len() as f64);
        let stall: u64 = report.completed.iter().map(|o| o.pipeline_stall_ns).sum();
        layers.set("serve.pipeline_stall_ms", stall as f64 / 1e6);

        // Service time: each job's `RunCache::run`, serially, on a fresh
        // cache — the work a worker does per job, without queueing.
        let cache = RunCache::new();
        for job in &jobs {
            tr.span("exec.run", || cache.run(&job.run_spec()))?;
        }
        let service = tr.durations_ms("exec.run");
        layers.set("serve.service_p50_ms", percentile(&service, 50.0).unwrap_or(0.0));
        layers.set("serve.service_p95_ms", percentile(&service, 95.0).unwrap_or(0.0));

        let mut specs = serve::unique_specs(&jobs);
        specs.truncate(4);
        layer_pass(&tr, &specs, None, 400_000, 8)
    })?;
    finish_traced(out, &tr, layers, &sample);
    Ok(())
}

// ---------------------------------------------------------------------
// The layer sample

/// Counts gathered by [`layer_pass`].
#[derive(Debug, Default)]
struct LayerSample {
    specs: u64,
    frames: u64,
    plan_busy_ns: u64,
    plan_stall_ns: u64,
    events: u64,
    packed_bytes: u64,
    sim_instructions: u64,
    branches: u64,
}

/// Times each layer one call at a time over `specs`: synthesis, a
/// counting encode, the recording encode, replay through the core model,
/// the branch-window slice and predictor replay, decode and scheduling,
/// and — given a store — a store-backed `RunCache::run`.
fn layer_pass(
    tr: &Tracer,
    specs: &[RunSpec],
    store: Option<&Arc<RunStore>>,
    window: u64,
    max_threads: usize,
) -> Res<LayerSample> {
    let mut s = LayerSample::default();
    for spec in specs {
        s.specs += 1;
        let clip = tr.span("video.synthesize", || {
            vbench::clip(spec.clip).map(|c| c.synthesize(&spec.fidelity))
        })?;
        let encoder = Encoder::new(spec.codec, spec.params)?;
        let (tile_workers, frame_workers) = (spec.tile_workers.max(1), spec.frame_workers.max(1));
        let counted = tr.span("codecs.encode", || {
            encoder.encode_threaded(&clip, &mut CountingProbe::new(), tile_workers, frame_workers)
        })?;
        s.frames += counted.tasks.frames.len() as u64;
        for f in &counted.tasks.frames {
            s.plan_busy_ns += f.pipeline.busy_ns;
            s.plan_stall_ns += f.pipeline.stall_ns;
        }
        let cap = tr.span("trace.capture_encode", || capture_encode_with(spec, &clip, None))?;
        s.events += cap.stream.events();
        s.packed_bytes += cap.stream.packed_bytes() as u64;
        let run = tr.span("pipeline.replay", || characterize_from_capture(spec, &cap));
        s.sim_instructions += run.core.instructions;
        let (records, retired) = tr.span("trace.window", || {
            let total = cap.mix.total();
            let mut probe = BranchWindowProbe::mid_run(total, window.min(total));
            cap.stream.replay(&mut probe);
            let retired = probe.window_retired().max(1);
            (probe.into_records(), retired)
        });
        tr.span("bpred.run_with_window", || {
            for mut predictor in cbp::paper_predictors() {
                s.branches += harness::run_with_window(&mut predictor, &records, retired).branches;
            }
        });
        tr.span("codecs.decode", || {
            Decoder::new().decode(&cap.bitstream, &mut CountingProbe::new())
        })?;
        tr.span("sched.speedup_curve", || {
            speedup_curve(&build_task_graph(spec.codec, &cap.tasks), max_threads)
        });
        if let Some(store) = store {
            tr.span("exec.store_run", || RunCache::with_store(Arc::clone(store)).run(spec))?;
        }
    }
    Ok(s)
}

/// Per-layer metric values, every name present, plus the hit and miss
/// counts behind the `exec.*_hit_ratio` metrics.
struct Layers {
    values: BTreeMap<&'static str, f64>,
    hits_misses: BTreeMap<&'static str, (u64, u64)>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
            hits_misses: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.values.contains_key(name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// Accumulates a run cache's counters.
    fn exec_stats(&mut self, st: &RunCacheStats) {
        *self.values.get_mut("codecs.encodes").expect("listed") += st.encodes as f64;
        *self.values.get_mut("exec.stream_captures").expect("listed") += st.stream_captures as f64;
        for (name, hits, misses) in [
            ("exec.capture_hit_ratio", st.capture_hits, st.capture_misses),
            ("exec.run_hit_ratio", st.run_hits, st.run_misses),
            ("exec.window_hit_ratio", st.window_hits, st.window_misses),
        ] {
            let e = self.hits_misses.entry(name).or_default();
            e.0 += hits;
            e.1 += misses;
        }
        for (&name, &(hits, misses)) in &self.hits_misses.clone() {
            self.set(name, ratio(hits as f64, (hits + misses) as f64));
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills the layer metrics the span tree and `sample` give, and moves
/// the metrics, spans and unattributed time into `out`.
fn finish_traced(out: &mut Outcome, tr: &Tracer, mut layers: Layers, s: &LayerSample) {
    let spans = tr.spans();
    let own = tr.self_times_ns();
    let root = spans.iter().find(|sp| sp.parent.is_none()).expect("a root span");
    layers.set("traced_wall_s", root.duration_ns() as f64 / 1e9);
    layers.set("unattributed_ms", own[root.id] as f64 / 1e6);
    layers.set("sample.specs", s.specs as f64);
    layers.set("video.synth_calls", tr.count("video.synthesize") as f64);
    layers.set("video.synth_ms", tr.total_ms("video.synthesize"));
    layers.set("codecs.frames", s.frames as f64);
    layers.set("codecs.encode_ms", tr.total_ms("codecs.encode"));
    layers.set("codecs.plan_busy_ms", s.plan_busy_ns as f64 / 1e6);
    layers.set("codecs.plan_stall_ms", s.plan_stall_ns as f64 / 1e6);
    layers.set("codecs.decode_ms", tr.total_ms("codecs.decode"));
    layers.set("trace.events", s.events as f64);
    layers.set("trace.packed_mb", s.packed_bytes as f64 / (1024.0 * 1024.0));
    layers.set("trace.bytes_per_event", ratio(s.packed_bytes as f64, s.events as f64));
    layers
        .set("trace.record_ms", tr.total_ms("trace.capture_encode") - tr.total_ms("codecs.encode"));
    layers.set("trace.window_ms", tr.total_ms("trace.window"));
    let replay_ms = tr.total_ms("pipeline.replay");
    layers.set("pipeline.events", s.events as f64);
    layers.set("pipeline.sim_instructions", s.sim_instructions as f64);
    layers.set("pipeline.replay_ms", replay_ms);
    layers.set("pipeline.ns_per_event", ratio(replay_ms * 1e6, s.events as f64));
    let bpred_ms = tr.total_ms("bpred.run_with_window");
    layers.set("bpred.branches", s.branches as f64);
    layers.set("bpred.replay_ms", bpred_ms);
    layers.set("bpred.ns_per_branch", ratio(bpred_ms * 1e6, s.branches as f64));
    layers.set("sched.ms", tr.total_ms("sched.speedup_curve"));
    for r in &RUNNERS {
        let metric = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_prefix(r.span).is_some_and(|rest| rest == "_ms"))
            .expect("a per-layer metric per runner");
        layers.set(metric, tr.total_ms(r.span));
    }
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, value: layers.values[name], unit })
        .collect();
    out.spans_jsonl = Some(tr.to_jsonl());
}

fn run_id(p: &Params) -> String {
    format!("{}-seed{}-pid{}", p.workload.name(), p.seed, std::process::id())
}

/// The golden file for `size`: repro-cold's tables.
///
/// # Errors
///
/// Returns the first runner error.
pub fn bless(size: Size) -> Result<String, Box<dyn std::error::Error>> {
    let cfg = experiment_config(size);
    let tables = run_set(&cfg, &REPRO_SET, None)?;
    Ok(golden_text(&tables))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(title: &str, rows: &[&str]) -> Table {
        let mut t = Table::new(title, &["k"]);
        for r in rows {
            t.push_row(vec![(*r).to_owned()]);
        }
        t
    }

    #[test]
    fn golden_checks_digests_and_shapes() {
        let tables = vec![("a", table("A", &["1", "2"])), ("b", table("B", &["3"]))];
        let golden = golden_text(&tables);
        let mut out = Outcome::default();
        check_golden(&mut out, &golden, true, "t", &tables);
        assert!(out.correct() && out.attempted == 2);

        // A wrong digest fails only when digests are checked.
        let wrong = golden.replace(&format!("{:016x}", digest(&tables[0].1)), "00000000000000ff");
        let mut out = Outcome::default();
        check_golden(&mut out, &wrong, true, "t", &tables);
        assert_eq!((out.attempted, out.failed), (2, 1));
        let mut out = Outcome::default();
        check_golden(&mut out, &wrong, false, "t", &tables);
        assert!(out.correct());

        // A changed row count or a table missing from the golden fails
        // either way.
        let changed = vec![("a", table("A", &["1"])), ("c", table("C", &[]))];
        let mut out = Outcome::default();
        check_golden(&mut out, &golden, false, "t", &changed);
        assert_eq!((out.attempted, out.failed), (2, 2));
    }

    #[test]
    fn serve_seeds_change_only_arrival_times() {
        let params = |seed| Params {
            workload: Workload::ServeOpen,
            seed,
            seconds: 30,
            trace: false,
            size: Size::Full,
            work_dir: PathBuf::new(),
            check_digests: false,
            exe: PathBuf::new(),
        };
        let (a, _) = serve_inputs(&params(1));
        let (b, _) = serve_inputs(&params(2));
        assert!(a.len() >= SERVE_MIN_JOBS && a.len() == b.len());
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id && x.work_key() == y.work_key()));
        assert_eq!(a.last().unwrap().arrival_us, SERVE_GAP_US * a.len() as u64);
        assert_eq!(a.last().unwrap().arrival_us, b.last().unwrap().arrival_us);
        assert!(a.iter().zip(&b).any(|(x, y)| x.arrival_us != y.arrival_us));
    }

    #[test]
    fn every_runner_has_its_per_layer_metric() {
        for r in &RUNNERS {
            let metric = format!("{}_ms", r.span);
            assert!(PER_LAYER.iter().any(|&(n, _)| n == metric), "{metric}");
            assert!(REPRO_SET.contains(&r.id));
        }
        assert!(STORE_SET.iter().all(|id| REPRO_SET.contains(id)));
    }
}
