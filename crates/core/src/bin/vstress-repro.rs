//! Regenerates every table and figure of the paper.
//!
//! ```text
//! vstress-repro                    # quick profile, all experiments
//! vstress-repro --quick            # the same, spelled out (CI uses this)
//! vstress-repro --paper            # full profile (slow; used for EXPERIMENTS.md)
//! vstress-repro --csv out/         # also write each table as CSV into out/
//! vstress-repro --threads 4        # size of the encode worker pool
//! vstress-repro --tile-workers 4   # intra-encode tile/wavefront threads
//! vstress-repro --frame-workers 4  # frames in flight per encode
//! vstress-repro --store cache/     # persist results; repeat runs resume
//! vstress-repro --time             # per-experiment wall clock on stderr
//! vstress-repro fig01 fig05        # subset of experiments
//! vstress-repro --store cache/ store-stats   # store maintenance report
//! ```
//!
//! With `--store DIR`, completed characterization runs (and branch
//! windows / decode-cost pairs) persist under `DIR`, so an interrupted
//! or repeated invocation of the same profile reloads them instead of
//! re-encoding — the second run performs zero encodes and prints
//! byte-identical tables. `--no-store` (the default) disables it; store
//! diagnostics go to stderr only, so stdout stays comparable across
//! runs.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use vstress::cli::{self, FlagSpec};
use vstress::experiments::{
    catalogue, cbp, crf_sweep, decode_cost, mix, preset_sweep, profile, runtime_quality, threads,
    ExperimentConfig,
};
use vstress::{RunStore, Table};

/// Every flag this binary accepts; anything else `--`-prefixed is a
/// usage error (exit 2), as are missing or flag-like values.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::switch("--quick", "quick profile (the default, spelled out)"),
    FlagSpec::switch("--paper", "full profile (slow; behind EXPERIMENTS.md)"),
    FlagSpec::switch("--time", "per-experiment wall clock on stderr"),
    FlagSpec::value("--csv", "DIR", "also write each table as CSV into DIR"),
    FlagSpec::value("--threads", "N", "encode worker pool size (positive)"),
    FlagSpec::value("--tile-workers", "N", "tile/wavefront threads per encode (positive)"),
    FlagSpec::value("--frame-workers", "N", "frames in flight per encode (positive)"),
    FlagSpec::value("--store", "DIR", "persist results; repeat runs resume"),
    FlagSpec::switch("--no-store", "disable the store (wins over --store)"),
];

/// Prints a usage error plus the flag table and exits 2.
fn usage_error(e: &cli::CliError) -> ! {
    eprintln!("error: {e}");
    eprint!("{}", cli::usage("vstress-repro", "[flags] [experiment ids...]", FLAGS));
    std::process::exit(cli::USAGE_EXIT.into());
}

/// Every experiment id accepted as a positional argument.
///
/// `store-stats` is a maintenance report, not an experiment: it prints
/// the attached store's on-disk footprint (entries and bytes per kind,
/// plus quarantined files) and runs **only when explicitly named**, so
/// the default experiment set's stdout stays byte-comparable.
const EXPERIMENT_IDS: &[&str] = &[
    "table1",
    "fig01",
    "fig02",
    "fig02a",
    "fig02b",
    "table2",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "decode",
    "profile",
    "store-stats",
];

/// Prints a table and optionally mirrors it to `<csv_dir>/<slug>.csv`.
///
/// A failed CSV write is an error: `--csv` promises a complete artifact
/// directory, so a truncated one must fail the process, not warn.
fn emit(csv_dir: &Option<PathBuf>, slug: &str, table: &Table) -> std::io::Result<()> {
    println!("{table}");
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    }
    Ok(())
}

/// Runs one experiment body, reporting its wall clock on stderr when
/// `--time` is set. Stdout carries only the tables either way, so runs
/// stay byte-comparable.
fn timed(
    enabled: bool,
    id: &str,
    body: impl FnOnce() -> std::io::Result<()>,
) -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    let r = body();
    if enabled {
        eprintln!("vstress-repro: [time] {id}: {:.3}s", t0.elapsed().as_secs_f64());
    }
    r
}

fn run(
    cfg: &ExperimentConfig,
    want: impl Fn(&str) -> bool,
    csv_dir: &Option<PathBuf>,
    time: bool,
) -> std::io::Result<()> {
    if want("table1") {
        timed(time, "table1", || emit(csv_dir, "table1", &catalogue::table1_vbench()))?;
    }
    if want("fig01") {
        timed(time, "fig01", || {
            let (t, _) = runtime_quality::fig01_runtime_vs_crf(cfg).expect("fig01");
            emit(csv_dir, "fig01", &t)
        })?;
    }
    if want("fig02") || want("fig02a") || want("fig02b") {
        timed(time, "fig02", || {
            let (t, _) = runtime_quality::fig02a_bdrate(cfg).expect("fig02a");
            emit(csv_dir, "fig02a", &t)?;
            emit(csv_dir, "fig02b", &runtime_quality::fig02b_psnr_vs_time(cfg).expect("fig02b"))
        })?;
    }
    if want("table2") {
        timed(time, "table2", || {
            emit(csv_dir, "table2", &mix::table2_instruction_mix(cfg).expect("table2"))
        })?;
    }
    if want("fig03") {
        timed(time, "fig03", || {
            emit(csv_dir, "fig03", &mix::fig03_opmix_sweep(cfg).expect("fig03"))
        })?;
    }
    if want("fig04") || want("fig05") || want("fig06") || want("fig07") {
        timed(time, "fig04-07", || {
            let points = crf_sweep::crf_sweep(cfg).expect("crf sweep");
            emit(csv_dir, "fig04", &crf_sweep::fig04_crf_sweep(&points))?;
            emit(csv_dir, "fig05", &crf_sweep::fig05_topdown(&points))?;
            emit(csv_dir, "fig06", &crf_sweep::fig06_microarch(&points))?;
            emit(csv_dir, "fig07", &crf_sweep::fig07_missrate(&points))
        })?;
    }
    if want("fig08") {
        timed(time, "fig08", || {
            let (t, _) = cbp::fig08_cbp(cfg).expect("fig08");
            emit(csv_dir, "fig08", &t)
        })?;
    }
    if want("fig09") {
        timed(time, "fig09", || {
            let (t, _) = cbp::fig09_cbp(cfg).expect("fig09");
            emit(csv_dir, "fig09", &t)
        })?;
    }
    if want("fig10") {
        timed(time, "fig10", || {
            let (t, _) = cbp::fig10_cbp(cfg).expect("fig10");
            emit(csv_dir, "fig10", &t)
        })?;
    }
    if want("fig11") {
        timed(time, "fig11", || {
            let points = preset_sweep::preset_sweep(cfg).expect("fig11");
            emit(csv_dir, "fig11ab", &preset_sweep::fig11ab_runtime_quality(&points))?;
            emit(csv_dir, "fig11cde", &preset_sweep::fig11cde_microarch(&points))
        })?;
    }
    if want("fig12") || want("fig13") || want("fig14") || want("fig15") {
        timed(time, "fig12-15", || {
            let (tables, _) = threads::fig12_15_thread_scaling(cfg).expect("fig12-15");
            for (i, t) in tables.iter().enumerate() {
                emit(csv_dir, &format!("fig{}", 12 + i), t)?;
            }
            Ok(())
        })?;
    }
    if want("fig16") {
        timed(time, "fig16", || {
            emit(csv_dir, "fig16", &threads::fig16_topdown_threads(cfg).expect("fig16"))
        })?;
    }
    if want("decode") {
        timed(time, "decode", || {
            let (t, _) = decode_cost::table_decode_vs_encode(cfg).expect("decode cost");
            emit(csv_dir, "decode_cost", &t)
        })?;
    }
    if want("store-stats") {
        if let Some(store) = cfg.cache.store() {
            timed(time, "store-stats", || emit(csv_dir, "store_stats", &store_stats_table(store)))?;
        }
    }
    if want("profile") {
        timed(time, "profile", || {
            emit(csv_dir, "hot_kernels", &profile::table_hot_kernels(cfg).expect("profile"))
        })?;
    }
    Ok(())
}

/// The `store-stats` maintenance report: one row per entry kind plus a
/// quarantine total, from [`RunStore::disk_usage`].
fn store_stats_table(store: &RunStore) -> Table {
    let usage = store.disk_usage();
    let mut t = Table::new(
        format!("Store statistics (schema v{})", vstress::SCHEMA_VERSION),
        &["kind", "entries", "bytes"],
    );
    for k in &usage.kinds {
        t.push_row(vec![k.kind.clone(), k.entries.to_string(), k.bytes.to_string()]);
    }
    t.push_row(vec!["(quarantined)".into(), usage.quarantined.to_string(), "-".into()]);
    t
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(&args, FLAGS) {
        Ok(p) => p,
        Err(e) => usage_error(&e),
    };
    let paper = parsed.switch("--paper");
    // `--quick` names the default profile explicitly (scripts and CI can
    // state their intent); it only conflicts with `--paper`.
    if paper && parsed.switch("--quick") {
        eprintln!("--quick and --paper are mutually exclusive");
        std::process::exit(cli::USAGE_EXIT.into());
    }
    let time = parsed.switch("--time");
    let csv_dir: Option<PathBuf> = parsed.value("--csv").map(PathBuf::from);
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let threads: Option<usize> = match parsed.parsed("--threads", cli::positive_usize) {
        Ok(t) => t,
        Err(e) => usage_error(&e),
    };
    // Intra-encode parallelism; stdout is byte-identical at any value
    // (the probe-merge contract), so CI compares runs across settings.
    let tile_workers: Option<usize> = match parsed.parsed("--tile-workers", cli::positive_usize) {
        Ok(t) => t,
        Err(e) => usage_error(&e),
    };
    // Cross-frame pipelining; equally invisible on stdout.
    let frame_workers: Option<usize> = match parsed.parsed("--frame-workers", cli::positive_usize) {
        Ok(t) => t,
        Err(e) => usage_error(&e),
    };
    // `--no-store` (the default) wins over `--store` if both appear.
    let store_dir: Option<PathBuf> =
        if parsed.switch("--no-store") { None } else { parsed.value("--store").map(PathBuf::from) };
    let unknown: Vec<&String> =
        parsed.positionals.iter().filter(|p| !EXPERIMENT_IDS.contains(&p.as_str())).collect();
    if !unknown.is_empty() {
        for u in &unknown {
            eprintln!("unknown experiment: {u}");
        }
        eprintln!("valid experiments: {}", EXPERIMENT_IDS.join(" "));
        std::process::exit(cli::USAGE_EXIT.into());
    }
    let wanted: BTreeSet<String> = parsed.positionals.into_iter().collect();
    let mut cfg = if paper { ExperimentConfig::paper() } else { ExperimentConfig::quick() };
    if let Some(n) = threads {
        cfg = cfg.with_threads(n);
    }
    if let Some(n) = tile_workers {
        cfg = cfg.with_tile_workers(n);
    }
    if let Some(n) = frame_workers {
        cfg = cfg.with_frame_workers(n);
    }
    if let Some(dir) = &store_dir {
        match RunStore::open(dir) {
            Ok(store) => cfg = cfg.with_store(Arc::new(store)),
            Err(e) => {
                eprintln!("cannot open store {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    // `store-stats` only runs when explicitly named and needs a store.
    if wanted.contains("store-stats") && store_dir.is_none() {
        eprintln!("store-stats requires --store DIR");
        std::process::exit(cli::USAGE_EXIT.into());
    }
    let run_all = wanted.is_empty();
    let want = |id: &str| (run_all && id != "store-stats") || wanted.contains(id);

    eprintln!(
        "vstress-repro: profile = {}, threads = {}, clips = {:?}",
        if paper { "paper" } else { "quick" },
        cfg.threads,
        cfg.clips
    );
    if let Some(dir) = &store_dir {
        eprintln!("vstress-repro: store = {}", dir.display());
    }

    let result = run(&cfg, want, &csv_dir, time);

    if store_dir.is_some() {
        let s = cfg.cache.stats();
        eprintln!(
            "vstress-repro: store {} hits, {} misses, {} quarantined",
            s.store_hits, s.store_misses, s.store_quarantined
        );
        eprintln!(
            "vstress-repro: work {} encodes, {} stream captures",
            s.encodes, s.stream_captures
        );
    }
    if let Err(e) = result {
        eprintln!("error: could not write CSV: {e}");
        std::process::exit(1);
    }
}
