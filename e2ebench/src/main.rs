//! Command-line entry point: runs one workload and prints its result.

use std::path::PathBuf;
use vstress_e2ebench::host::json_escape;
use vstress_e2ebench::stats::valid_metric_name;
use vstress_e2ebench::workloads::{self, Outcome, Params, Size, Workload};

const USAGE: &str = "usage: vstress-e2ebench --workload <repro-cold|store-resim|serve-open> \
--seed <n> --seconds <s> --trace <0|1> [--size <full|smoke>] [--work-dir <dir>]
       vstress-e2ebench --bless [--size <full|smoke>]   (print the golden table digests)
       vstress-e2ebench --resim-store <dir> [--size <full|smoke>]   (store-resim's resim phase)";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, if present.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v),
        _ => usage_error(&format!("{flag} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| usage_error(&format!("bad value {v:?} for {flag}"))))
}

/// The final result line.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                json_escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const FLAGS: [&str; 8] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--size",
        "--work-dir",
        "--bless",
        "--resim-store",
    ];
    if let Some(bad) = args.iter().find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str())) {
        usage_error(&format!("unknown flag {bad}"));
    }
    let size = match value(&args, "--size").unwrap_or("full") {
        "full" => Size::Full,
        "smoke" => Size::Smoke,
        other => usage_error(&format!("unknown size {other:?}")),
    };
    if args.iter().any(|a| a == "--bless") {
        match workloads::bless(size) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(dir) = value(&args, "--resim-store") {
        match workloads::resim_report(size, dir.as_ref()) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let workload =
        value(&args, "--workload").unwrap_or_else(|| usage_error("--workload is required"));
    let workload = Workload::parse(workload)
        .unwrap_or_else(|| usage_error(&format!("unknown workload {workload:?}")));
    let trace = match value(&args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage_error(&format!("--trace takes 0 or 1, not {other:?}")),
    };
    let params = Params {
        workload,
        seed: parsed(&args, "--seed").unwrap_or(0),
        seconds: parsed(&args, "--seconds").unwrap_or(30),
        trace,
        size,
        work_dir: value(&args, "--work-dir")
            .map_or_else(|| PathBuf::from(".bench_work"), PathBuf::from),
        check_digests: true,
        exe: std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            std::process::exit(1);
        }),
    };
    if let Err(e) = std::fs::create_dir_all(&params.work_dir) {
        eprintln!("error: cannot create {}: {e}", params.work_dir.display());
        std::process::exit(1);
    }

    let mut out = workloads::run(&params);
    if let Some(host) = &out.host {
        println!("# host {}", host.to_json());
        if !host.comparable_with_reference() {
            println!("# host calibration differs from the reference host: do not compare these results with its figures");
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    if let Some(spans) = out.spans_jsonl.take() {
        let dir = params.work_dir.join("spans");
        let path = dir.join(format!(
            "{}-seed{}-{}.jsonl",
            workload.name(),
            params.seed,
            std::process::id()
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
    for m in &out.metrics {
        assert!(valid_metric_name(m.name), "invalid metric name {}", m.name);
        if !m.value.is_finite() {
            out.failed += 1;
            out.failures.push(format!("metric {} is not finite", m.name));
        }
        println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
        eprintln!("check failed: {f}");
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    println!("{}", result_json(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}
