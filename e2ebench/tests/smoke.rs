//! Smoke-size runs of every workload, untraced and traced, plus the
//! agreement of `BENCHMARK.json` with the metrics the benchmark reports.
//!
//! The smoke runs check tables by shape (slug, title, row count): the
//! golden digests only match a build made through `run.py`, which maps
//! source paths to the ones the workbench's own build uses.

use std::path::PathBuf;
use vstress_e2ebench::stats::valid_metric_name;
use vstress_e2ebench::workloads::{run, Outcome, Params, Size, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke");
    std::fs::create_dir_all(&work_dir).unwrap();
    let params = Params {
        workload,
        seed: 1,
        seconds: 1,
        trace,
        size: Size::Smoke,
        work_dir,
        check_digests: false,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_vstress-e2ebench")),
    };
    let out = run(&params);
    assert!(out.correct(), "{} (trace {trace}) failed: {:?}", workload.name(), out.failures);
    out
}

fn names(out: &Outcome) -> Vec<&'static str> {
    out.metrics.iter().map(|m| m.name).collect()
}

fn check_end_to_end(workload: Workload) {
    let out = smoke(workload, false);
    let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    assert_eq!(names(&out), want);
    for m in &out.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
}

fn check_per_layer(workload: Workload) {
    let out = smoke(workload, true);
    let want: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    assert_eq!(names(&out), want);
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    let get = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert!(get("traced_wall_s") > 0.0 && get("unattributed_ms") >= 0.0);
    assert!(get("codecs.encode_ms") > 0.0 && get("pipeline.replay_ms") > 0.0);
    assert!(out.spans_jsonl.as_ref().is_some_and(|s| s.contains("\"name\": \"run\"")));
}

#[test]
fn repro_cold_smoke() {
    check_end_to_end(Workload::ReproCold);
    check_per_layer(Workload::ReproCold);
}

#[test]
fn store_resim_smoke() {
    check_end_to_end(Workload::StoreResim);
    check_per_layer(Workload::StoreResim);
}

#[test]
fn serve_open_smoke() {
    check_end_to_end(Workload::ServeOpen);
    check_per_layer(Workload::ServeOpen);
}

/// The `"name"`/`"unit"` pairs of one array section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section end")];
    let field = |obj: &str, f: &str| -> Option<String> {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_owned())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed = section(&json, key);
        let want: Vec<(String, String)> =
            list.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(listed, want, "{key}");
        assert!(listed.iter().all(|(n, _)| valid_metric_name(n)));
    }
    let workloads: Vec<String> = section_names(&json, "workloads");
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, want);
}

fn section_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("section");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_owned))
        .collect()
}
