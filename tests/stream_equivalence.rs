//! Tentpole oracle for the capture-once / simulate-many pipeline: a
//! characterization derived from a persisted probe event stream must be
//! **bit-identical** to a live encode driving the counting probe and the
//! core model directly — not approximately equal. Every optimization in
//! the replay loop (batched chunk drains, cached per-kernel scalars, the
//! incremental fetch walk, cache way hints) is licensed by these tests.
//!
//! Bit-identity of the f64 fields is asserted through `serde::to_string`:
//! the JSON text renders every float exactly (shortest round-trip), so
//! equal strings mean equal bits, while `assert_eq!` on the structs alone
//! would accept `-0.0 == 0.0` and ULP-level drift hidden by display
//! rounding.

use vstress::bpred::Tage;
use vstress::cache::HierarchyConfig;
use vstress::codecs::{CodecId, Encoder};
use vstress::exec::store::Persist;
use vstress::pipeline::{CoreConfig, CoreModel};
use vstress::runtime::cycles_to_seconds;
use vstress::trace::stream::chunk_channel;
use vstress::trace::{BranchWindowProbe, CountingProbe, TeeProbe};
use vstress::video::Clip;
use vstress::workbench::{
    capture_encode_with, characterize, characterize_from_capture, clip_for, equivalent_params,
    run_from_parts, CharacterizationRun, RunSpec,
};

/// Every codec family the workbench models, at the same quality point.
const CODECS: [CodecId; 4] = [CodecId::SvtAv1, CodecId::X264, CodecId::X265, CodecId::Libaom];

fn spec_for(codec: CodecId) -> RunSpec {
    RunSpec::quick("cat", codec, equivalent_params(codec, 35, 4))
}

/// The reference half of the oracle: one encode driving a counting probe
/// and (for pipeline specs) a core model live, with no stream
/// materialized in between.
fn live_characterization(spec: &RunSpec, clip: &Clip) -> CharacterizationRun {
    let encoder = Encoder::new(spec.codec, spec.params).unwrap();
    let (tiles, frames) = (spec.tile_workers, spec.frame_workers);
    let (counting, out, report) = if spec.model_pipeline {
        let mut probe =
            TeeProbe::new(CountingProbe::new(), CoreModel::broadwell_scaled(spec.cache_divisor));
        let out = encoder.encode_threaded(clip, &mut probe, tiles, frames).unwrap();
        let (counting, core) = probe.into_parts();
        (counting, out, core.into_report())
    } else {
        let mut probe = CountingProbe::new();
        let out = encoder.encode_threaded(clip, &mut probe, tiles, frames).unwrap();
        // Counting-only runs carry a zeroed report.
        (probe, out, CoreModel::broadwell_scaled(spec.cache_divisor).into_report())
    };
    CharacterizationRun {
        codec: spec.codec,
        params: spec.params,
        clip: clip.name().to_owned(),
        mix: counting.mix(),
        profile: counting.profile().clone(),
        seconds: if spec.model_pipeline { cycles_to_seconds(report.cycles) } else { 0.0 },
        core: report,
        mean_psnr: out.mean_psnr(),
        bitrate_kbps: out.bitrate_kbps,
        total_bits: out.total_bits(),
        tasks: out.tasks,
    }
}

fn assert_bit_identical(live: &CharacterizationRun, other: &CharacterizationRun, what: &str) {
    assert_eq!(live, other, "{what} diverged from live");
    assert_eq!(
        serde::to_string(live),
        serde::to_string(other),
        "{what}: f64 bits diverged from live"
    );
}

/// The tentpole guarantee: for every codec family, and for a
/// counting-only spec, both a replay of a captured stream through a
/// fresh core model and the production [`characterize`] (the run cache's
/// overlapped capture-and-simulate path) reproduce the live
/// characterization bit-for-bit — mix, profile, cycles, top-down slots,
/// cache stats, everything.
#[test]
fn capture_replay_is_bit_identical_to_live_for_every_codec() {
    let specs = CODECS.map(spec_for).into_iter().chain([spec_for(CodecId::X264).counting_only()]);
    for spec in specs {
        let what = format!("{:?} (pipeline: {})", spec.codec, spec.model_pipeline);
        let clip = clip_for(&spec).unwrap();
        let live = live_characterization(&spec, &clip);
        let cap = capture_encode_with(&spec, &clip, None).unwrap();
        assert_bit_identical(
            &live,
            &characterize_from_capture(&spec, &cap),
            &format!("{what} replay"),
        );
        assert_bit_identical(&live, &characterize(&spec).unwrap(), &format!("{what} characterize"));
    }
}

/// The overlapped capture pipeline — encode feeding chunks through a
/// bounded channel into a concurrently draining core model — must land
/// on the same bits as a serial replay of the finished stream.
#[test]
fn channel_overlapped_consume_matches_serial_replay() {
    let spec = spec_for(CodecId::SvtAv1);
    let clip = clip_for(&spec).unwrap();
    let (cap, core) = std::thread::scope(|scope| {
        let (tx, rx) = chunk_channel(8);
        let divisor = spec.cache_divisor;
        let consumer = scope.spawn(move || {
            let mut core = CoreModel::broadwell_scaled(divisor);
            while let Some(chunk) = rx.recv() {
                core.consume_chunk(&chunk);
            }
            core
        });
        let cap = capture_encode_with(&spec, &clip, Some(tx)).unwrap();
        (cap, consumer.join().unwrap())
    });
    let overlapped = run_from_parts(&spec, &cap, core);
    let serial = characterize_from_capture(&spec, &cap);
    assert_eq!(overlapped, serial);
    assert_eq!(serde::to_string(&overlapped), serde::to_string(&serial));
}

/// Stream replay is predictor-agnostic: both shipped TAGE geometries,
/// driven live as the encode's probe, match a replay of the captured
/// stream through the same geometry bit-for-bit. (The default gshare
/// geometry is covered by the all-codec test above.)
#[test]
fn capture_replay_is_bit_identical_for_both_tage_geometries() {
    let spec = spec_for(CodecId::SvtAv1);
    let clip = clip_for(&spec).unwrap();
    let cap = capture_encode_with(&spec, &clip, None).unwrap();
    type MkTage = fn() -> Tage;
    let geometries: [(&str, MkTage); 2] =
        [("tage-8KB", Tage::seznec_8kb), ("tage-64KB", Tage::seznec_64kb)];
    for (label, mk) in geometries {
        let mut live = CoreModel::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(spec.cache_divisor),
            mk(),
        );
        let encoder = Encoder::new(spec.codec, spec.params).unwrap();
        encoder.encode(&clip, &mut live).unwrap();
        let mut replay = CoreModel::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(spec.cache_divisor),
            mk(),
        );
        replay.consume_stream(&cap.stream);
        let live = live.into_report();
        let replay = replay.into_report();
        assert_eq!(live, replay, "{label}: replay diverged from live");
        assert_eq!(
            serde::to_string(&live),
            serde::to_string(&replay),
            "{label}: f64 bits diverged"
        );
    }
}

/// The CBP study's mid-run branch window, sliced out of a captured
/// stream, must equal the window a dedicated live probe pass would have
/// captured — same records, same covered-instruction count.
#[test]
fn branch_window_from_stream_matches_live_probe_pass() {
    let spec = spec_for(CodecId::X265);
    let clip = clip_for(&spec).unwrap();
    let cap = capture_encode_with(&spec, &clip, None).unwrap();
    let total = cap.mix.total();
    let window = total / 4;

    let mut live = BranchWindowProbe::mid_run(total, window);
    let encoder = Encoder::new(spec.codec, spec.params).unwrap();
    encoder.encode(&clip, &mut live).unwrap();

    let mut replayed = BranchWindowProbe::mid_run(total, window);
    cap.stream.replay(&mut replayed);

    assert_eq!(live.window_retired(), replayed.window_retired());
    assert_eq!(live.records(), replayed.records());
    assert!(!replayed.records().is_empty());
}

/// A persisted stream — serialized, reloaded, replayed — produces the
/// same characterization as the in-memory capture it came from: the
/// store's `stream` entries really do stand in for re-encoding.
#[test]
fn persisted_stream_reproduces_the_characterization() {
    let spec = spec_for(CodecId::X264);
    let clip = clip_for(&spec).unwrap();
    let cap = capture_encode_with(&spec, &clip, None).unwrap();
    let mut payload = Vec::new();
    cap.write_payload(&mut payload);
    let mut rest = payload.as_slice();
    let reloaded = vstress::workbench::CapturedEncode::read_payload(&mut rest).unwrap();
    assert!(rest.is_empty(), "the payload is consumed exactly");
    assert_eq!(cap, reloaded);
    let from_memory = characterize_from_capture(&spec, &cap);
    let from_disk = characterize_from_capture(&spec, &reloaded);
    assert_eq!(from_memory, from_disk);
    assert_eq!(serde::to_string(&from_memory), serde::to_string(&from_disk));
}
