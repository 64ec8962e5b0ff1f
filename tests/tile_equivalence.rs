//! The probe-merge contract, adversarially: splitting an encode across
//! tile/wavefront workers must change *nothing observable* — not the
//! bitstream, not the reconstruction, not the task trace, and not a
//! single probe event (branch PCs included) in the canonically merged
//! stream.
//!
//! The geometries are chosen to be awkward on purpose: odd-ball frame
//! sizes that leave partial superblocks at the right and bottom borders
//! (so motion candidates straddle tile/row boundaries and get clamped),
//! plus enough rows/columns to give every codec's decomposition — SVT
//! segments, x26x wavefront chunks, libaom/vp9 tile groups — more than
//! one chain to race.

mod common;

use common::{awkward_clip, canonicalize, recorded_encode, Lcg};
use vstress::codecs::{CodecId, EncoderParams};
use vstress_codecs::Encoder;

#[test]
fn tile_merge_is_byte_identical_to_the_serial_stream() {
    let mut rng = Lcg(0x5eed_1e57);
    // Each codec exercises a different decomposition shape; VP9 shares
    // libaom's tile builder, so the aom case covers both.
    for codec in [CodecId::SvtAv1, CodecId::X264, CodecId::X265, CodecId::Libaom] {
        let clip = awkward_clip(&mut rng, 2);
        let params = EncoderParams::new(rng.pick(&[25, 40]), rng.pick(&[5, 7]));
        let (serial_events, serial_out, serial_retired) =
            recorded_encode(codec, params, &clip, 1, 1);
        assert!(!serial_events.is_empty(), "{codec:?}: serial encode must record events");
        let serial_canon = canonicalize(&serial_events);
        for workers in [2usize, 4] {
            let (events, out, retired) = recorded_encode(codec, params, &clip, workers, 1);
            // The merged stream — ops, addresses (up to first-touch page
            // renaming), branch PCs, taken bits, kernel switches — must
            // match event for event.
            assert_eq!(events.len(), serial_events.len(), "{codec:?} @ {workers}: event count");
            assert_eq!(
                canonicalize(&events),
                serial_canon,
                "{codec:?} @ {workers} workers: merged probe stream diverged"
            );
            assert_eq!(retired, serial_retired, "{codec:?} @ {workers} workers: retired count");
            assert_eq!(
                out.bitstream, serial_out.bitstream,
                "{codec:?} @ {workers} workers: bitstream"
            );
            assert_eq!(out.recon, serial_out.recon, "{codec:?} @ {workers} workers: recon");
            assert_eq!(out.tasks, serial_out.tasks, "{codec:?} @ {workers} workers: task trace");
            assert_eq!(
                out.frame_bits, serial_out.frame_bits,
                "{codec:?} @ {workers} workers: frame bits"
            );
        }
    }
}

#[test]
fn captured_stream_is_tile_worker_invariant() {
    // The capture-once layer's licence to drop `tile_workers` from its
    // cache key: a recorded capture — the packed canonical event stream
    // byte-for-byte, chunk boundaries included, plus every
    // stream-independent measurement — must not depend on how many
    // workers ran the encode. A capture recorded at any worker count may
    // then serve replays for every other count.
    use vstress::workbench::{capture_encode, RunSpec};
    let serial = capture_encode(&RunSpec::quick("cat", CodecId::X264, EncoderParams::new(35, 4)))
        .expect("serial capture");
    let tiled = capture_encode(
        &RunSpec::quick("cat", CodecId::X264, EncoderParams::new(35, 4)).with_tile_workers(4),
    )
    .expect("tiled capture");
    assert_eq!(serial.stream.events(), tiled.stream.events(), "event count diverged");
    assert_eq!(
        serial.stream.chunks(),
        tiled.stream.chunks(),
        "packed canonical stream diverged across tile-worker counts"
    );
    assert_eq!(serial, tiled, "captured measurements diverged across tile-worker counts");
}

#[test]
fn dead_probe_path_reaches_the_same_encode() {
    // Without a live probe the workers take the memoized fast path; the
    // artifacts (not the instrumentation, which is deliberately absent)
    // must still be worker-count invariant and equal to the instrumented
    // encode's.
    let mut rng = Lcg(0xabad_cafe);
    for codec in [CodecId::SvtAv1, CodecId::X265] {
        let clip = awkward_clip(&mut rng, 2);
        let params = EncoderParams::new(35, 6);
        let encoder = Encoder::new(codec, params).expect("valid params");
        let (_, live_out, _) = recorded_encode(codec, params, &clip, 3, 1);
        for workers in [1usize, 2, 4] {
            let mut null = vstress_trace::NullProbe;
            let out =
                encoder.encode_threaded(&clip, &mut null, workers, 1).expect("encode succeeds");
            assert_eq!(out.bitstream, live_out.bitstream, "{codec:?} @ {workers} workers (dead)");
            assert_eq!(out.recon, live_out.recon, "{codec:?} @ {workers} workers (dead)");
        }
    }
}
