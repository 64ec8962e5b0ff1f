//! The shared harness of the probe-merge oracles
//! (`tile_equivalence`, `frame_pipeline_equivalence`): recorded encodes,
//! address canonicalization, and awkward clip geometries.

use std::collections::HashMap;
use vstress::codecs::{CodecId, EncoderParams};
use vstress_codecs::Encoder;
use vstress_trace::{CountingProbe, EventBatch, Probe, ProbeEvent, RecordingProbe};
use vstress_video::synth::{SceneClass, SynthParams};
use vstress_video::Clip;

/// Canonicalizes data addresses by first-touch page renaming — the same
/// remap the pipeline model applies. The synthetic allocator
/// (`probe_addr::alloc`) hands every plane a fresh page base from a
/// process-global counter, and pooled encodes allocate planes
/// concurrently, so two encodes in one process differ by page *bases*
/// while agreeing on page structure and sub-page offsets; after
/// renaming, equal streams mean equal memory behaviour. Branch PCs and
/// every non-memory event are compared verbatim.
pub fn canonicalize(batch: &EventBatch) -> Vec<ProbeEvent> {
    const PAGE_SHIFT: u64 = 12;
    let mut pages: HashMap<u64, u64> = HashMap::new();
    let mut rename = |addr: u64| -> u64 {
        let next = pages.len() as u64;
        let id = *pages.entry(addr >> PAGE_SHIFT).or_insert(next);
        (id << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))
    };
    batch
        .events()
        .iter()
        .map(|e| match *e {
            ProbeEvent::Load { addr, bytes } => ProbeEvent::Load { addr: rename(addr), bytes },
            ProbeEvent::Store { addr, bytes } => ProbeEvent::Store { addr: rename(addr), bytes },
            other => other,
        })
        .collect()
}

/// A tiny deterministic LCG so geometry/param draws need no test-only
/// dependency on the rand shim's API.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.next() as usize % options.len()]
    }
}

/// Synthesizes a clip whose luma dimensions are even but deliberately
/// *not* superblock multiples, so border superblocks are partial.
pub fn awkward_clip(rng: &mut Lcg, frames: usize) -> Clip {
    // Widths/heights cover 2–4 superblock columns/rows at size 32 (and
    // more at 16), always with a ragged border on at least one axis.
    let width = rng.pick(&[70, 82, 98, 110]);
    let height = rng.pick(&[38, 46, 58, 66]);
    let class = rng.pick(&[SceneClass::Game, SceneClass::Action, SceneClass::Screen]);
    let params = SynthParams {
        width,
        height,
        frame_count: frames,
        fps: 30.0,
        entropy: 3.0 + (rng.next() % 40) as f64 / 10.0,
        class,
        seed: rng.next(),
    };
    params.synthesize("awkward").expect("even dimensions synthesize")
}

/// One fully recorded encode at `{tile_workers, frame_workers}`: every
/// probe event in merge order, the complete encode result, and the
/// retired-instruction count. `1 x 1` is the inline serial encode.
pub fn recorded_encode(
    codec: CodecId,
    params: EncoderParams,
    clip: &Clip,
    tile_workers: usize,
    frame_workers: usize,
) -> (EventBatch, vstress_codecs::EncodeResult, u64) {
    let encoder = Encoder::new(codec, params).expect("valid params");
    let mut counting = CountingProbe::new();
    let mut rec = RecordingProbe::new(&mut counting);
    let out = encoder
        .encode_threaded(clip, &mut rec, tile_workers, frame_workers)
        .expect("encode succeeds");
    let batch = rec.into_batch();
    (batch, out, counting.retired())
}
