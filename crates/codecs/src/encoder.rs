//! The top-level encoder: frames in, decodable bitstream + statistics out.

use crate::bitstream::{mode_mask, shape_mask, SequenceHeader};
use crate::blocks::BlockRect;
use crate::codecs::{CodecId, ToolSet};
use crate::deblock::deblock_plane;
use crate::entropy::RangeEncoder;
use crate::error::CodecError;
use crate::frame_coder::{
    code_sb_chroma, code_superblock, plan_superblock, CoderConfig, CoderState, NodePlan,
    PlanScratch,
};
use crate::frame_pipeline::{watermark_need, CancelOnDrop, CancelOnPanic, PipelineHub, RefView};
use crate::mc::MotionVector;
use crate::params::{qindex_to_qstep, EncoderParams};
use crate::params::{MAX_QINDEX, MIN_QINDEX};
use crate::taskgraph::{
    plan_layout, FrameTaskTrace, PipelineStats, PlanChain, PlanLayout, PlanUnit, TaskTrace,
    UnitSpan,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vstress_trace::{CountingProbe, EventBatch, Kernel, NullProbe, Probe, RecordingProbe};
use vstress_video::{Clip, Frame, Plane};

/// Branch-site PC of the rate-control row loop.
///
/// The value is the `site_pc!()` hash (file/line/column) this site had
/// when it landed, pinned as a constant: every simulated predictor
/// table is indexed by these PCs, so letting them float with source
/// layout would re-warm different entries — and change every
/// characterization number — on any refactor that moves a line.
const RATE_CONTROL_BRANCH_PC: u64 = 0x5142_9d61_5940;

/// Result of encoding a clip.
#[derive(Debug, Clone)]
pub struct EncodeResult {
    /// The decodable bitstream (header + range-coded payload).
    pub bitstream: Vec<u8>,
    /// Encoded bits attributed to each frame.
    pub frame_bits: Vec<u64>,
    /// Luma PSNR of each reconstructed frame vs. the source.
    pub frame_psnr: Vec<f64>,
    /// Reconstructed frames (cropped to source dimensions).
    pub recon: Vec<Frame>,
    /// Bitrate in kbps at the clip's frame rate.
    pub bitrate_kbps: f64,
    /// Per-frame, per-superblock-row instruction costs for the threading
    /// study (all zeros when encoding under a non-counting probe).
    pub tasks: TaskTrace,
    /// Where the bits went, by syntax category.
    pub bit_accounting: crate::frame_coder::BitAccounting,
}

impl EncodeResult {
    /// Mean luma PSNR across frames.
    pub fn mean_psnr(&self) -> f64 {
        if self.frame_psnr.is_empty() {
            0.0
        } else {
            self.frame_psnr.iter().sum::<f64>() / self.frame_psnr.len() as f64
        }
    }

    /// Total encoded bits.
    pub fn total_bits(&self) -> u64 {
        self.frame_bits.iter().sum()
    }
}

/// A configured encoder for one codec model.
#[derive(Debug, Clone)]
pub struct Encoder {
    tools: ToolSet,
    params: EncoderParams,
}

impl Encoder {
    /// Creates an encoder for `codec` with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParams`] when the parameters are out of
    /// the codec's range.
    pub fn new(codec: CodecId, params: EncoderParams) -> Result<Self, CodecError> {
        let tools = ToolSet::resolve(codec, &params)?;
        Ok(Encoder { tools, params })
    }

    /// Creates an encoder from an explicit tool set, bypassing the preset
    /// tables — the entry point for tool-level ablations (e.g. forcing a
    /// single reference frame or a reduced partition grammar).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParams`] when the parameters are out of
    /// the tool set's codec range or the tool set is degenerate.
    pub fn with_tools(tools: ToolSet, params: EncoderParams) -> Result<Self, CodecError> {
        params.validate(tools.codec.max_crf(), tools.codec.max_preset())?;
        if tools.partition_shapes.is_empty() || tools.intra_modes.is_empty() {
            return Err(CodecError::InvalidParams {
                what: "tools",
                detail: "partition shapes and intra modes must be nonempty".to_owned(),
            });
        }
        if !(1..=2).contains(&tools.ref_frames) {
            return Err(CodecError::InvalidParams {
                what: "tools.ref_frames",
                detail: format!("{} not in 1..=2", tools.ref_frames),
            });
        }
        Ok(Encoder { tools, params })
    }

    /// The codec this encoder models.
    pub fn codec(&self) -> CodecId {
        self.tools.codec
    }

    /// The resolved tool set (for inspection and tests).
    pub fn tools(&self) -> &ToolSet {
        &self.tools
    }

    /// The user parameters.
    pub fn params(&self) -> &EncoderParams {
        &self.params
    }

    /// Encodes `clip`, reporting all instrumentation through `probe`.
    ///
    /// This is [`Encoder::encode_threaded`] at one tile worker and one
    /// frame worker: the canonical serial execution.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnsupportedInput`] for clips that exceed the
    /// header's 16-bit geometry fields.
    pub fn encode<P: Probe>(&self, clip: &Clip, probe: &mut P) -> Result<EncodeResult, CodecError> {
        self.encode_threaded(clip, probe, 1, 1)
    }

    /// Encodes `clip` with intra-frame (`tile_workers`) and cross-frame
    /// (`frame_workers`) parallelism.
    ///
    /// Each frame runs in two phases. Phase A — admission (padding and
    /// the rate-control lookahead) and the partition search, decomposed
    /// into the codec's tile/wavefront plan chains
    /// ([`plan_layout`](crate::taskgraph::plan_layout)) — reads only the
    /// source and finished references. Phase B — range coding,
    /// reconstruction, the deblock filter and bit accounting — is one
    /// serial chain over the frame raster on the calling thread.
    ///
    /// At one tile and one frame worker Phase A runs inline on the
    /// calling thread, straight into `probe`, against the finished
    /// reconstructions: no thread, no lock, no event recording. Any other
    /// combination runs Phase A on a pool of `max(tile_workers,
    /// frame_workers)` threads with up to `frame_workers` frames in
    /// flight ([`crate::frame_pipeline`]): `frame_workers = 1` is tile
    /// parallelism alone, and each further frame worker lets Phase A run
    /// one more frame ahead of Phase B.
    ///
    /// The result is worker-count invariant in **both** dimensions: pool
    /// workers record each plan unit into a private [`EventBatch`] and
    /// the caller replays the batches into `probe` in canonical
    /// frame/chain/unit order, so the bitstream, reconstruction, task
    /// trace, and full probe event stream — branch PCs included — are
    /// identical to the inline encode (pinned by the `tile_equivalence`
    /// and `frame_pipeline_equivalence` oracles; comparisons across
    /// separate encode calls go through the model's first-touch page
    /// canonicalization, since the synthetic allocator hands each encode
    /// fresh page bases). Only [`FrameTaskTrace::pipeline`] — wall-clock
    /// occupancy, excluded from equality and serialization — differs.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnsupportedInput`] for clips that exceed the
    /// header's 16-bit geometry fields.
    ///
    /// # Panics
    ///
    /// Panics if `tile_workers` or `frame_workers` is zero.
    pub fn encode_threaded<P: Probe>(
        &self,
        clip: &Clip,
        probe: &mut P,
        tile_workers: usize,
        frame_workers: usize,
    ) -> Result<EncodeResult, CodecError> {
        assert!(tile_workers > 0, "need at least one tile worker thread");
        assert!(frame_workers > 0, "need at least one frame worker");
        let (w, h) = clip.dimensions();
        if w > u16::MAX as usize || h > u16::MAX as usize || clip.frames().len() > u16::MAX as usize
        {
            return Err(CodecError::UnsupportedInput {
                reason: format!(
                    "clip geometry {w}x{h} x {} frames exceeds header fields",
                    clip.frames().len()
                ),
            });
        }
        let sb = self.tools.superblock;
        let padded = (w.div_ceil(sb) * sb, h.div_ceil(sb) * sb);
        // Every frame shares the padded geometry, so one layout serves
        // all of them.
        let layout = plan_layout(self.tools.codec, padded.0 / sb, padded.1 / sb);
        if tile_workers == 1 && frame_workers == 1 {
            return self.encode_frames(clip, padded, &layout, probe, None);
        }
        let pool = Pool::new(self, clip, padded, &layout, frame_workers - 1, probe.is_live())?;
        let threads = frame_workers.max(tile_workers).min(pool.tasks);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| pool.work());
            }
            // Any coordinator exit — success, error, panic — must
            // release workers still blocked in the claim window.
            let _cancel = CancelOnDrop(&pool.hub);
            self.encode_frames(clip, padded, &layout, probe, Some(&pool))
        })
    }

    /// Whether frame `f` is intra-only (takes no references).
    fn is_keyframe(&self, f: usize) -> bool {
        let keyint = self.params.keyint as usize;
        f == 0 || (keyint > 0 && f.is_multiple_of(keyint))
    }

    /// The frame loop behind [`Encoder::encode_threaded`], in frame
    /// order on the calling thread. Phase A runs inline when `pool` is
    /// absent; otherwise its results are collected from the pool and
    /// their events replayed in canonical position, and each coded
    /// superblock row is published to the pool's planners.
    fn encode_frames<P: Probe>(
        &self,
        clip: &Clip,
        (pw, ph): (usize, usize),
        layout: &PlanLayout,
        probe: &mut P,
        pool: Option<&Pool>,
    ) -> Result<EncodeResult, CodecError> {
        let (w, h) = clip.dimensions();
        let base_cfg = CoderConfig::from_tools(&self.tools, self.params.crf);
        let sb = self.tools.superblock;
        let (sb_cols, sb_rows) = (pw / sb, ph / sb);
        let header = SequenceHeader {
            codec: self.tools.codec,
            width: w as u16,
            height: h as u16,
            frame_count: clip.frames().len() as u16,
            fps: clip.fps().round() as u16,
            qindex: base_cfg.qindex,
            superblock: sb as u8,
            min_block: self.tools.min_block as u8,
            max_depth: self.tools.max_depth as u8,
            shape_mask: shape_mask(&base_cfg.shapes),
            mode_mask: mode_mask(&base_cfg.modes),
            ref_frames: self.tools.ref_frames as u8,
            keyint: self.params.keyint,
        };
        let mut bitstream = Vec::new();
        header.write(&mut bitstream);

        let mut enc = RangeEncoder::new();
        let mut state = CoderState::new();
        let mut scratch = PlanScratch::new();
        // Reference list: [last, golden]. The golden frame refreshes every
        // GOLDEN_INTERVAL frames, giving the second reference a longer
        // temporal reach (flicker/occlusion content benefits).
        let mut last_recon: Option<Frame> = None;
        let mut golden_recon: Option<Frame> = None;
        let mut frame_bits = Vec::new();
        let mut frame_psnr = Vec::new();
        let mut recon_out = Vec::new();
        let mut tasks = TaskTrace::default();
        let mut bits_mark = 0u64;

        for (f, src) in clip.frames().iter().enumerate() {
            if let Some(pool) = pool {
                pool.hub.advance(f);
            }
            probe.set_kernel(Kernel::FrameSetup);
            probe.alu(64);
            let mut frame_trace = FrameTaskTrace::default();
            let lookahead_mark = probe.retired();
            let (padded_src, qindex) = match pool {
                None => admit(probe, src, sb, base_cfg.qindex),
                Some(pool) => pool.admitted(f, probe, &mut frame_trace.pipeline)?,
            };
            let mut recon = Frame::new(pw, ph).map_err(CodecError::Video)?;
            // The frame header: the chosen quantizer, signalled.
            enc.encode_literal(probe, qindex as u32, 8);
            frame_trace.lookahead = probe.retired() - lookahead_mark;
            let mut cfg = base_cfg.clone();
            cfg.qindex = qindex;

            // Assemble the reference list for this frame. References are
            // borrowed, not copied: stable buffer addresses across frames
            // are what give the cache simulation its cross-frame reuse.
            // Keyframes take no references (intra-only).
            let mut refs: Vec<&Frame> = Vec::new();
            if !self.is_keyframe(f) {
                refs.extend(&last_recon);
                if self.tools.ref_frames > 1 {
                    refs.extend(&golden_recon);
                }
            }

            // Phase A — partition search, unit by unit along the layout's
            // chains in canonical order. Unit costs are retired-counter
            // deltas, a pure additive function of the event stream, so
            // inline and replayed units measure identical values.
            let mut plan_grid: Vec<Option<NodePlan>> =
                (0..sb_cols * sb_rows).map(|_| None).collect();
            let plan_units = &mut frame_trace.plan_units;
            let mut accept = |unit: &UnitSpan, cost: u64, plans: Vec<NodePlan>| {
                plan_units.push(PlanUnit {
                    tile: unit.tile,
                    row: unit.row,
                    chunk: unit.chunk,
                    cost,
                });
                for (col, plan) in unit.cols.clone().zip(plans) {
                    plan_grid[unit.row * sb_cols + col] = Some(plan);
                }
            };
            match pool {
                None => {
                    let mut mark = probe.retired();
                    for chain in &layout.chains {
                        // Finished references never cancel a wait.
                        plan_chain(
                            probe,
                            &self.tools,
                            &cfg,
                            &padded_src,
                            refs.as_slice(),
                            chain,
                            &mut scratch,
                            |probe, unit, plans| {
                                let now = probe.retired();
                                accept(unit, now - mark, plans);
                                mark = now;
                            },
                        );
                    }
                }
                Some(pool) => pool.planned(f, probe, &mut frame_trace.pipeline, accept)?,
            }
            let mut row_plan_cost = vec![0u64; sb_rows];
            for u in &frame_trace.plan_units {
                row_plan_cost[u.row] += u.cost;
            }

            // Phase B — coding: entropy coding, reconstruction and the
            // adaptive contexts are a single serial chain over the frame
            // raster (one range coder defines the bitstream).
            let qstep = qindex_to_qstep(qindex);
            for row in 0..sb_rows {
                let code_mark = probe.retired();
                let sy = row * sb;
                for col in 0..sb_cols {
                    let sx = col * sb;
                    let rect = BlockRect::new(sx, sy, sb.min(pw - sx), sb.min(ph - sy));
                    let plan =
                        plan_grid[row * sb_cols + col].take().expect("every superblock planned");
                    let info = code_superblock(
                        probe,
                        &self.tools,
                        &cfg,
                        &padded_src,
                        &refs,
                        &plan,
                        &mut enc,
                        &mut state,
                        &mut recon,
                    );
                    code_sb_chroma(
                        probe,
                        &cfg,
                        &padded_src,
                        &refs,
                        rect,
                        &info,
                        &mut enc,
                        &mut state,
                        &mut recon,
                    );
                }
                frame_trace.sb_rows.push(row_plan_cost[row] + (probe.retired() - code_mark));
                if let Some(pool) = pool {
                    pool.publish(f, recon.luma(), (row + 1) * sb, qstep);
                }
            }

            // In-loop filtering (frame-serial stage).
            let filter_mark = probe.retired();
            deblock_plane(probe, recon.luma_mut(), 8, qstep);
            deblock_plane(probe, recon.cb_mut(), 4, qstep);
            deblock_plane(probe, recon.cr_mut(), 4, qstep);
            frame_trace.filter = probe.retired() - filter_mark;
            tasks.frames.push(frame_trace);

            let bits_now = enc.bits_written();
            frame_bits.push(bits_now - bits_mark);
            bits_mark = bits_now;
            frame_psnr.push(region_psnr(src, &recon, w, h));
            recon_out.push(crop(&recon, w, h)?);
            // The reconstruction is final: edge-pad it once so that
            // clamped-MV reference reads in the next frames' motion
            // search hit the contiguous interior path (probe addresses
            // are unaffected — see `Plane::pad_borders`).
            recon.luma_mut().pad_borders();
            recon.cb_mut().pad_borders();
            recon.cr_mut().pad_borders();
            if let Some(pool) = pool {
                debug_assert!(
                    !pool.publishes(f) || pool.slots[f].view.read().frame().luma() == recon.luma(),
                    "published view must equal the deblocked reconstruction"
                );
            }
            if f % GOLDEN_INTERVAL == 0 {
                let mut golden = recon.clone();
                if let Some(gv) = pool.and_then(|p| p.slots[f].golden_view.as_ref()) {
                    // Phase A read the golden snapshot's pages; the
                    // Phase B clone must be the same buffer as far as the
                    // probes are concerned — exactly as both phases read
                    // the single clone under inline execution.
                    golden.luma_mut().adopt_probe_identity(gv.read().frame().luma());
                }
                golden_recon = Some(golden);
            }
            last_recon = Some(recon);
        }

        let payload = enc.finish();
        // Attribute the flush tail + header to the last frame.
        if let Some(last) = frame_bits.last_mut() {
            *last += (payload.len() as u64 * 8).saturating_sub(bits_mark)
                + SequenceHeader::BYTES as u64 * 8;
        }
        bitstream.extend_from_slice(&payload);

        let total_bits: u64 = frame_bits.iter().sum();
        let kbps =
            vstress_video::metrics::bitrate_kbps(total_bits, clip.frames().len(), clip.fps());
        Ok(EncodeResult {
            bitstream,
            frame_bits,
            frame_psnr,
            recon: recon_out,
            bitrate_kbps: kbps,
            tasks,
            bit_accounting: state.bits,
        })
    }
}

/// Frame admission, the head of Phase A: pads the source to whole
/// superblocks and runs the rate-control lookahead over it. The CRF
/// controller then adapts the frame quantizer around the base — busier
/// frames take a coarser Q (constant-quality behaviour).
fn admit<P: Probe>(probe: &mut P, src: &Frame, sb: usize, base_qindex: u8) -> (Arc<Frame>, u8) {
    let padded = pad_to_multiple(src, sb);
    let activity = rate_control_pass(probe, &padded);
    let qindex = frame_qindex(base_qindex, activity, padded.width() * padded.height());
    (Arc::new(padded), qindex)
}

/// Where Phase A reads a frame's references from.
trait RefSource {
    /// Blocks until reference rows `..need` are final; `false` when the
    /// pipeline was canceled first.
    fn wait_rows(&self, need: usize) -> bool;

    /// Runs `plan` against the reference list.
    fn with_refs<T>(&self, plan: impl FnOnce(&[&Frame]) -> T) -> T;
}

/// The finished reconstructions (inline Phase A): every row is final.
impl RefSource for [&Frame] {
    fn wait_rows(&self, _need: usize) -> bool {
        true
    }

    fn with_refs<T>(&self, plan: impl FnOnce(&[&Frame]) -> T) -> T {
        plan(self)
    }
}

/// The row-published reference views of a pooled Phase A, plus the
/// wall-clock time spent waiting on their watermarks.
struct ViewRefs<'a> {
    hub: &'a PipelineHub,
    last: Option<&'a RefView>,
    golden: Option<&'a RefView>,
    stall_ns: Cell<u64>,
}

impl RefSource for ViewRefs<'_> {
    fn wait_rows(&self, need: usize) -> bool {
        let t0 = Instant::now();
        let ready =
            [self.last, self.golden].into_iter().flatten().all(|v| v.wait_rows(self.hub, need));
        self.stall_ns.set(self.stall_ns.get() + t0.elapsed().as_nanos() as u64);
        ready
    }

    /// Takes a fresh short read guard per call (one superblock), so the
    /// coordinator's row publishes interleave with planning instead of
    /// blocking behind whole units.
    fn with_refs<T>(&self, plan: impl FnOnce(&[&Frame]) -> T) -> T {
        let lg = self.last.map(RefView::read);
        let gg = self.golden.map(RefView::read);
        match (&lg, &gg) {
            (Some(l), Some(g)) => plan(&[l.frame(), g.frame()]),
            (Some(l), None) => plan(&[l.frame()]),
            _ => plan(&[]),
        }
    }
}

/// Phase A for one plan chain: plans its units in canonical order under
/// `probe`, carrying the motion-vector seed from unit to unit, and hands
/// each unit's superblock plans to `done` with the probe they were
/// planned under. Returns `false` when a reference wait was canceled.
#[allow(clippy::too_many_arguments)]
fn plan_chain<P: Probe, R: RefSource + ?Sized>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    src: &Frame,
    refs: &R,
    chain: &PlanChain,
    scratch: &mut PlanScratch,
    mut done: impl FnMut(&mut P, &UnitSpan, Vec<NodePlan>),
) -> bool {
    let sb = tools.superblock;
    let (pw, ph) = (src.width(), src.height());
    let mut seed = MotionVector::ZERO;
    for unit in &chain.units {
        if !refs.wait_rows(watermark_need(unit.row, sb, tools.me.range, ph)) {
            return false;
        }
        let sy = unit.row * sb;
        let plans = unit
            .cols
            .clone()
            .map(|col| {
                let sx = col * sb;
                let rect = BlockRect::new(sx, sy, sb.min(pw - sx), sb.min(ph - sy));
                refs.with_refs(|r| {
                    plan_superblock(probe, tools, cfg, src, r, rect, &mut seed, scratch)
                })
            })
            .collect();
        done(probe, unit, plans);
    }
    true
}

/// Frame admission, produced on a pool worker: the padded source, the
/// chosen quantizer, and the recorded rate-control events the
/// coordinator replays in canonical position.
struct Admission {
    padded_src: Arc<Frame>,
    qindex: u8,
    rc: EventBatch,
    busy_ns: u64,
}

/// One executed plan unit: its recorded events and superblock plans.
struct UnitOut {
    batch: EventBatch,
    plans: Vec<NodePlan>,
}

/// One completed plan chain, plus its wall-clock split.
struct ChainOut {
    units: Vec<UnitOut>,
    stall_ns: u64,
    busy_ns: u64,
}

/// Shared per-frame pool state (results + reference views).
struct FrameSlot {
    admission: OnceLock<Admission>,
    chains: Mutex<Vec<Option<ChainOut>>>,
    chains_done: AtomicUsize,
    view: RefView,
    /// Present on golden-refresh frames (when the codec uses two
    /// references): the fresh golden snapshot, filled in lockstep with
    /// `view` so the refresh never bubbles the pipeline.
    golden_view: Option<RefView>,
}

/// The Phase A worker pool of every encode but the inline one.
///
/// Workers claim tasks — per frame, one admission and then one task per
/// plan chain — strictly in frame-major order through the
/// [`PipelineHub`], windowed to `depth` frames past the frame the
/// coordinator is coding. Plan chains wait on the row watermarks of
/// their references' [`RefView`]s and record their events into private
/// batches; the coordinator replays them canonically and publishes each
/// coded superblock row, which is what unblocks the waiting chains.
struct Pool<'a> {
    enc: &'a Encoder,
    clip: &'a Clip,
    layout: &'a PlanLayout,
    base_cfg: CoderConfig,
    hub: PipelineHub,
    slots: Vec<FrameSlot>,
    /// Frames Phase A may run ahead of Phase B: `frame_workers - 1`.
    depth: usize,
    /// Task count: per frame, one admission plus one per plan chain.
    tasks: usize,
    /// Whether the caller's probe observes events (otherwise workers plan
    /// under dead probes and record nothing).
    live: bool,
}

impl<'a> Pool<'a> {
    fn new(
        enc: &'a Encoder,
        clip: &'a Clip,
        (pw, ph): (usize, usize),
        layout: &'a PlanLayout,
        depth: usize,
        live: bool,
    ) -> Result<Self, CodecError> {
        let n = clip.frames().len();
        let mut slots = Vec::with_capacity(n);
        for f in 0..n {
            let refresh = enc.tools.ref_frames > 1 && f % GOLDEN_INTERVAL == 0;
            slots.push(FrameSlot {
                admission: OnceLock::new(),
                chains: Mutex::new((0..layout.chains.len()).map(|_| None).collect()),
                chains_done: AtomicUsize::new(0),
                view: RefView::new(pw, ph).map_err(CodecError::Video)?,
                golden_view: refresh
                    .then(|| RefView::new(pw, ph))
                    .transpose()
                    .map_err(CodecError::Video)?,
            });
        }
        Ok(Pool {
            enc,
            clip,
            layout,
            base_cfg: CoderConfig::from_tools(&enc.tools, enc.params.crf),
            hub: PipelineHub::new(),
            slots,
            depth,
            tasks: n * (1 + layout.chains.len()),
            live,
        })
    }

    /// A worker thread: claims and runs tasks until none are left or the
    /// pipeline is canceled.
    fn work(&self) {
        // A panicking worker must not leave the coordinator (or other
        // workers) blocked on a watermark forever.
        let _guard = CancelOnPanic(&self.hub);
        let mut scratch = PlanScratch::new();
        let per_frame = 1 + self.layout.chains.len();
        while let Some(i) = self.hub.claim(self.tasks, self.depth, |i| i / per_frame) {
            let (f, task) = (i / per_frame, i % per_frame);
            if task == 0 {
                self.admit_task(f);
            } else if !self.plan_task(f, task - 1, &mut scratch) {
                break;
            }
        }
    }

    /// Runs frame `f`'s admission, recording its rate-control events.
    fn admit_task(&self, f: usize) {
        let t0 = Instant::now();
        let (src, sb, base_q) =
            (&self.clip.frames()[f], self.enc.tools.superblock, self.base_cfg.qindex);
        let ((padded_src, qindex), rc) = if self.live {
            let mut local = CountingProbe::new();
            let mut rec = RecordingProbe::new(&mut local);
            (admit(&mut rec, src, sb, base_q), rec.into_batch())
        } else {
            (admit(&mut NullProbe, src, sb, base_q), EventBatch::new())
        };
        let busy_ns = t0.elapsed().as_nanos() as u64;
        let stored = self.slots[f].admission.set(Admission { padded_src, qindex, rc, busy_ns });
        assert!(stored.is_ok(), "each admission is claimed once");
        self.hub.notify();
    }

    /// Runs plan chain `ci` of frame `f`; `false` when the pipeline was
    /// canceled under it.
    fn plan_task(&self, f: usize, ci: usize, scratch: &mut PlanScratch) -> bool {
        let slot = &self.slots[f];
        if !self.hub.wait_until(|| slot.admission.get().is_some()) {
            return false;
        }
        let adm = slot.admission.get().expect("admission stored before the wait returns");
        let mut cfg = self.base_cfg.clone();
        cfg.qindex = adm.qindex;
        let keyframe = self.enc.is_keyframe(f);
        // The golden reference frame `f` reads: the refresh preceding it.
        let golden_slot = (f.saturating_sub(1) / GOLDEN_INTERVAL) * GOLDEN_INTERVAL;
        let refs = ViewRefs {
            hub: &self.hub,
            last: (!keyframe).then(|| &self.slots[f - 1].view),
            golden: (!keyframe && self.enc.tools.ref_frames > 1).then(|| {
                self.slots[golden_slot]
                    .golden_view
                    .as_ref()
                    .expect("refresh slots carry a golden view")
            }),
            stall_ns: Cell::new(0),
        };
        let chain = &self.layout.chains[ci];
        let t0 = Instant::now();
        let mut units = Vec::with_capacity(chain.units.len());
        let (tools, src) = (&self.enc.tools, &*adm.padded_src);
        let complete = if self.live {
            let mut local = CountingProbe::new();
            let mut rec = RecordingProbe::new(&mut local);
            plan_chain(&mut rec, tools, &cfg, src, &refs, chain, scratch, |rec, _, plans| {
                units.push(UnitOut { batch: rec.take_batch(), plans });
            })
        } else {
            plan_chain(&mut NullProbe, tools, &cfg, src, &refs, chain, scratch, |_, _, plans| {
                units.push(UnitOut { batch: EventBatch::new(), plans });
            })
        };
        if !complete {
            return false;
        }
        let stall_ns = refs.stall_ns.get();
        let busy_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(stall_ns);
        slot.chains.lock().unwrap_or_else(|e| e.into_inner())[ci] =
            Some(ChainOut { units, stall_ns, busy_ns });
        slot.chains_done.fetch_add(1, Ordering::Release);
        self.hub.notify();
        true
    }

    /// Waits for frame `f`'s admission and replays its rate-control
    /// events into `probe`.
    fn admitted<P: Probe>(
        &self,
        f: usize,
        probe: &mut P,
        stats: &mut PipelineStats,
    ) -> Result<(Arc<Frame>, u8), CodecError> {
        let slot = &self.slots[f];
        if !self.hub.wait_until(|| slot.admission.get().is_some()) {
            return Err(pipeline_canceled());
        }
        let adm = slot.admission.get().expect("admission stored before the wait returns");
        adm.rc.replay(probe);
        stats.busy_ns += adm.busy_ns;
        Ok((Arc::clone(&adm.padded_src), adm.qindex))
    }

    /// Waits for all of frame `f`'s plan chains, then replays their units
    /// into `probe` in canonical order, handing each unit's span, cost
    /// and plans to `accept`.
    fn planned<P: Probe>(
        &self,
        f: usize,
        probe: &mut P,
        stats: &mut PipelineStats,
        mut accept: impl FnMut(&UnitSpan, u64, Vec<NodePlan>),
    ) -> Result<(), CodecError> {
        let slot = &self.slots[f];
        let n_chains = self.layout.chains.len();
        if !self.hub.wait_until(|| slot.chains_done.load(Ordering::Acquire) == n_chains) {
            return Err(pipeline_canceled());
        }
        let outs = std::mem::take(&mut *slot.chains.lock().unwrap_or_else(|e| e.into_inner()));
        for (chain, out) in self.layout.chains.iter().zip(outs) {
            let out = out.expect("chain stored before chains_done");
            stats.stall_ns += out.stall_ns;
            stats.busy_ns += out.busy_ns;
            for (unit, u) in chain.units.iter().zip(out.units) {
                let mark = probe.retired();
                u.batch.replay(probe);
                accept(unit, probe.retired() - mark, u.plans);
            }
        }
        Ok(())
    }

    /// Whether frame `f`'s view has a reader: the next frame (unless it
    /// is intra-only) or the golden snapshot this refresh frame feeds.
    fn publishes(&self, f: usize) -> bool {
        let slot = &self.slots[f];
        slot.golden_view.is_some() || (f + 1 < self.slots.len() && !self.enc.is_keyframe(f + 1))
    }

    /// Publishes frame `f`'s first `coded` reconstruction rows to the
    /// planners waiting on them.
    fn publish(&self, f: usize, recon_luma: &Plane, coded: usize, qstep: i32) {
        if self.publishes(f) {
            let slot = &self.slots[f];
            slot.view.publish(&self.hub, recon_luma, coded, qstep, slot.golden_view.as_ref());
        }
    }
}

/// The pipeline was canceled under the coordinator: only reachable when
/// a worker panicked (its panic is rethrown when the thread scope
/// joins, superseding this error).
fn pipeline_canceled() -> CodecError {
    CodecError::UnsupportedInput { reason: "frame pipeline canceled".to_owned() }
}

/// Frames between golden-reference refreshes.
pub const GOLDEN_INTERVAL: usize = 8;

/// The CRF controller: adapts the frame quantizer around the base qindex
/// by the lookahead's activity measure. Busier frames take a coarser
/// quantizer (up to +8), flat frames a finer one (down to −8) — the
/// constant-quality adaptation CRF performs in real encoders.
pub fn frame_qindex(base: u8, activity: u64, pixels: usize) -> u8 {
    // Activity is a sum of 4x4-subsampled horizontal gradients; normalize
    // to per-256-pixel units.
    let per256 = (activity * 256 / (pixels as u64 / 16).max(1)).max(1);
    let delta = (((per256 as f64) / 96.0).log2() * 4.0).round().clamp(-8.0, 8.0) as i32;
    (base as i32 + delta).clamp(MIN_QINDEX as i32, MAX_QINDEX as i32) as u8
}

/// Pads a frame to a multiple of `sb` by border replication (the standard
/// encoder-internal alignment).
pub fn pad_to_multiple(src: &Frame, sb: usize) -> Frame {
    let w = src.width();
    let h = src.height();
    let pw = w.div_ceil(sb) * sb;
    let ph = h.div_ceil(sb) * sb;
    if pw == w && ph == h {
        return src.clone();
    }
    let mut out = Frame::new(pw, ph).expect("padded geometry is valid");
    let copy_plane = |dst: &mut vstress_video::Plane, sp: &vstress_video::Plane| {
        for y in 0..dst.height() {
            for x in 0..dst.width() {
                dst.set(x, y, sp.get_clamped(x as isize, y as isize));
            }
        }
    };
    copy_plane(out.luma_mut(), src.luma());
    copy_plane(out.cb_mut(), src.cb());
    copy_plane(out.cr_mut(), src.cr());
    out
}

/// Crops a (padded) frame back to `w x h`.
pub fn crop(src: &Frame, w: usize, h: usize) -> Result<Frame, CodecError> {
    if src.width() == w && src.height() == h {
        return Ok(src.clone());
    }
    let mut out = Frame::new(w, h).map_err(CodecError::Video)?;
    let copy_plane = |dst: &mut vstress_video::Plane, sp: &vstress_video::Plane| {
        for y in 0..dst.height() {
            for x in 0..dst.width() {
                dst.set(x, y, sp.get(x, y));
            }
        }
    };
    copy_plane(out.luma_mut(), src.luma());
    copy_plane(out.cb_mut(), src.cb());
    copy_plane(out.cr_mut(), src.cr());
    Ok(out)
}

/// Luma PSNR over the `w x h` source region of a (possibly padded) recon.
fn region_psnr(src: &Frame, recon: &Frame, w: usize, h: usize) -> f64 {
    let (a, b) = (src.luma(), recon.luma());
    let mut acc = 0u64;
    for y in 0..h {
        for x in 0..w {
            let d = a.get(x, y) as i64 - b.get(x, y) as i64;
            acc += (d * d) as u64;
        }
    }
    vstress_video::metrics::mse_to_psnr(acc as f64 / (w * h) as f64)
}

/// The rate-control / lookahead pass: a downsampled activity analysis of
/// the frame (serial per frame — the stage that throttles x265's threading
/// in the task-graph model). Returns the activity measure the CRF
/// controller consumes.
fn rate_control_pass<P: Probe>(probe: &mut P, frame: &Frame) -> u64 {
    probe.set_kernel(Kernel::RateControl);
    let luma = frame.luma();
    let mut activity = 0u64;
    for y in (0..luma.height()).step_by(4) {
        for x in (4..luma.width()).step_by(4) {
            activity += (luma.get(x, y) as i64 - luma.get(x - 4, y) as i64).unsigned_abs();
        }
        probe.load(luma.sample_addr(0, y), 32);
        probe.avx((luma.width() as u64 / 4).div_ceil(8));
        probe.alu(2);
        probe.branch(RATE_CONTROL_BRANCH_PC, y + 4 < luma.height());
    }
    probe.alu(activity % 3); // data-dependent tail work
    activity
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstress_trace::{CountingProbe, NullProbe};
    use vstress_video::vbench::{self, FidelityConfig};

    fn smoke_clip(name: &str) -> Clip {
        vbench::clip(name).unwrap().synthesize(&FidelityConfig::smoke())
    }

    #[test]
    fn encode_produces_bits_and_reasonable_psnr() {
        let clip = smoke_clip("desktop");
        let enc = Encoder::new(CodecId::SvtAv1, EncoderParams::new(40, 8)).unwrap();
        let out = enc.encode(&clip, &mut NullProbe).unwrap();
        assert!(out.total_bits() > 0);
        assert!(out.mean_psnr() > 24.0, "psnr {}", out.mean_psnr());
        assert_eq!(out.recon.len(), clip.frames().len());
        assert_eq!(out.recon[0].width(), clip.dimensions().0);
    }

    #[test]
    fn lower_crf_means_better_quality_and_more_bits() {
        let clip = smoke_clip("game2");
        let hi_q = Encoder::new(CodecId::SvtAv1, EncoderParams::new(10, 8)).unwrap();
        let lo_q = Encoder::new(CodecId::SvtAv1, EncoderParams::new(60, 8)).unwrap();
        let a = hi_q.encode(&clip, &mut NullProbe).unwrap();
        let b = lo_q.encode(&clip, &mut NullProbe).unwrap();
        assert!(a.mean_psnr() > b.mean_psnr(), "{} vs {}", a.mean_psnr(), b.mean_psnr());
        assert!(a.total_bits() > b.total_bits(), "{} vs {}", a.total_bits(), b.total_bits());
    }

    #[test]
    fn av1_model_burns_more_instructions_than_x264() {
        let clip = smoke_clip("bike");
        let svt = Encoder::new(CodecId::SvtAv1, EncoderParams::new(30, 4)).unwrap();
        let x264 = Encoder::new(CodecId::X264, EncoderParams::new(24, 5)).unwrap();
        let mut p1 = CountingProbe::new();
        let mut p2 = CountingProbe::new();
        svt.encode(&clip, &mut p1).unwrap();
        x264.encode(&clip, &mut p2).unwrap();
        assert!(
            p1.mix().total() > p2.mix().total() * 3,
            "SVT {} vs x264 {}",
            p1.mix().total(),
            p2.mix().total()
        );
    }

    #[test]
    fn task_trace_covers_all_sb_rows() {
        let clip = smoke_clip("cat");
        let enc = Encoder::new(CodecId::SvtAv1, EncoderParams::new(50, 8)).unwrap();
        let mut probe = CountingProbe::new();
        let out = enc.encode(&clip, &mut probe).unwrap();
        assert_eq!(out.tasks.frames.len(), clip.frames().len());
        let (_, h) = clip.dimensions();
        let rows = h.div_ceil(32);
        for f in &out.tasks.frames {
            assert_eq!(f.sb_rows.len(), rows);
            assert!(f.sb_rows.iter().all(|&c| c > 0), "every row did work");
            assert!(f.lookahead > 0 && f.filter > 0);
        }
    }

    #[test]
    fn padding_and_crop_roundtrip() {
        let clip = smoke_clip("holi");
        let f = &clip.frames()[0];
        let padded = pad_to_multiple(f, 32);
        assert_eq!(padded.width() % 32, 0);
        assert_eq!(padded.height() % 32, 0);
        let back = crop(&padded, f.width(), f.height()).unwrap();
        assert_eq!(&back, f);
    }

    #[test]
    fn rate_control_tracks_activity() {
        // Flat content must get a finer quantizer than busy content.
        let flat = frame_qindex(60, 10, 64 * 64);
        let busy = frame_qindex(60, 4_000_000, 64 * 64);
        assert!(flat < 60, "flat frame should lower qindex: {flat}");
        assert!(busy > 60, "busy frame should raise qindex: {busy}");
        // Deltas are clamped to +-8 and the qindex range.
        assert!(busy <= 68);
        assert!(frame_qindex(6, 0, 1024) >= crate::params::MIN_QINDEX);
        assert!(frame_qindex(96, u64::MAX / 1024, 1024) <= crate::params::MAX_QINDEX);
    }

    #[test]
    fn golden_reference_helps_flickering_content() {
        // Frames alternate A,B,A,B…: the golden reference (frame 0 = A)
        // predicts the A frames far better than the previous frame (B).
        use vstress_video::synth::{SceneClass, SynthParams};
        let a = SynthParams {
            width: 64,
            height: 48,
            frame_count: 1,
            fps: 30.0,
            entropy: 5.0,
            class: SceneClass::Natural,
            seed: 11,
        }
        .synthesize("a")
        .unwrap();
        let b = SynthParams {
            width: 64,
            height: 48,
            frame_count: 1,
            fps: 30.0,
            entropy: 5.0,
            class: SceneClass::Natural,
            seed: 99,
        }
        .synthesize("b")
        .unwrap();
        let frames: Vec<Frame> = (0..6)
            .map(|i| if i % 2 == 0 { a.frames()[0].clone() } else { b.frames()[0].clone() })
            .collect();
        let clip = Clip::from_frames("flicker", frames, 30.0).unwrap();
        let params = EncoderParams::new(35, 4);
        let two_ref = Encoder::new(CodecId::SvtAv1, params).unwrap();
        assert_eq!(two_ref.tools().ref_frames, 2);
        let mut one_ref_tools = two_ref.tools().clone();
        one_ref_tools.ref_frames = 1;
        let one_ref = Encoder::with_tools(one_ref_tools, params).unwrap();
        let with2 = two_ref.encode(&clip, &mut NullProbe).unwrap();
        let with1 = one_ref.encode(&clip, &mut NullProbe).unwrap();
        assert!(
            with2.total_bits() < with1.total_bits(),
            "golden ref must cut flicker bits: {} vs {}",
            with2.total_bits(),
            with1.total_bits()
        );
    }

    #[test]
    fn keyframes_roundtrip_and_cost_more_bits() {
        let clip = smoke_clip("game2");
        let base = EncoderParams::new(35, 6);
        let keyed = base.with_keyint(2);
        let enc_base = Encoder::new(CodecId::SvtAv1, base).unwrap();
        let enc_keyed = Encoder::new(CodecId::SvtAv1, keyed).unwrap();
        let out_base = enc_base.encode(&clip, &mut NullProbe).unwrap();
        let out_keyed = enc_keyed.encode(&clip, &mut NullProbe).unwrap();
        // Intra-only refresh frames cost extra bits.
        assert!(
            out_keyed.total_bits() > out_base.total_bits(),
            "{} vs {}",
            out_keyed.total_bits(),
            out_base.total_bits()
        );
        // And the stream still decodes to the encoder's reconstruction.
        let dec =
            crate::decoder::Decoder::new().decode(&out_keyed.bitstream, &mut NullProbe).unwrap();
        assert_eq!(dec.header.keyint, 2);
        for (d, r) in dec.frames.iter().zip(&out_keyed.recon) {
            assert_eq!(d, r);
        }
    }

    #[test]
    fn with_tools_validates() {
        let params = EncoderParams::new(30, 4);
        let mut tools = crate::codecs::ToolSet::resolve(CodecId::X264, &params).unwrap();
        tools.ref_frames = 5;
        assert!(Encoder::with_tools(tools, params).is_err());
    }

    #[test]
    fn oversized_clip_is_rejected() {
        let frames = vec![Frame::new(16, 16).unwrap(); 2];
        let clip = Clip::from_frames("tiny", frames, 30.0).unwrap();
        // 65536 is a valid plane width but overflows the header's 16-bit
        // width field.
        let wide = Clip::from_frames("wide", vec![Frame::new(1 << 16, 2).unwrap()], 30.0).unwrap();
        let enc = Encoder::new(CodecId::X264, EncoderParams::new(20, 5)).unwrap();
        assert!(enc.encode(&clip, &mut NullProbe).is_ok());
        assert!(matches!(
            enc.encode(&wide, &mut NullProbe),
            Err(CodecError::UnsupportedInput { .. })
        ));
        // The one geometry check guards every worker combination.
        for (tile_workers, frame_workers) in [(4, 1), (2, 2)] {
            let ctx = format!("{tile_workers}x{frame_workers}");
            assert!(enc
                .encode_threaded(&clip, &mut NullProbe, tile_workers, frame_workers)
                .is_ok());
            assert!(
                matches!(
                    enc.encode_threaded(&wide, &mut NullProbe, tile_workers, frame_workers),
                    Err(CodecError::UnsupportedInput { .. })
                ),
                "{ctx}: oversized clip must be rejected"
            );
        }
    }
}
