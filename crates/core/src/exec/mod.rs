//! Parallel experiment execution and the characterization run-cache.
//!
//! Every figure/table runner decomposes into independent
//! [`RunSpec`]s, so the whole reproduction is an embarrassingly
//! parallel batch — the same structure the paper's datacenter framing
//! assumes. [`run_all`] fans specs out over the
//! [`run_ordered`](vstress_codecs::batch::run_ordered) work queue, and
//! [`RunCache`] memoizes five layers of shared work:
//!
//! * **captures** — [`CapturedEncode`]s: the canonical probe event
//!   stream plus every stream-independent measurement of one encode,
//!   keyed by (clip, codec, params, fidelity) only. This is the **only
//!   layer that encodes**; every other layer derives its result from
//!   the capture, so one encode serves many simulations
//!   (capture once, simulate many).
//! * **runs** — [`CharacterizationRun`]s keyed by everything that
//!   determines them (clip, codec, params, fidelity, cache divisor,
//!   pipeline on/off), derived by replaying the capture's stream
//!   through a fresh core model — or, when the capture itself is being
//!   recorded, by simulating chunks concurrently with the recording
//!   encode over a bounded channel. Figures that share quality points
//!   (Figs. 4–7 slice one sweep; Fig. 1/2a/2b share encodes; Table 2
//!   shares the CRF-63 encodes with Fig. 8) never recompute an encode.
//! * **clips** — synthesized vbench clips keyed by (name, fidelity).
//! * **branch windows** — the CBP study's mid-run traces, sliced out of
//!   the capture's stream (keyed additionally by the window length), so
//!   a CBP matrix re-run against a warm store performs zero encodes.
//! * **encode/decode costs** — the decode-cost study's instruction
//!   pairs; the encode side reads the capture's mix, the decode side
//!   decodes the capture's bitstream.
//!
//! Attaching a persistent [`store::RunStore`] (see
//! [`RunCache::with_store`]) extends the capture, run, window and cost
//! layers across processes: a repeated or interrupted
//! `vstress-repro --store` invocation reloads completed entries from
//! disk instead of re-encoding, and new simulations (a different cache
//! divisor, another window length) replay the persisted stream instead
//! of re-running the encoder. Clips are *not* persisted — synthesizing
//! one is cheaper than deserializing its pixel planes, and a fully
//! store-served run never needs the clip at all.
//!
//! Parallelism never changes results: each worker owns its probes and
//! `CoreModel`, and every probed buffer carries a synthetic
//! page-aligned address (see `vstress_trace::probe_addr`), so a spec's
//! characterization is a pure function of the spec. The
//! `parallel_equivalence` integration test pins this down; the same
//! determinism is what makes cross-process reuse sound.

pub mod store;

pub use store::{DiskUsage, KindUsage, RunStore, StoreStats, SCHEMA_VERSION};

use crate::workbench::{
    capture_encode_with, characterize_from_capture, run_from_parts, CapturedEncode,
    CharacterizationRun, RunSpec, WorkbenchError,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use store::{KIND_COST, KIND_RUN, KIND_STREAM, KIND_WINDOW};
use vstress_codecs::batch::run_ordered;
use vstress_codecs::{CodecId, Decoder, EncoderParams};
use vstress_pipeline::CoreModel;
use vstress_trace::io::{read_branch_trace, write_branch_trace};
use vstress_trace::stream::chunk_channel;
use vstress_trace::{wire, BranchRecord, BranchWindowProbe, ChunkTx, CountingProbe};
use vstress_video::vbench::FidelityConfig;
use vstress_video::Clip;

/// Bounded depth (in ~1 MiB chunks) of the capture→simulate channel:
/// enough that neither side stalls on short bursts, small enough that a
/// slow consumer caps the recorder's working set at a few megabytes.
const CAPTURE_CHANNEL_CHUNKS: usize = 8;

/// The hashable projection of [`FidelityConfig`].
type FidelityKey = (usize, usize, u64);

fn fidelity_key(f: &FidelityConfig) -> FidelityKey {
    (f.dimension_divisor, f.frame_count, f.seed)
}

/// Everything that determines a [`CharacterizationRun`].
///
/// `RunSpec::tile_workers` and `RunSpec::frame_workers` are deliberately
/// absent: both the tile/wavefront decomposition and the cross-frame
/// pipeline are worker-count invariant (the probe-merge contract), so a
/// run computed at any worker count serves every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    clip: &'static str,
    codec: CodecId,
    params: EncoderParams,
    fidelity: FidelityKey,
    cache_divisor: usize,
    model_pipeline: bool,
}

impl RunKey {
    fn of(spec: &RunSpec) -> Self {
        RunKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
            cache_divisor: spec.cache_divisor,
            model_pipeline: spec.model_pipeline,
        }
    }

    /// Stable, human-readable key text for the persistent store. Any
    /// change here must come with a [`SCHEMA_VERSION`] bump.
    fn store_text(&self) -> String {
        format!(
            "{}|{:?}|crf{}-p{}-t{}-k{}|fid{}x{}s{:#x}|div{}|pipe{}",
            self.clip,
            self.codec,
            self.params.crf,
            self.params.preset,
            self.params.threads,
            self.params.keyint,
            self.fidelity.0,
            self.fidelity.1,
            self.fidelity.2,
            self.cache_divisor,
            self.model_pipeline,
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClipKey {
    clip: &'static str,
    fidelity: FidelityKey,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WindowKey {
    clip: &'static str,
    codec: CodecId,
    params: EncoderParams,
    fidelity: FidelityKey,
    window: u64,
}

impl WindowKey {
    /// Stable key text for the persistent store's window layer.
    fn store_text(&self) -> String {
        format!(
            "{}|{:?}|crf{}-p{}-t{}-k{}|fid{}x{}s{:#x}|win{}",
            self.clip,
            self.codec,
            self.params.crf,
            self.params.preset,
            self.params.threads,
            self.params.keyint,
            self.fidelity.0,
            self.fidelity.1,
            self.fidelity.2,
            self.window,
        )
    }
}

/// Everything that determines a [`CapturedEncode`] — the spec minus
/// `cache_divisor` and `model_pipeline` (simulation-side knobs that
/// never reach the encoder) and minus `tile_workers`/`frame_workers`
/// (worker-count invariant in both dimensions): one capture serves
/// every characterization of its encode point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CaptureKey {
    clip: &'static str,
    codec: CodecId,
    params: EncoderParams,
    fidelity: FidelityKey,
}

impl CaptureKey {
    fn of(spec: &RunSpec) -> Self {
        CaptureKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
        }
    }

    /// Stable key text for the persistent store's stream layer.
    fn store_text(&self) -> String {
        format!(
            "{}|{:?}|crf{}-p{}-t{}-k{}|fid{}x{}s{:#x}|stream",
            self.clip,
            self.codec,
            self.params.crf,
            self.params.preset,
            self.params.threads,
            self.params.keyint,
            self.fidelity.0,
            self.fidelity.1,
            self.fidelity.2,
        )
    }
}

/// A captured mid-run branch window: the records plus the number of
/// instructions the window actually covered.
///
/// The records sit behind an `Arc<[BranchRecord]>` so every consumer of
/// a cached window — the CBP study replays each one through four
/// predictors, possibly from several replay workers at once — shares a
/// single allocation instead of cloning a multi-million-record vector
/// per use.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchWindow {
    /// The captured branch records, in program order.
    pub records: Arc<[BranchRecord]>,
    /// Instructions the window actually covered (the MPKI denominator).
    pub instructions: u64,
}

// The store's `window` payload: the records in the VBT1 branch-trace
// format (`trace::io`, about one byte per branch), then the instruction
// count.
impl store::Persist for BranchWindow {
    fn write_payload(&self, out: &mut Vec<u8>) {
        write_branch_trace(&self.records, &mut *out).expect("writing to a Vec cannot fail");
        wire::put_u64(out, self.instructions);
    }

    fn read_payload(payload: &mut &[u8]) -> Result<Self, serde::Error> {
        let records = read_branch_trace(&mut *payload)
            .map_err(|e| serde::Error::new(format!("window branch trace: {e}")))?;
        let instructions = wire::take_u64(payload, "window instructions")?;
        Ok(BranchWindow { records: records.into(), instructions })
    }
}

/// Instruction costs of one encode and of decoding its bitstream — the
/// decode-cost study's measurement, cached and persisted like runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EncodeDecodeCost {
    /// Instructions retired by the encode.
    pub encode_instructions: u64,
    /// Instructions retired decoding the produced bitstream.
    pub decode_instructions: u64,
}

/// One cache entry: a per-key lock around the (eventually) computed
/// value. A racer for an in-flight key blocks on the slot lock instead
/// of recomputing; distinct keys never contend beyond the brief map
/// lookup.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// Locks a mutex, recovering from poison: a panic inside one compute
/// must not cascade into panics on every later lookup of that key. The
/// protected state is valid at any panic point (an empty or fully
/// written slot, or the map between operations), so the poison flag
/// carries no information here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Looks up `key`, computing the value at most once per key. A failed
/// compute removes its map entry again so repeated failures cannot grow
/// the map, and a panicking compute neither poisons later lookups nor
/// leaves a dead slot behind a retry.
fn memo<K: Eq + Hash + Clone, V>(
    map: &Mutex<HashMap<K, Slot<V>>>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: K,
    compute: impl FnOnce() -> Result<V, WorkbenchError>,
) -> Result<Arc<V>, WorkbenchError> {
    let slot = Arc::clone(lock_unpoisoned(map).entry(key.clone()).or_default());
    let mut guard = lock_unpoisoned(&slot);
    if let Some(v) = guard.as_ref() {
        hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(v));
    }
    misses.fetch_add(1, Ordering::Relaxed);
    match compute() {
        Ok(v) => {
            let v = Arc::new(v);
            *guard = Some(Arc::clone(&v));
            Ok(v)
        }
        Err(e) => {
            // Drop the dead entry — but only if it is still ours; a
            // concurrent failure may already have replaced it.
            let mut m = lock_unpoisoned(map);
            if m.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                m.remove(&key);
            }
            Err(e)
        }
    }
}

/// Hit/miss counters for the cache layers and the optional persistent
/// store (test observability — a hit proves no re-encode happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCacheStats {
    /// Characterization-run cache hits.
    pub run_hits: u64,
    /// Characterization-run cache misses (computes; each is an encode
    /// unless the persistent store served it).
    pub run_misses: u64,
    /// Clip-synthesis cache hits.
    pub clip_hits: u64,
    /// Clip-synthesis cache misses (clips synthesized).
    pub clip_misses: u64,
    /// Branch-window cache hits.
    pub window_hits: u64,
    /// Branch-window cache misses (window captures, unless store-served).
    pub window_misses: u64,
    /// Encode/decode-cost cache hits.
    pub cost_hits: u64,
    /// Encode/decode-cost cache misses (encode+decode pairs, unless
    /// store-served).
    pub cost_misses: u64,
    /// Captured-encode cache hits (stream reused from memory).
    pub capture_hits: u64,
    /// Captured-encode cache misses (stream loaded from the store, or
    /// recorded by an encode).
    pub capture_misses: u64,
    /// Recording encodes actually performed — the capture layer is the
    /// only encode site, so this counts every encoder invocation in the
    /// process.
    pub encodes: u64,
    /// Event streams captured fresh (recorded rather than reloaded from
    /// memory or the store). Equal to [`RunCacheStats::encodes`] today;
    /// kept separate so warm-store assertions name the thing they mean.
    pub stream_captures: u64,
    /// Persistent-store hits (entries loaded from disk; no work done).
    pub store_hits: u64,
    /// Persistent-store misses (entries computed and written back).
    /// Zero when no store is attached.
    pub store_misses: u64,
    /// Corrupt or stale store entries quarantined and recomputed.
    pub store_quarantined: u64,
}

/// Memoizes captured encodes, characterization runs, synthesized
/// clips, CBP branch windows and encode/decode costs. Thread-safe;
/// share one instance per process via `Arc` (the
/// [`ExperimentConfig`](crate::experiments::ExperimentConfig) embeds
/// one and `Clone` shares it).
///
/// With [`RunCache::with_store`], the capture, run, window and cost
/// layers additionally extend across processes through a persistent
/// [`RunStore`].
#[derive(Default)]
pub struct RunCache {
    runs: Mutex<HashMap<RunKey, Slot<CharacterizationRun>>>,
    clips: Mutex<HashMap<ClipKey, Slot<Clip>>>,
    windows: Mutex<HashMap<WindowKey, Slot<BranchWindow>>>,
    costs: Mutex<HashMap<RunKey, Slot<EncodeDecodeCost>>>,
    captures: Mutex<HashMap<CaptureKey, Slot<CapturedEncode>>>,
    store: Option<Arc<RunStore>>,
    run_hits: AtomicU64,
    run_misses: AtomicU64,
    clip_hits: AtomicU64,
    clip_misses: AtomicU64,
    window_hits: AtomicU64,
    window_misses: AtomicU64,
    cost_hits: AtomicU64,
    cost_misses: AtomicU64,
    capture_hits: AtomicU64,
    capture_misses: AtomicU64,
    encodes: AtomicU64,
    stream_captures: AtomicU64,
}

impl std::fmt::Debug for RunCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCache").field("stats", &self.stats()).finish()
    }
}

impl RunCache {
    /// A fresh, empty, in-memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh cache backed by a persistent store: capture, run, window
    /// and cost computes consult `store` before doing work and write
    /// results back, so a second process over the same specs performs
    /// zero encodes.
    pub fn with_store(store: Arc<RunStore>) -> Self {
        RunCache { store: Some(store), ..Self::default() }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<RunStore>> {
        self.store.as_ref()
    }

    /// Snapshot of the hit/miss counters (cache layers + store).
    pub fn stats(&self) -> RunCacheStats {
        let store = self.store.as_deref().map(RunStore::stats).unwrap_or_default();
        RunCacheStats {
            run_hits: self.run_hits.load(Ordering::Relaxed),
            run_misses: self.run_misses.load(Ordering::Relaxed),
            clip_hits: self.clip_hits.load(Ordering::Relaxed),
            clip_misses: self.clip_misses.load(Ordering::Relaxed),
            window_hits: self.window_hits.load(Ordering::Relaxed),
            window_misses: self.window_misses.load(Ordering::Relaxed),
            cost_hits: self.cost_hits.load(Ordering::Relaxed),
            cost_misses: self.cost_misses.load(Ordering::Relaxed),
            capture_hits: self.capture_hits.load(Ordering::Relaxed),
            capture_misses: self.capture_misses.load(Ordering::Relaxed),
            encodes: self.encodes.load(Ordering::Relaxed),
            stream_captures: self.stream_captures.load(Ordering::Relaxed),
            store_hits: store.hits,
            store_misses: store.misses,
            store_quarantined: store.quarantined,
        }
    }

    /// Consults the store (if attached), computing and writing back on
    /// a miss — the shared shape of every persisted layer's compute.
    fn through_store<V>(
        &self,
        kind: &str,
        key_text: &str,
        compute: impl FnOnce() -> Result<V, WorkbenchError>,
    ) -> Result<V, WorkbenchError>
    where
        V: store::Persist,
    {
        if let Some(store) = &self.store {
            if let Some(v) = store.get::<V>(kind, key_text) {
                return Ok(v);
            }
        }
        let v = compute()?;
        if let Some(store) = &self.store {
            store.put(kind, key_text, &v);
        }
        Ok(v)
    }

    /// The synthesized clip for `(name, fidelity)`, computing it on the
    /// first request.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Video`] for unknown clip names.
    pub fn clip(
        &self,
        name: &'static str,
        fidelity: &FidelityConfig,
    ) -> Result<Arc<Clip>, WorkbenchError> {
        let key = ClipKey { clip: name, fidelity: fidelity_key(fidelity) };
        memo(&self.clips, &self.clip_hits, &self.clip_misses, key, || {
            Ok(vstress_video::vbench::clip(name)?.synthesize(fidelity))
        })
    }

    /// The shared captured encode for `spec`'s (clip, codec, params,
    /// fidelity) point — recorded at most once per key and persisted in
    /// the store's `stream` layer. `sink`, used only when this call
    /// ends up performing the recording encode, streams chunks to a
    /// concurrent consumer as they fill.
    fn capture(
        &self,
        spec: &RunSpec,
        sink: Option<ChunkTx>,
    ) -> Result<Arc<CapturedEncode>, WorkbenchError> {
        let key = CaptureKey::of(spec);
        memo(&self.captures, &self.capture_hits, &self.capture_misses, key, || {
            self.through_store(KIND_STREAM, &key.store_text(), || {
                let clip = self.clip(spec.clip, &spec.fidelity)?;
                self.encodes.fetch_add(1, Ordering::Relaxed);
                self.stream_captures.fetch_add(1, Ordering::Relaxed);
                capture_encode_with(spec, &clip, sink)
            })
        })
    }

    /// The characterization of `spec`, derived from the shared capture
    /// of its encode point — encoding only on the first request for
    /// that point, or never, when the persistent store already holds
    /// the run or its stream.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis or the encode.
    pub fn run(&self, spec: &RunSpec) -> Result<Arc<CharacterizationRun>, WorkbenchError> {
        let key = RunKey::of(spec);
        memo(&self.runs, &self.run_hits, &self.run_misses, key, || {
            self.through_store(KIND_RUN, &key.store_text(), || self.run_via_capture(spec))
        })
    }

    /// Computes a characterization from the spec's shared capture. For
    /// pipeline specs whose capture is not yet available, the recording
    /// encode and the core-model simulation overlap: the recorder's
    /// sink hands each ~1 MiB chunk to a consumer thread over a bounded
    /// channel while the encode keeps producing the next one. If the
    /// capture turns out to be served from memory or the store instead
    /// (nothing flowed through the channel), the stream is replayed
    /// serially.
    fn run_via_capture(&self, spec: &RunSpec) -> Result<CharacterizationRun, WorkbenchError> {
        if !spec.model_pipeline {
            let cap = self.capture(spec, None)?;
            return Ok(characterize_from_capture(spec, &cap));
        }
        std::thread::scope(|scope| {
            let (tx, rx) = chunk_channel(CAPTURE_CHANNEL_CHUNKS);
            let divisor = spec.cache_divisor;
            let consumer = scope.spawn(move || {
                let mut core = CoreModel::broadwell_scaled(divisor);
                let mut chunks = 0usize;
                while let Some(chunk) = rx.recv() {
                    core.consume_chunk(&chunk);
                    chunks += 1;
                }
                (core, chunks)
            });
            let cap = self.capture(spec, Some(tx));
            // The sink is dropped even on a memo/store hit (the unused
            // closure owns it), so the consumer always drains and joins.
            let (core, consumed) = match consumer.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            };
            let cap = cap?;
            if consumed == cap.stream.chunks().len() {
                // Our sink fed the whole recording: the consumer's core
                // has already simulated exactly this stream.
                Ok(run_from_parts(spec, &cap, core))
            } else {
                // The capture came from elsewhere (memory or store) and
                // the channel stayed empty; replay its stream serially.
                Ok(characterize_from_capture(spec, &cap))
            }
        })
    }

    /// The CBP study's mid-run branch window for one encode
    /// configuration: a centered window of at most `window` instructions
    /// sliced out of the shared capture's event stream — no dedicated
    /// encode pass, and zero encodes when the stream is store-served.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis or the encode.
    pub fn branch_window(
        &self,
        spec: &RunSpec,
        window: u64,
    ) -> Result<Arc<BranchWindow>, WorkbenchError> {
        let key = WindowKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
            window,
        };
        memo(&self.windows, &self.window_hits, &self.window_misses, key, || {
            self.through_store(KIND_WINDOW, &key.store_text(), || {
                let cap = self.capture(spec, None)?;
                let total = cap.mix.total();
                let mut probe = BranchWindowProbe::mid_run(total, window.min(total));
                cap.stream.replay(&mut probe);
                let captured = probe.window_retired().max(1);
                Ok(BranchWindow { records: probe.into_records().into(), instructions: captured })
            })
        })
    }

    /// The decode-cost study's measurement for `spec`: instructions to
    /// encode the clip (the capture's mix total), and to decode the
    /// capture's bitstream.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis, the encode or
    /// the decode.
    pub fn encode_decode_cost(
        &self,
        spec: &RunSpec,
    ) -> Result<Arc<EncodeDecodeCost>, WorkbenchError> {
        let key = RunKey::of(spec);
        memo(&self.costs, &self.cost_hits, &self.cost_misses, key, || {
            self.through_store(KIND_COST, &format!("{}|cost", key.store_text()), || {
                let cap = self.capture(spec, None)?;
                let mut pd = CountingProbe::new();
                Decoder::new().decode(&cap.bitstream, &mut pd)?;
                Ok(EncodeDecodeCost {
                    encode_instructions: cap.mix.total(),
                    decode_instructions: pd.mix().total(),
                })
            })
        })
    }
}

/// The default worker-pool size for batch executors and the serve
/// pipeline: every available core (1 when parallelism is undetectable).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Characterizes every spec, in input order, on up to `threads` worker
/// threads, memoizing through `cache`.
///
/// Results are bit-identical to a serial `characterize` loop at any
/// thread count (each worker owns its probes and core model).
///
/// # Errors
///
/// Returns the first-by-index [`WorkbenchError`]; workers stop claiming
/// specs once one fails.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_all(
    cache: &RunCache,
    threads: usize,
    specs: &[RunSpec],
) -> Result<Vec<Arc<CharacterizationRun>>, WorkbenchError> {
    run_ordered(specs.len(), threads, |i| cache.run(&specs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec::quick("cat", CodecId::X264, EncoderParams::new(30, 5))
    }

    #[test]
    fn run_cache_hits_skip_the_encode() {
        let cache = RunCache::new();
        let a = cache.run(&spec()).unwrap();
        let b = cache.run(&spec()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit must return the cached run");
        let s = cache.stats();
        assert_eq!((s.run_hits, s.run_misses), (1, 1));
        assert_eq!((s.clip_hits, s.clip_misses), (0, 1));
        assert_eq!((s.store_hits, s.store_misses), (0, 0), "no store attached");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = RunCache::new();
        let pipeline = cache.run(&spec()).unwrap();
        let counting = cache.run(&spec().counting_only()).unwrap();
        assert!(pipeline.core.instructions > 0);
        assert_eq!(counting.core.instructions, 0);
        let s = cache.stats();
        assert_eq!(s.run_misses, 2);
        // Both runs derive from one shared capture: a single encode.
        assert_eq!((s.capture_hits, s.capture_misses), (1, 1));
        assert_eq!(s.encodes, 1);
        assert_eq!(s.stream_captures, 1);
    }

    #[test]
    fn run_all_matches_serial_and_dedupes() {
        let specs = vec![spec(), spec().counting_only(), spec()];
        let cache = RunCache::new();
        let runs = run_all(&cache, 2, &specs).unwrap();
        assert_eq!(runs.len(), 3);
        let serial = crate::workbench::characterize(&specs[0]).unwrap();
        assert_eq!(runs[0].core.instructions, serial.core.instructions);
        assert_eq!(runs[0].total_bits, serial.total_bits);
        // Specs 0 and 2 share a key: at most 2 encodes happened.
        assert_eq!(cache.stats().run_misses, 2);
    }

    #[test]
    fn failed_computes_do_not_leak_map_entries() {
        let map: Mutex<HashMap<u32, Slot<u32>>> = Mutex::new(HashMap::new());
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        let fail =
            || Err(WorkbenchError::Video(vstress_video::VideoError::UnknownClip("nope".into())));
        for _ in 0..3 {
            assert!(memo(&map, &hits, &misses, 7u32, fail).is_err());
            assert!(map.lock().unwrap().is_empty(), "error path must remove the slot");
        }
        assert_eq!(misses.load(Ordering::Relaxed), 3, "every retry recomputes");
        // After the failures, a success for the same key still lands.
        let v = memo(&map, &hits, &misses, 7u32, || Ok(42)).unwrap();
        assert_eq!(*v, 42);
        assert_eq!(map.lock().unwrap().len(), 1);
    }

    #[test]
    fn panicking_compute_does_not_poison_later_lookups() {
        let map: Mutex<HashMap<u32, Slot<u32>>> = Mutex::new(HashMap::new());
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = memo(&map, &hits, &misses, 7u32, || panic!("boom"));
        }));
        assert!(panicked.is_err(), "the panic must propagate to the caller");
        // The slot mutex is now poisoned; a later lookup of the same key
        // must recover, recompute and succeed — not cascade the panic.
        let v = memo(&map, &hits, &misses, 7u32, || Ok(5)).unwrap();
        assert_eq!(*v, 5);
        // And a plain hit afterwards still works.
        let v = memo(&map, &hits, &misses, 7u32, || unreachable!("must hit")).unwrap();
        assert_eq!(*v, 5);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn encode_decode_cost_is_cached() {
        let cache = RunCache::new();
        let a = cache.encode_decode_cost(&spec()).unwrap();
        let b = cache.encode_decode_cost(&spec()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.encode_instructions > a.decode_instructions);
        let s = cache.stats();
        assert_eq!((s.cost_hits, s.cost_misses), (1, 1));
    }
}
