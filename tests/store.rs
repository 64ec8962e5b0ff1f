//! Persistent run-store integration tests: cross-process reuse,
//! corruption recovery, and schema-version invalidation.
//!
//! "Cross-process" is modelled by dropping every piece of in-memory
//! state (the `RunCache` and the `RunStore` handle) and reopening the
//! same directory with fresh ones — exactly what a second
//! `vstress-repro --store` invocation does.

use std::path::PathBuf;
use std::sync::Arc;
use vstress::codecs::{CodecId, EncoderParams};
use vstress::workbench::RunSpec;
use vstress::{RunCache, RunStore};

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstress-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> RunSpec {
    RunSpec::quick("cat", CodecId::X264, EncoderParams::new(30, 5))
}

/// A cache with all process state dropped, reattached to `root`.
fn fresh_cache(root: &PathBuf) -> RunCache {
    RunCache::with_store(Arc::new(RunStore::open(root).unwrap()))
}

#[test]
fn reloaded_run_is_bit_identical() {
    let root = tmp_root("roundtrip");

    // Process 1: compute and persist.
    let first = fresh_cache(&root);
    let computed = first.run(&spec()).unwrap();
    let s = first.stats();
    // Two misses: the run entry and the capture's stream entry.
    assert_eq!((s.store_hits, s.store_misses), (0, 2));
    assert_eq!(s.encodes, 1);
    drop(first);

    // Process 2: a brand-new cache + store over the same directory must
    // serve the run from disk, bit-identically, without encoding.
    let second = fresh_cache(&root);
    let reloaded = second.run(&spec()).unwrap();
    assert_eq!(*reloaded, *computed, "reloaded run must be bit-identical");
    let s = second.stats();
    assert_eq!((s.store_hits, s.store_misses), (1, 0));
    assert_eq!(s.clip_misses, 0, "a store-served run never synthesizes the clip");
    assert_eq!(s.encodes, 0, "a warm store means zero encodes");
    assert_eq!(s.stream_captures, 0, "…and zero stream recaptures");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn window_and_cost_layers_reload() {
    let root = tmp_root("layers");

    let first = fresh_cache(&root);
    let window = first.branch_window(&spec(), 10_000).unwrap();
    let cost = first.encode_decode_cost(&spec()).unwrap();
    let s = first.stats();
    // Window, cost and the shared stream entry miss; the cost derivation
    // reuses the window's in-memory capture, so one encode serves both.
    assert_eq!((s.store_hits, s.store_misses), (0, 3));
    assert_eq!(s.encodes, 1);
    drop(first);

    let second = fresh_cache(&root);
    assert_eq!(*second.branch_window(&spec(), 10_000).unwrap(), *window);
    assert_eq!(*second.encode_decode_cost(&spec()).unwrap(), *cost);
    let s = second.stats();
    // The capture's stream was persisted too, but a full window or cost
    // hit never needs it: both lookups are pure store hits.
    assert_eq!((s.store_hits, s.store_misses), (2, 0));
    assert_eq!(s.clip_misses, 0);
    assert_eq!(s.encodes, 0);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_entry_is_quarantined_and_recomputed() {
    let root = tmp_root("corruption");

    let first = fresh_cache(&root);
    let computed = first.run(&spec()).unwrap();
    drop(first);

    // Truncate the single stored run entry in place.
    let store = RunStore::open(&root).unwrap();
    let run_dir = store.dir().join("run");
    let entries: Vec<PathBuf> = std::fs::read_dir(&run_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1);
    let bytes = std::fs::read(&entries[0]).unwrap();
    std::fs::write(&entries[0], &bytes[..bytes.len() / 3]).unwrap();
    drop(store);

    // The next process recovers: quarantine + recompute, not a failure.
    let second = fresh_cache(&root);
    let recomputed = second.run(&spec()).unwrap();
    assert_eq!(*recomputed, *computed, "recompute must reproduce the run");
    let s = second.stats();
    assert_eq!(s.store_quarantined, 1);
    // The run entry misses (quarantined), but the stream entry from
    // process 1 is intact and serves the recompute — capture once.
    assert_eq!((s.store_hits, s.store_misses), (1, 1));
    assert_eq!(s.encodes, 0, "the persisted stream makes the recompute encode-free");
    assert!(entries[0].exists(), "the recomputed entry is re-stored at the same address");
    let quarantined: Vec<PathBuf> = std::fs::read_dir(&run_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "the evidence stays inspectable");

    // And the recomputed entry serves the third process from disk.
    let third = fresh_cache(&root);
    assert_eq!(*third.run(&spec()).unwrap(), *computed);
    assert_eq!(third.stats().store_hits, 1);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn schema_version_bump_invalidates_old_entries() {
    let root = tmp_root("schema");

    // Persist under the current schema version.
    let current = fresh_cache(&root);
    current.run(&spec()).unwrap();
    drop(current);

    // A future schema version sees an empty store (different directory)
    // and recomputes without touching the old entries.
    let next_version = vstress::SCHEMA_VERSION + 1;
    let bumped =
        RunCache::with_store(Arc::new(RunStore::open_with_version(&root, next_version).unwrap()));
    bumped.run(&spec()).unwrap();
    let s = bumped.stats();
    assert_eq!((s.store_hits, s.store_misses), (0, 2));
    assert_eq!(s.store_quarantined, 0, "absent is not corrupt");
    drop(bumped);

    // Both version directories now hold their own entry; the old one is
    // still valid for the old version.
    let old_again = fresh_cache(&root);
    old_again.run(&spec()).unwrap();
    assert_eq!(old_again.stats().store_hits, 1);

    let _ = std::fs::remove_dir_all(&root);
}

/// Files in `dir` whose names end in `suffix`.
fn files_ending(dir: &std::path::Path, suffix: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries.map(|e| e.unwrap().path()).filter(|p| p.to_string_lossy().ends_with(suffix)).collect()
}

/// Section offsets of one `stream` entry, read off its framing: magic
/// (8 bytes) and a `u32` schema version, then `u64`-length fields for
/// the kind, the key text and the payload, then the `u64` checksum.
/// The payload holds the `u64`-length metadata and bitstream fields,
/// then the chunk section: `u32` format version, `u64` event count,
/// `u64` chunk count, and a `u64` length plus raw bytes per chunk.
struct StreamLayout {
    kind: usize,
    key: usize,
    payload: usize,
    meta: usize,
    bitstream: usize,
    chunk_count: usize,
    first_chunk: usize,
    first_chunk_bytes: usize,
    checksum: usize,
}

impl StreamLayout {
    fn of(b: &[u8]) -> Self {
        let len_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
        let kind = 12;
        let key = kind + 8 + len_at(kind);
        let payload = key + 8 + len_at(key);
        let meta = payload + 8;
        let bitstream = meta + 8 + len_at(meta);
        let chunk_count = bitstream + 8 + len_at(bitstream) + 12;
        let first_chunk = chunk_count + 8;
        let checksum = b.len() - 8;
        assert_eq!(&b[..8], b"vstress\0");
        assert_eq!(&b[kind + 8..key], b"stream");
        assert_eq!(payload + 8 + len_at(payload), checksum, "payload runs up to the checksum");
        assert!(len_at(chunk_count) >= 1);
        StreamLayout {
            kind,
            key,
            payload,
            meta,
            bitstream,
            chunk_count,
            first_chunk,
            first_chunk_bytes: len_at(first_chunk),
            checksum,
        }
    }
}

/// Every kind of damage to a real `stream` entry — truncation in each
/// section, a flipped byte in each section, an oversized length field —
/// is quarantined and re-recorded: the run comes out identical, the
/// store counts exactly one quarantine, and nothing panics.
#[test]
fn damaged_stream_entries_are_quarantined_and_rerecorded() {
    let root = tmp_root("hostile");
    let spec = spec().counting_only();

    let first = fresh_cache(&root);
    let computed = first.run(&spec).unwrap();
    drop(first);
    let vdir = RunStore::open(&root).unwrap().dir().to_path_buf();
    let (run_dir, stream_dir) = (vdir.join("run"), vdir.join("stream"));
    let streams = files_ending(&stream_dir, ".entry");
    assert_eq!(streams.len(), 1);
    let pristine = std::fs::read(&streams[0]).unwrap();
    let at = StreamLayout::of(&pristine);

    let truncate = |n: usize| pristine[..n].to_vec();
    let flip = |i: usize| {
        let mut b = pristine.clone();
        b[i] ^= 0x40;
        b
    };
    let oversize = |i: usize| {
        let mut b = pristine.clone();
        b[i..i + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        b
    };
    let mid_chunk = at.first_chunk + 8 + at.first_chunk_bytes / 2;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncated in the magic", truncate(5)),
        ("truncated in the version", truncate(10)),
        ("truncated in the key", truncate(at.key + 10)),
        ("truncated in the metadata", truncate(at.meta + 20)),
        ("truncated in the bitstream", truncate(at.bitstream + 12)),
        ("truncated in the chunk table", truncate(at.chunk_count + 4)),
        ("truncated mid-chunk", truncate(mid_chunk)),
        ("truncated in the checksum", truncate(at.checksum + 3)),
        ("empty file", Vec::new()),
        ("flipped magic", flip(2)),
        ("flipped version", flip(8)),
        ("flipped kind", flip(at.kind + 8)),
        ("flipped key", flip(at.key + 9)),
        ("flipped payload length", flip(at.payload)),
        ("flipped metadata", flip(at.meta + 9)),
        ("flipped bitstream", flip(at.bitstream + 9)),
        ("flipped chunk count", flip(at.chunk_count)),
        ("flipped chunk length", flip(at.first_chunk + 1)),
        ("flipped chunk byte", flip(mid_chunk)),
        ("flipped checksum", flip(at.checksum + 5)),
        ("oversized kind length", oversize(at.kind)),
        ("oversized key length", oversize(at.key)),
        ("oversized payload length", oversize(at.payload)),
        ("oversized chunk count", oversize(at.chunk_count)),
        ("oversized chunk length", oversize(at.first_chunk)),
    ];

    for (what, damaged) in cases {
        // No run entry, so the run must come from the (damaged) stream.
        for f in files_ending(&run_dir, "") {
            std::fs::remove_file(f).unwrap();
        }
        for f in files_ending(&stream_dir, ".quarantined") {
            std::fs::remove_file(f).unwrap();
        }
        std::fs::write(&streams[0], &damaged).unwrap();

        let cache = fresh_cache(&root);
        let run = cache.run(&spec).unwrap();
        assert_eq!(*run, *computed, "{what}: same characterization");
        let s = cache.stats();
        assert_eq!(s.store_quarantined, 1, "{what}: quarantined once");
        assert_eq!(s.stream_captures, 1, "{what}: re-recorded");
        assert_eq!(files_ending(&stream_dir, ".quarantined").len(), 1, "{what}: evidence kept");
        assert_eq!(std::fs::read(&streams[0]).unwrap(), pristine, "{what}: re-stored intact");
    }

    let _ = std::fs::remove_dir_all(&root);
}
