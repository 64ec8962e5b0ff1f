//! Persistent, versioned, content-addressed on-disk result store.
//!
//! [`RunCache`](super::RunCache) deduplicates characterization work
//! *within* one process; this store extends the same reuse *across*
//! processes, so an interrupted or repeated `vstress-repro` invocation
//! resumes from completed specs instead of re-paying the SVT-AV1-style
//! search-space cost the paper centers on. Runs are bit-deterministic
//! (see `tests/determinism.rs`), so replaying a stored entry is
//! indistinguishable from recomputing it.
//!
//! # Layout
//!
//! ```text
//! <root>/v<SCHEMA_VERSION>/<kind>/<fnv64(key)>.entry
//! ```
//!
//! * `kind` is the cache layer: `run` (characterization runs), `window`
//!   (CBP branch windows), `cost` (encode/decode cost pairs), `stream`
//!   (captured encodes with their event streams).
//! * The file name is the FNV-1a 64-bit hash of the entry's *key text*
//!   — a human-readable rendering of everything that determines the
//!   value (clip, codec, params, fidelity, divisor, …) — so the store
//!   is content-addressed and needs no index.
//! * Each entry is one binary envelope (the same for every kind),
//!   little-endian, every variable field behind a `u64` length:
//!
//!   ```text
//!   magic "vstress\0" | u32 version | kind | key text | payload | u64 checksum
//!   ```
//!
//!   The checksum ([`checksum64`]) covers every byte before it. On read
//!   the version, kind, key and checksum are all verified, which catches
//!   hash collisions, cross-kind mixups and torn writes.
//! * The payload is the value's [`Persist`] form: serde-shim text for
//!   runs and costs; the VBT1 branch trace (`vstress_trace::io`) for a
//!   `window` entry; for a `stream` entry
//!   ([`CapturedEncode`](crate::workbench::CapturedEncode)) the
//!   capture's small metadata as serde text, the bitstream as raw
//!   bytes, and the event stream's chunk section (chunk count, then a
//!   `u64` length and the raw packed bytes per chunk).
//! * A read takes the file into one byte buffer and decodes from it:
//!   header fields and serde text are borrowed, never copied into a
//!   `String`, each stream chunk is copied once into its own allocation,
//!   and every length field is checked against the bytes remaining
//!   before anything is allocated.
//!
//! # Robustness
//!
//! * **Atomic writes** — entries are written to a temp file in the same
//!   directory and `rename`d into place, so a crashed writer can never
//!   leave a half-visible entry.
//! * **Quarantine** — a corrupt or stale entry (framing failure;
//!   version, kind or key mismatch; bad checksum; undecodable payload)
//!   is renamed to `*.quarantined` and treated as a miss; the value is
//!   recomputed and re-stored. Nothing in the store can make a run fail.
//! * **Versioning** — bumping [`SCHEMA_VERSION`] changes the directory,
//!   invalidating every old entry at once; the in-file version field
//!   additionally rejects entries copied across version directories.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use vstress_trace::wire;

/// Bump when the wire format of any stored payload type changes
/// (serde shim format, `CharacterizationRun` fields, key text, …).
/// Old entries become invisible (different directory) and unreadable
/// (in-file version check).
///
/// v2: `FrameTaskTrace` gained `plan_units` (measured tile/wavefront
/// unit costs), changing the `CharacterizationRun` wire format.
///
/// v3: the `stream` entry kind (captured probe event streams) joined
/// the store, and runs / branch windows / decode costs are now derived
/// from captured streams instead of dedicated re-encodes. Results are
/// bit-identical, but a v2 store has no streams, so the capture-once
/// layers start cold rather than mixing generations.
///
/// v4: entries moved from a serde-text envelope (payload as a string
/// inside a string, stream chunks and bitstreams as hex) to the binary
/// envelope of the module docs, with raw chunks, VBT1 branch windows and the
/// word-wise [`checksum64`]. A v3 store is simply invisible; nothing
/// converts it.
pub const SCHEMA_VERSION: u32 = 4;

/// Store layer for characterization runs.
pub(crate) const KIND_RUN: &str = "run";
/// Store layer for CBP branch windows.
pub(crate) const KIND_WINDOW: &str = "window";
/// Store layer for encode/decode cost pairs.
pub(crate) const KIND_COST: &str = "cost";
/// Store layer for captured encode event streams.
pub(crate) const KIND_STREAM: &str = "stream";

/// FNV-1a 64-bit hash — the store's stable content address. (The std
/// `Hasher` is explicitly not stable across releases; this is.)
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The entry checksum: FNV-1a's xor-multiply step run over
/// little-endian `u64` words in four independent lanes (so the
/// multiplies pipeline), the lanes then folded together, the trailing
/// `len % 32` bytes and the length folded in byte-serially, and a final
/// avalanche. Every step is a bijection of the running state, so any
/// single changed word, and in particular any single flipped bit, is
/// always detected. About seven times the speed of byte-serial
/// [`fnv64`], which stays the file-name content address.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h = (h ^ bytes.len() as u64).wrapping_mul(PRIME);
    // murmur3's fmix64: spreads the high-bit-only effect of the last
    // multiplies over the whole word.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A value the store can hold: how it is laid out in an entry's payload
/// section. Every serde-shim type persists as its text; types with bulk
/// binary data (captured streams, branch windows) implement it by hand.
pub trait Persist: Sized {
    /// Appends the payload form of `self` to `out`.
    fn write_payload(&self, out: &mut Vec<u8>);

    /// Decodes a value off the front of `payload`, advancing it; the
    /// store rejects any bytes left over.
    ///
    /// # Errors
    ///
    /// Returns a [`serde::Error`] for malformed or truncated input.
    fn read_payload(payload: &mut &[u8]) -> Result<Self, serde::Error>;
}

impl<T> Persist for T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    fn write_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(serde::to_string(self).as_bytes());
    }

    fn read_payload(payload: &mut &[u8]) -> Result<Self, serde::Error> {
        let text = std::str::from_utf8(std::mem::take(payload))
            .map_err(|e| serde::Error::new(format!("payload is not UTF-8: {e}")))?;
        serde::from_str(text)
    }
}

/// The first bytes of every entry file.
const MAGIC: &[u8; 8] = b"vstress\0";

/// Frames `value` as one entry file: the envelope of the module docs,
/// with the payload written in place (its length field patched in
/// afterwards) so a bulk payload is never staged in a buffer of its own.
fn encode_entry<T: Persist>(version: u32, kind: &str, key_text: &str, value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    wire::put_u32(&mut out, version);
    wire::put_bytes(&mut out, kind.as_bytes());
    wire::put_bytes(&mut out, key_text.as_bytes());
    let len_at = out.len();
    wire::put_u64(&mut out, 0);
    value.write_payload(&mut out);
    let len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    let checksum = checksum64(&out);
    wire::put_u64(&mut out, checksum);
    out
}

/// Verifies one entry file's envelope against the expected version,
/// kind and key and its checksum, then decodes the payload it frames.
fn decode_entry<T: Persist>(
    data: &[u8],
    version: u32,
    kind: &str,
    key_text: &str,
) -> Result<T, serde::Error> {
    let mut rest = data;
    if wire::take(&mut rest, MAGIC.len() as u64, "magic")? != MAGIC {
        return Err(serde::Error::new("not a vstress store entry (bad magic)"));
    }
    let entry_version = wire::take_u32(&mut rest, "schema version")?;
    let entry_kind = wire::take_bytes(&mut rest, "kind")?;
    let entry_key = wire::take_bytes(&mut rest, "key text")?;
    let mut payload = wire::take_bytes(&mut rest, "payload")?;
    let checksum = wire::take_u64(&mut rest, "checksum")?;
    if !rest.is_empty() {
        return Err(serde::Error::new(format!("{} trailing bytes", rest.len())));
    }
    if entry_version != version {
        return Err(serde::Error::new(format!(
            "schema version {entry_version} (store is v{version})"
        )));
    }
    if entry_kind != kind.as_bytes() {
        return Err(serde::Error::new(format!(
            "kind {:?}, expected {kind:?}",
            String::from_utf8_lossy(entry_kind)
        )));
    }
    if entry_key != key_text.as_bytes() {
        return Err(serde::Error::new("key text mismatch (hash collision?)"));
    }
    if checksum64(&data[..data.len() - 8]) != checksum {
        return Err(serde::Error::new("checksum mismatch"));
    }
    let value = T::read_payload(&mut payload)?;
    if !payload.is_empty() {
        return Err(serde::Error::new(format!("{} trailing payload bytes", payload.len())));
    }
    Ok(value)
}

/// Hit/miss/robustness counters for one [`RunStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk (work skipped).
    pub hits: u64,
    /// Lookups that found no usable entry (work performed, then stored).
    pub misses: u64,
    /// Corrupt or stale entries renamed aside and recomputed.
    pub quarantined: u64,
    /// Entry writes that failed (store skipped, run unaffected).
    pub write_errors: u64,
}

/// On-disk footprint of one entry kind (see [`RunStore::disk_usage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindUsage {
    /// Entry kind (`run` / `window` / `cost` / `stream`).
    pub kind: String,
    /// Number of `.entry` files.
    pub entries: u64,
    /// Total bytes of those entries.
    pub bytes: u64,
}

/// Disk-usage summary of one store's version directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskUsage {
    /// Per-kind entry counts and sizes, sorted by kind name.
    pub kinds: Vec<KindUsage>,
    /// `*.quarantined` files still awaiting inspection.
    pub quarantined: u64,
}

/// Deletes `*.quarantined` files left under version directories older
/// than `current`. Their schema is gone, so the evidence can never be
/// re-examined against live code, and without a sweep every bump leaves
/// them accumulating forever. Quarantined files of the *current*
/// version are kept — they are the inspectable evidence of recent
/// corruption. Best-effort: IO failures leave files for the next open.
fn sweep_stale_quarantine(root: &Path, current: u32) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for dir in entries.flatten() {
        let name = dir.file_name();
        let version =
            name.to_str().and_then(|n| n.strip_prefix('v')).and_then(|n| n.parse::<u32>().ok());
        let Some(v) = version else { continue };
        if v >= current {
            continue;
        }
        let Ok(kinds) = std::fs::read_dir(dir.path()) else {
            continue;
        };
        for kind in kinds.flatten() {
            let Ok(files) = std::fs::read_dir(kind.path()) else {
                continue;
            };
            for f in files.flatten() {
                if f.file_name().to_string_lossy().ends_with(".quarantined") {
                    let _ = std::fs::remove_file(f.path());
                }
            }
        }
    }
}

/// A persistent result store rooted at one directory.
///
/// Thread-safe: lookups and writes touch disjoint files per key, writes
/// are atomic renames, and counters are atomics. Multiple processes may
/// share one root concurrently; the worst race outcome is both
/// computing and one `rename` winning, which is harmless because runs
/// are deterministic.
pub struct RunStore {
    /// `<root>/v<version>` — the directory all entries live under.
    vdir: PathBuf,
    version: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    write_errors: AtomicU64,
    tmp_counter: AtomicU64,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("vdir", &self.vdir)
            .field("version", &self.version)
            .field("stats", &self.stats())
            .finish()
    }
}

impl RunStore {
    /// Opens (creating if needed) the store rooted at `root`, under the
    /// current [`SCHEMA_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] from creating the version
    /// directory.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with_version(root, SCHEMA_VERSION)
    }

    /// Opens the store under an explicit schema version.
    ///
    /// Intended for tests (schema-invalidation coverage) and future
    /// migration tooling; normal callers use [`RunStore::open`].
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] from creating the version
    /// directory.
    pub fn open_with_version(root: impl AsRef<Path>, version: u32) -> std::io::Result<Self> {
        let vdir = root.as_ref().join(format!("v{version}"));
        std::fs::create_dir_all(&vdir)?;
        sweep_stale_quarantine(root.as_ref(), version);
        Ok(RunStore {
            vdir,
            version,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The version directory entries live under.
    pub fn dir(&self) -> &Path {
        &self.vdir
    }

    /// Scans the version directory and reports entries/bytes per kind
    /// plus the number of quarantined files awaiting inspection — the
    /// `store-stats` maintenance view. Purely observational (no counter
    /// changes); IO errors degrade to an empty report rather than
    /// failing, like every other store path.
    pub fn disk_usage(&self) -> DiskUsage {
        let mut usage = DiskUsage::default();
        let Ok(kinds) = std::fs::read_dir(&self.vdir) else {
            return usage;
        };
        for kind_dir in kinds.flatten() {
            if !kind_dir.path().is_dir() {
                continue;
            }
            let kind = kind_dir.file_name().to_string_lossy().into_owned();
            let mut ku = KindUsage { kind, entries: 0, bytes: 0 };
            let Ok(files) = std::fs::read_dir(kind_dir.path()) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                let Some(name) = name else { continue };
                if name.ends_with(".quarantined") {
                    usage.quarantined += 1;
                } else if name.ends_with(".entry") {
                    ku.entries += 1;
                    ku.bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
            usage.kinds.push(ku);
        }
        usage.kinds.sort_by(|a, b| a.kind.cmp(&b.kind));
        usage
    }

    /// Snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, kind: &str, key_text: &str) -> PathBuf {
        self.vdir.join(kind).join(format!("{:016x}.entry", fnv64(key_text.as_bytes())))
    }

    /// Looks up `key_text` in layer `kind`. Counts a hit or a miss; a
    /// corrupt entry is quarantined (renamed aside) and counted as both
    /// `quarantined` and a miss.
    pub(crate) fn get<T: Persist>(&self, kind: &str, key_text: &str) -> Option<T> {
        let path = self.entry_path(kind, key_text);
        let Ok(data) = std::fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode_entry(&data, self.version, kind, key_text) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(why) => {
                // Move the bad entry aside (best effort) so the slot is
                // free for the recomputed value and the evidence stays
                // inspectable.
                let mut quarantine = path.clone().into_os_string();
                quarantine.push(".quarantined");
                let _ = std::fs::rename(&path, &quarantine);
                eprintln!(
                    "vstress store: quarantined {} ({why})",
                    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
                );
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` under `key_text` in layer `kind` via an atomic
    /// temp-file + rename. Failures only bump `write_errors`: the store
    /// is an optimization and must never fail a run.
    pub(crate) fn put<T: Persist>(&self, kind: &str, key_text: &str, value: &T) {
        let entry = encode_entry(self.version, kind, key_text, value);
        let path = self.entry_path(kind, key_text);
        if self.write_atomic(&path, &entry).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let dir = path.parent().expect("entry paths always have a parent");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        let renamed = std::fs::rename(&tmp, path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vstress-store-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum64_matches_fixed_vectors() {
        // Pinned outputs: lane-only, tail-only and mixed inputs. A change
        // here silently invalidates every stored entry, so it must come
        // with a SCHEMA_VERSION bump.
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(checksum64(b""), 0x3f75_88d3_d371_74bd);
        assert_eq!(checksum64(b"a"), 0xcfd3_b9f1_1635_a4e1);
        assert_eq!(checksum64(b"foobar"), 0xda85_469f_b216_0909);
        assert_eq!(checksum64(&ramp[..32]), 0xe17d_6239_85f4_833e);
        assert_eq!(checksum64(&ramp[..100]), 0xf71c_9aa1_edce_9c32);
        assert_eq!(checksum64(&ramp), 0x3f27_d610_dbee_fdf1);
    }

    #[test]
    fn checksum64_detects_every_single_bit_flip() {
        // Two full 32-byte blocks plus a 7-byte tail: every lane and the
        // byte-serial tail are exercised.
        let buf: Vec<u8> = (0..71u32).map(|i| (i * 37 + 11) as u8).collect();
        let clean = checksum64(&buf);
        let mut flipped = buf.clone();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), clean, "flip of bit {bit} in byte {byte}");
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn checksum64_detects_truncation() {
        let buf: Vec<u8> = (0..200u32).map(|i| (i * 131 + 7) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=buf.len() {
            assert!(seen.insert(checksum64(&buf[..len])), "prefix of {len} bytes collides");
        }
        // Zero bytes are not free: the length is folded in.
        let zeros = [0u8; 64];
        assert_ne!(checksum64(&zeros[..32]), checksum64(&zeros[..33]));
        assert_ne!(checksum64(&zeros[..8]), checksum64(&zeros));
    }

    #[test]
    fn roundtrip_and_counters() {
        let root = tmp_root("roundtrip");
        let store = RunStore::open(&root).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), None);
        store.put(KIND_RUN, "k", &42u64);
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), Some(42));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.quarantined, s.write_errors), (1, 1, 0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn kinds_are_disjoint() {
        let root = tmp_root("kinds");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "k", &1u64);
        assert_eq!(store.get::<u64>(KIND_WINDOW, "k"), None);
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), Some(1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_fatal() {
        let root = tmp_root("corrupt");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "k", &7u64);
        let path = store.entry_path(KIND_RUN, "k");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), None);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!path.exists(), "corrupt entry must be moved aside");
        let mut quarantined = path.into_os_string();
        quarantined.push(".quarantined");
        assert!(PathBuf::from(quarantined).exists());
        // The slot is writable again.
        store.put(KIND_RUN, "k", &7u64);
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), Some(7));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn version_mismatch_rejects_copied_entries() {
        let root = tmp_root("version");
        let v1 = RunStore::open_with_version(&root, 1).unwrap();
        v1.put(KIND_RUN, "k", &9u64);
        // Different version: entries live in a different directory.
        let v2 = RunStore::open_with_version(&root, 2).unwrap();
        assert_eq!(v2.get::<u64>(KIND_RUN, "k"), None);
        assert_eq!(v2.stats().quarantined, 0, "absent, not corrupt");
        // An entry smuggled across version directories fails the
        // in-file version check and is quarantined.
        let from = v1.entry_path(KIND_RUN, "k");
        let to = v2.entry_path(KIND_RUN, "k");
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(&from, &to).unwrap();
        assert_eq!(v2.get::<u64>(KIND_RUN, "k"), None);
        assert_eq!(v2.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_quarantined_files_are_swept_on_open() {
        let root = tmp_root("sweep");
        // An old-version store quarantines a corrupted entry.
        let old = RunStore::open_with_version(&root, SCHEMA_VERSION - 1).unwrap();
        old.put(KIND_RUN, "k", &1u64);
        let path = old.entry_path(KIND_RUN, "k");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(old.get::<u64>(KIND_RUN, "k"), None);
        let mut stale = path.into_os_string();
        stale.push(".quarantined");
        let stale = PathBuf::from(stale);
        assert!(stale.exists());
        drop(old);

        // Opening the current version deletes the stale quarantine file
        // (its schema can never be re-examined) …
        let cur = RunStore::open(&root).unwrap();
        assert!(!stale.exists(), "stale quarantined file must be swept");

        // … but current-version quarantine evidence survives reopens.
        cur.put(KIND_RUN, "k", &2u64);
        let path = cur.entry_path(KIND_RUN, "k");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(cur.get::<u64>(KIND_RUN, "k"), None);
        drop(cur);
        let again = RunStore::open(&root).unwrap();
        let mut kept = again.entry_path(KIND_RUN, "k").into_os_string();
        kept.push(".quarantined");
        assert!(PathBuf::from(kept).exists(), "current-version evidence is kept");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_usage_reports_kinds_and_quarantine() {
        let root = tmp_root("usage");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "a", &1u64);
        store.put(KIND_RUN, "b", &2u64);
        store.put(KIND_COST, "c", &3u64);
        // Corrupt one run entry so a read quarantines it.
        let path = store.entry_path(KIND_RUN, "a");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "a"), None);

        let u = store.disk_usage();
        assert_eq!(u.quarantined, 1);
        let kinds: Vec<&str> = u.kinds.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(kinds, ["cost", "run"], "sorted by kind name");
        let run = u.kinds.iter().find(|k| k.kind == "run").unwrap();
        assert_eq!(run.entries, 1, "quarantined files are not entries");
        assert!(run.bytes > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_same_hash_slot_is_rejected() {
        let root = tmp_root("keycheck");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "key-a", &1u64);
        // Force a lookup of a different key onto the same file by
        // copying the entry to key-b's address.
        let from = store.entry_path(KIND_RUN, "key-a");
        let to = store.entry_path(KIND_RUN, "key-b");
        std::fs::copy(&from, &to).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "key-b"), None);
        assert_eq!(store.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
